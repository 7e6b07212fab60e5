//! Sweep equivalence: every [`Sweep`] axis, run as a small testbed grid
//! (2 seeds, 2 worker threads), must emit **byte-identical** records,
//! checkpoint cell keys and manifest fingerprints to the engine that
//! resolved sweep points inside each worker, captured in
//! `tests/golden/sweep_grid_run.json` before the scenario layer was split
//! into builder → plan → executor.
//!
//! One grid per axis: Packets, K, Bitrate, LossScale, Channel, Load
//! (Poisson arrivals), Queue with AIMD congestion control (its unbounded
//! point must run unpaced), and Flows over both `RandomConcurrent` and
//! `Staggered` traffic. Each grid runs checkpointed into a JSONL file so
//! the manifest's `config` fingerprint — what a resumed sweep compares
//! against — is pinned alongside the records.
//!
//! Regenerate (only when an *intentional* engine change lands) with:
//! `UPDATE_GOLDEN=1 cargo test --test sweep_equivalence`.

#![expect(
    clippy::expect_used,
    reason = "test support code outside #[test] fns: a panic is the test's failure report"
)]

use more_repro::scenario::manifest::Manifest;
use more_repro::scenario::sink::{Collect, JsonLines, Tee};
use more_repro::scenario::{
    record, AimdConfig, ChannelSpec, QueueSpec, Scenario, ScenarioBuilder, Sweep, TrafficModelSpec,
    TrafficSpec,
};
use more_repro::sim::Bitrate;
use more_repro::topology::json::escape;
use more_repro::topology::NodeId;

/// The shared base of every grid: the 20-node testbed, two seeds, two
/// workers, small transfers.
fn base(name: &str) -> ScenarioBuilder {
    Scenario::named(name)
        .testbed(1)
        .seeds([1, 2])
        .threads(2)
        .k(8)
        .packets(16)
        .deadline(60)
}

/// A unicast pair across the testbed with two protocols.
fn pair(name: &str) -> ScenarioBuilder {
    base(name)
        .pair(NodeId(0), NodeId(19))
        .protocols(["MORE", "Srcr"])
}

/// One grid per sweep axis, in golden-file order.
fn grids() -> Vec<(&'static str, ScenarioBuilder)> {
    vec![
        (
            "packets",
            pair("sweep_packets").sweep(Sweep::Packets(vec![8, 24])),
        ),
        ("k", pair("sweep_k").sweep(Sweep::K(vec![4, 16]))),
        (
            "bitrate",
            pair("sweep_bitrate").sweep(Sweep::Bitrate(vec![Bitrate::B2, Bitrate::B11])),
        ),
        (
            "loss_scale",
            pair("sweep_loss_scale").sweep(Sweep::LossScale(vec![0.5, 1.5])),
        ),
        (
            "channel",
            pair("sweep_channel").sweep(Sweep::Channel(vec![
                ChannelSpec::Static,
                ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10),
            ])),
        ),
        (
            "load",
            base("sweep_load")
                .traffic_model(TrafficModelSpec::Poisson {
                    rate_per_s: 0.2,
                    mean_hold_s: 10.0,
                    max_active: 2,
                })
                .protocols(["MORE", "ExOR", "Srcr"])
                .sweep(Sweep::Load(vec![0.1, 0.4])),
        ),
        (
            "queue_congestion",
            base("sweep_queue_congestion")
                .traffic(TrafficSpec::Concurrent(vec![
                    (NodeId(0), NodeId(19)),
                    (NodeId(5), NodeId(12)),
                ]))
                .protocols(["MORE", "Srcr"])
                .queue(QueueSpec::drop_tail(8))
                .congestion(AimdConfig::default())
                .sweep(Sweep::Queue(vec![
                    QueueSpec::Unbounded,
                    QueueSpec::drop_tail(4),
                ])),
        ),
        (
            "flows_random_concurrent",
            base("sweep_flows_random_concurrent")
                .traffic(TrafficSpec::RandomConcurrent {
                    n_flows: 2,
                    seed_offset: 5,
                    distinct_sources: true,
                })
                .protocols(["MORE", "ExOR"])
                .sweep(Sweep::Flows(vec![1, 3])),
        ),
        (
            "flows_staggered",
            base("sweep_flows_staggered")
                .traffic_model(TrafficModelSpec::Staggered {
                    n_flows: 2,
                    gap_ms: 500,
                    hold_ms: Some(20_000),
                })
                .protocols(["MORE", "Srcr"])
                .sweep(Sweep::Flows(vec![1, 2])),
        ),
    ]
}

/// Runs every grid checkpointed into a scratch directory and renders the
/// golden document: per grid, the manifest fingerprint, the completed
/// cell keys and the records.
fn render() -> String {
    let dir = std::env::temp_dir().join(format!("more_sweep_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let dir_str = dir.to_str().expect("utf-8 temp dir");
    let mut sections = Vec::new();
    for (label, builder) in grids() {
        let mut collect = Collect::new();
        let jsonl = dir.join(format!("{label}.jsonl"));
        {
            let mut tee = Tee::new()
                .with(&mut collect)
                .with(JsonLines::create(jsonl.to_str().expect("utf-8 path")).expect("jsonl"));
            builder
                .checkpoint(dir_str)
                .try_run_with_sink(&mut tee)
                .expect(label);
        }
        let manifest_path = Manifest::path_for(dir_str, &format!("sweep_{label}"));
        let manifest = Manifest::load(&manifest_path)
            .expect("read manifest")
            .expect("checkpointed sweep writes a manifest");
        let cells: Vec<String> = manifest
            .cells
            .iter()
            .map(|c| format!("\"{}\"", escape(c)))
            .collect();
        let records = record::to_json(collect.records());
        sections.push(format!(
            "\"{label}\": {{\n\"config\": \"{}\",\n\"cells\": [{}],\n\"records\": {}}}",
            escape(&manifest.config),
            cells.join(", "),
            records.trim_end(),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

#[test]
fn every_sweep_axis_reproduces_the_captured_grid_byte_for_byte() {
    let doc = render();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/sweep_grid_run.json"
        );
        std::fs::write(path, &doc).expect("write golden");
        return;
    }
    let golden = include_str!("golden/sweep_grid_run.json");
    for (ours, theirs) in doc.lines().zip(golden.lines()) {
        assert_eq!(ours, theirs, "sweep grid diverged from the captured engine");
    }
    assert_eq!(doc, golden, "sweep grid diverged from the captured engine");
}
