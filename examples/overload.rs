//! DropTail vs CHOKe when offered load passes saturation.
//!
//! The paper's transfers are closed-loop: each source stops when its
//! batch is delivered, so queues never build. This example pushes the
//! other regime — Poisson flow arrivals faster than the mesh can drain —
//! through the queueing subsystem, comparing a plain DropTail transmit
//! queue against CHOKe's flow-matched drops under MORE and Srcr, with
//! Jain's fairness index surfaced in every record. The two disciplines
//! pick different victims, and the index shows how much that choice
//! matters: under Srcr's one-packet-at-a-time sources they behave almost
//! identically, while under MORE's rateless coder (which refills the
//! queue as fast as it drains) CHOKe's self-matching throttles the
//! dominant flow hard — far fewer total drops, and a very different
//! split of the medium. A per-node transmit queue in a mesh is *not* the
//! shared wired bottleneck CHOKe was designed for: most queues carry one
//! flow, so matching hits that flow's own frames rather than an unfair
//! competitor's.
//!
//! Streams `results/overload.jsonl` + `.csv` while the grids run and
//! prints a fairness table.
//!
//! ```sh
//! cargo run --release --example overload
//! ```

#![expect(
    clippy::panic,
    reason = "example binary: a failed run aborts the demo with its message"
)]

use more_repro::scenario::sink::{Collect, CsvAppend, JsonLines, Tee};
use more_repro::scenario::{QueueSpec, RunRecord, Scenario, Sweep, TrafficModelSpec};
use std::fmt::Write as _;

const JSONL_PATH: &str = "results/overload.jsonl";
const CSV_PATH: &str = "results/overload.csv";

/// Arrival rates (flows/s): the first is comfortable, the last is well
/// past what a 20-node 802.11b mesh drains with 8-frame queues.
const LOADS: [f64; 2] = [0.1, 0.5];

fn run_discipline(queue: QueueSpec, collect: &mut Collect, fresh: bool) {
    // Append so both disciplines land in one file pair; the first run
    // claims the files.
    let jsonl = if fresh {
        JsonLines::create(JSONL_PATH)
    } else {
        JsonLines::append(JSONL_PATH)
    }
    .unwrap_or_else(|e| panic!("open {JSONL_PATH}: {e}"));
    let csv = if fresh {
        CsvAppend::create(CSV_PATH)
    } else {
        CsvAppend::append(CSV_PATH)
    }
    .unwrap_or_else(|e| panic!("open {CSV_PATH}: {e}"));
    let mut sink = Tee::new().with(collect).with(jsonl).with(csv);
    Scenario::named("overload")
        .testbed(1)
        .traffic_model(TrafficModelSpec::Poisson {
            rate_per_s: LOADS[0],
            mean_hold_s: 30.0,
            max_active: 4,
        })
        .protocols(["MORE", "Srcr"])
        .sweep(Sweep::Load(LOADS.to_vec()))
        .queue(queue)
        .seeds(1..=2)
        .k(8)
        .packets(64)
        .deadline(60)
        .run_with_sink(&mut sink);
}

fn main() {
    let disciplines = [QueueSpec::drop_tail(8), QueueSpec::choke(8)];

    let mut collect = Collect::new();
    for (i, q) in disciplines.iter().enumerate() {
        run_discipline(q.clone(), &mut collect, i == 0);
    }
    let records = collect.into_records();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Jain's fairness index (mean over 2 seeds) at each offered load:\n"
    );
    let _ = writeln!(
        out,
        "  {:<6} {:<10} {:>16} {:>16} {:>12}",
        "proto", "load f/s", "droptail(cap=8)", "choke(cap=8)", "drops dt/ch"
    );
    for proto in ["MORE", "Srcr"] {
        for &load in &LOADS {
            let sel = |q: &QueueSpec| -> Vec<&RunRecord> {
                records
                    .iter()
                    .filter(|r| {
                        r.protocol == proto && r.value == Some(load) && r.queue == q.label()
                    })
                    .collect()
            };
            let fairness = |rs: &[&RunRecord]| -> f64 {
                rs.iter().map(|r| r.fairness).sum::<f64>() / rs.len().max(1) as f64
            };
            let drops = |rs: &[&RunRecord]| -> u64 { rs.iter().map(|r| r.queue_drops).sum() };
            let (dt, ch) = (sel(&disciplines[0]), sel(&disciplines[1]));
            let _ = writeln!(
                out,
                "  {proto:<6} {load:<10} {:>16.3} {:>16.3} {:>6}/{}",
                fairness(&dt),
                fairness(&ch),
                drops(&dt),
                drops(&ch),
            );
        }
    }
    let _ = writeln!(
        out,
        "\n(same arrival process per cell: fairness differences come from\n what the queue chooses to drop, not from what the air delivers)"
    );
    print!("{out}");

    println!("records streamed to {JSONL_PATH} and {CSV_PATH}");
}
