//! MORE vs Srcr under dynamic Poisson flow arrivals — the offered-load
//! curve the paper never drew.
//!
//! The paper's workloads are static: every flow exists from t = 0 and
//! runs to completion. Real meshes see churn — transfers arrive, hold,
//! and depart. This example sweeps the Poisson arrival rate
//! ([`Sweep::Load`]) over the testbed and plots offered load against
//! per-flow delivered throughput for MORE and Srcr: at low load both
//! protocols serve every flow, and as arrivals pack the air the curves
//! separate and then collapse — the classic congestion-collapse figure,
//! with identical arrival processes per rate point so the comparison is
//! fair.
//!
//! Streams `results/dynamic_arrivals.jsonl` + `.csv` while the sweep
//! runs and prints the paths.
//!
//! ```sh
//! cargo run --release --example dynamic_arrivals
//! ```

#![expect(
    clippy::panic,
    reason = "example binary: a failed run aborts the demo with its message"
)]

use more_repro::scenario::sink::{Collect, CsvAppend, JsonLines, Tee};
use more_repro::scenario::{RunRecord, Scenario, Sweep, TrafficModelSpec};
use std::fmt::Write as _;

const JSONL_PATH: &str = "results/dynamic_arrivals.jsonl";
const CSV_PATH: &str = "results/dynamic_arrivals.csv";

const RATES: [f64; 4] = [0.05, 0.1, 0.2, 0.4];

fn main() {
    // Flows hold ~20 s (or finish earlier), at most 4 share the air; the
    // Load sweep replaces the arrival rate per point. Results stream to
    // JSONL + CSV as each grid cell completes; Collect keeps a copy for
    // the offered-load table.
    let mut collect = Collect::new();
    {
        let jsonl =
            JsonLines::create(JSONL_PATH).unwrap_or_else(|e| panic!("open {JSONL_PATH}: {e}"));
        let csv = CsvAppend::create(CSV_PATH).unwrap_or_else(|e| panic!("open {CSV_PATH}: {e}"));
        let mut sink = Tee::new().with(&mut collect).with(jsonl).with(csv);
        Scenario::named("dynamic_arrivals")
            .testbed(1)
            .traffic_model(TrafficModelSpec::Poisson {
                rate_per_s: RATES[0],
                mean_hold_s: 20.0,
                max_active: 4,
            })
            .protocols(["MORE", "Srcr"])
            .sweep(Sweep::Load(RATES.to_vec()))
            .seeds(1..=2)
            .packets(96)
            .k(16)
            .deadline(120)
            .run_with_sink(&mut sink);
    }
    let records = collect.into_records();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "offered load vs mean per-flow throughput (packets/s), testbed × 2 seeds:\n"
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>8} {:>10} {:>10}",
        "rate (1/s)", "flows", "MORE", "Srcr"
    );
    for &rate in &RATES {
        let at = |proto: &str| -> (usize, f64) {
            let rs: Vec<&RunRecord> = records
                .iter()
                .filter(|r| r.protocol == proto && r.value == Some(rate))
                .collect();
            let flows: usize = rs.iter().map(|r| r.flows.len()).sum();
            let tput = rs.iter().map(|r| r.mean_throughput()).sum::<f64>() / rs.len().max(1) as f64;
            (flows, tput)
        };
        let (n, more) = at("MORE");
        let (_, srcr) = at("Srcr");
        let _ = writeln!(out, "  {rate:<12} {n:>8} {more:>10.1} {srcr:>10.1}");
    }
    let _ = writeln!(
        out,
        "\n(each rate point replays the same arrival process for both\n protocols; per-flow arrival/departure/latency is in the CSV)"
    );
    print!("{out}");

    println!("records streamed to {JSONL_PATH} and {CSV_PATH}");
}
