//! Quickstart: compare MORE against the paper's baselines on a simulated
//! 20-node mesh with the scenario builder — declare, run, read records.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![expect(
    clippy::panic,
    reason = "example binary: a failed run aborts the demo with its message"
)]

use more_repro::scenario::sink::{Collect, JsonLines, Tee};
use more_repro::scenario::{Scenario, TrafficSpec};
use more_repro::topology::generate;

const JSONL_PATH: &str = "results/quickstart.jsonl";

fn main() {
    // 1. A testbed-like topology: 20 nodes, 3 floors, lossy 802.11b links.
    let topo = generate::testbed(1);
    println!("{}", topo.ascii_map(56, 12));
    println!(
        "{} nodes, {} links, mean link loss {:.0}%\n",
        topo.n(),
        topo.links().count(),
        100.0 * topo.mean_link_loss()
    );

    // 2. Declare the experiment: the paper's three-way comparison over
    //    random source→destination pairs, 384 packets each (12 batches
    //    of K=32), identical topology and seeds for every protocol.
    //    Records *stream* as the grid runs — a JSONL sink persists each
    //    one the moment its cell completes, while a Collect sink keeps
    //    them in memory for the summary table below.
    let mut collect = Collect::new();
    {
        let jsonl =
            JsonLines::create(JSONL_PATH).unwrap_or_else(|e| panic!("open {JSONL_PATH}: {e}"));
        let mut sink = Tee::new().with(&mut collect).with(jsonl);
        Scenario::named("quickstart")
            .testbed(1)
            .traffic(TrafficSpec::RandomPairs { count: 8, seed: 42 })
            .protocols(["Srcr", "ExOR", "MORE"])
            .packets(384)
            .deadline(240)
            .run_with_sink(&mut sink);
    }
    let records = collect.into_records();

    // 3. Read structured results.
    println!(
        "{:>6} | {:>10} {:>10} {:>12} {:>10}",
        "proto", "mean pkt/s", "completed", "tx/packet", "overlap"
    );
    for proto in ["Srcr", "ExOR", "MORE"] {
        let rs: Vec<_> = records.iter().filter(|r| r.protocol == proto).collect();
        let mean_tput = rs.iter().map(|r| r.mean_throughput()).sum::<f64>() / rs.len() as f64;
        let completed = rs.iter().filter(|r| r.all_completed()).count();
        let tx_per_packet = rs
            .iter()
            .map(|r| {
                let delivered: usize = r.flows.iter().map(|f| f.delivered).sum();
                r.total_tx as f64 / delivered.max(1) as f64
            })
            .sum::<f64>()
            / rs.len() as f64;
        let overlap = rs.iter().map(|r| r.concurrency).sum::<f64>() / rs.len() as f64;
        println!(
            "{proto:>6} | {mean_tput:10.1} {completed:>7}/{:<2} {tx_per_packet:12.2} {:9.1}%",
            rs.len(),
            100.0 * overlap
        );
    }

    // 4. Everything serialized while the grid ran — hand the JSONL to
    //    plotting scripts (one RunRecord object per line).
    println!("\nraw records (streamed): {JSONL_PATH}");
    println!(
        "(custom protocols plug in via ProtocolRegistry::register — see tests/scenario_api.rs)"
    );
}
