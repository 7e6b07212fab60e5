//! Resumable checkpointed sweep: a JSONL/CSV sweep under `DIR`. Kill it
//! mid-run (`SIGTERM`) and re-invoke with the same arguments and it
//! resumes from the manifest, finishing byte-identical to an
//! uninterrupted run (CI exercises exactly that round-trip).
//!
//! ```sh
//! cargo run --release -p more-bench --bin resume_demo -- DIR
//! ```
//!
//! Flags: `--seeds` (default 32), `--packets` (default 384).

use more_bench::common::{banner, threads, Args};
use more_scenario::sink::{CsvAppend, JsonLines, Tee};
use more_scenario::{Scenario, TrafficSpec};

fn main() {
    let Some(dir) = std::env::args().nth(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: resume_demo DIR [--seeds N] [--packets N]");
        std::process::exit(2);
    };
    let args = Args::parse();
    banner("resume_demo", "resumable checkpointed sweep demo");
    let seeds: u64 = args.get("seeds", 32);
    let jsonl = format!("{dir}/resume_demo.jsonl");
    let csv = format!("{dir}/resume_demo.csv");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {dir}: {e}"));
    // Append-mode sinks + a checkpoint manifest: an interrupted run's
    // bytes survive, the manifest says where to pick up.
    let mut sink = Tee::new()
        .with(JsonLines::append(&jsonl).unwrap_or_else(|e| panic!("open {jsonl}: {e}")))
        .with(CsvAppend::append(&csv).unwrap_or_else(|e| panic!("open {csv}: {e}")));
    let packets: usize = args.get("packets", 384);
    let summary = Scenario::named("resume_demo")
        .testbed(1)
        .traffic(TrafficSpec::RandomPairs { count: 4, seed: 7 })
        .protocols(["MORE", "Srcr", "ExOR"])
        .seeds(1..=seeds)
        .packets(packets)
        .deadline(240)
        .threads(threads())
        .checkpoint(&dir)
        .on_run_complete(|r, p| {
            println!(
                "  [{}/{} cells] {} seed {} traffic {}: {:.1} pkt/s",
                p.cells_done + 1,
                p.cells_total,
                r.protocol,
                r.seed,
                r.traffic_index,
                r.mean_throughput(),
            );
        })
        .run_with_sink(&mut sink);
    println!(
        "\n{} cells run, {} resumed from the manifest; records in {jsonl} and {csv}",
        summary.cells_run, summary.cells_skipped,
    );
}
