//! Layered host-time benchmark of the MORE reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_unicast --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Generates the workload's inputs from `--seed`, then executes its
//! simulated runs in passes on one worker thread until `--seconds` have
//! gone, each run through the public scenario call. Every pass must
//! reproduce the first pass's records byte for byte, and every record
//! must pass the output checks. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced passes with passes traced
//! through a wrapping protocol factory, times single layers directly,
//! writes the trace to `perfbench/out/`, and reports the per-layer
//! metrics. The last line of stdout is the result as one JSON object.

mod check;
mod layers;
mod report;
mod shim;
mod stats;
mod trace;
mod workloads;

use more_scenario::{Collect, ProtocolRegistry, RunRecord};
use report::{json_str, Breakdown};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Span, TimedSink, Trace};
use workloads::{Workload, PROTOCOLS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(name.to_string(), value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("--{k} is required"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("--{k} must be a non-negative number"))
    };
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number".to_string())?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

/// One pass over every run of a workload.
struct Pass {
    /// Σ host seconds of the scenario calls.
    wall_s: f64,
    /// Host seconds of each scenario call, in run order.
    run_s: Vec<f64>,
    records: Vec<RunRecord>,
    /// Per run, its records' JSON lines; `None` for a run that failed.
    lines: Vec<Option<String>>,
    failures: Vec<String>,
}

fn run_pass(w: &Workload, registry: &ProtocolRegistry, trace: Option<&Trace>) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        run_s: Vec::with_capacity(w.runs.len()),
        records: Vec::with_capacity(w.runs.len()),
        lines: Vec::with_capacity(w.runs.len()),
        failures: Vec::new(),
    };
    for spec in &w.runs {
        let builder = w.scenario(spec, registry.clone());
        let mut collect = Collect::new();
        let run_id = trace.map_or(0, Trace::begin_run);
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| match trace {
            Some(t) => builder.try_run_with_sink(&mut TimedSink {
                inner: &mut collect,
                trace: t,
            }),
            None => builder.try_run_with_sink(&mut collect),
        }));
        let dt = t0.elapsed().as_secs_f64();
        if let Some(t) = trace {
            t.span(run_id, 0, "run", spec.protocol, t0);
        }
        pass.wall_s += dt;
        pass.run_s.push(dt);
        let label = format!("{} {:?}", spec.protocol, spec.traffic);
        let checked = match outcome {
            Err(_) => Err("panicked".to_string()),
            Ok(Err(e)) => Err(e.to_string()),
            Ok(Ok(_)) => {
                let records = collect.into_records();
                let verdict = if records.len() == 1 {
                    check::check_record(&records[0], w.packets).map(|()| records[0].to_json_line())
                } else {
                    Err(format!("{} records for 1 run submitted", records.len()))
                };
                pass.records.extend(records);
                verdict
            }
        };
        match checked {
            Ok(line) => pass.lines.push(Some(line)),
            Err(e) => {
                pass.failures.push(format!("{label}: {e}"));
                pass.lines.push(None);
            }
        }
    }
    pass
}

/// Median host seconds of repeated workload set-ups (at least five,
/// and more while they fit in a quarter second), the median topology
/// generation time, and the workload itself.
fn set_up(name: &str, seed: u64) -> Result<(Workload, f64, f64), String> {
    let (mut setup, mut generate) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let s = Workload::setup(name, seed)?;
        setup.push(t0.elapsed().as_secs_f64());
        generate.push(s.generate_s);
        let enough = setup.len() >= 5 && started.elapsed() > Duration::from_millis(250);
        if enough || setup.len() >= 200 {
            return Ok((s.workload, stats::median(&setup), stats::median(&generate)));
        }
    }
}

/// Runs whose record differs, byte for byte, from the same run's record
/// in `reference` (runs that failed in either pass are counted there).
fn differing_runs(reference: &[Option<String>], pass: &Pass) -> usize {
    reference
        .iter()
        .zip(&pass.lines)
        .filter(|(a, b)| matches!((a, b), (Some(a), Some(b)) if a != b))
        .count()
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    let (w, setup_s, generate_s) = set_up(&args.workload, args.seed)?;
    let base = ProtocolRegistry::with_defaults();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();

    // Passes (an untraced one, then with --trace 1 a traced one) until
    // another round would overrun the budget; at least one round. Each
    // pass is checked against the first as it ends and keeps no
    // records, so memory does not grow with the number of passes.
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Vec<Span>, Breakdown)> = Vec::new();
    let mut reference: Vec<Option<String>> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut settle = |mut p: Pass, what: &str| {
        attempted += w.runs.len();
        failed += p.failures.len();
        problems.append(&mut p.failures);
        if attempted == w.runs.len() {
            reference = std::mem::take(&mut p.lines);
        } else {
            let differ = differing_runs(&reference, &p);
            if differ > 0 {
                failed += differ;
                problems.push(format!(
                    "{differ} {what} runs differ from the first pass's records"
                ));
            }
            p.records = Vec::new();
            p.lines = Vec::new();
        }
        p
    };
    loop {
        let round = Instant::now();
        untraced.push(settle(run_pass(&w, &base, None), "untraced"));
        if args.trace {
            let t = Arc::new(Trace::new());
            let registry =
                shim::TracingFactory::registry(&base, &PROTOCOLS, &t).map_err(|e| e.to_string())?;
            let pass = settle(run_pass(&w, &registry, Some(&t)), "traced");
            let (spans, runs) = t.take();
            let breakdown = Breakdown::of(&spans, &runs);
            traced.push((pass, spans, breakdown));
        }
        if started.elapsed() + round.elapsed() > budget {
            break;
        }
    }

    println!("workload {} seed {}", w.name, w.seed);
    let mut prov = report::provenance();
    prov.push(("workload", w.name.to_string()));
    prov.push(("seed", w.seed.to_string()));
    prov.push(("runs_per_pass", w.runs.len().to_string()));
    prov.push(("untraced_passes", untraced.len().to_string()));
    prov.push(("traced_passes", traced.len().to_string()));
    for (k, v) in &prov {
        println!("  {k}: {v}");
    }
    println!(
        "  records_digest: {:016x}",
        check::digest(&untraced[0].records)
    );
    println!("  runs: {attempted} attempted, {failed} failed");
    for p in problems.iter().take(20) {
        println!("  CHECK FAILED: {p}");
    }
    let counts = report::record_counts(&untraced[0].records);
    describe_runs(&w, &untraced, &counts);

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let names: Vec<(String, &str)> = if args.trace {
        layer_metrics(&w, &untraced, &traced, generate_s, &mut values);
        println!("  layer shares (median traced pass):");
        let mid = median_index(&traced.iter().map(|t| t.0.wall_s).collect::<Vec<_>>());
        print!("{}", traced[mid].2.describe());
        write_trace(&w, &prov, &traced, &values)?;
        report::per_layer()
    } else {
        let frames = counts["sim.total_tx"];
        let rates: Vec<f64> = untraced.iter().map(|p| frames / p.wall_s).collect();
        values.insert("frames_per_s".into(), stats::median(&rates));
        values.insert("setup_s".into(), setup_s);
        values.insert("peak_rss_mib".into(), report::peak_rss_mib());
        report::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    values.extend(counts);
    for (name, unit) in &names {
        if let Some(v) = values.get(name) {
            println!("  {name}: {v} {unit}");
        }
    }

    let correct = problems.is_empty() && names.iter().all(|(n, _)| values.contains_key(n));
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &names, &values)
    );
    Ok(())
}

/// Prints what a user waits for: the workload's host seconds per pass,
/// per protocol with its simulated work, and the run-latency
/// percentiles the run count supports.
fn describe_runs(w: &Workload, untraced: &[Pass], counts: &BTreeMap<String, f64>) {
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    println!(
        "  wall_s: {:.4} s per pass ({} simulated frames); passes {:.4?}",
        stats::median(&walls),
        counts["sim.total_tx"],
        walls
    );
    for p in PROTOCOLS {
        let records = untraced[0].records.iter().filter(|r| r.protocol == p);
        let (frames, flows) = records.fold((0, 0), |(t, f), r| (t + r.total_tx, f + r.flows.len()));
        if flows == 0 {
            continue;
        }
        let secs: Vec<f64> = untraced
            .iter()
            .map(|pass| {
                w.runs
                    .iter()
                    .zip(&pass.run_s)
                    .filter(|(r, _)| r.protocol == p)
                    .map(|(_, s)| s)
                    .sum()
            })
            .collect();
        let key = p.to_lowercase();
        println!(
            "  {key}.wall_s: {:.4} s ({frames} frames, {flows} flows, {} incomplete)",
            stats::median(&secs),
            counts[&format!("{key}.flows_incomplete")]
        );
    }
    // One latency sample per distinct run: its median over the passes.
    let per_run: Vec<f64> = (0..w.runs.len())
        .map(|i| {
            stats::median(
                &untraced
                    .iter()
                    .map(|p| p.run_s[i] * 1e3)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    for (q, name) in [(50.0, "run_p50_ms"), (95.0, "run_p95_ms")] {
        match stats::supported_percentile(&per_run, q) {
            Some(v) => println!("  {name}: {v:.3} ms ({} runs)", per_run.len()),
            None => println!(
                "  {name}: not reported ({} runs leave fewer than {} beyond it)",
                per_run.len(),
                stats::MIN_BEYOND
            ),
        }
    }
}

/// Index of the median element (the lower one for an even count).
fn median_index(xs: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    idx[(idx.len() - 1) / 2]
}

/// Per-layer metrics of a traced run: medians over the traced passes
/// of their attribution, the direct layer timings, and the tracing
/// overhead.
fn layer_metrics(
    w: &Workload,
    untraced: &[Pass],
    traced: &[(Pass, Vec<Span>, Breakdown)],
    generate_s: f64,
    values: &mut BTreeMap<String, f64>,
) {
    let per_pass: Vec<BTreeMap<String, f64>> = traced.iter().map(|t| t.2.metrics()).collect();
    for key in per_pass[0].keys() {
        let xs: Vec<f64> = per_pass.iter().map(|m| m[key]).collect();
        values.insert(key.clone(), stats::median(&xs));
    }
    let wall = |ps: &mut dyn Iterator<Item = &Pass>| {
        stats::median(&ps.map(|p| p.wall_s).collect::<Vec<_>>())
    };
    let (plain, with) = (
        wall(&mut untraced.iter()),
        wall(&mut traced.iter().map(|t| &t.0)),
    );
    values.insert("trace.overhead_pct".into(), (with / plain - 1.0) * 100.0);
    values.insert("topology.generate_ms".into(), generate_s * 1e3);

    let budget = Duration::from_millis(60);
    for k in [32, 128] {
        values.extend(layers::coding(k, budget));
    }
    let testbed = mesh_topology::generate::testbed(1);
    let city_owned;
    let city = if w.topo.n() >= 10_000 {
        &*w.topo
    } else {
        city_owned = mesh_topology::generate::city_mesh(10_000, 1);
        &city_owned
    };
    for (topo, label) in [(&testbed, "testbed"), (city, "city")] {
        values.extend(layers::routing(topo, label, budget));
        let (k, v) = layers::medium(topo, label, budget);
        values.insert(k, v);
    }
}

/// Writes the traced passes' spans and per-run hook sums, with the
/// per-layer results, to `perfbench/out/<workload>-seed<seed>.trace.json`.
fn write_trace(
    w: &Workload,
    prov: &[(&str, String)],
    traced: &[(Pass, Vec<Span>, Breakdown)],
    values: &BTreeMap<String, f64>,
) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.trace.json", w.name, w.seed));
    let mut s = String::from("{\n  \"provenance\": {");
    let prov: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    s.push_str(&prov.join(", "));
    s.push_str("},\n  \"metrics\": {");
    let metrics: Vec<String> = values
        .iter()
        .map(|(k, v)| {
            format!(
                "{}: {}",
                json_str(k),
                if v.is_finite() {
                    v.to_string()
                } else {
                    "null".into()
                }
            )
        })
        .collect();
    s.push_str(&metrics.join(", "));
    s.push_str("},\n  \"passes\": [");
    for (i, (pass, spans, breakdown)) in traced.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"wall_s\": {}, \"spans\": [",
            if i > 0 { "," } else { "" },
            pass.wall_s
        );
        let spans: Vec<String> = spans
            .iter()
            .map(|sp| {
                format!(
                    "\n      {{\"id\": {}, \"parent\": {}, \"name\": {}, \"protocol\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    sp.id,
                    sp.parent,
                    json_str(sp.name),
                    json_str(&sp.protocol),
                    sp.start_ns,
                    sp.end_ns
                )
            })
            .collect();
        s.push_str(&spans.join(","));
        s.push_str("],\n    \"hooks\": {");
        let hooks: Vec<String> = breakdown
            .hooks
            .iter()
            .map(|(p, h)| {
                let per: Vec<String> = trace::HOOKS
                    .iter()
                    .zip(h.hooks)
                    .map(|(n, st)| format!("\"{n}\": [{}, {}]", st.calls, st.nanos))
                    .collect();
                format!("{}: {{{}}}", json_str(p), per.join(", "))
            })
            .collect();
        s.push_str(&hooks.join(", "));
        s.push_str("}}");
    }
    s.push_str("\n  ]\n}\n");
    std::fs::write(&path, s).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  trace written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_topology::{generate, NodeId};
    use more_scenario::{AimdConfig, QueueSpec};
    use workloads::{RunSpec, Traffic};

    fn small(traffic: Traffic, queue: QueueSpec, congestion: Option<AimdConfig>) -> Workload {
        Workload {
            name: "small",
            seed: 3,
            topo: Arc::new(generate::testbed(1)),
            packets: 32,
            k: 8,
            deadline_s: 20,
            queue,
            congestion,
            runs: PROTOCOLS
                .iter()
                .map(|&protocol| RunSpec {
                    protocol,
                    traffic: traffic.clone(),
                })
                .collect(),
        }
    }

    #[test]
    fn traced_passes_reproduce_untraced_records() {
        let pairs = vec![(NodeId(0), NodeId(19)), (NodeId(5), NodeId(12))];
        let poisson = Traffic::Poisson {
            seed: 4,
            rate_per_s: 2.0,
            mean_hold_s: 3.0,
            max_active: 4,
        };
        let base = ProtocolRegistry::with_defaults();
        for w in [
            small(
                Traffic::Pair(NodeId(0), NodeId(19)),
                QueueSpec::Unbounded,
                None,
            ),
            small(
                Traffic::Concurrent(pairs),
                QueueSpec::drop_tail(16),
                Some(AimdConfig::default()),
            ),
            small(poisson, QueueSpec::Unbounded, None),
        ] {
            let plain = run_pass(&w, &base, None);
            assert_eq!(plain.failures, Vec::<String>::new());
            let t = Arc::new(Trace::new());
            let registry = shim::TracingFactory::registry(&base, &PROTOCOLS, &t).unwrap();
            let traced = run_pass(&w, &registry, Some(&t));
            assert_eq!(traced.failures, Vec::<String>::new());
            assert!(plain.lines.iter().all(Option::is_some));
            assert_eq!(plain.lines, traced.lines, "{:?}", w.runs[0].traffic);
            assert_eq!(differing_runs(&plain.lines, &traced), 0);
            let (spans, runs) = t.take();
            assert_eq!(runs.len(), w.runs.len(), "one hook sum per run");
            for name in ["run", "build", "sink.record"] {
                let n = spans.iter().filter(|s| s.name == name).count();
                assert_eq!(n, w.runs.len(), "{name} spans");
            }
        }
    }
}
