//! The streaming results pipeline, end to end: sink equivalence against
//! the legacy collect-then-serialize path, bounded-memory aggregation,
//! kill-and-resume determinism (manifest + torn-tail trim), executor
//! ordering/panic behavior at scale, and the results-math edge cases the
//! redesign fixed (zero-width active windows, misbehaving custom
//! schedules).

#![expect(
    clippy::expect_used,
    reason = "test support code outside #[test] fns: a panic is the test's failure report"
)]

use more_repro::scenario::sink::{Aggregate, Collect, CsvAppend, JsonLines, RunSink, Tee};
use more_repro::scenario::{
    exec, record, BuildError, FlowEvent, FlowSpec, Scenario, ScenarioBuilder, TrafficModel,
    TrafficModelSpec, TrafficSpec,
};
use more_repro::sim::{Time, SEC};
use more_repro::topology::{NodeId, Topology};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// A fresh scratch directory under the target-adjacent temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("more_streaming_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The golden scenario the equivalence tests run: small but exercises
/// protocols × seeds × several traffic indices.
fn golden(name: &str) -> ScenarioBuilder {
    Scenario::named(name)
        .testbed(1)
        .traffic(TrafficSpec::RandomPairs { count: 2, seed: 7 })
        .protocols(["MORE", "Srcr"])
        .seeds([1, 2])
        .k(8)
        .packets(16)
        .deadline(120)
}

#[test]
fn file_sinks_are_byte_identical_to_the_legacy_serializers() {
    // The "before" path: materialize, then serialize.
    let records = golden("sink_equivalence").run();
    assert_eq!(records.len(), 2 * 2 * 2);
    let legacy_json = record::to_json(&records);
    let legacy_csv = record::to_csv(&records);

    // The "after" path: stream into Collect + JsonLines + CsvAppend at
    // once through a Tee of borrowed sinks.
    let dir = scratch("equivalence");
    let jsonl_path = dir.join("runs.jsonl");
    let csv_path = dir.join("runs.csv");
    let mut collect = Collect::new();
    let mut jsonl = JsonLines::create(jsonl_path.to_str().unwrap()).unwrap();
    let mut csv = CsvAppend::create(csv_path.to_str().unwrap()).unwrap();
    let summary = {
        let mut tee = Tee::new()
            .with(&mut collect)
            .with(&mut jsonl)
            .with(&mut csv);
        golden("sink_equivalence")
            .try_run_with_sink(&mut tee)
            .expect("streamed run")
    };
    assert_eq!(summary.records, records.len());
    assert_eq!(summary.cells_skipped, 0);
    assert_eq!(
        summary.records_high_water,
        records.len(),
        "Collect holds the whole grid"
    );

    // Collect reproduces the legacy records (and therefore bytes).
    assert_eq!(collect.records(), &records[..]);
    assert_eq!(collect.to_json(), legacy_json);

    // The CSV file is byte-identical to the legacy serializer.
    let csv_file = std::fs::read_to_string(&csv_path).unwrap();
    assert_eq!(csv_file, legacy_csv);

    // Each JSONL line is byte-identical to the matching array element of
    // the legacy JSON (so the whole array reassembles exactly).
    let jsonl_file = std::fs::read_to_string(&jsonl_path).unwrap();
    let lines: Vec<&str> = jsonl_file.lines().collect();
    assert_eq!(lines.len(), records.len());
    for (line, r) in lines.iter().zip(&records) {
        assert_eq!(*line, r.to_json_line());
    }
    let reassembled = format!(
        "[\n{}\n]\n",
        lines
            .iter()
            .map(|l| format!("  {l}"))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    assert_eq!(reassembled, legacy_json);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aggregate_summarizes_without_holding_records() {
    let records = golden("aggregate").run();
    let mut agg = Aggregate::new();
    let summary = golden("aggregate")
        .threads(2)
        .try_run_with_sink(&mut agg)
        .expect("aggregate run");
    assert_eq!(agg.held(), 0, "Aggregate must never hold raw records");
    assert!(
        summary.records_high_water < summary.records,
        "streaming high-water {} must undercut the {}-record grid",
        summary.records_high_water,
        summary.records
    );
    // With one worker the executor's reorder buffer never holds more than
    // the cell in hand: one record on a grid of one flow set per cell.
    let serial = golden("aggregate")
        .traffic(TrafficSpec::RandomPairs { count: 1, seed: 7 })
        .threads(1)
        .try_run_with_sink(&mut Aggregate::new())
        .expect("serial aggregate run");
    assert_eq!(serial.records, serial.cells_run, "one record per cell");
    assert!(
        serial.records_high_water <= 1,
        "serial streaming high-water {} must stay at the reorder buffer",
        serial.records_high_water
    );
    // The folded means match a recomputation over the materialized runs.
    let summaries = agg.summaries();
    assert_eq!(summaries.len(), 2, "one cell per protocol");
    for s in &summaries {
        let flows: Vec<f64> = records
            .iter()
            .filter(|r| r.protocol == s.protocol)
            .flat_map(|r| r.throughputs())
            .collect();
        assert_eq!(s.flows, flows.len());
        let mean = flows.iter().sum::<f64>() / flows.len() as f64;
        assert!((s.mean_throughput_pps - mean).abs() < 1e-9, "{s:?}");
        assert!(s.min_throughput_pps <= s.p50_throughput_pps + 1e-9);
        assert!(s.p50_throughput_pps <= s.max_throughput_pps + 1e-9);
    }
    // The JSON summary parses.
    let parsed = more_repro::topology::json::parse(&agg.summary_json()).expect("valid JSON");
    assert_eq!(parsed.as_arr().unwrap().len(), 2);
}

/// A sink wrapper that fails its Nth `record` call — the in-process
/// stand-in for a mid-sweep `SIGTERM`.
struct FailAfter<S> {
    inner: S,
    remaining: usize,
}

impl<S: RunSink> RunSink for FailAfter<S> {
    fn record(&mut self, r: &record::RunRecord) -> io::Result<()> {
        if self.remaining == 0 {
            return Err(io::Error::other("injected mid-sweep failure"));
        }
        self.remaining -= 1;
        self.inner.record(r)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
    fn held(&self) -> usize {
        self.inner.held()
    }
    fn offsets(&mut self) -> io::Result<Vec<(String, u64)>> {
        self.inner.offsets()
    }
    fn rewind_to(&mut self, offsets: &std::collections::BTreeMap<String, u64>) -> io::Result<()> {
        self.inner.rewind_to(offsets)
    }
}

#[test]
fn killed_sweep_resumes_byte_identical_to_an_uninterrupted_run() {
    // Reference: one uninterrupted checkpointed run.
    let dir_a = scratch("resume_a");
    let jsonl_a = dir_a.join("runs.jsonl");
    let csv_a = dir_a.join("runs.csv");
    {
        let mut tee = Tee::new()
            .with(JsonLines::append(jsonl_a.to_str().unwrap()).unwrap())
            .with(CsvAppend::append(csv_a.to_str().unwrap()).unwrap());
        golden("resume")
            .checkpoint(dir_a.to_str().unwrap())
            .try_run_with_sink(&mut tee)
            .expect("uninterrupted run");
    }

    // Interrupted: the sink dies after 3 records, mid-grid.
    let dir_b = scratch("resume_b");
    let jsonl_b = dir_b.join("runs.jsonl");
    let csv_b = dir_b.join("runs.csv");
    {
        let mut failing = FailAfter {
            inner: Tee::new()
                .with(JsonLines::append(jsonl_b.to_str().unwrap()).unwrap())
                .with(CsvAppend::append(csv_b.to_str().unwrap()).unwrap()),
            remaining: 3,
        };
        let err = golden("resume")
            .checkpoint(dir_b.to_str().unwrap())
            .try_run_with_sink(&mut failing)
            .expect_err("injected failure must surface");
        assert!(matches!(err, BuildError::Sink(_)), "{err}");
    }
    // Simulate the torn tail a hard kill can leave past the last
    // durable checkpoint.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&jsonl_b)
            .unwrap();
        write!(f, "{{\"truncated mid-wri").unwrap();
    }

    // Resume with fresh append-mode sinks: completed cells are skipped,
    // the torn tail is trimmed, the rest appends.
    let summary = {
        let mut tee = Tee::new()
            .with(JsonLines::append(jsonl_b.to_str().unwrap()).unwrap())
            .with(CsvAppend::append(csv_b.to_str().unwrap()).unwrap());
        golden("resume")
            .checkpoint(dir_b.to_str().unwrap())
            .try_run_with_sink(&mut tee)
            .expect("resumed run")
    };
    assert!(
        summary.cells_skipped > 0,
        "resume must skip checkpointed cells: {summary:?}"
    );
    assert!(summary.cells_run > 0, "something was left to do");

    let a = std::fs::read_to_string(&jsonl_a).unwrap();
    let b = std::fs::read_to_string(&jsonl_b).unwrap();
    assert_eq!(a, b, "JSONL must be byte-identical after kill + resume");
    let a = std::fs::read_to_string(&csv_a).unwrap();
    let b = std::fs::read_to_string(&csv_b).unwrap();
    assert_eq!(a, b, "CSV must be byte-identical after kill + resume");

    // A reconfigured sweep must refuse the stale manifest — whether the
    // grid shape changed (extra seed) or only a parameter the cell keys
    // cannot see (packets).
    for reconfigured in [
        golden("resume").seeds([1, 2, 3]),
        golden("resume").packets(32),
    ] {
        let err = {
            let mut tee = Tee::new()
                .with(JsonLines::append(jsonl_b.to_str().unwrap()).unwrap())
                .with(CsvAppend::append(csv_b.to_str().unwrap()).unwrap());
            reconfigured
                .checkpoint(dir_b.to_str().unwrap())
                .try_run_with_sink(&mut tee)
                .expect_err("scenario changed under the manifest")
        };
        match err {
            BuildError::Sink(msg) => assert!(msg.contains("manifest"), "{msg}"),
            other => panic!("expected Sink error, got {other}"),
        }
    }

    // Resuming into an in-memory sink would silently miss the completed
    // prefix; the engine must refuse.
    let err = golden("resume")
        .checkpoint(dir_b.to_str().unwrap())
        .try_run()
        .expect_err("Collect cannot resume a checkpointed sweep");
    match err {
        BuildError::Sink(msg) => assert!(msg.contains("in-memory"), "{msg}"),
        other => panic!("expected Sink error, got {other}"),
    }

    // A truncating reopen (`create` instead of `append`) leaves the file
    // shorter than its checkpointed offset; zero-extending it would
    // corrupt the output, so the resume must refuse.
    let err = {
        let mut sink = JsonLines::create(jsonl_b.to_str().unwrap()).unwrap();
        golden("resume")
            .checkpoint(dir_b.to_str().unwrap())
            .try_run_with_sink(&mut sink)
            .expect_err("truncated file vs manifest offset")
    };
    match err {
        BuildError::Sink(msg) => assert!(msg.contains("append"), "{msg}"),
        other => panic!("expected Sink error, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn progress_callback_sees_records_in_grid_order() {
    use std::sync::Mutex;
    let seen: Arc<Mutex<Vec<(String, u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    let records = golden("progress")
        .threads(2)
        .on_run_complete(move |r, p| {
            let mut s = seen2.lock().unwrap();
            assert_eq!(p.records, s.len() + 1, "records counter must increment");
            assert_eq!(p.cells_total, 4);
            s.push((r.protocol.clone(), r.seed, r.traffic_index));
        })
        .run();
    let seen = seen.lock().unwrap();
    let expected: Vec<(String, u64, usize)> = records
        .iter()
        .map(|r| (r.protocol.clone(), r.seed, r.traffic_index))
        .collect();
    assert_eq!(*seen, expected, "callback order must match grid order");
}

#[test]
fn par_map_at_10k_items_preserves_order_across_thread_counts() {
    for threads in [1, 3, 8, 32] {
        let out = exec::par_map((0..10_000).collect(), threads, |&x: &u64| x * x);
        assert_eq!(out.len(), 10_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64, "threads={threads} index={i}");
        }
    }
}

#[test]
#[should_panic(expected = "scoped thread panicked")]
fn par_map_at_10k_items_propagates_worker_panics() {
    let _ = exec::par_map((0..10_000).collect(), 8, |&x: &u64| {
        assert!(x != 9_137, "poisoned item");
        x
    });
}

/// A custom workload whose schedule is handed in verbatim.
struct FixedSchedule(Vec<FlowEvent>);

impl TrafficModel for FixedSchedule {
    fn schedules(
        &self,
        _topo: &Topology,
        _run_seed: u64,
        _packets: usize,
        _horizon: Time,
    ) -> Vec<Vec<FlowEvent>> {
        vec![self.0.clone()]
    }
}

fn custom(events: Vec<FlowEvent>) -> TrafficModelSpec {
    TrafficModelSpec::Custom(Arc::new(FixedSchedule(events)))
}

fn line_builder(name: &str, traffic: TrafficModelSpec) -> ScenarioBuilder {
    line_grid(name, traffic).protocol("MORE")
}

/// [`line_builder`] without a protocol selected.
fn line_grid(name: &str, traffic: TrafficModelSpec) -> ScenarioBuilder {
    Scenario::named(name)
        .topology(more_repro::scenario::TopologySpec::Line {
            hops: 2,
            p_adj: 0.9,
            skip_decay: 0.3,
            spacing: 25.0,
        })
        .traffic_model(traffic)
        .packets(8)
        .deadline(60)
}

#[test]
fn zero_width_active_window_reports_finite_zero_throughput() {
    // One normal flow from t = 0 plus a flow that starts and stops at
    // the same instant — a Poisson arrival squeezed against the horizon
    // edge. The zero-width window used to risk a 0-width division whose
    // non-finite throughput poisons NaN-intolerant stats downstream.
    let flow = |src, dst| FlowSpec::unicast(NodeId(src), NodeId(dst), 8);
    let records = line_builder(
        "zero_width",
        custom(vec![
            FlowEvent::Start {
                flow: flow(0, 2),
                at: 0,
            },
            FlowEvent::Start {
                flow: flow(1, 2),
                at: 10 * SEC,
            },
            FlowEvent::Stop {
                flow: 1,
                at: 10 * SEC,
            },
        ]),
    )
    .run();
    assert_eq!(records.len(), 1);
    let flows = &records[0].flows;
    assert_eq!(flows.len(), 2);
    assert!(flows[0].completed, "the real flow runs normally: {flows:?}");
    let ghost = &flows[1];
    assert_eq!(ghost.delivered, 0, "never-active flow moved nothing");
    assert_eq!(ghost.throughput_pps, 0.0, "zero, not NaN/inf: {ghost:?}");
    assert!(ghost.throughput_pps.is_finite());
    // The historical failure mode: sorting throughputs through
    // partial_cmp (how bench::stats orders every metric) must not see a
    // NaN.
    let mut tputs: Vec<f64> = records.iter().flat_map(|r| r.throughputs()).collect();
    tputs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in metrics"));
}

#[test]
fn misbehaving_custom_schedules_error_instead_of_panicking() {
    let flow = || FlowSpec::unicast(NodeId(0), NodeId(2), 8);
    // Stop for a flow that never started.
    let err = line_builder(
        "stop_unknown",
        custom(vec![
            FlowEvent::Start {
                flow: flow(),
                at: 0,
            },
            FlowEvent::Stop {
                flow: 7,
                at: 2 * SEC,
            },
        ]),
    )
    .try_run()
    .expect_err("unknown flow index");
    assert!(matches!(err, BuildError::InvalidSchedule(_)), "{err}");

    // Stop ordered before its Start.
    let err = line_builder(
        "stop_before_start",
        custom(vec![
            FlowEvent::Stop { flow: 0, at: 0 },
            FlowEvent::Start {
                flow: flow(),
                at: SEC,
            },
        ]),
    )
    .try_run()
    .expect_err("Stop precedes Start");
    assert!(matches!(err, BuildError::InvalidSchedule(_)), "{err}");

    // Events past the run horizon (deadline is 60 s).
    let err = line_builder(
        "past_horizon",
        custom(vec![FlowEvent::Start {
            flow: flow(),
            at: 61 * SEC,
        }]),
    )
    .try_run()
    .expect_err("event beyond horizon");
    assert!(matches!(err, BuildError::InvalidSchedule(_)), "{err}");

    // An unsorted event list.
    let err = line_builder(
        "unsorted",
        custom(vec![
            FlowEvent::Start {
                flow: flow(),
                at: 2 * SEC,
            },
            FlowEvent::Start {
                flow: flow(),
                at: SEC,
            },
        ]),
    )
    .try_run()
    .expect_err("unsorted events");
    assert!(matches!(err, BuildError::InvalidSchedule(_)), "{err}");

    // An empty transfer, and a flow with no destination, arriving at
    // t = 0 (installed at construction) or mid-run (through add_flow),
    // in every protocol.
    let empty = FlowSpec::unicast(NodeId(0), NodeId(2), 0);
    let nowhere = FlowSpec {
        src: NodeId(0),
        dsts: vec![],
        packets: 8,
    };
    for bad in [empty, nowhere] {
        for at in [0, SEC] {
            for protocol in ["MORE", "ExOR", "Srcr"] {
                let start = FlowEvent::Start {
                    flow: bad.clone(),
                    at,
                };
                let err = line_grid("degenerate_flow", custom(vec![start]))
                    .protocol(protocol)
                    .seeds([1, 2])
                    .threads(2)
                    .try_run()
                    .expect_err("degenerate flow");
                assert!(
                    matches!(err, BuildError::InvalidSchedule(_)),
                    "{protocol} {bad:?} at {at}: {err}"
                );
            }
        }
    }
}
