//! In-memory trace of one traced pass: spans at the layer boundaries
//! the benchmark can see from outside the engine (run, factory build,
//! `add_flow`, sink record) and per-run hook sums. Nothing is written
//! until the benchmark exits.

use more_scenario::{RunRecord, RunSink};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The agent hooks the tracing shim times, in report order.
pub const HOOKS: [&str; 8] = [
    "on_receive",
    "poll_tx",
    "on_tx_done",
    "on_timer",
    "on_queue_drop",
    "recycle",
    "add_flow",
    "end_flow",
];

/// Index of a hook in [`HOOKS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hook {
    OnReceive,
    PollTx,
    OnTxDone,
    OnTimer,
    OnQueueDrop,
    Recycle,
    AddFlow,
    EndFlow,
}

/// A node's part in the flows it was named in: source of some flow,
/// else destination of some flow, else forwarder.
pub const ROLES: [&str; 3] = ["src", "fwd", "dst"];

/// Calls made and host time spent in them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HookStat {
    pub calls: u64,
    pub nanos: u64,
}

impl HookStat {
    pub fn add(&mut self, nanos: u64) {
        self.calls += 1;
        self.nanos += nanos;
    }

    pub fn merge(&mut self, other: HookStat) {
        self.calls += other.calls;
        self.nanos += other.nanos;
    }
}

/// Hook sums of one simulated run's agent.
#[derive(Clone, Debug, Default)]
pub struct RunHooks {
    pub run: u64,
    pub protocol: String,
    pub hooks: [HookStat; 8],
    /// `poll_tx` split by [`ROLES`].
    pub poll_tx_by_role: [HookStat; 3],
    /// `on_receive` split by [`ROLES`].
    pub on_receive_by_role: [HookStat; 3],
}

impl RunHooks {
    pub fn total_nanos(&self) -> u64 {
        self.hooks.iter().map(|h| h.nanos).sum()
    }
}

/// A timed interval at a layer boundary; `parent` is the run span's
/// id (0 for a run span itself).
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub protocol: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collector shared by the tracing factories, their agents and the
/// timed sink of one pass.
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU64,
    current_run: AtomicU64,
    spans: Mutex<Vec<Span>>,
    runs: Mutex<Vec<RunHooks>>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current_run: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            runs: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the trace's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a run: spans recorded until the next call name it parent.
    pub fn begin_run(&self) -> u64 {
        let id = self.new_id();
        self.current_run.store(id, Ordering::Relaxed);
        id
    }

    pub fn current_run(&self) -> u64 {
        self.current_run.load(Ordering::Relaxed)
    }

    pub fn span(&self, id: u64, parent: u64, name: &'static str, protocol: &str, t0: Instant) {
        let span = Span {
            id,
            parent,
            name,
            protocol: protocol.to_string(),
            start_ns: self.ns(t0),
            end_ns: self.ns(Instant::now()),
        };
        self.push_spans(std::iter::once(span));
    }

    /// Appends spans; a poisoned lock (a panicking run) drops them
    /// rather than panicking again, since agents call this from `Drop`.
    pub fn push_spans(&self, spans: impl IntoIterator<Item = Span>) {
        if let Ok(mut v) = self.spans.lock() {
            v.extend(spans);
        }
    }

    pub fn push_run(&self, hooks: RunHooks) {
        if let Ok(mut v) = self.runs.lock() {
            v.push(hooks);
        }
    }

    /// Everything recorded so far, spans sorted by start.
    pub fn take(&self) -> (Vec<Span>, Vec<RunHooks>) {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("trace spans lock"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let runs = std::mem::take(&mut *self.runs.lock().expect("trace runs lock"));
        (spans, runs)
    }
}

/// Times every [`RunSink::record`] call of the sink it wraps.
pub struct TimedSink<'a> {
    pub inner: &'a mut dyn RunSink,
    pub trace: &'a Trace,
}

impl RunSink for TimedSink<'_> {
    fn record(&mut self, r: &RunRecord) -> io::Result<()> {
        let t0 = Instant::now();
        let out = self.inner.record(r);
        let run = self.trace.current_run();
        self.trace
            .span(self.trace.new_id(), run, "sink.record", &r.protocol, t0);
        out
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
    fn rewind_to(&mut self, offsets: &BTreeMap<String, u64>) -> io::Result<()> {
        self.inner.rewind_to(offsets)
    }
}
