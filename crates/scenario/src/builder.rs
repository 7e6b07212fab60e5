//! The fluent [`ScenarioBuilder`]: what a scenario declares, and the
//! `run*` entry points that execute it.
//!
//! A scenario is the cross product
//!
//! ```text
//! protocols × sweep points × seeds × flow sets
//! ```
//!
//! over one declared topology and traffic shape. Each coordinate is one
//! deterministic simulator run producing one [`RunRecord`]. Running goes
//! builder → validated plan (every sweep point resolved once) →
//! executor, which runs the grid on a worker pool because runs are
//! independent by construction.

#![expect(
    clippy::panic,
    reason = "run()/run_with_sink() panic on configuration errors as their documented contract (the try_* forms are the fallible API)."
)]

use crate::exec;
use crate::executor;
use crate::plan::Plan;
use crate::record::RunRecord;
use crate::registry::{BuildError, ProtocolRegistry};
use crate::sink::{Collect, RunSink};
use crate::spec::{ExpConfig, Sweep, TopologySpec, TrafficSpec};
use crate::traffic::TrafficModelSpec;
use mesh_sim::{AimdConfig, Bitrate, ChannelSpec, QueueSpec, SimConfig};
use mesh_topology::estimator::LinkEstimator;
use mesh_topology::NodeId;

/// An owned sink as stored by [`ScenarioBuilder::sink`]: `Send + Sync`
/// so the builder stays shareable with the executor's worker threads
/// (borrowed sinks via [`ScenarioBuilder::try_run_with_sink`] carry no
/// such bound — they never cross a thread).
pub type BoxedSink = Box<dyn RunSink + Send + Sync>;

/// A progress callback as stored by [`ScenarioBuilder::on_run_complete`].
pub type ProgressFn = Box<dyn FnMut(&RunRecord, Progress) + Send + Sync>;

/// Progress snapshot handed to [`ScenarioBuilder::on_run_complete`] as
/// each record is emitted (in deterministic grid order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Progress {
    /// Records emitted to the sink so far (this process; resumed cells
    /// skipped from a manifest are not re-emitted).
    pub records: usize,
    /// Grid cells fully completed, including cells skipped on resume.
    pub cells_done: usize,
    /// Total grid cells of the sweep.
    pub cells_total: usize,
}

/// What a streamed run did — returned by
/// [`ScenarioBuilder::try_run_with_sink`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Records emitted to the sink.
    pub records: usize,
    /// Grid cells executed by this process.
    pub cells_run: usize,
    /// Grid cells skipped because a checkpoint manifest already had them.
    pub cells_skipped: usize,
    /// Peak records in memory at once: the executor's reorder buffer
    /// plus [`RunSink::held`] — the streaming pipeline's RSS proxy.
    /// O(workers) for streaming sinks, O(grid) for [`Collect`].
    pub records_high_water: usize,
}

/// Entry point: `Scenario::named("fig4_2")` starts a builder.
pub struct Scenario;

impl Scenario {
    /// Starts a fluent [`ScenarioBuilder`] for a named experiment.
    ///
    /// A scenario declares *what* to compare; [`ScenarioBuilder::run`]
    /// executes the full protocol × sweep × seed × flow-set grid and
    /// returns one [`RunRecord`] per simulator run:
    ///
    /// ```
    /// use mesh_topology::NodeId;
    /// use more_scenario::{Scenario, TopologySpec};
    ///
    /// let records = Scenario::named("doc")
    ///     .topology(TopologySpec::Line {
    ///         hops: 1,
    ///         p_adj: 0.9,
    ///         skip_decay: 0.0,
    ///         spacing: 20.0,
    ///     })
    ///     .pair(NodeId(0), NodeId(1))
    ///     .protocol("MORE")
    ///     .packets(16)
    ///     .deadline(60)
    ///     .run();
    /// assert_eq!(records.len(), 1);
    /// assert!(records[0].all_completed());
    /// ```
    pub fn named(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder::new(name)
    }
}

/// Fluent scenario construction; see the crate docs for a worked
/// example. Finish with [`ScenarioBuilder::run`] (or
/// [`ScenarioBuilder::try_run`] to surface configuration errors as
/// values), or stream records into a [`RunSink`] with
/// [`ScenarioBuilder::try_run_with_sink`].
#[must_use]
pub struct ScenarioBuilder {
    pub(crate) name: String,
    pub(crate) topology: TopologySpec,
    pub(crate) traffic: TrafficModelSpec,
    pub(crate) protocols: Vec<String>,
    pub(crate) sweep: Option<Sweep>,
    pub(crate) seeds: Vec<u64>,
    pub(crate) base: ExpConfig,
    pub(crate) sim: SimConfig,
    pub(crate) channel: ChannelSpec,
    pub(crate) queue: QueueSpec,
    pub(crate) congestion: Option<AimdConfig>,
    pub(crate) probe: Option<(LinkEstimator, u64)>,
    threads: Option<usize>,
    pub(crate) registry: ProtocolRegistry,
    sink: Option<BoxedSink>,
    on_complete: Option<ProgressFn>,
    checkpoint_dir: Option<String>,
}

impl std::fmt::Debug for ScenarioBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioBuilder")
            .field("name", &self.name)
            .field("topology", &self.topology)
            .field("traffic", &self.traffic)
            .field("protocols", &self.protocols)
            .field("sweep", &self.sweep)
            .field("seeds", &self.seeds)
            .field("channel", &self.channel)
            .field("queue", &self.queue)
            .field("congestion", &self.congestion)
            .field("sink", &self.sink.as_ref().map(|_| ".."))
            .field("checkpoint_dir", &self.checkpoint_dir)
            .finish_non_exhaustive()
    }
}

impl ScenarioBuilder {
    /// A builder with the crate's defaults (testbed topology, one unicast
    /// pair, static traffic, static channel, seed 1).
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioBuilder {
            name: name.into(),
            topology: TopologySpec::Testbed { seed: 1 },
            traffic: TrafficModelSpec::default(),
            protocols: Vec::new(),
            sweep: None,
            seeds: vec![ExpConfig::default().seed],
            base: ExpConfig::default(),
            sim: SimConfig::default(),
            channel: ChannelSpec::Static,
            queue: QueueSpec::Unbounded,
            congestion: None,
            probe: None,
            threads: None,
            registry: ProtocolRegistry::with_defaults(),
            sink: None,
            on_complete: None,
            checkpoint_dir: None,
        }
    }

    /// Sets the topology family.
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.topology = spec;
        self
    }

    /// Shorthand for the paper's 20-node testbed.
    pub fn testbed(self, seed: u64) -> Self {
        self.topology(TopologySpec::Testbed { seed })
    }

    /// Sets a static traffic shape (the legacy [`TrafficSpec`]): every
    /// flow starts at t = 0 and runs to completion. Shorthand for
    /// `.traffic_model(TrafficModelSpec::Static(spec))`.
    pub fn traffic(mut self, spec: TrafficSpec) -> Self {
        self.traffic = TrafficModelSpec::Static(spec);
        self
    }

    /// Sets the traffic model — how flows arrive and depart over the run
    /// (default: the static [`TrafficSpec`] expansion). Dynamic models
    /// inject flows mid-run through the protocol's
    /// [`mesh_sim::ErasedFlowAgent::add_flow`] lifecycle hook and withdraw
    /// them via [`mesh_sim::ErasedFlowAgent::end_flow`]; per-flow arrival,
    /// departure, and completion latency land in each record's flow rows.
    ///
    /// ```
    /// use more_scenario::{Scenario, TopologySpec, TrafficModelSpec};
    ///
    /// let records = Scenario::named("ramp-doc")
    ///     .topology(TopologySpec::Line {
    ///         hops: 2,
    ///         p_adj: 0.9,
    ///         skip_decay: 0.3,
    ///         spacing: 25.0,
    ///     })
    ///     .traffic_model(TrafficModelSpec::Staggered {
    ///         n_flows: 2,
    ///         gap_ms: 1_000,
    ///         hold_ms: None,
    ///     })
    ///     .protocol("MORE")
    ///     .packets(8)
    ///     .deadline(60)
    ///     .run();
    /// assert_eq!(records[0].flows.len(), 2);
    /// // The second flow of the ramp arrived one second in.
    /// assert_eq!(records[0].flows[1].started_at_s, Some(1.0));
    /// ```
    pub fn traffic_model(mut self, spec: TrafficModelSpec) -> Self {
        self.traffic = spec;
        self
    }

    /// Shorthand for one unicast pair.
    pub fn pair(self, src: NodeId, dst: NodeId) -> Self {
        self.traffic(TrafficSpec::SinglePair { src, dst })
    }

    /// Adds a protocol by registry name.
    pub fn protocol(mut self, name: impl Into<String>) -> Self {
        self.protocols.push(name.into());
        self
    }

    /// Adds several protocols in order.
    pub fn protocols<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.protocols.extend(names.into_iter().map(Into::into));
        self
    }

    /// Registers a custom factory into this scenario's registry *and*
    /// selects it, so external protocols are one call away.
    pub fn register(mut self, factory: impl crate::registry::ProtocolFactory + 'static) -> Self {
        let name = factory.name().to_string();
        self.registry.register(factory);
        // Overriding an already-selected name must not run it twice.
        if !self.protocols.iter().any(|p| p.eq_ignore_ascii_case(&name)) {
            self.protocols.push(name);
        }
        self
    }

    /// Replaces the whole registry (defaults: the paper's four).
    pub fn registry(mut self, registry: ProtocolRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Sweeps a parameter grid.
    pub fn sweep(mut self, sweep: Sweep) -> Self {
        self.sweep = Some(sweep);
        self
    }

    /// Run seeds; the grid runs every seed (default: just seed 1).
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Packets per transfer.
    pub fn packets(mut self, packets: usize) -> Self {
        self.base.packets = packets;
        self
    }

    /// Batch size K.
    pub fn k(mut self, k: usize) -> Self {
        self.base.k = k;
        self
    }

    /// Fixed data bit-rate.
    pub fn bitrate(mut self, bitrate: Bitrate) -> Self {
        self.base.bitrate = bitrate;
        self
    }

    /// Per-run simulated-time budget, seconds.
    pub fn deadline(mut self, seconds: u64) -> Self {
        self.base.deadline_s = seconds;
        self
    }

    /// Overrides the full experiment parameter block.
    pub fn exp_config(mut self, cfg: ExpConfig) -> Self {
        self.base = cfg;
        self
    }

    /// Overrides MAC/PHY parameters.
    pub fn sim_config(mut self, cfg: SimConfig) -> Self {
        self.sim = cfg;
        self
    }

    /// Sets the channel model every run's air follows (default:
    /// [`ChannelSpec::Static`], the paper's §5.3.1 model). Non-static
    /// channels are surfaced in each record's `channel` key.
    ///
    /// ```
    /// use mesh_sim::ChannelSpec;
    /// use mesh_topology::NodeId;
    /// use more_scenario::{Scenario, TopologySpec};
    ///
    /// let records = Scenario::named("bursty-doc")
    ///     .topology(TopologySpec::Line {
    ///         hops: 1,
    ///         p_adj: 0.9,
    ///         skip_decay: 0.0,
    ///         spacing: 20.0,
    ///     })
    ///     .pair(NodeId(0), NodeId(1))
    ///     .protocol("MORE")
    ///     .channel(ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10))
    ///     .packets(16)
    ///     .deadline(60)
    ///     .run();
    /// assert!(records[0].channel.starts_with("ge("));
    /// ```
    pub fn channel(mut self, spec: ChannelSpec) -> Self {
        self.channel = spec;
        self
    }

    /// Sets the per-node transmit queue discipline every run uses
    /// (default: [`QueueSpec::Unbounded`], the legacy pull-on-demand
    /// engine — byte-identical output, no `queue` key in the records).
    /// Bounded disciplines surface per-flow drops, whole-run drop totals,
    /// and Jain's fairness index in each record.
    ///
    /// ```
    /// use mesh_sim::QueueSpec;
    /// use mesh_topology::NodeId;
    /// use more_scenario::{Scenario, TopologySpec};
    ///
    /// let records = Scenario::named("queue-doc")
    ///     .topology(TopologySpec::Line {
    ///         hops: 1,
    ///         p_adj: 0.9,
    ///         skip_decay: 0.0,
    ///         spacing: 20.0,
    ///     })
    ///     .pair(NodeId(0), NodeId(1))
    ///     .protocol("MORE")
    ///     .queue(QueueSpec::drop_tail(16))
    ///     .packets(16)
    ///     .deadline(60)
    ///     .run();
    /// assert_eq!(records[0].queue, "droptail(cap=16)");
    /// assert!(records[0].fairness >= 0.0 && records[0].fairness <= 1.0);
    /// ```
    pub fn queue(mut self, spec: QueueSpec) -> Self {
        self.queue = spec;
        self
    }

    /// Enables AIMD source congestion control for every flow of every
    /// run: each source paces its injections at an additive-increase
    /// rate that halves (by [`AimdConfig::decrease`]) whenever the local
    /// queue drops one of the flow's frames. Requires a bounded
    /// [`ScenarioBuilder::queue`] at some grid point — the pacer reacts
    /// to queue losses, and the unbounded legacy path has none. At
    /// `Sweep::Queue` points that are unbounded, pacing is skipped for
    /// that point.
    pub fn congestion(mut self, cfg: AimdConfig) -> Self {
        self.congestion = Some(cfg);
        self
    }

    /// Routes on *measured* beliefs instead of the truth matrix: before
    /// each run, the channel is probed for [`LinkEstimator::probes`]
    /// rounds spaced `interval_us` apart (the paper's §4.1.2 warm-up),
    /// and the estimated topology — not the truth — is handed to the
    /// protocol factories. The medium still follows the live channel, so
    /// scenarios can separate what routing believes from what the air
    /// does.
    pub fn probe_routing(mut self, estimator: LinkEstimator, interval_us: u64) -> Self {
        self.probe = Some((estimator, interval_us));
        self
    }

    /// Worker threads (default: machine parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Streams records into `sink` instead of collecting them:
    /// [`ScenarioBuilder::try_run`] then returns an **empty** `Vec` and
    /// the records live wherever the sink put them. Borrow-friendly
    /// alternative: [`ScenarioBuilder::try_run_with_sink`].
    ///
    /// ```
    /// use mesh_topology::NodeId;
    /// use more_scenario::sink::Aggregate;
    /// use more_scenario::{Scenario, TopologySpec};
    ///
    /// let records = Scenario::named("sink-doc")
    ///     .topology(TopologySpec::Line {
    ///         hops: 1,
    ///         p_adj: 0.9,
    ///         skip_decay: 0.0,
    ///         spacing: 20.0,
    ///     })
    ///     .pair(NodeId(0), NodeId(1))
    ///     .protocol("MORE")
    ///     .packets(16)
    ///     .deadline(60)
    ///     .sink(Aggregate::new())
    ///     .run();
    /// assert!(records.is_empty(), "records streamed into the sink");
    /// ```
    pub fn sink(mut self, sink: impl RunSink + Send + Sync + 'static) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Registers a progress callback invoked once per emitted record, in
    /// deterministic grid order, with a [`Progress`] snapshot — the hook
    /// long sweeps use for live status lines.
    pub fn on_run_complete(
        mut self,
        cb: impl FnMut(&RunRecord, Progress) + Send + Sync + 'static,
    ) -> Self {
        self.on_complete = Some(Box::new(cb));
        self
    }

    /// Makes the sweep resumable: after every completed grid cell the
    /// engine persists `<dir>/<scenario>.manifest.json` — the completed
    /// cell keys plus a durable byte offset for every file the sink owns
    /// (atomic temp-file + rename). When the manifest already exists,
    /// the run **resumes**: completed cells are skipped, sink files are
    /// trimmed to their last checkpoint (dropping any torn tail from a
    /// mid-write kill), and the remaining cells append — ending
    /// byte-identical to an uninterrupted run. Use the `append`
    /// constructors of the file sinks ([`crate::sink::JsonLines::append`],
    /// [`crate::sink::CsvAppend::append`]) so an earlier attempt's bytes
    /// survive the reopen. Resuming into a purely in-memory sink
    /// ([`Collect`], [`crate::sink::Aggregate`]) is rejected — it would
    /// silently hold only the cells this process ran, not the resumed
    /// prefix.
    pub fn checkpoint(mut self, dir: impl Into<String>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Executes the grid, panicking on configuration errors (unknown
    /// protocol, unsupported traffic). Records arrive sorted by
    /// (protocol, sweep point, seed, traffic index). With a configured
    /// [`ScenarioBuilder::sink`] the returned `Vec` is empty — the
    /// records streamed into the sink instead.
    pub fn run(self) -> Vec<RunRecord> {
        match self.try_run() {
            Ok(records) => records,
            Err(e) => panic!("scenario failed: {e}"),
        }
    }

    /// Executes the grid, streaming every record into `sink` (in
    /// deterministic grid order) and panicking on configuration errors.
    pub fn run_with_sink(self, sink: &mut dyn RunSink) -> RunSummary {
        match self.try_run_with_sink(sink) {
            Ok(summary) => summary,
            Err(e) => panic!("scenario failed: {e}"),
        }
    }

    /// Executes the grid, streaming every record into `sink`, surfacing
    /// configuration and I/O errors. The sink receives records in the
    /// same deterministic order [`ScenarioBuilder::run`] returns them;
    /// any sink configured via [`ScenarioBuilder::sink`] is ignored in
    /// favor of the argument.
    pub fn try_run_with_sink(mut self, sink: &mut dyn RunSink) -> Result<RunSummary, BuildError> {
        self.sink = None;
        self.stream_into(sink)
    }

    /// Executes the grid, surfacing configuration errors. With a
    /// configured [`ScenarioBuilder::sink`] the returned `Vec` is empty —
    /// the records streamed into the sink instead; otherwise a default
    /// [`Collect`] sink reproduces the legacy materialize-everything
    /// behavior byte for byte.
    pub fn try_run(mut self) -> Result<Vec<RunRecord>, BuildError> {
        match self.sink.take() {
            Some(mut sink) => {
                self.stream_into(sink.as_mut())?;
                Ok(Vec::new())
            }
            None => {
                let mut collect = Collect::new();
                self.stream_into(&mut collect)?;
                Ok(collect.into_records())
            }
        }
    }

    /// The streaming core under every `run` flavor: validates the
    /// scenario into a plan and hands it to the executor.
    fn stream_into(mut self, sink: &mut dyn RunSink) -> Result<RunSummary, BuildError> {
        let plan = Plan::new(&self)?;
        let threads = self.threads.unwrap_or_else(exec::default_threads);
        executor::stream_into(
            &plan,
            threads,
            self.checkpoint_dir.as_deref(),
            self.on_complete.take(),
            sink,
        )
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_topology::Topology;

    #[test]
    fn unknown_protocol_fails_before_running() {
        let err = Scenario::named("bad")
            .protocol("NotARealProtocol")
            .try_run()
            .expect_err("must fail");
        assert!(matches!(err, BuildError::UnknownProtocol(_)));
    }

    #[test]
    fn flows_sweep_without_random_concurrent_is_an_error_not_a_panic() {
        let err = Scenario::named("bad-sweep")
            .pair(NodeId(0), NodeId(19))
            .protocol("MORE")
            .sweep(Sweep::Flows(vec![1, 2]))
            .packets(8)
            .try_run()
            .expect_err("mismatched sweep/traffic must surface as a value");
        assert!(matches!(err, BuildError::Unsupported(_)));
    }

    #[test]
    fn load_sweep_without_poisson_is_an_error_before_running() {
        let err = Scenario::named("bad-load")
            .pair(NodeId(0), NodeId(19))
            .protocol("MORE")
            .sweep(Sweep::Load(vec![0.1, 0.5]))
            .packets(8)
            .try_run()
            .expect_err("Sweep::Load needs Poisson traffic");
        assert!(matches!(err, BuildError::Unsupported(_)));
    }

    #[test]
    fn load_sweep_runs_dynamic_arrivals_across_protocols() {
        // The acceptance scenario: a Poisson arrival-rate sweep for MORE,
        // ExOR, and Srcr, with flows starting (and possibly stopping)
        // mid-run, surfaced per flow in the records.
        let records = Scenario::named("load")
            .testbed(1)
            .traffic_model(TrafficModelSpec::Poisson {
                rate_per_s: 0.1,
                mean_hold_s: 20.0,
                max_active: 2,
            })
            .protocols(["MORE", "ExOR", "Srcr"])
            .sweep(Sweep::Load(vec![0.1, 0.3]))
            .k(8)
            .packets(16)
            .deadline(90)
            .run();
        assert_eq!(records.len(), 3 * 2);
        assert!(records.iter().all(|r| r.param == Some("load")));
        assert!(records.iter().any(|r| r.value == Some(0.3)));
        // Every flow of a dynamic run carries its arrival time, and at
        // least one flow genuinely arrived mid-run.
        for r in &records {
            for f in &r.flows {
                assert!(f.started_at_s.is_some(), "missing arrival: {r:?}");
            }
        }
        assert!(
            records
                .iter()
                .flat_map(|r| &r.flows)
                .any(|f| f.started_at_s.is_some_and(|s| s > 0.0)),
            "no mid-run arrival in the whole sweep"
        );
        // The same rate point sees the same arrival process for every
        // protocol (the fairness property the comparison rests on).
        let arrivals = |proto: &str| -> Vec<Vec<Option<f64>>> {
            records
                .iter()
                .filter(|r| r.protocol == proto)
                .map(|r| r.flows.iter().map(|f| f.started_at_s).collect())
                .collect()
        };
        assert_eq!(arrivals("MORE"), arrivals("Srcr"));
        assert_eq!(arrivals("MORE"), arrivals("ExOR"));
    }

    #[test]
    fn bad_traffic_parameters_fail_at_build_time() {
        // A zero arrival rate must be rejected before any worker thread
        // could panic on it — whether set directly or via the sweep.
        let poisson = |rate| TrafficModelSpec::Poisson {
            rate_per_s: rate,
            mean_hold_s: 10.0,
            max_active: 2,
        };
        let direct = Scenario::named("bad-rate")
            .traffic_model(poisson(0.0))
            .protocol("MORE")
            .packets(8)
            .try_run()
            .expect_err("zero arrival rate");
        assert!(matches!(direct, BuildError::Unsupported(_)));
        let swept = Scenario::named("bad-swept-rate")
            .traffic_model(poisson(0.1))
            .protocol("MORE")
            .sweep(Sweep::Load(vec![0.1, 0.0]))
            .packets(8)
            .try_run()
            .expect_err("zero swept arrival rate");
        assert!(matches!(swept, BuildError::Unsupported(_)));
        // A ramp wanting more distinct sources than the topology has must
        // error from the grid, not panic inside a worker thread.
        let infeasible = Scenario::named("bad-sources")
            .testbed(1)
            .traffic_model(TrafficModelSpec::Staggered {
                n_flows: 25, // testbed has 20 nodes
                gap_ms: 10,
                hold_ms: None,
            })
            .protocol("MORE")
            .packets(8)
            .try_run()
            .expect_err("25 distinct sources on a 20-node mesh");
        assert!(matches!(infeasible, BuildError::Unsupported(_)));
        // A staggered ramp reaching past the deadline would silently drop
        // its tail; reject it instead.
        let ramp = Scenario::named("bad-ramp")
            .traffic_model(TrafficModelSpec::Staggered {
                n_flows: 10,
                gap_ms: 20_000,
                hold_ms: None,
            })
            .protocol("MORE")
            .packets(8)
            .deadline(60)
            .try_run()
            .expect_err("ramp exceeds the deadline");
        assert!(matches!(ramp, BuildError::Unsupported(_)));
        // Static traffic is validated too: an empty random flow set, a
        // Flows sweep point needing more distinct sources than the
        // testbed's 20 nodes, and a multicast flow with no destination
        // must each fail before a worker thread could panic on them.
        let random = |n_flows| TrafficSpec::RandomConcurrent {
            n_flows,
            seed_offset: 0,
            distinct_sources: true,
        };
        let cases = [
            ("no-random-flows", random(0), None),
            (
                "too-many-sources",
                random(2),
                Some(Sweep::Flows(vec![2, 50])),
            ),
            (
                "no-multicast-dsts",
                TrafficSpec::Multicast {
                    src: NodeId(0),
                    dsts: vec![],
                },
                None,
            ),
        ];
        for (name, traffic, sweep) in cases {
            let mut builder = Scenario::named(name)
                .testbed(1)
                .traffic(traffic)
                .protocol("MORE")
                .packets(8);
            if let Some(sweep) = sweep {
                builder = builder.sweep(sweep);
            }
            let err = builder.try_run().expect_err(name);
            assert!(matches!(err, BuildError::Unsupported(_)), "{name}: {err:?}");
        }
        // Empty transfers: zero packets or a zero batch size, set
        // directly or at one sweep point, in every protocol that reads
        // them (Srcr has no batches).
        let line = |protocol: &str| {
            Scenario::named("empty")
                .topology(TopologySpec::Line {
                    hops: 2,
                    p_adj: 0.9,
                    skip_decay: 0.3,
                    spacing: 25.0,
                })
                .pair(NodeId(0), NodeId(2))
                .protocol(protocol)
                .seeds([1, 2])
                .threads(2)
        };
        let unsupported = |b: ScenarioBuilder, what: &str| {
            let err = b.try_run().expect_err(what);
            assert!(matches!(err, BuildError::Unsupported(_)), "{what}: {err:?}");
        };
        for p in ["MORE", "ExOR", "Srcr"] {
            unsupported(line(p).packets(0), p);
            unsupported(line(p).sweep(Sweep::Packets(vec![8, 0])), p);
        }
        for p in ["MORE", "ExOR"] {
            unsupported(line(p).packets(8).k(0), p);
            unsupported(line(p).packets(8).sweep(Sweep::K(vec![8, 0])), p);
        }
    }

    #[test]
    fn bad_queue_parameters_fail_at_build_time() {
        let grid = |name: &str, sweep: Sweep| {
            Scenario::named(name)
                .topology(TopologySpec::Line {
                    hops: 2,
                    p_adj: 0.9,
                    skip_decay: 0.3,
                    spacing: 25.0,
                })
                .pair(NodeId(0), NodeId(2))
                .protocol("Srcr")
                .packets(4)
                .sweep(sweep)
        };
        // Every swept discipline is validated, not just the base one.
        let err = grid(
            "bad-queue-point",
            Sweep::Queue(vec![QueueSpec::drop_tail(4), QueueSpec::drop_tail(0)]),
        )
        .try_run()
        .expect_err("zero-capacity queue point");
        assert!(matches!(err, BuildError::InvalidQueue(_)), "{err:?}");
        // Congestion control over a grid with no bounded point never
        // paces anything.
        let err = grid("unpaced", Sweep::Queue(vec![QueueSpec::Unbounded]))
            .congestion(AimdConfig::default())
            .try_run()
            .expect_err("no bounded queue to pace against");
        assert!(matches!(err, BuildError::InvalidQueue(_)), "{err:?}");
    }

    #[test]
    fn swept_parameter_is_validated_instead_of_the_base_placeholder() {
        // The base n_flows (64, whose ramp would blow past the deadline)
        // never runs — Sweep::Flows replaces it per point — so only the
        // swept values may be validated.
        let records = Scenario::named("swept-ramp")
            .testbed(1)
            .traffic_model(TrafficModelSpec::Staggered {
                n_flows: 64,
                gap_ms: 10_000,
                hold_ms: None,
            })
            .protocol("Srcr")
            .sweep(Sweep::Flows(vec![1, 2]))
            .packets(8)
            .deadline(120)
            .run();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].flows.len(), 2);
        // And an invalid *swept* value is still rejected up front.
        let err = Scenario::named("swept-ramp-bad")
            .testbed(1)
            .traffic_model(TrafficModelSpec::Staggered {
                n_flows: 2,
                gap_ms: 10_000,
                hold_ms: None,
            })
            .protocol("Srcr")
            .sweep(Sweep::Flows(vec![1, 64]))
            .packets(8)
            .deadline(120)
            .try_run()
            .expect_err("swept ramp exceeds the deadline");
        assert!(matches!(err, BuildError::Unsupported(_)));
    }

    #[test]
    fn pending_departure_does_not_inflate_run_time() {
        // The flow finishes its budget in well under a second; the
        // scheduled 60 s departure must not keep the run alive (a Stop
        // cannot un-resolve a flow) nor be reported as a departure.
        let records = Scenario::named("early-finish")
            .topology(TopologySpec::Line {
                hops: 2,
                p_adj: 0.9,
                skip_decay: 0.3,
                spacing: 25.0,
            })
            .traffic_model(TrafficModelSpec::Staggered {
                n_flows: 1,
                gap_ms: 0,
                hold_ms: Some(60_000),
            })
            .protocol("MORE")
            .packets(16)
            .deadline(120)
            .run();
        let r = &records[0];
        assert!(r.all_completed(), "{r:?}");
        assert!(
            r.sim_time_s < 5.0,
            "run lingered until the moot departure: {r:?}"
        );
        assert_eq!(r.flows[0].stopped_at_s, None, "completed before the stop");
        assert!(r.flows[0].latency_s.is_some());
    }

    #[test]
    fn staggered_departures_cut_flows_short() {
        let records = Scenario::named("ramp")
            .testbed(1)
            .traffic_model(TrafficModelSpec::Staggered {
                n_flows: 2,
                gap_ms: 500,
                hold_ms: Some(1_000),
            })
            .protocol("Srcr")
            .packets(100_000) // far more than 1 s can carry
            .deadline(30)
            .run();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.flows.len(), 2);
        for (i, f) in r.flows.iter().enumerate() {
            let start = i as f64 * 0.5;
            assert_eq!(f.started_at_s, Some(start));
            assert_eq!(f.stopped_at_s, Some(start + 1.0));
            assert!(!f.completed, "a truncated flow cannot complete");
            assert!(f.delivered > 0, "flow {i} moved nothing while active");
            assert_eq!(f.latency_s, None);
        }
        // end_flow really halts the flows: the run ends at the last
        // departure, not at the 30 s deadline.
        assert!(r.sim_time_s < 5.0, "halted flows kept the run alive: {r:?}");
    }

    #[test]
    fn registering_over_a_selected_name_does_not_duplicate_runs() {
        use crate::protocols::MoreFactory;
        let records = Scenario::named("override")
            .topology(TopologySpec::Line {
                hops: 2,
                p_adj: 0.9,
                skip_decay: 0.3,
                spacing: 25.0,
            })
            .pair(NodeId(0), NodeId(2))
            .protocols(["MORE", "Srcr"])
            .register(MoreFactory::named("MORE", more_core::MoreConfig::default()))
            .packets(8)
            .deadline(60)
            .run();
        assert_eq!(records.len(), 2, "override must not double-run MORE");
    }

    #[test]
    fn channel_sweep_labels_every_record() {
        let ge = ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10);
        let records = Scenario::named("air")
            .topology(TopologySpec::Line {
                hops: 2,
                p_adj: 0.9,
                skip_decay: 0.3,
                spacing: 25.0,
            })
            .pair(NodeId(0), NodeId(2))
            .protocols(["MORE", "Srcr"])
            .sweep(Sweep::Channel(vec![ChannelSpec::Static, ge.clone()]))
            .seeds(1..=2)
            .packets(8)
            .deadline(60)
            .run();
        assert_eq!(records.len(), 2 * 2 * 2);
        assert!(records.iter().all(|r| r.param == Some("channel")));
        // Sweep value is the point index; the label names the model.
        assert!(records
            .iter()
            .any(|r| r.value == Some(0.0) && r.channel == "static"));
        assert!(records
            .iter()
            .any(|r| r.value == Some(1.0) && r.channel == ge.label()));
    }

    #[test]
    fn shadowing_without_positions_is_an_error_not_a_panic() {
        let bare = Topology::from_matrix(
            "bare",
            vec![
                vec![0.0, 0.9, 0.0],
                vec![0.9, 0.0, 0.9],
                vec![0.0, 0.9, 0.0],
            ],
        );
        let err = Scenario::named("no-positions")
            .topology(TopologySpec::Fixed(std::sync::Arc::new(bare)))
            .pair(NodeId(0), NodeId(2))
            .protocol("Srcr")
            .channel(ChannelSpec::Shadowing {
                path_loss_exp: 3.0,
                sigma_db: 6.0,
                midpoint_m: 35.0,
                epoch_ms: 100,
            })
            .packets(4)
            .try_run()
            .expect_err("shadowing needs positions");
        assert!(matches!(err, BuildError::Unsupported(_)));
    }

    #[test]
    fn probed_routing_runs_on_believed_links() {
        // Probing a bursty channel still completes the transfer: routing
        // acts on window-mean beliefs while the air keeps flapping.
        let records = Scenario::named("probed")
            .topology(TopologySpec::Line {
                hops: 2,
                p_adj: 0.9,
                skip_decay: 0.3,
                spacing: 25.0,
            })
            .pair(NodeId(0), NodeId(2))
            .protocol("MORE")
            .channel(ChannelSpec::bursty_matched(0.2, 0.05, 0.3, 10))
            .probe_routing(
                LinkEstimator {
                    probes: 300,
                    min_delivery: 0.05,
                },
                1_000,
            )
            .packets(8)
            .deadline(120)
            .run();
        assert_eq!(records.len(), 1);
        assert!(records[0].all_completed(), "{records:?}");
    }

    #[test]
    fn grid_shape_is_protocols_by_sweep_by_seeds() {
        let records = Scenario::named("grid")
            .topology(TopologySpec::Line {
                hops: 2,
                p_adj: 0.9,
                skip_decay: 0.3,
                spacing: 25.0,
            })
            .pair(NodeId(0), NodeId(2))
            .protocols(["MORE", "Srcr"])
            .sweep(Sweep::K(vec![8, 16]))
            .seeds(1..=3)
            .packets(16)
            .deadline(60)
            .run();
        assert_eq!(records.len(), 2 * 2 * 3);
        // Each record carries its sweep coordinate.
        assert!(records.iter().all(|r| r.param == Some("k")));
        assert!(records
            .iter()
            .any(|r| r.protocol == "Srcr" && r.value == Some(16.0) && r.seed == 2));
    }

    /// Two disconnected 2-cliques.
    fn split_topology() -> Topology {
        let mut m = vec![vec![0.0; 4]; 4];
        m[0][1] = 0.9;
        m[1][0] = 0.9;
        m[2][3] = 0.9;
        m[3][2] = 0.9;
        Topology::from_matrix("split", m)
    }

    #[test]
    fn unreachable_pair_is_a_build_error_not_a_panic() {
        let err = Scenario::named("partitioned")
            .topology(TopologySpec::Fixed(std::sync::Arc::new(split_topology())))
            .pair(NodeId(0), NodeId(3))
            .protocol("Srcr")
            .packets(4)
            .try_run()
            .expect_err("a cross-partition pair must surface as a BuildError");
        match err {
            BuildError::Unsupported(msg) => assert!(msg.contains("unreachable"), "{msg}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn single_node_self_flow_is_a_build_error_not_a_panic() {
        let lone = Topology::from_matrix("lone", vec![vec![0.0]]);
        let err = Scenario::named("lone")
            .topology(TopologySpec::Fixed(std::sync::Arc::new(lone)))
            .pair(NodeId(0), NodeId(0))
            .protocol("MORE")
            .packets(4)
            .try_run()
            .expect_err("a single-node mesh cannot host a flow");
        match err {
            BuildError::Unsupported(msg) => assert!(msg.contains("own source"), "{msg}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn empty_topology_is_a_build_error_not_a_panic() {
        let none = Topology::from_matrix("none", Vec::new());
        let err = Scenario::named("empty")
            .topology(TopologySpec::Fixed(std::sync::Arc::new(none)))
            .pair(NodeId(0), NodeId(1))
            .protocol("Srcr")
            .packets(4)
            .try_run()
            .expect_err("an empty mesh must be rejected up front");
        match err {
            BuildError::Unsupported(msg) => assert!(msg.contains("no nodes"), "{msg}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_endpoint_is_a_build_error_not_a_panic() {
        let err = Scenario::named("oob")
            .topology(TopologySpec::Line {
                hops: 2,
                p_adj: 0.9,
                skip_decay: 0.3,
                spacing: 25.0,
            })
            .pair(NodeId(0), NodeId(9))
            .protocol("Srcr")
            .packets(4)
            .try_run()
            .expect_err("an endpoint past n must be rejected");
        match err {
            BuildError::Unsupported(msg) => assert!(msg.contains("outside topology"), "{msg}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }
}
