//! The executor: runs a validated [`Plan`] on the [`crate::exec`] worker
//! pool and streams its records into a [`RunSink`].
//!
//! [`stream_into`] restores deterministic grid order and checkpoints each
//! completed cell; [`run_cell`] instantiates one cell's topology and
//! traffic and runs every flow set of it through [`run_one`]. Sweep
//! points arrive already resolved, so nothing here knows about
//! [`crate::Sweep`]; only the checks that need an instantiated topology
//! (channel, traffic feasibility, flow endpoints) run per cell.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "cell coordinates index the plan lists they were enumerated from, and next_emit indexes the plan's keys only for cells the grid contains; the probe-cache mutex is never held across a panic."
)]

use crate::builder::{Progress, ProgressFn, RunSummary};
use crate::exec;
use crate::manifest::Manifest;
use crate::plan::{Cell, Plan, Point};
use crate::record::{time_to_s, FlowRecord, RunRecord};
use crate::registry::BuildError;
use crate::sink::RunSink;
use crate::spec::{scale_loss, ExpConfig, FlowSpec};
use crate::traffic::{flow_windows, validate_schedule, FlowWindow};
use mesh_sim::{ErasedFlowAgent, FlowDesc, Simulator, TrafficAction, SEC, TICK};
use mesh_topology::Topology;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Mutex;

/// Probed routing beliefs per (point, seed), shared across protocols.
type ProbeCache = Mutex<BTreeMap<(usize, u64), Topology>>;

/// Executes `plan` on `threads` workers, restores deterministic grid
/// order with a bounded reorder buffer, and feeds `sink` one record at a
/// time — checkpointing each completed cell under `checkpoint_dir`.
pub(crate) fn stream_into(
    plan: &Plan,
    threads: usize,
    checkpoint_dir: Option<&str>,
    mut on_complete: Option<ProgressFn>,
    sink: &mut dyn RunSink,
) -> Result<RunSummary, BuildError> {
    // Checkpoint/resume: load (or start) the manifest, trim the sink
    // files to their last durable offsets, and skip the completed prefix
    // of the grid.
    let sink_err = |e: std::io::Error| BuildError::Sink(e.to_string());
    let keys = &plan.keys;
    let (mut manifest, manifest_path, skipped) = match checkpoint_dir {
        None => (None, String::new(), 0),
        Some(dir) => {
            let path = Manifest::path_for(dir, &plan.name);
            match Manifest::load(&path).map_err(sink_err)? {
                None => {
                    // Fresh checkpointed sweep: claim the sink files (drop
                    // bytes from any earlier un-manifested attempt so
                    // append-mode sinks start clean).
                    sink.rewind_to(&BTreeMap::new()).map_err(sink_err)?;
                    (Some(Manifest::new(&plan.name, &plan.fingerprint)), path, 0)
                }
                Some(m) => {
                    // Records are emitted in grid order, so a valid
                    // manifest is always an exact prefix of this grid
                    // with the same configuration; anything else means
                    // the scenario changed under the checkpoint.
                    if m.scenario != plan.name
                        || m.config != plan.fingerprint
                        || m.cells.len() > keys.len()
                        || m.cells[..] != keys[..m.cells.len()]
                    {
                        return Err(BuildError::Sink(format!(
                            "manifest {path} does not match this scenario's grid \
                             or configuration (was the sweep reconfigured \
                             mid-resume?); delete it to restart the sweep"
                        )));
                    }
                    // Resuming only makes sense into file-backed sinks: an
                    // in-memory sink (Collect, Aggregate) would silently
                    // hold just the non-skipped tail.
                    if !m.cells.is_empty() && sink.offsets().map_err(sink_err)?.is_empty() {
                        return Err(BuildError::Sink(format!(
                            "manifest {path} has {} completed cell(s), but the \
                             attached sink owns no files to resume into — an \
                             in-memory sink would silently miss the completed \
                             prefix; use JsonLines/CsvAppend (append mode), or \
                             delete the manifest to restart the sweep",
                            m.cells.len()
                        )));
                    }
                    sink.rewind_to(&m.sink_offsets).map_err(sink_err)?;
                    let skipped = m.cells.len();
                    (Some(m), path, skipped)
                }
            }
        }
    };
    let todo: Vec<Cell> = plan.cells[skipped..].to_vec();
    let cells_total = plan.cells.len();
    // Probed routing beliefs depend only on (point, seed), never on the
    // protocol — share one probe window across the whole grid.
    let probe_cache = ProbeCache::default();

    // Drain state: workers report cells in completion order; the reorder
    // buffer holds out-of-order cells until their turn, so the sink
    // always sees deterministic grid order while memory stays bounded by
    // how far completion runs ahead of emission.
    let mut pending: BTreeMap<usize, Vec<RunRecord>> = BTreeMap::new();
    let mut pending_records = 0usize;
    let mut next_emit = 0usize;
    let mut emitted = 0usize;
    let mut high_water = 0usize;
    let mut failure: Option<BuildError> = None;

    exec::par_map_streaming(
        todo,
        threads,
        |cell| run_cell(plan, cell, &probe_cache),
        |j, result| {
            let records = match result {
                Ok(records) => records,
                Err(e) => {
                    failure = Some(e);
                    return ControlFlow::Break(());
                }
            };
            pending_records += records.len();
            pending.insert(j, records);
            high_water = high_water.max(pending_records + sink.held());
            while let Some(records) = pending.remove(&next_emit) {
                pending_records -= records.len();
                for r in &records {
                    if let Err(e) = sink.record(r) {
                        failure = Some(BuildError::Sink(e.to_string()));
                        return ControlFlow::Break(());
                    }
                    emitted += 1;
                    high_water = high_water.max(pending_records + sink.held());
                    if let Some(cb) = on_complete.as_mut() {
                        cb(
                            r,
                            Progress {
                                records: emitted,
                                cells_done: skipped + next_emit,
                                cells_total,
                            },
                        );
                    }
                }
                // Durability boundary: flush — and checkpoint — per
                // completed grid cell.
                let committed = match &mut manifest {
                    Some(m) => sink.offsets().and_then(|offsets| {
                        m.commit(&manifest_path, keys[skipped + next_emit].clone(), offsets)
                    }),
                    None => sink.flush(),
                };
                if let Err(e) = committed {
                    failure = Some(BuildError::Sink(e.to_string()));
                    return ControlFlow::Break(());
                }
                next_emit += 1;
            }
            ControlFlow::Continue(())
        },
    );
    if let Some(e) = failure {
        return Err(e);
    }
    sink.finish().map_err(sink_err)?;
    Ok(RunSummary {
        records: emitted,
        cells_run: next_emit,
        cells_skipped: skipped,
        records_high_water: high_water,
    })
}

/// Runs every flow set of one (protocol, point, seed) cell.
fn run_cell(
    plan: &Plan,
    cell: &Cell,
    probe_cache: &ProbeCache,
) -> Result<Vec<RunRecord>, BuildError> {
    let (proto_name, factory) = &plan.protocols[cell.protocol];
    let point = &plan.points[cell.point];
    let seed = cell.seed;
    let cfg = ExpConfig { seed, ..point.exp };
    let mut topo = plan.topology.instantiate(seed);
    if topo.n() == 0 {
        return Err(BuildError::Unsupported(format!(
            "topology {} has no nodes; nothing can be scheduled or routed",
            topo.name
        )));
    }
    if let Some(factor) = point.loss_scale {
        topo = scale_loss(&topo, factor);
    }
    point
        .channel
        .validate(&topo)
        .map_err(BuildError::Unsupported)?;

    // Routing beliefs: the truth matrix, or a probe-window estimate of
    // the live channel when `probe_routing` is set (deterministic per
    // (point, seed), so protocols share one cached window; a losing
    // racer recomputes the identical topology).
    let believed = plan.probe.as_ref().map(|(est, interval)| {
        let key = (cell.point, seed);
        if let Some(t) = probe_cache.lock().expect("probe cache").get(&key) {
            return t.clone();
        }
        let t = mesh_sim::channel::probe_topology(est, &topo, &point.channel, seed, *interval);
        probe_cache
            .lock()
            .expect("probe cache")
            .entry(key)
            .or_insert(t)
            .clone()
    });
    let routing_topo = believed.as_ref().unwrap_or(&topo);

    let horizon = cfg.deadline_s * SEC;
    // Endpoint feasibility depends on the instantiated topology, so it is
    // checked here — like the channel spec — and surfaces as an error
    // from the grid instead of a worker panic.
    point
        .traffic
        .validate_for(&topo)
        .map_err(BuildError::Unsupported)?;
    let model = point.traffic.build();
    let schedules = model.schedules(&topo, seed, cfg.packets, horizon);
    let mut records = Vec::with_capacity(schedules.len());
    for (ti, schedule) in schedules.into_iter().enumerate() {
        // A misbehaving Custom model (Stop for an unknown flow, Stop
        // before its Start, events past the horizon) must surface as a
        // BuildError from the grid, not a panic inside a worker thread;
        // the built-ins satisfy this by construction.
        validate_schedule(&schedule, horizon).map_err(|e| {
            BuildError::InvalidSchedule(format!("traffic model {:?}: {e}", point.traffic))
        })?;
        let windows = flow_windows(&schedule);
        // Degenerate endpoints — out-of-range nodes, self-flows,
        // unreachable (src, dst) pairs on single-node or partitioned
        // meshes — must surface as grid errors, not ETX/EOTX panics
        // inside the factory.
        validate_endpoints(routing_topo, &windows)?;
        // Flows arriving at t = 0 are installed at construction — the
        // legacy path, byte-identical for static workloads; the rest are
        // injected mid-run through the agent's lifecycle hooks.
        let initial: Vec<FlowSpec> = windows
            .iter()
            .filter(|w| w.start == 0)
            .map(|w| w.spec.clone())
            .collect();
        let agent = factory.build(routing_topo, &initial, &cfg)?;
        let dynamic = windows.iter().any(|w| w.start > 0 || w.stop.is_some());
        if dynamic && !agent.supports_dynamic_flows() {
            return Err(BuildError::Unsupported(format!(
                "protocol {proto_name} does not implement the dynamic flow \
                 lifecycle (ErasedFlowAgent::add_flow/end_flow) required by \
                 traffic model {:?}",
                point.traffic
            )));
        }
        records.push(run_one(
            &plan.name, proto_name, &topo, &windows, dynamic, &cfg, point, agent, ti,
        ));
    }
    Ok(records)
}

/// Rejects flows no protocol can route: endpoints outside the topology,
/// self-flows, and (src, dst) pairs with no `p > 0` path in the routing
/// topology. ETX/EOTX table and forwarder-plan extraction assume a
/// finite-cost path; without this check a degenerate single-node mesh,
/// a partitioned city layout, or a probe window that lost the last link
/// to a destination panics deep inside a worker thread instead of
/// surfacing a [`BuildError`] from the grid.
fn validate_endpoints(topo: &Topology, windows: &[FlowWindow]) -> Result<(), BuildError> {
    let n = topo.n();
    // One BFS per distinct source, shared across its flows.
    let mut reach: BTreeMap<usize, Vec<Option<usize>>> = BTreeMap::new();
    for w in windows {
        let f = &w.spec;
        if f.src.0 >= n {
            return Err(BuildError::Unsupported(format!(
                "flow source {} is outside topology {} ({n} nodes)",
                f.src, topo.name
            )));
        }
        let hops = reach
            .entry(f.src.0)
            .or_insert_with(|| topo.hops_from(f.src));
        for &d in &f.dsts {
            if d.0 >= n {
                return Err(BuildError::Unsupported(format!(
                    "flow destination {d} is outside topology {} ({n} nodes)",
                    topo.name
                )));
            }
            if d == f.src {
                return Err(BuildError::Unsupported(format!(
                    "flow {} -> {d} sends to its own source; routing metrics \
                     are undefined for self-flows",
                    f.src
                )));
            }
            if hops[d.0].is_none() {
                return Err(BuildError::Unsupported(format!(
                    "destination {d} is unreachable from source {} in topology \
                     {}; no p > 0 path exists for route extraction",
                    f.src, topo.name
                )));
            }
        }
    }
    Ok(())
}

/// Runs one flow schedule to completion (or deadline) and measures it.
///
/// Flows starting at t = 0 are pre-installed in `agent` and kicked, the
/// rest are injected through the simulator's traffic queue; per-flow
/// arrival/departure/latency is recorded for dynamic schedules (and
/// omitted for static ones, which stay byte-identical to the
/// pre-traffic-model engine). A bounded queue installs the queueing
/// layer; the point's congestion config then paces every flow's source
/// (flow ids are `1..=windows.len()` in window order — the factory
/// contract — and dynamically arriving flows are auto-paced via the
/// traffic hook).
#[allow(clippy::too_many_arguments)]
fn run_one(
    scenario: &str,
    protocol: &str,
    topo: &Topology,
    windows: &[FlowWindow],
    dynamic: bool,
    cfg: &ExpConfig,
    point: &Point,
    agent: Box<dyn ErasedFlowAgent>,
    traffic_index: usize,
) -> RunRecord {
    let deadline = cfg.deadline_s * SEC;
    let mut sim = Simulator::with_queue(
        topo.clone(),
        point.sim,
        &point.channel,
        &point.queue,
        agent,
        cfg.seed,
    );
    if let Some(cc) = point.congestion {
        for (i, w) in windows.iter().enumerate() {
            if w.start == 0 {
                sim.pace_flow(i as u32 + 1, w.spec.src, cc);
            }
        }
        // Flows the traffic model injects mid-run are paced as they
        // arrive.
        sim.pace_all_flows(cc);
    }
    for (i, w) in windows.iter().enumerate() {
        if w.start == 0 {
            sim.kick(w.spec.src);
        } else {
            sim.schedule_traffic(
                w.start,
                TrafficAction::Start(FlowDesc {
                    src: w.spec.src,
                    dsts: w.spec.dsts.clone(),
                    packets: w.spec.packets,
                }),
            );
        }
        if let Some(stop) = w.stop {
            sim.schedule_traffic(stop, TrafficAction::Stop(i));
        }
    }
    sim.run_until(deadline, |a| a.flows_done());

    let concurrency = {
        let total = sim.stats.total_airtime();
        if total == 0 {
            0.0
        } else {
            sim.stats.concurrent_airtime as f64 / total as f64
        }
    };
    let flow_records = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let p = sim.agent.flow_progress(i);
            let start = w.start;
            let (throughput_pps, completed) = match p.completed_at {
                Some(t) if t > start => (p.delivered as f64 / time_to_s(t - start), true),
                _ => {
                    // Ran until departure or deadline without finishing.
                    // A zero-width active window — a Poisson arrival at
                    // the horizon edge, or a departure at the arrival
                    // instant — must report 0.0 (the flow was never
                    // active): a 0-width division would emit a
                    // non-finite value that poisons NaN-intolerant
                    // downstream stats. The TICK clamp is redundant
                    // while `Time` is integer µs (end > start implies
                    // ≥ 1 tick) — it pins the invariant against a
                    // finer-grained Time ever landing.
                    let end = w.stop.unwrap_or(deadline).min(deadline);
                    let tput = if end <= start {
                        0.0
                    } else {
                        p.delivered as f64 / time_to_s((end - start).max(TICK))
                    };
                    (tput, false)
                }
            };
            FlowRecord {
                src: w.spec.src,
                dsts: w.spec.dsts.clone(),
                delivered: p.delivered,
                throughput_pps,
                queue_drops: sim
                    .stats
                    .queue_drops_by_flow
                    .get(&(i as u32 + 1))
                    .copied()
                    .unwrap_or(0),
                completed,
                completed_at_s: p.completed_at.map(time_to_s),
                started_at_s: dynamic.then(|| time_to_s(start)),
                // A departure only counts if the flow had not already
                // completed its budget when it fired.
                stopped_at_s: w
                    .stop
                    .filter(|&s| p.completed_at.is_none_or(|t| t > s))
                    .map(time_to_s),
                latency_s: if dynamic {
                    p.completed_at
                        .filter(|&t| t > start)
                        .map(|t| time_to_s(t - start))
                } else {
                    None
                },
            }
        })
        .collect::<Vec<FlowRecord>>();
    let throughputs: Vec<f64> = flow_records.iter().map(|f| f.throughput_pps).collect();
    RunRecord {
        scenario: scenario.to_string(),
        protocol: protocol.to_string(),
        topology: topo.name.clone(),
        channel: point.channel.label(),
        queue: point.queue.label(),
        param: point.param,
        value: point.value,
        seed: cfg.seed,
        traffic_index,
        flows: flow_records,
        total_tx: sim.stats.total_tx(),
        queue_drops: sim.stats.total_queue_drops(),
        fairness: mesh_metrics::fairness::jain(&throughputs),
        concurrency,
        sim_time_s: time_to_s(sim.now()),
    }
}
