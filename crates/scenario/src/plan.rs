//! The validated plan between the fluent [`ScenarioBuilder`] and the
//! executor ([`crate::executor`]).
//!
//! [`Plan::new`] checks everything that does not depend on an
//! instantiated topology — protocol names, queue and congestion
//! parameters, the traffic model at every sweep point — and resolves
//! each sweep point, once, into the concrete [`Point`] its grid cells run
//! with. [`Point::resolve`] is the one place a [`Sweep`] changes a run's
//! configuration. The grid cells, their checkpoint keys and the manifest
//! fingerprint are derived here as well, so the executor only
//! instantiates topologies and runs.

#![expect(
    clippy::indexing_slicing,
    reason = "sweep point i indexes the sweep's own value list (i < Sweep::len() by the range in Plan::new), and cell coordinates index the protocol and point lists they were enumerated from."
)]

use crate::builder::ScenarioBuilder;
use crate::manifest::cell_key;
use crate::registry::{BuildError, ProtocolFactory};
use crate::spec::{ExpConfig, Sweep, TopologySpec, TrafficSpec};
use crate::traffic::TrafficModelSpec;
use mesh_sim::{AimdConfig, ChannelSpec, QueueSpec, SimConfig};
use mesh_topology::estimator::LinkEstimator;
use std::sync::Arc;

/// One sweep point resolved into the configuration its runs use.
pub(crate) struct Point {
    /// The sweep point's index, as the cell keys record it; `None`
    /// without a sweep.
    pub index: Option<usize>,
    /// Experiment parameters; each run fills in its own seed.
    pub exp: ExpConfig,
    /// MAC/PHY parameters, carrying the point's data bit-rate.
    pub sim: SimConfig,
    pub traffic: TrafficModelSpec,
    pub channel: ChannelSpec,
    pub queue: QueueSpec,
    /// AIMD source pacing; `None` at unbounded-queue points, which have
    /// no queue losses to react to.
    pub congestion: Option<AimdConfig>,
    /// Loss scaling applied to each instantiated topology
    /// ([`crate::spec::scale_loss`]).
    pub loss_scale: Option<f64>,
    /// The records' `param` key and `value`.
    pub param: Option<&'static str>,
    pub value: Option<f64>,
}

impl Point {
    /// Applies sweep point `at` (if any) to the builder's base
    /// configuration and validates the result.
    fn resolve(b: &ScenarioBuilder, at: Option<(&Sweep, usize)>) -> Result<Point, BuildError> {
        let mut p = Point {
            index: None,
            exp: b.base,
            sim: b.sim,
            traffic: b.traffic.clone(),
            channel: b.channel.clone(),
            queue: b.queue.clone(),
            congestion: None,
            loss_scale: None,
            param: None,
            value: None,
        };
        if let Some((sweep, i)) = at {
            match sweep {
                Sweep::Packets(v) => p.exp.packets = v[i],
                Sweep::K(v) => p.exp.k = v[i],
                Sweep::Bitrate(v) => p.exp.bitrate = v[i],
                Sweep::LossScale(v) => p.loss_scale = Some(v[i]),
                Sweep::Channel(v) => p.channel = v[i].clone(),
                Sweep::Queue(v) => p.queue = v[i].clone(),
                Sweep::Flows(v) => match &mut p.traffic {
                    TrafficModelSpec::Static(TrafficSpec::RandomConcurrent { n_flows, .. })
                    | TrafficModelSpec::Staggered { n_flows, .. } => *n_flows = v[i],
                    other => {
                        return Err(BuildError::Unsupported(format!(
                            "Sweep::Flows requires TrafficSpec::RandomConcurrent or \
                             TrafficModelSpec::Staggered traffic, got {other:?}"
                        )))
                    }
                },
                Sweep::Load(v) => match &mut p.traffic {
                    TrafficModelSpec::Poisson { rate_per_s, .. } => *rate_per_s = v[i],
                    other => {
                        return Err(BuildError::Unsupported(format!(
                            "Sweep::Load sweeps the arrival rate of TrafficModelSpec::Poisson \
                             traffic, got {other:?}"
                        )))
                    }
                },
            }
            p.index = Some(i);
            p.param = Some(sweep.label());
            p.value = Some(sweep.value(i));
        }
        p.sim.bitrate = p.exp.bitrate;
        if p.exp.packets == 0 || p.exp.k == 0 {
            return Err(BuildError::Unsupported(format!(
                "packets = {}, k = {}: a transfer needs at least one packet and \
                 a batch size of at least one",
                p.exp.packets, p.exp.k
            )));
        }
        p.traffic
            .validate(p.exp.deadline_s)
            .map_err(BuildError::Unsupported)?;
        p.queue.validate().map_err(BuildError::InvalidQueue)?;
        p.congestion = b.congestion.filter(|_| !p.queue.is_unbounded());
        Ok(p)
    }
}

/// One grid cell: indices into [`Plan::protocols`] and [`Plan::points`],
/// plus the run seed. Its flow sets expand inside the worker, because
/// seeded traffic depends on the instantiated topology.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cell {
    pub protocol: usize,
    pub point: usize,
    pub seed: u64,
}

/// A scenario with every topology-independent check passed.
pub(crate) struct Plan {
    pub name: String,
    pub topology: TopologySpec,
    pub probe: Option<(LinkEstimator, u64)>,
    /// Selected protocols, by name, resolved to their factories.
    pub protocols: Vec<(String, Arc<dyn ProtocolFactory>)>,
    pub points: Vec<Point>,
    /// The grid, protocol × point × seed, in emission order.
    pub cells: Vec<Cell>,
    /// Each cell's checkpoint key ([`cell_key`]), parallel to `cells`.
    pub keys: Vec<String>,
    /// What the checkpoint manifest compares a resumed sweep against.
    pub fingerprint: String,
}

impl Plan {
    /// Validates `b` and resolves its grid, so configuration errors
    /// surface before any worker thread spawns.
    pub(crate) fn new(b: &ScenarioBuilder) -> Result<Plan, BuildError> {
        let points = match &b.sweep {
            None => vec![Point::resolve(b, None)?],
            Some(sweep) => (0..sweep.len())
                .map(|i| Point::resolve(b, Some((sweep, i))))
                .collect::<Result<_, _>>()?,
        };
        b.queue.validate().map_err(BuildError::InvalidQueue)?;
        if let Some(cc) = &b.congestion {
            cc.validate().map_err(BuildError::InvalidQueue)?;
            // The pacer is keyed to queue losses; a grid with no bounded
            // queue anywhere would silently never pace.
            if points.iter().all(|p| p.congestion.is_none()) {
                return Err(BuildError::InvalidQueue(
                    "congestion control requires a bounded queue discipline \
                     (set ScenarioBuilder::queue or sweep Sweep::Queue with a \
                     bounded point); the unbounded legacy path has no queue \
                     losses to react to"
                        .to_string(),
                ));
            }
        }
        // No explicit selection runs everything registered; every name
        // resolves up front so typos fail before any work.
        let names = if b.protocols.is_empty() {
            b.registry.names().into_iter().map(String::from).collect()
        } else {
            b.protocols.clone()
        };
        let protocols = names
            .into_iter()
            .map(|name| {
                let factory = b.registry.resolve(&name)?;
                Ok((name, factory))
            })
            .collect::<Result<Vec<_>, BuildError>>()?;
        let mut cells = Vec::new();
        for protocol in 0..protocols.len() {
            for point in 0..points.len() {
                for &seed in &b.seeds {
                    cells.push(Cell {
                        protocol,
                        point,
                        seed,
                    });
                }
            }
        }
        let keys = cells
            .iter()
            .map(|c| cell_key(&protocols[c.protocol].0, points[c.point].index, c.seed))
            .collect();
        Ok(Plan {
            name: b.name.clone(),
            topology: b.topology.clone(),
            probe: b.probe,
            protocols,
            points,
            cells,
            keys,
            fingerprint: fingerprint(b),
        })
    }
}

/// The configuration a checkpoint manifest pins: everything the cell keys
/// don't. Resuming after changing packets, the swept values, the channel,
/// etc. must be rejected, not silently mixed into one output file.
/// (`Custom(..)` topologies and traffic fingerprint opaquely — two
/// different custom closures are indistinguishable here.)
fn fingerprint(b: &ScenarioBuilder) -> String {
    let mut fingerprint = format!(
        "topo={:?} traffic={:?} sweep={:?} base={:?} sim={:?} channel={} probe={:?}",
        b.topology,
        b.traffic,
        b.sweep,
        b.base,
        b.sim,
        b.channel.label(),
        b.probe,
    );
    // Appended only when configured, so manifests written before the
    // queueing subsystem existed still resume.
    if !b.queue.is_unbounded() {
        fingerprint.push_str(&format!(" queue={}", b.queue.label()));
    }
    if let Some(cc) = &b.congestion {
        fingerprint.push_str(&format!(" cc={}", cc.label()));
    }
    fingerprint
}
