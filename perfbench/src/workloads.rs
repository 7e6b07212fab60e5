//! The four workloads: inputs generated from the workload seed, and
//! the scenario call that executes each simulated run.

use mesh_topology::{generate, NodeId, Topology};
use more_scenario::{
    random_pairs, AimdConfig, ProtocolRegistry, QueueSpec, Scenario, ScenarioBuilder, TopologySpec,
    TrafficModelSpec, TrafficSpec,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["paper_unicast", "more_k128", "city_10k", "congested_aimd"];

/// The paper's three protocols, by registry name.
pub const PROTOCOLS: [&str; 3] = ["Srcr", "ExOR", "MORE"];

/// Flows of one simulated run.
#[derive(Clone, Debug)]
pub enum Traffic {
    /// One unicast transfer.
    Pair(NodeId, NodeId),
    /// Concurrent unicast transfers with pairwise-distinct sources.
    Concurrent(Vec<(NodeId, NodeId)>),
    /// Poisson flow arrivals, injected mid-run through `add_flow`,
    /// drawn by the run seed `seed`.
    Poisson {
        seed: u64,
        rate_per_s: f64,
        mean_hold_s: f64,
        max_active: usize,
    },
}

/// One simulated run: a protocol on a flow set.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub protocol: &'static str,
    pub traffic: Traffic,
}

/// A workload's inputs, fixed by its seed.
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub topo: Arc<Topology>,
    pub packets: usize,
    pub k: usize,
    pub deadline_s: u64,
    pub queue: QueueSpec,
    pub congestion: Option<AimdConfig>,
    pub runs: Vec<RunSpec>,
}

/// A workload's inputs plus how long generating its topology took.
pub struct Setup {
    pub workload: Workload,
    pub generate_s: f64,
}

impl Workload {
    /// Generates the named workload's topology and traffic from `seed`.
    /// Like the testbed, the city layout is one fixed map; the seed
    /// draws the traffic on it.
    pub fn setup(name: &str, seed: u64) -> Result<Setup, String> {
        let t0 = Instant::now();
        let topo = match name {
            "city_10k" => generate::city_mesh(10_000, 1),
            _ if NAMES.contains(&name) => generate::testbed(1),
            _ => {
                return Err(format!(
                    "unknown workload {name:?}; expected one of {NAMES:?}"
                ))
            }
        };
        let generate_s = t0.elapsed().as_secs_f64();
        let topo = Arc::new(topo);
        let every = |traffic: Vec<Traffic>| -> Vec<RunSpec> {
            traffic
                .iter()
                .flat_map(|t| {
                    PROTOCOLS.iter().map(|&protocol| RunSpec {
                        protocol,
                        traffic: t.clone(),
                    })
                })
                .collect()
        };
        let pairs = |count| -> Vec<Traffic> {
            random_pairs(&topo, count, seed)
                .into_iter()
                .map(|(s, d)| Traffic::Pair(s, d))
                .collect()
        };
        let base = |name, packets, k, runs| Workload {
            name,
            seed,
            topo: Arc::clone(&topo),
            packets,
            k,
            deadline_s: 240,
            queue: QueueSpec::Unbounded,
            congestion: None,
            runs,
        };
        let workload = match name {
            // Fig 4-2: random testbed pairs, the three protocols, K=32.
            "paper_unicast" => base("paper_unicast", 384, 32, every(pairs(100))),
            // Fig 4-7's largest batch, MORE only.
            "more_k128" => {
                let runs = pairs(200)
                    .into_iter()
                    .map(|traffic| RunSpec {
                        protocol: "MORE",
                        traffic,
                    })
                    .collect();
                base("more_k128", 256, 128, runs)
            }
            // The sparse stack: Poisson arrivals of 16-packet flows on
            // a 10k-node city mesh, offered at 4x the rate that keeps 64
            // flows active, so the cap binds within seconds. Eight short
            // arrival draws per protocol average out draw-to-draw
            // swings in simulated work.
            "city_10k" => {
                let draws = (0..8)
                    .map(|i| Traffic::Poisson {
                        seed: seed.wrapping_mul(8).wrapping_add(i),
                        rate_per_s: 25.6,
                        mean_hold_s: 10.0,
                        max_active: 64,
                    })
                    .collect();
                Workload {
                    deadline_s: 6,
                    ..base("city_10k", 16, 32, every(draws))
                }
            }
            // Fig 4-5's four concurrent distinct-source flows through
            // DropTail queues with AIMD source pacing.
            _ => Workload {
                queue: QueueSpec::drop_tail(16),
                congestion: Some(AimdConfig::default()),
                ..base(
                    "congested_aimd",
                    384,
                    32,
                    every(flow_sets(&topo, 4, 3, seed)),
                )
            },
        };
        Ok(Setup {
            workload,
            generate_s,
        })
    }

    /// The public scenario call that executes `run` on one worker thread.
    pub fn scenario(&self, run: &RunSpec, registry: ProtocolRegistry) -> ScenarioBuilder {
        let b = Scenario::named(self.name)
            .topology(TopologySpec::Fixed(Arc::clone(&self.topo)))
            .registry(registry)
            .protocol(run.protocol)
            .packets(self.packets)
            .k(self.k)
            .deadline(self.deadline_s)
            .seeds([match run.traffic {
                Traffic::Poisson { seed, .. } => seed,
                _ => self.seed,
            }])
            .threads(1)
            .queue(self.queue.clone());
        let b = match self.congestion {
            Some(cc) => b.congestion(cc),
            None => b,
        };
        match &run.traffic {
            Traffic::Pair(s, d) => b.pair(*s, *d),
            Traffic::Concurrent(pairs) => b.traffic(TrafficSpec::Concurrent(pairs.clone())),
            Traffic::Poisson {
                rate_per_s,
                mean_hold_s,
                max_active,
                ..
            } => b.traffic_model(TrafficModelSpec::Poisson {
                rate_per_s: *rate_per_s,
                mean_hold_s: *mean_hold_s,
                max_active: *max_active,
            }),
        }
    }
}

/// `sets` flow sets of `flows` reachable pairs each, sources pairwise
/// distinct within a set, drawn from the seed's shuffle of every
/// reachable ordered pair.
fn flow_sets(topo: &Topology, flows: usize, sets: usize, seed: u64) -> Vec<Traffic> {
    let mut shuffled = random_pairs(topo, usize::MAX, seed).into_iter();
    (0..sets)
        .map(|_| {
            let mut sources = BTreeSet::new();
            let set: Vec<_> = shuffled
                .by_ref()
                .filter(|(s, _)| sources.insert(*s))
                .take(flows)
                .collect();
            Traffic::Concurrent(set)
        })
        .collect()
}
