//! Property tests for the simulator's conservation laws and failure
//! behaviour: whatever the topology, seed, and traffic shape, the medium
//! never invents receptions, time never runs backwards, and the MAC
//! resolves every unicast exactly once.

use mesh_sim::{
    Ctx, DynPayload, ErasedFlowAgent, FlowProgressView, Frame, OutFrame, SimConfig, Simulator,
    TxOutcome, SEC,
};
use mesh_topology::{generate, NodeId};
use proptest::prelude::*;
use std::any::Any;
use std::rc::Rc;

/// An agent where a configurable set of saturated broadcasters and one
/// unicaster exercise the MAC, recording invariants as it goes.
struct Mixed {
    broadcasters: Vec<NodeId>,
    unicaster: Option<(NodeId, NodeId, u32)>,
    resolved: u32,
    receive_times: Vec<u64>,
    last_now: u64,
}

impl ErasedFlowAgent for Mixed {
    fn on_receive(&mut self, _node: NodeId, _f: &Frame<DynPayload>, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        assert!(now >= self.last_now, "time ran backwards");
        self.last_now = now;
        self.receive_times.push(now);
    }

    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, _ctx: &mut Ctx<'_>) {
        match outcome {
            TxOutcome::Broadcast => {
                assert!(
                    self.broadcasters.contains(&node),
                    "broadcast outcome at a non-broadcaster"
                );
            }
            TxOutcome::Acked { .. } | TxOutcome::Failed { .. } => {
                assert_eq!(
                    Some(node),
                    self.unicaster.map(|(s, _, _)| s),
                    "unicast outcome at the wrong node"
                );
                self.resolved += 1;
            }
        }
    }

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>> {
        if let Some((s, d, ref mut left)) = self.unicaster {
            if node == s && *left > 0 {
                *left -= 1;
                return Some(OutFrame {
                    dst: Some(d),
                    bytes: 400,
                    bitrate: None,
                    flow: None,
                    payload: Rc::new(0u32),
                });
            }
        }
        if self.broadcasters.contains(&node) {
            return Some(OutFrame {
                dst: None,
                bytes: 800,
                bitrate: None,
                flow: None,
                payload: Rc::new(1u32),
            });
        }
        None
    }

    fn flows_done(&self) -> bool {
        false
    }

    fn flow_progress(&self, _index: usize) -> FlowProgressView {
        FlowProgressView::default()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Unicasts the simulator's `Mixed` agent has resolved so far.
fn resolved(agent: &dyn ErasedFlowAgent) -> Option<u32> {
    agent.as_any().downcast_ref::<Mixed>().map(|m| m.resolved)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Conservation: every reception corresponds to a transmission; total
    /// receptions ≤ transmissions × (n − 1); unicasts resolve exactly once
    /// each; airtime is consistent with the clock.
    #[test]
    fn conservation_laws(
        topo_seed in 0u64..100,
        sim_seed in 0u64..1000,
        n_broadcasters in 0usize..3,
        unicasts in 0u32..40,
    ) {
        let topo = generate::random_mesh(8, 60.0, 40.0, topo_seed);
        let n = topo.n();
        let broadcasters: Vec<NodeId> = (0..n_broadcasters).map(NodeId).collect();
        let unicaster = if unicasts > 0 {
            Some((NodeId(n - 1), NodeId(n - 2), unicasts))
        } else {
            None
        };
        let agent = Mixed {
            broadcasters: broadcasters.clone(),
            unicaster,
            resolved: 0,
            receive_times: Vec::new(),
            last_now: 0,
        };
        let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), sim_seed);
        for &b in &broadcasters {
            sim.kick(b);
        }
        if unicaster.is_some() {
            sim.kick(NodeId(n - 1));
        }
        let end = sim.run_until(3 * SEC, |_| false);
        prop_assert!(end <= 3 * SEC);

        let tx = sim.stats.total_tx();
        let rx = sim.stats.total_rx();
        prop_assert!(rx <= tx * (n as u64 - 1), "rx {rx} > tx {tx} × (n−1)");
        if unicasts > 0 {
            // Every injected unicast resolves exactly once (acked or
            // failed) — none lost, none double-reported. (Some may still
            // be in flight at the deadline.)
            prop_assert!(resolved(sim.agent.as_ref()).is_some_and(|r| r <= unicasts));
            // Run to quiescence: everything resolves.
            sim.run_until(end + 30 * SEC, |a| resolved(a.as_ref()) == Some(unicasts));
            prop_assert_eq!(resolved(sim.agent.as_ref()), Some(unicasts), "unicasts unresolved");
        }
        // Airtime a single radio used cannot exceed the elapsed clock.
        for node_air in &sim.stats.airtime {
            prop_assert!(*node_air <= sim.now() + 20_000);
        }
    }

    /// Determinism as a property: any (topology, traffic, seed) triple
    /// replays identically.
    #[test]
    fn replay_identical(topo_seed in 0u64..50, sim_seed in 0u64..1000) {
        let run = || {
            let topo = generate::random_mesh(6, 50.0, 40.0, topo_seed);
            let agent = Mixed {
                broadcasters: vec![NodeId(0)],
                unicaster: Some((NodeId(1), NodeId(2), 5)),
                resolved: 0,
                receive_times: Vec::new(),
                last_now: 0,
            };
            let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), sim_seed);
            sim.kick(NodeId(0));
            sim.kick(NodeId(1));
            sim.run_until(SEC, |_| false);
            let times = sim.agent.as_any().downcast_ref::<Mixed>().map(|m| m.receive_times.clone());
            (sim.stats.total_tx(), sim.stats.total_rx(), times)
        };
        prop_assert_eq!(run(), run());
    }

    /// Disconnected nodes never receive anything.
    #[test]
    fn no_reception_without_links(sim_seed in 0u64..500) {
        // Two islands: 0-1 linked, 2 isolated.
        let topo = mesh_topology::Topology::from_matrix(
            "islands",
            vec![
                vec![0.0, 0.9, 0.0],
                vec![0.9, 0.0, 0.0],
                vec![0.0, 0.0, 0.0],
            ],
        );
        let agent = Mixed {
            broadcasters: vec![NodeId(0)],
            unicaster: None,
            resolved: 0,
            receive_times: Vec::new(),
            last_now: 0,
        };
        let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), sim_seed);
        sim.kick(NodeId(0));
        sim.run_until(SEC, |_| false);
        prop_assert_eq!(sim.stats.rx_frames[2], 0, "isolated node received");
        prop_assert!(sim.stats.rx_frames[1] > 0, "linked node received nothing");
    }
}
