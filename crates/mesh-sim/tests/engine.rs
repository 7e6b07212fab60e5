//! End-to-end tests of the simulator engine with minimal protocol agents.

#![expect(
    clippy::indexing_slicing,
    clippy::panic,
    reason = "test support code outside #[test] fns: a panic is the test's failure report"
)]

use mesh_sim::{
    Ctx, DynPayload, ErasedFlowAgent, FlowProgressView, Frame, OutFrame, SimConfig, Simulator,
    Time, TxOutcome, SEC,
};
use mesh_topology::{generate, NodeId};
use std::any::Any;
use std::rc::Rc;

/// The simulator's agent as the test's concrete type.
fn concrete<T: 'static>(sim: &Simulator) -> &T {
    match sim.agent.as_any().downcast_ref() {
        Some(a) => a,
        None => panic!("the simulator runs a different agent type"),
    }
}

/// Broadcasts `remaining` frames from node 0 and counts receptions
/// anywhere.
struct Broadcaster {
    remaining: u32,
    received: Vec<u32>,
}

impl ErasedFlowAgent for Broadcaster {
    fn on_receive(&mut self, node: NodeId, _f: &Frame<DynPayload>, _ctx: &mut Ctx<'_>) {
        self.received[node.0] += 1;
    }

    fn on_tx_done(&mut self, _node: NodeId, outcome: TxOutcome, _ctx: &mut Ctx<'_>) {
        assert_eq!(outcome, TxOutcome::Broadcast);
    }

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>> {
        if node != NodeId(0) || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(OutFrame {
            dst: None,
            bytes: 1500,
            bitrate: None,
            flow: None,
            payload: Rc::new(self.remaining),
        })
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

#[test]
fn broadcast_delivery_tracks_link_probability() {
    let topo = generate::line(1, 0.7, 0.0, 20.0);
    let agent = Broadcaster {
        remaining: 2000,
        received: vec![0; 2],
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), 42);
    sim.kick(NodeId(0));
    // Run to the deadline regardless of progress (never stop early).
    sim.run_until(120 * SEC, |_| false);
    assert_eq!(sim.stats.tx_frames[0], 2000, "all frames sent");
    let rate = concrete::<Broadcaster>(&sim).received[1] as f64 / 2000.0;
    assert!((rate - 0.7).abs() < 0.04, "delivery rate {rate}");
    assert_eq!(sim.stats.unicast_failures, 0);
}

#[test]
fn broadcasts_are_paced_by_airtime_and_backoff() {
    // 1500 B at 5.5 Mb/s ≈ 2374 µs airtime + DIFS + mean backoff
    // (31/2 × 20 µs = 310); ~2.7 ms/frame → ~370 frames/s.
    let topo = generate::line(1, 1.0, 0.0, 20.0);
    let agent = Broadcaster {
        remaining: u32::MAX,
        received: vec![0; 2],
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), 7);
    sim.kick(NodeId(0));
    sim.run_until(SEC, |_| false);
    let sent = sim.stats.tx_frames[0];
    assert!(
        (330..=400).contains(&sent),
        "one saturated sender sent {sent} frames/s"
    );
}

/// Sends `remaining` unicast packets from node 0 to node 1, counting MAC
/// outcomes.
struct Unicaster {
    remaining: u32,
    acked: u32,
    failed: u32,
    delivered: u32,
}

impl ErasedFlowAgent for Unicaster {
    fn on_receive(&mut self, node: NodeId, f: &Frame<DynPayload>, _ctx: &mut Ctx<'_>) {
        if f.dst == Some(node) {
            self.delivered += 1;
        }
    }

    fn on_tx_done(&mut self, _node: NodeId, outcome: TxOutcome, _ctx: &mut Ctx<'_>) {
        match outcome {
            TxOutcome::Acked { .. } => self.acked += 1,
            TxOutcome::Failed { .. } => self.failed += 1,
            TxOutcome::Broadcast => panic!("no broadcasts here"),
        }
    }

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>> {
        if node != NodeId(0) || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(OutFrame {
            dst: Some(NodeId(1)),
            bytes: 1500,
            bitrate: None,
            flow: None,
            payload: Rc::new(()),
        })
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

/// Stop predicate: the test's unicaster resolved `n` sends.
fn resolved(a: &dyn ErasedFlowAgent, n: u32) -> bool {
    a.as_any()
        .downcast_ref::<Unicaster>()
        .is_some_and(|u| u.acked + u.failed == n)
}

#[test]
fn unicast_retransmission_masks_loss() {
    // 60% link: raw loss is high but 7 retries push delivery near 1.
    let topo = generate::line(1, 0.6, 0.0, 20.0);
    let agent = Unicaster {
        remaining: 500,
        acked: 0,
        failed: 0,
        delivered: 0,
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), 3);
    sim.kick(NodeId(0));
    sim.run_until(300 * SEC, |a| resolved(a.as_ref(), 500));
    let a = concrete::<Unicaster>(&sim);
    assert_eq!(a.acked + a.failed, 500, "every send resolved");
    // An attempt succeeds when data AND MAC-ACK both get through:
    // 0.6 × 0.6 = 0.36; P(all 8 attempts fail) = 0.64⁸ ≈ 2.8%.
    assert!(
        (460..=500).contains(&a.acked),
        "acked {} of 500 — expected ≈ 486",
        a.acked
    );
    assert!(sim.stats.retries > 200, "retries {}", sim.stats.retries);
    // Deliveries can exceed acks (data got through but the ACK was lost,
    // so the sender retried an already-delivered frame).
    assert!(a.delivered >= a.acked);
}

#[test]
fn unicast_on_dead_link_fails_cleanly() {
    let topo = mesh_topology::Topology::from_matrix("dead", vec![vec![0.0, 0.02], vec![0.02, 0.0]]);
    let agent = Unicaster {
        remaining: 20,
        acked: 0,
        failed: 0,
        delivered: 0,
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), 5);
    sim.kick(NodeId(0));
    sim.run_until(600 * SEC, |a| resolved(a.as_ref(), 20));
    let failed = concrete::<Unicaster>(&sim).failed;
    assert!(
        failed > 10,
        "a 2% link should exhaust retries most of the time (failed {failed})"
    );
    assert_eq!(sim.stats.unicast_failures, failed as u64);
}

/// Two independent saturated broadcasters, used for spatial-reuse checks.
struct TwoSenders {
    senders: [NodeId; 2],
}

impl ErasedFlowAgent for TwoSenders {
    fn on_receive(&mut self, _n: NodeId, _f: &Frame<DynPayload>, _c: &mut Ctx<'_>) {}
    fn on_tx_done(&mut self, _n: NodeId, _o: TxOutcome, _c: &mut Ctx<'_>) {}

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>> {
        if self.senders.contains(&node) {
            Some(OutFrame {
                dst: None,
                bytes: 1500,
                bitrate: None,
                flow: None,
                payload: Rc::new(()),
            })
        } else {
            None
        }
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

#[test]
fn distant_nodes_transmit_concurrently_neighbors_do_not() {
    // 5-node line, 30 m spacing, carrier sense 42 m: nodes 0 and 4 are
    // 120 m apart — spatial reuse; nodes 0 and 1 sense each other.
    let topo = generate::line(4, 0.9, 0.0, 30.0);

    let far = TwoSenders {
        senders: [NodeId(0), NodeId(4)],
    };
    let mut sim_far = Simulator::new(topo.clone(), SimConfig::default(), Box::new(far), 11);
    sim_far.kick(NodeId(0));
    sim_far.kick(NodeId(4));
    sim_far.run_until(2 * SEC, |_| false);
    let far_overlap = sim_far.stats.concurrent_airtime;

    let near = TwoSenders {
        senders: [NodeId(0), NodeId(1)],
    };
    let mut sim_near = Simulator::new(topo, SimConfig::default(), Box::new(near), 11);
    sim_near.kick(NodeId(0));
    sim_near.kick(NodeId(1));
    sim_near.run_until(2 * SEC, |_| false);
    let near_overlap = sim_near.stats.concurrent_airtime;

    assert!(
        far_overlap > 20 * far_overlap.min(near_overlap).max(1) / 20 && far_overlap > 500_000,
        "far senders should overlap heavily: {far_overlap} µs over 2 s"
    );
    assert!(
        near_overlap < far_overlap / 5,
        "neighbors should rarely overlap: near {near_overlap} vs far {far_overlap}"
    );
    // And the far pair pushes roughly twice the frames of a lone sender.
    let total_far = sim_far.stats.tx_frames[0] + sim_far.stats.tx_frames[4];
    let total_near = sim_near.stats.tx_frames[0] + sim_near.stats.tx_frames[1];
    assert!(
        total_far as f64 > 1.5 * total_near as f64,
        "spatial reuse should raise aggregate throughput: {total_far} vs {total_near}"
    );
}

/// Timer echo agent.
struct TimerAgent {
    fired: Vec<(NodeId, u64, u64)>,
}

impl ErasedFlowAgent for TimerAgent {
    fn on_receive(&mut self, _n: NodeId, _f: &Frame<DynPayload>, _c: &mut Ctx<'_>) {}
    fn on_tx_done(&mut self, _n: NodeId, _o: TxOutcome, _c: &mut Ctx<'_>) {}
    fn poll_tx(&mut self, _n: NodeId, _c: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>> {
        None
    }
    fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>) {
        self.fired.push((node, token, ctx.now()));
        if token < 3 {
            ctx.set_timer(node, 100, token + 1);
        }
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

#[test]
fn timers_chain() {
    let topo = generate::line(1, 1.0, 0.0, 20.0);
    let agent = TimerAgent { fired: Vec::new() };
    let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), 1);
    sim.set_timer(NodeId(1), 50, 1);
    sim.run_until(SEC, |_| false);
    assert_eq!(
        concrete::<TimerAgent>(&sim).fired,
        vec![(NodeId(1), 1, 50), (NodeId(1), 2, 150), (NodeId(1), 3, 250)]
    );
}

#[test]
fn runs_are_deterministic_in_seed() {
    let run = |seed: u64| {
        let topo = generate::testbed(1);
        let agent = Broadcaster {
            remaining: 300,
            received: vec![0; 20],
        };
        let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), seed);
        sim.kick(NodeId(0));
        sim.run_until(30 * SEC, |_| false);
        (
            concrete::<Broadcaster>(&sim).received.clone(),
            sim.stats.total_rx(),
        )
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn deadline_stops_the_clock() {
    let topo = generate::line(1, 1.0, 0.0, 20.0);
    let agent = Broadcaster {
        remaining: u32::MAX,
        received: vec![0; 2],
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), 2);
    sim.kick(NodeId(0));
    let end = sim.run_until(SEC / 2, |_| false);
    assert_eq!(end, SEC / 2);
    // Continuing resumes where we stopped.
    let end2 = sim.run_until(SEC, |_| false);
    assert_eq!(end2, SEC);
    assert!(sim.stats.tx_frames[0] > 300);
}

#[test]
fn stop_predicate_halts_early() {
    let topo = generate::line(1, 1.0, 0.0, 20.0);
    let agent = Broadcaster {
        remaining: u32::MAX,
        received: vec![0; 2],
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), 2);
    sim.kick(NodeId(0));
    sim.run_until(10 * SEC, |a| {
        a.as_any()
            .downcast_ref::<Broadcaster>()
            .is_some_and(|b| b.received[1] >= 10)
    });
    let received = concrete::<Broadcaster>(&sim).received[1];
    assert!(received >= 10);
    assert!(received < 20, "should stop promptly");
    assert!(sim.now() < 10 * SEC);
}

/// A tiny broadcast-flood protocol: node 0 broadcasts `remaining` frames
/// carrying the payload 7, and node 2 of a three-node line counts them.
struct Flood {
    remaining: u32,
    delivered: usize,
    done_at: Option<Time>,
}

impl ErasedFlowAgent for Flood {
    fn on_receive(&mut self, node: NodeId, frame: &Frame<DynPayload>, _ctx: &mut Ctx<'_>) {
        if node == NodeId(2) {
            self.delivered += 1;
            assert_eq!(
                frame.payload.downcast_ref::<u32>(),
                Some(&7),
                "payload survived the round-trip"
            );
        }
    }

    fn on_tx_done(&mut self, _node: NodeId, _outcome: TxOutcome, ctx: &mut Ctx<'_>) {
        if self.remaining > 0 {
            ctx.mark_backlogged(NodeId(0));
        } else if self.done_at.is_none() {
            self.done_at = Some(ctx.now());
        }
    }

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>> {
        if node != NodeId(0) || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(OutFrame {
            dst: None,
            bytes: 200,
            bitrate: None,
            flow: None,
            payload: Rc::new(7u32),
        })
    }

    fn flows_done(&self) -> bool {
        self.remaining == 0
    }

    fn flow_progress(&self, _index: usize) -> FlowProgressView {
        FlowProgressView {
            delivered: self.delivered,
            completed_at: self.done_at,
            done: self.flows_done(),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn erased_agent_runs_in_the_simulator() {
    let topo = generate::line(2, 0.95, 0.4, 25.0);
    let agent = Flood {
        remaining: 20,
        delivered: 0,
        done_at: None,
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), 1);
    sim.kick(NodeId(0));
    sim.run_until(30 * SEC, |a| a.flows_done());
    let p = sim.agent.flow_progress(0);
    assert!(p.done);
    assert!(p.delivered > 0, "the far node should hear something");
    // Downcast recovers the concrete type.
    let concrete = sim
        .agent
        .as_any()
        .downcast_ref::<Flood>()
        .expect("is Flood");
    assert_eq!(concrete.remaining, 0);
}
