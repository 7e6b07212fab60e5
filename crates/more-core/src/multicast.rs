//! Multicast MORE — the extension the paper's introduction motivates.
//!
//! The thesis singles out multicast as the traffic type ExOR's
//! structured scheduler "makes the protocol hard to extend to" (§1),
//! while MORE's randomness extends naturally: the source keeps pumping
//! coded packets from the current batch until *every* destination has
//! ACKed it, forwarders serve the union of the per-destination forwarder
//! sets, and a node's credit for an overheard packet is the *maximum* of
//! its per-destination TX credits (one transmission can serve all
//! downstream destinations at once — the coded packet is useful to each
//! of them).
//!
//! Batch ACKs work exactly as in unicast — each destination unicasts its
//! ACK back to the source over its ETX shortest path — and a forwarder
//! purges a batch once it has overheard ACKs from all destinations.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "per-destination credit/rank vectors are sized to the flow's destination set at setup and every destination index is drawn from that same set; the expect()s fire only on state the match arms directly above just created."
)]

use crate::flow::NodeFlowState;
use crate::header::{MorePayload, PayloadSlots};
use crate::{batch_natives, MoreConfig};
use mesh_metrics::etx::LinkCost;
use mesh_metrics::{EtxTable, ForwarderPlan};
use mesh_sim::queue::DropCause;
use mesh_sim::{take_payload, Ctx, DynPayload, ErasedFlowAgent, Frame, OutFrame, Time, TxOutcome};
use mesh_topology::{NodeId, Topology};
use rand::Rng;
use rlnc::{pool, CodedPacket, SourceEncoder};
use std::any::Any;
use std::collections::VecDeque;

/// Size of a batch-ACK frame on the air.
const ACK_BYTES: usize = 30;

/// Progress of a multicast transfer.
#[derive(Clone, Debug, Default)]
pub struct MulticastProgress {
    /// Per-destination delivered packet counts.
    pub delivered: Vec<usize>,
    /// Per-destination completion time.
    pub completed_at: Vec<Option<Time>>,
    /// Batches ACKed by every destination.
    pub acked_batches: u32,
    /// All batches ACKed by all destinations.
    pub done: bool,
}

struct PerDst {
    dst: NodeId,
    /// Rank (position in this destination's order) per node.
    rank_of: Vec<Option<u32>>,
    /// This destination's decoder-side state per batch.
    node_state: NodeFlowState,
    /// Which batches this destination has ACKed (monotone frontier).
    acked_through: i64,
}

/// One multicast flow.
struct McFlow {
    id: u32,
    src: NodeId,
    total_packets: usize,
    dsts: Vec<PerDst>,
    /// Per-node forwarding state (buffer + credit), shared across
    /// destinations — one coded broadcast serves them all.
    nodes: Vec<NodeFlowState>,
    /// Max-over-destinations TX credit per node.
    credit_of: Vec<f64>,
    /// Union participant set.
    participates: Vec<bool>,
    /// ACK next hops toward the source.
    ack_next_hop: Vec<Option<NodeId>>,
    /// Batch the source currently pumps (min over dst frontiers + 1).
    src_batch: u32,
    encoder: Option<SourceEncoder>,
    /// Per-node view of which destinations acked the node's current batch
    /// (bitmask; purge when full).
    acked_mask: Vec<u64>,
    /// Origin of each queued relay ACK, parallel to
    /// `nodes[n].pending_acks`.
    ack_origin: Vec<std::collections::VecDeque<NodeId>>,
    progress: MulticastProgress,
    /// Withdrawn mid-run by a dynamic workload: everyone goes silent.
    halted: bool,
}

impl McFlow {
    fn n_batches(&self, cfg: &MoreConfig) -> u32 {
        self.total_packets.div_ceil(cfg.k) as u32
    }

    fn k_of(&self, cfg: &MoreConfig, b: u32) -> usize {
        let nb = self.n_batches(cfg);
        if b + 1 < nb || self.total_packets.is_multiple_of(cfg.k) {
            cfg.k
        } else {
            self.total_packets % cfg.k
        }
    }

    fn full_mask(&self) -> u64 {
        (1u64 << self.dsts.len()) - 1
    }

    fn is_done(&self, cfg: &MoreConfig) -> bool {
        self.halted || self.src_batch >= self.n_batches(cfg)
    }
}

/// Batch ACKs a node has handed to its MAC, oldest first:
/// `(flow index, dst index or usize::MAX for a relayed ACK, batch,
/// origin)`. A FIFO rather than a slot because a bounded transmit queue
/// may poll several frames before the first outcome arrives.
type AckOutstanding = VecDeque<(usize, usize, u32, NodeId)>;

/// Multicast MORE agent: one flow `src → {dst₁, …}` per `add_flow`.
pub struct MulticastMoreAgent {
    cfg: MoreConfig,
    topo: Topology,
    flows: Vec<McFlow>,
    ack_outstanding: Vec<AckOutstanding>,
    /// Reused `Rc` allocations for outgoing payloads.
    slots: PayloadSlots,
}

impl MulticastMoreAgent {
    pub fn new(topo: Topology, cfg: MoreConfig) -> Self {
        let n = topo.n();
        MulticastMoreAgent {
            cfg,
            topo,
            flows: Vec::new(),
            ack_outstanding: vec![VecDeque::new(); n],
            slots: PayloadSlots::default(),
        }
    }

    /// Puts an ACK the MAC could not deliver (or the queue dropped) back
    /// at the head of the queue it was polled from.
    fn requeue_ack(&mut self, node: NodeId, fi: usize, di: usize, batch: u32, origin: NodeId) {
        let f = &mut self.flows[fi];
        if f.halted {
            return;
        }
        if di == usize::MAX {
            f.nodes[node.0].pending_acks.push_front(batch);
            f.ack_origin[node.0].push_front(origin);
        } else {
            f.dsts[di].node_state.pending_acks.push_front(batch);
        }
    }

    /// Registers a multicast transfer. Kick `src` on the simulator.
    pub fn add_flow(
        &mut self,
        id: u32,
        src: NodeId,
        dsts: Vec<NodeId>,
        total_packets: usize,
    ) -> usize {
        assert!(!dsts.is_empty() && dsts.len() <= 64, "1..=64 destinations");
        assert!(total_packets > 0, "empty transfer");
        let n = self.topo.n();
        let mut per_dst = Vec::new();
        let mut credit_of = vec![0.0f64; n];
        let mut participates = vec![false; n];
        for &dst in &dsts {
            let etx = EtxTable::compute(&self.topo, dst, LinkCost::Forward);
            let plan =
                ForwarderPlan::compute(&self.topo, src, dst, etx.distances(), &self.cfg.plan);
            let mut rank_of = vec![None; n];
            for (r, &node) in plan.order.iter().enumerate() {
                rank_of[node.0] = Some(r as u32);
                participates[node.0] = true;
                // Credit: max over destinations (§multicast — one coded
                // transmission serves every downstream destination).
                credit_of[node.0] = credit_of[node.0].max(plan.tx_credit[node.0]);
            }
            per_dst.push(PerDst {
                dst,
                rank_of,
                node_state: NodeFlowState::new(),
                acked_through: -1,
            });
        }
        let to_src = EtxTable::compute(&self.topo, src, LinkCost::ForwardReverse);
        let ack_next_hop = (0..n).map(|i| to_src.next_hop(NodeId(i))).collect();
        self.flows.push(McFlow {
            id,
            src,
            total_packets,
            progress: MulticastProgress {
                delivered: vec![0; dsts.len()],
                completed_at: vec![None; dsts.len()],
                ..Default::default()
            },
            dsts: per_dst,
            nodes: (0..n).map(|_| NodeFlowState::new()).collect(),
            credit_of,
            participates,
            ack_next_hop,
            src_batch: 0,
            encoder: None,
            acked_mask: vec![0; n],
            ack_origin: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
            halted: false,
        });
        self.flows.len() - 1
    }

    /// Withdraws flow `index` mid-run: forwarding and ACK relaying stop,
    /// and the flow counts as resolved for the stop condition.
    pub fn halt_flow(&mut self, index: usize) {
        let f = &mut self.flows[index];
        f.halted = true;
        for ns in &mut f.nodes {
            ns.pending_acks.clear();
        }
        for d in &mut f.dsts {
            d.node_state.pending_acks.clear();
        }
        for q in &mut f.ack_origin {
            q.clear();
        }
    }

    pub fn progress(&self, index: usize) -> &MulticastProgress {
        &self.flows[index].progress
    }

    /// Source frontier: the earliest batch not yet ACKed by everyone.
    fn advance_src(&mut self, fi: usize, ctx: &mut Ctx<'_>) {
        let cfg = self.cfg;
        let f = &mut self.flows[fi];
        let frontier = f
            .dsts
            .iter()
            .map(|d| d.acked_through)
            .min()
            .expect("at least one destination");
        let next = (frontier + 1) as u32;
        if next > f.src_batch {
            f.src_batch = next;
            f.encoder = None;
            f.progress.acked_batches = next;
            if f.is_done(&cfg) {
                f.progress.done = true;
            } else {
                ctx.mark_backlogged(f.src);
            }
        }
    }
}

impl ErasedFlowAgent for MulticastMoreAgent {
    fn on_receive(&mut self, node: NodeId, frame: &Frame<DynPayload>, ctx: &mut Ctx<'_>) {
        let Some(payload) = frame.payload.downcast_ref::<MorePayload>() else {
            return;
        };
        let cfg = self.cfg;
        match payload {
            MorePayload::Data {
                flow,
                batch,
                packet,
                sender_rank: _,
            } => {
                let Some(fi) = self.flows.iter().position(|f| f.id == *flow) else {
                    return;
                };
                let f = &mut self.flows[fi];
                if f.is_done(&cfg) || !f.participates[node.0] {
                    return;
                }
                if node == f.src {
                    return;
                }
                let k_b = f.k_of(&cfg, *batch);
                let total_batches = f.n_batches(&cfg);
                let from = frame.from;

                // Destination role(s): feed this destination's own state.
                for (di, d) in f.dsts.iter_mut().enumerate() {
                    if d.dst != node {
                        continue;
                    }
                    let ns = &mut d.node_state;
                    if *batch < ns.current_batch {
                        continue;
                    }
                    ns.flush_to(*batch);
                    crate::agent::MoreAgent::ensure_batch_state(&cfg, ns, true, k_b);
                    let (innovative, rank_after) =
                        crate::agent::MoreAgent::absorb(ns, packet, ctx.rng());
                    if innovative && rank_after == k_b {
                        ns.pending_acks.push_back(*batch);
                        ns.flush_to(*batch + 1);
                        f.progress.delivered[di] += k_b;
                        if *batch + 1 == total_batches {
                            f.progress.completed_at[di] = Some(ctx.now());
                        }
                        ctx.mark_backlogged(node);
                    }
                }

                // Forwarder role: shared buffer + max-credit.
                let is_any_dst = f.dsts.iter().any(|d| d.dst == node);
                if !is_any_dst {
                    // Credit if the sender is upstream for ANY destination
                    // this node forwards toward.
                    let upstream_for_some =
                        f.dsts
                            .iter()
                            .any(|d| match (d.rank_of[node.0], d.rank_of[from.0]) {
                                (Some(mine), Some(theirs)) => theirs > mine,
                                _ => false,
                            });
                    let ns = &mut f.nodes[node.0];
                    if *batch < ns.current_batch {
                        return;
                    }
                    if *batch > ns.current_batch {
                        ns.flush_to(*batch);
                        f.acked_mask[node.0] = 0;
                    }
                    if upstream_for_some {
                        ns.credit += f.credit_of[node.0];
                    }
                    crate::agent::MoreAgent::ensure_batch_state(&cfg, ns, false, k_b);
                    let _ = crate::agent::MoreAgent::absorb(ns, packet, ctx.rng());
                    if ns.credit > 0.0 && ns.batch.rank() > 0 {
                        ctx.mark_backlogged(node);
                    }
                }
            }
            MorePayload::Ack {
                flow,
                batch,
                origin,
            } => {
                let Some(fi) = self.flows.iter().position(|f| f.id == *flow) else {
                    return;
                };
                let f = &mut self.flows[fi];
                if f.halted {
                    return; // a withdrawn flow relays nothing
                }
                let Some(oi) = f.dsts.iter().position(|d| d.dst == *origin) else {
                    return; // not one of our destinations
                };
                if frame.dst == Some(node) {
                    if node == f.src {
                        let d = &mut f.dsts[oi];
                        d.acked_through = d.acked_through.max(*batch as i64);
                        self.advance_src(fi, ctx);
                    } else {
                        // Relay, preserving the origin.
                        f.nodes[node.0].pending_acks.push_back(*batch);
                        f.ack_origin[node.0].push_back(*origin);
                        ctx.mark_backlogged(node);
                    }
                } else if f.participates[node.0] {
                    // Overhearing an ACK purges the batch once every
                    // destination has acked it (§3.3.4 generalized).
                    let full = f.full_mask();
                    if *batch == f.nodes[node.0].current_batch {
                        f.acked_mask[node.0] |= 1 << oi;
                        if f.acked_mask[node.0] == full {
                            f.nodes[node.0].flush_to(*batch + 1);
                            f.acked_mask[node.0] = 0;
                        }
                    }
                }
            }
        }
    }

    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, ctx: &mut Ctx<'_>) {
        match outcome {
            TxOutcome::Broadcast => {}
            TxOutcome::Acked { .. } => {
                // The oldest outstanding ACK made it; it was already
                // removed from its pending queue at poll time.
                if self.ack_outstanding[node.0].pop_front().is_some() {
                    ctx.mark_backlogged(node);
                }
            }
            TxOutcome::Failed { .. } => {
                if let Some((fi, di, batch, origin)) = self.ack_outstanding[node.0].pop_front() {
                    self.requeue_ack(node, fi, di, batch, origin);
                }
                ctx.mark_backlogged(node);
            }
        }
    }

    fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>> {
        let cfg = self.cfg;
        for fi in 0..self.flows.len() {
            // 1. ACKs first (destination-originated, then relayed). Each
            //    is popped from its pending queue as it is handed to the
            //    MAC; on_tx_done / on_queue_drop consult ack_outstanding.
            {
                let f = &self.flows[fi];
                let id = f.id;
                let mut picked = None;
                for (di, d) in f.dsts.iter().enumerate() {
                    if d.dst == node {
                        if let (Some(&batch), Some(nh)) =
                            (d.node_state.pending_acks.front(), f.ack_next_hop[node.0])
                        {
                            picked = Some((di, batch, nh));
                            break;
                        }
                    }
                }
                if let Some((di, batch, nh)) = picked {
                    self.flows[fi].dsts[di].node_state.pending_acks.pop_front();
                    self.ack_outstanding[node.0].push_back((fi, di, batch, node));
                    return Some(OutFrame {
                        dst: Some(nh),
                        bytes: ACK_BYTES,
                        bitrate: None,
                        flow: Some(id),
                        payload: self.slots.wrap(MorePayload::Ack {
                            flow: id,
                            batch,
                            origin: node,
                        }),
                    });
                }
                let f = &self.flows[fi];
                if let (Some(&batch), Some(nh)) =
                    (f.nodes[node.0].pending_acks.front(), f.ack_next_hop[node.0])
                {
                    let origin = *f.ack_origin[node.0]
                        .front()
                        .expect("origin tracked per queued ack");
                    self.flows[fi].nodes[node.0].pending_acks.pop_front();
                    self.flows[fi].ack_origin[node.0].pop_front();
                    self.ack_outstanding[node.0].push_back((fi, usize::MAX, batch, origin));
                    return Some(OutFrame {
                        dst: Some(nh),
                        bytes: ACK_BYTES,
                        bitrate: None,
                        flow: Some(id),
                        payload: self.slots.wrap(MorePayload::Ack {
                            flow: id,
                            batch,
                            origin,
                        }),
                    });
                }
            }
            // 2. Source data.
            let f = &mut self.flows[fi];
            if f.is_done(&cfg) {
                continue;
            }
            if node == f.src {
                let batch = f.src_batch;
                let k_b = f.k_of(&cfg, batch);
                let packet = if cfg.track_payloads {
                    if f.encoder.is_none() {
                        f.encoder = Some(
                            SourceEncoder::new(batch_natives(f.id, batch, k_b, cfg.packet_bytes))
                                .expect("valid batch"),
                        );
                    }
                    f.encoder.as_ref().expect("built").encode(ctx.rng())
                } else {
                    let mut buf = pool::acquire(k_b);
                    ctx.rng().fill(&mut buf[..]);
                    CodedPacket::from_flat(k_b, buf.freeze())
                };
                return Some(OutFrame {
                    dst: None,
                    bytes: cfg.header_bytes + k_b + cfg.packet_bytes,
                    bitrate: None,
                    flow: Some(f.id),
                    payload: self.slots.wrap(MorePayload::Data {
                        flow: f.id,
                        batch,
                        packet,
                        sender_rank: u32::MAX, // source is upstream of all
                    }),
                });
            }
            // 3. Forwarder data.
            let is_dst = f.dsts.iter().any(|d| d.dst == node);
            if is_dst || !f.participates[node.0] {
                continue;
            }
            let batch = f.nodes[node.0].current_batch;
            if batch >= f.n_batches(&cfg) || f.nodes[node.0].credit <= 0.0 {
                continue;
            }
            let k_b = f.k_of(&cfg, batch);
            let Some(packet) =
                crate::agent::MoreAgent::emit_from(&mut f.nodes[node.0], k_b, ctx.rng())
            else {
                continue;
            };
            f.nodes[node.0].credit -= 1.0;
            return Some(OutFrame {
                dst: None,
                bytes: cfg.header_bytes + k_b + cfg.packet_bytes,
                bitrate: None,
                flow: Some(f.id),
                payload: self.slots.wrap(MorePayload::Data {
                    flow: f.id,
                    batch,
                    packet,
                    sender_rank: 1, // forwarders sit between src and dsts
                }),
            });
        }
        None
    }

    fn on_queue_drop(
        &mut self,
        node: NodeId,
        payload: DynPayload,
        _cause: DropCause,
        ctx: &mut Ctx<'_>,
    ) {
        match take_payload(payload) {
            // ACKs are delivered reliably: retract the outstanding entry
            // and put the batch back where it was polled from.
            Some(MorePayload::Ack {
                flow,
                batch,
                origin,
            }) => {
                let removed = {
                    let flows = &self.flows;
                    let out = &mut self.ack_outstanding[node.0];
                    out.iter()
                        .rposition(|&(fi, _, b, o)| {
                            flows.get(fi).is_some_and(|f| f.id == flow) && b == batch && o == origin
                        })
                        .and_then(|pos| out.remove(pos))
                };
                if let Some((fi, di, b, o)) = removed {
                    self.requeue_ack(node, fi, di, b, o);
                    ctx.mark_backlogged(node);
                }
            }
            // A dropped coded packet is just an unheard broadcast.
            Some(MorePayload::Data { packet, .. }) => pool::release(packet.into_data()),
            None => {}
        }
    }

    fn recycle(&mut self, payload: DynPayload) {
        self.slots.recycle(payload);
    }

    fn flows_done(&self) -> bool {
        self.flows.iter().all(|f| f.progress.done || f.halted)
    }

    /// Multicast progress collapsed to the common view: `delivered` sums
    /// over destinations; `completed_at` is when the *last* destination
    /// finished (per-destination detail stays on
    /// [`MulticastMoreAgent::progress`]).
    fn flow_progress(&self, index: usize) -> mesh_sim::FlowProgressView {
        let p = self.progress(index);
        let completed_at = if p.completed_at.iter().all(|t| t.is_some()) {
            p.completed_at.iter().filter_map(|t| *t).max()
        } else {
            None
        };
        mesh_sim::FlowProgressView {
            delivered: p.delivered.iter().sum(),
            completed_at,
            done: p.done,
        }
    }

    fn supports_dynamic_flows(&self) -> bool {
        true
    }

    fn add_flow(&mut self, desc: &mesh_sim::FlowDesc) -> usize {
        let id = self.flows.iter().map(|f| f.id).max().unwrap_or(0) + 1;
        MulticastMoreAgent::add_flow(self, id, desc.src, desc.dsts.clone(), desc.packets)
    }

    fn end_flow(&mut self, index: usize) {
        self.halt_flow(index);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_sim::{SimConfig, Simulator, SEC};
    use mesh_topology::generate;

    fn run(dsts: Vec<NodeId>, packets: usize, seed: u64) -> (Simulator, usize) {
        let topo = generate::testbed(1);
        let mut agent = MulticastMoreAgent::new(topo.clone(), MoreConfig::default());
        let fi = agent.add_flow(1, NodeId(0), dsts, packets);
        let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), seed);
        sim.kick(NodeId(0));
        sim.run_until(900 * SEC, |a| a.flows_done());
        (sim, fi)
    }

    /// Per-destination progress, read from the concrete agent.
    fn progress(sim: &Simulator, fi: usize) -> &MulticastProgress {
        let agent: &MulticastMoreAgent = sim.agent.as_any().downcast_ref().expect("multicast");
        agent.progress(fi)
    }

    #[test]
    fn single_destination_degenerates_to_unicast() {
        let (sim, fi) = run(vec![NodeId(19)], 64, 1);
        let p = progress(&sim, fi);
        assert!(p.done, "single-dst multicast stuck");
        assert_eq!(p.delivered[0], 64);
    }

    #[test]
    fn two_destinations_both_complete() {
        let (sim, fi) = run(vec![NodeId(19), NodeId(12)], 64, 2);
        let p = progress(&sim, fi);
        assert!(p.done, "2-dst multicast stuck");
        assert_eq!(p.delivered, vec![64, 64]);
        assert!(p.completed_at.iter().all(|t| t.is_some()));
    }

    #[test]
    fn three_destinations_share_transmissions() {
        // Multicast should cost fewer transmissions than three unicasts.
        let (mc_sim, fi) = run(vec![NodeId(19), NodeId(12), NodeId(7)], 64, 3);
        assert!(mc_sim.agent.flow_progress(fi).done);
        let mc_tx = mc_sim.stats.total_tx();

        let topo = generate::testbed(1);
        let mut uni_tx = 0;
        for (i, d) in [NodeId(19), NodeId(12), NodeId(7)].iter().enumerate() {
            let mut agent = crate::agent::MoreAgent::new(topo.clone(), MoreConfig::default());
            let ufi = agent.add_flow(1, NodeId(0), *d, 64);
            let mut sim = Simulator::new(
                topo.clone(),
                SimConfig::default(),
                Box::new(agent),
                4 + i as u64,
            );
            sim.kick(NodeId(0));
            sim.run_until(900 * SEC, |a| a.flows_done());
            assert!(sim.agent.flow_progress(ufi).done);
            uni_tx += sim.stats.total_tx();
        }
        assert!(
            (mc_tx as f64) < 0.9 * uni_tx as f64,
            "multicast {mc_tx} tx should beat 3 unicasts {uni_tx} tx"
        );
    }

    #[test]
    #[should_panic(expected = "1..=64 destinations")]
    fn empty_destination_set_rejected() {
        let topo = generate::testbed(1);
        let mut agent = MulticastMoreAgent::new(topo, MoreConfig::default());
        agent.add_flow(1, NodeId(0), vec![], 32);
    }
}
