//! The MORE node agent: source / forwarder / destination control flow
//! (thesis §3.3.3, Fig 3-2) over the simulator's MAC callbacks.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::unreachable,
    reason = "per-batch vectors are sized k_b when a batch opens and row indices are bounded by the tracker's rank checks; decoded-batch verification asserts a deterministic-testfile invariant."
)]

use crate::flow::{BatchState, FlowId, FlowProgress, MoreFlow, NodeFlowState};
use crate::header::{MorePayload, PayloadSlots};
use crate::{native_byte, ForwarderMetric, MoreConfig};
use mesh_metrics::etx::LinkCost;
use mesh_metrics::{EtxTable, ForwarderPlan};
use mesh_sim::queue::DropCause;
use mesh_sim::{take_payload, Ctx, DynPayload, ErasedFlowAgent, Frame, OutFrame, TxOutcome};
use mesh_topology::{NodeId, Topology};
use rand::Rng;
use rlnc::{pool, CodedPacket, Decoder, ForwarderBuffer, InnovationTracker, SourceEncoder};
use std::any::Any;
use std::collections::VecDeque;

/// Size of a batch-ACK frame on the air (type + ids + MAC framing).
const ACK_BYTES: usize = 30;

/// MORE for a whole mesh: one agent instance drives every node, keeping
/// strictly per-node state per flow (§3.3.2).
pub struct MoreAgent {
    cfg: MoreConfig,
    topo: Topology,
    flows: Vec<MoreFlow>,
    /// Per-node round-robin cursor over flows (§3.3.3: "the node selects a
    /// backlogged flow by round-robin").
    rr: Vec<usize>,
    /// Batch ACKs each node has handed to the MAC, oldest first, as
    /// `(flow index, batch)`. A FIFO rather than a slot because a
    /// bounded transmit queue may poll several frames before the first
    /// outcome arrives; outcomes come back in poll order.
    ack_outstanding: Vec<VecDeque<(usize, u32)>>,
    /// Reused `Rc` allocations for outgoing payloads.
    slots: PayloadSlots,
}

impl MoreAgent {
    /// An agent with no flows yet.
    pub fn new(topo: Topology, cfg: MoreConfig) -> Self {
        let n = topo.n();
        MoreAgent {
            cfg,
            topo,
            flows: Vec::new(),
            rr: vec![0; n],
            ack_outstanding: vec![VecDeque::new(); n],
            slots: PayloadSlots::default(),
        }
    }

    /// Registers a `src → dst` transfer of `total_packets` native packets.
    ///
    /// Computes the ETX tables, the Algorithm-1 forwarder plan with
    /// pruning, and the reverse path for batch ACKs. Returns the flow's
    /// index for [`Self::progress`]. Callers must `kick(src)` on the
    /// simulator to start the source's MAC.
    pub fn add_flow(
        &mut self,
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        total_packets: usize,
    ) -> usize {
        assert!(total_packets > 0, "empty transfer");
        let n = self.topo.n();
        // Forwarder ordering metric: ETX in the shipped protocol, EOTX
        // for the §5.7 variant.
        let metric: Vec<f64> = match self.cfg.metric {
            ForwarderMetric::Etx => EtxTable::compute(&self.topo, dst, LinkCost::Forward)
                .distances()
                .to_vec(),
            ForwarderMetric::Eotx => mesh_metrics::EotxTable::compute(&self.topo, dst)
                .distances()
                .to_vec(),
        };
        let plan = ForwarderPlan::compute(&self.topo, src, dst, &metric, &self.cfg.plan);
        let mut rank_of = vec![None; n];
        for (r, &node) in plan.order.iter().enumerate() {
            rank_of[node.0] = Some(r as u32);
        }
        // ACKs go to the source over its ETX shortest path (§3.2.2);
        // they are reliable unicasts, so the path metric accounts for the
        // MAC ACK's reverse trip.
        let to_src = EtxTable::compute(&self.topo, src, LinkCost::ForwardReverse);
        let ack_next_hop = (0..n).map(|i| to_src.next_hop(NodeId(i))).collect();
        let flow = MoreFlow {
            id,
            src,
            dst,
            total_packets,
            plan,
            rank_of,
            ack_next_hop,
            nodes: (0..n).map(|_| NodeFlowState::new()).collect(),
            src_batch: 0,
            encoder: None,
            progress: FlowProgress::default(),
            dst_completed: None,
            halted: false,
        };
        self.flows.push(flow);
        self.flows.len() - 1
    }

    /// Withdraws flow `index` mid-run: the source and every forwarder go
    /// silent on it, queued batch ACKs are dropped, and the flow counts as
    /// resolved. Measured progress stays readable.
    pub fn halt_flow(&mut self, index: usize) {
        let f = &mut self.flows[index];
        f.halted = true;
        for ns in &mut f.nodes {
            ns.pending_acks.clear();
        }
    }

    /// Progress of flow `index` (as returned by [`Self::add_flow`]).
    pub fn progress(&self, index: usize) -> &FlowProgress {
        &self.flows[index].progress
    }

    /// The flow list (read-only, for harness inspection).
    pub fn flows(&self) -> &[MoreFlow] {
        &self.flows
    }

    fn flow_index(&self, id: FlowId) -> Option<usize> {
        self.flows.iter().position(|f| f.id == id)
    }

    /// Makes sure the node's batch state matches its role and batch K.
    pub(crate) fn ensure_batch_state(
        cfg: &MoreConfig,
        ns: &mut NodeFlowState,
        is_dst: bool,
        k: usize,
    ) {
        let needs_init = matches!(ns.batch, BatchState::Empty);
        if !needs_init {
            return;
        }
        ns.batch = match (is_dst, cfg.track_payloads) {
            (true, true) => BatchState::DstDecoder(Decoder::new(k, cfg.packet_bytes)),
            (true, false) => BatchState::DstTracker(InnovationTracker::new(k)),
            (false, true) => BatchState::Coded(ForwarderBuffer::new(k, cfg.packet_bytes)),
            (false, false) => BatchState::Tracker(InnovationTracker::new(k)),
        };
    }

    /// Feeds a received coded packet into the node's batch state — a
    /// zero-copy hand-off: coded stores bump the refcount on the frame's
    /// flat buffer, tracker stores read the vector head in place. Returns
    /// `(innovative, rank_after)`.
    pub(crate) fn absorb(
        ns: &mut NodeFlowState,
        p: &CodedPacket,
        rng: &mut impl Rng,
    ) -> (bool, usize) {
        match &mut ns.batch {
            BatchState::Empty => unreachable!("batch state initialized before absorb"),
            BatchState::Tracker(t) | BatchState::DstTracker(t) => {
                let innov = t.absorb(p.vector());
                (innov, t.rank())
            }
            BatchState::Coded(b) => {
                let innov = b.receive(p, rng);
                (innov, b.rank())
            }
            BatchState::DstDecoder(d) => {
                let innov = d.receive(p);
                (innov, d.rank())
            }
        }
    }

    /// A forwarder's outgoing coded packet: random combination of what it
    /// holds (pre-coded when payloads are tracked).
    pub(crate) fn emit_from(
        ns: &mut NodeFlowState,
        k: usize,
        rng: &mut impl Rng,
    ) -> Option<CodedPacket> {
        match &mut ns.batch {
            BatchState::Empty => None,
            BatchState::Tracker(t) => {
                if t.rank() == 0 {
                    return None;
                }
                // One coefficient per stored row, drawn in row order (the
                // RNG stream is part of determinism), combined straight
                // into a pooled vector-only flat buffer.
                // xtask: allow(pool_pairing) -- ownership transfer: the buffer is frozen into the emitted CodedPacket and recycled downstream when the packet is consumed
                let mut buf = pool::acquire(k);
                rlnc::axpy_chunked(
                    &mut buf,
                    (0..k).filter_map(|i| t.row(i)).map(|row| {
                        let c = gf256::Gf256(rng.gen_range(1..=255u8));
                        (c, row)
                    }),
                );
                Some(CodedPacket::from_flat(k, buf.freeze()))
            }
            BatchState::Coded(b) => b.emit(rng),
            // The destination never forwards data.
            BatchState::DstTracker(_) | BatchState::DstDecoder(_) => None,
        }
    }

    /// Verifies a fully decoded batch against the deterministic test file
    /// in place — no reference batch is materialized.
    fn verify_decoded(d: &Decoder, flow: u32, batch: u32, k_b: usize) {
        for i in 0..k_b {
            let native = d.native(i).expect("rank K reached");
            let seed = native_byte(flow, batch, i);
            let ok = native
                .iter()
                .enumerate()
                .all(|(b, &byte)| byte == seed.wrapping_add((b % 251) as u8));
            assert!(
                ok,
                "decoded batch corrupt (flow {flow} batch {batch} native {i})"
            );
        }
    }
}

impl ErasedFlowAgent for MoreAgent {
    fn on_receive(&mut self, node: NodeId, frame: &Frame<DynPayload>, ctx: &mut Ctx<'_>) {
        let Some(payload) = frame.payload.downcast_ref::<MorePayload>() else {
            return;
        };
        match payload {
            MorePayload::Data {
                flow,
                batch,
                packet,
                sender_rank,
            } => {
                let Some(fi) = self.flow_index(*flow) else {
                    return;
                };
                let cfg = self.cfg;
                let f = &mut self.flows[fi];
                // "When a node hears a packet, it checks whether it is in
                // the packet's forwarder list" (§3.1.2).
                let Some(rank) = f.rank_of[node.0] else {
                    return;
                };
                if f.is_done(&cfg) {
                    return;
                }
                let is_dst = node == f.dst;
                let is_src = node == f.src;
                let k_b = f.k_of(&cfg, *batch);
                let total_batches = f.n_batches(&cfg);
                let ns = &mut f.nodes[node.0];
                if *batch < ns.current_batch {
                    return; // stale batch (§3.3.3)
                }
                ns.flush_to(*batch);
                // Credit: "for each packet arrival from a node with higher
                // ETX, the forwarder increments the counter" (§3.3.2).
                if !is_src && !is_dst && *sender_rank > rank {
                    ns.credit += f.plan.tx_credit[node.0];
                }
                if is_src {
                    return; // the source only pumps; it stores nothing
                }
                Self::ensure_batch_state(&cfg, ns, is_dst, k_b);
                let (innovative, rank_after) = Self::absorb(ns, packet, ctx.rng());
                if is_dst {
                    if innovative && rank_after == k_b {
                        // Full batch: ACK before decoding (§3.2.2).
                        if let BatchState::DstDecoder(d) = &ns.batch {
                            Self::verify_decoded(d, *flow, *batch, k_b);
                        }
                        ns.pending_acks.push_back(*batch);
                        ns.flush_to(*batch + 1);
                        let p = &mut f.progress;
                        p.decoded_batches += 1;
                        p.delivered_packets += k_b;
                        f.dst_completed = Some(*batch);
                        if *batch + 1 == total_batches {
                            p.completed_at = Some(ctx.now());
                        }
                        ctx.mark_backlogged(node);
                    }
                } else if ns.credit > 0.0 && ns.batch.rank() > 0 {
                    // "The arrival of this new packet triggers the node to
                    // broadcast" — via the MAC, when it allows (§3.1.2).
                    ctx.mark_backlogged(node);
                }
            }
            MorePayload::Ack { flow, batch, .. } => {
                let Some(fi) = self.flow_index(*flow) else {
                    return;
                };
                let cfg = self.cfg;
                let f = &mut self.flows[fi];
                if f.halted {
                    return; // a withdrawn flow relays nothing
                }
                // Overhearers purge the acked batch (§3.3.4).
                if f.rank_of[node.0].is_some() {
                    f.nodes[node.0].flush_to(*batch + 1);
                }
                if frame.dst != Some(node) {
                    return;
                }
                if node == f.src {
                    // Source advances to the next batch (§3.2.2).
                    if *batch >= f.src_batch {
                        f.src_batch = *batch + 1;
                        f.encoder = None;
                        f.progress.acked_batches = f.src_batch;
                        if f.is_done(&cfg) {
                            f.progress.done = true;
                        } else {
                            ctx.mark_backlogged(node);
                        }
                    }
                } else {
                    // Relay the ACK toward the source, prioritized.
                    f.nodes[node.0].pending_acks.push_back(*batch);
                    ctx.mark_backlogged(node);
                }
            }
        }
    }

    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, ctx: &mut Ctx<'_>) {
        match outcome {
            TxOutcome::Broadcast => {}
            TxOutcome::Acked { .. } => {
                // The oldest outstanding ACK made it; it was already
                // removed from pending_acks at poll time.
                self.ack_outstanding[node.0].pop_front();
            }
            TxOutcome::Failed { .. } => {
                // Batch ACKs are delivered reliably: re-queue at the front
                // and try again (§3.2.2 "reliably delivered using local
                // retransmission at each hop").
                if let Some((fi, batch)) = self.ack_outstanding[node.0].pop_front() {
                    if !self.flows[fi].halted {
                        self.flows[fi].nodes[node.0].pending_acks.push_front(batch);
                    }
                }
                ctx.mark_backlogged(node);
            }
        }
    }

    fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>> {
        // 1. Batch ACKs first: "ACKs are given priority over data packets
        //    at every node" (§3.1.3).
        for fi in 0..self.flows.len() {
            let f = &self.flows[fi];
            let ns = &f.nodes[node.0];
            if let Some(&batch) = ns.pending_acks.front() {
                if node == f.src {
                    // Shouldn't happen; drop defensively.
                    self.flows[fi].nodes[node.0].pending_acks.pop_front();
                    continue;
                }
                let Some(nh) = f.ack_next_hop[node.0] else {
                    self.flows[fi].nodes[node.0].pending_acks.pop_front();
                    continue;
                };
                let (id, origin) = (f.id, f.dst);
                // Popped now (not on MAC ack): once handed to the MAC the
                // frame's fate comes back via on_tx_done/on_queue_drop,
                // both of which consult ack_outstanding.
                self.flows[fi].nodes[node.0].pending_acks.pop_front();
                self.ack_outstanding[node.0].push_back((fi, batch));
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

        // 2. Data, round-robin across flows (§3.3.3).
        let nf = self.flows.len();
        if nf == 0 {
            return None;
        }
        let cfg = self.cfg;
        let start = self.rr[node.0] % nf;
        for step in 0..nf {
            let fi = (start + step) % nf;
            let f = &mut self.flows[fi];
            if f.is_done(&cfg) {
                continue;
            }
            let Some(rank) = f.rank_of[node.0] else {
                continue;
            };
            if node == f.src {
                let batch = f.src_batch;
                let k_b = f.k_of(&cfg, batch);
                let packet = if cfg.track_payloads {
                    if f.encoder.is_none() {
                        let natives = crate::batch_natives(f.id, batch, k_b, cfg.packet_bytes);
                        f.encoder = Some(SourceEncoder::new(natives).expect("valid batch"));
                    }
                    f.encoder.as_ref().expect("just built").encode(ctx.rng())
                } else {
                    // Vector-only packet: random coefficients drawn into a
                    // pooled flat buffer with an empty payload region.
                    let mut buf = pool::acquire(k_b);
                    ctx.rng().fill(&mut buf[..]);
                    CodedPacket::from_flat(k_b, buf.freeze())
                };
                if f.dst_completed.is_some_and(|c| c >= batch) {
                    f.progress.spurious_tx += 1;
                }
                self.rr[node.0] = fi + 1;
                return Some(OutFrame {
                    dst: None,
                    bytes: cfg.header_bytes + k_b + cfg.packet_bytes,
                    bitrate: None,
                    flow: Some(f.id),
                    payload: self.slots.wrap(MorePayload::Data {
                        flow: f.id,
                        batch,
                        packet,
                        sender_rank: rank,
                    }),
                });
            }
            if node == f.dst {
                continue;
            }
            // Forwarder: positive credit and something to say (§3.2.1).
            let batch = f.nodes[node.0].current_batch;
            if batch >= f.n_batches(&cfg) {
                continue;
            }
            let k_b = f.k_of(&cfg, batch);
            if f.nodes[node.0].credit <= 0.0 {
                continue;
            }
            let Some(packet) = Self::emit_from(&mut f.nodes[node.0], k_b, ctx.rng()) else {
                continue;
            };
            f.nodes[node.0].credit -= 1.0;
            if f.dst_completed.is_some_and(|c| c >= batch) {
                f.progress.spurious_tx += 1;
            }
            self.rr[node.0] = fi + 1;
            return Some(OutFrame {
                dst: None,
                bytes: cfg.header_bytes + k_b + cfg.packet_bytes,
                bitrate: None,
                flow: Some(f.id),
                payload: self.slots.wrap(MorePayload::Data {
                    flow: f.id,
                    batch,
                    packet,
                    sender_rank: rank,
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
            // A dropped batch ACK must not be lost: retract the
            // outstanding entry and put the batch back at the head of the
            // pending queue (§3.2.2 reliable delivery).
            Some(MorePayload::Ack { flow, batch, .. }) => {
                if let Some(fi) = self.flow_index(flow) {
                    let out = &mut self.ack_outstanding[node.0];
                    if let Some(pos) = out.iter().rposition(|&(i, b)| i == fi && b == batch) {
                        out.remove(pos);
                    }
                    if !self.flows[fi].halted {
                        self.flows[fi].nodes[node.0].pending_acks.push_front(batch);
                        ctx.mark_backlogged(node);
                    }
                }
            }
            // A dropped coded packet is just an unheard broadcast; return
            // its flat buffer to the pool.
            Some(MorePayload::Data { packet, .. }) => pool::release(packet.into_data()),
            None => {}
        }
    }

    fn recycle(&mut self, payload: DynPayload) {
        self.slots.recycle(payload);
    }

    fn flows_done(&self) -> bool {
        self.flows.iter().all(|f| f.is_done(&self.cfg))
    }

    fn flow_progress(&self, index: usize) -> mesh_sim::FlowProgressView {
        let p = self.progress(index);
        mesh_sim::FlowProgressView {
            delivered: p.delivered_packets,
            completed_at: p.completed_at,
            done: p.done,
        }
    }

    fn supports_dynamic_flows(&self) -> bool {
        true
    }

    fn add_flow(&mut self, desc: &mesh_sim::FlowDesc) -> usize {
        assert_eq!(
            desc.dsts.len(),
            1,
            "unicast MORE cannot accept a multicast arrival"
        );
        let id = self.flows.iter().map(|f| f.id).max().unwrap_or(0) + 1;
        MoreAgent::add_flow(self, id, desc.src, desc.dsts[0], desc.packets)
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

    fn run_flow(
        topo: Topology,
        cfg: MoreConfig,
        src: usize,
        dst: usize,
        packets: usize,
        seed: u64,
    ) -> (Simulator, usize) {
        let mut agent = MoreAgent::new(topo.clone(), cfg);
        let fi = agent.add_flow(1, NodeId(src), NodeId(dst), packets);
        let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), seed);
        sim.kick(NodeId(src));
        sim.run_until(600 * SEC, |a| a.flows_done());
        (sim, fi)
    }

    /// The concrete agent behind the simulator, for MORE-specific stats.
    fn more(sim: &Simulator) -> &MoreAgent {
        sim.agent.as_any().downcast_ref().expect("a MoreAgent")
    }

    #[test]
    fn one_hop_transfer_completes() {
        let topo = generate::line(1, 0.8, 0.0, 20.0);
        let (sim, fi) = run_flow(topo, MoreConfig::default(), 0, 1, 64, 1);
        let p = sim.agent.flow_progress(fi);
        assert!(p.done, "flow did not finish");
        assert_eq!(p.delivered, 64);
        assert_eq!(more(&sim).progress(fi).decoded_batches, 2);
    }

    #[test]
    fn relay_chain_transfer_completes() {
        let topo = generate::line(3, 0.7, 0.3, 25.0);
        let (sim, fi) = run_flow(topo, MoreConfig::default(), 0, 3, 32, 2);
        let p = sim.agent.flow_progress(fi);
        assert!(p.done);
        assert_eq!(p.delivered, 32);
    }

    #[test]
    fn payload_tracking_decodes_correctly() {
        // track_payloads=true makes the destination assert decoded bytes
        // match the generated file — the assert inside on_receive.
        let topo = generate::line(2, 0.75, 0.2, 25.0);
        let cfg = MoreConfig {
            k: 8,
            packet_bytes: 256,
            track_payloads: true,
            ..MoreConfig::default()
        };
        let (sim, fi) = run_flow(topo, cfg, 0, 2, 24, 3);
        assert!(sim.agent.flow_progress(fi).done);
        assert_eq!(sim.agent.flow_progress(fi).delivered, 24);
    }

    #[test]
    fn short_final_batch() {
        let topo = generate::line(1, 0.9, 0.0, 20.0);
        let cfg = MoreConfig {
            k: 32,
            ..MoreConfig::default()
        };
        let (sim, fi) = run_flow(topo, cfg, 0, 1, 40, 4); // 32 + 8
        let p = sim.agent.flow_progress(fi);
        assert!(p.done);
        assert_eq!(p.delivered, 40);
        assert_eq!(more(&sim).progress(fi).decoded_batches, 2);
    }

    #[test]
    fn testbed_transfer_and_stopping_rule() {
        let topo = generate::testbed(1);
        let (mut sim, fi) = run_flow(topo, MoreConfig::default(), 0, 19, 64, 5);
        let p = sim.agent.flow_progress(fi);
        assert!(p.done, "testbed flow stuck");
        assert_eq!(p.delivered, 64);
        // Stopping rule: after completion, (almost) no more data frames.
        let tx_before = sim.stats.total_tx();
        let t = sim.now();
        sim.run_until(t + 2 * SEC, |_| false);
        let extra = sim.stats.total_tx() - tx_before;
        assert!(
            extra <= 2,
            "{extra} transmissions after the flow finished — stopping rule broken"
        );
    }

    #[test]
    fn spurious_transmissions_are_bounded() {
        let topo = generate::testbed(2);
        let (sim, fi) = run_flow(topo, MoreConfig::default(), 3, 16, 96, 6);
        let p = more(&sim).progress(fi);
        assert!(p.done);
        // A few spurious sends happen between batch completion and the ACK
        // reaching everyone; they must stay a small fraction of the total.
        let total = sim.stats.total_tx();
        assert!(
            (p.spurious_tx as f64) < 0.25 * total as f64,
            "spurious {} of {total}",
            p.spurious_tx
        );
    }

    #[test]
    fn multiflow_roundrobin_completes_both() {
        let topo = generate::testbed(3);
        let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
        let f1 = agent.add_flow(1, NodeId(0), NodeId(19), 32);
        let f2 = agent.add_flow(2, NodeId(5), NodeId(12), 32);
        let mut sim = Simulator::new(topo, SimConfig::default(), Box::new(agent), 7);
        sim.kick(NodeId(0));
        sim.kick(NodeId(5));
        sim.run_until(600 * SEC, |a| a.flows_done());
        assert!(sim.agent.flow_progress(f1).done, "flow 1 stuck");
        assert!(sim.agent.flow_progress(f2).done, "flow 2 stuck");
        assert_eq!(sim.agent.flow_progress(f1).delivered, 32);
        assert_eq!(sim.agent.flow_progress(f2).delivered, 32);
    }

    #[test]
    fn pruning_limits_participants() {
        let topo = generate::testbed(4);
        let agent = {
            let mut a = MoreAgent::new(topo.clone(), MoreConfig::default());
            a.add_flow(1, NodeId(0), NodeId(19), 32);
            a
        };
        let f = &agent.flows()[0];
        assert!(
            f.plan.forwarders().len() <= 10,
            "forwarder cap exceeded: {}",
            f.plan.forwarders().len()
        );
    }
}
