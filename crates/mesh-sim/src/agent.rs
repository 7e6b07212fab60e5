//! The protocol interface: the one object-safe agent trait the engine
//! drives, and the types it exchanges with protocols.
//!
//! MORE meets the 802.11 MAC only at "transmit opportunity"
//! ([`ErasedFlowAgent::poll_tx`]), "frame received"
//! ([`ErasedFlowAgent::on_receive`]) and "transmission done"
//! ([`ErasedFlowAgent::on_tx_done`]). [`ErasedFlowAgent`] is that
//! boundary, plus what a measurement harness reads ("are all transfers
//! finished?", "how far along is flow *i*?") and the mid-run flow
//! lifecycle hooks — the least common denominator of MORE, ExOR, Srcr,
//! and any future protocol. The engine, the protocol registry and every
//! harness hold agents as `Box<dyn ErasedFlowAgent>`.
//!
//! Payloads cross the boundary type-erased as [`DynPayload`]
//! (`Rc<dyn Any>`): a protocol wraps its payload in an `Rc` in `poll_tx`,
//! reads it with `downcast_ref` in `on_receive`, and takes it back in
//! `on_queue_drop` ([`take_payload`]) and `recycle` (`Rc::try_unwrap`),
//! so pooled buffers flow back to their pool across the type boundary.
//! Receivers borrow the frame, so no reception clones a payload.

use crate::queue::DropCause;
use crate::{Ctx, Frame, OutFrame, Time, TxOutcome};
use mesh_topology::NodeId;
use std::any::Any;
use std::rc::Rc;

/// A protocol payload with its concrete type erased.
///
/// `Rc`, not `Arc`: one simulation runs on one thread (parallel sweeps
/// parallelize across simulations, never within one).
pub type DynPayload = Rc<dyn Any>;

/// Takes ownership of a payload handed back by the engine as the agent's
/// concrete type `P`: the `Rc` is unwrapped when it is the last
/// reference and its contents cloned otherwise. `None` when the payload
/// is not a `P`.
///
/// This is the [`ErasedFlowAgent::on_queue_drop`] reclaim: a
/// queue-dropped frame never reached the air, so the engine's reference
/// is normally the sole one.
pub fn take_payload<P: Clone + 'static>(payload: DynPayload) -> Option<P> {
    let rc = payload.downcast::<P>().ok()?;
    Some(Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone()))
}

/// Description of a flow handed to a protocol mid-run (the engine-level
/// mirror of the scenario layer's `FlowSpec`, so `mesh-sim` stays free of
/// a dependency on the scenario crate).
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use]
pub struct FlowDesc {
    /// Source node.
    pub src: NodeId,
    /// One destination (unicast) or several (multicast).
    pub dsts: Vec<NodeId>,
    /// Packet budget of the transfer.
    pub packets: usize,
}

impl FlowDesc {
    /// A unicast flow description.
    pub fn unicast(src: NodeId, dst: NodeId, packets: usize) -> Self {
        FlowDesc {
            src,
            dsts: vec![dst],
            packets,
        }
    }
}

/// Per-flow progress as read by measurement harnesses, reduced to what
/// every protocol can report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowProgressView {
    /// Packets delivered end-to-end (for multicast: summed over
    /// destinations).
    pub delivered: usize,
    /// Simulated time the transfer finished, if it did.
    pub completed_at: Option<Time>,
    /// The protocol considers the flow fully resolved.
    pub done: bool,
}

/// A protocol running on every node of the simulated mesh — the one
/// agent trait, object-safe so the engine and the protocol registry can
/// hold any protocol as `Box<dyn ErasedFlowAgent>`.
///
/// One agent instance manages all nodes (the simulator passes the node id
/// to every callback); implementations must only use state local to that
/// node to keep the semantics of a distributed protocol.
pub trait ErasedFlowAgent {
    /// A frame was received by `node`. Agents read their own payload type
    /// with `frame.payload.downcast_ref::<P>()` and ignore frames that
    /// carry another type.
    fn on_receive(&mut self, node: NodeId, frame: &Frame<DynPayload>, ctx: &mut Ctx<'_>);

    /// A transmission by `node` finished with `outcome`.
    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, ctx: &mut Ctx<'_>);

    /// The MAC at `node` won a transmit opportunity; return a frame, its
    /// payload wrapped in an `Rc`, or `None` to go idle (the MAC will
    /// poll again after [`Ctx::mark_backlogged`]).
    ///
    /// With a bounded [`crate::queue::QueueSpec`] configured, the engine
    /// may poll several frames back-to-back to fill the node's transmit
    /// queue, so more than one polled frame can be outstanding at once.
    /// Outcomes are reported in poll order for frames that reach the
    /// air ([`ErasedFlowAgent::on_tx_done`]), while queue drops are
    /// reported out of band with the frame's payload
    /// ([`ErasedFlowAgent::on_queue_drop`]). Agents tracking in-flight
    /// frames must therefore keep a FIFO per node, not a single slot.
    fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>>;

    /// A timer set via [`Ctx::set_timer`] fired. The default does
    /// nothing.
    fn on_timer(&mut self, _node: NodeId, _token: u64, _ctx: &mut Ctx<'_>) {}

    /// A frame previously handed out by [`ErasedFlowAgent::poll_tx`] was
    /// dropped by `node`'s bounded transmit queue before reaching the
    /// air (never called under [`crate::queue::QueueSpec::Unbounded`]).
    /// The payload is handed back so the agent can account the loss and
    /// reclaim buffers ([`take_payload`]); the default treats it like an
    /// unheard broadcast and forwards the payload to
    /// [`ErasedFlowAgent::recycle`].
    fn on_queue_drop(
        &mut self,
        _node: NodeId,
        payload: DynPayload,
        _cause: DropCause,
        _ctx: &mut Ctx<'_>,
    ) {
        self.recycle(payload);
    }

    /// The simulator is done with a frame's payload: the broadcast left
    /// the air and every receiver has been served. If the agent's payload
    /// holds pooled buffers (refcounted packet data), this is the hook to
    /// recycle them. The agent owns the payload only when the engine
    /// held the last reference (`Rc::try_unwrap` succeeds); a receiver
    /// may have kept it alive. The default drops it.
    fn recycle(&mut self, _payload: DynPayload) {}

    /// Every flow resolved (the simulator's stop condition). Flows halted
    /// by [`ErasedFlowAgent::end_flow`] count as resolved.
    fn flows_done(&self) -> bool;

    /// Progress of the flow at `index` (the order flows were added).
    fn flow_progress(&self, index: usize) -> FlowProgressView;

    /// Whether this protocol implements the mid-run lifecycle hooks
    /// ([`ErasedFlowAgent::add_flow`] / [`ErasedFlowAgent::end_flow`]),
    /// through which [`crate::Simulator::run_until`] applies the traffic
    /// scheduled with [`crate::Simulator::schedule_traffic`]. Harnesses
    /// must check this before scheduling dynamic traffic. The default is
    /// `false`.
    fn supports_dynamic_flows(&self) -> bool {
        false
    }

    /// Installs `desc` as a new flow while the simulation is running and
    /// returns its index (flows are indexed in the order they were added,
    /// counting the ones installed at construction). The engine kicks the
    /// source's MAC afterwards.
    ///
    /// # Panics
    ///
    /// The default implementation panics: protocols opt in by overriding
    /// this together with [`ErasedFlowAgent::supports_dynamic_flows`].
    #[expect(
        clippy::panic,
        reason = "documented \"# Panics\" contract: protocols opt in to dynamic flows via supports_dynamic_flows"
    )]
    fn add_flow(&mut self, desc: &FlowDesc) -> usize {
        let _ = desc;
        panic!("this protocol does not support dynamic flow arrivals");
    }

    /// Halts the flow at `index`: the protocol must stop sourcing and
    /// forwarding it and must no longer count it against
    /// [`ErasedFlowAgent::flows_done`]. Progress measured so far stays
    /// readable.
    ///
    /// # Panics
    ///
    /// The default implementation panics: protocols opt in by overriding
    /// this together with [`ErasedFlowAgent::supports_dynamic_flows`].
    #[expect(
        clippy::panic,
        reason = "documented \"# Panics\" contract: protocols opt in to dynamic flows via supports_dynamic_flows"
    )]
    fn end_flow(&mut self, index: usize) {
        let _ = index;
        panic!("this protocol does not support dynamic flow departures");
    }

    /// Downcast access to the concrete agent (protocol-specific stats).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast access to the concrete agent.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}
