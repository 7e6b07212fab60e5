//! A deterministic discrete-event simulator of an 802.11(b) wireless mesh.
//!
//! This crate is the substrate substituting for the paper's 20-node
//! hardware testbed (thesis §4.1). It models exactly the mechanisms the
//! MORE/ExOR/Srcr comparison depends on:
//!
//! * **broadcast medium with independent per-receiver losses** — each
//!   transmission is delivered to each potential receiver by an
//!   independent Bernoulli draw at the link's *instantaneous* delivery
//!   probability, supplied by a pluggable [`channel::ChannelModel`]
//!   (the default [`channel::ChannelSpec::Static`] is the §5.3.1 network
//!   model; Gilbert–Elliott burst loss, log-normal shadowing, and slow
//!   time-varying drift ship alongside it);
//! * **CSMA/CA medium access** — DIFS + slotted random backoff, binary
//!   exponential contention window growth on unicast retries, MAC-level
//!   ACKs, and half-duplex radios;
//! * **carrier sense and spatial reuse** — nodes defer only to
//!   transmissions they can sense; distant hops of the same flow can fire
//!   concurrently, the effect behind Fig 4-4;
//! * **collisions with capture** — overlapping audible frames at a
//!   receiver destroy each other unless one is sufficiently stronger
//!   (§4.2.3: "the capture effect allows multiple transmissions to be
//!   correctly received even when the nodes are within radio range of both
//!   senders");
//! * **bit-rates and autorate** — 802.11b rates with per-frame selection
//!   and an Onoe-style autorate controller ([`autorate`]) for the Fig 4-6
//!   experiment.
//!
//! Protocols plug in through the [`NodeAgent`] trait: the simulator calls
//! `poll_tx` when a node's MAC wins a transmit opportunity, delivers
//! receptions through `on_receive`, reports transmit outcomes through
//! `on_tx_done`, and applies scheduled flow arrivals and departures
//! through `add_flow`/`end_flow`. Everything is deterministic in the seed.

#![deny(missing_docs)]

pub mod autorate;
pub mod channel;
pub mod erased;
pub mod medium;
pub mod queue;
pub mod simulator;
pub mod stats;

pub use autorate::OnoeAutorate;
pub use channel::{ChannelModel, ChannelSpec};
pub use erased::{DynPayload, Erased, ErasedFlowAgent, FlowAgent, FlowDesc, FlowProgressView};
pub use medium::Medium;
pub use queue::{AimdConfig, AimdPacer, DropCause, QueueDiscipline, QueueSpec, QueueVerdict};
pub use simulator::{Ctx, Simulator, TrafficAction};
pub use stats::SimStats;

use mesh_topology::NodeId;

/// Simulated time in microseconds.
pub type Time = u64;

/// The simulator tick — the smallest representable interval (1 µs).
/// Downstream rate math clamps elapsed windows to at least one tick so
/// a zero-width interval can never divide to a non-finite value.
pub const TICK: Time = 1;
/// One millisecond in [`Time`] units.
pub const MS: Time = 1_000;
/// One second in [`Time`] units.
pub const SEC: Time = 1_000_000;

/// 802.11b modulation rates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Bitrate {
    /// 1 Mb/s DSSS.
    B1,
    /// 2 Mb/s DSSS.
    B2,
    /// 5.5 Mb/s CCK — the paper's default data rate (§4.1.2).
    B5_5,
    /// 11 Mb/s CCK — used for the autorate comparison (§4.4).
    B11,
}

impl Bitrate {
    /// All rates, slowest first.
    pub const ALL: [Bitrate; 4] = [Bitrate::B1, Bitrate::B2, Bitrate::B5_5, Bitrate::B11];

    /// Rate in bits per microsecond (== Mb/s).
    pub fn bits_per_us(self) -> f64 {
        match self {
            Bitrate::B1 => 1.0,
            Bitrate::B2 => 2.0,
            Bitrate::B5_5 => 5.5,
            Bitrate::B11 => 11.0,
        }
    }

    /// Time on air for `bytes` of MPDU at this rate, including the 802.11b
    /// long-preamble PLCP (192 µs).
    pub fn airtime(self, bytes: usize) -> Time {
        let data_us = (bytes as f64 * 8.0 / self.bits_per_us()).ceil() as Time;
        192 + data_us
    }

    /// The next rate up, if any.
    pub fn up(self) -> Option<Bitrate> {
        match self {
            Bitrate::B1 => Some(Bitrate::B2),
            Bitrate::B2 => Some(Bitrate::B5_5),
            Bitrate::B5_5 => Some(Bitrate::B11),
            Bitrate::B11 => None,
        }
    }

    /// The next rate down, if any.
    pub fn down(self) -> Option<Bitrate> {
        match self {
            Bitrate::B1 => None,
            Bitrate::B2 => Some(Bitrate::B1),
            Bitrate::B5_5 => Some(Bitrate::B2),
            Bitrate::B11 => Some(Bitrate::B5_5),
        }
    }
}

/// MAC/PHY timing and behaviour parameters (802.11b defaults).
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Default data bit-rate.
    pub bitrate: Bitrate,
    /// Rate used for MAC ACK frames.
    pub ack_bitrate: Bitrate,
    /// Slot time (20 µs for 802.11b).
    pub slot_us: Time,
    /// SIFS (10 µs).
    pub sifs_us: Time,
    /// DIFS (50 µs).
    pub difs_us: Time,
    /// Minimum contention window (CWmin = 31).
    pub cw_min: u32,
    /// Maximum contention window (CWmax = 1023).
    pub cw_max: u32,
    /// MAC ACK frame size in bytes.
    pub mac_ack_bytes: usize,
    /// Unicast retry limit before the MAC gives up.
    pub retry_limit: u32,
    /// Capture: a frame survives a collision at a receiver when its
    /// delivery probability exceeds `capture_ratio ×` the strongest
    /// interferer's. Set very large to disable capture.
    pub capture_ratio: f64,
    /// Carrier-sense range in meters when positions are available;
    /// transmissions within this range of a node keep its MAC deferring
    /// even when no usable link exists (interference range > decode
    /// range).
    pub carrier_sense_range: f64,
    /// Interference range in meters: a transmission within this range of a
    /// receiver collides with frames arriving there.
    pub interference_range: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            bitrate: Bitrate::B5_5,
            ack_bitrate: Bitrate::B2,
            slot_us: 20,
            sifs_us: 10,
            difs_us: 50,
            cw_min: 31,
            cw_max: 1023,
            mac_ack_bytes: 14,
            retry_limit: 7,
            capture_ratio: 1.8,
            carrier_sense_range: 42.0,
            interference_range: 38.0,
        }
    }
}

/// What a protocol hands the MAC when polled for a transmission.
#[derive(Clone, Debug)]
pub struct OutFrame<P> {
    /// `None` → broadcast (no MAC ACK, no retries); `Some(next hop)` →
    /// unicast with ACK + retransmission.
    pub dst: Option<NodeId>,
    /// Total on-air MPDU size in bytes (payload + protocol headers).
    pub bytes: usize,
    /// Bit-rate override; `None` uses [`SimConfig::bitrate`].
    pub bitrate: Option<Bitrate>,
    /// The protocol-level flow this frame serves, when it serves one.
    /// A bounded [`queue::QueueDiscipline`] classifies frames by this id
    /// (CHOKe's fairness matching, per-flow drop counters, source
    /// pacing); `None` marks flow-less control traffic, which is bucketed
    /// per sending node and never matches a data flow.
    pub flow: Option<u32>,
    /// Protocol-defined contents, delivered verbatim to receivers.
    pub payload: P,
}

/// A frame as seen by a receiver.
#[derive(Clone, Debug)]
pub struct Frame<P> {
    /// The transmitting node.
    pub from: NodeId,
    /// Unicast destination, `None` for broadcast.
    pub dst: Option<NodeId>,
    /// On-air size in bytes.
    pub bytes: usize,
    /// Rate it was sent at.
    pub bitrate: Bitrate,
    /// Protocol payload.
    pub payload: P,
}

/// Outcome of a transmission, reported to the sender's agent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxOutcome {
    /// Broadcast completed (broadcasts are fire-and-forget).
    Broadcast,
    /// Unicast was MAC-acknowledged after `retries` retransmissions.
    Acked {
        /// Retransmissions before the ACK arrived.
        retries: u32,
    },
    /// Unicast exhausted the retry limit.
    Failed {
        /// Retransmissions attempted before giving up.
        retries: u32,
    },
}

/// A protocol running on every node of the simulated mesh.
///
/// One agent instance manages all nodes (the simulator passes the node id
/// to every callback); implementations must only use state local to that
/// node to keep the semantics of a distributed protocol.
pub trait NodeAgent {
    /// Protocol payload type carried in frames.
    type Payload: Clone;

    /// A frame was received by `node`.
    fn on_receive(&mut self, node: NodeId, frame: &Frame<Self::Payload>, ctx: &mut Ctx<'_>);

    /// A transmission by `node` finished with `outcome`.
    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, ctx: &mut Ctx<'_>);

    /// The MAC at `node` won a transmit opportunity; return a frame or
    /// `None` to go idle (the MAC will poll again after
    /// [`Ctx::mark_backlogged`]).
    ///
    /// With a bounded [`queue::QueueSpec`] configured, the engine may
    /// poll several frames back-to-back to fill the node's transmit
    /// queue, so more than one polled frame can be outstanding at once.
    /// Outcomes are reported in poll order for frames that reach the
    /// air ([`NodeAgent::on_tx_done`]), while queue drops are reported
    /// out of band with the frame's payload
    /// ([`NodeAgent::on_queue_drop`]). Agents tracking in-flight frames
    /// must therefore keep a FIFO per node, not a single slot.
    fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<Self::Payload>>;

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _node: NodeId, _token: u64, _ctx: &mut Ctx<'_>) {}

    /// A frame previously handed out by [`NodeAgent::poll_tx`] was
    /// dropped by `node`'s bounded transmit queue before reaching the
    /// air (never called under [`queue::QueueSpec::Unbounded`]). The
    /// payload is handed back so the agent can account the loss and
    /// reclaim buffers; the default treats it like an unheard broadcast
    /// and forwards the payload to [`NodeAgent::recycle`].
    fn on_queue_drop(
        &mut self,
        _node: NodeId,
        payload: Self::Payload,
        _cause: queue::DropCause,
        _ctx: &mut Ctx<'_>,
    ) {
        self.recycle(payload);
    }

    /// The simulator is done with a frame's payload: the broadcast left
    /// the air and every receiver has been served. If the agent's payload
    /// holds pooled buffers (refcounted packet data), this is the hook to
    /// recycle them — the payload handed in is the frame's own copy, so
    /// when no receiver kept a reference the agent gets the sole one back.
    /// The default drops it.
    fn recycle(&mut self, _payload: Self::Payload) {}

    /// Whether this protocol implements the mid-run lifecycle hooks
    /// ([`NodeAgent::add_flow`] / [`NodeAgent::end_flow`]), through which
    /// [`Simulator::run_until`] applies the traffic scheduled with
    /// [`Simulator::schedule_traffic`]. Harnesses must check this before
    /// scheduling dynamic traffic.
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
    /// this together with [`NodeAgent::supports_dynamic_flows`].
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
    /// [`FlowAgent::flows_done`]. Progress measured so far stays readable.
    ///
    /// # Panics
    ///
    /// The default implementation panics: protocols opt in by overriding
    /// this together with [`NodeAgent::supports_dynamic_flows`].
    #[expect(
        clippy::panic,
        reason = "documented \"# Panics\" contract: protocols opt in to dynamic flows via supports_dynamic_flows"
    )]
    fn end_flow(&mut self, index: usize) {
        let _ = index;
        panic!("this protocol does not support dynamic flow departures");
    }
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn airtime_math() {
        // 1500 B at 11 Mb/s: 192 + ceil(12000/11) = 192 + 1091 = 1283 µs.
        assert_eq!(Bitrate::B11.airtime(1500), 1283);
        // At 1 Mb/s: 192 + 12000 = 12192 µs — roughly 10× longer, the
        // §4.4 observation about lowest-rate transmissions hogging the
        // medium.
        assert_eq!(Bitrate::B1.airtime(1500), 12192);
        let ratio = Bitrate::B1.airtime(1500) as f64 / Bitrate::B11.airtime(1500) as f64;
        assert!(ratio > 9.0 && ratio < 10.0);
    }

    #[test]
    fn rate_ladder() {
        assert_eq!(Bitrate::B1.up(), Some(Bitrate::B2));
        assert_eq!(Bitrate::B11.up(), None);
        assert_eq!(Bitrate::B11.down(), Some(Bitrate::B5_5));
        assert_eq!(Bitrate::B1.down(), None);
        // Ladder is consistent.
        for r in Bitrate::ALL {
            if let Some(u) = r.up() {
                assert_eq!(u.down(), Some(r));
            }
        }
    }

    #[test]
    fn default_config_is_802_11b() {
        let c = SimConfig::default();
        assert_eq!(c.slot_us, 20);
        assert_eq!(c.sifs_us, 10);
        assert_eq!(c.difs_us, 50);
        assert_eq!(c.cw_min, 31);
        assert_eq!(c.bitrate, Bitrate::B5_5);
    }
}
