//! The protocols MORE is evaluated against (thesis §4.1.1):
//!
//! * [`srcr`] — Srcr, "a state-of-the-art best path routing protocol for
//!   wireless mesh networks": Dijkstra over ETX link weights, unicast
//!   hop-by-hop forwarding with 802.11 retransmission, 50-packet queues,
//!   optionally driven by Onoe autorate (§4.4).
//! * [`exor`] — ExOR, "the current opportunistic routing protocol":
//!   batches, per-packet batch maps, and the strict one-transmitter-at-a-
//!   time forwarder schedule in ETX order that ties the MAC to routing —
//!   the structure MORE trades for randomness.
//!
//! Both implement [`mesh_sim::ErasedFlowAgent`] so every figure runs all
//! three protocols over the identical medium, topology, and seed
//! discipline.

pub mod exor;
pub mod srcr;

pub use exor::{ExorAgent, ExorConfig};
pub use srcr::{SrcrAgent, SrcrConfig};
