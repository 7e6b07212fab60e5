//! Umbrella crate for the MORE reproduction.
//!
//! Re-exports the member crates under stable names so examples, integration
//! tests, and downstream users can depend on a single crate:
//!
//! * [`gf256`] — GF(2⁸) arithmetic with the paper's 64 KiB lookup table.
//! * [`rlnc`] — random linear network coding (encoder, tracker, decoder).
//! * [`topology`] — mesh topologies and the 20-node testbed generator.
//! * [`metrics`] — ETX/EOTX metrics and the Chapter-5 flow algorithms.
//! * [`sim`] — the deterministic discrete-event 802.11 simulator.
//! * [`more`] — the MORE protocol (the paper's contribution).
//! * [`baselines`] — Srcr and ExOR, the protocols MORE is compared against.
//! * [`scenario`] — the composable scenario builder and pluggable
//!   protocol registry (declare topology + traffic + protocols + sweeps,
//!   run the grid in parallel, read structured records).

// The package's lint table only denies unsafe code (its alloc-budget
// test needs a counting allocator); the library itself forbids it.
#![forbid(unsafe_code)]

pub use baselines;
pub use gf256;
pub use mesh_metrics as metrics;
pub use mesh_sim as sim;
pub use mesh_topology as topology;
pub use more_core as more;
pub use more_scenario as scenario;
pub use rlnc;
