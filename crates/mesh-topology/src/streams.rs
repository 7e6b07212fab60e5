//! The canonical RNG stream registry.
//!
//! Every independent randomness consumer in the workspace derives its
//! ChaCha8 stream as `seed ^ <NAME>_STREAM`, where the constant lives
//! here and nowhere else. Centralizing the constants makes three
//! properties auditable at a glance — and `xtask`'s `stream_registry`
//! lint enforces them mechanically:
//!
//! 1. **uniqueness of names**: no two subsystems can claim the same
//!    stream constant;
//! 2. **uniqueness of values**: two streams with the same XOR constant
//!    would collapse into one RNG sequence, silently correlating draws
//!    that the determinism contract promises are independent;
//! 3. **registration**: a `*_STREAM` constant defined anywhere else in
//!    the workspace is a lint finding, so new streams must pass through
//!    this file (and its review) to exist.
//!
//! Consumers import each constant from this module, its one public
//! path; moving the definitions here changed no values and therefore
//! no RNG byte-stream.

// xtask: stream-registry

/// XOR'd into the run seed to give channel evolution its own ChaCha8
/// stream, so model-internal draws never perturb the engine's main
/// stream (which is what keeps static runs byte-identical to the
/// pre-channel engine). Consumed by `mesh_sim::channel`.
pub const CHANNEL_STREAM: u64 = 0xC4A2_2E1C_51A7_0DE1;

/// XOR'd into the seed of `LinkEstimator::estimate_live` so probe draws
/// get their own ChaCha8 stream: callers pass the *run* seed (the probe
/// window previews that run's channel), and without the separation the
/// probe's Bernoulli draws would be bit-identical to the run's early
/// MAC/loss draws, correlating measured beliefs with actual outcomes.
pub const PROBE_STREAM: u64 = 0x9B0B_E57A_11E5_7331;

/// XOR'd into the run seed to give workload randomness its own ChaCha8
/// stream (the same device `mesh_sim::channel` uses for loss-process
/// evolution), so traffic draws never perturb the engine's main stream.
/// Consumed by `scenario::traffic`.
pub const TRAFFIC_STREAM: u64 = 0x7AFF_1C00_5EED_F10B;

/// XOR'd into the run seed to give queue-discipline randomness (RED's
/// marking draws, CHOKe's random peek) its own ChaCha8 stream, so AQM
/// decisions never perturb the engine's main stream — which is what
/// keeps `QueueSpec::Unbounded` runs byte-identical to the pre-queue
/// engine. Consumed by `mesh_sim::queue`.
pub const QUEUE_STREAM: u64 = 0x51EE_7AB1_E0DD_90C3;

/// Stream constant decorrelating testbed-generation retries from the
/// run seed (`crate::generate::testbed`).
pub const TESTBED_ATTEMPT_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Stream constant decorrelating random-mesh retries from the run seed
/// (`crate::generate::random_mesh`).
pub const MESH_ATTEMPT_STREAM: u64 = 0xD1B5_4A32_D192_ED03;

/// XOR'd into the seed of the city-scale generator's node-placement RNG
/// (`crate::generate::city_mesh`), so scatter draws stay decorrelated
/// from the per-pair link draws below and from every run-seed consumer.
pub const CITY_SCATTER_STREAM: u64 = 0xA5C3_91E4_6B2D_8F17;

/// XOR'd (together with a splitmix-mixed pair index) into the per-pair
/// link RNG of `crate::generate::city_mesh`. Seeding each unordered node
/// pair independently makes the drawn shadowing/asymmetry — and hence
/// the generated mesh — independent of the order in which the spatial
/// grid enumerates candidate neighbors.
pub const CITY_LINK_STREAM: u64 = 0x3D8E_5A01_C97B_42D9;
