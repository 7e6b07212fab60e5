//! Nested-workspace fixture: the enclosing workspace's only source.

pub fn per_flow(seed: u64, flow: u64) -> ChaCha8Rng {
    // xtask: allow(rng_stream) -- fixture: proves this file is walked
    ChaCha8Rng::seed_from_u64(mix(seed, flow))
}
