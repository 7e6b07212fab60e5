//! Ratchet fixture: exactly one deliberate rng_stream finding, so the
//! ratchet tests can pin counts against a known-dirty tree.

pub fn regression() -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(7)
}
