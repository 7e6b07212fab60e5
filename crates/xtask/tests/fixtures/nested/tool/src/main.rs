//! Lives in its own workspace, so the analyzer must not report this
//! literal seed.

fn main() {
    let _ = ChaCha8Rng::seed_from_u64(3);
}
