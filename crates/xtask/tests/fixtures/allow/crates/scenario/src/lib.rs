//! Allowlist fixture: violations like the bad tree's, each suppressed by
//! a justified `// xtask: allow` comment — plus one unused allow that
//! must surface in the report as UNUSED.

pub fn per_pair_stream(seed: u64, i: u64) {
    // xtask: allow(rng_stream) -- per-pair stream mixed from the run seed
    let _ = ChaCha8Rng::seed_from_u64(mix(seed, i));
}

pub fn float_sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); // xtask: allow(float_ord) -- inputs validated finite by caller
}

// xtask: allow(pool_pairing) -- this allow is deliberately unused

// xtask: allow(undocumented_unsafe) -- fixture: the contract lives in the caller's docs
pub unsafe fn read(p: *const u8) -> u8 {
    *p
}
