//! Deliberately-bad fixture: every line lint, an unregistered stream
//! reference, and an undocumented unsafe fn, with #[cfg(test)] negative
//! controls.

pub fn unnamed_stream(seed: u64, k: u64) {
    let _ = ChaCha8Rng::seed_from_u64(seed ^ k.wrapping_mul(0x9E3779B97F4A7C15));
}

pub fn bare_seed_is_fine(seed: u64) {
    let _ = ChaCha8Rng::seed_from_u64(seed);
}

pub fn unregistered_stream(seed: u64) {
    let _ = ChaCha8Rng::seed_from_u64(seed ^ CHANNEL_STREAM);
}

pub fn float_sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

pub fn float_sort_multiline(v: &mut [f64]) {
    v.sort_by(|a, b| {
        a.partial_cmp(b)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

pub unsafe fn undocumented(p: *const u8) -> u8 {
    // SAFETY: the caller passes a valid pointer.
    unsafe { *p }
}

pub fn block_is_clippys(p: *const u8) -> u8 {
    unsafe { *p }
}

#[cfg(test)]
mod test {
    #[test]
    fn tests_may_use_literal_seeds_and_partial_cmp() {
        let _ = ChaCha8Rng::seed_from_u64(12345);
        let mut v = [2.0f64, 1.0];
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
}
