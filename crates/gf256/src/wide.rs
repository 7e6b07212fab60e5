//! Wide (chunked) slice kernels built on the nibble split-tables.
//!
//! Multiplication by a fixed scalar `c` is GF(2)-linear in the operand, so
//! `c·x = MUL_LO[c][x & 0xF] ^ MUL_HI[c][x >> 4]` — two lookups into
//! 16-entry half-tables ([`crate::tables::MUL_LO`] /
//! [`crate::tables::MUL_HI`]) instead of one lookup into a 256-byte row of
//! the 64 KiB table. The 16-entry rows are exactly the shape a byte-shuffle
//! instruction consumes, which turns the per-byte table walk into a
//! 16-or-32-bytes-per-instruction stream:
//!
//! * **AVX2** — 32 bytes per step via `vpshufb` (both half-rows broadcast
//!   into the two 128-bit lanes);
//! * **SSSE3** — 16 bytes per step via `pshufb`;
//! * **SWAR fallback** — 8-byte (`u64`) lanes with per-byte half-table
//!   lookups, for targets without the shuffle unit.
//!
//! Every path finishes with a scalar tail for the trailing `len % width`
//! bytes, and every path computes exactly the same bytes as the
//! [`crate::scalar`] reference kernels (property-tested in
//! `tests/kernel_equivalence.rs`). The x86 backend is selected once per
//! process by runtime CPU feature detection.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "SIMD-width kernel: chunks_exact(8) guarantees every window is exactly 8 bytes, so the fixed-offset indexing and try_into conversions on those windows cannot fail."
)]

use crate::tables::{MUL_HI, MUL_LO};
use crate::Gf256;

/// `c·x` via the two half-table lookups (the scalar-tail step).
#[inline(always)]
fn half_mul(lo: &[u8; 16], hi: &[u8; 16], x: u8) -> u8 {
    lo[(x & 0x0F) as usize] ^ hi[(x >> 4) as usize]
}

/// Name of the widest backend the dispatching kernels use on this machine:
/// `"avx2"`, `"ssse3"`, or `"swar"`. Recorded in bench artifacts so
/// throughput numbers are comparable across hosts.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        match x86::level() {
            2 => return "avx2",
            1 => return "ssse3",
            _ => {}
        }
    }
    "swar"
}

/// `dst[i] ^= src[i]` in `u64` lanes with a byte tail.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn add_assign(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    let mut d_chunks = dst.chunks_exact_mut(8);
    let mut s_chunks = src.chunks_exact(8);
    for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
        let v = u64::from_ne_bytes(d.as_ref().try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(s.try_into().expect("8-byte chunk"));
        d.copy_from_slice(&v.to_ne_bytes());
    }
    for (d, s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d ^= s;
    }
}

/// `dst[i] ^= c * src[i]` — the wide multiply-accumulate.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn mul_add_assign(dst: &mut [u8], src: &[u8], c: Gf256) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    match c {
        Gf256::ZERO => {}
        Gf256::ONE => add_assign(dst, src),
        _ => {
            #[cfg(target_arch = "x86_64")]
            {
                match x86::level() {
                    // SAFETY: level() == 2 means AVX2 was detected on this CPU
                    // at runtime, satisfying mul_add_avx2's target-feature
                    // contract; dst/src lengths were asserted equal above.
                    2 => return unsafe { x86::mul_add_avx2(dst, src, c.0) },
                    // SAFETY: level() == 1 means SSSE3 was detected at
                    // runtime, satisfying mul_add_ssse3's contract.
                    1 => return unsafe { x86::mul_add_ssse3(dst, src, c.0) },
                    _ => {}
                }
            }
            mul_add_swar(dst, src, c.0);
        }
    }
}

/// `dst[i] = c * dst[i]` — wide in-place scale.
#[inline]
pub fn mul_assign(dst: &mut [u8], c: Gf256) {
    match c {
        Gf256::ZERO => dst.fill(0),
        Gf256::ONE => {}
        _ => {
            #[cfg(target_arch = "x86_64")]
            {
                match x86::level() {
                    // SAFETY: level() == 2 means AVX2 was detected on this CPU
                    // at runtime, satisfying mul_assign_avx2's target-feature
                    // contract.
                    2 => return unsafe { x86::mul_assign_avx2(dst, c.0) },
                    // SAFETY: level() == 1 means SSSE3 was detected at
                    // runtime, satisfying mul_assign_ssse3's contract.
                    1 => return unsafe { x86::mul_assign_ssse3(dst, c.0) },
                    _ => {}
                }
            }
            mul_assign_swar(dst, c.0);
        }
    }
}

/// `out[i] = c * src[i]` — wide scale into a fresh output slice.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn mul_into(out: &mut [u8], src: &[u8], c: Gf256) {
    assert_eq!(out.len(), src.len(), "slice length mismatch");
    match c {
        Gf256::ZERO => out.fill(0),
        Gf256::ONE => out.copy_from_slice(src),
        _ => {
            #[cfg(target_arch = "x86_64")]
            {
                match x86::level() {
                    // SAFETY: level() == 2 means AVX2 was detected on this CPU
                    // at runtime, satisfying mul_into_avx2's target-feature
                    // contract; out/src lengths were asserted equal above.
                    2 => return unsafe { x86::mul_into_avx2(out, src, c.0) },
                    // SAFETY: level() == 1 means SSSE3 was detected at
                    // runtime, satisfying mul_into_ssse3's contract.
                    1 => return unsafe { x86::mul_into_ssse3(out, src, c.0) },
                    _ => {}
                }
            }
            mul_into_swar(out, src, c.0);
        }
    }
}

fn mul_add_swar(dst: &mut [u8], src: &[u8], c: u8) {
    let lo = &MUL_LO[c as usize];
    let hi = &MUL_HI[c as usize];
    let mut d_chunks = dst.chunks_exact_mut(8);
    let mut s_chunks = src.chunks_exact(8);
    for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
        let mut prod = [0u8; 8];
        for (p, &b) in prod.iter_mut().zip(s) {
            *p = half_mul(lo, hi, b);
        }
        let v = u64::from_ne_bytes(d.as_ref().try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(prod);
        d.copy_from_slice(&v.to_ne_bytes());
    }
    for (d, s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d ^= half_mul(lo, hi, *s);
    }
}

fn mul_assign_swar(dst: &mut [u8], c: u8) {
    let lo = &MUL_LO[c as usize];
    let hi = &MUL_HI[c as usize];
    for d in dst.iter_mut() {
        *d = half_mul(lo, hi, *d);
    }
}

fn mul_into_swar(out: &mut [u8], src: &[u8], c: u8) {
    let lo = &MUL_LO[c as usize];
    let hi = &MUL_HI[c as usize];
    let mut o_chunks = out.chunks_exact_mut(8);
    let mut s_chunks = src.chunks_exact(8);
    for (o, s) in (&mut o_chunks).zip(&mut s_chunks) {
        let mut prod = [0u8; 8];
        for (p, &b) in prod.iter_mut().zip(s) {
            *p = half_mul(lo, hi, b);
        }
        o.copy_from_slice(&prod);
    }
    for (o, s) in o_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *o = half_mul(lo, hi, *s);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{half_mul, MUL_HI, MUL_LO};
    use core::arch::x86_64::*;
    use core::sync::atomic::{AtomicU8, Ordering};

    /// Detected SIMD tier: 2 = AVX2, 1 = SSSE3, 0 = neither. Detection runs
    /// once; the result is cached for every later kernel call.
    pub(super) fn level() -> u8 {
        static LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);
        let l = LEVEL.load(Ordering::Relaxed);
        if l != u8::MAX {
            return l;
        }
        let detected = if std::arch::is_x86_feature_detected!("avx2") {
            2
        } else if std::arch::is_x86_feature_detected!("ssse3") {
            1
        } else {
            0
        };
        LEVEL.store(detected, Ordering::Relaxed);
        detected
    }

    /// Scalar tail shared by all SIMD paths.
    fn tail_mul_add(dst: &mut [u8], src: &[u8], c: u8) {
        let lo = &MUL_LO[c as usize];
        let hi = &MUL_HI[c as usize];
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= half_mul(lo, hi, *s);
        }
    }

    fn tail_mul_into(out: &mut [u8], src: &[u8], c: u8) {
        let lo = &MUL_LO[c as usize];
        let hi = &MUL_HI[c as usize];
        for (o, s) in out.iter_mut().zip(src) {
            *o = half_mul(lo, hi, *s);
        }
    }

    fn tail_mul_assign(dst: &mut [u8], c: u8) {
        let lo = &MUL_LO[c as usize];
        let hi = &MUL_HI[c as usize];
        for d in dst.iter_mut() {
            *d = half_mul(lo, hi, *d);
        }
    }

    // SAFETY: caller must ensure the CPU supports SSSE3 (x86::level() >= 1).
    // All loads/stores are unaligned and stay within the first n = len - len % 16
    // bytes of dst/src (equal lengths asserted by the dispatching caller);
    // the scalar tail handles the remainder.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_add_ssse3(dst: &mut [u8], src: &[u8], c: u8) {
        let lo = _mm_loadu_si128(MUL_LO[c as usize].as_ptr().cast());
        let hi = _mm_loadu_si128(MUL_HI[c as usize].as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let n = dst.len() - dst.len() % 16;
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0usize;
        while i < n {
            let s = _mm_loadu_si128(sp.add(i).cast());
            let l = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
            let h = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64::<4>(s), mask));
            let d = _mm_loadu_si128(dp.add(i).cast());
            let acc = _mm_xor_si128(d, _mm_xor_si128(l, h));
            _mm_storeu_si128(dp.add(i).cast(), acc);
            i += 16;
        }
        tail_mul_add(&mut dst[n..], &src[n..], c);
    }

    // SAFETY: caller must ensure the CPU supports SSSE3 (x86::level() >= 1).
    // All loads/stores are unaligned and stay within the first n = len - len % 16
    // bytes of out/src (equal lengths asserted by the dispatching caller);
    // out and src are distinct borrows so no load overlaps a store.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_into_ssse3(out: &mut [u8], src: &[u8], c: u8) {
        let lo = _mm_loadu_si128(MUL_LO[c as usize].as_ptr().cast());
        let hi = _mm_loadu_si128(MUL_HI[c as usize].as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let n = out.len() - out.len() % 16;
        let op = out.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0usize;
        while i < n {
            let s = _mm_loadu_si128(sp.add(i).cast());
            let l = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
            let h = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64::<4>(s), mask));
            _mm_storeu_si128(op.add(i).cast(), _mm_xor_si128(l, h));
            i += 16;
        }
        tail_mul_into(&mut out[n..], &src[n..], c);
    }

    // SAFETY: caller must ensure the CPU supports SSSE3 (x86::level() >= 1).
    // All loads/stores are unaligned and stay within the first n = len - len % 16
    // bytes of dst; each 16-byte lane is loaded before it is stored.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_assign_ssse3(dst: &mut [u8], c: u8) {
        let lo = _mm_loadu_si128(MUL_LO[c as usize].as_ptr().cast());
        let hi = _mm_loadu_si128(MUL_HI[c as usize].as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let n = dst.len() - dst.len() % 16;
        let dp = dst.as_mut_ptr();
        let mut i = 0usize;
        while i < n {
            let s = _mm_loadu_si128(dp.add(i).cast());
            let l = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
            let h = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64::<4>(s), mask));
            _mm_storeu_si128(dp.add(i).cast(), _mm_xor_si128(l, h));
            i += 16;
        }
        tail_mul_assign(&mut dst[n..], c);
    }

    // SAFETY: caller must ensure the CPU supports AVX2 (x86::level() == 2).
    // All loads/stores are unaligned and stay within the first n = len - len % 32
    // bytes of dst/src (equal lengths asserted by the dispatching caller);
    // the scalar tail handles the remainder.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_add_avx2(dst: &mut [u8], src: &[u8], c: u8) {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_LO[c as usize].as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_HI[c as usize].as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let n = dst.len() - dst.len() % 32;
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0usize;
        while i < n {
            let s = _mm256_loadu_si256(sp.add(i).cast());
            let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
            let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask));
            let d = _mm256_loadu_si256(dp.add(i).cast());
            let acc = _mm256_xor_si256(d, _mm256_xor_si256(l, h));
            _mm256_storeu_si256(dp.add(i).cast(), acc);
            i += 32;
        }
        tail_mul_add(&mut dst[n..], &src[n..], c);
    }

    // SAFETY: caller must ensure the CPU supports AVX2 (x86::level() == 2).
    // All loads/stores are unaligned and stay within the first n = len - len % 32
    // bytes of out/src (equal lengths asserted by the dispatching caller);
    // out and src are distinct borrows so no load overlaps a store.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_into_avx2(out: &mut [u8], src: &[u8], c: u8) {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_LO[c as usize].as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_HI[c as usize].as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let n = out.len() - out.len() % 32;
        let op = out.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0usize;
        while i < n {
            let s = _mm256_loadu_si256(sp.add(i).cast());
            let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
            let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask));
            _mm256_storeu_si256(op.add(i).cast(), _mm256_xor_si256(l, h));
            i += 32;
        }
        tail_mul_into(&mut out[n..], &src[n..], c);
    }

    // SAFETY: caller must ensure the CPU supports AVX2 (x86::level() == 2).
    // All loads/stores are unaligned and stay within the first n = len - len % 32
    // bytes of dst; each 32-byte lane is loaded before it is stored.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_assign_avx2(dst: &mut [u8], c: u8) {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_LO[c as usize].as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(MUL_HI[c as usize].as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let n = dst.len() - dst.len() % 32;
        let dp = dst.as_mut_ptr();
        let mut i = 0usize;
        while i < n {
            let s = _mm256_loadu_si256(dp.add(i).cast());
            let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
            let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask));
            _mm256_storeu_si256(dp.add(i).cast(), _mm256_xor_si256(l, h));
            i += 32;
        }
        tail_mul_assign(&mut dst[n..], c);
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::scalar;

    /// Deterministic pseudo-random bytes without pulling in an RNG.
    fn noise(len: usize, salt: u64) -> Vec<u8> {
        let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    /// Lengths that cross every chunk boundary: empty, sub-lane, one lane,
    /// lane+tail, several lanes of each width.
    const LENS: [usize; 9] = [0, 1, 7, 8, 15, 16, 31, 33, 1500];

    #[test]
    fn swar_paths_match_scalar() {
        for &len in &LENS {
            for c in [0u8, 1, 2, 0x53, 0xFF] {
                let src = noise(len, c as u64 + 1);
                let base = noise(len, c as u64 + 1000);

                let mut want = base.clone();
                scalar::mul_add_assign(&mut want, &src, Gf256(c));
                let mut got = base.clone();
                if c > 1 {
                    mul_add_swar(&mut got, &src, c);
                } else {
                    mul_add_assign(&mut got, &src, Gf256(c));
                }
                assert_eq!(got, want, "mul_add len={len} c={c:#x}");

                let mut want = base.clone();
                scalar::mul_assign(&mut want, Gf256(c));
                let mut got = base.clone();
                if c > 1 {
                    mul_assign_swar(&mut got, c);
                } else {
                    mul_assign(&mut got, Gf256(c));
                }
                assert_eq!(got, want, "mul_assign len={len} c={c:#x}");

                let mut want = vec![0u8; len];
                scalar::mul_into(&mut want, &src, Gf256(c));
                let mut got = vec![0u8; len];
                if c > 1 {
                    mul_into_swar(&mut got, &src, c);
                } else {
                    mul_into(&mut got, &src, Gf256(c));
                }
                assert_eq!(got, want, "mul_into len={len} c={c:#x}");
            }
        }
    }

    #[test]
    fn dispatched_paths_match_scalar() {
        // Exercises whatever backend() picks on this machine (AVX2 on CI).
        for &len in &LENS {
            for c in [2u8, 3, 0x1D, 0x80, 0xFE] {
                let src = noise(len, c as u64 + 7);
                let base = noise(len, c as u64 + 7000);

                let mut want = base.clone();
                scalar::mul_add_assign(&mut want, &src, Gf256(c));
                let mut got = base.clone();
                mul_add_assign(&mut got, &src, Gf256(c));
                assert_eq!(got, want, "{} mul_add len={len} c={c:#x}", backend());

                let mut want = base.clone();
                scalar::mul_assign(&mut want, Gf256(c));
                let mut got = base.clone();
                mul_assign(&mut got, Gf256(c));
                assert_eq!(got, want, "{} mul_assign len={len} c={c:#x}", backend());

                let mut want = vec![0u8; len];
                scalar::mul_into(&mut want, &src, Gf256(c));
                let mut got = vec![0u8; len];
                mul_into(&mut got, &src, Gf256(c));
                assert_eq!(got, want, "{} mul_into len={len} c={c:#x}", backend());
            }
        }
    }

    #[test]
    fn wide_add_assign_is_xor() {
        for &len in &LENS {
            let a = noise(len, 3);
            let b = noise(len, 4);
            let mut got = a.clone();
            add_assign(&mut got, &b);
            let want: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    fn backend_is_named() {
        assert!(["avx2", "ssse3", "swar"].contains(&backend()));
    }
}
