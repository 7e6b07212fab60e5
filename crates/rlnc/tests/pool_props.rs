//! Property tests for the zero-copy packet memory model: the flat
//! `[coeffs | payload]` packet layout and the thread-local buffer pool.

#![expect(
    clippy::indexing_slicing,
    reason = "test support code outside #[test] fns: a panic is the test's failure report"
)]

use gf256::Gf256;
use more_rlnc::{pool, CodeVector, Decoder, SourceEncoder};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn batch(k: usize, len: usize, salt: u8) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..len)
                .map(|j| (i * 37 + j * 11 + 3) as u8 ^ salt)
                .collect()
        })
        .collect()
}

/// The pre-rewrite nested encoder, re-derived from first principles: one
/// scalar GF(2⁸) multiply-accumulate per (native, byte), no slice kernels,
/// no flat layout. The flat pooled path must agree byte for byte.
fn reference_encode(natives: &[Vec<u8>], vector: &[u8]) -> Vec<u8> {
    let len = natives[0].len();
    let mut payload = vec![Gf256(0); len];
    for (i, native) in natives.iter().enumerate() {
        let c = Gf256(vector[i]);
        for (acc, &b) in payload.iter_mut().zip(native) {
            *acc += c * Gf256(b);
        }
    }
    payload.into_iter().map(|g| g.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flat encoding reproduces the nested scalar reference for arbitrary
    /// (K, payload length, vector): same coefficients in the head, same
    /// combination in the tail.
    #[test]
    fn flat_encode_matches_nested_reference(
        k in 1usize..24,
        len in 1usize..96,
        salt in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let data = batch(k, len, salt);
        let enc = SourceEncoder::new(data.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let v = CodeVector::random(k, &mut rng);
        let p = enc.encode_with(&v);
        prop_assert_eq!(p.k(), k);
        prop_assert_eq!(p.vector(), v.as_bytes());
        prop_assert_eq!(p.payload(), &reference_encode(&data, v.as_bytes())[..]);
        // The flat buffer really is the concatenation of the two views.
        prop_assert_eq!(&p.data()[..k], p.vector());
        prop_assert_eq!(&p.data()[k..], p.payload());
    }

    /// Flat packets decode back to the natives through the pooled decoder.
    #[test]
    fn flat_packets_decode(k in 1usize..16, len in 1usize..64, seed in any::<u64>()) {
        let data = batch(k, len, 0x5A);
        let enc = SourceEncoder::new(data.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut dec = Decoder::new(k, len);
        let mut tries = 0;
        while !dec.is_complete() {
            dec.receive(&enc.encode(&mut rng));
            tries += 1;
            prop_assert!(tries < 8 * k + 32, "decoder not converging");
        }
        for (i, d) in data.iter().enumerate() {
            prop_assert_eq!(dec.native(i).unwrap(), &d[..]);
        }
        prop_assert_eq!(dec.take_natives().unwrap(), data);
    }

    /// Recycling never aliases live packets: releasing one reference to a
    /// shared buffer, then acquiring and scribbling over pool buffers, must
    /// leave every live clone byte-identical.
    #[test]
    fn recycled_buffers_never_alias_live_packets(
        k in 1usize..16,
        len in 1usize..64,
        seed in any::<u64>(),
        scribble in any::<u8>(),
    ) {
        let data = batch(k, len, 0xC3);
        let enc = SourceEncoder::new(data).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        let live = enc.encode(&mut rng);
        let expected = live.data().to_vec();

        // A clone of the packet goes back to the pool while `live` is still
        // held; the pool must refuse to reclaim the shared buffer.
        pool::release(live.clone().into_data());

        // Churn the pool: acquire buffers of the same size and scribble on
        // them. If the pool had reclaimed the shared buffer, one of these
        // writes would tear through `live`.
        for _ in 0..4 {
            let mut buf = pool::acquire(expected.len());
            for b in buf.iter_mut() {
                *b = scribble;
            }
            pool::release(buf.freeze());
        }
        prop_assert_eq!(&live.data()[..], &expected[..]);

        // Once the last reference is gone the buffer may recycle — and the
        // next acquire must come back zeroed, not scribbled.
        pool::release(live.into_data());
        let clean = pool::acquire(expected.len());
        prop_assert!(clean.iter().all(|&b| b == 0), "recycled buffer not zeroed");
    }
}
