//! The destination's incremental decoder (§3.1.3, §3.2.3b).
//!
//! The destination keeps received packets in *reduced* row-echelon form:
//! each arriving packet is forward-reduced against the stored rows (and the
//! same row operations are applied to its payload), then — if innovative —
//! its pivot column is back-eliminated from every earlier row. When rank
//! reaches K the coefficient matrix is the identity and the stored payloads
//! *are* the native packets; "once the destination receives the Kth
//! innovative packet, it decodes the whole batch".
//!
//! Keeping the matrix reduced as packets arrive is what bounds the work to
//! "2NS multiplications per packet" instead of a cubic batch-end
//! elimination.
//!
//! Payload arithmetic is batched: the row operations of one `receive` are
//! composed on the (cheap, K-byte) code-vector side first, then applied to
//! the payload as a single fused [`axpy_chunked`] pass. Dependent packets
//! are rejected from the vector reduction alone, without reading their
//! payload bytes at all. Row storage — working vectors and decoded
//! payloads alike — cycles through [`crate::pool`], so a steady-state
//! destination decodes without touching the allocator.

#![expect(
    clippy::indexing_slicing,
    reason = "Gaussian elimination is index arithmetic by nature: every row/vector index here is bounded by k == rows.len() == vector.len(), pinned by Decoder::new and the receive() length asserts."
)]

use crate::packet::{axpy_chunked, CodedPacket};
use crate::{pool, CodingError};
use gf256::{slice_ops, Gf256};

/// One stored row: a normalized code vector and its matching payload.
#[derive(Clone, Debug)]
struct Row {
    vector: Vec<u8>,
    payload: Vec<u8>,
}

/// Incremental reduced-row-echelon decoder for one batch.
#[derive(Clone, Debug)]
pub struct Decoder {
    k: usize,
    payload_len: usize,
    /// `rows[i]` has pivot at column `i` with coefficient 1.
    rows: Vec<Option<Row>>,
    rank: usize,
}

impl Decoder {
    /// An empty decoder for batch size `k`, payload size `payload_len`.
    pub fn new(k: usize, payload_len: usize) -> Self {
        Decoder {
            k,
            payload_len,
            rows: (0..k).map(|_| None).collect(),
            rank: 0,
        }
    }

    /// Batch size K.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Payload size in bytes.
    #[inline]
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Rank accumulated so far.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// True once K innovative packets have been absorbed.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.rank == self.k
    }

    /// Non-destructively checks whether `p` would be innovative.
    pub fn is_innovative(&self, p: &CodedPacket) -> bool {
        let mut u = pool::acquire_vec(self.k);
        u.copy_from_slice(p.vector());
        let mut innovative = false;
        for i in 0..self.k {
            let ui = Gf256(u[i]);
            if ui.is_zero() {
                continue;
            }
            match &self.rows[i] {
                Some(row) => slice_ops::mul_add_assign(&mut u, &row.vector, ui),
                None => {
                    innovative = true;
                    break;
                }
            }
        }
        pool::release_vec(u);
        innovative
    }

    /// Absorbs a received packet; returns `true` iff it was innovative.
    ///
    /// # Panics
    ///
    /// Panics if the packet's K or payload length disagree with the decoder.
    pub fn receive(&mut self, p: &CodedPacket) -> bool {
        assert_eq!(p.k(), self.k, "packet K != decoder K");
        assert_eq!(
            p.payload_len(),
            self.payload_len,
            "packet payload length mismatch"
        );

        // Forward-eliminate the code vector alone first: a dependent packet
        // is detected — and discarded — without touching a single payload
        // byte.
        let orig = p.vector();
        let mut vec = pool::acquire_vec(self.k);
        vec.copy_from_slice(orig);
        let mut pivot = None;
        for i in 0..self.k {
            let ui = Gf256(vec[i]);
            if ui.is_zero() {
                continue;
            }
            match &self.rows[i] {
                Some(row) => {
                    // Stored rows are fully reduced (each stored pivot
                    // column is zero in every other row), so reducing here
                    // never changes a coefficient this loop later reads at
                    // a stored pivot column.
                    debug_assert_eq!(ui.0, orig[i], "stored rows not fully reduced");
                    slice_ops::mul_add_assign(&mut vec, &row.vector, ui);
                }
                None => {
                    pivot = Some(i);
                    break;
                }
            }
        }
        let Some(pivot) = pivot else {
            pool::release_vec(vec);
            return false; // dependent: discard
        };

        // Normalize the pivot to 1.
        let lead = Gf256(vec[pivot]);
        debug_assert!(!lead.is_zero());
        let inv = lead.inv();
        slice_ops::mul_assign(&mut vec, inv);
        debug_assert_eq!(vec[pivot], Gf256::ONE.0);

        // Forward-reduce the remainder of the new row against existing rows
        // so it is fully reduced too.
        for i in (pivot + 1)..self.k {
            let ci = Gf256(vec[i]);
            if ci.is_zero() {
                continue;
            }
            if let Some(row) = &self.rows[i] {
                debug_assert_eq!(ci, inv * Gf256(orig[i]), "stored rows not fully reduced");
                slice_ops::mul_add_assign(&mut vec, &row.vector, ci);
            }
        }

        // The payload gets the same row operations, composed into one
        // batched pass: reduce→normalize→reduce collapses to
        //     inv·payload  +  Σ_{i≠pivot}  inv·origᵢ · rows[i].payload
        // because every reduction coefficient above was read at a stored
        // pivot column, which the fully-reduced stored rows never alter
        // (the debug_asserts check exactly that).
        let mut payload = pool::acquire_vec(self.payload_len);
        slice_ops::mul_into(&mut payload, p.payload(), inv);
        let rows = &self.rows;
        axpy_chunked(
            &mut payload,
            (0..self.k).filter(|&i| i != pivot).filter_map(|i| {
                rows[i].as_ref().and_then(|row| {
                    let c = inv * Gf256(orig[i]);
                    (!c.is_zero()).then_some((c, &row.payload[..]))
                })
            }),
        );

        // Back-eliminate the new pivot column from every stored row.
        for i in 0..self.k {
            if i == pivot {
                continue;
            }
            if let Some(row) = &mut self.rows[i] {
                let c = Gf256(row.vector[pivot]);
                if !c.is_zero() {
                    slice_ops::mul_add_assign(&mut row.vector, &vec, c);
                    slice_ops::mul_add_assign(&mut row.payload, &payload, c);
                }
            }
        }

        self.rows[pivot] = Some(Row {
            vector: vec,
            payload,
        });
        self.rank += 1;
        true
    }

    /// Decoded native packet `i`, readable in place once the batch is
    /// complete (no per-packet copy, unlike [`Self::natives`]).
    pub fn native(&self, i: usize) -> Option<&[u8]> {
        if !self.is_complete() {
            return None;
        }
        self.rows[i].as_ref().map(|r| &r.payload[..])
    }

    /// Rank recomputed from storage rather than the counter — a complete
    /// decoder has every row populated, and reporting the stored count
    /// keeps [`Self::natives`]/[`Self::take_natives`] panic-free even if
    /// that invariant were ever broken.
    fn stored_rank(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    /// Returns the decoded native packets, consuming nothing; errors if the
    /// batch is not yet complete.
    pub fn natives(&self) -> Result<Vec<Vec<u8>>, CodingError> {
        let stored = self.stored_rank();
        if !self.is_complete() || stored < self.k {
            return Err(CodingError::Incomplete {
                rank: self.rank.min(stored),
                k: self.k,
            });
        }
        Ok(self
            .rows
            .iter()
            .flatten()
            .map(|row| row.payload.clone())
            .collect())
    }

    /// Consumes the decoder, returning the native packets.
    pub fn take_natives(mut self) -> Result<Vec<Vec<u8>>, CodingError> {
        let stored = self.stored_rank();
        if !self.is_complete() || stored < self.k {
            return Err(CodingError::Incomplete {
                rank: self.rank.min(stored),
                k: self.k,
            });
        }
        let rows = std::mem::take(&mut self.rows);
        self.rank = 0;
        Ok(rows
            .into_iter()
            .flatten()
            .map(|row| {
                pool::release_vec(row.vector);
                row.payload
            })
            .collect())
    }

    /// Drops all state, returning row storage to the buffer pool.
    pub fn reset(&mut self) {
        for r in &mut self.rows {
            if let Some(row) = r.take() {
                pool::release_vec(row.vector);
                pool::release_vec(row.payload);
            }
        }
        self.rank = 0;
    }
}

impl Drop for Decoder {
    fn drop(&mut self) {
        self.reset();
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::packet::{CodeVector, SourceEncoder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn natives(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| (i * 31 + j * 7 + 1) as u8).collect())
            .collect()
    }

    #[test]
    fn decode_roundtrip_random_packets() {
        for k in [1usize, 2, 8, 32] {
            let data = natives(k, 40);
            let enc = SourceEncoder::new(data.clone()).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(k as u64);
            let mut dec = Decoder::new(k, 40);
            let mut received = 0;
            while !dec.is_complete() {
                dec.receive(&enc.encode(&mut rng));
                received += 1;
                assert!(received < 10 * k + 16, "decoder not converging");
            }
            assert_eq!(dec.take_natives().unwrap(), data);
        }
    }

    #[test]
    fn decode_from_unit_vectors_is_identity() {
        let data = natives(4, 10);
        let enc = SourceEncoder::new(data.clone()).unwrap();
        let mut dec = Decoder::new(4, 10);
        for i in [2usize, 0, 3, 1] {
            assert!(dec.receive(&enc.encode_with(CodeVector::unit(4, i))));
        }
        assert_eq!(dec.natives().unwrap(), data);
        // In-place access agrees with the copying accessor.
        for (i, d) in data.iter().enumerate() {
            assert_eq!(dec.native(i).unwrap(), &d[..]);
        }
    }

    #[test]
    fn native_is_none_until_complete() {
        let data = natives(3, 8);
        let enc = SourceEncoder::new(data).unwrap();
        let mut dec = Decoder::new(3, 8);
        assert!(dec.native(0).is_none());
        dec.receive(&enc.encode_with(CodeVector::unit(3, 0)));
        assert!(dec.native(0).is_none(), "partial batch must not decode");
    }

    #[test]
    fn dependent_packets_are_rejected() {
        let data = natives(3, 12);
        let enc = SourceEncoder::new(data).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut dec = Decoder::new(3, 12);
        let p = enc.encode(&mut rng);
        assert!(dec.receive(&p));
        assert!(!dec.receive(&p));
        assert!(!dec.is_innovative(&p));
        assert_eq!(dec.rank(), 1);
    }

    #[test]
    fn incomplete_decode_errors() {
        let dec = Decoder::new(4, 8);
        assert!(matches!(
            dec.natives(),
            Err(CodingError::Incomplete { rank: 0, k: 4 })
        ));
    }

    #[test]
    fn decode_through_recoding_forwarder() {
        // src -> forwarder (recodes) -> dst must still decode correctly.
        use crate::buffer::ForwarderBuffer;
        let k = 16;
        let data = natives(k, 100);
        let enc = SourceEncoder::new(data.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut fwd = ForwarderBuffer::new(k, 100);
        let mut dec = Decoder::new(k, 100);
        // Forwarder hears only some source packets; destination hears only
        // forwarder output.
        while fwd.rank() < k {
            fwd.receive(&enc.encode(&mut rng), &mut rng);
        }
        let mut sent = 0;
        while !dec.is_complete() {
            let p = fwd.emit(&mut rng).unwrap();
            dec.receive(&p);
            sent += 1;
            assert!(sent < 20 * k, "relay decode not converging");
        }
        assert_eq!(dec.take_natives().unwrap(), data);
    }

    #[test]
    fn partial_rank_from_partial_info() {
        // If the destination only ever hears combinations of 2 natives, the
        // rank must cap at 2.
        let data = natives(5, 20);
        let enc = SourceEncoder::new(data).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut dec = Decoder::new(5, 20);
        for _ in 0..50 {
            // Random combination of natives 0 and 1 only.
            let mut v = CodeVector::zero(5);
            v.as_bytes_mut()[0] = rng.gen_range(1..=255);
            v.as_bytes_mut()[1] = rng.gen_range(1..=255);
            dec.receive(&enc.encode_with(&v));
        }
        assert_eq!(dec.rank(), 2);
        assert!(!dec.is_complete());
    }

    #[test]
    fn reset_restarts() {
        let data = natives(2, 4);
        let enc = SourceEncoder::new(data.clone()).unwrap();
        let mut dec = Decoder::new(2, 4);
        dec.receive(&enc.encode_with(CodeVector::unit(2, 0)));
        dec.reset();
        assert_eq!(dec.rank(), 0);
        dec.receive(&enc.encode_with(CodeVector::unit(2, 0)));
        dec.receive(&enc.encode_with(CodeVector::unit(2, 1)));
        assert_eq!(dec.take_natives().unwrap(), data);
    }

    use rand::Rng;
}
