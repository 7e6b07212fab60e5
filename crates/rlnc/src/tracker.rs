//! Algorithm 2: the row-echelon innovativeness check.
//!
//! "Each node keeps code vectors of the packets in its buffer in a row
//! echelon form. Specifically, they are stored in a triangular matrix M of K
//! rows with some of the rows missing, thus for each stored row, the
//! smallest index of a non-zero element is distinct." (§3.2.3b)
//!
//! The tracker operates on code vectors only — payloads are never touched —
//! which is why checking innovativeness "is fairly cheap" compared to coding
//! or decoding (Table 4.1). Vectors come in as plain byte slices (packets
//! store their coefficients in a flat buffer; see [`crate::CodedPacket`]),
//! and the stored rows are recycled through [`crate::pool`] so steady-state
//! rank tracking touches the allocator only while a batch is growing.

#![expect(
    clippy::indexing_slicing,
    reason = "row and pivot indices are bounded by k == rows.len(), pinned at construction exactly as in decoder.rs."
)]

use crate::pool;
use gf256::{slice_ops, Gf256};

/// Incremental rank tracker over code vectors (Algorithm 2).
#[derive(Debug)]
pub struct InnovationTracker {
    /// `rows[i]` holds a vector whose leading non-zero index is `i`,
    /// normalized so that coefficient `i` equals 1.
    rows: Vec<Option<Vec<u8>>>,
    rank: usize,
}

impl InnovationTracker {
    /// An empty tracker for batch size `k`.
    pub fn new(k: usize) -> Self {
        InnovationTracker {
            rows: (0..k).map(|_| None).collect(),
            rank: 0,
        }
    }

    /// Batch size K.
    #[inline]
    pub fn k(&self) -> usize {
        self.rows.len()
    }

    /// Number of linearly independent vectors absorbed so far.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// True when rank has reached K (a full batch of information).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.rank == self.rows.len()
    }

    /// Would `v` be innovative? Non-destructive version of [`Self::absorb`].
    pub fn is_innovative(&self, v: impl AsRef<[u8]>) -> bool {
        let v = v.as_ref();
        assert_eq!(v.len(), self.k(), "vector length != K");
        let mut u = pool::acquire_vec(v.len());
        u.copy_from_slice(v);
        let innovative = self.reduce(&mut u).is_some();
        pool::release_vec(u);
        innovative
    }

    /// Algorithm 2: reduce `v` against the stored rows; if a pivot remains,
    /// store the reduced, normalized vector and report `true` (innovative).
    ///
    /// Returns `false` — "discard packet" — when `v` is a linear combination
    /// of what the node already holds.
    pub fn absorb(&mut self, v: impl AsRef<[u8]>) -> bool {
        let v = v.as_ref();
        assert_eq!(v.len(), self.k(), "vector length != K");
        let mut u = pool::acquire_vec(v.len());
        u.copy_from_slice(v);
        match self.reduce(&mut u) {
            Some(i) => {
                // Admit the modified vector into the empty slot,
                // normalized: M[i] ← u / u[i].
                let ui = Gf256(u[i]);
                slice_ops::mul_assign(&mut u, ui.inv());
                debug_assert_eq!(u[i], Gf256::ONE.0);
                self.rows[i] = Some(u);
                self.rank += 1;
                true
            }
            None => {
                pool::release_vec(u);
                false
            }
        }
    }

    /// Forward-reduces `u` in place against the stored rows; returns the
    /// pivot slot `u` would fill, or `None` when `u` is dependent.
    fn reduce(&self, u: &mut [u8]) -> Option<usize> {
        for i in 0..self.k() {
            let ui = Gf256(u[i]);
            if ui.is_zero() {
                continue;
            }
            match &self.rows[i] {
                // u ← u − M[i]·u[i]  (subtraction == addition in GF(2⁸))
                Some(row) => slice_ops::mul_add_assign(u, row, ui),
                None => return Some(i),
            }
        }
        None
    }

    /// The stored echelon row with pivot `i`, if present.
    pub fn row(&self, i: usize) -> Option<&[u8]> {
        self.rows[i].as_deref()
    }

    /// Clears all state (e.g. when a batch is flushed), returning the row
    /// storage to the buffer pool.
    pub fn reset(&mut self) {
        for r in &mut self.rows {
            if let Some(row) = r.take() {
                pool::release_vec(row);
            }
        }
        self.rank = 0;
    }
}

impl Clone for InnovationTracker {
    fn clone(&self) -> Self {
        InnovationTracker {
            rows: self.rows.clone(),
            rank: self.rank,
        }
    }
}

impl Drop for InnovationTracker {
    fn drop(&mut self) {
        self.reset();
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::packet::CodeVector;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn v(bytes: &[u8]) -> CodeVector {
        CodeVector::from_bytes(bytes.to_vec())
    }

    #[test]
    fn zero_vector_is_never_innovative() {
        let mut t = InnovationTracker::new(4);
        assert!(!t.is_innovative(v(&[0, 0, 0, 0])));
        assert!(!t.absorb(v(&[0, 0, 0, 0])));
        assert_eq!(t.rank(), 0);
    }

    #[test]
    fn unit_vectors_fill_the_tracker() {
        let mut t = InnovationTracker::new(3);
        for i in 0..3 {
            assert!(t.absorb(CodeVector::unit(3, i)));
        }
        assert!(t.is_full());
        assert_eq!(t.rank(), 3);
        // Anything further is dependent.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..10 {
            assert!(!t.absorb(CodeVector::random(3, &mut rng)));
        }
    }

    #[test]
    fn duplicate_is_not_innovative() {
        let mut t = InnovationTracker::new(4);
        let a = v(&[1, 2, 3, 4]);
        assert!(t.absorb(&a));
        assert!(!t.is_innovative(&a));
        assert!(!t.absorb(&a));
        assert_eq!(t.rank(), 1);
    }

    #[test]
    fn scaled_copy_is_not_innovative() {
        let mut t = InnovationTracker::new(4);
        assert!(t.absorb(v(&[1, 2, 3, 4])));
        let mut scaled = v(&[1, 2, 3, 4]);
        scaled.mul_assign(gf256::Gf256(7));
        assert!(!t.absorb(&scaled));
    }

    #[test]
    fn combination_of_absorbed_is_not_innovative() {
        let mut t = InnovationTracker::new(4);
        let a = v(&[1, 2, 3, 4]);
        let b = v(&[5, 6, 7, 8]);
        assert!(t.absorb(&a));
        assert!(t.absorb(&b));
        let mut combo = a.clone();
        combo.mul_add_assign(&b, gf256::Gf256(0x41));
        assert!(!t.is_innovative(&combo));
        assert!(!t.absorb(&combo));
        assert_eq!(t.rank(), 2);
    }

    #[test]
    fn is_innovative_agrees_with_absorb_and_does_not_mutate() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut t = InnovationTracker::new(8);
        for _ in 0..40 {
            let u = CodeVector::random(8, &mut rng);
            let pre_rank = t.rank();
            let predicted = t.is_innovative(&u);
            let actual = t.absorb(&u);
            assert_eq!(predicted, actual);
            assert_eq!(t.rank(), pre_rank + usize::from(actual));
        }
        assert!(t.is_full(), "40 random vectors should fill K=8 w.h.p.");
    }

    #[test]
    fn pivots_are_normalized() {
        let mut t = InnovationTracker::new(3);
        t.absorb(v(&[9, 1, 2]));
        let row = t.row(0).unwrap();
        assert_eq!(row[0], Gf256::ONE.0);
    }

    #[test]
    fn reset_empties() {
        let mut t = InnovationTracker::new(2);
        t.absorb(v(&[1, 0]));
        t.absorb(v(&[0, 1]));
        assert!(t.is_full());
        t.reset();
        assert_eq!(t.rank(), 0);
        assert!(t.absorb(v(&[1, 0])));
    }

    #[test]
    fn rank_bounded_by_k() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut t = InnovationTracker::new(4);
        let mut innovative = 0;
        for _ in 0..100 {
            if t.absorb(CodeVector::random(4, &mut rng)) {
                innovative += 1;
            }
        }
        assert_eq!(innovative, 4);
        assert_eq!(t.rank(), 4);
    }

    #[test]
    fn absorb_accepts_raw_slices() {
        let mut t = InnovationTracker::new(3);
        assert!(t.absorb([1u8, 2, 3]));
        assert!(!t.is_innovative([1u8, 2, 3]));
        assert_eq!(t.row(0).unwrap().len(), 3);
    }
}
