//! Thread-local buffer pool recycling coded-packet buffers across frames.
//!
//! Every coded packet on the simulated air is one flat `[coeffs | payload]`
//! allocation (see [`crate::CodedPacket`]). In steady state a simulator
//! produces and retires such a buffer for every transmission — thousands
//! per simulated second — and the pool turns that churn into reuse: the
//! engine hands buffers back when a frame leaves the air
//! (`mesh_sim::ErasedFlowAgent::recycle`), forwarders and decoders hand
//! theirs back on batch flush, and [`acquire`] serves the next packet from
//! the freelist instead of the allocator.
//!
//! ## Safety of reuse
//!
//! A buffer re-enters the pool only through [`release`], which calls
//! [`Bytes::try_into_mut`] — it succeeds **iff the caller holds the sole
//! reference**. A buffer some receiver still holds (a forwarder's pool, a
//! decoder row, an in-flight frame) fails that check and is simply
//! dropped from the releaser's side; the live holders keep an untouched,
//! immutable buffer. Recycling therefore can never alias live packet
//! data (property-tested in `tests/pool_props.rs`).
//!
//! ## Determinism
//!
//! Pool state affects *where* a buffer lives, never *what* the simulation
//! computes: [`acquire`] zero-fills to the requested length, so a recycled
//! buffer is byte-for-byte the buffer a fresh allocation would be, and no
//! code path branches on pool occupancy. Back-to-back runs on one thread
//! share the pool yet replay identically (asserted by the golden test
//! `tests/packet_path_equivalence.rs`).
//!
//! The pools are thread-local (`Rc`-style single-threaded reasoning, like
//! the rest of a simulator run); parallel sweeps get one pool per worker.

use bytes::{Bytes, BytesMut};
use std::cell::RefCell;

/// Freelist cap, per list, per thread. Two concurrent coded flows keep
/// well under a hundred buffers in flight; the cap only matters as a
/// bound on memory held by an idle thread.
const MAX_POOLED: usize = 256;

thread_local! {
    /// Flat packet buffers (`[coeffs | payload]`).
    static BUFFERS: RefCell<Vec<BytesMut>> = const { RefCell::new(Vec::new()) };
    /// Plain byte rows (tracker/decoder matrix rows).
    static VECS: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// A zeroed, uniquely owned buffer of exactly `len` bytes — recycled when
/// the freelist has one, freshly allocated otherwise.
pub fn acquire(len: usize) -> BytesMut {
    let recycled = BUFFERS.with(|p| p.borrow_mut().pop());
    match recycled {
        Some(mut m) => {
            m.clear();
            m.resize(len, 0);
            m
        }
        None => {
            let mut m = BytesMut::with_capacity(len);
            m.resize(len, 0);
            m
        }
    }
}

/// Offers a frozen buffer back to the pool. Reclaimed only when `b` is
/// the sole reference ([`Bytes::try_into_mut`]); otherwise the reference
/// is dropped and the live holders keep the buffer.
pub fn release(b: Bytes) {
    if let Ok(m) = b.try_into_mut() {
        release_mut(m);
    }
}

/// Returns a uniquely owned buffer to the pool.
pub fn release_mut(m: BytesMut) {
    // `try_with`: a thread tearing down its TLS just drops the buffer.
    let _ = BUFFERS.try_with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < MAX_POOLED {
            p.push(m);
        }
    });
}

/// A zeroed `Vec<u8>` of exactly `len` bytes from the row freelist.
pub fn acquire_vec(len: usize) -> Vec<u8> {
    let recycled = VECS.with(|p| p.borrow_mut().pop());
    match recycled {
        Some(mut v) => {
            v.clear();
            v.resize(len, 0);
            v
        }
        None => vec![0; len],
    }
}

/// Returns a row buffer to the freelist.
pub fn release_vec(v: Vec<u8>) {
    let _ = VECS.try_with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < MAX_POOLED {
            p.push(v);
        }
    });
}

/// Number of buffers currently idle in this thread's flat-buffer pool
/// (test/diagnostic aid).
pub fn idle_buffers() -> usize {
    BUFFERS.with(|p| p.borrow().len())
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn acquire_is_zeroed_even_after_dirty_release() {
        let mut m = acquire(8);
        m.as_mut().copy_from_slice(&[0xFF; 8]);
        release(m.freeze());
        let again = acquire(16);
        assert_eq!(&again[..], &[0u8; 16]);
    }

    #[test]
    fn shared_buffers_are_not_reclaimed() {
        // Drain the pool so the count below is exact.
        while idle_buffers() > 0 {
            let _ = BUFFERS.with(|p| p.borrow_mut().pop());
        }
        let b = acquire(4).freeze();
        let live = b.clone();
        release(b);
        assert_eq!(idle_buffers(), 0, "shared buffer entered the pool");
        assert_eq!(live.len(), 4);
        release(live);
        assert_eq!(idle_buffers(), 1, "sole reference must be reclaimed");
    }
}
