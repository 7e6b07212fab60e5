//! Code vectors, flat coded packets, and the source-side encoder.

#![expect(
    clippy::indexing_slicing,
    reason = "header/payload splits index buffers acquired with exactly the k + payload length being split."
)]

use crate::{pool, CodingError};
use bytes::Bytes;
use gf256::{slice_ops, Gf256};
use rand::Rng;

/// The vector of coefficients that derives a coded packet from the natives.
///
/// For `p' = Σ cᵢ pᵢ` the code vector is `(c₁, …, c_K)` (thesis Table 3.1).
/// Stored as raw bytes; each byte is a GF(2⁸) element.
///
/// Packets on the wire no longer carry a `CodeVector` — their coefficients
/// live in the flat `[coeffs | payload]` buffer of [`CodedPacket`] — but the
/// type remains the convenient owned representation for building vectors
/// (unit/random/arithmetic) and for rank bookkeeping in tests.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CodeVector(Vec<u8>);

impl CodeVector {
    /// A zero vector of length `k`.
    pub fn zero(k: usize) -> Self {
        CodeVector(vec![0; k])
    }

    /// The `i`-th unit vector of length `k` (the code vector of native `i`).
    pub fn unit(k: usize, i: usize) -> Self {
        assert!(i < k, "unit index out of range");
        let mut v = vec![0; k];
        v[i] = 1;
        CodeVector(v)
    }

    /// A uniformly random vector of length `k`.
    pub fn random<R: Rng + ?Sized>(k: usize, rng: &mut R) -> Self {
        let mut v = vec![0u8; k];
        rng.fill(&mut v[..]);
        CodeVector(v)
    }

    /// Builds a vector from raw coefficient bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        CodeVector(bytes)
    }

    /// Batch size K this vector addresses.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the vector has length zero (a degenerate batch).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True if every coefficient is zero (carries no information).
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    /// Coefficient `i`.
    #[inline]
    pub fn coeff(&self, i: usize) -> Gf256 {
        Gf256(self.0[i])
    }

    /// Index of the first non-zero coefficient, if any.
    pub fn leading_index(&self) -> Option<usize> {
        self.0.iter().position(|&b| b != 0)
    }

    /// Raw coefficient bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Mutable raw coefficient bytes.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }

    /// `self += c * other`.
    pub fn mul_add_assign(&mut self, other: &CodeVector, c: Gf256) {
        slice_ops::mul_add_assign(&mut self.0, &other.0, c);
    }

    /// `self *= c`.
    pub fn mul_assign(&mut self, c: Gf256) {
        slice_ops::mul_assign(&mut self.0, c);
    }
}

impl AsRef<[u8]> for CodeVector {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl core::fmt::Debug for CodeVector {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "CodeVector[")?;
        for (i, b) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{b:02X}")?;
        }
        write!(f, "]")
    }
}

/// `dst += Σ cᵢ·srcᵢ` over an arbitrary term iterator, batched through
/// [`slice_ops::axpy_many`] in stack-resident chunks.
///
/// Unlike collecting terms into a `Vec` first, this takes the terms lazily
/// — callers whose coefficients come from an RNG stream draw them in
/// iterator order, exactly as a term-at-a-time loop would — and allocates
/// nothing. GF(2⁸) addition is XOR (exact, associative), so chunked
/// accumulation is byte-identical to a single fused pass.
pub fn axpy_chunked<'a, I>(dst: &mut [u8], terms: I)
where
    I: IntoIterator<Item = (Gf256, &'a [u8])>,
{
    const CHUNK: usize = 16;
    let mut buf: [(Gf256, &[u8]); CHUNK] = [(Gf256(0), &[]); CHUNK];
    let mut n = 0;
    for term in terms {
        buf[n] = term;
        n += 1;
        if n == CHUNK {
            slice_ops::axpy_many(dst, &buf);
            n = 0;
        }
    }
    if n > 0 {
        slice_ops::axpy_many(dst, &buf[..n]);
    }
}

/// A coded packet: one flat, immutable, refcounted buffer laid out as
/// `[c₁ … c_K | payload]`.
///
/// The single-buffer layout means building a packet costs one (pooled)
/// allocation, cloning it for every simulated receiver of a broadcast is a
/// refcount bump, and forwarder pre-coding folds a whole packet in with one
/// multiply-accumulate pass over the flat buffer. Buffers are drawn from
/// and returned to [`crate::pool`].
#[derive(Clone, Debug)]
pub struct CodedPacket {
    /// Batch size K — the split point between coefficients and payload.
    k: usize,
    /// The flat `[coeffs | payload]` buffer.
    data: Bytes,
}

impl CodedPacket {
    /// Assembles a packet by copying a code vector and payload into one
    /// fresh flat buffer.
    pub fn from_parts(vector: &[u8], payload: &[u8]) -> Self {
        let k = vector.len();
        // xtask: allow(pool_pairing) -- ownership transfer: the pooled buffer rides inside the returned CodedPacket and is recycled by its consumer via pool::release(packet.into_data())
        let mut buf = pool::acquire(k + payload.len());
        buf[..k].copy_from_slice(vector);
        buf[k..].copy_from_slice(payload);
        CodedPacket {
            k,
            data: buf.freeze(),
        }
    }

    /// Wraps an already-flat `[coeffs | payload]` buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is shorter than `k` coefficients.
    pub fn from_flat(k: usize, data: Bytes) -> Self {
        assert!(data.len() >= k, "flat buffer shorter than its code vector");
        CodedPacket { k, data }
    }

    /// Batch size K.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Payload size in bytes.
    #[inline]
    pub fn payload_len(&self) -> usize {
        self.data.len() - self.k
    }

    /// The code vector coefficients (first K bytes of the flat buffer).
    #[inline]
    pub fn vector(&self) -> &[u8] {
        &self.data[..self.k]
    }

    /// The coded payload, `Σ cᵢ pᵢ` byte-wise over GF(2⁸).
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.data[self.k..]
    }

    /// Coefficient `i` of the code vector.
    #[inline]
    pub fn coeff(&self, i: usize) -> Gf256 {
        Gf256(self.data[i])
    }

    /// True if every coefficient is zero (the packet carries nothing).
    pub fn vector_is_zero(&self) -> bool {
        self.vector().iter().all(|&b| b == 0)
    }

    /// The whole flat `[coeffs | payload]` buffer.
    #[inline]
    pub fn data(&self) -> &Bytes {
        &self.data
    }

    /// Consumes the packet, returning the flat buffer (e.g. to hand it back
    /// to the [`crate::pool`]).
    pub fn into_data(self) -> Bytes {
        self.data
    }
}

/// The source's encoder over one batch of K native packets (§3.1.1).
///
/// "When the 802.11 MAC is ready to send, the source creates a random linear
/// combination of the K native packets in the current batch and broadcasts
/// the coded packet."
#[derive(Clone, Debug)]
pub struct SourceEncoder {
    natives: Vec<Bytes>,
    payload_len: usize,
}

impl SourceEncoder {
    /// Builds an encoder over `natives`; all packets must share one length
    /// and the batch must be non-empty.
    pub fn new<B: Into<Bytes>>(natives: Vec<B>) -> Result<Self, CodingError> {
        let natives: Vec<Bytes> = natives.into_iter().map(Into::into).collect();
        let Some(first) = natives.first() else {
            return Err(CodingError::BadBatch("empty batch".into()));
        };
        let payload_len = first.len();
        if payload_len == 0 {
            return Err(CodingError::BadBatch("zero-length packets".into()));
        }
        if natives.iter().any(|p| p.len() != payload_len) {
            return Err(CodingError::BadBatch("unequal packet lengths".into()));
        }
        Ok(SourceEncoder {
            natives,
            payload_len,
        })
    }

    /// Batch size K.
    #[inline]
    pub fn k(&self) -> usize {
        self.natives.len()
    }

    /// Payload size in bytes.
    #[inline]
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// The native packets this encoder codes over.
    pub fn natives(&self) -> &[Bytes] {
        &self.natives
    }

    /// Emits one coded packet with fresh random coefficients.
    ///
    /// The random coefficients are drawn straight into the head of one
    /// pooled flat buffer and the payload combine writes its tail — the
    /// whole packet is a single allocation (amortized zero once the pool
    /// is warm). Cost is one batched [`axpy_chunked`] pass folding all K
    /// natives into the payload — the most expensive coding operation in
    /// the system (Table 4.1: "the coding cost is highest at the source
    /// because it has to code all K packets together").
    pub fn encode<R: Rng + ?Sized>(&self, rng: &mut R) -> CodedPacket {
        let k = self.k();
        // xtask: allow(pool_pairing) -- ownership transfer: the pooled buffer rides inside the returned CodedPacket and is recycled by its consumer via pool::release(packet.into_data())
        let mut buf = pool::acquire(k + self.payload_len);
        rng.fill(&mut buf[..k]);
        self.combine_into(&mut buf);
        CodedPacket {
            k,
            data: buf.freeze(),
        }
    }

    /// Emits the coded packet for a caller-chosen code vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the batch size K.
    pub fn encode_with(&self, vector: impl AsRef<[u8]>) -> CodedPacket {
        let vector = vector.as_ref();
        let k = self.k();
        assert_eq!(vector.len(), k, "vector length != K");
        // xtask: allow(pool_pairing) -- ownership transfer: the pooled buffer rides inside the returned CodedPacket and is recycled by its consumer via pool::release(packet.into_data())
        let mut buf = pool::acquire(k + self.payload_len);
        buf[..k].copy_from_slice(vector);
        self.combine_into(&mut buf);
        CodedPacket {
            k,
            data: buf.freeze(),
        }
    }

    /// Fills the payload tail of a flat buffer whose head already holds the
    /// code vector.
    fn combine_into(&self, buf: &mut [u8]) {
        let (vector, payload) = buf.split_at_mut(self.k());
        let vector = &*vector;
        axpy_chunked(
            payload,
            self.natives
                .iter()
                .enumerate()
                .map(|(i, native)| (Gf256(vector[i]), &native[..])),
        );
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn unit_vectors() {
        let v = CodeVector::unit(4, 2);
        assert_eq!(v.as_bytes(), &[0, 0, 1, 0]);
        assert_eq!(v.leading_index(), Some(2));
        assert!(!v.is_zero());
    }

    #[test]
    fn zero_vector() {
        let v = CodeVector::zero(3);
        assert!(v.is_zero());
        assert_eq!(v.leading_index(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unit_out_of_range_panics() {
        let _ = CodeVector::unit(3, 3);
    }

    #[test]
    fn vector_axpy() {
        let mut a = CodeVector::from_bytes(vec![1, 2, 3]);
        let b = CodeVector::from_bytes(vec![4, 5, 6]);
        a.mul_add_assign(&b, Gf256(2));
        for i in 0..3 {
            let expect = Gf256([1, 2, 3][i]) + Gf256([4, 5, 6][i]) * Gf256(2);
            assert_eq!(a.coeff(i), expect);
        }
    }

    #[test]
    fn axpy_chunked_matches_axpy_many_across_chunk_boundaries() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for n in [0usize, 1, 15, 16, 17, 33] {
            let srcs: Vec<Vec<u8>> = (0..n)
                .map(|_| {
                    let mut s = vec![0u8; 24];
                    rng.fill(&mut s[..]);
                    s
                })
                .collect();
            let coeffs: Vec<Gf256> = (0..n).map(|_| Gf256(rng.gen_range(1..=255u8))).collect();
            let terms: Vec<(Gf256, &[u8])> = coeffs
                .iter()
                .zip(&srcs)
                .map(|(&c, s)| (c, &s[..]))
                .collect();
            let mut want = vec![0u8; 24];
            slice_ops::axpy_many(&mut want, &terms);
            let mut got = vec![0u8; 24];
            axpy_chunked(&mut got, terms.iter().copied());
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn flat_packet_slices_line_up() {
        let p = CodedPacket::from_parts(&[1, 2, 3], &[9, 8, 7, 6]);
        assert_eq!(p.k(), 3);
        assert_eq!(p.payload_len(), 4);
        assert_eq!(p.vector(), &[1, 2, 3]);
        assert_eq!(p.payload(), &[9, 8, 7, 6]);
        assert_eq!(p.coeff(1), Gf256(2));
        assert!(!p.vector_is_zero());
        assert_eq!(&p.data()[..], &[1, 2, 3, 9, 8, 7, 6]);
        // Clone shares the flat buffer instead of copying it.
        let q = p.clone();
        assert_eq!(q.into_data(), p.into_data());
    }

    #[test]
    fn encoder_rejects_bad_batches() {
        assert!(matches!(
            SourceEncoder::new(Vec::<Vec<u8>>::new()),
            Err(CodingError::BadBatch(_))
        ));
        assert!(matches!(
            SourceEncoder::new(vec![vec![1u8, 2], vec![3u8]]),
            Err(CodingError::BadBatch(_))
        ));
        assert!(matches!(
            SourceEncoder::new(vec![Vec::<u8>::new()]),
            Err(CodingError::BadBatch(_))
        ));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // i is both unit index and native index
    fn encode_with_unit_vector_reproduces_native() {
        let natives = vec![vec![1u8, 2, 3], vec![4u8, 5, 6]];
        let enc = SourceEncoder::new(natives.clone()).unwrap();
        for i in 0..2 {
            let p = enc.encode_with(CodeVector::unit(2, i));
            assert_eq!(p.payload(), &natives[i][..]);
        }
    }

    #[test]
    fn encode_is_linear_in_the_vector() {
        let natives = vec![vec![10u8; 32], vec![20u8; 32], vec![30u8; 32]];
        let enc = SourceEncoder::new(natives).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let va = CodeVector::random(3, &mut rng);
        let vb = CodeVector::random(3, &mut rng);
        let mut vsum = va.clone();
        vsum.mul_add_assign(&vb, Gf256::ONE);

        let pa = enc.encode_with(&va);
        let pb = enc.encode_with(&vb);
        let psum = enc.encode_with(&vsum);
        let xor: Vec<u8> = pa
            .payload()
            .iter()
            .zip(pb.payload().iter())
            .map(|(a, b)| a ^ b)
            .collect();
        assert_eq!(psum.payload(), &xor[..]);
    }

    #[test]
    fn random_encode_has_right_shape() {
        let enc = SourceEncoder::new(vec![vec![0xAAu8; 100]; 5]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p = enc.encode(&mut rng);
        assert_eq!(p.k(), 5);
        assert_eq!(p.payload_len(), 100);
    }

    #[test]
    fn encode_draws_the_same_coefficients_as_code_vector_random() {
        // The flat path fills its coefficient head with the exact bytes
        // `CodeVector::random` would draw — the determinism contract that
        // keeps pre-rewrite golden runs byte-identical.
        let enc = SourceEncoder::new(vec![vec![5u8; 16]; 4]).unwrap();
        let p = enc.encode(&mut ChaCha8Rng::seed_from_u64(77));
        let v = CodeVector::random(4, &mut ChaCha8Rng::seed_from_u64(77));
        assert_eq!(p.vector(), v.as_bytes());
    }

    #[test]
    fn debug_format() {
        let v = CodeVector::from_bytes(vec![0xAB, 0x00]);
        assert_eq!(format!("{v:?}"), "CodeVector[AB 00]");
    }
}
