//! Table 4.1: average computational cost of packet operations in MORE.
//!
//! The paper measures, for K = 32 and 1500 B packets on a Celeron 800 MHz:
//!
//! | operation          | avg    |
//! |--------------------|--------|
//! | independence check | 10 µs  |
//! | coding at source   | 270 µs |
//! | decoding           | 260 µs |
//!
//! Absolute numbers on modern hardware are far smaller; the *shape* to
//! reproduce is: coding ≈ decoding ≫ independence check, and the coding
//! cost scaling linearly in K (§4.6a ties K to the sustainable bit-rate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use more_core::batch_natives;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rlnc::{CodeVector, Decoder, InnovationTracker, SourceEncoder};
use std::hint::black_box;

const PACKET: usize = 1500;

fn bench_independence_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4_1/independence_check");
    for k in [8usize, 32, 128] {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // A tracker holding K−1 vectors: the worst-case check.
        let mut tracker = InnovationTracker::new(k);
        while tracker.rank() < k - 1 {
            tracker.absorb(CodeVector::random(k, &mut rng));
        }
        let probe = CodeVector::random(k, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(tracker.is_innovative(black_box(&probe))))
        });
    }
    group.finish();
}

fn bench_source_coding(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4_1/coding_at_source");
    for k in [8usize, 32, 128] {
        let natives = batch_natives(1, 0, k, PACKET);
        let enc = SourceEncoder::new(natives).expect("valid batch");
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        group.throughput(Throughput::Bytes(PACKET as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(enc.encode(&mut rng)))
        });
    }
    group.finish();
}

fn bench_decoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4_1/decoding");
    for k in [8usize, 32, 128] {
        let natives = batch_natives(1, 0, k, PACKET);
        let enc = SourceEncoder::new(natives).expect("valid batch");
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // Pre-generate a decodable set of packets; per-packet decode cost
        // = total batch decode / K (matches the paper's per-packet form).
        let packets: Vec<_> = (0..4 * k).map(|_| enc.encode(&mut rng)).collect();
        group.throughput(Throughput::Bytes(PACKET as u64 * k as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                let mut dec = Decoder::new(k, PACKET);
                for p in &packets {
                    if dec.is_complete() {
                        break;
                    }
                    dec.receive(p);
                }
                assert!(dec.is_complete(), "not enough packets to decode");
                black_box(dec.rank())
            })
        });
    }
    group.finish();
}

fn bench_forwarder_recode(c: &mut Criterion) {
    // Not a Table 4.1 row, but the paper notes the forwarder's coding cost
    // is bounded by the source's (it combines at most rank ≤ K packets);
    // verify the bound holds.
    let mut group = c.benchmark_group("table4_1/forwarder_recode");
    let k = 32usize;
    let natives = batch_natives(1, 0, k, PACKET);
    let enc = SourceEncoder::new(natives).expect("valid batch");
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for stored in [4usize, 16, 32] {
        let mut buf = rlnc::ForwarderBuffer::new(k, PACKET);
        while buf.rank() < stored {
            buf.receive(&enc.encode(&mut rng), &mut rng);
        }
        group.bench_with_input(BenchmarkId::from_parameter(stored), &stored, |b, _| {
            b.iter(|| black_box(buf.emit(&mut rng)))
        });
    }
    group.finish();
}

criterion_group!(
    table4_1,
    bench_independence_check,
    bench_source_coding,
    bench_decoding,
    bench_forwarder_recode
);
criterion_main!(table4_1);
