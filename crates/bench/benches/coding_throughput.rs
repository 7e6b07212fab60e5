//! Coding-throughput micro-benches: wide vs scalar GF(256) kernels on the
//! RLNC hot path.
//!
//! Three groups:
//!
//! * `coding/encode` — source-side coded-packet production (`Σ cᵢ·pᵢ` via
//!   the batched `axpy_many` pass) per kernel family, across K;
//! * `coding/axpy` — the raw batching contract: one fused `axpy_many` pass
//!   vs K separate `mul_add_assign` passes over the same sources;
//! * `coding/decode` — full-batch incremental decode per kernel family
//!   (per-packet cost = measured time / K).
//!
//! perfbench (`perfbench/`, listed in `BENCHMARK.json`) times the same
//! encode/decode path, but only with the kernel family the host selects;
//! this harness is where the two families are compared.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gf256::slice_ops::{self, set_kernel, Kernel};
use gf256::Gf256;
use more_core::batch_natives;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rlnc::{Decoder, SourceEncoder};
use std::hint::black_box;

const PACKET: usize = 1500;

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("coding/encode");
    for k in [8usize, 32, 128] {
        let enc = SourceEncoder::new(batch_natives(1, 0, k, PACKET)).expect("valid batch");
        group.throughput(Throughput::Bytes(PACKET as u64));
        for (label, kernel) in [("scalar", Kernel::Scalar), ("wide", Kernel::Wide)] {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            set_kernel(kernel);
            group.bench_with_input(BenchmarkId::new(label, k), &k, |b, _| {
                b.iter(|| black_box(enc.encode(&mut rng)))
            });
            set_kernel(Kernel::Auto);
        }
    }
    group.finish();
}

fn bench_axpy(c: &mut Criterion) {
    let mut group = c.benchmark_group("coding/axpy");
    let k = 32usize;
    let sources: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..PACKET).map(|j| ((i * 31 + j) % 251) as u8).collect())
        .collect();
    let coeffs: Vec<Gf256> = (1..=k).map(|i| Gf256((i * 7 % 255 + 1) as u8)).collect();
    let terms: Vec<(Gf256, &[u8])> = coeffs
        .iter()
        .zip(&sources)
        .map(|(&c, s)| (c, s.as_slice()))
        .collect();
    group.throughput(Throughput::Bytes((PACKET * k) as u64));
    group.bench_function("fused_axpy_many", |b| {
        b.iter(|| {
            let mut dst = vec![0u8; PACKET];
            slice_ops::axpy_many(&mut dst, black_box(&terms));
            black_box(dst)
        })
    });
    group.bench_function("k_separate_passes", |b| {
        b.iter(|| {
            let mut dst = vec![0u8; PACKET];
            for &(c, s) in black_box(&terms) {
                slice_ops::mul_add_assign(&mut dst, s, c);
            }
            black_box(dst)
        })
    });
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("coding/decode");
    for k in [8usize, 32] {
        let enc = SourceEncoder::new(batch_natives(1, 0, k, PACKET)).expect("valid batch");
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let packets: Vec<_> = (0..2 * k).map(|_| enc.encode(&mut rng)).collect();
        group.throughput(Throughput::Bytes((PACKET * k) as u64));
        for (label, kernel) in [("scalar", Kernel::Scalar), ("wide", Kernel::Wide)] {
            set_kernel(kernel);
            group.bench_with_input(BenchmarkId::new(label, k), &k, |b, _| {
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
            set_kernel(Kernel::Auto);
        }
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_axpy, bench_decode);
criterion_main!(benches);
