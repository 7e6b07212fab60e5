//! Direct calls into single layers — GF(2⁸) kernels, RLNC coding,
//! routing metrics and the medium — timed at paper size (testbed,
//! K=32, 1500 B) and at the sizes that stress them (K=128, the 10k-node
//! city mesh).

use crate::stats::median;
use gf256::{slice_ops, Gf256};
use mesh_metrics::etx::LinkCost;
use mesh_metrics::{EotxTable, EtxTable, ForwarderPlan, PlanConfig};
use mesh_sim::medium::Transmission;
use mesh_sim::{ChannelSpec, Medium, SimConfig};
use mesh_topology::{NodeId, Topology};
use more_scenario::random_pairs;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlnc::{Decoder, ForwarderBuffer, SourceEncoder};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Payload bytes per packet, the paper's 1500 B frames.
pub const PAYLOAD: usize = 1500;

const CHUNKS: u32 = 5;
/// Calls between clock reads, so reading the clock stays a small part
/// of a nanosecond-scale call.
const BATCH: u64 = 8;

/// Median over [`CHUNKS`] chunks of the mean host seconds per call of
/// `f`, the chunks together running for about `budget`.
pub fn per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let chunk = budget / CHUNKS;
    let samples: Vec<f64> = (0..CHUNKS)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u64;
            loop {
                for _ in 0..BATCH {
                    f();
                }
                calls += BATCH;
                let dt = t0.elapsed();
                if dt >= chunk {
                    return dt.as_secs_f64() / calls as f64;
                }
            }
        })
        .collect();
    median(&samples)
}

fn natives(k: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<u8>> {
    (0..k)
        .map(|_| (0..PAYLOAD).map(|_| rng.gen()).collect())
        .collect()
}

/// `rlnc.*_us.k<K>` and `gf256.axpy_many_mbps.k<K>`.
pub fn coding(k: usize, budget: Duration) -> Vec<(String, f64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(k as u64);
    let enc = SourceEncoder::new(natives(k, &mut rng)).expect("K equal-length natives");
    let encode = per_call(budget, || {
        black_box(enc.encode(&mut rng));
    });

    let coded: Vec<_> = (0..2 * k).map(|_| enc.encode(&mut rng)).collect();
    let mut buf = ForwarderBuffer::new(k, PAYLOAD);
    for p in &coded {
        buf.receive(p, &mut rng);
    }
    let precode = per_call(budget, || {
        buf.precode(&mut rng);
        black_box(buf.rank());
    });

    // One full-batch decode per call, charged per received packet.
    let decode_batch = per_call(budget, || {
        let mut dec = Decoder::new(k, PAYLOAD);
        for p in &coded {
            if dec.is_complete() {
                break;
            }
            dec.receive(p);
        }
        assert!(dec.is_complete(), "2K random packets leave the batch short");
        black_box(dec.rank());
    });

    let srcs = natives(k, &mut rng);
    let terms: Vec<(Gf256, &[u8])> = srcs
        .iter()
        .enumerate()
        .map(|(i, s)| (Gf256((i % 255 + 1) as u8), s.as_slice()))
        .collect();
    let mut dst = vec![0u8; PAYLOAD];
    let axpy = per_call(budget, || {
        slice_ops::axpy_many(&mut dst, &terms);
        black_box(&dst);
    });

    vec![
        (format!("rlnc.encode_us.k{k}"), encode * 1e6),
        (format!("rlnc.precode_us.k{k}"), precode * 1e6),
        (
            format!("rlnc.decode_us.k{k}"),
            decode_batch * 1e6 / k as f64,
        ),
        (
            format!("gf256.axpy_many_mbps.k{k}"),
            (k * PAYLOAD) as f64 / axpy / 1e6,
        ),
    ]
}

/// `metrics.{etx,eotx,plan}_us.<label>`: per-destination ETX and EOTX
/// tables and Algorithm-1 forwarder plans for reachable pairs of `topo`.
pub fn routing(topo: &Topology, label: &str, budget: Duration) -> Vec<(String, f64)> {
    let pairs = random_pairs(topo, 8, 1);
    let mut i = 0usize;
    let mut next = || {
        i = (i + 1) % pairs.len();
        pairs[i]
    };
    let etx = per_call(budget, || {
        black_box(EtxTable::compute(topo, next().1, LinkCost::Forward));
    });
    let eotx = per_call(budget, || {
        black_box(EotxTable::compute(topo, next().1));
    });
    let tables: Vec<_> = pairs
        .iter()
        .map(|&(s, d)| (s, d, EotxTable::compute(topo, d)))
        .collect();
    let mut j = 0usize;
    let cfg = PlanConfig::default();
    let plan = per_call(budget, || {
        j = (j + 1) % tables.len();
        let (s, d, t) = &tables[j];
        black_box(ForwarderPlan::compute(topo, *s, *d, t.distances(), &cfg));
    });
    vec![
        (format!("metrics.etx_us.{label}"), etx * 1e6),
        (format!("metrics.eotx_us.{label}"), eotx * 1e6),
        (format!("metrics.plan_us.{label}"), plan * 1e6),
    ]
}

/// `medium.eval_ns.<label>`: reception evaluation of a frame that
/// overlaps one transmission from a neighbour of its receivers.
pub fn medium(topo: &Topology, label: &str, budget: Duration) -> (String, f64) {
    let cfg = SimConfig::default();
    let chan = ChannelSpec::Static.build(topo, 1);
    let mut medium = Medium::new(topo, &cfg, chan.as_ref());
    // Transmitters with a neighbour to interfere from.
    let pairs: Vec<(NodeId, NodeId)> = random_pairs(topo, 64, 2)
        .into_iter()
        .filter_map(|(s, _)| topo.neighbors(s).next().map(|n| (s, n)))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let (mut collisions, mut captures) = (0u64, 0u64);
    let mut out = Vec::new();
    let (mut id, mut now) = (0u64, 0u64);
    let per_pair = per_call(budget, || {
        let (tx, other) = pairs[(id / 2) as usize % pairs.len()];
        for (node, t, offset) in [(tx, id, 0), (other, id + 1, 300)] {
            medium.begin(Transmission {
                id: t,
                tx: node,
                start: now + offset,
                end: now + offset + 2_000,
            });
        }
        for t in [id, id + 1] {
            medium.evaluate_reception_into(
                t,
                chan.as_ref(),
                &cfg,
                &mut rng,
                &mut collisions,
                &mut captures,
                &mut out,
            );
            black_box(out.len());
        }
        id += 2;
        now += 5_000;
        medium.prune(now);
    });
    (format!("medium.eval_ns.{label}"), per_pair / 2.0 * 1e9)
}
