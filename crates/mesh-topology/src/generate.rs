//! Generators for every topology the MORE evaluation uses.
//!
//! * [`motivating`] — the 3-node example of Fig 1-1 / §2.1.1.
//! * [`line()`] — an n-hop chain with optional lossy "shortcut" links; the
//!   4-hop variant is the spatial-reuse workload of Fig 4-4.
//! * [`diamond`] — the Fig 5-1 topology whose ETX-vs-EOTX cost gap is
//!   unbounded.
//! * [`testbed`] — a 20-node, 3-floor indoor mesh statistically matched to
//!   the paper's testbed (§4.1: link loss 0–60 %, mean ≈ 27 %, paths 1–5
//!   hops).
//! * [`random_mesh`] — arbitrary-size meshes from the same radio model.
//!
//! All generators are deterministic in their seed.

#![expect(
    clippy::indexing_slicing,
    clippy::panic,
    reason = "grid and position vectors are sized from the node count computed in the same function; panicking after 512 rejected attempts is the documented contract for statistically impossible seeds."
)]

use crate::spatial::CellGrid;
use crate::{Link, NodeId, Position, Topology};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The Fig 1-1 motivating example: src(0) → R(1) → dst(2).
///
/// §2.1.1 fixes the numbers: the two-hop path has ETX 2, the direct link
/// has delivery 0.49 (ETX 2.04).
pub fn motivating() -> Topology {
    Topology::from_matrix(
        "motivating",
        vec![
            vec![0.0, 1.0, 0.49],
            vec![0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0],
        ],
    )
}

/// The Fig 1-1 example with symmetric links, for protocols that need a
/// reverse path (MAC ACKs, batch ACKs). Same ETX structure: two perfect
/// hops vs a 0.49 direct link.
pub fn motivating_symmetric() -> Topology {
    Topology::from_matrix(
        "motivating-sym",
        vec![
            vec![0.0, 1.0, 0.49],
            vec![1.0, 0.0, 1.0],
            vec![0.49, 1.0, 0.0],
        ],
    )
}

/// An `hops`-hop chain: node 0 is the source, node `hops` the destination.
///
/// Adjacent delivery is `p_adj`; a link that skips `s` extra hops has
/// delivery `p_adj * skip_decay^s`, cut off below 2 %. Links are symmetric.
/// Positions are laid out on a line with `spacing` meters per hop so the
/// simulator's carrier-sense range determines which hops can fire
/// concurrently (the Fig 4-4 scenario).
#[allow(clippy::needless_range_loop)] // index pairs (i,j) address a square matrix
pub fn line(hops: usize, p_adj: f64, skip_decay: f64, spacing: f64) -> Topology {
    assert!(hops >= 1, "need at least one hop");
    assert!((0.0..=1.0).contains(&p_adj));
    assert!((0.0..=1.0).contains(&skip_decay));
    let n = hops + 1;
    let mut m = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let span = i.abs_diff(j);
            let p = p_adj * skip_decay.powi(span as i32 - 1);
            if p >= 0.02 {
                m[i][j] = p;
            }
        }
    }
    let positions = (0..n)
        .map(|i| Position {
            x: i as f64 * spacing,
            y: 0.0,
            floor: 0,
        })
        .collect();
    Topology::from_matrix(format!("line{hops}"), m).with_positions(positions)
}

/// The Fig 5-1 "unbounded cost gap" diamond.
///
/// Nodes: `0 = src`, `1 = A`, `2 = B`, `3..3+k = C₁…C_k`, `3+k = dst`.
///
/// * src → A with probability `p`; A → dst perfectly.
/// * src → B perfectly; B → each Cᵢ with probability `p`; Cᵢ → dst
///   perfectly.
///
/// ETX ranks B with the source (ETX = 1/p + 1), so ETX-ordered forwarding
/// "will always discard B as a forwarder"; EOTX exploits the k independent
/// C-forwarders and drives the cost ratio to k as p → 0.
#[allow(clippy::needless_range_loop)] // index pairs (i,j) address a square matrix
pub fn diamond(k: usize, p: f64) -> Topology {
    assert!(k >= 1, "need at least one C node");
    assert!((0.0..=1.0).contains(&p));
    let n = k + 4; // src, A, B, C1..Ck, dst
    let src = 0;
    let a = 1;
    let b = 2;
    let dst = n - 1;
    let mut m = vec![vec![0.0; n]; n];
    m[src][a] = p;
    m[a][dst] = 1.0;
    m[src][b] = 1.0;
    for c in 3..3 + k {
        m[b][c] = p;
        m[c][dst] = 1.0;
    }
    Topology::from_matrix(format!("diamond{k}"), m)
}

/// The Fig 5-1 diamond with every link mirrored (same delivery both
/// ways), for protocols that need reverse paths (MAC ACKs, batch ACKs).
/// Forward metric structure — and hence the ETX-vs-EOTX ordering story —
/// is unchanged.
#[allow(clippy::needless_range_loop)] // index pairs (i,j) address a square matrix
pub fn diamond_symmetricized(k: usize, p: f64) -> Topology {
    let base = diamond(k, p);
    let n = base.n();
    let bm = base.matrix();
    let mut m = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            m[i][j] = bm[i][j].max(bm[j][i]);
        }
    }
    // One collision domain: the Chapter-5 model assumes transmissions do
    // not interfere, which CSMA approximates only when everyone senses
    // everyone. Cluster the nodes well inside carrier-sense range.
    let positions = (0..n)
        .map(|i| {
            let angle = i as f64 / n as f64 * std::f64::consts::TAU;
            Position {
                x: 10.0 + 8.0 * angle.cos(),
                y: 10.0 + 8.0 * angle.sin(),
                floor: 0,
            }
        })
        .collect();
    Topology::from_matrix(format!("diamond-sym{k}"), m).with_positions(positions)
}

/// Node ids of the named diamond roles, in the order
/// `(src, a, b, cs, dst)`.
pub fn diamond_roles(k: usize) -> (NodeId, NodeId, NodeId, Vec<NodeId>, NodeId) {
    (
        NodeId(0),
        NodeId(1),
        NodeId(2),
        (3..3 + k).map(NodeId).collect(),
        NodeId(k + 3),
    )
}

/// Radio propagation model used by [`testbed`] and [`random_mesh`].
///
/// Delivery probability falls with distance along a logistic curve centred
/// on `half_distance` with slope width `spread`; per-link log-normal-ish
/// shadowing perturbs the effective distance, and floors add
/// `floor_penalty` meters each. Links with `p < min_delivery` are removed —
/// 802.11 management (beacon loss) would keep such neighbours out of the
/// routing tables anyway.
#[derive(Clone, Copy, Debug)]
pub struct RadioModel {
    /// Distance at which mean delivery is 50%, meters.
    pub half_distance: f64,
    /// Width of the logistic delivery-vs-distance slope, meters.
    pub spread: f64,
    /// Extra effective meters added per floor of separation.
    pub floor_penalty: f64,
    /// Standard deviation of the per-link shadowing term, meters.
    pub shadowing_sigma: f64,
    /// Links below this delivery probability are removed.
    pub min_delivery: f64,
    /// Ceiling on any link's delivery probability.
    pub max_delivery: f64,
}

impl Default for RadioModel {
    fn default() -> Self {
        RadioModel {
            half_distance: 19.0,
            spread: 3.5,
            floor_penalty: 11.0,
            shadowing_sigma: 5.0,
            min_delivery: 0.10,
            max_delivery: 0.98,
        }
    }
}

impl RadioModel {
    /// Mean delivery probability at effective distance `d` (no shadowing).
    pub fn delivery_at(&self, d: f64) -> f64 {
        let p = 1.0 / (1.0 + ((d - self.half_distance) / self.spread).exp());
        p.min(self.max_delivery)
    }
}

/// Approximate standard normal via the sum of 12 uniforms (Irwin–Hall);
/// plenty for shadowing noise and keeps us off `rand_distr`.
fn approx_normal<R: Rng>(rng: &mut R) -> f64 {
    (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0
}

/// Builds a delivery matrix from positions and a radio model.
pub fn matrix_from_positions(
    positions: &[Position],
    model: &RadioModel,
    rng: &mut impl Rng,
) -> Vec<Vec<f64>> {
    let n = positions.len();
    let mut m = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            // Symmetric shadowing per node pair plus small per-direction
            // asymmetry: measured 802.11 links are usually roughly, but not
            // exactly, symmetric.
            let base = positions[i].distance(&positions[j], model.floor_penalty);
            let shadow = approx_normal(rng) * model.shadowing_sigma;
            let d_eff = (base + shadow).max(0.0);
            let p = model.delivery_at(d_eff);
            let asym = 1.0 + 0.05 * approx_normal(rng).clamp(-2.0, 2.0);
            let pij = (p * asym).clamp(0.0, model.max_delivery);
            let pji = (p / asym).clamp(0.0, model.max_delivery);
            // Link existence is symmetric: if either direction falls below
            // the floor, the pair is not neighbours (Roofnet's ETX prober
            // drops links whose reverse probe rate is too low — a one-way
            // link is unusable under 802.11's ACK'd unicast anyway).
            if pij >= model.min_delivery && pji >= model.min_delivery {
                m[i][j] = pij;
                m[j][i] = pji;
            }
        }
    }
    m
}

/// Scatters `n` nodes over `floors` storeys of a `width × depth` meter
/// building with a minimum pairwise separation (rejection sampling).
///
/// The same-floor separation check runs against a per-floor [`CellGrid`]
/// so each attempt costs O(points-in-nearby-cells) instead of O(placed).
/// The accept/reject decision — and therefore the RNG draw sequence and
/// the returned layout — is identical to the historical linear scan: the
/// check consumes no randomness, and the grid merely narrows which
/// already-placed points the exact distance predicate visits.
pub fn scatter_positions(
    n: usize,
    floors: i32,
    width: f64,
    depth: f64,
    min_separation: f64,
    rng: &mut impl Rng,
) -> Vec<Position> {
    let mut positions: Vec<Position> = Vec::with_capacity(n);
    let mut grids: Vec<CellGrid> = (0..floors.max(1))
        .map(|_| CellGrid::new(0.0, 0.0, width, depth, min_separation))
        .collect();
    let mut attempts = 0;
    while positions.len() < n {
        attempts += 1;
        let candidate = Position {
            x: rng.gen::<f64>() * width,
            y: rng.gen::<f64>() * depth,
            floor: (positions.len() as i32) % floors,
        };
        let grid = &mut grids[candidate.floor as usize];
        let mut ok = true;
        grid.for_each_candidate(candidate.x, candidate.y, min_separation, |id| {
            let p = &positions[id as usize];
            if p.distance(&candidate, 0.0) < min_separation {
                ok = false;
            }
        });
        if ok || attempts > 200 * n {
            grid.insert(positions.len() as u32, candidate.x, candidate.y);
            positions.push(candidate);
        }
    }
    positions
}

/// Statistics a generated testbed must satisfy to stand in for §4.1.
#[derive(Clone, Copy, Debug)]
pub struct TestbedTargets {
    /// Minimum acceptable mean link loss.
    pub mean_loss_lo: f64,
    /// Maximum acceptable mean link loss.
    pub mean_loss_hi: f64,
    /// Minimum acceptable network diameter, hops.
    pub max_hops_lo: usize,
    /// Maximum acceptable network diameter, hops.
    pub max_hops_hi: usize,
}

impl Default for TestbedTargets {
    fn default() -> Self {
        TestbedTargets {
            mean_loss_lo: 0.30,
            mean_loss_hi: 0.60,
            max_hops_lo: 4,
            max_hops_hi: 7,
        }
    }
}

pub use crate::streams::{
    CITY_LINK_STREAM, CITY_SCATTER_STREAM, MESH_ATTEMPT_STREAM, TESTBED_ATTEMPT_STREAM,
};

/// A 20-node, 3-floor indoor testbed statistically matched to §4.1.
///
/// Deterministic in `seed`; internally retries derived seeds until the
/// generated mesh is connected, its mean link loss lands near the paper's
/// 27 %, and shortest paths span 1–5+ hops.
pub fn testbed(seed: u64) -> Topology {
    testbed_sized(20, seed)
}

/// Same generator for an arbitrary node count (used in scaling tests).
pub fn testbed_sized(n: usize, seed: u64) -> Topology {
    let targets = TestbedTargets::default();
    let model = RadioModel::default();
    for attempt in 0..512u64 {
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ attempt.wrapping_mul(TESTBED_ATTEMPT_STREAM));
        let positions = scatter_positions(n, 3, 56.0, 36.0, 6.0, &mut rng);
        let m = matrix_from_positions(&positions, &model, &mut rng);
        let topo =
            Topology::from_matrix(format!("testbed{n}-s{seed}"), m).with_positions(positions);
        if !topo.is_connected() {
            continue;
        }
        let loss = topo.mean_link_loss();
        if loss < targets.mean_loss_lo || loss > targets.mean_loss_hi {
            continue;
        }
        let max_hops = topo
            .nodes()
            .flat_map(|a| topo.hops_from(a).into_iter().flatten())
            .max()
            .unwrap_or(0);
        if max_hops < targets.max_hops_lo || max_hops > targets.max_hops_hi {
            continue;
        }
        return topo;
    }
    panic!("testbed generation failed to satisfy targets after 512 attempts (seed {seed})");
}

/// A random `n`-node mesh over one floor of `width × depth` meters.
pub fn random_mesh(n: usize, width: f64, depth: f64, seed: u64) -> Topology {
    let model = RadioModel::default();
    for attempt in 0..512u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ attempt.wrapping_mul(MESH_ATTEMPT_STREAM));
        let positions = scatter_positions(n, 1, width, depth, 4.0, &mut rng);
        let m = matrix_from_positions(&positions, &model, &mut rng);
        let topo = Topology::from_matrix(format!("mesh{n}-s{seed}"), m).with_positions(positions);
        if topo.is_connected() {
            return topo;
        }
    }
    panic!("random mesh generation failed to connect after 512 attempts (seed {seed})");
}

/// splitmix64 finalizer: decorrelates consecutive pair indices into
/// well-spread RNG seeds.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed for the unordered pair `(i, j)`, `i < j`: a pure function of the
/// city seed and the pair, so link draws do not depend on the order in
/// which the spatial grid enumerates candidates.
fn city_pair_seed(seed: u64, i: usize, j: usize) -> u64 {
    seed ^ CITY_LINK_STREAM ^ mix64(((i as u64) << 32) | j as u64)
}

/// Largest ground distance at which any shadowing/asymmetry draw can
/// still produce a link under `model`: beyond it, even the luckiest
/// Irwin–Hall shadow (−6σ) and asymmetry (×1.1) leave both directions
/// under `min_delivery`.
fn max_link_distance(model: &RadioModel) -> f64 {
    // Logistic inverse at `min_delivery / 1.1` — conservatively below
    // the true weakest passable probability (asymmetry can only shrink
    // the weaker direction, so `min_delivery` itself would suffice) —
    // plus the maximum favorable shadow.
    let q = model.min_delivery / 1.1;
    let d_eff_max = model.half_distance + model.spread * (1.0 / q - 1.0).ln();
    d_eff_max + 6.0 * model.shadowing_sigma
}

/// A city-scale single-floor mesh: `n` nodes at ~1250 m² per node, links
/// drawn from the default [`RadioModel`] with *per-pair* RNG streams.
///
/// Unlike [`random_mesh`], this generator never materializes an `n × n`
/// matrix and never retries for connectivity — sparse city meshes
/// legitimately contain dead spots, and at 10k+ nodes a connectivity
/// requirement would reject almost every layout. Candidate pairs come
/// from a [`CellGrid`] query bounded by the model's maximum plausible
/// link distance; each unordered pair draws its shadowing and asymmetry
/// from its own ChaCha8 stream (the run seed xor `CITY_LINK_STREAM`
/// mixed with the pair index), so the result is a pure function of
/// `(n, seed)` regardless of grid enumeration order.
pub fn city_mesh(n: usize, seed: u64) -> Topology {
    assert!(n >= 1, "need at least one node");
    let model = RadioModel::default();
    let side = ((n as f64) * 1250.0).sqrt();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ CITY_SCATTER_STREAM);
    let positions = scatter_positions(n, 1, side, side, 4.0, &mut rng);
    let r_max = max_link_distance(&model);
    let grid = CellGrid::from_positions(&positions, r_max);
    let mut links = Vec::new();
    for i in 0..n {
        let pi = positions[i];
        grid.for_each_candidate(pi.x, pi.y, r_max, |jj| {
            let j = jj as usize;
            if j <= i {
                return;
            }
            let base = pi.distance(&positions[j], model.floor_penalty);
            if base > r_max {
                return;
            }
            // xtask: allow(rng_stream) -- city_pair_seed is the run seed ^ CITY_LINK_STREAM mixed with the unordered pair index (a per-pair stream; see streams.rs).
            let mut pair_rng = ChaCha8Rng::seed_from_u64(city_pair_seed(seed, i, j));
            let shadow = approx_normal(&mut pair_rng) * model.shadowing_sigma;
            let d_eff = (base + shadow).max(0.0);
            let p = model.delivery_at(d_eff);
            let asym = 1.0 + 0.05 * approx_normal(&mut pair_rng).clamp(-2.0, 2.0);
            let pij = (p * asym).clamp(0.0, model.max_delivery);
            let pji = (p / asym).clamp(0.0, model.max_delivery);
            if pij >= model.min_delivery && pji >= model.min_delivery {
                links.push(Link {
                    from: NodeId(i),
                    to: NodeId(j),
                    delivery: pij,
                });
                links.push(Link {
                    from: NodeId(j),
                    to: NodeId(i),
                    delivery: pji,
                });
            }
        });
    }
    Topology::from_links(format!("city{n}-s{seed}"), n, links).with_positions(positions)
}

/// A `w × h` grid with adjacent delivery `p_adj` and diagonal delivery
/// `p_diag`, `spacing` meters apart. Useful for regular-mesh experiments.
pub fn grid(w: usize, h: usize, p_adj: f64, p_diag: f64, spacing: f64) -> Topology {
    assert!(w >= 1 && h >= 1);
    let n = w * h;
    let idx = |x: usize, y: usize| y * w + x;
    let mut m = vec![vec![0.0; n]; n];
    for y in 0..h {
        for x in 0..w {
            let i = idx(x, y);
            let mut put = |j: usize, p: f64| {
                m[i][j] = p;
                m[j][i] = p;
            };
            if x + 1 < w {
                put(idx(x + 1, y), p_adj);
            }
            if y + 1 < h {
                put(idx(x, y + 1), p_adj);
            }
            if p_diag > 0.0 && x + 1 < w && y + 1 < h {
                put(idx(x + 1, y + 1), p_diag);
            }
            if p_diag > 0.0 && x >= 1 && y + 1 < h {
                put(idx(x - 1, y + 1), p_diag);
            }
        }
    }
    let positions = (0..n)
        .map(|i| Position {
            x: (i % w) as f64 * spacing,
            y: (i / w) as f64 * spacing,
            floor: 0,
        })
        .collect();
    Topology::from_matrix(format!("grid{w}x{h}"), m).with_positions(positions)
}

#[cfg(test)]
mod test {
    use super::*;

    /// Diagnostic: print what the generator produces, to tune the radio
    /// model. `cargo test -p mesh-topology testbed_diagnostics -- --ignored --nocapture`
    #[test]
    #[ignore]
    fn testbed_diagnostics() {
        let model = RadioModel::default();
        for seed in 0..8u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let positions = scatter_positions(20, 3, 56.0, 36.0, 6.0, &mut rng);
            let m = matrix_from_positions(&positions, &model, &mut rng);
            let topo = Topology::from_matrix("diag", m).with_positions(positions);
            let connected = topo.is_connected();
            let loss = topo.mean_link_loss();
            let max_hops = topo
                .nodes()
                .flat_map(|a| topo.nodes().map(move |b| (a, b)))
                .filter(|(a, b)| a != b)
                .filter_map(|(a, b)| topo.hop_count(a, b))
                .max()
                .unwrap_or(0);
            println!(
                "seed {seed}: connected={connected} links={} mean_loss={loss:.3} max_hops={max_hops}",
                topo.links().count()
            );
        }
    }

    #[test]
    fn motivating_matches_the_paper_numbers() {
        let t = motivating();
        assert_eq!(t.n(), 3);
        assert_eq!(t.delivery(NodeId(0), NodeId(1)), 1.0);
        assert_eq!(t.delivery(NodeId(1), NodeId(2)), 1.0);
        assert_eq!(t.delivery(NodeId(0), NodeId(2)), 0.49);
    }

    #[test]
    fn line_shape() {
        let t = line(4, 0.8, 0.25, 30.0);
        assert_eq!(t.n(), 5);
        assert_eq!(t.delivery(NodeId(0), NodeId(1)), 0.8);
        assert_eq!(t.delivery(NodeId(1), NodeId(0)), 0.8);
        // Skip-1 link: 0.8 * 0.25 = 0.2.
        assert!((t.delivery(NodeId(0), NodeId(2)) - 0.2).abs() < 1e-12);
        // Skip-3: 0.8 * 0.25^3 = 0.0125 < 2% cutoff -> no link.
        assert_eq!(t.delivery(NodeId(0), NodeId(4)), 0.0);
        assert_eq!(t.positions().unwrap()[4].x, 120.0);
    }

    #[test]
    fn diamond_structure() {
        let k = 5;
        let t = diamond(k, 0.1);
        let (src, a, b, cs, dst) = diamond_roles(k);
        assert_eq!(t.n(), k + 4);
        assert_eq!(t.delivery(src, a), 0.1);
        assert_eq!(t.delivery(a, dst), 1.0);
        assert_eq!(t.delivery(src, b), 1.0);
        for c in &cs {
            assert_eq!(t.delivery(b, *c), 0.1);
            assert_eq!(t.delivery(*c, dst), 1.0);
        }
        // No reverse or stray links.
        assert_eq!(t.delivery(dst, a), 0.0);
        assert_eq!(t.delivery(a, b), 0.0);
    }

    #[test]
    fn diamond_symmetricized_mirrors_links() {
        let t = diamond_symmetricized(4, 0.2);
        let (src, a, _b, _cs, dst) = diamond_roles(4);
        assert_eq!(t.delivery(src, a), 0.2);
        assert_eq!(t.delivery(a, src), 0.2);
        assert_eq!(t.delivery(dst, a), 1.0);
        assert!(t.is_connected());
    }

    #[test]
    fn testbed_statistics_match_the_paper() {
        let t = testbed(7);
        assert_eq!(t.n(), 20);
        assert!(t.is_connected());
        let loss = t.mean_link_loss();
        assert!(
            (0.30..=0.60).contains(&loss),
            "mean link loss {loss} outside band"
        );
        // Loss rates of individual links span a wide range (paper: 0-60%).
        let losses: Vec<f64> = t.links().map(|l| 1.0 - l.delivery).collect();
        let lo = losses.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = losses.iter().cloned().fold(0.0, f64::max);
        assert!(lo < 0.15, "even the best link is lossy: {lo}");
        assert!(hi > 0.5, "no challenged links at all: {hi}");
        // Paths reach 4+ hops somewhere.
        let max_hops = t
            .nodes()
            .flat_map(|a| t.nodes().map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
            .filter_map(|(a, b)| t.hop_count(a, b))
            .max()
            .unwrap();
        assert!((4..=7).contains(&max_hops), "max hops {max_hops}");
    }

    #[test]
    fn testbed_is_deterministic_in_seed() {
        let a = testbed(3);
        let b = testbed(3);
        assert_eq!(a.matrix(), b.matrix());
        let c = testbed(4);
        assert_ne!(a.matrix(), c.matrix());
    }

    #[test]
    fn random_mesh_connected() {
        for seed in 0..3 {
            let t = random_mesh(12, 80.0, 50.0, seed);
            assert!(t.is_connected());
            assert_eq!(t.n(), 12);
        }
    }

    #[test]
    fn grid_shape() {
        let t = grid(3, 2, 0.9, 0.4, 20.0);
        assert_eq!(t.n(), 6);
        assert_eq!(t.delivery(NodeId(0), NodeId(1)), 0.9);
        assert_eq!(t.delivery(NodeId(0), NodeId(3)), 0.9);
        assert_eq!(t.delivery(NodeId(0), NodeId(4)), 0.4);
        assert_eq!(t.delivery(NodeId(0), NodeId(5)), 0.0);
        assert!(t.is_connected());
    }

    #[test]
    fn city_mesh_deterministic_and_sparse() {
        let a = city_mesh(200, 9);
        let b = city_mesh(200, 9);
        assert_eq!(a.matrix(), b.matrix());
        assert_ne!(a.matrix(), city_mesh(200, 10).matrix());
        assert_eq!(a.n(), 200);
        assert!(a.positions().is_some());
        // ~1250 m²/node with a ~57 m link radius keeps degree bounded:
        // the link set must be far below the dense n² ceiling.
        assert!(
            a.link_count() < 40 * a.n(),
            "city mesh is not sparse: {} links",
            a.link_count()
        );
        assert!(a.link_count() > 0, "city mesh has no links at all");
    }

    #[test]
    fn city_mesh_matches_all_pairs_reference() {
        // The grid only narrows which pairs are *examined*; per-pair RNG
        // seeding makes the outcome identical to brute-force enumeration.
        let n = 60;
        let seed = 4;
        let t = city_mesh(n, seed);
        let model = RadioModel::default();
        let positions = t.positions().unwrap();
        let r_max = max_link_distance(&model);
        for i in 0..n {
            for j in (i + 1)..n {
                let base = positions[i].distance(&positions[j], model.floor_penalty);
                let (mut pij, mut pji) = (0.0, 0.0);
                if base <= r_max {
                    let mut rng = ChaCha8Rng::seed_from_u64(city_pair_seed(seed, i, j));
                    let shadow = approx_normal(&mut rng) * model.shadowing_sigma;
                    let p = model.delivery_at((base + shadow).max(0.0));
                    let asym = 1.0 + 0.05 * approx_normal(&mut rng).clamp(-2.0, 2.0);
                    let a = (p * asym).clamp(0.0, model.max_delivery);
                    let b = (p / asym).clamp(0.0, model.max_delivery);
                    if a >= model.min_delivery && b >= model.min_delivery {
                        (pij, pji) = (a, b);
                    }
                }
                assert_eq!(t.delivery(NodeId(i), NodeId(j)), pij, "({i},{j})");
                assert_eq!(t.delivery(NodeId(j), NodeId(i)), pji, "({j},{i})");
            }
        }
    }

    #[test]
    fn beyond_max_link_distance_no_draw_can_link() {
        let model = RadioModel::default();
        let d = max_link_distance(&model);
        // Even with the most favorable possible shadow (−6σ) the base
        // probability is already below the floor, and asymmetry can only
        // shrink the weaker direction (min(p·a, p/a) ≤ p), so no draw at
        // distance ≥ d can produce a link.
        let p = model.delivery_at((d - 6.0 * model.shadowing_sigma).max(0.0));
        assert!(p < model.min_delivery);
    }

    #[test]
    fn radio_model_monotone_in_distance() {
        let m = RadioModel::default();
        let mut prev = 1.0;
        for d in 0..80 {
            let p = m.delivery_at(d as f64);
            assert!(p <= prev + 1e-12, "delivery not monotone at {d}");
            prev = p;
        }
        assert!(m.delivery_at(0.0) > 0.9);
        assert!(m.delivery_at(70.0) < 0.05);
    }
}
