//! The ETX-order vs EOTX-order cost gap (§5.7, Proposition 6).
//!
//! MORE and ExOR order forwarders by ETX because both pre-date EOTX. The
//! gap for a source–destination pair is the ratio of total transmissions
//! (Σ z_i from Algorithm 1) when the ordering comes from ETX versus EOTX.
//! Fig 5-1 shows a contrived diamond where the gap grows without bound
//! (→ k as p → 0); §5.7 measures the testbed and finds >40 % of pairs
//! unaffected and a median affected gap of ≈ 0.2 %.

use crate::credits::{ForwarderPlan, PlanConfig};
use crate::eotx::EotxTable;
use crate::etx::{EtxTable, LinkCost};
use mesh_topology::{NodeId, Topology};

/// Total expected transmissions for a unit flow when forwarders are
/// ordered by the given metric (no pruning — the theory-side cost).
pub fn total_cost_under_metric(topo: &Topology, src: NodeId, dst: NodeId, metric: &[f64]) -> f64 {
    ForwarderPlan::compute(topo, src, dst, metric, &PlanConfig::unpruned()).total_cost()
}

/// The §5.7 gap for one pair: `cost(ETX order) / cost(EOTX order)`.
///
/// ≥ 1 up to floating error; 1.0 means the orderings agree in effect.
pub fn pair_gap(topo: &Topology, src: NodeId, dst: NodeId) -> f64 {
    let etx = EtxTable::compute(topo, dst, LinkCost::Forward);
    let eotx = EotxTable::compute(topo, dst);
    let c_etx = total_cost_under_metric(topo, src, dst, etx.distances());
    let c_eotx = total_cost_under_metric(topo, src, dst, eotx.distances());
    c_etx / c_eotx
}

/// Aggregate gap statistics over all ordered reachable pairs (§5.7).
#[derive(Clone, Copy, Debug, Default)]
pub struct GapStats {
    /// Ordered pairs examined.
    pub pairs: usize,
    /// Fraction with gap ≤ `tolerance` (order change has no effect).
    pub unaffected_fraction: f64,
    /// Median gap − 1 among affected pairs (the paper reports 0.2 %).
    pub median_affected_excess: f64,
    /// Largest gap seen.
    pub max_gap: f64,
}

/// Computes [`GapStats`] over every ordered pair of distinct nodes.
pub fn testbed_gap_stats(topo: &Topology, tolerance: f64) -> GapStats {
    let mut gaps = Vec::new();
    for s in topo.nodes() {
        for d in topo.nodes() {
            if s == d {
                continue;
            }
            let etx = EtxTable::compute(topo, d, LinkCost::Forward);
            if !etx.dist(s).is_finite() {
                continue;
            }
            gaps.push(pair_gap(topo, s, d));
        }
    }
    stats_from_gaps(&gaps, tolerance)
}

/// Aggregates raw per-pair gaps. A NaN gap (degenerate pair) counts
/// toward `pairs` but is neither unaffected nor affected, and `fold`
/// with `f64::max` ignores it for `max_gap`.
fn stats_from_gaps(gaps: &[f64], tolerance: f64) -> GapStats {
    let pairs = gaps.len();
    if pairs == 0 {
        return GapStats::default();
    }
    let unaffected = gaps.iter().filter(|&&g| g <= 1.0 + tolerance).count();
    let mut affected: Vec<f64> = gaps
        .iter()
        .copied()
        .filter(|&g| g > 1.0 + tolerance)
        .collect();
    affected.sort_by(f64::total_cmp);
    #[expect(
        clippy::indexing_slicing,
        reason = "guarded by the is_empty() branch; len()/2 < len()"
    )]
    let median_affected_excess = if affected.is_empty() {
        0.0
    } else {
        affected[affected.len() / 2] - 1.0
    };
    let max_gap = gaps.iter().copied().fold(1.0, f64::max);
    GapStats {
        pairs,
        unaffected_fraction: unaffected as f64 / pairs as f64,
        median_affected_excess,
        max_gap,
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_topology::generate;

    #[test]
    fn fig_5_1_gap_approaches_k() {
        // ETX-order cost is the A-only path, 1/p + 1. The EOTX-order
        // optimum water-fills over A (heard w.p. p, remaining cost 1) and
        // B (heard always, remaining cost d_B = 1/(1−(1−p)^k) + 1):
        //   c_eotx = 1 + p·1 + (1−p)·d_B,
        // and the gap (1/p + 1)/c_eotx → k as p → 0 (Proposition 6).
        let k = 8;
        let (src, _a, _b, _cs, dst) = generate::diamond_roles(k);
        let mut prev = 0.0;
        for &p in &[0.2, 0.1, 0.05, 0.01] {
            let t = generate::diamond(k, p);
            let g = pair_gap(&t, src, dst);
            let d_b = 1.0 / (1.0 - (1.0 - p).powi(k as i32)) + 1.0;
            let c_eotx = 1.0 + p * 1.0 + (1.0 - p) * d_b;
            let analytic = (1.0 / p + 1.0) / c_eotx;
            assert!(
                (g - analytic).abs() < 1e-6,
                "p={p}: computed {g} vs analytic {analytic}"
            );
            assert!(g > prev, "gap must grow as p shrinks");
            prev = g;
        }
        // At p = 0.01 the gap is within 20% of its limit k.
        assert!(prev > 0.8 * k as f64, "gap {prev} far from limit {k}");
    }

    #[test]
    fn gap_is_at_least_one() {
        let t = generate::testbed(0);
        for (s, d) in [(0usize, 19usize), (5, 9), (13, 2)] {
            let g = pair_gap(&t, NodeId(s), NodeId(d));
            assert!(g >= 1.0 - 1e-6, "gap {g} below 1 for {s}->{d}");
        }
    }

    #[test]
    fn testbed_gaps_are_small() {
        // §5.7's finding on the real testbed: a large fraction of pairs is
        // unaffected and the typical affected gap is tiny.
        let t = generate::testbed(0);
        let stats = testbed_gap_stats(&t, 1e-9);
        assert!(stats.pairs > 300, "expected ~380 ordered pairs");
        assert!(
            stats.unaffected_fraction > 0.25,
            "unaffected fraction {}",
            stats.unaffected_fraction
        );
        assert!(
            stats.median_affected_excess < 0.05,
            "median affected excess {}",
            stats.median_affected_excess
        );
        assert!(stats.max_gap < 1.5, "max gap {}", stats.max_gap);
    }

    #[test]
    fn nan_gap_is_neither_affected_nor_a_panic() {
        // total_cmp regression: affected.sort_by(partial_cmp().unwrap())
        // used to panic when a NaN gap slipped in.
        let s = stats_from_gaps(&[1.0, 1.5, f64::NAN, 2.0], 0.05);
        assert_eq!(s.pairs, 4);
        assert!((s.unaffected_fraction - 0.25).abs() < 1e-12);
        assert!((s.median_affected_excess - 1.0).abs() < 1e-12);
        assert_eq!(s.max_gap, 2.0);
    }
}
