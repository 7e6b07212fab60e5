//! Cross-crate property tests tying the Chapter-5 theory to the topology
//! generators: the invariants hold on arbitrary generated meshes, not just
//! the unit tests' hand-built examples.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "test support code outside #[test] fns: a panic is the test's failure report"
)]

use more_repro::metrics::etx::LinkCost;
use more_repro::metrics::flow::FlowSolution;
use more_repro::metrics::{EotxTable, EtxTable, ForwarderPlan, PlanConfig};
use more_repro::topology::{generate, NodeId};
use proptest::prelude::*;

fn order_for(topo: &more_repro::topology::Topology, metric: &[f64], src: usize) -> Vec<NodeId> {
    let key = |i: usize| (metric[i], i);
    let mut v: Vec<usize> = (0..topo.n())
        .filter(|&i| i == src || (metric[i].is_finite() && key(i) < key(src)))
        .collect();
    v.sort_by(|&a, &b| key(a).partial_cmp(&key(b)).expect("finite metrics"));
    v.into_iter().map(NodeId).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// EOTX ≤ ETX on random meshes: opportunism never hurts.
    #[test]
    fn eotx_never_exceeds_etx(seed in 0u64..500, dst in 0usize..12) {
        let topo = generate::random_mesh(12, 70.0, 45.0, seed);
        let etx = EtxTable::compute(&topo, NodeId(dst), LinkCost::Forward);
        let eotx = EotxTable::compute(&topo, NodeId(dst));
        for i in topo.nodes() {
            prop_assert!(
                eotx.dist(i) <= etx.dist(i) + 1e-6,
                "EOTX {} > ETX {} at {i} (seed {seed})",
                eotx.dist(i), etx.dist(i)
            );
        }
    }

    /// Bellman–Ford and Dijkstra EOTX agree on random meshes.
    #[test]
    fn eotx_algorithms_agree(seed in 0u64..500) {
        let topo = generate::random_mesh(10, 60.0, 40.0, seed);
        let dst = NodeId(0);
        let a = EotxTable::compute(&topo, dst);
        let b = EotxTable::compute_bellman_ford(&topo, dst);
        for i in topo.nodes() {
            let (x, y) = (a.dist(i), b.dist(i));
            if x.is_infinite() && y.is_infinite() { continue; }
            prop_assert!((x - y).abs() < 1e-6, "{i}: {x} vs {y} (seed {seed})");
        }
    }

    /// Algorithm 1 delivers the unit flow and its credits balance, on
    /// arbitrary meshes and pair choices.
    #[test]
    fn plans_deliver_unit_flow(seed in 0u64..500, s in 0usize..12, d in 0usize..12) {
        prop_assume!(s != d);
        let topo = generate::random_mesh(12, 70.0, 45.0, seed);
        let etx = EtxTable::compute(&topo, NodeId(d), LinkCost::Forward);
        prop_assume!(etx.dist(NodeId(s)).is_finite());
        let plan = ForwarderPlan::compute(
            &topo, NodeId(s), NodeId(d), etx.distances(), &PlanConfig::default());
        prop_assert!(
            (plan.load[d] - 1.0).abs() < 1e-6,
            "delivered load {} (seed {seed}, {s}->{d})",
            plan.load[d]
        );
        // Credits are finite and non-negative.
        for f in plan.forwarders() {
            prop_assert!(plan.tx_credit[f.0].is_finite());
            prop_assert!(plan.tx_credit[f.0] >= 0.0);
        }
    }

    /// The min-cost flow conserves and matches the source's EOTX when the
    /// EOTX order is used (§5.6.2) on random meshes.
    #[test]
    fn flow_solution_invariants(seed in 0u64..500, s in 1usize..10) {
        let topo = generate::random_mesh(10, 60.0, 40.0, seed);
        let dst = NodeId(0);
        let eotx = EotxTable::compute(&topo, dst);
        prop_assume!(eotx.dist(NodeId(s)).is_finite());
        let order = order_for(&topo, eotx.distances(), s);
        let sol = FlowSolution::compute(&topo, &order, NodeId(s));
        prop_assert!(sol.conserves(NodeId(s), dst, 1e-6));
        prop_assert!(sol.satisfies_cost_constraints(&topo, 1e-9));
        prop_assert!(
            (sol.total_cost() - eotx.dist(NodeId(s))).abs() < 1e-6,
            "Σz = {} vs EOTX {} (seed {seed})",
            sol.total_cost(), eotx.dist(NodeId(s))
        );
    }

    /// The ETX-vs-EOTX gap is ≥ 1 (EOTX order is optimal) everywhere.
    #[test]
    fn gap_at_least_one(seed in 0u64..200, s in 0usize..10, d in 0usize..10) {
        prop_assume!(s != d);
        let topo = generate::random_mesh(10, 60.0, 40.0, seed);
        let etx = EtxTable::compute(&topo, NodeId(d), LinkCost::Forward);
        prop_assume!(etx.dist(NodeId(s)).is_finite());
        let g = more_repro::metrics::gap::pair_gap(&topo, NodeId(s), NodeId(d));
        prop_assert!(g >= 1.0 - 1e-6, "gap {g} < 1 (seed {seed} {s}->{d})");
    }
}
