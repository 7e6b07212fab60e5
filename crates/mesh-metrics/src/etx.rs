//! The ETX metric (De Couto et al.) and best-path extraction.
//!
//! ETX of a link is the expected number of transmissions to get a packet
//! across it: `1/p` for delivery probability `p`, or `1/(p_fwd · p_rev)`
//! when the 802.11 ACK's reverse-path loss is accounted for (§2.1.1: "ETX
//! accounts for the probability that the transmission is successfully
//! decoded, but must be reattempted because the 802.11 ACK is lost").
//! ETX of a path is the sum over its hops; the table holds each node's
//! ETX *distance to the destination* over the best path, which is what
//! MORE and ExOR use to order forwarders ("closer to destination" =
//! smaller ETX, Table 3.1).

#![expect(
    clippy::indexing_slicing,
    reason = "loss/distance matrices are square in the node count fixed at build."
)]

use crate::{EPS, INF};
use mesh_topology::{NodeId, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How link ETX is derived from delivery probabilities.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LinkCost {
    /// `1/p_fwd` — the form used throughout the thesis' analysis.
    #[default]
    Forward,
    /// `1/(p_fwd · p_rev)` — data and MAC-ACK must both get through.
    ForwardReverse,
}

/// Per-node ETX distances to one destination, plus best-path successors.
#[derive(Clone, Debug)]
pub struct EtxTable {
    dst: NodeId,
    /// `dist[i]` = ETX from node i to `dst` along the best path.
    dist: Vec<f64>,
    /// `next[i]` = the nexthop on the best path, `None` at `dst` or when
    /// unreachable.
    next: Vec<Option<NodeId>>,
}

impl EtxTable {
    /// Computes ETX distances from every node to `dst` by Dijkstra.
    pub fn compute(topo: &Topology, dst: NodeId, cost: LinkCost) -> Self {
        let n = topo.n();
        assert!(dst.0 < n, "destination out of range");
        let mut dist = vec![INF; n];
        let mut next: Vec<Option<NodeId>> = vec![None; n];
        dist[dst.0] = 0.0;

        // Max-heap on reversed ordering -> min-heap on distance.
        #[derive(PartialEq)]
        struct Entry(f64, usize);
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                // Reverse: smallest distance first; tie-break on node id for
                // determinism.
                other
                    .0
                    .total_cmp(&self.0)
                    .then_with(|| other.1.cmp(&self.1))
            }
        }

        let mut heap = BinaryHeap::new();
        heap.push(Entry(0.0, dst.0));
        let mut closed = vec![false; n];
        while let Some(Entry(d, u)) = heap.pop() {
            if closed[u] {
                continue;
            }
            closed[u] = true;
            // Relax incoming links v -> u: transmitting from v reaches u.
            // The CSR in-row visits exactly the nodes with `p_vu > 0` in
            // ascending id order — the same candidates, in the same order,
            // as the historical 0..n scan.
            for (v, p_fwd) in topo.neighbors_in(NodeId(u)) {
                let v = v.0;
                if closed[v] {
                    continue;
                }
                let link = match cost {
                    LinkCost::Forward => 1.0 / p_fwd,
                    LinkCost::ForwardReverse => {
                        let p_rev = topo.delivery(NodeId(u), NodeId(v));
                        if p_rev <= 0.0 {
                            continue;
                        }
                        1.0 / (p_fwd * p_rev)
                    }
                };
                let cand = d + link;
                if cand + EPS < dist[v] {
                    dist[v] = cand;
                    next[v] = Some(NodeId(u));
                    heap.push(Entry(cand, v));
                }
            }
        }
        EtxTable { dst, dist, next }
    }

    /// The destination this table routes toward.
    pub fn destination(&self) -> NodeId {
        self.dst
    }

    /// ETX distance from `i` to the destination (∞ when unreachable).
    #[inline]
    pub fn dist(&self, i: NodeId) -> f64 {
        self.dist[i.0]
    }

    /// All distances, indexed by node.
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// Best-path nexthop from `i`.
    pub fn next_hop(&self, i: NodeId) -> Option<NodeId> {
        self.next[i.0]
    }

    /// The full best path `src → … → dst`, or `None` if unreachable.
    pub fn path_from(&self, src: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[src.0].is_infinite() {
            return None;
        }
        let mut path = vec![src];
        let mut cur = src;
        while cur != self.dst {
            let nh = self.next[cur.0]?;
            path.push(nh);
            cur = nh;
            assert!(path.len() <= self.dist.len(), "routing loop in ETX table");
        }
        Some(path)
    }

    /// "Closer to destination" in the Table 3.1 sense, with deterministic
    /// id tie-breaking so orderings are strict.
    pub fn closer(&self, a: NodeId, b: NodeId) -> bool {
        (self.dist[a.0], a.0) < (self.dist[b.0], b.0)
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_topology::generate;

    #[test]
    fn motivating_example_etx() {
        // §2.1.1: path src→R→dst has ETX 2; direct link 1/0.49 = 2.04.
        let t = generate::motivating();
        let table = EtxTable::compute(&t, NodeId(2), LinkCost::Forward);
        assert!((table.dist(NodeId(0)) - 2.0).abs() < 1e-9);
        assert!((table.dist(NodeId(1)) - 1.0).abs() < 1e-9);
        assert_eq!(table.dist(NodeId(2)), 0.0);
        assert_eq!(
            table.path_from(NodeId(0)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn prefers_lossless_two_hop_over_lossy_direct() {
        // ETX picks two perfect hops (2.0) over one 0.49 link (2.04).
        let t = generate::motivating();
        let table = EtxTable::compute(&t, NodeId(2), LinkCost::Forward);
        assert_eq!(table.next_hop(NodeId(0)), Some(NodeId(1)));
    }

    #[test]
    fn direct_wins_when_better() {
        let t = mesh_topology::Topology::from_matrix(
            "direct",
            vec![
                vec![0.0, 1.0, 0.8],
                vec![0.0, 0.0, 1.0],
                vec![0.0, 0.0, 0.0],
            ],
        );
        let table = EtxTable::compute(&t, NodeId(2), LinkCost::Forward);
        // Direct: 1/0.8 = 1.25 < 2.0 two-hop.
        assert!((table.dist(NodeId(0)) - 1.25).abs() < 1e-9);
        assert_eq!(
            table.path_from(NodeId(0)).unwrap(),
            vec![NodeId(0), NodeId(2)]
        );
    }

    #[test]
    fn unreachable_is_infinite() {
        let t = mesh_topology::Topology::from_matrix("split", vec![vec![0.0, 0.0], vec![0.0, 0.0]]);
        let table = EtxTable::compute(&t, NodeId(1), LinkCost::Forward);
        assert!(table.dist(NodeId(0)).is_infinite());
        assert!(table.path_from(NodeId(0)).is_none());
    }

    #[test]
    fn forward_reverse_accounts_for_ack_loss() {
        // Symmetric 0.8 link: fwd-only ETX = 1.25, fwd·rev = 1/(0.64) ≈ 1.5625.
        let t = mesh_topology::Topology::from_matrix("sym", vec![vec![0.0, 0.8], vec![0.8, 0.0]]);
        let f = EtxTable::compute(&t, NodeId(1), LinkCost::Forward);
        let fr = EtxTable::compute(&t, NodeId(1), LinkCost::ForwardReverse);
        assert!((f.dist(NodeId(0)) - 1.25).abs() < 1e-9);
        assert!((fr.dist(NodeId(0)) - 1.5625).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_link_unusable_with_ack() {
        // Forward link exists but no reverse: unusable under ForwardReverse.
        let t =
            mesh_topology::Topology::from_matrix("oneway", vec![vec![0.0, 0.9], vec![0.0, 0.0]]);
        let fr = EtxTable::compute(&t, NodeId(1), LinkCost::ForwardReverse);
        assert!(fr.dist(NodeId(0)).is_infinite());
    }

    #[test]
    fn line_distances_accumulate() {
        let t = generate::line(4, 0.5, 0.0, 30.0);
        let table = EtxTable::compute(&t, NodeId(4), LinkCost::Forward);
        for i in 0..=4usize {
            let hops = 4 - i;
            assert!(
                (table.dist(NodeId(i)) - 2.0 * hops as f64).abs() < 1e-9,
                "node {i}"
            );
        }
    }

    #[test]
    fn testbed_all_reachable_and_monotone_along_paths() {
        let t = generate::testbed(1);
        let table = EtxTable::compute(&t, NodeId(0), LinkCost::Forward);
        for i in t.nodes() {
            assert!(table.dist(i).is_finite(), "node {i} unreachable");
            if i != NodeId(0) {
                let path = table.path_from(i).unwrap();
                // Distances strictly decrease along the path.
                for w in path.windows(2) {
                    assert!(table.dist(w[0]) > table.dist(w[1]));
                }
            }
        }
    }

    #[test]
    fn closer_is_a_strict_total_order() {
        let t = generate::testbed(2);
        let table = EtxTable::compute(&t, NodeId(5), LinkCost::Forward);
        for a in t.nodes() {
            assert!(!table.closer(a, a));
            for b in t.nodes() {
                if a != b {
                    assert!(table.closer(a, b) != table.closer(b, a));
                }
            }
        }
    }
}
