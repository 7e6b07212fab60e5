//! Experiment harness shared by every figure binary.
//!
//! The heavy lifting lives in [`more_scenario`]: declare a scenario
//! (topology, traffic, protocols, sweeps, seeds) with
//! [`more_scenario::Scenario`], run it, and read structured
//! [`more_scenario::RunRecord`]s. Every figure binary follows that
//! pattern — "declare scenario, print series".
//!
//! This crate keeps:
//!
//! * [`common`] — tiny CLI parsing and banners for the binaries;
//! * [`stats`] — quantiles/CDF helpers for printing the paper's series;
//! * [`throughputs_by_protocol`] — the per-protocol grouping every CDF
//!   figure prints. Protocols are registry names ("MORE", "ExOR",
//!   "Srcr", "Srcr-autorate", or anything registered by the caller).
//!
//! Throughput is packets/second over the transfer, the unit of Figs
//! 4-2…4-7. Deadline-limited runs report what was delivered by the
//! deadline (challenged Srcr pairs — the dead spots — would otherwise run
//! forever).

pub mod common;
pub mod stats;

pub use more_scenario::{random_pairs, RunRecord};

/// The paper's three-way comparison, in plotting order.
pub const ALL3: [&str; 3] = ["Srcr", "ExOR", "MORE"];

/// Splits records into `(protocol, per-traffic-index throughputs)` in
/// first-appearance protocol order — the shape every CDF figure prints.
pub fn throughputs_by_protocol(records: &[RunRecord]) -> Vec<(String, Vec<f64>)> {
    let mut out: Vec<(String, Vec<f64>)> = Vec::new();
    for r in records {
        let entry = match out.iter_mut().find(|(p, _)| *p == r.protocol) {
            Some(e) => e,
            None => {
                out.push((r.protocol.clone(), Vec::new()));
                out.last_mut().expect("just pushed")
            }
        };
        entry.1.extend(r.throughputs());
    }
    out
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_topology::{generate, NodeId};
    use more_scenario::{Scenario, TopologySpec, TrafficSpec};
    use std::sync::Arc;

    #[test]
    fn random_pairs_are_deterministic_and_reachable() {
        let topo = generate::testbed(2);
        let a = random_pairs(&topo, 30, 7);
        let b = random_pairs(&topo, 30, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
        for (s, d) in a {
            assert_ne!(s, d);
            assert!(topo.hop_count(s, d).is_some());
        }
    }

    #[test]
    fn throughputs_group_in_protocol_order() {
        let topo = generate::line(2, 0.9, 0.3, 25.0);
        let records = Scenario::named("t")
            .topology(TopologySpec::Fixed(Arc::new(topo)))
            .traffic(TrafficSpec::EachPair(vec![
                (NodeId(0), NodeId(2)),
                (NodeId(2), NodeId(0)),
            ]))
            .protocols(["Srcr", "MORE"])
            .packets(8)
            .deadline(60)
            .run();
        let groups = throughputs_by_protocol(&records);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "Srcr");
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].0, "MORE");
    }
}
