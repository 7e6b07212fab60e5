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
//! * thin compatibility wrappers ([`run_single`], [`run_flows`]) over the
//!   protocol registry for callers that want one run, not a grid. The
//!   old closed `Protocol` enum is gone: protocols are registry names
//!   ("MORE", "ExOR", "Srcr", "Srcr-autorate", or anything registered
//!   by the caller).
//!
//! Throughput is packets/second over the transfer, the unit of Figs
//! 4-2…4-7. Deadline-limited runs report what was delivered by the
//! deadline (challenged Srcr pairs — the dead spots — would otherwise run
//! forever).

pub mod common;
pub mod stats;

use mesh_sim::SimConfig;
use mesh_topology::{NodeId, Topology};
use more_scenario::{Scenario, TopologySpec, TrafficSpec};
use std::sync::Arc;

pub use more_scenario::{
    random_pairs, sink, ChannelSpec, ExpConfig, ProtocolFactory, ProtocolRegistry, RunRecord,
    RunSummary, Sweep,
};

/// The paper's three-way comparison, in plotting order.
pub const ALL3: [&str; 3] = ["Srcr", "ExOR", "MORE"];

/// One flow's outcome (compatibility shape; scenario code reads
/// [`more_scenario::FlowRecord`] instead).
#[derive(Clone, Copy, Debug)]
pub struct FlowResult {
    pub src: NodeId,
    pub dst: NodeId,
    /// Delivered packets / elapsed seconds.
    pub throughput_pps: f64,
    pub delivered: usize,
    pub completed: bool,
    /// Fraction of airtime with ≥2 concurrent transmissions (spatial
    /// reuse indicator, whole-run).
    pub concurrency: f64,
    /// Total data-frame transmissions in the run (whole-run, shared by
    /// all flows of the run).
    pub total_tx: u64,
}

/// Runs `flows` concurrently under the named protocol and returns
/// per-flow results. Thin wrapper over the scenario engine with the
/// default registry.
pub fn run_flows(
    proto: &str,
    topo: &Topology,
    flows: &[(NodeId, NodeId)],
    cfg: &ExpConfig,
    sim_cfg: &SimConfig,
) -> Vec<FlowResult> {
    let records = Scenario::named("run_flows")
        .topology(TopologySpec::Fixed(Arc::new(topo.clone())))
        .traffic(TrafficSpec::Concurrent(flows.to_vec()))
        .protocol(proto)
        .exp_config(*cfg)
        .sim_config(*sim_cfg)
        .seeds([cfg.seed])
        .threads(1)
        .run();
    let r = &records[0];
    r.flows
        .iter()
        .map(|f| FlowResult {
            src: f.src,
            dst: f.dsts[0],
            throughput_pps: f.throughput_pps,
            delivered: f.delivered,
            completed: f.completed,
            concurrency: r.concurrency,
            total_tx: r.total_tx,
        })
        .collect()
}

/// Runs one `src → dst` transfer.
pub fn run_single(
    proto: &str,
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    cfg: &ExpConfig,
) -> FlowResult {
    run_flows(proto, topo, &[(src, dst)], cfg, &SimConfig::default())[0]
}

/// Maps `f` over `items` on `threads` worker threads, preserving order.
///
/// Thin wrapper over [`more_scenario::exec::par_map`], kept for source
/// compatibility with pre-scenario harness code.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    more_scenario::exec::par_map(items, threads, f)
}

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
    use mesh_topology::generate;

    #[test]
    fn all_three_protocols_complete_a_small_transfer() {
        let topo = generate::testbed(1);
        let cfg = ExpConfig {
            packets: 32,
            deadline_s: 240,
            ..ExpConfig::default()
        };
        for proto in ALL3 {
            let r = run_single(proto, &topo, NodeId(0), NodeId(19), &cfg);
            assert!(r.completed, "{proto} did not complete");
            assert_eq!(r.delivered, 32, "{proto}");
            assert!(r.throughput_pps > 1.0, "{proto}");
        }
    }

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
    fn par_map_preserves_order() {
        let out = par_map((0..100).collect(), 8, |&x: &i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
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
