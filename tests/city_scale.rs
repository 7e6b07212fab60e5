//! The sparse-topology scale check: a 10k-node city mesh carrying 500
//! concurrent Poisson flows finishes in one run (CSR adjacency, CellGrid
//! placement, sparse medium relations, lazy pair pools, path-sparse Srcr
//! state). Too slow for a debug-profile suite, so it is ignored by
//! default:
//!
//! ```sh
//! cargo test --release --test city_scale -- --ignored
//! ```

use more_repro::scenario::{Scenario, TopologySpec, TrafficModelSpec};

const PACKETS: usize = 8;

#[test]
#[ignore = "10k nodes: release only"]
fn ten_thousand_node_city_carries_500_concurrent_flows() {
    let max_active = 500;
    let hold_s = 10.0;
    let records = Scenario::named("city_scale")
        .topology(TopologySpec::City { n: 10_000, seed: 1 })
        // Offered load ≈ 1.5× the cap per lifetime, so the cap binds
        // within the first few held lifetimes.
        .traffic_model(TrafficModelSpec::Poisson {
            rate_per_s: 1.5 * max_active as f64 / hold_s,
            mean_hold_s: hold_s,
            max_active,
        })
        .protocol("Srcr")
        .packets(PACKETS)
        .deadline(30)
        .seeds(1..=1)
        .threads(1)
        .run();
    assert_eq!(records.len(), 1);
    let flows = &records[0].flows;
    assert!(!flows.is_empty(), "no flow arrived");
    for (i, f) in flows.iter().enumerate() {
        assert!(
            f.delivered <= PACKETS,
            "flow {i}: delivered {} > offered {PACKETS}",
            f.delivered
        );
    }
}
