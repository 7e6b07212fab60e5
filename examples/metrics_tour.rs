//! A tour of the Chapter-5 theory API: ETX, EOTX, Algorithm 1 transmission
//! counts, TX credits, and the minimum-cost flow solution.
//!
//! Prints the tour to stdout and writes the same transcript to
//! `results/metrics_tour.txt` (the path is printed at the end).
//!
//! ```sh
//! cargo run --release --example metrics_tour
//! ```

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    reason = "example binary: a failed run aborts the demo with its message"
)]

use more_repro::metrics::etx::LinkCost;
use more_repro::metrics::flow::FlowSolution;
use more_repro::metrics::gap::pair_gap;
use more_repro::metrics::{EotxTable, EtxTable, ForwarderPlan, PlanConfig};
use more_repro::topology::{generate, NodeId};
use std::fmt::Write as _;

const OUT_PATH: &str = "results/metrics_tour.txt";

fn main() {
    let mut out = String::new();

    // The Fig 1-1 example: src(0) -> R(1) -> dst(2), direct link 0.49.
    let topo = generate::motivating();
    let dst = NodeId(2);

    let etx = EtxTable::compute(&topo, dst, LinkCost::Forward);
    let eotx = EotxTable::compute(&topo, dst);
    let _ = writeln!(out, "Fig 1-1 example:");
    for n in topo.nodes() {
        let _ = writeln!(
            out,
            "  {n}: ETX = {:.3}, EOTX = {:.3}",
            etx.dist(n),
            eotx.dist(n)
        );
    }
    let _ = writeln!(
        out,
        "  (ETX 2.0 via R; EOTX 1.51 because the direct 0.49 link helps opportunistically)\n"
    );

    // Algorithm 1 on the same topology: how many transmissions each node
    // makes per delivered packet, and the TX credits MORE ships in headers.
    let plan = ForwarderPlan::compute(
        &topo,
        NodeId(0),
        dst,
        etx.distances(),
        &PlanConfig::unpruned(),
    );
    let _ = writeln!(out, "Algorithm 1 (ETX order):");
    for &n in &plan.order {
        let _ = writeln!(
            out,
            "  {n}: z = {:.3}, load = {:.3}, TX credit = {:.3}",
            plan.z[n.0], plan.load[n.0], plan.tx_credit[n.0]
        );
    }
    let _ = writeln!(
        out,
        "  total cost {:.3} transmissions per packet\n",
        plan.total_cost()
    );

    // The full min-cost flow (Algorithm 6) under the EOTX order equals
    // the source's EOTX.
    let order: Vec<NodeId> = plan.order.clone();
    let sol = FlowSolution::compute(&topo, &order, NodeId(0));
    let _ = writeln!(
        out,
        "Algorithm 6 total cost {:.3} == EOTX(src) {:.3}\n",
        sol.total_cost(),
        eotx.dist(NodeId(0))
    );

    // And the Fig 5-1 diamond where ETX-ordering is arbitrarily bad.
    let _ = writeln!(out, "Fig 5-1 diamond, gap(ETX order / EOTX order):");
    for &p in &[0.2, 0.05, 0.01] {
        let k = 8;
        let d = generate::diamond(k, p);
        let (src, _, _, _, ddst) = generate::diamond_roles(k);
        let _ = writeln!(
            out,
            "  p = {p:<5}: gap = {:.2} (limit {k})",
            pair_gap(&d, src, ddst)
        );
    }

    print!("{out}");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write(OUT_PATH, &out).unwrap_or_else(|e| panic!("write {OUT_PATH}: {e}"));
    println!("\ntranscript written to {OUT_PATH}");
}
