//! Sparse-topology equivalence: the CSR neighbor-set representation must
//! be observationally identical to the historical dense delivery matrix,
//! for every built-in generator and for arbitrary matrices.
//!
//! Three layers of guarantee:
//!
//! * **Round trip exactness** — `Topology::from_matrix` → CSR →
//!   [`Topology::matrix`] reproduces the input matrix bit-for-bit (f64
//!   `to_bits` equality, not epsilon comparison), so no consumer can
//!   observe the storage change through the dense API.
//! * **Golden bytes** — the generators' JSON output is pinned in
//!   `tests/golden/topology_*.json`; a changed link weight, reordered
//!   row, or float-formatting drift in either serialized form fails here
//!   before it can silently shift the run-level goldens.
//! * **Property coverage** — proptest feeds arbitrary small delivery
//!   matrices through the CSR constructor and both JSON forms.
//!
//! Regenerate goldens (after an *intentional* change) with
//! `UPDATE_GOLDEN=1 cargo test --test sparse_equivalence`.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "test support code outside #[test] fns: a panic is the test's failure report"
)]

use more_repro::topology::{generate, NodeId, Topology};
use proptest::prelude::*;

/// Every built-in generator, at sizes small enough to sweep pairwise.
fn generator_zoo() -> Vec<Topology> {
    vec![
        generate::motivating(),
        generate::motivating_symmetric(),
        generate::line(4, 0.85, 0.2, 25.0),
        generate::diamond(4, 0.5),
        generate::diamond_symmetricized(4, 0.5),
        generate::grid(4, 3, 0.8, 0.5, 30.0),
        generate::testbed(1),
        generate::testbed_sized(12, 3),
        generate::random_mesh(24, 120.0, 80.0, 7),
        generate::city_mesh(200, 1),
    ]
}

/// Bitwise equality for dense matrices — `0.1 + eps` drift must fail.
fn assert_matrix_bits_eq(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row count");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{what}: row {i} length");
        for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: entry [{i}][{j}] {x} vs {y}"
            );
        }
    }
}

#[test]
fn from_matrix_round_trip_is_bit_exact_for_every_generator() {
    for topo in generator_zoo() {
        let dense = topo.matrix();
        let rebuilt = Topology::from_matrix(topo.name.clone(), dense.clone());
        assert_eq!(rebuilt.n(), topo.n(), "{}: node count", topo.name);
        assert_eq!(
            rebuilt.link_count(),
            topo.link_count(),
            "{}: link count",
            topo.name
        );
        assert_matrix_bits_eq(&rebuilt.matrix(), &dense, &topo.name);
        // The CSR link lists agree element-wise, in the same sorted order.
        let a: Vec<_> = topo.links().collect();
        let b: Vec<_> = rebuilt.links().collect();
        assert_eq!(a, b, "{}: link list", topo.name);
    }
}

#[test]
fn dense_accessors_agree_with_the_matrix_view() {
    for topo in generator_zoo() {
        let dense = topo.matrix();
        for i in topo.nodes() {
            for j in topo.nodes() {
                assert_eq!(
                    topo.delivery(i, j).to_bits(),
                    dense[i.0][j.0].to_bits(),
                    "{}: delivery({i}, {j})",
                    topo.name
                );
            }
            // The sorted out-row is exactly the non-zero cells of row i.
            let row: Vec<(NodeId, f64)> = topo.neighbors_out(i).collect();
            let expect: Vec<(NodeId, f64)> = dense[i.0]
                .iter()
                .enumerate()
                .filter(|(_, p)| **p > 0.0)
                .map(|(j, p)| (NodeId(j), *p))
                .collect();
            assert_eq!(row, expect, "{}: out-row {i}", topo.name);
        }
    }
}

#[test]
fn both_json_forms_round_trip_byte_identically() {
    for topo in generator_zoo() {
        let dense = topo.to_json();
        let sparse = topo.to_json_sparse();
        let from_dense = Topology::from_json(&dense)
            .unwrap_or_else(|e| panic!("{}: dense parse: {e:?}", topo.name));
        let from_sparse = Topology::from_json(&sparse)
            .unwrap_or_else(|e| panic!("{}: sparse parse: {e:?}", topo.name));
        // Either parse must re-serialize to the same bytes in either
        // form: the two encodings carry identical information.
        assert_eq!(from_dense.to_json(), dense, "{}: dense→dense", topo.name);
        assert_eq!(
            from_dense.to_json_sparse(),
            sparse,
            "{}: dense→sparse",
            topo.name
        );
        assert_eq!(from_sparse.to_json(), dense, "{}: sparse→dense", topo.name);
        assert_eq!(
            from_sparse.to_json_sparse(),
            sparse,
            "{}: sparse→sparse",
            topo.name
        );
    }
}

/// Compares (or, under `UPDATE_GOLDEN=1`, rewrites) a golden file.
fn check_golden(rel: &str, golden: &str, actual: &str) {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = format!("{}/tests/{rel}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, actual).expect("write golden");
        eprintln!("updated {path}");
        return;
    }
    assert_eq!(
        actual, golden,
        "{rel} diverged — if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test sparse_equivalence"
    );
}

#[test]
fn diamond_dense_json_matches_golden_bytes() {
    check_golden(
        "golden/topology_diamond4.json",
        include_str!("golden/topology_diamond4.json"),
        &generate::diamond(4, 0.5).to_json(),
    );
}

#[test]
fn testbed_sparse_json_matches_golden_bytes() {
    check_golden(
        "golden/topology_testbed1.json",
        include_str!("golden/topology_testbed1.json"),
        &generate::testbed(1).to_json_sparse(),
    );
}

/// Builds an arbitrary sparse delivery matrix from raw proptest words:
/// zero diagonal, ~60% zero cells, the rest uniform in `(0, 1]` with a
/// full 53-bit mantissa (so formatting shortcuts can't hide drift).
fn matrix_from_words(n: usize, words: &[u64]) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let w = words[i * n + j];
                    if i == j || w % 5 < 3 {
                        0.0
                    } else {
                        ((w >> 11) as f64 + 1.0) / (1u64 << 53) as f64
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// from_matrix → CSR → matrix() is the identity, bit for bit.
    #[test]
    fn csr_round_trip_is_exact_on_arbitrary_matrices(
        n in 1usize..8,
        words in collection::vec(any::<u64>(), 64),
    ) {
        let m = matrix_from_words(n, &words);
        let topo = Topology::from_matrix("prop", m.clone());
        let back = topo.matrix();
        for (i, (ra, rb)) in m.iter().zip(&back).enumerate() {
            for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "entry [{}][{}]", i, j);
            }
        }
        // Link count is exactly the number of non-zero cells.
        let nonzero = m.iter().flatten().filter(|p| **p > 0.0).count();
        prop_assert_eq!(topo.link_count(), nonzero);
    }

    /// Both JSON encodings survive a parse → re-serialize cycle on
    /// arbitrary matrices (float formatting included).
    #[test]
    fn json_forms_round_trip_on_arbitrary_matrices(
        n in 1usize..8,
        words in collection::vec(any::<u64>(), 64),
    ) {
        let topo = Topology::from_matrix("prop", matrix_from_words(n, &words));
        let dense = topo.to_json();
        let sparse = topo.to_json_sparse();
        let from_dense = Topology::from_json(&dense).expect("dense parse");
        let from_sparse = Topology::from_json(&sparse).expect("sparse parse");
        prop_assert_eq!(from_dense.to_json_sparse(), sparse.clone());
        prop_assert_eq!(from_sparse.to_json(), dense);
        prop_assert_eq!(from_sparse.to_json_sparse(), sparse);
    }
}
