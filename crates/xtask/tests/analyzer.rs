//! The analyzer against its fixture trees and the real workspace: one
//! test per lint on the deliberately-bad tree or its own tree, allowlist suppression and
//! accounting, the workspace boundary, and the real workspace staying
//! clean.

use std::path::PathBuf;
use xtask::{analyze_root, Lint, Report};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn analyze(name: &str) -> Report {
    analyze_root(&fixture(name)).expect("analyze fixture tree")
}

fn lines(r: &Report, lint: Lint) -> Vec<usize> {
    r.of(lint).iter().map(|f| f.line).collect()
}

#[test]
fn bad_tree_fires_every_lint_outside_tests_only() {
    let r = analyze("bad");
    // The magic-number stream fires; the bare seed, the named stream, and
    // the #[cfg(test)] literal seed do not.
    assert_eq!(lines(&r, Lint::RngStream), [6]);
    // CHANNEL_STREAM resolves to no registry module in this tree.
    assert_eq!(lines(&r, Lint::StreamRegistry), [14]);
    // Both comparator forms, the second split across two lines.
    assert_eq!(lines(&r, Lint::FloatOrd), [18, 23]);
    assert_eq!(r.findings.len(), 5, "{}", r.render());
}

#[test]
fn unsafe_fns_need_safety_comments_and_every_site_is_inventoried() {
    let r = analyze("bad");
    // The undocumented unsafe fn is a finding; the undocumented block
    // (line 34) is clippy's undocumented_unsafe_blocks, so it is only
    // inventoried.
    assert_eq!(lines(&r, Lint::UndocumentedUnsafe), [28]);
    let sites: Vec<(usize, &str, bool)> = r
        .unsafe_sites
        .iter()
        .map(|s| (s.line, s.kind, s.safety.is_some()))
        .collect();
    assert_eq!(
        sites,
        [(28, "fn", false), (30, "block", true), (34, "block", false)]
    );
}

#[test]
fn stream_registry_fixture_fires_on_rogue_and_unregistered_streams() {
    let r = analyze("stream_registry");
    // ROGUE_STREAM defined outside the registry (4) and the unregistered
    // GHOST_STREAM reference (11) fire; the registered ALPHA_STREAM
    // reference does not.
    assert_eq!(lines(&r, Lint::StreamRegistry), [4, 11]);
    assert_eq!(r.suppressed.get(&Lint::StreamRegistry), Some(&1));
}

#[test]
fn pool_pairing_fixture_fires_on_the_leak_only() {
    let r = analyze("pool_pairing");
    // Leaky::grab (9) fires; the sibling-released Paired, the
    // Drop-released Guard, the paired free fn, and the allowed
    // Transfer::grab do not.
    assert_eq!(lines(&r, Lint::PoolPairing), [9]);
    assert_eq!(r.suppressed.get(&Lint::PoolPairing), Some(&1));
}

#[test]
fn must_use_api_fixture_fires_where_clippy_does_not_look() {
    let r = analyze("must_use_api");
    // The receiver-less RunBuilder::new (11), the `&self` method returning
    // another builder (24) and the free fn (59) fire. RunBuilder::k (15)
    // takes `self` and returns its own type: clippy's
    // return_self_not_must_use covers it, so xtask stays quiet.
    assert_eq!(lines(&r, Lint::MustUseApi), [11, 24, 59]);
    assert_eq!(r.suppressed.get(&Lint::MustUseApi), Some(&1));
}

#[test]
fn allowlist_suppresses_and_every_entry_is_reported() {
    let r = analyze("allow");
    assert!(
        r.is_clean(),
        "all violations are allowlisted:\n{}",
        r.render()
    );
    // rng_stream, float_ord, undocumented_unsafe — plus the
    // deliberately-unused pool_pairing entry.
    assert_eq!(r.allows.len(), 4);
    let unused: Vec<&str> = r
        .allows
        .iter()
        .filter(|a| !a.used)
        .map(|a| a.lint.name())
        .collect();
    assert_eq!(unused, ["pool_pairing"]);
    let counts = r.counts();
    assert_eq!(counts["undocumented_unsafe"], 1);
    assert_eq!(counts["unused_allows"], 1);
    let rendered = r.render();
    assert!(rendered.contains("allowlist entries: 4"));
    assert!(rendered.contains("UNUSED"));
    assert!(rendered.contains("inputs validated finite by caller"));
}

#[test]
fn nested_workspaces_are_outside_the_walk() {
    // tool/ declares its own [workspace]; its literal seed is not ours.
    // The one allow proves the workspace's own crate was walked.
    let r = analyze("nested");
    assert!(r.is_clean(), "{}", r.render());
    assert_eq!(r.allows.len(), 1);
    assert!(r.allows[0].used);
}

#[test]
fn real_workspace_is_clean_with_a_fully_documented_unsafe_inventory() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let r = analyze_root(&root).expect("analyze workspace");
    assert!(
        r.is_clean(),
        "workspace must stay lint-clean:\n{}",
        r.render()
    );
    // The audited unsafe surface: the gf256 SIMD kernels (6 dispatch
    // blocks + 6 target_feature fns) and the counting global allocator
    // in the allocation-budget harness (1 impl + 3 fns + 3 forwarding
    // blocks), every site carrying a SAFETY comment.
    assert_eq!(r.unsafe_sites.len(), 19, "{}", r.render());
    assert!(r.unsafe_sites.iter().all(|s| s.safety.is_some()));
    assert!(r
        .unsafe_sites
        .iter()
        .all(|s| s.file == "crates/gf256/src/wide.rs" || s.file == "tests/alloc_budget.rs"));
}
