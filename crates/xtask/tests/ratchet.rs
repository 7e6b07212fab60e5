//! The ratchet binary end to end: bootstrap, steady state, a deliberate
//! regression failing `--check`, and a fall tightening the baseline —
//! plus the analyze report CI reads. The fixture trees have no
//! `Cargo.toml`, so these runs count xtask's own lints only.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn xtask(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("spawn xtask binary")
}

fn tmp_baseline(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    fs::create_dir_all(&dir).expect("create target tmpdir");
    dir.join(name)
}

fn run_ratchet(root: &Path, baseline: &Path, check: bool) -> Output {
    let root = root.to_str().expect("utf8 root");
    let baseline = baseline.to_str().expect("utf8 baseline");
    let mut args = vec!["ratchet", "--root", root, "--baseline", baseline];
    if check {
        args.push("--check");
    }
    xtask(&args)
}

#[test]
fn ratchet_bootstraps_then_holds_steady() {
    let baseline = tmp_baseline("ratchet-bootstrap.json");
    let _ = fs::remove_file(&baseline);
    let root = fixture("ratchet");

    // --check refuses to invent a baseline.
    let out = run_ratchet(&root, &baseline, true);
    assert!(!out.status.success());
    assert!(!baseline.exists());

    // First plain run bootstraps the file with today's counts.
    let out = run_ratchet(&root, &baseline, false);
    assert!(out.status.success(), "{out:?}");
    let text = fs::read_to_string(&baseline).expect("baseline written");
    assert!(text.contains("\"rng_stream\": 1"), "{text}");

    // Steady state: same tree, same counts, check passes.
    let out = run_ratchet(&root, &baseline, true);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn ratchet_fails_on_a_deliberate_regression() {
    let baseline = tmp_baseline("ratchet-regression.json");
    // A committed baseline of zero findings makes the fixture's one
    // deliberate literal seed a regression.
    fs::write(
        &baseline,
        "{\n  \"schema\": 1,\n  \"counts\": {\n    \"rng_stream\": 0\n  }\n}\n",
    )
    .expect("write regression baseline");

    let out = run_ratchet(&fixture("ratchet"), &baseline, true);
    assert!(!out.status.success(), "a count rise must fail the ratchet");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("`rng_stream` rose 0 -> 1"), "{stdout}");

    // --check never rewrites the file, even on failure.
    let text = fs::read_to_string(&baseline).expect("baseline intact");
    assert!(text.contains("\"rng_stream\": 0"), "{text}");
}

#[test]
fn ratchet_tightens_the_baseline_when_counts_fall() {
    let baseline = tmp_baseline("ratchet-tighten.json");
    fs::write(
        &baseline,
        "{\n  \"schema\": 1,\n  \"counts\": {\n    \"rng_stream\": 2\n  }\n}\n",
    )
    .expect("write loose baseline");

    let out = run_ratchet(&fixture("ratchet"), &baseline, false);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("`rng_stream` fell 2 -> 1"), "{stdout}");
    assert!(stdout.contains("baseline tightened"), "{stdout}");
    let text = fs::read_to_string(&baseline).expect("baseline rewritten");
    assert!(text.contains("\"rng_stream\": 1"), "{text}");
}

#[test]
fn analyze_exits_non_zero_and_names_each_finding() {
    let root = fixture("ratchet");
    let out = xtask(&["analyze", "--root", root.to_str().expect("utf8 root")]);
    assert!(!out.status.success(), "dirty tree must exit non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/rlnc/src/lib.rs:5  [rng_stream]"),
        "{stdout}"
    );
}
