//! `cargo run -p xtask -- <analyze|ratchet> [..]`: see [`USAGE`].

#![deny(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::baseline::{self, BASELINE_FILE};

/// The command-line help.
const USAGE: &str = "\
usage: cargo run -p xtask -- analyze [--root DIR]
       cargo run -p xtask -- ratchet [--root DIR] [--baseline FILE] [--check]

analyze runs the checks no toolchain lint can express and exits non-zero
on any finding not suppressed by `// xtask: allow(<lint>) -- <why>`. The
other rules are rustc/clippy lints set in [workspace.lints] and
clippy.toml: cargo clippy --workspace --all-targets -- -D warnings

ratchet compares per-lint counts (suppressed findings included; clippy
lints force-warned over library crates) against the committed baseline:
a rise fails, a fall tightens the file (never under --check).
";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    let (mut cmd, mut root, mut path, mut check) = (None, None, None, false);
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match (arg, cmd) {
            ("analyze" | "ratchet", None) => cmd = Some(arg),
            ("--root", _) => root = it.next().map(PathBuf::from),
            ("--baseline", _) => path = it.next().map(PathBuf::from),
            ("--check", _) => check = true,
            _ => return Err(format!("unknown argument `{arg}`\n\n{USAGE}")),
        }
    }
    let cmd = cmd.ok_or(USAGE)?;
    // Default root: the workspace that contains this crate.
    let root = root.unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let report = xtask::analyze_root(&root)
        .map_err(|e| format!("xtask {cmd}: failed to read {}: {e}", root.display()))?;
    if cmd == "analyze" {
        print!("{}", report.render());
        return Ok(ExitCode::from(u8::from(!report.is_clean())));
    }
    let mut counts = report.counts();
    counts.extend(baseline::clippy_counts(&root).map_err(|e| format!("xtask ratchet: {e}"))?);
    let path = path.unwrap_or_else(|| root.join(BASELINE_FILE));
    ratchet(&counts, &path, check)
}

/// Compares `current` against the baseline at `path`: rises fail, falls
/// rewrite the file unless `check`. A missing file is bootstrapped from
/// `current` (but fails under `check`).
fn ratchet(current: &baseline::Counts, path: &Path, check: bool) -> Result<ExitCode, String> {
    let shown = path.display();
    let write = |what: &str| -> Result<ExitCode, String> {
        let text = baseline::render(current);
        fs::write(path, text).map_err(|e| format!("cannot write {shown}: {e}"))?;
        println!("xtask ratchet: baseline {what} at {shown}");
        Ok(ExitCode::SUCCESS)
    };
    let text = match fs::read_to_string(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && !check => {
            return write("initialized")
        }
        Err(e) => return Err(format!("xtask ratchet: cannot read {shown}: {e}")),
        Ok(text) => text,
    };
    let committed = baseline::parse(&text).map_err(|e| format!("malformed {shown}: {e}"))?;
    let (rises, falls) = baseline::compare(&committed, current);
    for (key, was, now) in &rises {
        println!("xtask ratchet: `{key}` rose {was} -> {now} (fix it, or re-justify the baseline in review)");
    }
    for (key, was, now) in &falls {
        let note = if check { " (would tighten)" } else { "" };
        println!("xtask ratchet: `{key}` fell {was} -> {now}{note}");
    }
    if !rises.is_empty() {
        Ok(ExitCode::FAILURE)
    } else if !falls.is_empty() && !check {
        write("tightened")
    } else {
        println!("xtask ratchet: ok ({} counts at baseline)", committed.len());
        Ok(ExitCode::SUCCESS)
    }
}
