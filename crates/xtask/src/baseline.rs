//! The lint ratchet: committed per-lint counts (`xtask-baseline.json`).
//! They include *suppressed* findings — xtask's allowed findings, and
//! clippy's sites under `#[expect]` via `--force-warn` ([`clippy_counts`])
//! — plus the unsafe inventory size and the unused allows, so a new
//! escape hatch fails CI until the baseline is deliberately re-committed.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;
use std::process::Command;

use crate::lints::is_library_crate;

/// Name of the committed baseline file at the workspace root.
pub const BASELINE_FILE: &str = "xtask-baseline.json";

/// Ratchet key (lint name, `unsafe_sites`, `unused_allows`) → count.
pub type Counts = BTreeMap<String, usize>;

/// One count that moved: `(key, committed, current)`.
pub type Delta = (String, usize, usize);

/// The `(rises, falls)` of `current` against `committed`. A key missing
/// on either side counts as zero there.
pub fn compare(committed: &Counts, current: &Counts) -> (Vec<Delta>, Vec<Delta>) {
    let keys: BTreeSet<&String> = committed.keys().chain(current.keys()).collect();
    let count = |counts: &Counts, key| counts.get(key).copied().unwrap_or(0);
    let deltas = keys
        .into_iter()
        .map(|k| (k.clone(), count(committed, k), count(current, k)));
    deltas
        .filter(|(_, was, now)| was != now)
        .partition(|(_, was, now)| now > was)
}

/// Canonical serialized form: a small JSON object, one count per line in
/// key order, so baseline diffs show exactly which lint moved.
pub fn render(counts: &Counts) -> String {
    let lines: Vec<String> = counts
        .iter()
        .map(|(k, n)| format!("    \"{k}\": {n}"))
        .collect();
    let body = lines.join(",\n");
    format!("{{\n  \"schema\": 1,\n  \"counts\": {{\n{body}\n  }}\n}}\n")
}

/// Parses the `"counts"` object of a baseline file: string keys mapped to
/// non-negative integers, whitespace free.
pub fn parse(text: &str) -> Result<Counts, String> {
    let missing = "no \"counts\" object";
    let (_, rest) = text.split_once("\"counts\"").ok_or(missing)?;
    let body = rest.split(['{', '}']).nth(1).ok_or(missing)?;
    let mut counts = Counts::new();
    for entry in body.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        // The last colon: keys such as `clippy::panic` hold their own.
        let parsed = entry.rsplit_once(':').and_then(|(key, value)| {
            let key = key.trim().trim_matches('"');
            Some((key, value.trim().parse::<usize>().ok()?)).filter(|_| !key.is_empty())
        });
        let (key, value) = parsed.ok_or_else(|| format!("malformed counts entry `{entry}`"))?;
        if counts.insert(key.to_string(), value).is_some() {
            return Err(format!("duplicate counts key `{key}`"));
        }
    }
    Ok(counts)
}

/// The clippy lints a `Cargo.toml` enables under
/// `[workspace.lints.clippy]`, as `clippy::<name>`.
pub fn workspace_clippy_lints(manifest: &str) -> Vec<String> {
    let lines = manifest.lines().map(str::trim);
    let table = lines
        .skip_while(|l| *l != "[workspace.lints.clippy]")
        .skip(1);
    let entries = table.take_while(|l| !l.starts_with('['));
    let names = entries.filter_map(|l| Some(l.split_once('=')?.0.trim()));
    names.map(|name| format!("clippy::{name}")).collect()
}

/// Per-lint counts of `lints` over library-crate sources, tallied from
/// `cargo clippy --message-format=json` output. Each span counts once
/// however often it is reported; nested spans (`m[i][j]`) count apart.
pub fn count_clippy_json(stdout: &str, lints: &[String]) -> Counts {
    let mut counts: Counts = lints.iter().map(|l| (l.clone(), 0)).collect();
    let mut sites = BTreeSet::new();
    let messages = stdout
        .lines()
        .filter(|l| l.contains("\"reason\":\"compiler-message\""));
    for line in messages {
        // The text after the first `key`, up to the next `"` or `,`. rustc
        // writes a diagnostic's own code before its spans and children, so
        // the first code and span belong to it.
        let field = |key| line.split_once(key)?.1.split(['"', ',']).next();
        let code = field("\"code\":{\"code\":\"");
        let span = (field("\"byte_start\":"), field("\"byte_end\":"));
        let site = (code, field("\"file_name\":\""), span);
        if let (Some(code), Some(file), (Some(_), Some(_))) = site {
            if is_library_crate(file) && sites.insert(site) {
                counts.entry(code.to_string()).and_modify(|n| *n += 1);
            }
        }
    }
    counts
}

/// Runs clippy over the workspace at `root` with every
/// `[workspace.lints.clippy]` lint force-warned and counts the library
/// sites per lint. A root without a `Cargo.toml`, such as a fixture tree,
/// yields no counts.
pub fn clippy_counts(root: &Path) -> io::Result<Counts> {
    let lints = match std::fs::read_to_string(root.join("Cargo.toml")) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Counts::new()),
        manifest => workspace_clippy_lints(&manifest?),
    };
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    let args = "clippy --workspace --lib --quiet --message-format=json --";
    cmd.current_dir(root).args(args.split(' '));
    for lint in &lints {
        cmd.args(["--force-warn", lint]);
    }
    let out = cmd.output()?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(io::Error::other(format!("cargo clippy failed:\n{stderr}")));
    }
    Ok(count_clippy_json(
        &String::from_utf8_lossy(&out.stdout),
        &lints,
    ))
}

#[cfg(test)]
mod test {
    use super::*;

    fn counts(pairs: &[(&str, usize)]) -> Counts {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn render_parse_round_trip() {
        let c = counts(&[("clippy::panic", 12), ("unsafe_sites", 19)]);
        assert_eq!(parse(&render(&c)), Ok(c));
    }

    #[test]
    fn parse_tolerates_whitespace_and_rejects_garbage() {
        let c = parse("{\"schema\":1,\"counts\":{\"a\":1,  \"b\" : 2 }}");
        assert_eq!(c, Ok(counts(&[("a", 1), ("b", 2)])));
        assert!(parse("{}").is_err());
        assert!(parse("{\"counts\": {\"a\": -1}}").is_err());
        assert!(parse("{\"counts\": {\"a\": 1, \"a\": 2}}").is_err());
    }

    #[test]
    fn rises_fail_falls_tighten_and_new_keys_count_from_zero() {
        let committed = counts(&[("rng_stream", 5), ("pool_pairing", 2), ("gone", 3)]);
        let current = counts(&[("rng_stream", 6), ("pool_pairing", 1), ("new", 1)]);
        let (rises, falls) = compare(&committed, &current);
        let keys = |ds: &[Delta]| ds.iter().map(|d| d.0.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&rises), ["new", "rng_stream"]);
        assert_eq!(keys(&falls), ["gone", "pool_pairing"]);
    }

    #[test]
    fn clippy_lints_come_from_the_workspace_table() {
        let manifest = "[workspace.lints.rust]\nunsafe_code = \"forbid\"\n\n\
                        [workspace.lints.clippy]\nunwrap_used = \"deny\"\npanic = \"deny\"\n\n\
                        [package]\nname = \"x\"\n";
        assert_eq!(
            workspace_clippy_lints(manifest),
            ["clippy::unwrap_used", "clippy::panic"]
        );
    }

    #[test]
    fn clippy_json_counts_library_sites_once() {
        let msg = |code: &str, file: &str, at: usize, end: usize| {
            format!(
                "{{\"reason\":\"compiler-message\",\"message\":{{\"message\":\"m\",\"code\":{{\"code\":\"{code}\",\"explanation\":null}},\"spans\":[{{\"file_name\":\"{file}\",\"byte_start\":{at},\"byte_end\":{end},\"is_primary\":true}}],\"children\":[]}}}}"
            )
        };
        let out = [
            msg("clippy::panic", "crates/rlnc/src/lib.rs", 10, 20),
            msg("clippy::panic", "crates/rlnc/src/lib.rs", 10, 20), // reported twice
            msg("clippy::indexing_slicing", "crates/rlnc/src/lib.rs", 30, 34), // m[i]
            msg("clippy::indexing_slicing", "crates/rlnc/src/lib.rs", 30, 37), // m[i][j]
            msg("clippy::panic", "crates/bench/src/lib.rs", 5, 9),  // tooling crate
            msg("clippy::panic", "vendor/rand/src/lib.rs", 5, 9),
            msg("dead_code", "crates/rlnc/src/lib.rs", 7, 9),
            "{\"reason\":\"build-finished\",\"success\":true}".to_string(),
        ]
        .join("\n");
        let lints = ["clippy::panic", "clippy::indexing_slicing", "clippy::todo"].map(String::from);
        let expected = [
            ("clippy::panic", 1),
            ("clippy::indexing_slicing", 2),
            ("clippy::todo", 0),
        ];
        assert_eq!(count_clippy_json(&out, &lints), counts(&expected));
    }
}
