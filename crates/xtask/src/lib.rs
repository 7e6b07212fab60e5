//! The workspace checks no toolchain lint can express (`cargo run -p
//! xtask -- analyze`) and the CI lint ratchet ([`baseline`]). rustc and
//! clippy enforce the rest of the determinism contract from
//! `[workspace.lints]` and `clippy.toml`.
//!
//! A small hand-rolled analyzer (no crates.io here) lexes, tokenizes and
//! item-parses every `.rs` file of this workspace. It skips `target`,
//! `.git`, `vendor`, `results`, fixture trees, and nested directories
//! whose `Cargo.toml` declares their own `[workspace]`. Test code (under
//! `tests/`, `benches/`, `examples/`, or `#[cfg(test)]`) is exempt from
//! every [`Lint`] but the unsafe inventory. A finding is suppressed by
//! `// xtask: allow(<lint>) -- <justification>` on its line or the line
//! above; suppressed findings still count toward the ratchet.

#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::{fs, io};

pub mod baseline;
mod lexer;
mod lints;
mod parser;

/// The lint families, in report order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Lint {
    /// `seed_from_u64` takes neither the bare seed nor `seed ^ <NAME>_STREAM`.
    RngStream,
    /// Float ordering via `partial_cmp` plus `unwrap`/`expect`/`unwrap_or`
    /// instead of `total_cmp`.
    FloatOrd,
    /// A `*_STREAM` constant outside the one module marked
    /// `// xtask: stream-registry`, duplicated in name or value, or a
    /// reference to an unregistered one.
    StreamRegistry,
    /// A library-crate `pool::acquire`/`acquire_vec` without a reachable
    /// `pool::release*` in an impl of the same type (or the same free fn).
    PoolPairing,
    /// A scenario or mesh-sim `pub fn` returning `Self` or a `*Builder` by
    /// value without `#[must_use]`, outside `return_self_not_must_use`.
    MustUseApi,
    /// An `unsafe fn`/`unsafe trait` declaration without a `// SAFETY:`
    /// comment (blocks and impls are clippy's `undocumented_unsafe_blocks`).
    UndocumentedUnsafe,
    /// A malformed `// xtask: allow(..)` comment.
    BadAllow,
}

impl Lint {
    /// Every lint, in report order.
    pub const ALL: [Lint; 7] = [
        Lint::RngStream,
        Lint::FloatOrd,
        Lint::StreamRegistry,
        Lint::PoolPairing,
        Lint::MustUseApi,
        Lint::UndocumentedUnsafe,
        Lint::BadAllow,
    ];

    /// The snake_case name used in allow comments, reports, and the
    /// ratchet baseline.
    pub fn name(self) -> &'static str {
        match self {
            Lint::RngStream => "rng_stream",
            Lint::FloatOrd => "float_ord",
            Lint::StreamRegistry => "stream_registry",
            Lint::PoolPairing => "pool_pairing",
            Lint::MustUseApi => "must_use_api",
            Lint::UndocumentedUnsafe => "undocumented_unsafe",
            Lint::BadAllow => "bad_allow",
        }
    }
}

/// One lint violation.
#[derive(Debug)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Why this is a contract violation and what to do instead.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(lint: Lint, file: &str, line: usize, message: impl Into<String>) -> Self {
        let (file, message) = (file.to_string(), message.into());
        Finding {
            lint,
            file,
            line,
            message,
        }
    }
}

/// One parsed `// xtask: allow(<lint>) -- <justification>`.
#[derive(Debug)]
pub struct AllowEntry {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the comment.
    pub line: usize,
    /// The lint being suppressed.
    pub lint: Lint,
    /// The text after `--`.
    pub justification: String,
    /// Whether the entry suppressed at least one finding.
    pub used: bool,
}

/// One `unsafe` occurrence, documented or not.
#[derive(Debug)]
pub struct UnsafeSite {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// `block`, `fn`, `impl`, or `trait`.
    pub kind: &'static str,
    /// The `SAFETY:` text, when present.
    pub safety: Option<String>,
}

/// Everything one `analyze` run produced.
#[derive(Default)]
pub struct Report {
    /// Unsuppressed violations, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// Every allow entry seen, with its usage accounted.
    pub allows: Vec<AllowEntry>,
    /// The full unsafe inventory (documented sites included).
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Findings suppressed by allows, counted per lint.
    pub suppressed: BTreeMap<Lint, usize>,
}

impl Report {
    /// No unsuppressed findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The unsuppressed findings of one lint.
    pub fn of(&self, lint: Lint) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.lint == lint).collect()
    }

    /// The ratchet counts: per-lint totals *including* suppressed
    /// findings, the unsafe inventory size, and the unused allows.
    pub fn counts(&self) -> BTreeMap<String, usize> {
        let mut out: BTreeMap<String, usize> = Lint::ALL
            .iter()
            .map(|&l| {
                let hidden = self.suppressed.get(&l).copied().unwrap_or(0);
                (l.name().to_string(), self.of(l).len() + hidden)
            })
            .collect();
        out.insert("unsafe_sites".into(), self.unsafe_sites.len());
        let unused = self.allows.iter().filter(|a| !a.used).count();
        out.insert("unused_allows".into(), unused);
        out
    }

    /// Human-readable report: findings, every allow entry, and the unsafe
    /// inventory.
    pub fn render(&self) -> String {
        let mut out = vec![format!("xtask analyze: {} finding(s)", self.findings.len())];
        out.extend(self.findings.iter().map(|f| {
            let name = f.lint.name();
            format!("  {}:{}  [{name}] {}", f.file, f.line, f.message)
        }));
        out.push(format!("allowlist entries: {}", self.allows.len()));
        out.extend(self.allows.iter().map(|a| {
            let state = if a.used { "used" } else { "UNUSED" };
            let (name, why) = (a.lint.name(), &a.justification);
            format!("  {}:{}  allow({name}) {state} -- {why}", a.file, a.line)
        }));
        let documented = self.unsafe_sites.iter().filter(|s| s.safety.is_some());
        let (n, documented) = (self.unsafe_sites.len(), documented.count());
        out.push(format!(
            "unsafe inventory: {n} site(s), {documented} documented"
        ));
        out.extend(self.unsafe_sites.iter().map(|s| {
            let (file, line, kind) = (&s.file, s.line, s.kind);
            let safety = s.safety.as_deref().unwrap_or("<undocumented>");
            format!("  {file}:{line}  unsafe {kind}  SAFETY: {safety}")
        }));
        out.join("\n") + "\n"
    }
}

/// Parses one allow directive (the comment text after `xtask: allow(`),
/// or says why it is malformed.
fn parse_allow(rest: &str) -> Result<(Lint, String), String> {
    let (name, after) = rest
        .split_once(')')
        .ok_or("allow comment has no closing `)`")?;
    // `bad_allow` is deliberately not allowable.
    let lint = Lint::ALL
        .into_iter()
        .find(|l| *l != Lint::BadAllow && l.name() == name.trim())
        .ok_or_else(|| format!("unknown lint `{name}` in allow comment"))?;
    match after.trim().strip_prefix("--").map(str::trim) {
        None | Some("") => Err("allow comment lacks a `-- <justification>`".to_string()),
        Some(why) => Ok((lint, why.to_string())),
    }
}

/// Parses the file's allow directives, reporting malformed ones. The
/// directive must be the whole line comment, so mentions inside strings
/// and `///`/`//!` docs never parse as allows.
fn parse_allows(e: &FileEntry, findings: &mut Vec<Finding>) -> Vec<AllowEntry> {
    let mut allows = Vec::new();
    for (i, comment) in e.view.comment.iter().enumerate() {
        let directive = comment.as_deref().map(str::trim_start);
        let Some(rest) = directive.and_then(|c| c.strip_prefix("xtask: allow(")) else {
            continue;
        };
        match parse_allow(rest) {
            Ok((lint, justification)) => allows.push(AllowEntry {
                file: e.rel.clone(),
                line: i + 1,
                lint,
                justification,
                used: false,
            }),
            Err(message) => findings.push(Finding::new(Lint::BadAllow, &e.rel, i + 1, message)),
        }
    }
    allows
}

/// Moves unsuppressed findings into the report, marks matching allows
/// used, and counts what the allows hid. An allow covers its own line and
/// the line below it.
fn resolve(findings: Vec<Finding>, allows: &mut [AllowEntry], report: &mut Report) {
    for f in findings {
        let covers =
            |a: &&mut AllowEntry| a.lint == f.lint && (a.line == f.line || a.line + 1 == f.line);
        match allows.iter_mut().find(covers) {
            Some(a) => {
                a.used = true;
                *report.suppressed.entry(f.lint).or_insert(0) += 1;
            }
            None => report.findings.push(f),
        }
    }
}

/// One analyzed source file.
pub(crate) struct FileEntry {
    rel: String,
    view: lexer::FileView,
    parsed: parser::ParsedFile,
}

impl FileEntry {
    fn new(rel: String, text: &str) -> Self {
        let view = lexer::lex(text);
        let parsed = parser::parse(parser::tokenize(&view));
        FileEntry { rel, view, parsed }
    }
}

/// Analyzes every `.rs` file of the workspace rooted at `root`.
pub fn analyze_root(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut entries = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        entries.push(FileEntry::new(rel, &fs::read_to_string(path)?));
    }

    let (registry, mut registry_findings) = lints::build_registry(&entries);
    let mut report = Report::default();
    for e in &entries {
        let mut findings = Vec::new();
        if !lints::is_test_path(&e.rel) {
            lints::run_float_ord(e, &mut findings);
            lints::run_token_lints(e, &registry, &mut findings);
        }
        report
            .unsafe_sites
            .extend(lints::run_unsafe_audit(e, &mut findings));
        findings.extend(registry_findings.extract_if(.., |f| f.file == e.rel));
        let mut allows = parse_allows(e, &mut findings);
        resolve(findings, &mut allows, &mut report);
        report.allows.extend(allows);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            // A nested package with its own `[workspace]` (perfbench/) is
            // not part of this workspace's sources.
            let own_workspace = fs::read_to_string(path.join("Cargo.toml"))
                .is_ok_and(|t| t.lines().any(|l| l.trim() == "[workspace]"));
            let skip = matches!(&*name, "target" | ".git" | "vendor" | "results");
            // Fixture trees are dirty on purpose.
            let fixture = matches!(&*name, "fixtures" | "lint-fixture");
            if !skip && !fixture && !own_workspace {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn allow_directives_parse_or_explain() {
        let entry = FileEntry::new(
            "crates/rlnc/src/x.rs".into(),
            "// xtask: allow(pool_pairing) -- ownership moves into the packet\n\
             // xtask: allow(rng_stream, file) -- no scopes\n\
             // xtask: allow(made_up) -- nope\n\
             // xtask: allow(bad_allow) -- nope\n\
             // xtask: allow(float_ord)\n\
             // xtask: allow(float_ord\n",
        );
        let mut findings = Vec::new();
        let allows = parse_allows(&entry, &mut findings);
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].lint, Lint::PoolPairing);
        assert_eq!(findings.len(), 5);
        assert!(findings.iter().all(|f| f.lint == Lint::BadAllow));
    }

    #[test]
    fn allows_reach_one_line_down_and_still_count() {
        let finding = |line| Finding {
            lint: Lint::RngStream,
            file: "f.rs".into(),
            line,
            message: String::new(),
        };
        let mut report = Report::default();
        let mut allows = vec![AllowEntry {
            file: "f.rs".into(),
            line: 10,
            lint: Lint::RngStream,
            justification: "x".into(),
            used: false,
        }];
        resolve(vec![finding(11), finding(12)], &mut allows, &mut report);
        assert!(allows[0].used);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.counts()["rng_stream"], 2);
    }

    #[test]
    fn registry_flags_duplicate_stream_names_and_values() {
        let entries = vec![
            FileEntry::new(
                "crates/mesh-topology/src/streams.rs".into(),
                "// xtask: stream-registry\npub const A_STREAM: u64 = 1;\npub const B_STREAM: u64 = 1;\n",
            ),
            FileEntry::new(
                "crates/mesh-sim/src/channel.rs".into(),
                "pub const A_STREAM: u64 = 2;\n",
            ),
        ];
        let (reg, findings) = lints::build_registry(&entries);
        assert_eq!(reg.files, ["crates/mesh-topology/src/streams.rs"]);
        assert_eq!(reg.streams.len(), 2);
        // One duplicate-name finding (A_STREAM redefined), one
        // duplicate-value finding (B_STREAM == A_STREAM).
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.lint == Lint::StreamRegistry));
    }
}
