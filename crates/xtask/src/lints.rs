//! The lint implementations: `float_ord` over the lexer's blanked lines,
//! the unsafe inventory, and the token lints over the parsed items.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::FileView;
use crate::parser::{last_path_segment, scan_to, ParsedFile, Token};
use crate::{FileEntry, Finding, Lint, UnsafeSite};

/// Library crates: everything that ships simulation or coding logic, not
/// the operator tooling in `crates/bench` and `crates/xtask`.
pub(crate) fn is_library_crate(file: &str) -> bool {
    match file.strip_prefix("crates/") {
        Some(rest) => !rest.starts_with("bench/") && !rest.starts_with("xtask/"),
        None => file.starts_with("src/"),
    }
}

/// Test, bench, and example paths.
pub(crate) fn is_test_path(file: &str) -> bool {
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|d| file.starts_with(d) || file.contains(&format!("/{d}")))
}

/// `float_ord`: `partial_cmp` with an unwrap-style call on the same or
/// the next line.
pub(crate) fn run_float_ord(e: &FileEntry, findings: &mut Vec<Finding>) {
    let code = &e.view.code;
    for (i, line) in code.iter().enumerate().filter(|(i, _)| !e.view.test[*i]) {
        let next = code.get(i + 1).map_or("", String::as_str);
        let unwrapped = [line, next].iter().any(|l| {
            l.contains(".unwrap()") || l.contains(".expect(") || l.contains(".unwrap_or(")
        });
        if line.contains("partial_cmp") && !line.contains("fn partial_cmp") && unwrapped {
            let message = "float ordering via partial_cmp + unwrap/expect/unwrap_or panics (or \
                           lies) on NaN; use f64::total_cmp for a deterministic total order";
            findings.push(Finding::new(Lint::FloatOrd, &e.rel, i + 1, message));
        }
    }
}

/// Inventories every `unsafe` in the file. Undocumented `unsafe fn` and
/// `unsafe trait` declarations are findings; blocks and impls are
/// clippy's `undocumented_unsafe_blocks`.
pub(crate) fn run_unsafe_audit(e: &FileEntry, findings: &mut Vec<Finding>) -> Vec<UnsafeSite> {
    let toks = &e.parsed.tokens;
    let mut sites = Vec::new();
    for (i, t) in toks.iter().enumerate().filter(|(_, t)| t.is("unsafe")) {
        let is_kind = |k: &&str| toks.get(i + 1).is_some_and(|n| n.is(k));
        let kind = ["fn", "impl", "trait"].into_iter().find(is_kind);
        let (kind, line) = (kind.unwrap_or("block"), t.line);
        let (file, safety) = (e.rel.clone(), safety_comment(&e.view, line - 1));
        if safety.is_none() && matches!(kind, "fn" | "trait") {
            let msg = format!("unsafe {kind} without a `// SAFETY:` comment on or above it");
            findings.push(Finding::new(Lint::UndocumentedUnsafe, &file, line, msg));
        }
        sites.push(UnsafeSite {
            file,
            line,
            kind,
            safety,
        });
    }
    sites
}

/// The `SAFETY:` text for an unsafe site on line `i` (0-based): on the
/// same line, or in the contiguous comment and attribute lines above.
fn safety_comment(view: &FileView, i: usize) -> Option<String> {
    let above = (0..i).rev().take_while(|&j| {
        let code = view.code[j].trim();
        (code.is_empty() && view.comment[j].is_some()) || code.starts_with('#')
    });
    let extract = |c: &String| c.split_once("SAFETY:").map(|(_, t)| t.trim().to_string());
    std::iter::once(i)
        .chain(above)
        .find_map(|j| view.comment[j].as_ref().and_then(extract))
}

/// What the cross-file lints know of the whole workspace: the RNG stream
/// registry (the file whose line comment is exactly `// xtask:
/// stream-registry`, and the constants it defines) and the `#[must_use]`
/// types.
#[derive(Default)]
pub(crate) struct Registry {
    /// Files carrying the marker (at most one is legitimate).
    pub files: Vec<String>,
    /// Registered stream constants: name → (file, line, value tokens).
    pub streams: BTreeMap<String, (String, usize, String)>,
    /// The structs and enums declared `#[must_use]`.
    pub must_use_types: BTreeSet<String>,
}

fn is_stream_name(name: &str) -> bool {
    name.len() > "_STREAM".len() && name.ends_with("_STREAM")
}

/// Finds the registry and checks that stream names are workspace-unique
/// and registered values distinct: equal XOR constants would collapse two
/// streams into one RNG sequence.
pub(crate) fn build_registry(entries: &[FileEntry]) -> (Registry, Vec<Finding>) {
    let mut findings = Vec::new();
    let mut push = |file: &str, line, msg| {
        let lint = Lint::StreamRegistry;
        findings.push(Finding::new(lint, file, line, msg));
    };
    let marked = |e: &&FileEntry| {
        let mut comments = e.view.comment.iter().flatten();
        comments.any(|c| c.trim() == "xtask: stream-registry")
    };
    let files = entries.iter().filter(marked).map(|e| e.rel.clone());
    let mut reg = Registry {
        files: files.collect(),
        must_use_types: must_use_types(entries),
        ..Registry::default()
    };
    for extra in reg.files.iter().skip(1) {
        let msg = format!("a second registry marker (the first is `{}`)", reg.files[0]);
        push(extra, 1, msg);
    }
    let mut seen: BTreeMap<&str, (&str, usize)> = BTreeMap::new();
    for e in entries {
        let streams = e.parsed.consts.iter().filter(|c| is_stream_name(&c.name));
        for c in streams.filter(|c| !e.view.test[c.line - 1]) {
            if let Some((first, line)) = seen.insert(&c.name, (&e.rel, c.line)) {
                let msg = format!("`{}` is already defined at {first}:{line}", c.name);
                push(&e.rel, c.line, msg);
            }
            if reg.files.contains(&e.rel) {
                let def = (e.rel.clone(), c.line, c.value.clone());
                reg.streams.insert(c.name.clone(), def);
            }
        }
    }
    let mut by_value: BTreeMap<&str, &str> = BTreeMap::new();
    for (name, (file, line, value)) in &reg.streams {
        if let Some(other) = by_value.insert(value, name).filter(|_| !value.is_empty()) {
            push(
                file,
                *line,
                format!("`{name}` has the same value as `{other}`"),
            );
        }
    }
    (reg, findings)
}

/// `rng_stream` (outside `crates/bench`), `stream_registry` references,
/// `pool_pairing` (in library crates) and `must_use_api` (in scenario and
/// mesh-sim).
pub(crate) fn run_token_lints(e: &FileEntry, reg: &Registry, findings: &mut Vec<Finding>) {
    let pf = &e.parsed;
    let mut push = |lint, t: &Token, msg| findings.push(Finding::new(lint, &e.rel, t.line, msg));
    let live = |(_, t): &(usize, &Token)| !e.view.test[t.line - 1];
    for (i, t) in pf.tokens.iter().enumerate().filter(live) {
        let next = |k: usize| pf.tokens.get(i + k).map_or("", |t| t.text.as_str());
        if t.is("seed_from_u64") && next(1) == "(" && !e.rel.starts_with("crates/bench/") {
            let arg = &pf.tokens[i + 2..scan_to(&pf.tokens, i + 2, &[")"])];
            let texts = || arg.iter().map(|t| t.text.as_str());
            // The bare seed (`seed`, `self.seed`, ...) or a named stream.
            let plain = arg.iter().all(|t| t.is_word() || t.is(".") || t.is("::"));
            let bare_seed = plain && texts().any(|t| t.contains("seed"));
            if !(bare_seed || texts().any(is_stream_name)) {
                let arg = texts().collect::<Vec<_>>().join(" ");
                let msg = format!(
                    "`seed_from_u64({arg})` is not derived from the run seed; pass the bare \
                     seed or `seed ^ <NAME>_STREAM` with a named stream constant"
                );
                push(Lint::RngStream, t, msg);
            }
        } else if is_stream_name(&t.text) {
            let defined_here = pf
                .consts
                .iter()
                .any(|c| c.name == t.text && c.line == t.line);
            let msg = if defined_here && !reg.files.contains(&e.rel) {
                "is defined outside the registry"
            } else if !defined_here && !reg.streams.contains_key(&t.text) {
                "is not a registered stream"
            } else {
                continue;
            };
            push(Lint::StreamRegistry, t, format!("`{}` {msg}", t.text));
        } else if t.is("pool") && next(1) == "::" && is_library_crate(&e.rel) {
            let releases: &[&str] = match next(2) {
                "acquire" => &["release", "release_mut"],
                "acquire_vec" => &["release_vec"],
                _ => continue,
            };
            if !acquire_is_paired(pf, i, releases) {
                let (acquire, release) = (next(2), releases.join("`/`pool::"));
                let msg = format!(
                    "`pool::{acquire}` has no reachable `pool::{release}` in this impl, a \
                     sibling inherent impl, or the type's Drop impl; pair it, or document \
                     the ownership transfer with an allow"
                );
                push(Lint::PoolPairing, t, msg);
            }
        } else if t.is("fn") {
            if let Some(msg) = must_use_api(e, i, &reg.must_use_types) {
                push(Lint::MustUseApi, t, msg);
            }
        }
    }
}

/// Whether the attributes of the item whose keyword is token `end` name
/// `attr`: every token between the previous `;`, `{` or `}` and the
/// keyword is an attribute or a qualifier such as `pub`.
fn has_attr(toks: &[Token], end: usize, attr: &str) -> bool {
    let head = toks[..end].iter().rev();
    head.take_while(|t| !(t.is(";") || t.is("{") || t.is("}")))
        .any(|t| t.is(attr))
}

/// The names of the structs and enums declared `#[must_use]`.
fn must_use_types(entries: &[FileEntry]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for toks in entries.iter().map(|e| &e.parsed.tokens) {
        let types = (0..toks.len()).filter(|&i| toks[i].is("struct") || toks[i].is("enum"));
        for i in types {
            if has_attr(toks, i, "must_use") {
                out.extend(toks.get(i + 1).map(|t| t.text.clone()));
            }
        }
    }
    out
}

/// The `must_use_api` finding for the fn whose keyword is token `i`, in
/// scenario and mesh-sim: a `pub fn` that returns `Self` or a `*Builder`
/// by value needs `#[must_use]` on itself or on the returned type.
/// Clippy's `return_self_not_must_use` covers the methods that take
/// `self` and return their own type; this covers the rest: constructors,
/// free fns, and methods that return another builder.
fn must_use_api(e: &FileEntry, i: usize, types: &BTreeSet<String>) -> Option<String> {
    let (pf, toks) = (&e.parsed, &e.parsed.tokens);
    let rest = e.rel.strip_prefix("crates/")?;
    (rest.starts_with("scenario/") || rest.starts_with("mesh-sim/")).then_some(())?;
    let open = scan_to(toks, i + 1, &["("]);
    let close = scan_to(toks, open + 1, &[")"]);
    (has_attr(toks, i, "pub") && toks.get(close + 1)?.is("->")).then_some(())?;
    let ret = &toks[close + 2..scan_to(toks, close + 2, &["{", ";", "where"])];
    ret.first().filter(|t| t.is_word() && !t.is("impl"))?;
    let own = pf.enclosing_impl(i).map(|im| im.type_name.as_str());
    let base = last_path_segment(ret);
    let ty = (base != "Self").then_some(base.as_str()).or(own)?;
    let first_param = &toks[open + 1..scan_to(toks, open + 1, &[",", ")"])];
    let clippys = first_param.iter().any(|t| t.is("self")) && Some(ty) == own;
    let covered = clippys || types.contains(ty) || has_attr(toks, i, "must_use");
    let name = &toks[i + 1].text;
    let msg = format!(
        "public fn `{name}` returns `{ty}` by value, so a dropped result is silently lost; add \
         #[must_use] to the fn or to `{ty}`"
    );
    (!covered && (base == "Self" || ty.ends_with("Builder"))).then_some(msg)
}

/// Whether the acquire at token `i` has a matching release in the same
/// impl block, a sibling inherent impl or Drop impl of the same type in
/// this file, or (for free functions) in the same fn body. A release in
/// an unrelated trait impl does not count.
fn acquire_is_paired(pf: &ParsedFile, i: usize, releases: &[&str]) -> bool {
    let released_within = |(a, b): (usize, usize)| {
        let span = pf.tokens.get(a..=b).unwrap_or_default();
        span.windows(3)
            .any(|w| w[0].is("pool") && w[1].is("::") && releases.contains(&w[2].text.as_str()))
    };
    match pf.enclosing_impl(i) {
        Some(im) => pf.impls.iter().any(|other| {
            let related =
                other.span == im.span || other.trait_name.as_deref().is_none_or(|t| t == "Drop");
            other.type_name == im.type_name && related && released_within(other.span)
        }),
        None => pf.enclosing_fn(i).is_some_and(released_within),
    }
}

#[cfg(test)]
mod test {
    use super::*;

    fn rng_findings(src: &str) -> Vec<usize> {
        let e = FileEntry::new("crates/mesh-sim/src/x.rs".into(), src);
        let mut findings = Vec::new();
        run_token_lints(&e, &Registry::default(), &mut findings);
        let rng = findings.iter().filter(|f| f.lint == Lint::RngStream);
        rng.map(|f| f.line).collect()
    }

    #[test]
    fn seed_args_classified() {
        let ok = "seed\nrun_seed\nself.seed\nseed ^ attempt.wrapping_mul(GEO_STREAM)";
        let bad = "12345\nseed * 31 + k\nk as u64\nmix(seed, 3)";
        let calls = |args: &str| {
            let lines = args.lines().map(|a| format!("f(R::seed_from_u64({a}));\n"));
            rng_findings(&lines.collect::<String>())
        };
        assert_eq!(calls(ok), Vec::<usize>::new());
        assert_eq!(calls(bad), [1, 2, 3, 4]);
    }

    #[test]
    fn path_classification() {
        assert!(is_library_crate("crates/rlnc/src/decoder.rs"));
        assert!(is_library_crate("src/lib.rs"));
        assert!(!is_library_crate("crates/bench/src/stats.rs"));
        assert!(!is_library_crate("crates/xtask/src/lints.rs"));
        assert!(!is_library_crate("examples/quickstart.rs"));
        assert!(is_test_path("crates/rlnc/tests/it.rs"));
        assert!(is_test_path("examples/quickstart.rs"));
        assert!(!is_test_path("crates/rlnc/src/tests_helper.rs"));
    }
}
