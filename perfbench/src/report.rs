//! Metric names, the per-layer attribution of a traced pass, provenance
//! and the result line.

use crate::trace::{HookStat, RunHooks, Span, HOOKS, ROLES};
use crate::workloads::PROTOCOLS;
use more_scenario::RunRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("frames_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// MORE hooks whose host time every workload exercises.
const MORE_TIMED: [&str; 4] = ["on_receive", "poll_tx", "on_tx_done", "recycle"];

/// Per-layer metrics (traced runs), with units, in output order.
///
/// Hook times enter only where every workload calls the hook, so no
/// time reads a constant zero; the rest of the hook times are in the
/// report lines and the trace file.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for p in PROTOCOLS {
        for h in HOOKS {
            m.push((format!("{}.{h}.calls", p.to_lowercase()), "count"));
        }
    }
    for h in MORE_TIMED {
        m.push((format!("more.{h}.us"), "us"));
    }
    for name in [
        "more.poll_tx.src.us",
        "more.poll_tx.fwd.us",
        "more.on_receive.fwd.us",
        "more.on_receive.dst.us",
    ] {
        m.push((name.to_string(), "us"));
    }
    for layer in ["build", "hooks", "sink", "engine"] {
        m.push((format!("share.{layer}_pct"), "%"));
    }
    m.push(("flows_incomplete".into(), "count"));
    for p in PROTOCOLS {
        m.push((format!("{}.flows_incomplete", p.to_lowercase()), "count"));
    }
    m.push(("sim.total_tx".into(), "count"));
    m.push(("queue.drops".into(), "count"));
    for k in [32, 128] {
        for op in ["encode", "precode", "decode"] {
            m.push((format!("rlnc.{op}_us.k{k}"), "us"));
        }
        m.push((format!("gf256.axpy_many_mbps.k{k}"), "MB/s"));
    }
    for topo in ["testbed", "city"] {
        for op in ["etx", "eotx", "plan"] {
            m.push((format!("metrics.{op}_us.{topo}"), "us"));
        }
        m.push((format!("medium.eval_ns.{topo}"), "ns"));
    }
    m.push(("scenario.build_ms".into(), "ms"));
    m.push(("topology.generate_ms".into(), "ms"));
    m.push(("engine.self_s".into(), "s"));
    m.push(("engine.ns_per_rx".into(), "ns"));
    m.push(("sink.record_us".into(), "us"));
    m.push(("trace.overhead_pct".into(), "%"));
    m
}

/// Where one traced pass's host time went.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// Σ run spans, by protocol.
    pub run_ns: BTreeMap<String, u64>,
    /// Hook sums, by protocol.
    pub hooks: BTreeMap<String, RunHooks>,
    pub build_ns: u64,
    pub sink_ns: u64,
}

impl Breakdown {
    pub fn of(spans: &[Span], runs: &[RunHooks]) -> Self {
        let mut b = Breakdown::default();
        for s in spans {
            match s.name {
                "run" => *b.run_ns.entry(s.protocol.clone()).or_default() += s.nanos(),
                "build" => b.build_ns += s.nanos(),
                "sink.record" => b.sink_ns += s.nanos(),
                _ => {}
            }
        }
        for r in runs {
            let sum = b.hooks.entry(r.protocol.clone()).or_default();
            sum.protocol = r.protocol.clone();
            for (acc, h) in sum.hooks.iter_mut().zip(r.hooks) {
                acc.merge(h);
            }
            for (acc, h) in sum.poll_tx_by_role.iter_mut().zip(r.poll_tx_by_role) {
                acc.merge(h);
            }
            for (acc, h) in sum.on_receive_by_role.iter_mut().zip(r.on_receive_by_role) {
                acc.merge(h);
            }
        }
        b
    }

    pub fn total_run_ns(&self) -> u64 {
        self.run_ns.values().sum()
    }

    pub fn hooks_ns(&self) -> u64 {
        self.hooks.values().map(RunHooks::total_nanos).sum()
    }

    /// Run time outside hooks, factory builds and sink records: the
    /// event loop, MAC, medium and queues, plus the scenario layer's
    /// per-run set-up (validation, topology copy, simulator build).
    pub fn engine_self_ns(&self) -> u64 {
        self.total_run_ns()
            .saturating_sub(self.hooks_ns() + self.build_ns + self.sink_ns)
    }

    fn hook(&self, protocol: &str, hook: usize) -> HookStat {
        self.hooks
            .get(protocol)
            .map(|h| h.hooks[hook])
            .unwrap_or_default()
    }

    /// The per-layer metrics this pass yields.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        let us = |ns: u64| ns as f64 / 1e3;
        for p in PROTOCOLS {
            for (i, h) in HOOKS.iter().enumerate() {
                let stat = self.hook(p, i);
                let key = format!("{}.{h}", p.to_lowercase());
                m.insert(format!("{key}.calls"), stat.calls as f64);
                m.insert(format!("{key}.us"), us(stat.nanos));
            }
            if let Some(h) = self.hooks.get(p) {
                for (r, role) in ROLES.iter().enumerate() {
                    let key = p.to_lowercase();
                    m.insert(
                        format!("{key}.poll_tx.{role}.us"),
                        us(h.poll_tx_by_role[r].nanos),
                    );
                    m.insert(
                        format!("{key}.on_receive.{role}.us"),
                        us(h.on_receive_by_role[r].nanos),
                    );
                }
            }
        }
        let total = self.total_run_ns().max(1) as f64;
        let pct = |ns: u64| ns as f64 / total * 100.0;
        m.insert("share.build_pct".into(), pct(self.build_ns));
        m.insert("share.hooks_pct".into(), pct(self.hooks_ns()));
        m.insert("share.sink_pct".into(), pct(self.sink_ns));
        m.insert("share.engine_pct".into(), pct(self.engine_self_ns()));
        m.insert("scenario.build_ms".into(), self.build_ns as f64 / 1e6);
        m.insert("sink.record_us".into(), us(self.sink_ns));
        let self_ns = self.engine_self_ns();
        m.insert("engine.self_s".into(), self_ns as f64 / 1e9);
        let rx: u64 = PROTOCOLS.iter().map(|p| self.hook(p, 0).calls).sum();
        m.insert("engine.ns_per_rx".into(), self_ns as f64 / rx.max(1) as f64);
        m
    }

    /// Human-readable shares of host time, overall and per protocol.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let total = self.total_run_ns().max(1) as f64;
        let pct = |ns: u64, of: f64| ns as f64 / of * 100.0;
        let _ = writeln!(
            out,
            "  run host time {:.3} s: build {:.1} %, hooks {:.1} %, sink {:.2} %, engine self {:.1} %",
            total / 1e9,
            pct(self.build_ns, total),
            pct(self.hooks_ns(), total),
            pct(self.sink_ns, total),
            pct(self.engine_self_ns(), total),
        );
        for (p, h) in &self.hooks {
            let own = self.run_ns.get(p).copied().unwrap_or(0).max(1) as f64;
            let _ = write!(
                out,
                "  {p:<5} hooks {:5.1} % of its runs ({:.3} s):",
                pct(h.total_nanos(), own),
                own / 1e9
            );
            for (i, name) in HOOKS.iter().enumerate() {
                let s = h.hooks[i];
                if s.calls > 0 {
                    let _ = write!(
                        out,
                        " {name} {:.1}% ({} calls, {:.0} ns/call);",
                        pct(s.nanos, own),
                        s.calls,
                        s.nanos as f64 / s.calls as f64
                    );
                }
            }
            let _ = writeln!(out);
            let role = |split: &[HookStat; 3]| {
                ROLES
                    .iter()
                    .zip(split)
                    .map(|(r, s)| format!("{r} {:.1}%", pct(s.nanos, own)))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = writeln!(
                out,
                "        poll_tx by role: {}; on_receive by role: {}",
                role(&h.poll_tx_by_role),
                role(&h.on_receive_by_role)
            );
        }
        out
    }
}

/// Deterministic counts from the records of one pass.
pub fn record_counts(records: &[RunRecord]) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let incomplete = |p: Option<&str>| {
        records
            .iter()
            .filter(|r| p.is_none_or(|p| r.protocol == p))
            .flat_map(|r| &r.flows)
            .filter(|f| !f.completed)
            .count() as f64
    };
    m.insert("flows_incomplete".into(), incomplete(None));
    for p in PROTOCOLS {
        m.insert(
            format!("{}.flows_incomplete", p.to_lowercase()),
            incomplete(Some(p)),
        );
    }
    m.insert(
        "sim.total_tx".into(),
        records.iter().map(|r| r.total_tx).sum::<u64>() as f64,
    );
    m.insert(
        "queue.drops".into(),
        records.iter().map(|r| r.queue_drops).sum::<u64>() as f64,
    );
    m
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `metrics` in the order of `names`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    names: &[(String, &str)],
    values: &BTreeMap<String, f64>,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(f64::NAN);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                if v.is_finite() {
                    v.to_string()
                } else {
                    "null".into()
                },
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Host, parallelism, coding backend and source revision.
pub fn provenance() -> Vec<(&'static str, String)> {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".into());
    vec![
        ("host", host),
        ("cpu", cpu),
        ("nproc", nproc),
        (
            "gf256_kernel",
            format!(
                "{:?} ({})",
                gf256::slice_ops::active_kernel(),
                gf256::wide::backend()
            ),
        ),
        ("git_revision", git),
        ("source_digest", format!("{:016x}", source_digest())),
    ]
}

/// FNV-1a 64 over the engine crates' sources (paths and bytes, sorted
/// by path), so a result names the code it measured even outside git.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let name = f
            .strip_prefix(&root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in name.bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let listed: Vec<&str> = json
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let mut ours: Vec<String> = crate::workloads::NAMES
            .iter()
            .map(|s| s.to_string())
            .chain(END_TO_END.iter().map(|(n, _)| n.to_string()))
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        let mut listed: Vec<String> = listed.into_iter().map(String::from).collect();
        ours.sort();
        listed.sort();
        assert_eq!(listed, ours);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let names = vec![("wall_s".to_string(), "s")];
        let values = BTreeMap::from([("wall_s".to_string(), 1.25)]);
        assert_eq!(
            result_line(true, 3, 0, &names, &values),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
