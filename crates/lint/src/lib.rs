//! cloudchar-lint: determinism/correctness lint pass over the workspace.
//!
//! The simulation's headline guarantee is *reproducibility*: the same
//! master seed must give byte-identical results, and figure/table output
//! must not depend on hash-map iteration order or wall-clock reads.
//! This crate enforces that guarantee statically with a dependency-free
//! pipeline: a lossless Rust [`lexer`], an item-level [`parse`]r, a
//! workspace [`symbols`] table, a conservative [`callgraph`], and the
//! [`rules`] that run over all of it.
//!
//! Line rules (pattern matching over masked source):
//!
//! * **CL001** — no `Instant::now` / `SystemTime::now` / `thread_rng`
//!   inside simulation crates (`simcore`, `hw`, `xen`, `rubis`,
//!   `monitor`, `core`). Wall-clock reads belong only in the `bench`
//!   harness.
//! * **CL002** — no `.unwrap()` / `.expect(` / `panic!` in library code
//!   paths. Tests, benches, examples and binaries are allowlisted;
//!   audited exceptions live in `crates/lint/suppressions.txt`.
//! * **CL003** — no `HashMap` / `HashSet` in the report-producing files
//!   (`monitor::store`, `core::report`, `core::compare`): anything that
//!   feeds CSV/markdown output must iterate in a deterministic order
//!   (`BTreeMap` or explicitly sorted).
//! * **CL004** — no bare `f64` `==`/`!=` against float literals in the
//!   `analysis` crate; use epsilon comparisons or `is_normal()` guards.
//! * **CL005** — no direct `.schedule_at(`/`.schedule_in(` calls in
//!   fault-related library files: fault timing must flow through
//!   `fault::install` so a `FaultPlan` stays the single replayable
//!   source of truth.
//! * **CL006** — no host-keyed `BTreeMap<(String, …)>` /
//!   `BTreeMap<(HostLabel, …)>` maps in sampling-path files: the
//!   per-tick record path is columnar (interned `HostId` + dense metric
//!   columns). On cohort-path files the same rule forbids per-client
//!   heap allocation (`Box::new(` / `Vec<Session>` / `VecDeque<`)
//!   inside the per-tick advance loop: client state lives in dense
//!   parallel columns and inline wheel-bucket entries.
//! * **CL007** — no `goertzel_power(` / `goertzel_periodogram(` /
//!   `find_lag_naive(` / `cross_correlation(` calls in library or
//!   binary code: the O(n²) oracles are test-only.
//! * **CL015** — no batch-recompute entry points (`SeriesScratch::`,
//!   `full_characterize`, `periodogram(`) in online-path files: the
//!   live profiling tick is O(1) amortized through the incremental
//!   kernels; the batch engine stays the test-only parity oracle.
//!
//! Workspace rules (symbol table + call graph):
//!
//! * **CL008** — every function reachable from a `par_map_ordered_with`
//!   worker region must be free of `Mutex`/`RwLock`/`RefCell`,
//!   `static mut`, and `Ordering::Relaxed` — pool workers must not share
//!   mutable state, or parallel replay stops being byte-identical.
//! * **CL009** — RNG-stream discipline in simulation crates: no
//!   `rng.clone()` (duplicated streams), no entropy-seeded constructors
//!   (`from_entropy`, `OsRng`, `getrandom`); streams fork only through
//!   `SimRng::derive`.
//! * **CL010** — no unchecked `+`/`-`/`*` on raw nanosecond integers
//!   (`.as_nanos()` results, `*_ns` variables) outside the audited
//!   boundary files (`simcore::time`, `simcore::queue`); use
//!   `checked_*`/`saturating_*` or the `SimTime`/`SimDuration` ops.
//! * **CL011** — matches whose patterns name `FaultKind`, `Source` or
//!   `Family` must be exhaustive (no `_` arm) in library code, so a new
//!   variant forces handling at compile time.
//! * **CL012** — library files that mutate simulated hardware/hypervisor
//!   state (non-test `&mut self` methods in `hw`/`xen`/the engine) must
//!   contain an `audit::` invariant check or a registered suppression.
//! * **CL013** — shard-logic files (code that runs *inside* a shard of
//!   the parallel sharded engine) must not share state across shards:
//!   no `Arc`, `Rc`, locks, cells, atomics, `static mut`, or
//!   `thread_local!`. Cross-shard communication happens only through
//!   typed channel messages, so parallel replay stays byte-identical.
//! * **CL014** — streaming-path files (the chunk codec and the
//!   out-of-core trace consumers) must not materialize a whole series:
//!   no `.to_vec()`, no `collect::<Vec<f64>>`, no
//!   `Vec::with_capacity(series_len`. The point of the on-disk store is
//!   bounded memory; one full-series copy silently voids it.
//!
//! Suppressions are audited exceptions; entries that no longer match any
//! finding are reported as *stale* and fail the run (escape hatch:
//! `--allow-stale`). A machine-readable JSON summary (versioned
//! `schema` field, per-rule counts) is available from the binary via
//! `--json`.
//!
//! Run it as `cargo run -p cloudchar-lint`; the integration test
//! `crates/lint/tests/lint_workspace.rs` runs the same pass so plain
//! `cargo test` gates it.

pub mod callgraph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod symbols;

pub use lexer::mask_source;
pub use parse::{classify, parse_file, test_line_flags, FileClass};

use crate::callgraph::CallGraph;
use crate::symbols::Workspace;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Version of the JSON report layout emitted by `--json`. Bump when a
/// field is added/renamed so `ci.sh` can verify it consumes what it
/// expects.
pub const SCHEMA_VERSION: u32 = 2;

/// Crate directory names whose library code models the simulation and
/// therefore must be free of wall-clock / ambient-randomness reads.
pub const SIM_CRATES: [&str; 6] = ["simcore", "hw", "xen", "rubis", "monitor", "core"];

/// Files whose output feeds reports/CSVs and therefore must iterate
/// deterministically (CL003).
pub const SORTED_OUTPUT_FILES: [&str; 3] = [
    "crates/monitor/src/store.rs",
    "crates/core/src/report.rs",
    "crates/core/src/compare.rs",
];

/// Files on the per-tick sampling hot path, which must stay columnar
/// (no host-keyed map lookups per sample — CL006).
pub const SAMPLING_PATH_FILES: [&str; 4] = [
    "crates/monitor/src/store.rs",
    "crates/monitor/src/synth.rs",
    "crates/core/src/workload.rs",
    "crates/core/src/batch.rs",
];

/// Files on the per-tick client-cohort hot path, which must stay
/// columnar: no per-client heap allocation (CL006's cohort half).
pub const COHORT_PATH_FILES: [&str; 2] =
    ["crates/rubis/src/cohort.rs", "crates/simcore/src/wheel.rs"];

/// Files that *define* the naive analysis oracles and are therefore
/// exempt from CL007.
pub const ORACLE_DEF_FILES: [&str; 2] = [
    "crates/analysis/src/spectrum.rs",
    "crates/analysis/src/lag.rs",
];

/// Files whose code runs inside a shard of the parallel sharded engine
/// and must therefore own its state exclusively (CL013): no shared-state
/// primitives — cross-shard traffic is channel messages only.
pub const SHARD_LOGIC_FILES: [&str; 2] =
    ["crates/core/src/fleet.rs", "crates/core/src/workload.rs"];

/// Files on the out-of-core streaming path, which must keep memory
/// bounded by the chunk size (CL014): no whole-series materialization.
pub const STREAMING_PATH_FILES: [&str; 2] =
    ["crates/monitor/src/chunk.rs", "crates/core/src/trace.rs"];

/// Files on the per-tick online-profiling path, which must stay
/// incremental (CL015): no batch-recompute entry points — the batch
/// kernels are the test-only parity oracle for the online state.
pub const ONLINE_PATH_FILES: [&str; 3] = [
    "crates/analysis/src/online.rs",
    "crates/monitor/src/online.rs",
    "crates/core/src/online.rs",
];

/// Rule registry: `(id, summary)` for every rule the scanner knows.
pub const RULES: [(&str, &str); 15] = [
    (
        "CL001",
        "no Instant::now/SystemTime::now/thread_rng in simulation crates",
    ),
    (
        "CL002",
        "no .unwrap()/.expect(/panic! in library code paths",
    ),
    (
        "CL003",
        "no HashMap/HashSet in report-producing files (use BTreeMap/sorted)",
    ),
    (
        "CL004",
        "no bare f64 ==/!= against float literals in analysis",
    ),
    (
        "CL005",
        "no direct engine schedule_* calls in fault code (use fault::install)",
    ),
    (
        "CL006",
        "no host-keyed BTreeMap<(String/HostLabel, ..)> on the sampling path, no per-client Box/Vec<Session>/VecDeque allocation on the cohort path (use dense columns)",
    ),
    (
        "CL007",
        "no Goertzel/naive-Pearson oracle calls outside their defining files and tests (use the FFT + prefix-sum fast path)",
    ),
    (
        "CL008",
        "no Mutex/RwLock/RefCell, static mut, or Ordering::Relaxed reachable from par_map_ordered_with workers",
    ),
    (
        "CL009",
        "no rng.clone() or entropy-seeded RNG constructors in simulation crates (fork streams via SimRng::derive)",
    ),
    (
        "CL010",
        "no unchecked +/-/* on raw nanosecond integers outside simcore::time/queue (use checked_*/saturating_*)",
    ),
    (
        "CL011",
        "no wildcard _ arm in matches over FaultKind/Source/Family in library code",
    ),
    (
        "CL012",
        "files mutating engine/hw/xen state must carry an audit:: invariant check or a registered suppression",
    ),
    (
        "CL013",
        "no Arc/Rc/locks/cells/atomics/static mut/thread_local! in shard-logic files (cross-shard state travels as channel messages)",
    ),
    (
        "CL014",
        "no whole-series materialization (.to_vec()/collect::<Vec<f64>>/with_capacity(series_len) in streaming-path files (decode one chunk at a time)",
    ),
    (
        "CL015",
        "no batch-recompute entry points (SeriesScratch::/full_characterize/periodogram() in online-path files (push through the incremental kernels; batch is the test oracle)",
    ),
];

/// One `file:line` finding.
#[derive(Debug, Clone, Serialize)]
pub struct Diagnostic {
    /// Rule ID, e.g. `"CL002"`.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed (or a rule-specific marker for
    /// file-level findings).
    pub snippet: String,
}

/// Result of a full workspace pass.
#[derive(Debug, Serialize)]
pub struct LintReport {
    /// JSON layout version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings silenced by `crates/lint/suppressions.txt`.
    pub suppressed: usize,
    /// Per-rule unsuppressed finding counts; every known rule is present
    /// (zero included) so consumers can detect rule additions.
    pub rule_counts: BTreeMap<String, usize>,
    /// Suppression entries that silenced nothing this pass, formatted as
    /// they appear in the file (`RULE PATH NEEDLE`). Non-empty makes the
    /// run fail unless `--allow-stale` is passed.
    pub stale_suppressions: Vec<String>,
    /// Unsuppressed findings, sorted by `(path, line, rule)`.
    pub violations: Vec<Diagnostic>,
}

impl Default for LintReport {
    fn default() -> Self {
        LintReport {
            schema: SCHEMA_VERSION,
            files_scanned: 0,
            suppressed: 0,
            rule_counts: RULES.iter().map(|(id, _)| (id.to_string(), 0)).collect(),
            stale_suppressions: Vec::new(),
            violations: Vec::new(),
        }
    }
}

impl LintReport {
    /// Whether the pass found nothing (after suppressions) and every
    /// suppression entry still matches something.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale_suppressions.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} files scanned, {} violations, {} suppressed, {} stale suppression(s)",
            self.files_scanned,
            self.violations.len(),
            self.suppressed,
            self.stale_suppressions.len()
        )
    }

    /// Finalize bookkeeping derived from `violations`.
    fn tally(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
        for (id, _) in RULES {
            self.rule_counts.insert(id.to_string(), 0);
        }
        for d in &self.violations {
            *self.rule_counts.entry(d.rule.clone()).or_insert(0) += 1;
        }
    }
}

/// An audited exception: silences `rule` findings in `path` on source
/// lines containing `needle`.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule ID the exception applies to.
    pub rule: String,
    /// Workspace-relative path it applies to.
    pub path: String,
    /// Substring of the raw source line that identifies the audited site.
    pub needle: String,
}

impl Suppression {
    /// Whether this entry silences the diagnostic.
    pub fn matches(&self, d: &Diagnostic) -> bool {
        self.rule == d.rule && self.path == d.path && d.snippet.contains(&self.needle)
    }

    /// The entry as written in the suppressions file.
    pub fn display(&self) -> String {
        format!("{} {} {}", self.rule, self.path, self.needle)
    }
}

/// Parse a suppressions file: one `RULE PATH NEEDLE...` triple per line,
/// `#` comments and blank lines ignored. The needle is everything after
/// the second field and may contain spaces.
pub fn parse_suppressions(text: &str) -> Vec<Suppression> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.splitn(3, char::is_whitespace);
        let (Some(rule), Some(path), Some(needle)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        out.push(Suppression {
            rule: rule.to_string(),
            path: path.to_string(),
            needle: needle.trim().to_string(),
        });
    }
    out
}

/// Split diagnostics into kept and suppressed, and report which
/// suppression entries silenced nothing (stale).
pub fn apply_suppressions(
    diags: Vec<Diagnostic>,
    sups: &[Suppression],
) -> (Vec<Diagnostic>, usize, Vec<String>) {
    let mut used = vec![false; sups.len()];
    let mut kept = Vec::new();
    let mut suppressed = 0usize;
    for d in diags {
        let mut hit = false;
        for (si, s) in sups.iter().enumerate() {
            if s.matches(&d) {
                used[si] = true;
                hit = true;
            }
        }
        if hit {
            suppressed += 1;
        } else {
            kept.push(d);
        }
    }
    let stale = sups
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(s, _)| s.display())
        .collect();
    (kept, suppressed, stale)
}

/// Run the full rule set over a set of in-memory files (workspace-relative
/// path, source). Returns unsuppressed findings sorted by
/// `(path, line, rule)`.
pub fn scan_files(inputs: &[(String, String)]) -> Vec<Diagnostic> {
    let files = inputs
        .iter()
        .map(|(rel, text)| parse::parse_file(rel, text))
        .collect();
    let ws = Workspace::build(files);
    let graph = CallGraph::build(&ws);
    let mut out = rules::run_all(&ws, &graph);
    out.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    out
}

/// Run every rule against one file's source, given its workspace-relative
/// path (which decides crate and class). Cross-file rules see a
/// single-file workspace. Returns unsuppressed findings.
pub fn scan_source(rel: &str, text: &str) -> Vec<Diagnostic> {
    scan_files(&[(rel.to_string(), text.to_string())])
}

/// Recursively collect `.rs` files under `crates/`, `tests/` and
/// `examples/`, skipping `target/`, `fixtures/` and `vendor/`. Returns
/// `(absolute, workspace-relative)` pairs sorted by relative path.
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<(PathBuf, String)>> {
    let mut out = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(PathBuf, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if matches!(name.as_str(), "target" | "fixtures" | "vendor" | ".git") {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((path, rel));
        }
    }
    Ok(())
}

/// Workspace root as seen from this crate at compile time.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Run the full pass over the workspace, applying the checked-in
/// suppressions file and flagging stale entries.
pub fn scan_workspace(root: &Path) -> io::Result<LintReport> {
    let sup_path = root.join("crates/lint/suppressions.txt");
    let sups = if sup_path.is_file() {
        parse_suppressions(&fs::read_to_string(&sup_path)?)
    } else {
        Vec::new()
    };
    let mut inputs = Vec::new();
    for (abs, rel) in collect_rust_files(root)? {
        inputs.push((rel, fs::read_to_string(&abs)?));
    }
    let mut report = LintReport {
        files_scanned: inputs.len(),
        ..LintReport::default()
    };
    let diags = scan_files(&inputs);
    let (kept, suppressed, stale) = apply_suppressions(diags, &sups);
    report.violations = kept;
    report.suppressed = suppressed;
    report.stale_suppressions = stale;
    report.tally();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_strips_comments_strings_chars() {
        let src = "let x = \"Instant::now\"; // Instant::now\nlet c = 'a'; /* panic! */ let l: &'static str = y;";
        let m = mask_source(src);
        assert!(!m.contains("Instant::now"));
        assert!(!m.contains("panic!"));
        assert!(m.contains("'static"), "lifetimes survive: {m}");
        assert_eq!(m.split('\n').count(), 2);
    }

    #[test]
    fn masking_handles_raw_strings() {
        let src = "let s = r#\"panic! .unwrap() \"inner\" \"#; let t = 1;";
        let m = mask_source(src);
        assert!(!m.contains("panic!"));
        assert!(!m.contains(".unwrap()"));
        assert!(m.contains("let t = 1;"));
    }

    #[test]
    fn cfg_test_regions_are_flagged() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}";
        let flags = test_line_flags(src);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn suppression_matching() {
        let sups = parse_suppressions(
            "# comment\nCL002 crates/x/src/a.rs contract panic here\n\nbadline\n",
        );
        assert_eq!(sups.len(), 1);
        assert_eq!(sups[0].rule, "CL002");
        assert_eq!(sups[0].needle, "contract panic here");
    }

    #[test]
    fn apply_suppressions_tracks_stale() {
        let diags = vec![Diagnostic {
            rule: "CL002".to_string(),
            path: "crates/x/src/a.rs".to_string(),
            line: 3,
            message: String::new(),
            snippet: "x.unwrap();".to_string(),
        }];
        let sups = parse_suppressions(
            "CL002 crates/x/src/a.rs x.unwrap\nCL002 crates/x/src/a.rs no_such_site\n",
        );
        let (kept, suppressed, stale) = apply_suppressions(diags, &sups);
        assert!(kept.is_empty());
        assert_eq!(suppressed, 1);
        assert_eq!(stale, vec!["CL002 crates/x/src/a.rs no_such_site"]);
    }

    #[test]
    fn report_counts_every_rule() {
        let mut r = LintReport::default();
        assert_eq!(r.rule_counts.len(), RULES.len());
        r.violations.push(Diagnostic {
            rule: "CL003".to_string(),
            path: "p".to_string(),
            line: 1,
            message: String::new(),
            snippet: String::new(),
        });
        r.tally();
        assert_eq!(r.rule_counts["CL003"], 1);
        assert_eq!(r.rule_counts["CL001"], 0);
        assert_eq!(r.schema, SCHEMA_VERSION);
    }

    #[test]
    fn scan_source_fires_each_line_rule() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); x.unwrap(); }\n";
        let d = scan_source("crates/simcore/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == "CL001"));
        assert!(d.iter().any(|d| d.rule == "CL002"));
        let d = scan_source(
            "crates/monitor/src/store.rs",
            "use std::collections::HashMap;\n",
        );
        assert!(d.iter().any(|d| d.rule == "CL003"));
        let d = scan_source(
            "crates/analysis/src/x.rs",
            "fn f(x: f64) -> bool { x == 0.0 }\n",
        );
        assert!(d.iter().any(|d| d.rule == "CL004"));
        // Same patterns in a test file are allowlisted for CL002.
        let d = scan_source("crates/simcore/tests/x.rs", "fn f() { x.unwrap(); }\n");
        assert!(d.is_empty());
        // CL005: fault library code scheduling engine events directly.
        let src =
            "fn arm(e: &mut Engine<W>) { e.schedule_at(t, cb, 0); e.schedule_in(d, cb, 0); }\n";
        let d = scan_source("crates/core/src/faults.rs", src);
        assert_eq!(d.iter().filter(|d| d.rule == "CL005").count(), 2);
        // The same calls outside fault files are not CL005's business.
        let d = scan_source("crates/core/src/workload.rs", src);
        assert!(!d.iter().any(|d| d.rule == "CL005"));
        // Nor in fault *test* code, which may drive engines directly.
        let d = scan_source("crates/simcore/tests/prop_fault.rs", src);
        assert!(d.is_empty());
        // CL006: host-keyed maps on the sampling path.
        let src = "struct S { m: BTreeMap<(String, MetricId), TimeSeries> }\n";
        let d = scan_source("crates/monitor/src/store.rs", src);
        assert!(d.iter().any(|d| d.rule == "CL006"));
        let d = scan_source("crates/bench/benches/store.rs", src);
        assert!(!d.iter().any(|d| d.rule == "CL006"));
        let d = scan_source("crates/core/src/report.rs", src);
        assert!(!d.iter().any(|d| d.rule == "CL006"));
        // CL006's cohort half: per-client heap allocation on the cohort
        // hot path, but not in cohort tests or unrelated library files.
        let src = "fn spawn() { let s = Box::new(Session::default()); q: VecDeque<u32>; }\n";
        let d = scan_source("crates/rubis/src/cohort.rs", src);
        assert_eq!(d.iter().filter(|d| d.rule == "CL006").count(), 2);
        let d = scan_source(
            "crates/simcore/src/wheel.rs",
            "fn f() { let b = Box::new(1); }\n",
        );
        assert!(d.iter().any(|d| d.rule == "CL006"));
        let d = scan_source("crates/rubis/src/client.rs", src);
        assert!(!d.iter().any(|d| d.rule == "CL006"));
        let d = scan_source("crates/rubis/tests/prop_cohort.rs", src);
        assert!(d.is_empty());
        // CL007: oracle calls in library/binary code.
        let src = "fn f(xs: &[f64]) { let p = goertzel_periodogram(xs); let l = find_lag_naive(xs, xs, 5); }\n";
        let d = scan_source("crates/core/src/characterize.rs", src);
        assert_eq!(d.iter().filter(|d| d.rule == "CL007").count(), 2);
        let d = scan_source("crates/analysis/src/spectrum.rs", src);
        assert!(!d.iter().any(|d| d.rule == "CL007"));
        let d = scan_source("crates/analysis/tests/prop.rs", src);
        assert!(!d.iter().any(|d| d.rule == "CL007"));
        // The scan-based fast path does not trip the oracle pattern.
        let d = scan_source(
            "crates/analysis/src/summary.rs",
            "fn f(xs: &[f64]) { let s = cross_correlation_scan(xs, xs, 5); }\n",
        );
        assert!(!d.iter().any(|d| d.rule == "CL007"));
    }

    #[test]
    fn scan_files_runs_cross_file_rules() {
        // A worker closure calling a helper that locks a Mutex, across
        // files: CL008 must follow the call edge.
        let files = vec![
            (
                "crates/core/src/sweep2.rs".to_string(),
                "use crate::helper::tally;\nfn run_all(items: &[u32]) {\n    par_map_ordered_with(items, 4, || (), |(), x| tally(*x));\n}\n"
                    .to_string(),
            ),
            (
                "crates/core/src/helper.rs".to_string(),
                "pub fn tally(x: u32) -> u32 {\n    let m = std::sync::Mutex::new(x);\n    *m.lock().unwrap_or_else(|e| e.into_inner())\n}\n"
                    .to_string(),
            ),
        ];
        let d = scan_files(&files);
        assert!(
            d.iter()
                .any(|d| d.rule == "CL008" && d.path == "crates/core/src/helper.rs"),
            "diagnostics: {d:#?}"
        );
    }
}
