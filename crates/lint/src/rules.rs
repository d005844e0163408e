//! Rule evaluation: CL001–CL007 and CL013–CL015 line rules over
//! masked source, and the cross-file rules CL008–CL012 over the parsed
//! workspace + call graph.
//!
//! Per-rule rationale lives in `DESIGN.md §12`; the registry of rule IDs
//! is [`crate::RULES`].

use crate::callgraph::{call_sites_in, resolve, CallGraph};
use crate::lexer::{mask_source, TokKind};
use crate::parse::{FileAst, FileClass};
use crate::symbols::Workspace;
use crate::{
    Diagnostic, COHORT_PATH_FILES, ONLINE_PATH_FILES, ORACLE_DEF_FILES, SAMPLING_PATH_FILES,
    SHARD_LOGIC_FILES, SIM_CRATES, SORTED_OUTPUT_FILES, STREAMING_PATH_FILES,
};
use std::collections::BTreeSet;

/// Files holding the audited raw-nanosecond boundary math, exempt from
/// CL010: the `SimTime`/`SimDuration` newtypes themselves and the event
/// queue's rung arithmetic (both carry their own overflow contracts and
/// regression tests).
pub const TIME_BOUNDARY_FILES: [&str; 2] =
    ["crates/simcore/src/time.rs", "crates/simcore/src/queue.rs"];

/// Enums that CL011 requires exhaustive (`_`-free) matches over in
/// library code: the fault vocabulary and the MetricId-producing catalog
/// axes. A new variant in any of these must force every consumer to
/// handle it at compile time.
pub const EXHAUSTIVE_ENUMS: [&str; 3] = ["FaultKind", "Source", "Family"];

/// Run every rule over the workspace. Diagnostics are unsorted and
/// unsuppresed; the caller sorts and applies the suppressions file.
pub fn run_all(ws: &Workspace, graph: &CallGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for ast in &ws.files {
        line_rules(ast, &mut out);
        cl009_rng_discipline(ast, &mut out);
        cl010_time_arithmetic(ast, &mut out);
        cl011_exhaustive_matches(ast, &mut out);
        cl012_audit_coverage(ast, &mut out);
    }
    cl008_worker_purity(ws, graph, &mut out);
    out
}

fn push_diag(out: &mut Vec<Diagnostic>, rule: &str, ast: &FileAst, line: usize, msg: String) {
    out.push(Diagnostic {
        rule: rule.to_string(),
        path: ast.rel.clone(),
        line,
        message: msg,
        snippet: ast.raw_line(line).to_string(),
    });
}

/// Whether `hay` contains `pat` at an identifier boundary: when the
/// pattern starts or ends with an identifier character, the neighbouring
/// character must not extend it (`MyHashMap` does not contain `HashMap`,
/// `thread_rng_free` does not contain `thread_rng`).
fn line_has(hay: &str, pat: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let first_is_ident = pat.chars().next().map(ident).unwrap_or(false);
    let last_is_ident = pat.chars().next_back().map(ident).unwrap_or(false);
    for (idx, _) in hay.match_indices(pat) {
        let before_ok =
            !first_is_ident || !hay[..idx].chars().next_back().map(ident).unwrap_or(false);
        let after_ok = !last_is_ident
            || !hay[idx + pat.len()..]
                .chars()
                .next()
                .map(ident)
                .unwrap_or(false);
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// CL001–CL007: per-line pattern rules over the masked source.
fn line_rules(ast: &FileAst, out: &mut Vec<Diagnostic>) {
    let rel = ast.rel.as_str();
    let class = ast.class;
    let krate = ast.krate.as_str();
    let masked = mask_source(&ast.src);

    let sim_lib = class == FileClass::Lib && SIM_CRATES.contains(&krate);
    let lib = class == FileClass::Lib;
    let sorted_output = SORTED_OUTPUT_FILES.contains(&rel);
    let analysis_lib = lib && krate == "analysis";
    let fault_lib = lib && rel.contains("fault");
    let sampling_path = lib && SAMPLING_PATH_FILES.contains(&rel);
    let cohort_path = lib && COHORT_PATH_FILES.contains(&rel);
    let shard_logic = lib && SHARD_LOGIC_FILES.contains(&rel);
    let streaming_path = lib && STREAMING_PATH_FILES.contains(&rel);
    let online_path = lib && ONLINE_PATH_FILES.contains(&rel);
    let oracle_banned =
        matches!(class, FileClass::Lib | FileClass::Bin) && !ORACLE_DEF_FILES.contains(&rel);

    for (l, m) in masked.split('\n').enumerate() {
        let lineno = l + 1;
        if ast.is_test_line(lineno) {
            continue;
        }
        if sim_lib {
            for pat in ["Instant::now", "SystemTime::now", "thread_rng"] {
                if line_has(m, pat) {
                    push_diag(out, "CL001", ast, lineno, format!(
                        "`{pat}` in simulation crate `{krate}` breaks replay determinism; derive all time/randomness from the simulation clock and seeded SimRng"
                    ));
                }
            }
        }
        if lib {
            for pat in [".unwrap()", ".expect(", "panic!"] {
                if line_has(m, pat) {
                    push_diag(out, "CL002", ast, lineno, format!(
                        "`{pat}` in library code; return Result/Option or add an audited entry to crates/lint/suppressions.txt"
                    ));
                }
            }
        }
        if sorted_output {
            for pat in ["HashMap", "HashSet"] {
                if line_has(m, pat) {
                    push_diag(out, "CL003", ast, lineno, format!(
                        "`{pat}` in report-producing file; iteration order feeds output — use BTreeMap/BTreeSet or sort explicitly"
                    ));
                }
            }
        }
        if analysis_lib && has_float_eq(m) {
            push_diag(
                out,
                "CL004",
                ast,
                lineno,
                "bare f64 equality against a float literal; use an epsilon or is_normal()/is_finite() guards".to_string(),
            );
        }
        if fault_lib {
            for pat in [".schedule_at(", ".schedule_in("] {
                if line_has(m, pat) {
                    push_diag(out, "CL005", ast, lineno, format!(
                        "`{pat}` in fault code bypasses the FaultPlan path; route fault timing through fault::install so plans stay replayable"
                    ));
                }
            }
        }
        if sampling_path {
            for pat in ["BTreeMap<(String", "BTreeMap<(HostLabel"] {
                if line_has(m, pat) {
                    push_diag(out, "CL006", ast, lineno, format!(
                        "`{pat}` host-keyed map on the sampling path; record through interned HostId + dense metric columns (SeriesStore::record_row)"
                    ));
                }
            }
        }
        if cohort_path {
            for pat in ["Box::new(", "Vec<Session>", "VecDeque<"] {
                if line_has(m, pat) {
                    push_diag(out, "CL006", ast, lineno, format!(
                        "`{pat}` allocates per-client heap state on the cohort hot path; keep client state in dense parallel columns and inline wheel-bucket entries"
                    ));
                }
            }
        }
        if shard_logic {
            for pat in [
                "Arc<",
                "Rc<",
                "Mutex",
                "RwLock",
                "RefCell",
                "Cell<",
                "static mut",
                "thread_local!",
                "AtomicBool",
                "AtomicUsize",
                "AtomicU64",
                "AtomicU32",
            ] {
                if line_has(m, pat) {
                    push_diag(out, "CL013", ast, lineno, format!(
                        "`{pat}` shares state across shards; a shard owns its queue/clock/RNG exclusively — cross-shard traffic must be typed channel messages (ShardCtx::send)"
                    ));
                }
            }
        }
        if streaming_path {
            for pat in [
                ".to_vec()",
                "collect::<Vec<f64>>",
                "Vec::with_capacity(series_len",
            ] {
                if line_has(m, pat) {
                    push_diag(out, "CL014", ast, lineno, format!(
                        "`{pat}` materializes a whole series on the streaming path; decode one chunk at a time (SeriesCursor::next_chunk) so memory stays bounded by the chunk size"
                    ));
                }
            }
        }
        if online_path {
            for pat in ["SeriesScratch::", "full_characterize", "periodogram("] {
                if line_has(m, pat) {
                    push_diag(out, "CL015", ast, lineno, format!(
                        "`{pat}` recomputes a whole window on the live profiling tick; push through the incremental kernels (OnlineProfiler) and keep the batch engine as the test-only parity oracle"
                    ));
                }
            }
        }
        if oracle_banned {
            for pat in [
                "goertzel_power(",
                "goertzel_periodogram(",
                "find_lag_naive(",
                "cross_correlation(",
            ] {
                if line_has(m, pat) {
                    push_diag(out, "CL007", ast, lineno, format!(
                        "`{pat}` is the O(n²) test oracle; production code must use the FFT periodogram / prefix-sum lag scan (SeriesScratch, find_lag, cross_correlation_scan)"
                    ));
                }
            }
        }
    }
}

/// CL008: nothing reachable from a `par_map_ordered_with` worker region
/// may hold shared mutable state or relaxed atomics. The worker region
/// is the call's argument list (the `init`/`f` closures live there);
/// every call site inside it seeds a BFS over the conservative call
/// graph, and each reached function body is scanned for banned tokens.
fn cl008_worker_purity(ws: &Workspace, graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    let mut seen: BTreeSet<(String, usize, &'static str)> = BTreeSet::new();
    for (fi, ast) in ws.files.iter().enumerate() {
        if ast.class != FileClass::Lib {
            continue;
        }
        for i in 0..ast.ctoks.len() {
            if ast.ctoks[i].kind != TokKind::Ident
                || ast.text(i) != "par_map_ordered_with"
                || ast.text(i + 1) != "("
                || (i > 0 && ast.text(i - 1) == "fn")
                || ast.is_test_line(ast.line(i))
            {
                continue;
            }
            let close = skip_balanced(ast, i + 1);
            let root = format!("{}:{}", ast.rel, ast.line(i));
            // Banned constructs written directly in the worker region.
            scan_banned(ast, i, close, &root, true, &mut seen, out);
            // Everything the region can call, transitively.
            let mut seeds = Vec::new();
            for site in call_sites_in(ast, i, close) {
                for target in resolve(ws, fi, &site) {
                    if let Some(&node) = graph.node_of.get(&target) {
                        seeds.push(node);
                    }
                }
            }
            for &node in graph.reachable(&seeds).keys() {
                let r = graph.fn_of[node];
                let f = ws.item(r);
                if f.is_test {
                    continue;
                }
                scan_banned(ws.file(r), f.body.0, f.body.1, &root, false, &mut seen, out);
            }
        }
    }
}

/// Scan code tokens `[lo, hi]` of `ast` for CL008-banned constructs.
fn scan_banned(
    ast: &FileAst,
    lo: usize,
    hi: usize,
    root: &str,
    direct: bool,
    seen: &mut BTreeSet<(String, usize, &'static str)>,
    out: &mut Vec<Diagnostic>,
) {
    let hi = hi.min(ast.ctoks.len().saturating_sub(1));
    for i in lo..=hi {
        if ast.ctoks[i].kind != TokKind::Ident {
            continue;
        }
        let what = match ast.text(i) {
            "Mutex" | "RwLock" | "RefCell" => "shared interior mutability",
            "Relaxed" => "Ordering::Relaxed atomics",
            "static" if ast.text(i + 1) == "mut" => "static mut state",
            _ => continue,
        };
        let line = ast.line(i);
        if !seen.insert((ast.rel.clone(), line, what)) {
            continue;
        }
        let via = if direct {
            "inside the worker region of".to_string()
        } else {
            "reachable from the worker region of".to_string()
        };
        push_diag(out, "CL008", ast, line, format!(
            "`{}` is {what} {via} par_map_ordered_with at {root}; pool workers must stay free of shared mutable state and relaxed atomics for byte-identical parallel replay",
            ast.text(i),
        ));
    }
}

/// CL009: RNG-stream discipline in simulation crates. Streams are forked
/// only through `SimRng::derive`; cloning a generator duplicates a
/// stream (two consumers see correlated draws), and fresh-entropy
/// constructors break seeded replay outright.
fn cl009_rng_discipline(ast: &FileAst, out: &mut Vec<Diagnostic>) {
    if ast.class != FileClass::Lib
        || !SIM_CRATES.contains(&ast.krate.as_str())
        || ast.rel == "crates/simcore/src/rng.rs"
    {
        return;
    }
    for i in 0..ast.ctoks.len() {
        if ast.ctoks[i].kind != TokKind::Ident || ast.is_test_line(ast.line(i)) {
            continue;
        }
        let name = ast.text(i);
        if matches!(name, "from_entropy" | "from_os_rng" | "OsRng" | "getrandom") {
            push_diag(out, "CL009", ast, ast.line(i), format!(
                "`{name}` constructs an unseeded RNG in a simulation crate; every stream must derive from the experiment's master seed (SimRng::new / SimRng::derive)"
            ));
        }
        if name.to_ascii_lowercase().contains("rng")
            && ast.text(i + 1) == "."
            && ast.text(i + 2) == "clone"
            && ast.text(i + 3) == "("
        {
            push_diag(out, "CL009", ast, ast.line(i), format!(
                "`{name}.clone()` duplicates an RNG stream across a component boundary; derive an independent named child stream instead (SimRng::derive)"
            ));
        }
    }
}

/// Identifier that names a raw nanosecond quantity.
fn ns_ident(name: &str) -> bool {
    name == "ns" || name.ends_with("_ns") || (name.contains("nanos") && name != "from_nanos")
}

/// CL010: unchecked `+`/`-`/`*` on raw simulated-time integers. Checked
/// arithmetic lives behind the `SimTime`/`SimDuration` newtypes; any
/// other site doing `.as_nanos()`-result or `*_ns` arithmetic with bare
/// operators is the PR 2 rung-overshoot bug class and must spell out
/// `checked_*`/`saturating_*`.
fn cl010_time_arithmetic(ast: &FileAst, out: &mut Vec<Diagnostic>) {
    if ast.class != FileClass::Lib
        || !SIM_CRATES.contains(&ast.krate.as_str())
        || TIME_BOUNDARY_FILES.contains(&ast.rel.as_str())
    {
        return;
    }
    for i in 1..ast.ctoks.len() {
        let op = ast.text(i);
        if ast.ctoks[i].kind != TokKind::Punct || !matches!(op, "+" | "-" | "*") {
            continue;
        }
        if ast.is_test_line(ast.line(i)) {
            continue;
        }
        // Binary position: something value-like on the left.
        let prev = &ast.ctoks[i - 1];
        let binary = matches!(prev.kind, TokKind::Ident | TokKind::Num) || ast.text(i - 1) == ")";
        if !binary {
            continue;
        }
        if operand_is_raw_ns_back(ast, i - 1) || operand_is_raw_ns_fwd(ast, i + 1) {
            push_diag(out, "CL010", ast, ast.line(i), format!(
                "unchecked `{op}` on raw nanosecond arithmetic; use checked_*/saturating_* (or SimTime/SimDuration ops) — only the audited boundary math in {} may use bare operators",
                TIME_BOUNDARY_FILES.join(" and "),
            ));
        }
    }
}

/// Whether the operand ending at token `end` is a raw-ns value: a
/// `…as_nanos()` call result, or an ident chain containing a `*_ns`
/// name.
fn operand_is_raw_ns_back(ast: &FileAst, end: usize) -> bool {
    if ast.text(end) == ")" {
        // Walk back to the matching `(`; a call result is raw only for
        // `as_nanos` (e.g. `from_nanos(...)` returns the checked newtype).
        let mut depth = 0usize;
        let mut j = end;
        loop {
            match ast.text(j) {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        return j > 0 && ast.text(j - 1) == "as_nanos";
                    }
                }
                _ => {}
            }
            if j == 0 {
                return false;
            }
            j -= 1;
        }
    }
    // Ident chain `a.b_ns`, `self.t_ns`, …
    let mut j = end;
    loop {
        if ast.ctoks.get(j).map(|t| t.kind) != Some(TokKind::Ident) {
            return false;
        }
        if ns_ident(ast.text(j)) {
            return true;
        }
        if j >= 2 && matches!(ast.text(j - 1), "." | "::") {
            j -= 2;
        } else {
            return false;
        }
    }
}

/// Whether the operand starting at token `start` is a raw-ns value.
fn operand_is_raw_ns_fwd(ast: &FileAst, start: usize) -> bool {
    let mut j = start;
    // Skip a leading borrow or deref.
    while matches!(ast.text(j), "&" | "*") {
        j += 1;
    }
    loop {
        if ast.ctoks.get(j).map(|t| t.kind) != Some(TokKind::Ident) {
            return false;
        }
        if ns_ident(ast.text(j)) {
            return true;
        }
        if matches!(ast.text(j + 1), "." | "::") {
            j += 2;
        } else {
            return false;
        }
    }
}

/// CL011: matches whose arm patterns name a watched enum must be
/// exhaustive — no `_` arm — in library code, so adding a variant forces
/// every consumer to handle it. String-keyed matches that merely
/// *construct* enum values in arm bodies are not the rule's business:
/// detection keys on `Enum::` paths in arm *patterns*.
fn cl011_exhaustive_matches(ast: &FileAst, out: &mut Vec<Diagnostic>) {
    if ast.class != FileClass::Lib {
        return;
    }
    for i in 0..ast.ctoks.len() {
        if ast.ctoks[i].kind != TokKind::Ident || ast.text(i) != "match" {
            continue;
        }
        if ast.is_test_line(ast.line(i)) {
            continue;
        }
        // Scrutinee runs to the body `{` at bracket depth 0 (struct
        // literals in scrutinee position require parentheses in Rust, so
        // the first depth-0 `{` is the body).
        let mut j = i + 1;
        let mut depth = 0usize;
        let body_open = loop {
            match ast.ctoks.get(j).map(|_| ast.text(j)) {
                None => break None,
                Some("(") | Some("[") => depth += 1,
                Some(")") | Some("]") => depth = depth.saturating_sub(1),
                Some("{") if depth == 0 => break Some(j),
                Some(";") if depth == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(open) = body_open else { continue };
        let close = skip_balanced(ast, open);
        let mut watched: BTreeSet<&str> = BTreeSet::new();
        let mut wildcard_line: Option<usize> = None;
        let mut pos = open + 1;
        while pos < close {
            // Pattern: tokens up to `=>` at arm depth 0.
            let pat_start = pos;
            let mut depth = 0usize;
            let arrow = loop {
                if pos >= close {
                    break None;
                }
                match ast.text(pos) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    "=>" if depth == 0 => break Some(pos),
                    _ => {}
                }
                pos += 1;
            };
            let Some(arrow) = arrow else { break };
            for p in pat_start..arrow {
                let txt = ast.text(p);
                if ast.ctoks[p].kind == TokKind::Ident
                    && ast.text(p + 1) == "::"
                    && EXHAUSTIVE_ENUMS.contains(&txt)
                {
                    watched.insert(
                        EXHAUSTIVE_ENUMS
                            [EXHAUSTIVE_ENUMS.iter().position(|e| *e == txt).unwrap_or(0)],
                    );
                }
            }
            let is_wildcard = ast.text(pat_start) == "_"
                && (arrow == pat_start + 1 || ast.text(pat_start + 1) == "if");
            if is_wildcard && wildcard_line.is_none() {
                wildcard_line = Some(ast.line(pat_start));
            }
            // Arm body: a balanced block, or an expression up to the
            // depth-0 comma.
            pos = arrow + 1;
            if ast.text(pos) == "{" {
                pos = skip_balanced(ast, pos) + 1;
                if ast.text(pos) == "," {
                    pos += 1;
                }
            } else {
                let mut depth = 0usize;
                while pos < close {
                    match ast.text(pos) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth = depth.saturating_sub(1),
                        "," if depth == 0 => {
                            pos += 1;
                            break;
                        }
                        _ => {}
                    }
                    pos += 1;
                }
            }
        }
        if let (false, Some(line)) = (watched.is_empty(), wildcard_line) {
            let enums: Vec<&str> = watched.into_iter().collect();
            push_diag(out, "CL011", ast, line, format!(
                "wildcard `_` arm in a match over {} in library code; spell out every variant so a new variant forces handling at compile time",
                enums.join("/"),
            ));
        }
    }
}

/// CL012: a library file that mutates engine/hw/xen state (has non-test
/// `&mut self` methods in those layers) must carry at least one
/// `audit::` invariant check, or a registered suppression explaining why
/// its invariants are audited elsewhere.
fn cl012_audit_coverage(ast: &FileAst, out: &mut Vec<Diagnostic>) {
    let in_scope = ast.class == FileClass::Lib
        && (ast.krate == "hw" || ast.krate == "xen" || ast.rel == "crates/simcore/src/engine.rs");
    if !in_scope {
        return;
    }
    let mutators = ast.fns.iter().filter(|f| !f.is_test && f.mut_self).count();
    if mutators == 0 {
        return;
    }
    let has_audit = (0..ast.ctoks.len()).any(|i| {
        ast.ctoks[i].kind == TokKind::Ident
            && ast.text(i) == "audit"
            && ast.text(i + 1) == "::"
            && !ast.is_test_line(ast.line(i))
    });
    if !has_audit {
        out.push(Diagnostic {
            rule: "CL012".to_string(),
            path: ast.rel.clone(),
            line: 1,
            message: format!(
                "file mutates simulated hardware/hypervisor state ({mutators} `&mut self` method(s)) but contains no audit:: invariant check; add an audit::check at a mutation site or register a suppression with the rationale"
            ),
            snippet: "<file-level audit coverage>".to_string(),
        });
    }
}

/// Index of the bracket that closes the one at `open` (any of `(`/`[`/
/// `{`), tracking all three kinds. Returns the last token on
/// malformed input.
fn skip_balanced(ast: &FileAst, open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < ast.ctoks.len() {
        match ast.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    ast.ctoks.len().saturating_sub(1)
}

/// Last token before byte `pos` in `s` (identifier/number chars plus `.`).
fn token_before(s: &str, pos: usize) -> &str {
    let b = s.as_bytes();
    let mut end = pos;
    while end > 0 && b[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 {
        let c = b[start - 1];
        if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
            start -= 1;
        } else if (c == b'-' || c == b'+')
            && start >= 2
            && (b[start - 2] == b'e' || b[start - 2] == b'E')
        {
            // Exponent sign of a float literal like `1e-9`.
            start -= 1;
        } else {
            break;
        }
    }
    &s[start..end]
}

/// First token after byte `pos` in `s`.
fn token_after(s: &str, pos: usize) -> &str {
    let b = s.as_bytes();
    let mut start = pos;
    while start < b.len() && b[start] == b' ' {
        start += 1;
    }
    let mut end = start;
    while end < b.len() {
        let c = b[end];
        if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
            end += 1;
        } else if (c == b'-' || c == b'+')
            && end > start
            && (b[end - 1] == b'e' || b[end - 1] == b'E')
        {
            end += 1;
        } else {
            break;
        }
    }
    &s[start..end]
}

/// Whether a token is a float literal (`0.0`, `1.`, `1e-9`, `2.5f64`).
fn is_float_literal(tok: &str) -> bool {
    let tok = tok
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('_');
    if tok.is_empty() || !tok.as_bytes()[0].is_ascii_digit() {
        return false;
    }
    (tok.contains('.') || tok.contains('e') || tok.contains('E')) && tok.parse::<f64>().is_ok()
}

/// Whether a masked line contains an `==`/`!=` whose operand is a float
/// literal.
fn has_float_eq(masked_line: &str) -> bool {
    for (idx, _) in masked_line.match_indices("==") {
        let before_op = if idx > 0 && masked_line.as_bytes()[idx - 1] == b'!' {
            idx - 1
        } else {
            idx
        };
        if is_float_literal(token_before(masked_line, before_op))
            || is_float_literal(token_after(masked_line, idx + 2))
        {
            return true;
        }
    }
    // `!=` has a single `=` so it is not covered by the `==` search.
    for (idx, _) in masked_line.match_indices("!=") {
        if masked_line.as_bytes().get(idx + 2) == Some(&b'=') {
            continue;
        }
        if is_float_literal(token_before(masked_line, idx))
            || is_float_literal(token_after(masked_line, idx + 2))
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_boundary_matching() {
        assert!(line_has("let m: HashMap<u32, u32>;", "HashMap"));
        assert!(!line_has("struct MyHashMap;", "HashMap"));
        assert!(!line_has("let x = HashMapLike::new();", "HashMap"));
        assert!(line_has("let r = thread_rng();", "thread_rng"));
        assert!(!line_has("fn thread_rng_free() {}", "thread_rng"));
        assert!(line_has("x.unwrap()", ".unwrap()"));
        assert!(!line_has("x.unwrap_or(0)", ".unwrap()"));
    }

    #[test]
    fn float_eq_detection() {
        assert!(has_float_eq("if x == 0.0 {"));
        assert!(has_float_eq("if 1e-9 != y {"));
        assert!(has_float_eq("a == 2.5f64"));
        assert!(!has_float_eq("if n == 0 {"));
        assert!(!has_float_eq("a.len() == b.len()"));
        assert!(!has_float_eq("let c = a <= 0.0;"));
    }

    #[test]
    fn ns_ident_classification() {
        assert!(ns_ident("ns"));
        assert!(ns_ident("interval_ns"));
        assert!(ns_ident("as_nanos"));
        assert!(!ns_ident("from_nanos"));
        assert!(!ns_ident("answer"));
        assert!(!ns_ident("nsec_like_but_not")); // no `_ns` suffix, no `nanos`
    }
}
