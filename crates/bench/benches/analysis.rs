//! Analysis-engine microbenchmarks: the FFT + prefix-sum fast path
//! against the pre-refactor per-bin Goertzel periodogram and per-shift
//! naive Pearson lag scan, on single series of 600 / 10k / 100k
//! samples, plus end-to-end characterization of a paper-scale run
//! (serial naive engine vs the pooled `characterize_jobs` /
//! `full_characterize` path). Baseline numbers live in
//! `results/BENCH_analysis.json`.
//!
//! `--smoke` runs a reduced spectrum+lag comparison and exits non-zero
//! if the fast path is slower than the naive engine, or if the
//! scale-classed `full_characterize` of a `fast` run (either
//! deployment) differs from profiling every series (ci.sh gate).
//! `--json` re-measures every section, including `characterize_steps`
//! (the per-step split of profiling the `fast` paper catalog), and
//! rewrites `results/BENCH_analysis.json` (set `BENCH_DATE=YYYY-MM-DD`
//! to stamp the record).

use cloudchar_analysis::{
    autocorrelation, detect_jumps, find_lag, find_lag_naive, fit_all, goertzel_periodogram,
    summarize, Resource, SeriesScratch,
};
use cloudchar_core::{
    characterize_jobs, full_characterize, full_characterize_source, profile_plan, run, Deployment,
    ExperimentConfig, ExperimentResult, ProfilePlan, SeriesSource,
};
use cloudchar_monitor::{catalog, MetricId};
use cloudchar_rubis::WorkloadMix;
use cloudchar_simcore::SimDuration;
use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::time::Instant;

const SIZES: [usize; 3] = [600, 10_000, 100_000];
const JOBS: usize = 4;

/// Deterministic test signal: two sinusoids plus LCG pseudo-noise and a
/// large mean, so the spectrum has structure and nothing folds away.
fn signal(n: usize) -> Vec<f64> {
    let mut state = 0x2545F4914F6CDD1Du64;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let t = i as f64;
            1e3 + (t / 25.0).sin() * 4.0 + (t / 7.0).sin() * 1.5 + noise
        })
        .collect()
}

/// The follower series for the lag scan: the signal shifted by 3
/// samples with its own noise floor.
fn follower(xs: &[f64]) -> Vec<f64> {
    let mut out = vec![xs[0]; xs.len()];
    out[3..].copy_from_slice(&xs[..xs.len() - 3]);
    out
}

/// Fast path: one spectrum (FFT through the shared scratch) plus one
/// lag scan (prefix-sum Pearson). Returns a checksum for black_box.
fn spectrum_lag_fast(scratch: &mut SeriesScratch, xs: &[f64], ys: &[f64]) -> f64 {
    let peaks = scratch.load(xs).periodogram();
    let power: f64 = peaks.iter().map(|p| p.power).sum();
    let lag = find_lag(xs, ys, 10).map_or(0.0, |l| l.correlation);
    power + lag
}

/// Pre-refactor path: per-bin Goertzel spectrum plus per-shift naive
/// Pearson lag scan.
fn spectrum_lag_naive(xs: &[f64], ys: &[f64]) -> f64 {
    let peaks = goertzel_periodogram(xs);
    let power: f64 = peaks.iter().map(|p| p.power).sum();
    let lag = find_lag_naive(xs, ys, 10).map_or(0.0, |l| l.correlation);
    power + lag
}

/// The characterization engine as it stood before the shared-scratch
/// refactor: serial over host × resource, free functions throughout,
/// Goertzel spectrum, naive lag. Returns a profile count for black_box.
fn characterize_naive(result: &cloudchar_core::ExperimentResult) -> usize {
    let mut profiles = 0usize;
    for host in &result.hosts {
        for resource in Resource::ALL {
            let xs = result.resource_series(resource, host);
            let Some(summary) = summarize(&xs) else {
                continue;
            };
            let threshold = (summary.mean.abs() * 0.10).max(1e-9);
            let fit = fit_all(&xs);
            let ac1 = autocorrelation(&xs, 1);
            let jumps = detect_jumps(&xs, 15, threshold).len();
            let mut peaks = goertzel_periodogram(&xs);
            peaks.retain(|p| p.power >= 0.10);
            peaks.sort_by(|a, b| b.power.total_cmp(&a.power));
            profiles += 1 + fit.len() + jumps + peaks.len() + usize::from(ac1.is_some());
        }
    }
    let web = result.resource_series(Resource::Cpu, result.front_host());
    let db = result.resource_series(Resource::Cpu, result.back_host());
    profiles += usize::from(find_lag_naive(&web, &db, 10).is_some());
    profiles
}

/// Serial naive engine over the *entire* metric catalog (what profiling
/// all 518 metrics per host would have cost before this refactor).
fn full_characterize_naive(result: &cloudchar_core::ExperimentResult) -> usize {
    let c = catalog();
    let mut profiles = 0usize;
    for host in &result.hosts {
        for id in c.ids() {
            let Some(series) = result.store.get(host, id) else {
                continue;
            };
            let Some(summary) = summarize(&series.values) else {
                continue;
            };
            let threshold = (summary.mean.abs() * 0.10).max(1e-9);
            let fit = fit_all(&series.values);
            let ac1 = autocorrelation(&series.values, 1);
            let jumps = detect_jumps(&series.values, 15, threshold).len();
            let mut peaks = goertzel_periodogram(&series.values);
            peaks.retain(|p| p.power >= 0.10);
            peaks.sort_by(|a, b| b.power.total_cmp(&a.power));
            profiles += 1 + fit.len() + jumps + peaks.len() + usize::from(ac1.is_some());
        }
    }
    profiles
}

/// Steps of `core::characterize::profile_loaded`, in the order it runs
/// them, after loading the series.
const STEPS: [&str; 6] = [
    "load",
    "summary",
    "best_fit",
    "autocorrelation",
    "jumps",
    "periodogram",
];

/// One pass over `series` that runs every step of [`STEPS`] on each and
/// reads the clock between steps, adding the time since the previous
/// read to that step's entry of `ns`. Returns a checksum for black_box.
fn profile_timed(
    scratch: &mut SeriesScratch,
    series: &[&[f64]],
    ns: &mut [u128; STEPS.len()],
) -> f64 {
    let mut acc = 0.0;
    for xs in series {
        let mut t = Instant::now();
        let mut lap = |step: usize| {
            let now = Instant::now();
            ns[step] += (now - t).as_nanos();
            t = now;
        };
        scratch.load(xs);
        lap(0);
        let summary = scratch.summary();
        lap(1);
        let Some(summary) = summary else {
            continue;
        };
        acc += summary.mean;
        acc += scratch.best_fit().map_or(0.0, |f| f.ks);
        lap(2);
        acc += scratch.autocorrelation(1).unwrap_or(0.0);
        lap(3);
        let threshold = (summary.mean.abs() * 0.10).max(1e-9);
        acc += scratch.detect_jumps(15, threshold).len() as f64;
        lap(4);
        acc += scratch
            .dominant_periods(0.10, 1)
            .first()
            .map_or(0.0, |p| p.power);
        lap(5);
    }
    acc
}

/// Per-step cost of profiling every catalog series of the `fast`
/// virtualized browsing run (seed 42) on one thread, without
/// deduplication. Each pass runs all of [`STEPS`] and charges a step
/// the clock time between its start and end, so no entry can be
/// negative; each step's entry is its best of `reps` passes. Every
/// entry includes one clock read, whose cost is measured on its own.
/// Returns `full_characterize`'s plan (series, distinct series, scale
/// classes, derived members), the per-step µs per series,
/// `full_characterize(r, 1)` in µs per series and the clock read in µs.
fn characterize_steps(reps: usize) -> (ProfilePlan, Vec<f64>, f64, f64) {
    let r = run(ExperimentConfig::fast(
        Deployment::Virtualized,
        WorkloadMix::BROWSING,
    ));
    let c = catalog();
    let series: Vec<&[f64]> = r
        .hosts
        .iter()
        .flat_map(|host| c.ids().filter_map(|id| r.store.get(host, id)))
        .map(|s| s.values.as_slice())
        .collect();
    let plan = profile_plan(&r);
    let mut scratch = SeriesScratch::new();
    let per_series = |ns: u128| ns as f64 / 1e3 / series.len() as f64;
    // Interleave the timed passes and the full pass, so machine noise
    // reaches both alike.
    let mut best = [u128::MAX; STEPS.len()];
    let mut full = u128::MAX;
    for _ in 0..reps {
        let mut ns = [0u128; STEPS.len()];
        black_box(profile_timed(&mut scratch, &series, &mut ns));
        for (slot, ns) in best.iter_mut().zip(ns) {
            *slot = (*slot).min(ns);
        }
        full = full.min(best_of(1, || {
            black_box(full_characterize(&r, 1).profiles.len());
        }));
    }
    const READS: u32 = 10_000;
    let clock = best_of(reps, || {
        for _ in 0..READS {
            black_box(Instant::now());
        }
    });
    let split = best.iter().map(|&ns| per_series(ns)).collect();
    (
        plan,
        split,
        per_series(full),
        clock as f64 / 1e3 / f64::from(READS),
    )
}

/// Print the per-step split and return it as a JSON section.
fn characterize_steps_section() -> String {
    let (plan, split, full, clock) = characterize_steps(50);
    let ProfilePlan {
        series,
        distinct,
        classes,
        derived,
        direct,
    } = plan;
    let total: f64 = split.iter().sum();
    let mut steps = String::new();
    for (name, us) in STEPS.iter().zip(&split) {
        eprintln!("[bench] characterize step {name:<16} {us:>6.3} us/series");
        steps.push_str(&format!("\"{name}\": {us:.3}, "));
    }
    eprintln!("[bench] characterize steps total {total:.3} us/series over {series} series ({distinct} distinct)");
    eprintln!("[bench] scale classes: {classes} profiled, {derived} derived, {direct} direct");
    eprintln!("[bench] full_characterize(jobs 1) {full:.3} us/series");
    eprintln!("[bench] one clock read {clock:.3} us");
    format!(
        "  \"characterize_steps\": {{\n    \"series\": {series},\n    \"distinct\": {distinct},\n    \"classes\": {classes},\n    \"derived\": {derived},\n    \"direct\": {direct},\n    \"us_per_series\": {{ {steps}\"total\": {total:.3} }},\n    \"full_characterize_jobs1_us_per_series\": {full:.3},\n    \"clock_read_us\": {clock:.3}\n  }},\n"
    )
}

fn paper_run() -> cloudchar_core::ExperimentResult {
    run(ExperimentConfig::paper(
        Deployment::Virtualized,
        WorkloadMix::BROWSING,
    ))
}

fn bench_spectrum_lag(c: &mut Criterion) {
    for &n in &SIZES {
        let xs = signal(n);
        let ys = follower(&xs);
        let mut scratch = SeriesScratch::new();
        let mut group = c.benchmark_group(&format!("spectrum_lag_{n}"));
        group.sample_size(if n >= 100_000 { 1 } else { 5 });
        group.bench_function("fft_prefix", |b| {
            b.iter(|| black_box(spectrum_lag_fast(&mut scratch, &xs, &ys)))
        });
        group.bench_function("goertzel_naive", |b| {
            b.iter(|| black_box(spectrum_lag_naive(&xs, &ys)))
        });
        group.finish();
    }
}

fn bench_characterize(c: &mut Criterion) {
    let r = paper_run();
    let mut group = c.benchmark_group("characterize_paper");
    group.sample_size(3);
    group.bench_function("pooled_jobs4", |b| {
        b.iter(|| black_box(characterize_jobs(&r, JOBS).resources.len()))
    });
    group.bench_function("serial_naive", |b| {
        b.iter(|| black_box(characterize_naive(&r)))
    });
    group.bench_function("full_pooled_jobs4", |b| {
        b.iter(|| black_box(full_characterize(&r, JOBS).profiles.len()))
    });
    group.bench_function("full_serial_naive", |b| {
        b.iter(|| black_box(full_characterize_naive(&r)))
    });
    group.finish();
}

/// Best-of-`k` wall time in nanoseconds.
fn best_of(k: usize, mut f: impl FnMut()) -> u128 {
    (0..k.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .min()
        .unwrap()
}

/// ci.sh gate: the FFT + prefix-sum path must not be slower than the
/// Goertzel + naive-Pearson engine on a mid-size series. Best-of-3 per
/// side to shrug off scheduler noise.
fn smoke() {
    let n = 4096;
    let xs = signal(n);
    let ys = follower(&xs);
    let mut scratch = SeriesScratch::new();
    let fast = best_of(3, || {
        black_box(spectrum_lag_fast(&mut scratch, &xs, &ys));
    });
    let naive = best_of(3, || {
        black_box(spectrum_lag_naive(&xs, &ys));
    });
    let speedup = naive as f64 / fast as f64;
    println!("analysis smoke: fast {fast} ns, naive {naive} ns, speedup {speedup:.2}x at n={n}");
    assert!(
        fast <= naive,
        "fast analysis path regressed below the naive engine ({speedup:.2}x)"
    );
    for deployment in [Deployment::Virtualized, Deployment::NonVirtualized] {
        let r = run(ExperimentConfig::fast(deployment, WorkloadMix::BROWSING));
        let classed = serde_json::to_string(&full_characterize(&r, 2)).unwrap();
        let every =
            serde_json::to_string(&full_characterize_source(&EverySeries(&r), 2).unwrap()).unwrap();
        let plan = profile_plan(&r);
        println!("analysis smoke: {deployment:?} {plan:?}");
        assert!(
            classed == every,
            "{deployment:?}: the scale-classed characterization differs from profiling every series"
        );
    }
    println!("analysis smoke: PASS");
}

/// A run's series without in-place access, so `full_characterize_source`
/// profiles every series, as it does off disk.
struct EverySeries<'a>(&'a ExperimentResult);

impl SeriesSource for EverySeries<'_> {
    fn hosts(&self) -> Vec<String> {
        self.0.hosts()
    }

    fn interval(&self) -> Option<SimDuration> {
        self.0.interval()
    }

    fn has_series(&self, host: &str, metric: MetricId) -> bool {
        self.0.has_series(host, metric)
    }

    fn read_chunks(
        &self,
        host: &str,
        metric: MetricId,
        sink: &mut dyn FnMut(&[f64]),
    ) -> std::io::Result<()> {
        self.0.read_chunks(host, metric, sink)
    }
}

/// Re-measure every section and rewrite `results/BENCH_analysis.json`.
fn record_json() {
    let mut sections = String::new();

    sections.push_str("  \"spectrum_lag\": {\n");
    for (i, &n) in SIZES.iter().enumerate() {
        let xs = signal(n);
        let ys = follower(&xs);
        let mut scratch = SeriesScratch::new();
        let reps = if n >= 100_000 { 1 } else { 3 };
        let fast = best_of(3, || {
            black_box(spectrum_lag_fast(&mut scratch, &xs, &ys));
        });
        let naive = best_of(reps, || {
            black_box(spectrum_lag_naive(&xs, &ys));
        });
        let speedup = naive as f64 / fast as f64;
        eprintln!("[bench] spectrum_lag n={n}: fast {fast} ns, naive {naive} ns ({speedup:.2}x)");
        sections.push_str(&format!(
            "    \"{n}\": {{ \"fft_prefix\": {fast}, \"goertzel_naive\": {naive}, \"speedup\": {speedup:.2} }}{}\n",
            if i + 1 < SIZES.len() { "," } else { "" }
        ));
    }
    sections.push_str("  },\n");

    let r = paper_run();
    let pooled = best_of(3, || {
        black_box(characterize_jobs(&r, JOBS).resources.len());
    });
    let serial = best_of(3, || {
        black_box(characterize_naive(&r));
    });
    let full_pooled = best_of(3, || {
        black_box(full_characterize(&r, JOBS).profiles.len());
    });
    let full_serial = best_of(2, || {
        black_box(full_characterize_naive(&r));
    });
    let speedup = serial as f64 / pooled as f64;
    let full_speedup = full_serial as f64 / full_pooled as f64;
    eprintln!(
        "[bench] characterize paper: pooled {pooled} ns, serial naive {serial} ns ({speedup:.2}x)"
    );
    eprintln!(
        "[bench] full catalog paper: pooled {full_pooled} ns, serial naive {full_serial} ns ({full_speedup:.2}x)"
    );
    sections.push_str(&format!(
        "  \"characterize_paper\": {{\n    \"resource_level\": {{ \"pooled_jobs4\": {pooled}, \"serial_naive\": {serial}, \"speedup\": {speedup:.2} }},\n    \"full_catalog\": {{ \"pooled_jobs4\": {full_pooled}, \"serial_naive\": {full_serial}, \"speedup\": {full_speedup:.2} }}\n  }},\n"
    ));

    sections.push_str(&characterize_steps_section());

    let recorded = std::env::var("BENCH_DATE").unwrap_or_else(|_| "unrecorded".to_string());
    let json = format!(
        "{{\n  \"bench\": \"crates/bench/benches/analysis.rs\",\n  \"model\": \"single-series spectrum (full periodogram) + lag scan (max_lag 10) at 600/10k/100k samples; end-to-end characterization of one paper-scale virtualized browsing run, resource level (13 series) and full 518-metric catalog; per-step profile cost over the fast virtualized browsing catalog (seed 42)\",\n  \"units\": \"ns/iter (characterize_steps: us per series)\",\n  \"command\": \"BENCH_DATE=YYYY-MM-DD cargo bench -p cloudchar-bench --bench analysis -- --json\",\n  \"recorded\": \"{recorded}\",\n{sections}  \"notes\": \"fft_prefix = real-input FFT periodogram (radix-2 + Bluestein) + prefix-sum Pearson lag scan through one SeriesScratch; goertzel_naive = pre-refactor per-bin Goertzel spectrum + per-shift naive Pearson (kept in-tree as the test oracle). pooled_jobs4 = characterize_jobs/full_characterize on the bounded 4-worker pool; serial_naive = the old serial free-function engine. Acceptance: >= 5x spectrum+lag at n=10,000 and >= 3x end-to-end characterize at paper scale with jobs >= 4; ci.sh runs `--smoke` which fails if the fast path is ever slower than the naive engine. characterize_steps = every catalog series of the fast run profiled on one thread without deduplication, 50 interleaved passes that each run all steps (load, summary, best_fit, autocorrelation, jumps, periodogram) and charge a step the clock time from its start to its end, each step's entry the best of its 50 (load computes the lag-1 co-moments in its moments loop, so the autocorrelation step only reads them); every entry includes one clock read, clock_read_us; distinct = bitwise-distinct series; classes = exact power-of-two scale classes, one profile each; derived = distinct series whose profile is derived from their class representative; direct = class members profiled directly because the 1e-9 jump-threshold floor forbids the derivation; full_characterize_jobs1_us_per_series = the scale-classed full_characterize(r, 1) divided by the series count.\"\n}}\n"
    );
    // cargo bench runs with cwd = the package root; anchor to the
    // workspace results/ directory regardless.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("BENCH_analysis.json"), &json).expect("write BENCH_analysis.json");
    eprintln!(
        "[bench] wrote results/BENCH_analysis.json ({} bytes)",
        json.len()
    );
}

criterion_group!(analysis_benches, bench_spectrum_lag, bench_characterize);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
    } else if args.iter().any(|a| a == "--json") {
        record_json();
    } else {
        analysis_benches();
    }
}
