//! Workload characterization reports — the paper's stated goal
//! ("extract the rules of thumb to aid cloud service providers") and
//! its future work ("design and apply formal methods to model the
//! workload dynamics at both resource level and transaction level"),
//! made executable.
//!
//! [`characterize`] condenses one experiment into:
//!
//! * **resource level** — per host × resource: summary statistics, the
//!   best-fitting distribution family (with KS distance), lag-1
//!   autocorrelation and detected level shifts;
//! * **transaction level** — per RUBiS interaction: completion counts
//!   and latency means;
//! * **structure** — the inter-tier lag.

use crate::experiment::ExperimentResult;
use crate::source::{resident_read, SeriesSource};
use crate::sweep::par_map_ordered_with;
use cloudchar_analysis::{
    find_lag, summarize, FitResult, LagResult, Resource, SeriesScratch, Summary,
};
use cloudchar_monitor::{catalog, MetricId, Source};
use cloudchar_simcore::hash::{IntHasher, IntMap};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::Hasher;
use std::io;

/// Characterization of one `(host, resource)` demand series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourceProfile {
    /// Host label.
    pub host: String,
    /// Resource dimension.
    pub resource: Resource,
    /// Descriptive statistics.
    pub summary: Summary,
    /// Best-fitting distribution family, if enough samples.
    pub fit: Option<FitResult>,
    /// Lag-1 autocorrelation (burst persistence).
    pub autocorr1: Option<f64>,
    /// Detected level shifts (window 15 samples, threshold 10% of the
    /// series mean).
    pub jumps: usize,
    /// Dominant periodic component, if any (period in seconds, power
    /// fraction).
    pub period: Option<(f64, f64)>,
}

/// Transaction-level statistics of one interaction class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransactionProfile {
    /// PHP script name.
    pub script: String,
    /// Completions over the run.
    pub completed: u64,
    /// Mean end-to-end latency in seconds.
    pub latency_mean_s: f64,
}

/// The full characterization of one experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Characterization {
    /// One profile per host × resource.
    pub resources: Vec<ResourceProfile>,
    /// One profile per interaction with at least one completion.
    pub transactions: Vec<TransactionProfile>,
    /// Lag of the DB tier behind the web tier (CPU series).
    pub tier_lag: Option<LagResult>,
    /// Total completed requests.
    pub completed: u64,
    /// Mean response time in seconds.
    pub response_time_mean_s: f64,
}

/// One series' profile: summary, best fit, lag-1 autocorrelation,
/// jump count and dominant period (seconds, power fraction).
pub(crate) type Profile = (
    Summary,
    Option<FitResult>,
    Option<f64>,
    usize,
    Option<(f64, f64)>,
);

/// Profile one already-loaded series with the shared-pass workspace:
/// summary, best fit, lag-1 autocorrelation, jump count (window 15,
/// threshold 10% of the mean) and the dominant period in seconds.
/// Returns `None` when the series is empty or non-finite.
pub(crate) fn profile_loaded(scratch: &mut SeriesScratch, dt_s: f64) -> Option<Profile> {
    let summary = scratch.summary()?;
    let threshold = (summary.mean.abs() * 0.10).max(1e-9);
    let fit = scratch.best_fit();
    let autocorr1 = scratch.autocorrelation(1);
    let jumps = scratch.detect_jumps(15, threshold).len();
    let period = scratch
        .dominant_periods(0.10, 1)
        .first()
        .map(|p| (p.period_samples * dt_s, p.power));
    Some((summary, fit, autocorr1, jumps, period))
}

/// Characterize an experiment result on the default-size worker pool
/// (one worker per available core).
pub fn characterize(result: &ExperimentResult) -> Characterization {
    characterize_jobs(result, crate::sweep::default_jobs())
}

/// Characterize an experiment result, fanning the per-`(host, resource)`
/// series profiles across at most `jobs` pooled worker threads. Each
/// worker reuses one [`SeriesScratch`]; profiles are merged back in
/// host-then-resource order, so the output is identical for every job
/// count.
pub fn characterize_jobs(result: &ExperimentResult, jobs: usize) -> Characterization {
    let dt_s = result.config.sample_interval.as_secs_f64();
    let mut tasks: Vec<(&str, Resource)> = Vec::new();
    for host in &result.hosts {
        for resource in Resource::ALL {
            tasks.push((host, resource));
        }
    }
    let resources = par_map_ordered_with(
        &tasks,
        jobs,
        SeriesScratch::new,
        |scratch, &(host, resource)| {
            let xs = result.resource_series(resource, host);
            scratch.load(&xs);
            let (summary, fit, autocorr1, jumps, period) = profile_loaded(scratch, dt_s)?;
            Some(ResourceProfile {
                host: host.to_string(),
                resource,
                summary,
                fit,
                autocorr1,
                jumps,
                period,
            })
        },
    )
    .into_iter()
    .flatten()
    .collect();
    let tier_lag = {
        let web = result.resource_series(Resource::Cpu, result.front_host());
        let db = result.resource_series(Resource::Cpu, result.back_host());
        find_lag(&web, &db, 10)
    };
    let transactions = result
        .transactions
        .iter()
        .filter(|(_, n, _)| *n > 0)
        .map(|(script, n, lat)| TransactionProfile {
            script: script.clone(),
            completed: *n,
            latency_mean_s: *lat,
        })
        .collect();
    Characterization {
        resources,
        transactions,
        tier_lag,
        completed: result.completed,
        response_time_mean_s: result.response_time_mean_s,
    }
}

/// Characterization of one raw catalog metric series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricProfile {
    /// Host label.
    pub host: String,
    /// Metric name (as in Table 1 of the paper).
    pub metric: String,
    /// Sampling source of the metric.
    pub source: Source,
    /// Descriptive statistics.
    pub summary: Summary,
    /// Best-fitting distribution family, if enough samples.
    pub fit: Option<FitResult>,
    /// Lag-1 autocorrelation.
    pub autocorr1: Option<f64>,
    /// Detected level shifts (window 15, threshold 10% of the mean).
    pub jumps: usize,
    /// Dominant periodic component (period seconds, power fraction).
    pub period: Option<(f64, f64)>,
}

/// Full-catalog characterization: every sampled metric of every host.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullCharacterization {
    /// Hosts in presentation order.
    pub hosts: Vec<String>,
    /// Per host: number of catalog metrics present in the store.
    pub metrics_per_host: Vec<(String, usize)>,
    /// One profile per present `(host, metric)` series, in host-then-
    /// catalog order.
    pub profiles: Vec<MetricProfile>,
}

/// Profile the *entire* metric catalog — every sampled series of every
/// host, not just the per-resource rollups — on at most `jobs` pooled
/// worker threads. Output order is host presentation order crossed with
/// catalog order, independent of the job count.
pub fn full_characterize(result: &ExperimentResult, jobs: usize) -> FullCharacterization {
    resident_read(full_characterize_source(result, jobs))
}

/// [`full_characterize`] over any [`SeriesSource`]: the resident store
/// of a run or its on-disk trace, with identical output.
///
/// Many catalog series are bit-identical (idle counters, aliased perf
/// events) or exact power-of-two multiples of one another (perf events
/// derived as `instructions * 0.25`, page counts against kB). When the
/// source holds its series in memory, they are grouped into scale
/// classes ([`group_by_scale`]); one representative per class is
/// profiled, and every other series of the class takes a copy (bitwise
/// duplicates) or a profile derived from it by [`derive_scaled`], bit
/// for bit what profiling it would give (DESIGN.md §11.4). An on-disk
/// source profiles every series: confirming a merge bit for bit would
/// decode a series a second time, which costs more than the profile it
/// saves (DESIGN.md §15.4). Each worker holds one representative and
/// at most one other series at a time.
pub fn full_characterize_source<S: SeriesSource + ?Sized>(
    src: &S,
    jobs: usize,
) -> io::Result<FullCharacterization> {
    let c = catalog();
    let hosts = src.hosts();
    let (tasks, metrics_per_host) = catalog_tasks(src, &hosts);
    let dt_s = match src.interval() {
        Some(interval) => interval.as_secs_f64(),
        None => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "source holds no series to characterize",
            ))
        }
    };
    let (slots, slot_of_task) = match resident_series(src, &tasks) {
        Some(series) => profile_slots(&group_by_scale(series.into_iter())),
        None => (
            (0..tasks.len())
                .map(|task| Slot {
                    rep: task,
                    task,
                    k: 0,
                })
                .collect(),
            (0..tasks.len()).collect(),
        ),
    };
    let profiled = par_map_ordered_with(&slots, jobs, ClassWorker::default, |w, slot| {
        w.profile(src, &tasks, *slot, dt_s)
    });
    let mut profiles = Vec::with_capacity(tasks.len());
    for (&(host, id), slot) in tasks.iter().zip(slot_of_task) {
        let (summary, fit, autocorr1, jumps, period) = match &profiled[slot] {
            Ok(Some(profile)) => profile.clone(),
            Ok(None) => continue,
            Err(e) => return Err(io::Error::new(e.kind(), e.to_string())),
        };
        let def = c.def(id);
        profiles.push(MetricProfile {
            host: host.to_string(),
            metric: def.name.clone(),
            source: def.source,
            summary,
            fit,
            autocorr1,
            jumps,
            period,
        });
    }
    Ok(FullCharacterization {
        hosts,
        metrics_per_host,
        profiles,
    })
}

/// Every present `(host, metric)` series of `src`, hosts in `hosts`
/// order and catalog order within, and the count per host.
fn catalog_tasks<'h, S: SeriesSource + ?Sized>(
    src: &S,
    hosts: &'h [String],
) -> (Vec<(&'h str, MetricId)>, Vec<(String, usize)>) {
    let mut tasks = Vec::new();
    let mut metrics_per_host = Vec::with_capacity(hosts.len());
    for host in hosts {
        let before = tasks.len();
        for id in catalog().ids() {
            if src.has_series(host, id) {
                tasks.push((host.as_str(), id));
            }
        }
        metrics_per_host.push((host.clone(), tasks.len() - before));
    }
    (tasks, metrics_per_host)
}

/// The tasks' series read in place, when `src` holds them all in
/// memory.
fn resident_series<'s, S: SeriesSource + ?Sized>(
    src: &'s S,
    tasks: &[(&str, MetricId)],
) -> Option<Vec<&'s [f64]>> {
    tasks
        .iter()
        .map(|&(host, id)| src.resident(host, id))
        .collect()
}

/// How [`full_characterize`] shares its work over a run's catalog
/// series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfilePlan {
    /// Present `(host, metric)` series.
    pub series: usize,
    /// Bitwise-distinct series.
    pub distinct: usize,
    /// Scale classes: one representative profiled per class.
    pub classes: usize,
    /// Distinct series whose profile is derived from their class
    /// representative's.
    pub derived: usize,
    /// Distinct series profiled directly although they belong to a
    /// class, because the 1e-9 jump-threshold floor forbids the
    /// derivation.
    pub direct: usize,
}

/// The scale-class plan [`full_characterize`] follows on `result`.
pub fn profile_plan(result: &ExperimentResult) -> ProfilePlan {
    let (tasks, _) = catalog_tasks(result, &result.hosts);
    let series = resident_series(result, &tasks).unwrap_or_default();
    let (slots, _) = profile_slots(&group_by_scale(series.iter().copied()));
    let mut plan = ProfilePlan {
        series: series.len(),
        distinct: slots.len(),
        classes: 0,
        derived: 0,
        direct: 0,
    };
    for slot in &slots {
        if slot.k == 0 {
            plan.classes += 1;
        } else if summarize(series[slot.rep]).is_some_and(|s| derivable(s.mean, pow2(slot.k))) {
            plan.derived += 1;
        } else {
            plan.direct += 1;
        }
    }
    plan
}

/// One profile to compute: task `task`'s series, which is `2^k` times
/// the series of its class representative, task `rep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    rep: usize,
    task: usize,
    k: i32,
}

/// One slot per bitwise-distinct series, from a scale grouping (per
/// task: class and `k`), and each task's slot. A class's slots are
/// contiguous, so a worker loads and profiles its representative once
/// per class (once more at most where the pool splits a class between
/// two workers).
fn profile_slots(grouping: &[(usize, i32)]) -> (Vec<Slot>, Vec<usize>) {
    // Classes are numbered in first-seen order, so the task that opens
    // a class is its representative.
    let mut reps = Vec::new();
    for (task, &(class, _)) in grouping.iter().enumerate() {
        if class == reps.len() {
            reps.push(task);
        }
    }
    let mut order: Vec<(usize, i32, usize)> = grouping
        .iter()
        .enumerate()
        .map(|(task, &(class, k))| (class, k, task))
        .collect();
    order.sort_unstable();
    let mut slots: Vec<Slot> = Vec::new();
    let mut slot_of_task = vec![0; grouping.len()];
    let mut prev = None;
    for (class, k, task) in order {
        if prev != Some((class, k)) {
            prev = Some((class, k));
            slots.push(Slot {
                rep: reps[class],
                task,
                k,
            });
        }
        slot_of_task[task] = slots.len() - 1;
    }
    (slots, slot_of_task)
}

/// A pool worker's state: the class representative it has loaded and
/// its profile, plus a workspace for series profiled directly.
#[derive(Default)]
struct ClassWorker {
    rep: SeriesScratch,
    loaded: Option<(usize, Option<Profile>)>,
    direct: SeriesScratch,
}

impl ClassWorker {
    /// The profile of `slot`'s series: its representative's (profiled
    /// on first use), derived from it, or profiled directly when a
    /// derivation would not be exact.
    fn profile<S: SeriesSource + ?Sized>(
        &mut self,
        src: &S,
        tasks: &[(&str, MetricId)],
        slot: Slot,
        dt_s: f64,
    ) -> io::Result<Option<Profile>> {
        let rep = match &self.loaded {
            Some((task, profile)) if *task == slot.rep => profile,
            _ => {
                self.loaded = None;
                let (host, id) = tasks[slot.rep];
                src.load_scratch(host, id, &mut self.rep)?;
                let profile = profile_loaded(&mut self.rep, dt_s);
                &self.loaded.insert((slot.rep, profile)).1
            }
        };
        if slot.k == 0 {
            return Ok(rep.clone());
        }
        if let Some(profile) = rep
            .as_ref()
            .and_then(|rep| derive_scaled(rep, &mut self.rep, slot.k))
        {
            return Ok(Some(profile));
        }
        let (host, id) = tasks[slot.task];
        src.load_scratch(host, id, &mut self.direct)?;
        Ok(profile_loaded(&mut self.direct, dt_s))
    }
}

/// The profile of `2^k` times the series loaded in `scratch`, whose
/// profile is `rep`, or `None` when a derivation would not be exact.
///
/// The series of one scale class keep every nonzero value inside the
/// grouping window, where `+ − × ÷ sqrt` commute with `2^k` exactly
/// (DESIGN.md §11.4). So the summary's location and spread fields
/// scale by `2^k`, the variance by `2^2k`; `n`, `cv`, the lag-1
/// autocorrelation, the dominant period and the jump count (window
/// means against 10% of the mean) do not move; the fit is
/// [`SeriesScratch::best_fit_scaled`]. The jump threshold
/// `(|mean|·0.1).max(1e-9)` commutes only while neither series' threshold
/// sits on its 1e-9 floor; otherwise this returns `None`.
fn derive_scaled(rep: &Profile, scratch: &mut SeriesScratch, k: i32) -> Option<Profile> {
    let (summary, _, autocorr1, jumps, period) = rep;
    let scale = pow2(k);
    if !derivable(summary.mean, scale) {
        return None;
    }
    let summary = Summary {
        n: summary.n,
        mean: summary.mean * scale,
        variance: summary.variance * scale * scale,
        std_dev: summary.std_dev * scale,
        cv: summary.cv,
        min: summary.min * scale,
        max: summary.max * scale,
        p50: summary.p50 * scale,
        p95: summary.p95 * scale,
        total: summary.total * scale,
    };
    Some((
        summary,
        scratch.best_fit_scaled(scale),
        *autocorr1,
        *jumps,
        *period,
    ))
}

/// `2^k`, exactly, for the `|k| <= 511` a scale class spans.
fn pow2(k: i32) -> f64 {
    f64::from_bits(((1023 + i64::from(k)) as u64) << 52)
}

/// Whether the jump threshold `(|mean|·0.1).max(1e-9)` of a series
/// with this mean and of its `scale` multiple are both off the 1e-9
/// floor, so the second is the first times `scale`.
fn derivable(mean: f64, scale: f64) -> bool {
    let floored = |mean: f64| mean.abs() * 0.10 < 1e-9;
    !floored(mean) && !floored(mean * scale)
}

/// The magnitudes a scale class admits besides zero: `[2^-256,
/// 2^256)`. Inside this window, every sum, square, product and
/// quotient a profile forms of a series of any length a store holds
/// stays a normal `f64` (DESIGN.md §11.4).
const SCALE_WINDOW: (f64, f64) = (8.636168555094445e-78, 1.157920892373162e77);

/// Whether every nonzero value of `xs` lies in the grouping window
/// (so none is subnormal, non-finite, or too small or large).
fn in_window(xs: &[f64]) -> bool {
    let (lo, hi) = SCALE_WINDOW;
    xs.iter().fold(true, |ok, x| {
        let m = x.abs();
        ok & ((m >= lo) & (m < hi) | (m == 0.0))
    })
}

/// The exponent field of a series' first nonzero value, 1023 when it
/// has none: two series of one class differ in it by their `k`.
fn scale_shift(xs: &[f64]) -> i64 {
    xs.iter()
        .map(|x| x.to_bits())
        .find(|bits| bits << 1 != 0)
        .map_or(1023, |bits| ((bits >> 52) & 0x7ff) as i64)
}

/// Seedless hash of a series' sign and mantissa bits, which a power of
/// two does not change (zeros hash like powers of two; the confirming
/// comparison keeps them apart). Four interleaved [`IntHasher`] lanes
/// keep four multiply chains in flight.
fn class_hash(xs: &[f64]) -> u64 {
    const SIGN_AND_MANTISSA: u64 = !(0x7ff << 52);
    let mut lanes = [IntHasher::default(); 4];
    let mut quads = xs.chunks_exact(4);
    for quad in &mut quads {
        for (lane, x) in lanes.iter_mut().zip(quad) {
            lane.write_u64(x.to_bits() & SIGN_AND_MANTISSA);
        }
    }
    let mut hasher = IntHasher::default();
    hasher.write_usize(xs.len());
    for x in quads.remainder() {
        hasher.write_u64(x.to_bits() & SIGN_AND_MANTISSA);
    }
    for lane in lanes {
        hasher.write_u64(lane.finish());
    }
    hasher.finish()
}

/// Whether `ys` is `xs` times `2^k` bit for bit: a bitwise copy when
/// `k = 0`; otherwise `false` for a `k` no class admits (`|k| > 511`).
/// For in-window values the product is exact and keeps a zero's sign.
fn is_scaled_copy(xs: &[f64], ys: &[f64], k: i64) -> bool {
    if xs.len() != ys.len() || k.abs() > 511 {
        return false;
    }
    // No early exit: a hash hit is almost always a match, and the
    // branch-free folds vectorize.
    let differ = if k == 0 {
        xs.iter()
            .zip(ys)
            .fold(0, |acc, (x, y)| acc | (x.to_bits() ^ y.to_bits()))
    } else {
        let scale = pow2(k as i32);
        xs.iter()
            .zip(ys)
            .fold(0, |acc, (x, y)| acc | ((x * scale).to_bits() ^ y.to_bits()))
    };
    differ == 0
}

/// Group series by exact power-of-two scale: per input series, its
/// class (numbered in first-seen order) and the `k` for which it is
/// `2^k` times the class's first series, bit for bit.
///
/// A series joins a class when it is a bitwise copy of the class's
/// first series (`k = 0`), or its exact `2^k` multiple with both
/// series' nonzero values inside [`SCALE_WINDOW`]. Zeros compare by their
/// raw bits, so `0.0` and `-0.0` stay apart. A hash of the sign and
/// mantissa bits finds candidates; each is confirmed value by value,
/// and a series no candidate takes starts a new class.
fn group_by_scale<'a>(series: impl ExactSizeIterator<Item = &'a [f64]>) -> Vec<(usize, i32)> {
    let mut grouping = Vec::with_capacity(series.len());
    let mut reps: Vec<(&[f64], i64)> = Vec::new();
    // Per hash, the newest class; per class, the previous class with
    // the same hash, so colliding classes form a chain.
    let mut newest: IntMap<u64, usize> = IntMap::default();
    let mut older: Vec<Option<usize>> = Vec::new();
    for xs in series {
        let key = class_hash(xs);
        let shift = scale_shift(xs);
        let mut probe = newest.get(&key).copied();
        while let Some(class) = probe {
            let (rep, rep_shift) = reps[class];
            let k = shift - rep_shift;
            if is_scaled_copy(rep, xs, k) && (k == 0 || (in_window(rep) && in_window(xs))) {
                break;
            }
            probe = older[class];
        }
        let class = probe.unwrap_or_else(|| {
            reps.push((xs, shift));
            older.push(newest.insert(key, reps.len() - 1));
            reps.len() - 1
        });
        // Within the window both shifts differ by at most 511.
        grouping.push((class, (shift - reps[class].1) as i32));
    }
    grouping
}

impl fmt::Display for Characterization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "workload characterization: {} requests, mean response {:.1} ms",
            self.completed,
            self.response_time_mean_s * 1e3
        )?;
        if let Some(lag) = self.tier_lag {
            writeln!(
                f,
                "tier structure: db trails web by {} sample(s) (r = {:.2})",
                lag.lag_samples, lag.correlation
            )?;
        }
        writeln!(f, "-- resource level --")?;
        for r in &self.resources {
            let fit = match &r.fit {
                Some(fr) => format!("{:?} (KS {:.3})", fr.dist, fr.ks),
                None => "(no fit)".to_string(),
            };
            writeln!(
                f,
                "{:>9} {:<5} mean {:>11.4e} cv {:>5.2} ac1 {:>5.2} jumps {} fit {}",
                r.host,
                format!("{:?}", r.resource),
                r.summary.mean,
                r.summary.cv,
                r.autocorr1.unwrap_or(0.0),
                r.jumps,
                fit
            )?;
        }
        writeln!(f, "-- transaction level --")?;
        let mut txns = self.transactions.clone();
        txns.sort_by_key(|t| std::cmp::Reverse(t.completed));
        for t in &txns {
            writeln!(
                f,
                "{:>32} {:>8} completions, {:>7.1} ms mean",
                t.script,
                t.completed,
                t.latency_mean_s * 1e3
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for FullCharacterization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total: usize = self.metrics_per_host.iter().map(|(_, n)| n).sum();
        writeln!(
            f,
            "full-catalog characterization: {} series over {} host(s)",
            total,
            self.hosts.len()
        )?;
        for (host, present) in &self.metrics_per_host {
            let rows: Vec<&MetricProfile> =
                self.profiles.iter().filter(|p| &p.host == host).collect();
            let fitted = rows.iter().filter(|p| p.fit.is_some()).count();
            let periodic = rows.iter().filter(|p| p.period.is_some()).count();
            let jumpy = rows.iter().filter(|p| p.jumps > 0).count();
            writeln!(
                f,
                "{:>12}: {} metrics sampled, {} profiled ({} fitted, {} periodic, {} with jumps)",
                host,
                present,
                rows.len(),
                fitted,
                periodic,
                jumpy
            )?;
            // The strongest periodic metrics, the signal the paper reads
            // off its workload curves (commit ticks, flush intervals).
            let mut periodic_rows: Vec<&&MetricProfile> =
                rows.iter().filter(|p| p.period.is_some()).collect();
            periodic_rows.sort_by(|a, b| {
                let pa = a.period.map(|(_, power)| power).unwrap_or(0.0);
                let pb = b.period.map(|(_, power)| power).unwrap_or(0.0);
                pb.total_cmp(&pa)
            });
            for p in periodic_rows.iter().take(3) {
                if let Some((period_s, power)) = p.period {
                    writeln!(
                        f,
                        "{:>16} {:<24} period {:>6.0} s (power {:.2})",
                        format!("[{:?}]", p.source),
                        p.metric,
                        period_s,
                        power
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Deployment, ExperimentConfig};
    use crate::experiment::run;
    use cloudchar_rubis::WorkloadMix;
    use proptest::prelude::*;

    fn quick() -> Characterization {
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BIDDING);
        characterize(&run(cfg))
    }

    #[test]
    fn covers_all_host_resource_pairs() {
        let c = quick();
        // 3 hosts × 4 resources.
        assert_eq!(c.resources.len(), 12);
        for r in &c.resources {
            assert!(r.summary.n > 0);
            assert!(r.summary.mean.is_finite());
        }
    }

    #[test]
    fn transaction_level_reflects_the_mix() {
        let c = quick();
        assert!(!c.transactions.is_empty());
        let total: u64 = c.transactions.iter().map(|t| t.completed).sum();
        assert_eq!(total, c.completed);
        // A bidding run must complete StoreBid transactions.
        assert!(
            c.transactions.iter().any(|t| t.script == "StoreBid.php"),
            "no StoreBid transactions in a bidding run"
        );
        for t in &c.transactions {
            assert!(t.latency_mean_s > 0.0, "{} latency", t.script);
        }
    }

    #[test]
    fn browsing_has_no_write_transactions() {
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
        let c = characterize(&run(cfg));
        for t in &c.transactions {
            assert!(
                !t.script.starts_with("Store") && t.script != "RegisterUser.php",
                "write transaction {} in browsing run",
                t.script
            );
        }
    }

    #[test]
    fn fits_are_reported_for_long_series() {
        let c = quick();
        let with_fit = c.resources.iter().filter(|r| r.fit.is_some()).count();
        assert!(with_fit >= 8, "only {with_fit} fits");
    }

    #[test]
    fn display_renders() {
        let c = quick();
        let s = c.to_string();
        assert!(s.contains("resource level"));
        assert!(s.contains("transaction level"));
        assert!(s.contains("web-vm"));
    }

    #[test]
    fn full_characterize_covers_the_catalog() {
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BIDDING);
        let r = run(cfg);
        let fc = full_characterize(&r, 4);
        assert_eq!(fc.hosts, r.hosts);
        // Each VM carries its guest sysstat block plus the shared
        // hypervisor-plane metrics; every present series is profiled.
        let total_present: usize = fc.metrics_per_host.iter().map(|(_, n)| n).sum();
        assert!(
            total_present >= cloudchar_monitor::SYSSTAT_METRICS,
            "only {total_present} series present"
        );
        assert_eq!(
            fc.profiles.len(),
            total_present,
            "every present series profiles"
        );
        for p in &fc.profiles {
            assert!(p.summary.n > 0);
            assert!(p.summary.mean.is_finite());
        }
        // Output order: host presentation order, catalog order within.
        let host_rank = |h: &str| fc.hosts.iter().position(|x| x == h).unwrap();
        for w in fc.profiles.windows(2) {
            assert!(host_rank(&w[0].host) <= host_rank(&w[1].host));
        }
        let s = fc.to_string();
        assert!(s.contains("full-catalog characterization"));
    }

    #[test]
    fn job_count_does_not_change_results() {
        let cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BIDDING);
        let r = run(cfg);
        let serial = characterize_jobs(&r, 1);
        let pooled = characterize_jobs(&r, 8);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&pooled).unwrap()
        );
        let full_serial = full_characterize(&r, 1);
        let full_pooled = full_characterize(&r, 8);
        assert_eq!(
            serde_json::to_string(&full_serial).unwrap(),
            serde_json::to_string(&full_pooled).unwrap()
        );
    }

    /// Every profile of `r`'s full characterization at `jobs` against a
    /// fresh profile of its own series.
    fn check_against_fresh_profiles(r: &ExperimentResult, jobs: usize) {
        let c = catalog();
        let dt_s = r.config.sample_interval.as_secs_f64();
        let mut series = Vec::new();
        for host in &r.hosts {
            for id in c.ids() {
                if let Some(s) = r.store.get(host, id) {
                    series.push((host.as_str(), id, s.values.as_slice()));
                }
            }
        }
        let fc = full_characterize(r, jobs);
        assert_eq!(fc.profiles.len(), series.len());
        for (p, &(host, id, xs)) in fc.profiles.iter().zip(&series) {
            let mut fresh = SeriesScratch::new();
            fresh.load(xs);
            let want = profile_loaded(&mut fresh, dt_s).expect("finite series profiles");
            let got = (p.summary.clone(), p.fit, p.autocorr1, p.jumps, p.period);
            assert_eq!(
                (p.host.as_str(), p.metric.as_str()),
                (host, c.def(id).name.as_str())
            );
            // Debug output spells every f64 exactly, signed zeros too.
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{host}/{}",
                p.metric
            );
        }
    }

    #[test]
    fn deduplicated_profiles_match_a_fresh_profile_of_each_series() {
        let r = run(ExperimentConfig::fast(
            Deployment::Virtualized,
            WorkloadMix::BROWSING,
        ));
        for jobs in [1, 3] {
            check_against_fresh_profiles(&r, jobs);
        }
        // Idle and aliased counters repeat, and derived counters are
        // power-of-two multiples: 1,008 series, 505 bitwise-distinct,
        // 396 scale classes; the other 109 distinct series are derived.
        let plan = profile_plan(&r);
        assert_eq!(
            plan,
            ProfilePlan {
                series: 1008,
                distinct: 505,
                classes: 396,
                derived: 109,
                direct: 0,
            }
        );
        let bidding = run(ExperimentConfig::fast(
            Deployment::NonVirtualized,
            WorkloadMix::BIDDING,
        ));
        check_against_fresh_profiles(&bidding, 2);
    }

    /// A series drawn for the scale-class proptest: `codes` pick zeros
    /// of both signs, repeats of a few palette values (ties), or
    /// continuous values of either sign at magnitude `2^e`, where `e`
    /// comes from `magnitude`: ordinary, at either edge of the
    /// grouping window, small enough that 10% of the mean falls under
    /// 1e-9, subnormal, or around `2^512`, where squares start to
    /// overflow. `special`
    /// makes the series constant or lognormal, or plants a NaN or an
    /// infinity.
    fn drawn_series(codes: &[(u8, f64)], magnitude: (u8, i32), special: u8) -> Vec<f64> {
        let e = match magnitude.0 % 6 {
            0 => magnitude.1 % 20,
            1 => -258 + magnitude.1 % 5,
            2 => 253 + magnitude.1 % 5,
            3 => -32 + magnitude.1 % 8,
            4 => -1074 + magnitude.1 % 60,
            _ => 480 + magnitude.1 % 64,
        };
        let scale = if e >= -1022 {
            f64::from_bits(((1023 + e) as u64) << 52)
        } else {
            f64::from_bits(1 << (e + 1074))
        };
        let mut xs: Vec<f64> = codes
            .iter()
            .map(|&(code, u)| match code % 8 {
                0 => 0.0,
                1 => -0.0,
                2..=4 => scale * f64::from(code % 3 + 1) * 0.75,
                5 => -scale * (1.0 + u),
                _ => scale * (1.0 + u),
            })
            .collect();
        match special % 8 {
            0 => xs.iter_mut().for_each(|x| *x = scale * 1.25),
            1 => xs[codes.len() / 2] = f64::NAN,
            2 => xs[0] = f64::INFINITY,
            // Lognormal draws (Box–Muller), so the LogNormal takes part
            // and often wins.
            3..=5 => {
                for (x, &(code, u)) in xs.iter_mut().zip(codes) {
                    let radius = (-2.0 * ((f64::from(code) + 0.5) / 256.0).ln()).sqrt();
                    *x = scale * (radius * (std::f64::consts::TAU * u).cos()).exp();
                }
            }
            _ => {}
        }
        xs
    }

    proptest! {
        /// A store holding `x`, `2^k·x`, `2^j·x` and a bitwise copy of `x`
        /// characterizes each series as profiling it alone would, bit
        /// for bit, at one and at three workers.
        #[test]
        fn scaled_series_profile_as_if_alone(
            codes in proptest::collection::vec((any::<u8>(), 0f64..1.0), 8..600),
            magnitude in (any::<u8>(), 0i32..1000),
            special in any::<u8>(),
            k in -60i32..61,
            j in -60i32..61,
        ) {
            let x = drawn_series(&codes, magnitude, special);
            let by = |p: i32| x.iter().map(|v| v * pow2(p)).collect::<Vec<f64>>();
            let series = [x.clone(), by(k), by(j), x.clone()];
            let mut store = cloudchar_monitor::SeriesStore::new();
            let ids: Vec<MetricId> = catalog().ids().take(series.len()).collect();
            let interval = cloudchar_simcore::SimDuration::from_secs(2);
            for (xs, &id) in series.iter().zip(&ids) {
                for &v in xs {
                    store.record("h", id, cloudchar_simcore::SimTime::ZERO, interval, v);
                }
            }
            let want: Vec<String> = series
                .iter()
                .filter_map(|xs| {
                    let mut fresh = SeriesScratch::new();
                    fresh.load(xs);
                    profile_loaded(&mut fresh, 2.0)
                })
                .map(|p| format!("{p:?}"))
                .collect();
            for jobs in [1, 3] {
                let fc = full_characterize_source(&store, jobs).expect("resident store");
                let got: Vec<String> = fc
                    .profiles
                    .iter()
                    .map(|p| format!("{:?}", (p.summary.clone(), p.fit, p.autocorr1, p.jumps, p.period)))
                    .collect();
                prop_assert_eq!(&got, &want, "k {} j {} jobs {} on {:?}", k, j, jobs, x);
            }
        }
    }

    #[test]
    fn scale_grouping_matches_exact_power_of_two_multiples_only() {
        let x: &[f64] = &[1.0, 2.0, 0.0, 3.0, -0.0];
        let twice: &[f64] = &[2.0, 4.0, 0.0, 6.0, -0.0];
        let eighth: &[f64] = &[0.125, 0.25, 0.0, 0.375, -0.0];
        let negated: &[f64] = &[-1.0, -2.0, 0.0, -3.0, -0.0];
        let tripled: &[f64] = &[3.0, 6.0, 0.0, 9.0, -0.0];
        let zero_swapped: &[f64] = &[2.0, 4.0, -0.0, 6.0, -0.0];
        let off_by_an_ulp: &[f64] = &[2.0, 4.0, 0.0, 6.000000000000001, -0.0];
        let grouping = group_by_scale(
            [
                x,
                twice,
                eighth,
                negated,
                tripled,
                zero_swapped,
                off_by_an_ulp,
                x,
            ]
            .into_iter(),
        );
        assert_eq!(
            grouping,
            vec![
                (0, 0),
                (0, 1),
                (0, -3),
                (1, 0),
                (2, 0),
                (3, 0),
                (4, 0),
                (0, 0)
            ]
        );

        // Outside the window a series joins only its bitwise copies:
        // subnormal, infinite, NaN and too-large values.
        let tiny = f64::MIN_POSITIVE / 4.0;
        let sub: &[f64] = &[tiny, 2.0 * tiny];
        let sub_twice: &[f64] = &[2.0 * tiny, 4.0 * tiny];
        let inf: &[f64] = &[1.0, f64::INFINITY];
        let inf_twice: &[f64] = &[2.0, f64::INFINITY];
        let nan: &[f64] = &[f64::NAN, 1.0];
        let big: &[f64] = &[1.0, 2f64.powi(300)];
        let big_half: &[f64] = &[0.5, 2f64.powi(299)];
        let edge: &[f64] = &[2f64.powi(-256), 2f64.powi(255) * 1.5];
        let edge_twice: &[f64] = &[2f64.powi(-255), 2f64.powi(256) * 1.5];
        let edge_half: &[f64] = &[2f64.powi(-257), 2f64.powi(254) * 1.5];
        let grouping = group_by_scale(
            [
                sub, sub_twice, inf, inf_twice, nan, nan, big, big_half, edge, edge_twice,
                edge_half, sub,
            ]
            .into_iter(),
        );
        let classes: Vec<usize> = grouping.iter().map(|g| g.0).collect();
        assert_eq!(classes, vec![0, 1, 2, 3, 4, 4, 5, 6, 7, 8, 9, 0]);
        assert!(grouping.iter().all(|g| g.1 == 0), "{grouping:?}");

        // Zeros keep their raw bits: an all-zero series, its signed
        // twin, and a series whose nonzero value would normalize to the
        // word of `+0.0` never merge.
        let zeros: &[f64] = &[0.0, 0.0];
        let neg_zeros: &[f64] = &[-0.0, 0.0];
        let one_zero: &[f64] = &[1.0, 0.0];
        let one_one: &[f64] = &[1.0, 1.0];
        let grouping = group_by_scale([zeros, neg_zeros, one_zero, one_one, zeros].into_iter());
        assert_eq!(grouping, vec![(0, 0), (1, 0), (2, 0), (3, 0), (0, 0)]);
    }

    #[test]
    fn the_scale_window_is_two_to_the_256_either_way() {
        assert_eq!(SCALE_WINDOW.0.to_bits(), 2f64.powi(-256).to_bits());
        assert_eq!(SCALE_WINDOW.1.to_bits(), 2f64.powi(256).to_bits());
        assert!(in_window(&[
            0.0,
            -0.0,
            2f64.powi(-256),
            -2f64.powi(255) * 1.999
        ]));
        for outside in [
            2f64.powi(-257) * 1.999,
            2f64.powi(256),
            f64::NAN,
            f64::INFINITY,
        ] {
            assert!(!in_window(&[1.0, outside]), "{outside:e}");
        }
    }

    #[test]
    fn grouping_keeps_signed_zeros_lengths_and_collisions_apart() {
        let a: &[f64] = &[0.0, 1.0, 2.0];
        let b: &[f64] = &[-0.0, 1.0, 2.0];
        let prefix: &[f64] = &[0.0, 1.0];
        let grouping = group_by_scale([a, b, a, prefix, b].into_iter());
        let classes: Vec<usize> = grouping.iter().map(|g| g.0).collect();
        assert_eq!(classes, vec![0, 1, 0, 2, 1], "0.0 and -0.0 must not merge");

        // Two different 2-sample series with the same hash: both words
        // go to the tail hasher, so pick the second series' last word to
        // bring it to the first one's state. The words are the sign and
        // mantissa bits, so search for a first value that makes the
        // needed last word one with a zero exponent field.
        let mask = !(0x7ffu64 << 52);
        let state = |words: &[u64]| {
            let mut h = IntHasher::default();
            for &w in words {
                h.write_u64(w);
            }
            h.finish().rotate_right(26)
        };
        let (x1, x2) = (1.5f64.to_bits(), 2.5f64.to_bits());
        let (y1, y2) = (1..1u64 << 24)
            .map(|i| {
                let y1 = (1.0 + i as f64 / (1u64 << 30) as f64).to_bits();
                let y2 = state(&[2, y1 & mask]).rotate_left(5)
                    ^ state(&[2, x1 & mask]).rotate_left(5)
                    ^ (x2 & mask);
                (y1, y2)
            })
            .find(|&(_, y2)| y2 & !mask == 0)
            .expect("a last word with a zero exponent field");
        let x = [f64::from_bits(x1), f64::from_bits(x2)];
        let y = [f64::from_bits(y1), f64::from_bits(y2)];
        assert_eq!(
            state(&[2, x1 & mask, x2 & mask]),
            state(&[2, y1 & mask, y2 & mask])
        );
        assert_eq!(class_hash(&x), class_hash(&y), "constructed collision");
        let grouping = group_by_scale([&x[..], &y[..], &x[..]].into_iter());
        assert_eq!(
            grouping,
            vec![(0, 0), (1, 0), (0, 0)],
            "a hash collision must not merge"
        );
    }
}
