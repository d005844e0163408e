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
use crate::sweep::par_map_ordered_with;
use cloudchar_analysis::{find_lag, FitResult, LagResult, Resource, SeriesScratch, Summary};
use cloudchar_monitor::{catalog, MetricId, Source};
use cloudchar_simcore::hash::{IntHasher, IntMap};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::Hasher;

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

/// Profile one already-loaded series with the shared-pass workspace:
/// summary, best fit, lag-1 autocorrelation, jump count (window 15,
/// threshold 10% of the mean) and the dominant period in seconds.
/// Returns `None` when the series is empty or non-finite.
pub(crate) fn profile_loaded(
    scratch: &mut SeriesScratch,
    dt_s: f64,
) -> Option<(
    Summary,
    Option<FitResult>,
    Option<f64>,
    usize,
    Option<(f64, f64)>,
)> {
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
///
/// Many catalog series are bit-identical (idle counters, aliased perf
/// events), so each distinct series is profiled once and its profile is
/// copied to every `(host, metric)` that carries it.
pub fn full_characterize(result: &ExperimentResult, jobs: usize) -> FullCharacterization {
    let c = catalog();
    let dt_s = result.config.sample_interval.as_secs_f64();
    let mut tasks: Vec<(&str, MetricId, &[f64])> = Vec::new();
    let mut metrics_per_host = Vec::with_capacity(result.hosts.len());
    for host in &result.hosts {
        let before = tasks.len();
        for id in c.ids() {
            if let Some(series) = result.store.get(host, id) {
                tasks.push((host, id, &series.values));
            }
        }
        metrics_per_host.push((host.clone(), tasks.len() - before));
    }
    let (distinct, group_of) = group_by_content(tasks.iter().map(|&(_, _, xs)| xs));
    let profiled = par_map_ordered_with(&distinct, jobs, SeriesScratch::new, |scratch, &xs| {
        scratch.load(xs);
        profile_loaded(scratch, dt_s)
    });
    let profiles = tasks
        .iter()
        .zip(group_of)
        .filter_map(|(&(host, id, _), group)| {
            let (summary, fit, autocorr1, jumps, period) = profiled[group].clone()?;
            let def = c.def(id);
            Some(MetricProfile {
                host: host.to_string(),
                metric: def.name.clone(),
                source: def.source,
                summary,
                fit,
                autocorr1,
                jumps,
                period,
            })
        })
        .collect();
    FullCharacterization {
        hosts: result.hosts.clone(),
        metrics_per_host,
        profiles,
    }
}

/// Seedless hash of a series' `f64::to_bits` words. Four interleaved
/// [`IntHasher`] lanes keep four multiply chains in flight.
fn content_hash(xs: &[f64]) -> u64 {
    let mut lanes = [IntHasher::default(); 4];
    let mut quads = xs.chunks_exact(4);
    for quad in &mut quads {
        for (lane, x) in lanes.iter_mut().zip(quad) {
            lane.write_u64(x.to_bits());
        }
    }
    let mut hasher = IntHasher::default();
    hasher.write_usize(xs.len());
    for x in quads.remainder() {
        hasher.write_u64(x.to_bits());
    }
    for lane in lanes {
        hasher.write_u64(lane.finish());
    }
    hasher.finish()
}

/// Group series by content. Returns the distinct series in first-seen
/// order and, per input series, the index of its group. Series are
/// equal when their `f64::to_bits` words are, so `0.0` and `-0.0` stay
/// apart. A seedless hash of the words finds candidates; a hash hit is
/// confirmed word by word, and a collision starts a new group.
fn group_by_content<'a>(
    series: impl ExactSizeIterator<Item = &'a [f64]>,
) -> (Vec<&'a [f64]>, Vec<usize>) {
    let mut group_of = Vec::with_capacity(series.len());
    let mut distinct: Vec<&[f64]> = Vec::new();
    // Per hash, the newest group; per group, the previous group with
    // the same hash, so colliding groups form a chain.
    let mut newest: IntMap<u64, usize> = IntMap::default();
    let mut older: Vec<Option<usize>> = Vec::new();
    for xs in series {
        let key = content_hash(xs);
        let mut probe = newest.get(&key).copied();
        while let Some(g) = probe {
            // No early exit: a hash hit is almost always a match, and the
            // branch-free fold vectorizes.
            let same = distinct[g].len() == xs.len()
                && distinct[g]
                    .iter()
                    .zip(xs)
                    .fold(true, |eq, (a, b)| eq & (a.to_bits() == b.to_bits()));
            if same {
                break;
            }
            probe = older[g];
        }
        let group = probe.unwrap_or_else(|| {
            distinct.push(xs);
            older.push(newest.insert(key, distinct.len() - 1));
            distinct.len() - 1
        });
        group_of.push(group);
    }
    (distinct, group_of)
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

    #[test]
    fn deduplicated_profiles_match_a_fresh_profile_of_each_series() {
        let r = run(ExperimentConfig::fast(
            Deployment::Virtualized,
            WorkloadMix::BROWSING,
        ));
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
        // Idle and aliased counters repeat: most series are duplicates.
        let (distinct, _) = group_by_content(series.iter().map(|&(_, _, xs)| xs));
        assert_eq!((series.len(), distinct.len()), (1008, 505));
        let fc = full_characterize(&r, 2);
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
    fn grouping_keeps_signed_zeros_lengths_and_collisions_apart() {
        let a: &[f64] = &[0.0, 1.0, 2.0];
        let b: &[f64] = &[-0.0, 1.0, 2.0];
        let prefix: &[f64] = &[0.0, 1.0];
        let (distinct, group_of) = group_by_content([a, b, a, prefix, b].into_iter());
        assert_eq!(distinct.len(), 3, "0.0 and -0.0 must not merge");
        assert_eq!(group_of, vec![0, 1, 0, 2, 1]);

        // Two different 2-sample series with the same hash: both words
        // go to the tail hasher, so pick the second series' last word to
        // bring it to the first one's state.
        let state = |words: &[u64]| {
            let mut h = IntHasher::default();
            for &w in words {
                h.write_u64(w);
            }
            h.finish().rotate_right(26)
        };
        let (x1, x2, y1) = (1.5f64.to_bits(), 2.5f64.to_bits(), 7.0f64.to_bits());
        let y2 = state(&[2, y1]).rotate_left(5) ^ state(&[2, x1]).rotate_left(5) ^ x2;
        let x = [f64::from_bits(x1), f64::from_bits(x2)];
        let y = [f64::from_bits(y1), f64::from_bits(y2)];
        assert_eq!(state(&[2, x1, x2]), state(&[2, y1, y2]));
        assert_eq!(content_hash(&x), content_hash(&y), "constructed collision");
        let (distinct, group_of) = group_by_content([&x[..], &y[..], &x[..]].into_iter());
        assert_eq!(distinct.len(), 2, "a hash collision must not merge");
        assert_eq!(group_of, vec![0, 1, 0]);
    }
}
