//! Parallel seed sweeps on a bounded worker pool.
//!
//! A single run answers "what happened under this seed"; the paper's
//! claims are about the *system*, so the repro harness validates them
//! over seed ensembles. Runs are embarrassingly parallel and each is
//! single-threaded deterministic, so a bounded pool of workers —
//! `jobs` OS threads, defaulting to the machine's parallelism — keeps
//! results bit-identical to serial execution while scaling to large
//! ensembles without spawning one thread per seed.
//!
//! ## Concurrency model
//!
//! Seeds are split into `jobs` contiguous chunks, one worker thread per
//! chunk; a single chunk runs on the calling thread. Each worker runs its seeds serially in order and returns its
//! results as a block; the pool concatenates the blocks in chunk order,
//! so the output is always in input-seed order regardless of which
//! worker finished first. A worker panic propagates to the caller when
//! its handle is joined — the sweep never hangs on a dead worker.
//!
//! When the calling thread has [`audit`]ing enabled, each worker enables
//! its own (thread-local) collector, and the pool absorbs worker reports
//! into the caller's collector in seed order — the merged report is
//! deterministic and equivalent to auditing a serial sweep.

use crate::config::ExperimentConfig;
use crate::experiment::{run, ExperimentResult};
use cloudchar_analysis::{summarize, Summary};
use cloudchar_simcore::audit;
use serde::{Deserialize, Serialize};

/// Default worker count: the machine's available parallelism, or 1 when
/// that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run the same configuration under each seed on the default-size pool
/// (see [`default_jobs`]). Results are in seed order and identical to
/// running serially.
pub fn run_seeds(base: &ExperimentConfig, seeds: &[u64]) -> Vec<ExperimentResult> {
    run_seeds_jobs(base, seeds, default_jobs())
}

/// Run the same configuration under each seed on a pool of at most
/// `jobs` worker threads (`jobs` is clamped to `1..=seeds.len()`).
/// Results are returned in seed order and are byte-identical to serial
/// execution; a panic in any worker propagates to the caller.
pub fn run_seeds_jobs(
    base: &ExperimentConfig,
    seeds: &[u64],
    jobs: usize,
) -> Vec<ExperimentResult> {
    par_map_ordered_with(
        seeds,
        jobs,
        || (),
        |(), &seed| {
            let mut cfg = base.clone();
            cfg.seed = seed;
            run(cfg)
        },
    )
}

/// Map `f` over `items` on a bounded pool of at most `jobs` scoped
/// worker threads (`jobs` clamped to `1..=items.len()`), preserving
/// input order in the output — the generic engine behind
/// [`run_seeds_jobs`] and the pooled characterization/report loops.
///
/// Items are split into `jobs` contiguous chunks, one worker per chunk
/// (a single chunk runs on the calling thread, spawning nothing);
/// each worker builds one private workspace with `init` (e.g. a
/// `SeriesScratch`) and folds it through its chunk serially, so `f` can
/// reuse buffers without synchronization. Chunk results are concatenated
/// in chunk order, making the output identical to a serial
/// `items.iter().map(...)` regardless of scheduling. A worker panic
/// propagates to the caller at join. When the calling thread has
/// [`audit`]ing enabled, workers collect into thread-local collectors
/// that are absorbed in item order, exactly as a serial run would
/// record.
pub fn par_map_ordered_with<T: Sync, W, R: Send>(
    items: &[T],
    jobs: usize,
    init: impl Fn() -> W + Sync,
    f: impl Fn(&mut W, &T) -> R + Sync,
) -> Vec<R> {
    if items.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, items.len());
    let chunk_len = items.len().div_ceil(jobs);
    if chunk_len == items.len() {
        // One chunk: run it on the calling thread. Audit checks land in
        // the caller's collector directly, and a panic unwinds as is.
        let mut workspace = init();
        return items.iter().map(|item| f(&mut workspace, item)).collect();
    }
    let audit_workers = audit::is_enabled();

    let worker = |chunk: &[T]| -> (Vec<R>, audit::AuditReport) {
        if audit_workers {
            audit::enable();
        }
        let mut workspace = init();
        let results = chunk.iter().map(|item| f(&mut workspace, item)).collect();
        (results, audit::take_report())
    };

    let mut results = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || worker(chunk)))
            .collect();
        // Joining in spawn (= item) order makes the merge deterministic;
        // a panicked worker re-raises here instead of hanging the pool.
        for handle in handles {
            let (chunk_results, report) = match handle.join() {
                Ok(output) => output,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            results.extend(chunk_results);
            if audit_workers {
                audit::absorb(report);
            }
        }
    });
    results
}

/// Across-seed stability of one scalar statistic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepStat {
    /// Statistic name.
    pub name: String,
    /// Per-seed values, in seed order.
    pub values: Vec<f64>,
    /// Summary over seeds.
    pub summary: Summary,
}

/// Summarize a per-result scalar over a sweep. Returns `None` for an
/// empty sweep, or when any per-seed value is non-finite.
pub fn sweep_stat(
    name: &str,
    results: &[ExperimentResult],
    f: impl Fn(&ExperimentResult) -> f64,
) -> Option<SweepStat> {
    let values: Vec<f64> = results.iter().map(f).collect();
    let summary = summarize(&values)?;
    Some(SweepStat {
        name: name.to_string(),
        values,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Deployment;
    use cloudchar_rubis::WorkloadMix;
    use cloudchar_simcore::SimDuration;

    fn tiny() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BIDDING);
        cfg.clients = 40;
        cfg.duration = SimDuration::from_secs(40);
        cfg
    }

    #[test]
    fn parallel_equals_serial() {
        let cfg = tiny();
        let seeds = [3u64, 5, 8];
        let par = run_seeds(&cfg, &seeds);
        for (r, &seed) in par.iter().zip(&seeds) {
            let mut c = cfg.clone();
            c.seed = seed;
            let serial = run(c);
            assert_eq!(r.completed, serial.completed, "seed {seed}");
            assert_eq!(r.events, serial.events, "seed {seed}");
            assert_eq!(
                r.cpu_cycles("web-vm"),
                serial.cpu_cycles("web-vm"),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn results_in_seed_order() {
        let cfg = tiny();
        let results = run_seeds(&cfg, &[9, 2, 7]);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].config.seed, 9);
        assert_eq!(results[1].config.seed, 2);
        assert_eq!(results[2].config.seed, 7);
    }

    #[test]
    fn empty_sweep_is_empty() {
        assert!(run_seeds(&tiny(), &[]).is_empty());
    }

    #[test]
    fn sweep_stat_summarizes() {
        let cfg = tiny();
        let results = run_seeds(&cfg, &[1, 2, 3, 4]);
        let stat = sweep_stat("completed", &results, |r| r.completed as f64)
            .expect("non-empty sweep summarizes");
        assert_eq!(stat.values.len(), 4);
        assert!(stat.summary.mean > 0.0);
        // The closed loop keeps completions stable across seeds.
        assert!(
            stat.summary.cv < 0.1,
            "completions too seed-sensitive: cv {}",
            stat.summary.cv
        );
    }

    #[test]
    fn sweep_stat_empty_is_none() {
        assert!(sweep_stat("nothing", &[], |_| 0.0).is_none());
    }

    #[test]
    fn sweep_stat_nonfinite_is_none() {
        let results = run_seeds(&tiny(), &[1]);
        assert!(sweep_stat("nan", &results, |_| f64::NAN).is_none());
    }

    #[test]
    fn par_map_preserves_order_for_any_job_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let par = par_map_ordered_with(&items, jobs, || (), |(), &x| x * x);
            assert_eq!(par, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn par_map_workspace_is_reused_within_a_chunk() {
        // One worker: the workspace counter must thread through every
        // item, proving `init` ran once per worker, not per item.
        let items = [(); 10];
        let counts = par_map_ordered_with(
            &items,
            1,
            || 0usize,
            |n, ()| {
                *n += 1;
                *n
            },
        );
        assert_eq!(counts, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_is_empty() {
        let out: Vec<u32> = par_map_ordered_with(&[] as &[u32], 4, || (), |(), &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_propagates_worker_panics() {
        let caught = std::panic::catch_unwind(|| {
            par_map_ordered_with(
                &[1u32, 2, 3, 4],
                2,
                || (),
                |(), &x| {
                    assert!(x != 3, "boom on {x}");
                    x
                },
            )
        });
        assert!(caught.is_err(), "worker panic must reach the caller");
    }
}
