//! Bounded sweep-pool integration tests: any worker count must give
//! results byte-identical to serial execution, in seed order; worker
//! panics must propagate; workers must be audit-clean.

use cloudchar_core::{run, run_seeds_jobs, Deployment, ExperimentConfig};
use cloudchar_rubis::WorkloadMix;
use cloudchar_simcore::{audit, SimDuration};

fn tiny() -> ExperimentConfig {
    let mut cfg =
        ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::percent_browsing(60));
    cfg.clients = 40;
    cfg.duration = SimDuration::from_secs(40);
    cfg
}

/// Serialized metric store — the full byte-level content of a result.
fn store_bytes(r: &cloudchar_core::ExperimentResult) -> Vec<u8> {
    serde_json::to_vec(&r.store).expect("store serializes")
}

#[test]
fn any_job_count_is_byte_identical_to_serial() {
    let cfg = tiny();
    let seeds = [11u64, 3, 7, 19, 5];
    let serial: Vec<Vec<u8>> = seeds
        .iter()
        .map(|&seed| {
            let mut c = cfg.clone();
            c.seed = seed;
            store_bytes(&run(c))
        })
        .collect();
    // jobs = 1 (fully serial pool), 4, and more jobs than seeds.
    for jobs in [1usize, 4, 16] {
        let pooled = run_seeds_jobs(&cfg, &seeds, jobs);
        assert_eq!(pooled.len(), seeds.len(), "jobs {jobs}");
        for ((r, &seed), expect) in pooled.iter().zip(&seeds).zip(&serial) {
            assert_eq!(r.config.seed, seed, "jobs {jobs}: seed order");
            assert_eq!(
                &store_bytes(r),
                expect,
                "jobs {jobs} seed {seed}: pooled result differs from serial"
            );
        }
    }
}

#[test]
fn more_seeds_than_jobs_chunks_in_order() {
    let cfg = tiny();
    let seeds: Vec<u64> = (1..=9).collect();
    let pooled = run_seeds_jobs(&cfg, &seeds, 2);
    let order: Vec<u64> = pooled.iter().map(|r| r.config.seed).collect();
    assert_eq!(order, seeds);
}

#[test]
fn worker_panic_propagates() {
    let mut cfg = tiny();
    cfg.clients = 0; // run() rejects this inside the worker
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_seeds_jobs(&cfg, &[1, 2, 3, 4], 2)
    }));
    assert!(result.is_err(), "worker panic must reach the caller");
}

#[test]
fn workers_are_audit_clean_and_report_merges() {
    audit::enable();
    let results = run_seeds_jobs(&tiny(), &[2, 4, 6], 3);
    let report = audit::take_report();
    assert_eq!(results.len(), 3);
    assert!(
        report.checks > 0,
        "worker audit reports must merge into the caller's"
    );
    assert!(report.is_clean(), "violations: {}", report.summary());
}

#[test]
fn unaudited_sweep_leaves_caller_collector_untouched() {
    assert!(!audit::is_enabled());
    let _ = run_seeds_jobs(&tiny(), &[1, 2], 2);
    assert!(!audit::is_enabled());
    assert!(audit::take_report().is_clean());
}

#[test]
fn single_chunk_runs_inline_with_the_same_results_audit_and_panics() {
    let cfg = tiny();
    let seeds = [2u64, 4, 6];
    let audited = |jobs: usize| {
        audit::enable();
        let results = run_seeds_jobs(&cfg, &seeds, jobs);
        let report = audit::take_report();
        let bytes: Vec<Vec<u8>> = results.iter().map(store_bytes).collect();
        (bytes, report.checks, report.violations_total)
    };
    // jobs 1 runs on the calling thread; jobs 3 spawns one worker per
    // seed and absorbs their reports.
    assert_eq!(audited(1), audited(3));

    let mut bad = tiny();
    bad.clients = 0;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_seeds_jobs(&bad, &[1, 2], 1)
    }));
    assert!(result.is_err(), "an inline panic must reach the caller");
}
