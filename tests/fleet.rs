//! Fleet-scale integration tests for the columnar client cohort.
//!
//! Three gates on the 100k-client workload generator:
//!
//! 1. a golden pin that the 1000-client cohort run reproduces the
//!    fingerprint recorded from the per-client `Session` path, byte for
//!    byte — the representation change must be invisible;
//! 2. a 100k-client smoke run whose fingerprints are invariant across
//!    worker-pool widths (`jobs = 1` vs `N`), pinned to its own
//!    pre-cohort golden hash;
//! 3. a 10k-client fault scenario showing the availability dip and
//!    recovery survive the columnar retry/backoff/abandon paths;
//! 4. golden pins of the sharded fleet (`paper13`, `fleet100`, and
//!    `paper13` with each built-in scenario on pod 0), so the request
//!    pipeline the pods run is held to the same replay contract as the
//!    single-host testbed.

use cloudchar_core::{
    run, run_fleet, run_seeds_jobs, scenario, scenario_report, Deployment, ExperimentConfig,
    ExperimentResult, FleetConfig,
};
use cloudchar_monitor::catalog;
use cloudchar_rubis::WorkloadMix;
use cloudchar_simcore::SimDuration;

/// Hash every sampled series of a result (the determinism-suite FNV).
fn fingerprint(r: &ExperimentResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let c = catalog();
    for host in &r.hosts {
        for id in c.ids() {
            if let Some(s) = r.store.get(host, id) {
                for &v in &s.values {
                    h ^= v.to_bits();
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    h
}

/// The fleet base: virtualized 70% browsing at seed 777, scaled by
/// client count. Duration shrinks as the population grows so every
/// tier-1 run stays inside the CI wall-clock budget.
fn fleet_cfg(clients: u32, duration_s: u64, rampup_s: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::percent_browsing(70));
    c.seed = 777;
    c.clients = clients;
    c.duration = SimDuration::from_secs(duration_s);
    c.rampup = SimDuration::from_secs(rampup_s);
    c
}

#[test]
fn kilo_client_cohort_matches_pre_cohort_fingerprint() {
    // Golden pin recorded from the per-client `Session` path (the PR 6
    // seed) at the paper's scale: fast config, 1000 clients, seed 777,
    // 70% browsing. The cohort + timer-wheel path must reproduce the
    // sampled series byte-for-byte — and therefore this hash exactly.
    let mut cfg =
        ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::percent_browsing(70));
    cfg.seed = 777;
    cfg.clients = 1000;
    let r = run(cfg);
    assert_eq!(
        fingerprint(&r),
        0xd483_243b_663e_e2ff,
        "1000-client cohort run diverged from the per-client golden hash"
    );
    assert_eq!(r.completed, 15013, "completion count drifted");
}

#[test]
fn hundred_k_smoke_is_worker_pool_invariant_and_pinned() {
    // 100k clients, 6 s of simulated time: big enough that a per-client
    // event path would schedule 100k timer events up front, small
    // enough to finish in seconds. Fingerprints must not depend on the
    // worker-pool width, and seed 777 must still match the golden hash
    // recorded from the per-client path before the cohort landed.
    let base = fleet_cfg(100_000, 6, 2);
    let seeds = [777_u64, 778];
    let serial = run_seeds_jobs(&base, &seeds, 1);
    let pooled = run_seeds_jobs(&base, &seeds, 2);
    let fp_serial: Vec<u64> = serial.iter().map(fingerprint).collect();
    let fp_pooled: Vec<u64> = pooled.iter().map(fingerprint).collect();
    assert_eq!(fp_serial, fp_pooled, "fingerprints depend on --jobs");
    assert_eq!(
        fp_serial[0], 0xd433_8962_c34f_5961,
        "100k-client run diverged from the pre-cohort golden hash"
    );
    assert_eq!(serial[0].completed, 12752, "completion count drifted");
    assert_ne!(fp_serial[0], fp_serial[1], "different seeds must diverge");
}

#[test]
fn ten_k_fault_scenario_dips_and_recovers() {
    // The db-crash scenario at 10k clients: the columnar
    // retry/backoff/abandon paths and the monitor's availability
    // counters must show the same dip-and-recover shape the 120-client
    // scenario suite pins.
    let mut cfg = fleet_cfg(10_000, 60, 10);
    cfg.faults = scenario("db-crash", 60.0).expect("built-in scenario");
    cfg.validate().expect("fault plan valid at fleet scale");
    let r = run(cfg);
    let report = scenario_report(&r).expect("fault windows inside the run");
    assert!(
        report.availability_before > 0.99,
        "pre-fault availability {}",
        report.availability_before
    );
    assert!(
        report.availability_during < 0.90,
        "crash window availability {} shows no dip",
        report.availability_during
    );
    assert!(
        report.availability_after > 0.95,
        "post-recovery availability {}",
        report.availability_after
    );
    let summary = r.faults.as_ref().expect("fault summary present");
    assert!(
        summary.retries > 0,
        "a 10k-client crash window must trigger retries"
    );
}

#[test]
fn abandoned_sessions_resume_after_the_pause() {
    // Regression for the resumed-think-timer path: sessions that
    // abandon during the crash must come back (their wheel wakeups
    // survive the epoch bump that invalidated stale timers) — the run
    // keeps completing requests after the fault clears instead of
    // bleeding population.
    let mut cfg = fleet_cfg(2_000, 60, 5);
    cfg.faults = scenario("db-crash", 60.0).expect("built-in scenario");
    let r = run(cfg);
    let summary = r.faults.as_ref().expect("fault summary present");
    assert!(summary.abandons > 0, "crash must abandon some sessions");
    // Availability recovered (see scenario_report), so the abandoned
    // sessions resumed and completed requests after the fault window.
    let report = scenario_report(&r).expect("fault windows inside the run");
    assert!(
        report.availability_after > 0.95,
        "abandoned sessions failed to resume: availability {}",
        report.availability_after
    );
}

#[test]
fn fleet_fingerprints_match_goldens() {
    // The two fleet topologies the shard bench records, and paper13
    // with each built-in chaos scenario injected into pod 0.
    let paper13 = run_fleet(&FleetConfig::paper13(), 1);
    assert_eq!(
        paper13.fingerprint(),
        0x5e2e_3f36_7b03_9350,
        "paper13: fingerprint {:#x} drifted",
        paper13.fingerprint()
    );
    assert_eq!(paper13.completed, 4236, "paper13: completion count drifted");
    let fleet100 = run_fleet(&FleetConfig::fleet100(), 1);
    assert_eq!(
        fleet100.fingerprint(),
        0x65db_bc33_f17a_dc37,
        "fleet100: fingerprint {:#x} drifted",
        fleet100.fingerprint()
    );
    assert_eq!(
        fleet100.completed, 14536,
        "fleet100: completion count drifted"
    );
    let golden = [
        ("db-crash", 0xba20_9300_c50d_216d_u64),
        ("web-throttle", 0x67ca_a71e_355a_7141),
        ("noisy-neighbor", 0x86d7_590b_6b50_fbd5),
    ];
    for (name, want) in golden {
        let mut cfg = FleetConfig::paper13();
        cfg.base.faults = scenario(name, 120.0).expect("built-in scenario");
        cfg.fault_pod = Some(0);
        let got = run_fleet(&cfg, 1).fingerprint();
        assert_eq!(got, want, "paper13 + {name}: fingerprint {got:#x} drifted");
    }
}
