//! Failure-scenario integration tests.
//!
//! The fault subsystem's contract: a chaos schedule is part of the
//! deterministic event order, so the same plan under the same seed
//! replays **byte-identically** — run twice, or run across differently
//! sized worker pools, and every sampled series (and the fault summary
//! itself) comes out the same. On top of replay, the `db-crash` scenario
//! must show the paper-shaped story: availability dips while the MySQL
//! domain is down and recovers fully after reboot, without invalidating
//! the R-claim signs outside the fault window.

use cloudchar_core::{
    run, run_fleet, run_seeds_jobs, scenario, scenario_report, Deployment, ExperimentConfig,
    ExperimentResult, FleetConfig, SCENARIOS,
};
use cloudchar_monitor::{catalog, Source};
use cloudchar_rubis::WorkloadMix;
use cloudchar_simcore::{FaultPlan, SimDuration};

fn faulted_cfg(name: &str, seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
    c.seed = seed;
    c.faults = scenario(name, c.duration.as_secs_f64()).expect("built-in scenario");
    c.validate().expect("scenario config validates");
    c
}

/// Hash every sampled series of a result (same FNV fold as the
/// determinism suite).
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

#[test]
fn every_scenario_replays_byte_identically() {
    for name in SCENARIOS {
        let a = run(faulted_cfg(name, 4242));
        let b = run(faulted_cfg(name, 4242));
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name}: replay fingerprints diverged"
        );
        let bytes_a = serde_json::to_vec(&a.store).expect("store serializes");
        let bytes_b = serde_json::to_vec(&b.store).expect("store serializes");
        assert_eq!(bytes_a, bytes_b, "{name}: serialized stores diverged");
        assert_eq!(a.faults, b.faults, "{name}: fault summaries diverged");
        assert!(a.faults.is_some(), "{name}: fault summary missing");
    }
}

#[test]
fn scenario_sweep_is_worker_pool_invariant() {
    // `--jobs 1` vs `--jobs 4`: the bounded pool must not perturb fault
    // delivery — per-seed results are bit-identical either way.
    let base = faulted_cfg("db-crash", 0); // seed overridden per sweep entry
    let seeds = [42, 43, 44, 45];
    let serial = run_seeds_jobs(&base, &seeds, 1);
    let pooled = run_seeds_jobs(&base, &seeds, 4);
    assert_eq!(serial.len(), pooled.len());
    for (i, (s, p)) in serial.iter().zip(&pooled).enumerate() {
        assert_eq!(
            fingerprint(s),
            fingerprint(p),
            "seed {}: jobs=1 vs jobs=4 diverged",
            seeds[i]
        );
        assert_eq!(
            s.faults, p.faults,
            "seed {}: fault summaries diverged",
            seeds[i]
        );
    }
}

#[test]
fn db_crash_dips_availability_and_recovers() {
    let r = run(faulted_cfg("db-crash", 42));
    let summary = r.faults.as_ref().expect("fault summary present");
    assert!(summary.errors > 0, "crash produced no request errors");
    assert!(summary.retries > 0, "clients never retried");
    assert!(
        summary.overall_availability() < 1.0,
        "availability never dipped"
    );
    let rep = scenario_report(&r).expect("phase report computable");
    assert!(
        rep.availability_before > 0.99,
        "pre-fault availability {}",
        rep.availability_before
    );
    assert!(
        rep.availability_during < 0.9,
        "availability inside the crash window {} is not a dip",
        rep.availability_during
    );
    assert!(
        rep.availability_after > 0.99,
        "availability after reboot {} did not recover",
        rep.availability_after
    );
}

#[test]
fn db_crash_preserves_r_claim_signs_outside_the_window() {
    // The paper's R1 (front-end dominates back-end) and R2 (VM sum
    // exceeds the dom0 view) signs must hold in the healthy phase of a
    // fault-injected run, and the crash must zero the DB tier's demand
    // while it is down.
    let r = run(faulted_cfg("db-crash", 42));
    let rep = scenario_report(&r).expect("phase report computable");
    let cpu_before = |host: &str| {
        rep.deltas
            .iter()
            .find(|d| d.host == host && format!("{:?}", d.resource) == "Cpu")
            .expect("delta row")
            .before
    };
    let (web, db, dom0) = (
        cpu_before("web-vm"),
        cpu_before("mysql-vm"),
        cpu_before("dom0"),
    );
    assert!(web > db, "R1 sign: web {web} vs db {db}");
    assert!(web + db > dom0, "R2 sign: vms {} vs dom0 {dom0}", web + db);
    let db_during = rep
        .deltas
        .iter()
        .find(|d| d.host == "mysql-vm" && format!("{:?}", d.resource) == "Cpu")
        .expect("delta row")
        .during;
    assert!(
        db_during < 0.5 * db,
        "crashed DB tier still drew {db_during} of {db} cycles"
    );
}

#[test]
fn fleet_db_crash_is_isolated_to_its_pod() {
    // Crash the MySQL domain of pod 0 only. The conservative protocol
    // must not let that stall the neighbor shards: every sampling
    // window inside the crash still completes requests on pods 1 and 2,
    // and pod 0 comes back after its clear event — at any worker count.
    let mut cfg = FleetConfig::paper13();
    cfg.pods = 3;
    cfg.base.clients = 90;
    cfg.base.duration = SimDuration::from_secs(60);
    cfg.base.rampup = SimDuration::from_secs(5);
    cfg.base.faults = scenario("db-crash", 60.0).expect("built-in scenario");
    cfg.fault_pod = Some(0);
    let serial = run_fleet(&cfg, 1);
    let parallel = run_fleet(&cfg, 4);
    assert_eq!(
        serial.fingerprint(),
        parallel.fingerprint(),
        "fleet jobs=1 vs jobs=4 diverged under faults"
    );
    let r = parallel;
    assert!(r.failed > 0, "crash produced no failures");
    // db-crash: MySQL domain down 24 s..33 s (+2 s reboot). Sample
    // window i covers (2i, 2i+2] seconds, so 13..16 sit fully inside.
    let during = 13..16usize;
    let dip = r.availability_over(during.start, during.end);
    assert!(dip < 0.95, "availability during the crash {dip}");
    let after = r.availability_over(19, r.availability.len());
    assert!(after > 0.99, "availability after reboot {after}");
    for i in during.clone() {
        for pod in 1..3 {
            assert!(
                r.ok_by_pod[i][pod] > 0,
                "pod {pod} stalled in crash window {i}: {:?}",
                r.ok_by_pod[i]
            );
        }
    }
    let pod0_during: u64 = during.clone().map(|i| r.ok_by_pod[i][0]).sum();
    let pod0_after: u64 = (19..r.ok_by_pod.len()).map(|i| r.ok_by_pod[i][0]).sum();
    assert!(
        pod0_after > pod0_during,
        "pod 0 never recovered: {pod0_during} during vs {pod0_after} after"
    );
}

#[test]
fn empty_plan_leaves_the_run_untouched() {
    // `FaultPlan::empty()` must be indistinguishable from no plan at
    // all: same bytes, no fault summary, no armed timeouts.
    let mut with_empty = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
    with_empty.faults = FaultPlan::empty();
    let baseline = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
    let a = run(with_empty);
    let b = run(baseline);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.events, b.events, "empty plan scheduled extra events");
    assert!(a.faults.is_none(), "empty plan produced a fault summary");
}

#[test]
fn scenario_fingerprints_match_goldens() {
    // Pinned series fingerprints of the Xen fault paths: the crash /
    // restart (`down`) path, a runtime cap, dom0 credit starvation, and
    // a healthy run with two background guests sharing the host. A
    // change to the quantum or the credit scheduler must leave every
    // one of these bits where it is.
    let golden = [
        ("db-crash", 0xa8bd_fe3c_103e_eae1_u64),
        ("web-throttle", 0x5ad2_e1cd_b1e8_823e),
        ("noisy-neighbor", 0x4a43_03cf_f50d_7fba),
    ];
    for (name, want) in golden {
        let got = fingerprint(&run(faulted_cfg(name, 42)));
        assert_eq!(got, want, "{name}: fingerprint {got:#x} drifted");
    }
    let mut bg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
    bg.seed = 42;
    bg.background_vms = 2;
    let got = fingerprint(&run(bg));
    assert_eq!(
        got, 0xb7f0_ef33_24f9_13b7,
        "background_vms = 2: fingerprint {got:#x} drifted"
    );
}

/// Eight background guests each demanding a full VCPU (`fast`
/// browsing, seed 42). With dom0 and the two RUBiS guests that asks for
/// more than the host's eight cores every quantum, so this is the one
/// pinned run whose quanta go through the credit scheduler's
/// water-fill rather than granting every demand in full.
fn contended_cfg() -> ExperimentConfig {
    let mut c = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
    c.seed = 42;
    c.background_vms = 8;
    c.background_util = 1.0;
    c.validate().expect("contended config validates");
    c
}

#[test]
fn contended_host_fingerprint_matches_golden() {
    let r = run(contended_cfg());
    // The background guests overdraw their credit and fall to OVER; the
    // lightly loaded RUBiS guests stay UNDER and are served first, so
    // the oversubscribed host steals nothing from them (the starved
    // background guests are checked in `virt.rs`'s unit tests).
    let steal = catalog()
        .find("%steal", Source::VmSysstat)
        .expect("%steal is in the catalog");
    for host in ["web-vm", "mysql-vm"] {
        let series = r.store.get(host, steal).expect("guest %steal series");
        assert!(!series.values.is_empty());
        assert!(
            series.values.iter().all(|&v| v == 0.0),
            "{host}: an UNDER guest was starved"
        );
    }
    let got = fingerprint(&r);
    assert_eq!(
        got, 0xa114_6b4d_b816_9322,
        "background_vms = 8 at full load: fingerprint {got:#x} drifted"
    );
}
