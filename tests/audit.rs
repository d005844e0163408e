//! Runtime invariant auditor integration tests.
//!
//! A full (fast-profile) experiment on each deployment must pass every
//! runtime invariant: event-time monotonicity, CPU capacity
//! conservation, scheduler allocation sanity, device utilization
//! ranges, and metric-store sample cadence/finiteness.

use cloudchar_core::{run, Deployment, ExperimentConfig};
use cloudchar_rubis::WorkloadMix;
use cloudchar_simcore::audit;

#[test]
fn virtualized_run_is_audit_clean() {
    audit::enable();
    run(ExperimentConfig::fast(
        Deployment::Virtualized,
        WorkloadMix::BROWSING,
    ));
    let report = audit::take_report();
    assert!(report.checks > 0, "auditor observed no checks");
    assert!(
        report.is_clean(),
        "invariant violations: {}",
        report.summary()
    );
    assert!(report.violations.is_empty());
    // Pinned so a cheaper disabled path can never drop an enabled check.
    assert_eq!(report.checks, 277_222);
}

#[test]
fn non_virtualized_run_is_audit_clean() {
    audit::enable();
    run(ExperimentConfig::fast(
        Deployment::NonVirtualized,
        WorkloadMix::BIDDING,
    ));
    let report = audit::take_report();
    assert!(report.checks > 0, "auditor observed no checks");
    assert!(
        report.is_clean(),
        "invariant violations: {}",
        report.summary()
    );
    assert_eq!(report.checks, 115_221);
}

#[test]
fn contended_virtualized_run_is_audit_clean() {
    // Eight guests at full VCPU load oversubscribe the host, so every
    // quantum runs the credit scheduler's water-fill.
    audit::enable();
    let mut cfg = ExperimentConfig::fast(Deployment::Virtualized, WorkloadMix::BROWSING);
    cfg.background_vms = 8;
    cfg.background_util = 1.0;
    run(cfg);
    let report = audit::take_report();
    assert!(
        report.is_clean(),
        "invariant violations: {}",
        report.summary()
    );
    assert_eq!(report.checks, 757_222);
}

#[test]
fn auditor_records_a_seeded_violation() {
    // Sanity-check the harness itself: a failing check must surface,
    // so the clean runs above are meaningful.
    audit::enable();
    audit::check("test.seeded_failure", 42, false, || "injected".to_string());
    audit::check("test.passing", 43, true, || unreachable!());
    let report = audit::take_report();
    assert_eq!(report.checks, 2);
    assert_eq!(report.violations_total, 1);
    assert_eq!(report.violations[0].invariant, "test.seeded_failure");
    assert!(!report.is_clean());
}

#[test]
fn audit_disabled_is_free_of_state() {
    // Without enable(), checks are no-ops and take_report is empty.
    audit::check("test.ignored", 0, false, || "ignored".to_string());
    let report = audit::take_report();
    assert_eq!(report.checks, 0);
    assert!(report.is_clean());
}
