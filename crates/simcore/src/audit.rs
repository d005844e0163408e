//! Runtime invariant auditing.
//!
//! The simulation layers carry physical invariants that no type can
//! express: event time never runs backwards, a scheduler never grants
//! more core-time than the machine has, device utilizations stay inside
//! `[0, 1]`, sampled metrics are finite. This module gives every layer a
//! single, dependency-free place to report those checks at runtime.
//!
//! Auditing is **off by default** and costs one thread-local flag read
//! per check site when disabled. Enable it with [`enable`], run the
//! simulation, then collect the [`AuditReport`] with [`take_report`]:
//!
//! ```
//! use cloudchar_simcore::audit;
//!
//! audit::enable();
//! audit::check("demo.nonnegative", 0, 1.0 >= 0.0, || "impossible".into());
//! let report = audit::take_report();
//! assert!(report.is_clean());
//! assert_eq!(report.checks, 1);
//! ```
//!
//! The collector is **thread-local**: enabling it audits the current
//! thread only. Parallel seed sweeps run each seed on its own thread, so
//! a sweep is audited by enabling inside the per-seed closure (or by
//! auditing a serial rerun of the seed in question). Violations are
//! recorded in deterministic simulation order — same seed, same report.

use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};

/// Cap on *recorded* violations per report; the total count keeps
/// incrementing past it so a hot broken invariant cannot balloon memory.
pub const MAX_RECORDED: usize = 64;

/// One failed invariant check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Dotted invariant identifier, e.g. `"engine.time_monotonic"`.
    pub invariant: String,
    /// Human-readable description of the failing state.
    pub detail: String,
    /// Simulation time of the check, in nanoseconds (0 when the checking
    /// layer has no clock access).
    pub sim_time_ns: u64,
}

/// Outcome of an audited run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// Total invariant checks evaluated.
    pub checks: u64,
    /// Total violations observed (may exceed `violations.len()`).
    pub violations_total: u64,
    /// Recorded violations, oldest first, capped at [`MAX_RECORDED`].
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// Whether the run upheld every checked invariant.
    pub fn is_clean(&self) -> bool {
        self.violations_total == 0
    }

    /// One-line summary suitable for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "audit: {} checks, {} violations",
            self.checks, self.violations_total
        )
    }
}

thread_local! {
    /// Mirrors `COLLECTOR.is_some()`: a const, drop-free cell, so reading
    /// it is one thread-local load with no borrow flag and no lazy
    /// initialization check.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Option<AuditReport>> = const { RefCell::new(None) };
}

/// Start auditing on this thread, discarding any previous report.
pub fn enable() {
    COLLECTOR.with(|c| *c.borrow_mut() = Some(AuditReport::default()));
    ENABLED.with(|e| e.set(true));
}

/// Whether auditing is active on this thread.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Stop auditing and return the report accumulated since [`enable`].
/// Returns an empty report when auditing was never enabled.
pub fn take_report() -> AuditReport {
    ENABLED.with(|e| e.set(false));
    COLLECTOR
        .with(|c| c.borrow_mut().take())
        .unwrap_or_default()
}

/// Fold a report from another thread into this thread's collector.
///
/// Parallel seed sweeps audit each worker thread separately (the
/// collector is thread-local); the pool absorbs worker reports into the
/// caller's collector *in seed order*, so the merged report is as
/// deterministic as a serial audited run. No-op when auditing is
/// disabled on the calling thread.
pub fn absorb(other: AuditReport) {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(report) = slot.as_mut() else { return };
        report.checks += other.checks;
        report.violations_total += other.violations_total;
        for v in other.violations {
            if report.violations.len() >= MAX_RECORDED {
                break;
            }
            report.violations.push(v);
        }
    });
}

/// Record one invariant check. `detail` is only rendered on failure.
///
/// No-op (beyond the flag read) when auditing is disabled, so check
/// sites may sit on hot paths.
#[inline]
pub fn check(invariant: &str, sim_time_ns: u64, ok: bool, detail: impl FnOnce() -> String) {
    if !is_enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(report) = slot.as_mut() else { return };
        report.checks += 1;
        if !ok {
            report.violations_total += 1;
            if report.violations.len() < MAX_RECORDED {
                report.violations.push(Violation {
                    invariant: invariant.to_string(),
                    detail: detail(),
                    sim_time_ns,
                });
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_cheap() {
        assert!(!is_enabled());
        check("x.y", 0, false, || {
            unreachable!("detail rendered while disabled")
        });
        assert!(take_report().is_clean());
    }

    #[test]
    fn collects_checks_and_violations() {
        enable();
        check("a.ok", 1, true, || String::new());
        check("a.bad", 2, false, || "broke".into());
        let r = take_report();
        assert_eq!(r.checks, 2);
        assert_eq!(r.violations_total, 1);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "a.bad");
        assert_eq!(r.violations[0].sim_time_ns, 2);
        assert!(!r.is_clean());
        // Taking the report disabled auditing again.
        assert!(!is_enabled());
    }

    #[test]
    fn recording_caps_but_counting_does_not() {
        enable();
        for i in 0..(MAX_RECORDED as u64 + 10) {
            check("b.flood", i, false, || format!("v{i}"));
        }
        let r = take_report();
        assert_eq!(r.violations.len(), MAX_RECORDED);
        assert_eq!(r.violations_total, MAX_RECORDED as u64 + 10);
    }

    #[test]
    fn enable_resets_previous_state() {
        enable();
        check("c.bad", 0, false, || "old".into());
        enable();
        let r = take_report();
        assert!(r.is_clean());
        assert_eq!(r.checks, 0);
    }

    #[test]
    fn absorb_merges_counts_and_violations() {
        enable();
        check("m.local", 1, false, || "local".into());
        let mut other = AuditReport::default();
        other.checks = 5;
        other.violations_total = 2;
        other.violations.push(Violation {
            invariant: "m.remote".into(),
            detail: "remote".into(),
            sim_time_ns: 9,
        });
        absorb(other);
        let r = take_report();
        assert_eq!(r.checks, 6);
        assert_eq!(r.violations_total, 3);
        assert_eq!(r.violations.len(), 2);
        assert_eq!(r.violations[1].invariant, "m.remote");
    }

    #[test]
    fn absorb_without_collector_is_noop() {
        assert!(!is_enabled());
        let mut other = AuditReport::default();
        other.checks = 3;
        absorb(other);
        assert!(!is_enabled());
    }

    #[test]
    fn report_serializes() {
        enable();
        check("d.bad", 7, false, || "boom".into());
        let r = take_report();
        let json = serde_json::to_string(&r).unwrap();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
