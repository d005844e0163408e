//! Fault-plan interpretation: glue between the generic
//! [`cloudchar_simcore::fault`] schedule and the cloudchar testbed.
//!
//! A [`FaultPlan`] only names *what* happens *when*; the request
//! pipeline ([`crate::workload`]) decides what each [`FaultKind`] means
//! for a running server stack — platform-level faults route through
//! [`crate::platform::Platform::apply_fault`], application-level errors
//! arm the per-tier error probability, and the tokens of any work a
//! crash dropped are failed as requests.
//!
//! This module ships the three built-in chaos scenarios (`db-crash`,
//! `web-throttle`, `noisy-neighbor`) and a before/during/after resource
//! delta report mirroring the shape of the paper's R-claims.

use crate::experiment::ExperimentResult;
use cloudchar_analysis::Resource;
use cloudchar_simcore::{FaultEvent, FaultKind, FaultPlan, FaultTier};

/// Names of the built-in failure scenarios.
pub const SCENARIOS: [&str; 3] = ["db-crash", "web-throttle", "noisy-neighbor"];

/// Build a named chaos scenario scaled to a run of `duration_s` seconds.
/// Returns `None` for unknown names.
pub fn scenario(name: &str, duration_s: f64) -> Option<FaultPlan> {
    let t = duration_s;
    let events = match name {
        // The MySQL VM crashes mid-run and reboots: the canonical
        // availability dip with full recovery after the boot delay.
        "db-crash" => vec![FaultEvent {
            at_s: 0.40 * t,
            duration_s: 0.15 * t,
            kind: FaultKind::DomainCrash {
                tier: FaultTier::Db,
                boot_delay_s: 2.0,
            },
        }],
        // The web tier is throttled to a quarter of one CPU while the
        // application sheds 10% of requests with HTTP 500s.
        "web-throttle" => vec![
            FaultEvent {
                at_s: 0.35 * t,
                duration_s: 0.25 * t,
                kind: FaultKind::VcpuCap {
                    tier: FaultTier::Web,
                    cap_percent: 25,
                },
            },
            FaultEvent {
                at_s: 0.35 * t,
                duration_s: 0.25 * t,
                kind: FaultKind::TierErrors {
                    tier: FaultTier::Web,
                    probability: 0.10,
                },
            },
        ],
        // A noisy co-tenant: scheduler starvation, a slow shared disk, a
        // congested NIC, and guest memory pressure in overlapping waves.
        "noisy-neighbor" => vec![
            FaultEvent {
                at_s: 0.30 * t,
                duration_s: 0.30 * t,
                kind: FaultKind::CreditStarve { util: 0.6 },
            },
            FaultEvent {
                at_s: 0.35 * t,
                duration_s: 0.25 * t,
                kind: FaultKind::DiskSlow { factor: 3.0 },
            },
            FaultEvent {
                at_s: 0.40 * t,
                duration_s: 0.20 * t,
                kind: FaultKind::NicDegrade {
                    loss: 0.02,
                    bandwidth_factor: 0.5,
                },
            },
            FaultEvent {
                at_s: 0.30 * t,
                duration_s: 0.35 * t,
                kind: FaultKind::MemPressure {
                    bytes: 512 * 1024 * 1024,
                },
            },
        ],
        _ => return None,
    };
    Some(FaultPlan {
        name: name.to_string(),
        events,
    })
}

/// Mean resource demand of one host over one phase of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// Host label the row describes.
    pub host: String,
    /// Resource the row describes.
    pub resource: Resource,
    /// Mean per-sample demand before any fault window opens.
    pub before: f64,
    /// Mean per-sample demand while the fault envelope is open.
    pub during: f64,
    /// Mean per-sample demand after the last fault clears.
    pub after: f64,
}

impl PhaseDelta {
    /// `during / before` (1.0 when the baseline is zero).
    pub fn during_ratio(&self) -> f64 {
        if self.before == 0.0 {
            1.0
        } else {
            self.during / self.before
        }
    }

    /// `after / before` (1.0 when the baseline is zero) — a recovery
    /// indicator: ≈1 means the fault's effects cleared.
    pub fn recovery_ratio(&self) -> f64 {
        if self.before == 0.0 {
            1.0
        } else {
            self.after / self.before
        }
    }
}

/// Before/during/after report of a fault-injected run, in the spirit of
/// the paper's R-claim ratio tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Plan that ran.
    pub plan_name: String,
    /// Sample-index envelope of the fault windows (`[start, end)`).
    pub window: (usize, usize),
    /// Per host × resource phase means.
    pub deltas: Vec<PhaseDelta>,
    /// Mean availability before the envelope opens.
    pub availability_before: f64,
    /// Mean availability inside the envelope.
    pub availability_during: f64,
    /// Mean availability after the envelope closes.
    pub availability_after: f64,
}

/// Compute the before/during/after deltas of a fault-injected result.
/// Returns `None` when the run carried no fault summary or its windows
/// leave no samples on one side of the envelope.
pub fn scenario_report(result: &ExperimentResult) -> Option<ScenarioReport> {
    let summary = result.faults.as_ref()?;
    let dt = result.config.sample_interval.as_secs_f64();
    let samples = result.config.sample_count();
    let start_s = summary
        .windows
        .iter()
        .map(|w| w.start_s)
        .fold(f64::INFINITY, f64::min);
    let end_s = summary
        .windows
        .iter()
        .map(|w| w.end_s)
        .fold(0.0_f64, f64::max);
    if !start_s.is_finite() || end_s <= start_s {
        return None;
    }
    let lo = ((start_s / dt).floor() as usize).min(samples);
    let hi = ((end_s / dt).ceil() as usize).min(samples);
    if lo == 0 || hi <= lo || hi >= samples {
        return None; // need samples on both sides of the envelope
    }
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let mut deltas = Vec::new();
    for host in &result.hosts {
        for resource in [Resource::Cpu, Resource::Ram, Resource::Disk, Resource::Net] {
            let series = result.resource_series(resource, host);
            if series.len() != samples {
                continue;
            }
            deltas.push(PhaseDelta {
                host: host.clone(),
                resource,
                before: mean(&series[..lo]),
                during: mean(&series[lo..hi]),
                after: mean(&series[hi..]),
            });
        }
    }
    Some(ScenarioReport {
        plan_name: summary.plan_name.clone(),
        window: (lo, hi),
        deltas,
        availability_before: summary.availability_over(0, lo),
        availability_during: summary.availability_over(lo, hi),
        availability_after: summary.availability_over(hi, samples),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_scenarios_validate_and_fit_the_run() {
        for name in SCENARIOS {
            let plan = scenario(name, 120.0).expect("known scenario");
            assert_eq!(plan.name, name);
            plan.validate().expect("scenario validates");
            for ev in &plan.events {
                assert!(ev.at_s < 120.0, "{name} event starts inside the run");
                assert!(ev.clear_s() < 120.0, "{name} event clears inside the run");
            }
        }
        assert!(scenario("no-such-chaos", 120.0).is_none());
    }

    #[test]
    fn scenario_fingerprints_are_duration_stable() {
        // Same name + duration ⇒ identical plan bytes and fingerprint.
        let a = scenario("db-crash", 120.0).unwrap();
        let b = scenario("db-crash", 120.0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = scenario("db-crash", 1200.0).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn phase_delta_ratios() {
        let d = PhaseDelta {
            host: "web-vm".into(),
            resource: Resource::Cpu,
            before: 10.0,
            during: 25.0,
            after: 11.0,
        };
        assert!((d.during_ratio() - 2.5).abs() < 1e-12);
        assert!((d.recovery_ratio() - 1.1).abs() < 1e-12);
        let z = PhaseDelta { before: 0.0, ..d };
        assert_eq!(z.during_ratio(), 1.0);
    }
}
