//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a replayable schedule of fault events. Each
//! [`FaultEvent`] names a window `[at_s, at_s + duration_s)` and a
//! [`FaultKind`] describing what breaks; [`install`] turns the plan into
//! inject/clear event pairs on the ordinary [`Engine`] calendar queue, so
//! fault timing participates in the same total `(time, seq)` order as
//! every other simulation event. Replaying the same plan against the same
//! seed therefore reproduces the same run bit-for-bit.
//!
//! The crate is deliberately mechanism-free: it knows *when* faults start
//! and stop, never *how* they are applied. Higher layers pass a handler
//! to [`install`] that interprets each [`FaultKind`] against their world
//! (hypervisor, hardware devices, workload generator). This
//! keeps `simcore` dependency-free and lets tests drive plans against toy
//! worlds.
//!
//! Determinism contract: an empty plan schedules **zero** events and draws
//! **zero** random numbers, so a run with `FaultPlan::default()` is
//! byte-identical to a run built before this module existed. All fault
//! scheduling must flow through [`install`]; the `cloudchar-lint` rule
//! CL005 flags fault code that calls the engine's `schedule_*` methods
//! directly.

use crate::engine::{Engine, Handler};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Which application tier a tier-scoped fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTier {
    /// The front-end web/application tier.
    Web,
    /// The back-end database tier.
    Db,
}

/// What breaks during a fault window.
///
/// Variants map onto the three injector layers: `xen` (domain crash,
/// VCPU cap, credit starvation), `hw` (disk, NIC, memory), and `rubis`
/// (request errors at a tier).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The domain hosting `tier` crashes; in-flight work is lost. On
    /// clear the domain reboots and spends `boot_delay_s` of CPU time on
    /// kernel boot work before serving requests again.
    DomainCrash {
        /// Tier whose domain crashes.
        tier: FaultTier,
        /// Simulated boot time charged as CPU overhead on restart.
        boot_delay_s: f64,
    },
    /// The credit scheduler caps the tier's domain at `cap_percent`% of
    /// one physical core per VCPU-period.
    VcpuCap {
        /// Tier whose domain is throttled.
        tier: FaultTier,
        /// Cap in percent of total domain entitlement (1–99).
        cap_percent: u32,
    },
    /// dom0 housekeeping inflates to `util` of one core, starving guest
    /// domains of scheduler credit.
    CreditStarve {
        /// Fraction of one core consumed by dom0 (0, 1].
        util: f64,
    },
    /// Every disk service time is multiplied by `factor` (≥ 1).
    DiskSlow {
        /// Service-time inflation factor.
        factor: f64,
    },
    /// NIC degradation: packet loss forces retransmission (wire time
    /// scales by `1 / (1 - loss)`) and link bandwidth is clamped to
    /// `bandwidth_factor` of nominal.
    NicDegrade {
        /// Packet loss probability [0, 1).
        loss: f64,
        /// Remaining fraction of nominal bandwidth (0, 1].
        bandwidth_factor: f64,
    },
    /// An external allocation pins `bytes` of RAM on every host,
    /// shrinking the page cache.
    MemPressure {
        /// Bytes pinned for the duration of the fault.
        bytes: u64,
    },
    /// Requests touching `tier` fail with `probability` (application
    /// errors: 5xx from the web tier, query errors from the DB tier).
    TierErrors {
        /// Tier whose requests fail.
        tier: FaultTier,
        /// Per-request failure probability (0, 1].
        probability: f64,
    },
}

impl FaultKind {
    /// Stable numeric code per variant, used by [`FaultPlan::fingerprint`].
    fn code(&self) -> u64 {
        match self {
            FaultKind::DomainCrash { .. } => 1,
            FaultKind::VcpuCap { .. } => 2,
            FaultKind::CreditStarve { .. } => 3,
            FaultKind::DiskSlow { .. } => 4,
            FaultKind::NicDegrade { .. } => 5,
            FaultKind::MemPressure { .. } => 6,
            FaultKind::TierErrors { .. } => 7,
        }
    }

    /// Short lower-case label for reports and attribution windows.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::DomainCrash { .. } => "domain-crash",
            FaultKind::VcpuCap { .. } => "vcpu-cap",
            FaultKind::CreditStarve { .. } => "credit-starve",
            FaultKind::DiskSlow { .. } => "disk-slow",
            FaultKind::NicDegrade { .. } => "nic-degrade",
            FaultKind::MemPressure { .. } => "mem-pressure",
            FaultKind::TierErrors { .. } => "tier-errors",
        }
    }

    /// Validate variant parameters; returns a description of the first
    /// violation.
    fn validate(&self) -> Result<(), String> {
        let finite_nonneg = |name: &str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(format!("{name} must be finite and >= 0, got {v}"))
            }
        };
        match self {
            FaultKind::DomainCrash { boot_delay_s, .. } => {
                finite_nonneg("boot_delay_s", *boot_delay_s)
            }
            FaultKind::VcpuCap { cap_percent, .. } => {
                if (1..=99).contains(cap_percent) {
                    Ok(())
                } else {
                    Err(format!("cap_percent must be in 1..=99, got {cap_percent}"))
                }
            }
            FaultKind::CreditStarve { util } => {
                if util.is_finite() && *util > 0.0 && *util <= 1.0 {
                    Ok(())
                } else {
                    Err(format!("util must be in (0, 1], got {util}"))
                }
            }
            FaultKind::DiskSlow { factor } => {
                if factor.is_finite() && *factor >= 1.0 {
                    Ok(())
                } else {
                    Err(format!("factor must be finite and >= 1, got {factor}"))
                }
            }
            FaultKind::NicDegrade {
                loss,
                bandwidth_factor,
            } => {
                if !(loss.is_finite() && (0.0..1.0).contains(loss)) {
                    Err(format!("loss must be in [0, 1), got {loss}"))
                } else if !(bandwidth_factor.is_finite()
                    && *bandwidth_factor > 0.0
                    && *bandwidth_factor <= 1.0)
                {
                    Err(format!(
                        "bandwidth_factor must be in (0, 1], got {bandwidth_factor}"
                    ))
                } else {
                    Ok(())
                }
            }
            FaultKind::MemPressure { bytes } => {
                if *bytes > 0 {
                    Ok(())
                } else {
                    Err("mem-pressure bytes must be > 0".to_string())
                }
            }
            FaultKind::TierErrors { probability, .. } => {
                if probability.is_finite() && *probability > 0.0 && *probability <= 1.0 {
                    Ok(())
                } else {
                    Err(format!("probability must be in (0, 1], got {probability}"))
                }
            }
        }
    }
}

/// One scheduled fault: a kind active over `[at_s, at_s + duration_s)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Injection time, seconds since simulation start.
    pub at_s: f64,
    /// How long the fault stays active, seconds (> 0).
    pub duration_s: f64,
    /// What breaks.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Clear time, seconds since simulation start.
    pub fn clear_s(&self) -> f64 {
        self.at_s + self.duration_s
    }
}

/// A named, replayable schedule of fault events.
///
/// The default plan is empty and injects nothing; an experiment run with
/// an empty plan is bit-identical to one predating fault support.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Human-readable plan name (appears in reports and fingerprints).
    pub name: String,
    /// Fault events; order is irrelevant, delivery order is by time.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no events (injects nothing).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules any fault at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check every event for well-formed timing and parameters.
    pub fn validate(&self) -> Result<(), String> {
        for (i, ev) in self.events.iter().enumerate() {
            if !(ev.at_s.is_finite() && ev.at_s >= 0.0) {
                return Err(format!(
                    "plan {:?} event {i}: at_s must be finite and >= 0, got {}",
                    self.name, ev.at_s
                ));
            }
            if !(ev.duration_s.is_finite() && ev.duration_s > 0.0) {
                return Err(format!(
                    "plan {:?} event {i}: duration_s must be finite and > 0, got {}",
                    self.name, ev.duration_s
                ));
            }
            ev.kind
                .validate()
                .map_err(|e| format!("plan {:?} event {i}: {e}", self.name))?;
        }
        Ok(())
    }

    /// Stable FNV-1a fingerprint over the plan's name and every event
    /// field. Two plans fingerprint equal iff they would schedule the
    /// same faults; serialization round-trips preserve it exactly.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for b in self.name.bytes() {
            mix(b as u64);
        }
        for ev in &self.events {
            mix(ev.at_s.to_bits());
            mix(ev.duration_s.to_bits());
            mix(ev.kind.code());
            match &ev.kind {
                FaultKind::DomainCrash { tier, boot_delay_s } => {
                    mix(*tier as u64);
                    mix(boot_delay_s.to_bits());
                }
                FaultKind::VcpuCap { tier, cap_percent } => {
                    mix(*tier as u64);
                    mix(*cap_percent as u64);
                }
                FaultKind::CreditStarve { util } => mix(util.to_bits()),
                FaultKind::DiskSlow { factor } => mix(factor.to_bits()),
                FaultKind::NicDegrade {
                    loss,
                    bandwidth_factor,
                } => {
                    mix(loss.to_bits());
                    mix(bandwidth_factor.to_bits());
                }
                FaultKind::MemPressure { bytes } => mix(*bytes),
                FaultKind::TierErrors { tier, probability } => {
                    mix(*tier as u64);
                    mix(probability.to_bits());
                }
            }
        }
        h
    }
}

/// Whether an `apply` callback is being asked to start or stop a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// The fault window opens: apply the degradation.
    Inject,
    /// The fault window closes: restore healthy behaviour.
    Clear,
}

/// Schedule every event of `plan` on `engine` as an inject/clear pair.
///
/// Both events of plan event `idx` run `on_fault`: at its `at_s` with
/// [`FaultPhase::Inject`] and at `at_s + duration_s` with
/// [`FaultPhase::Clear`]. The handler's argument packs the pair as
/// `idx << 1 | phase` (0 inject, 1 clear); [`decode`] unpacks it, and
/// the handler reads the [`FaultKind`] from the world's own copy of
/// the plan. This is the **only** sanctioned place fault code touches
/// the engine's scheduler (lint rule CL005); routing all fault timing
/// through here is what makes plans replayable.
///
/// Returns the number of engine events scheduled (2 × plan length). An
/// empty plan schedules nothing and leaves the engine untouched.
///
/// Panics if the engine clock has advanced past an event's inject time;
/// call `install` at simulation start.
pub fn install<W>(plan: &FaultPlan, engine: &mut Engine<W>, on_fault: Handler<W>) -> usize {
    for (idx, ev) in plan.events.iter().enumerate() {
        let arg = (idx as u64) << 1;
        engine.schedule_at(SimTime::from_secs_f64(ev.at_s), on_fault, arg);
        engine.schedule_at(SimTime::from_secs_f64(ev.clear_s()), on_fault, arg | 1);
    }
    2 * plan.events.len()
}

/// Unpack the argument [`install`] gave a fault handler into the plan
/// event's index and the phase.
pub fn decode(arg: u64) -> (usize, FaultPhase) {
    let phase = if arg & 1 == 0 {
        FaultPhase::Inject
    } else {
        FaultPhase::Clear
    };
    ((arg >> 1) as usize, phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk_slow(at_s: f64, duration_s: f64, factor: f64) -> FaultEvent {
        FaultEvent {
            at_s,
            duration_s,
            kind: FaultKind::DiskSlow { factor },
        }
    }

    fn plan(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan {
            name: "test".to_string(),
            events,
        }
    }

    #[derive(Default)]
    struct Log {
        entries: Vec<(f64, usize, FaultPhase)>,
    }

    fn log_fault(e: &mut Engine<Log>, w: &mut Log, arg: u64) {
        let (idx, phase) = decode(arg);
        w.entries.push((e.now().as_secs_f64(), idx, phase));
    }

    fn run_plan(p: &FaultPlan) -> Log {
        let mut engine: Engine<Log> = Engine::new();
        let mut log = Log::default();
        install(p, &mut engine, log_fault);
        engine.run(&mut log);
        log
    }

    #[test]
    fn empty_plan_schedules_nothing() {
        let mut engine: Engine<Log> = Engine::new();
        let n = install(&FaultPlan::default(), &mut engine, log_fault);
        assert_eq!(n, 0);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn inject_and_clear_fire_in_time_order() {
        let p = plan(vec![
            disk_slow(10.0, 5.0, 2.0),
            disk_slow(2.0, 20.0, 3.0), // overlaps the first
        ]);
        let log = run_plan(&p);
        assert_eq!(
            log.entries,
            vec![
                (2.0, 1, FaultPhase::Inject),
                (10.0, 0, FaultPhase::Inject),
                (15.0, 0, FaultPhase::Clear),
                (22.0, 1, FaultPhase::Clear),
            ]
        );
    }

    #[test]
    fn every_inject_pairs_with_a_clear() {
        let p = plan(vec![
            disk_slow(0.0, 1.0, 1.5),
            disk_slow(0.5, 0.25, 4.0),
            disk_slow(3.0, 10.0, 2.0),
        ]);
        let log = run_plan(&p);
        let mut active = std::collections::HashSet::new();
        for (_, idx, phase) in &log.entries {
            match phase {
                FaultPhase::Inject => assert!(active.insert(*idx)),
                FaultPhase::Clear => assert!(active.remove(idx)),
            }
        }
        assert!(active.is_empty(), "unpaired injects: {active:?}");
    }

    #[test]
    fn validate_accepts_well_formed_plan() {
        let p = plan(vec![
            FaultEvent {
                at_s: 1.0,
                duration_s: 2.0,
                kind: FaultKind::DomainCrash {
                    tier: FaultTier::Db,
                    boot_delay_s: 2.0,
                },
            },
            FaultEvent {
                at_s: 0.0,
                duration_s: 5.0,
                kind: FaultKind::NicDegrade {
                    loss: 0.05,
                    bandwidth_factor: 0.5,
                },
            },
        ]);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_timing_and_params() {
        let bad = [
            disk_slow(-1.0, 1.0, 2.0),
            disk_slow(0.0, 0.0, 2.0),
            disk_slow(0.0, f64::NAN, 2.0),
            disk_slow(0.0, 1.0, 0.5),
            FaultEvent {
                at_s: 0.0,
                duration_s: 1.0,
                kind: FaultKind::VcpuCap {
                    tier: FaultTier::Web,
                    cap_percent: 100,
                },
            },
            FaultEvent {
                at_s: 0.0,
                duration_s: 1.0,
                kind: FaultKind::TierErrors {
                    tier: FaultTier::Web,
                    probability: 0.0,
                },
            },
            FaultEvent {
                at_s: 0.0,
                duration_s: 1.0,
                kind: FaultKind::NicDegrade {
                    loss: 1.0,
                    bandwidth_factor: 0.5,
                },
            },
            FaultEvent {
                at_s: 0.0,
                duration_s: 1.0,
                kind: FaultKind::MemPressure { bytes: 0 },
            },
        ];
        for ev in bad {
            let p = plan(vec![ev.clone()]);
            assert!(p.validate().is_err(), "accepted invalid event {ev:?}");
        }
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let a = plan(vec![disk_slow(1.0, 2.0, 3.0)]);
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        let mut b = a.clone();
        b.events[0].at_s = 1.5;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.events[0].kind = FaultKind::CreditStarve { util: 0.5 };
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.name = "other".to_string();
        assert_ne!(a.fingerprint(), d.fingerprint());
        assert_ne!(FaultPlan::default().fingerprint(), a.fingerprint());
    }

    #[test]
    fn serde_round_trip_preserves_fingerprint() {
        let p = plan(vec![
            FaultEvent {
                at_s: 48.0,
                duration_s: 18.0,
                kind: FaultKind::DomainCrash {
                    tier: FaultTier::Db,
                    boot_delay_s: 2.0,
                },
            },
            FaultEvent {
                at_s: 10.0,
                duration_s: 30.0,
                kind: FaultKind::MemPressure { bytes: 512 << 20 },
            },
        ]);
        let json = serde_json::to_string(&p).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("parse");
        assert_eq!(p, back);
        assert_eq!(p.fingerprint(), back.fingerprint());
    }
}
