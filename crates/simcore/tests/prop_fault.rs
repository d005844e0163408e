//! Property-based tests for the fault-injection subsystem: any valid
//! random [`FaultPlan`] must (a) run to completion on the engine without
//! deadlock, (b) clear every fault it injects, and (c) leave the world's
//! post-clear steady state indistinguishable from a fault-free run.

use cloudchar_simcore::{
    fault, Engine, FaultEvent, FaultKind, FaultPhase, FaultPlan, FaultTier, SimTime,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Build a valid `FaultKind` from a variant selector and two unit
/// parameters, covering all seven variants.
fn kind_from(sel: u8, a: f64, b: f64) -> FaultKind {
    let tier = if a < 0.5 {
        FaultTier::Web
    } else {
        FaultTier::Db
    };
    match sel {
        0 => FaultKind::DomainCrash {
            tier,
            boot_delay_s: b * 5.0,
        },
        1 => FaultKind::VcpuCap {
            tier,
            cap_percent: 1 + (b * 98.0) as u32,
        },
        2 => FaultKind::CreditStarve {
            util: (0.01 + b * 0.99).min(1.0),
        },
        3 => FaultKind::DiskSlow {
            factor: 1.0 + b * 9.0,
        },
        4 => FaultKind::NicDegrade {
            loss: (a * 0.9).min(0.99),
            bandwidth_factor: (0.1 + b * 0.9).min(1.0),
        },
        5 => FaultKind::MemPressure {
            bytes: 1 + (b * 1e9) as u64,
        },
        _ => FaultKind::TierErrors {
            tier,
            probability: (0.01 + b * 0.99).min(1.0),
        },
    }
}

fn plan_from(raw: Vec<(f64, f64, u8, f64, f64)>) -> FaultPlan {
    FaultPlan {
        name: "prop".to_string(),
        events: raw
            .into_iter()
            .map(|(at_s, duration_s, sel, a, b)| FaultEvent {
                at_s,
                duration_s,
                kind: kind_from(sel, a, b),
            })
            .collect(),
    }
}

/// Toy world: tracks the set of active fault indices and accrues one
/// unit of "work" per tick at full speed, half speed while any fault is
/// active. Good enough to observe inject/clear pairing and steady-state
/// recovery without any platform machinery.
#[derive(Default)]
struct ChaosWorld {
    active: HashSet<usize>,
    ever_injected: usize,
    transitions: usize,
    /// `(tick_time_s, work_increment)` log.
    work: Vec<(f64, f64)>,
}

const TICKS: u64 = 200;

fn on_fault(_: &mut Engine<ChaosWorld>, w: &mut ChaosWorld, arg: u64) {
    let (idx, phase) = fault::decode(arg);
    w.transitions += 1;
    match phase {
        FaultPhase::Inject => {
            assert!(w.active.insert(idx), "double inject of event {idx}");
            w.ever_injected += 1;
        }
        FaultPhase::Clear => {
            assert!(w.active.remove(&idx), "clear without inject of event {idx}");
        }
    }
}

fn work_tick(e: &mut Engine<ChaosWorld>, w: &mut ChaosWorld, _: u64) {
    let rate = if w.active.is_empty() { 1.0 } else { 0.5 };
    w.work.push((e.now().as_secs_f64(), rate));
}

/// Run `plan` against a ticking `ChaosWorld`; returns the final world.
fn run_chaos(plan: &FaultPlan) -> ChaosWorld {
    let mut engine: Engine<ChaosWorld> = Engine::new();
    let mut world = ChaosWorld::default();
    fault::install(plan, &mut engine, on_fault);
    for t in 0..TICKS {
        engine.schedule_at(SimTime::from_secs(t), work_tick, 0);
    }
    engine.run(&mut world);
    world
}

proptest! {
    /// (a) The engine drains any valid plan: every inject and clear
    /// executes and `run` returns (no deadlock, no stuck events).
    #[test]
    fn random_plans_never_deadlock(
        raw in proptest::collection::vec(
            (0.0f64..100.0, 0.1f64..40.0, 0u8..7, 0.0f64..1.0, 0.0f64..1.0),
            0..12,
        )
    ) {
        let plan = plan_from(raw);
        plan.validate().expect("generated plan is valid");
        let world = run_chaos(&plan);
        prop_assert_eq!(world.transitions, 2 * plan.events.len());
        prop_assert_eq!(world.work.len(), TICKS as usize);
    }

    /// (b) Every injected fault is cleared by the end of the run: the
    /// active set drains to empty and injects arrived exactly once per
    /// event.
    #[test]
    fn every_injected_fault_clears(
        raw in proptest::collection::vec(
            (0.0f64..100.0, 0.1f64..40.0, 0u8..7, 0.0f64..1.0, 0.0f64..1.0),
            1..12,
        )
    ) {
        let plan = plan_from(raw);
        let world = run_chaos(&plan);
        prop_assert!(world.active.is_empty(), "still active: {:?}", world.active);
        prop_assert_eq!(world.ever_injected, plan.events.len());
    }

    /// (c) After the last clear, the world runs at exactly the fault-free
    /// rate: the post-clear work accrual matches a no-fault run tick for
    /// tick.
    #[test]
    fn post_clear_steady_state_matches_fault_free_run(
        raw in proptest::collection::vec(
            (0.0f64..100.0, 0.1f64..40.0, 0u8..7, 0.0f64..1.0, 0.0f64..1.0),
            1..12,
        )
    ) {
        let plan = plan_from(raw);
        let last_clear = plan
            .events
            .iter()
            .map(FaultEvent::clear_s)
            .fold(0.0_f64, f64::max);
        let faulted = run_chaos(&plan);
        let healthy = run_chaos(&FaultPlan::empty());
        let tail = |w: &ChaosWorld| -> f64 {
            w.work
                .iter()
                .filter(|(t, _)| *t > last_clear)
                .map(|(_, inc)| inc)
                .sum()
        };
        let (ft, ht) = (tail(&faulted), tail(&healthy));
        prop_assert!(
            (ft - ht).abs() < 1e-9,
            "post-clear steady state diverged: faulted {ft} vs healthy {ht}"
        );
        // And if any tick landed inside a fault window, the run as a
        // whole accrued less work than the healthy one (sanity that
        // faults were actually observed).
        let tick_in_window = (0..TICKS).any(|t| {
            let t = t as f64;
            plan.events.iter().any(|ev| ev.at_s <= t && t < ev.clear_s())
        });
        if tick_in_window {
            let total_faulted: f64 = faulted.work.iter().map(|(_, inc)| inc).sum();
            let total_healthy: f64 = healthy.work.iter().map(|(_, inc)| inc).sum();
            prop_assert!(total_faulted < total_healthy);
        }
    }

    /// JSON round trips preserve any plan exactly, fingerprint included.
    #[test]
    fn serde_round_trip_preserves_any_plan(
        raw in proptest::collection::vec(
            (0.0f64..100.0, 0.1f64..40.0, 0u8..7, 0.0f64..1.0, 0.0f64..1.0),
            0..12,
        )
    ) {
        let plan = plan_from(raw);
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("parse");
        prop_assert_eq!(plan.fingerprint(), back.fingerprint());
        prop_assert_eq!(plan, back);
    }
}
