//! Equivalence proptests: the columnar [`ClientCohort`] against the
//! retained per-client [`ClientPopulation`] oracle.
//!
//! The cohort claims bit-identical behaviour: same RNG draw order, same
//! state transitions, same backoff and abandon decisions, for any seed,
//! mix, and interleaving of successes and failures. These properties
//! drive both representations through arbitrary operation sequences
//! from identically-seeded generators and compare every observable
//! after every step — if the cohort ever diverges, replay fingerprints
//! at scale would silently shift, so this is the first line of defence.

use cloudchar_rubis::{ClientCohort, ClientPopulation, RetryPolicy, WorkloadMix};
use cloudchar_simcore::{Engine, SimRng, SimTime, TimerWheel};
use proptest::prelude::*;

/// One step applied to both representations.
#[derive(Debug, Clone, Copy)]
enum Op {
    Advance,
    ThinkTime,
    OnFailure,
    OnSuccess,
    BumpEpoch,
}

fn op_from(code: u8) -> Op {
    match code % 8 {
        // Weight advance/think/failure heavier: they draw RNG.
        0 | 1 | 2 => Op::Advance,
        3 | 4 => Op::ThinkTime,
        5 | 6 => Op::OnFailure,
        7 => Op::OnSuccess,
        _ => Op::BumpEpoch,
    }
}

fn assert_client_state_eq(cohort: &ClientCohort, oracle: &ClientPopulation, id: u32) {
    let s = oracle.session(id);
    assert_eq!(cohort.mix_of(id), s.mix, "mix of client {id}");
    assert_eq!(
        cohort.current_interaction(id),
        s.current,
        "current page of client {id}"
    );
    assert_eq!(
        cohort.interactions_of(id),
        s.interactions,
        "interaction count of client {id}"
    );
    assert_eq!(cohort.epoch(id), s.epoch, "epoch of client {id}");
    assert_eq!(
        cohort.failures_of(id),
        s.consecutive_failures,
        "failure streak of client {id}"
    );
}

proptest! {
    /// Constructor: same mix assignment, same RNG consumption.
    #[test]
    fn construction_is_bit_compatible(
        seed in any::<u64>(),
        n in 1u32..300,
        browse_percent in 0u32..101,
    ) {
        let mix = WorkloadMix::percent_browsing(browse_percent);
        let mut ra = SimRng::new(seed);
        let mut rb = SimRng::new(seed);
        let cohort = ClientCohort::new(n, mix, &mut ra);
        let oracle = ClientPopulation::new(n, mix, &mut rb);
        prop_assert_eq!(cohort.len(), oracle.len());
        prop_assert_eq!(cohort.browsing_sessions(), oracle.browsing_sessions());
        for id in 0..n {
            assert_client_state_eq(&cohort, &oracle, id);
        }
        // Identical stream positions afterwards.
        prop_assert_eq!(ra.next_u64_raw(), rb.next_u64_raw());
    }

    /// Arbitrary interleavings of advance / think_time / on_failure /
    /// on_success / bump_epoch leave both representations in the same
    /// state with the same RNG position, and every decision they return
    /// along the way is identical.
    #[test]
    fn operation_sequences_are_bit_compatible(
        seed in any::<u64>(),
        n in 1u32..20,
        browse_percent in 0u32..101,
        abandon_after in 1u32..6,
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..400),
    ) {
        let mix = WorkloadMix::percent_browsing(browse_percent);
        let policy = RetryPolicy { abandon_after, ..RetryPolicy::default() };
        let mut ra = SimRng::new(seed);
        let mut rb = SimRng::new(seed);
        let mut cohort = ClientCohort::new(n, mix, &mut ra);
        let mut oracle = ClientPopulation::new(n, mix, &mut rb);
        for &(who, code) in &ops {
            let id = u32::from(who) % n;
            match op_from(code) {
                Op::Advance => {
                    let a = cohort.advance(id, &mut ra);
                    let b = oracle.advance(id, &mut rb);
                    prop_assert_eq!(a, b, "advance landed on different pages");
                }
                Op::ThinkTime => {
                    let a = cohort.think_time(id, &mut ra);
                    let b = oracle.think_time(id, &mut rb);
                    prop_assert_eq!(a, b, "think times diverged");
                }
                Op::OnFailure => {
                    let a = cohort.on_failure(id, &policy, &mut ra);
                    let b = oracle.on_failure(id, &policy, &mut rb);
                    prop_assert_eq!(a, b, "retry decisions diverged");
                }
                Op::OnSuccess => {
                    cohort.on_success(id);
                    oracle.on_success(id);
                }
                Op::BumpEpoch => {
                    prop_assert_eq!(cohort.bump_epoch(id), oracle.bump_epoch(id));
                }
            }
            assert_client_state_eq(&cohort, &oracle, id);
        }
        for id in 0..n {
            assert_client_state_eq(&cohort, &oracle, id);
        }
        prop_assert_eq!(cohort.total_abandons(), oracle.total_abandons());
        prop_assert_eq!(ra.next_u64_raw(), rb.next_u64_raw(), "RNG streams drifted");
    }

    /// Deep history exercise: a long pure-advance run keeps the bounded
    /// ring and the oracle's trimmed Vec on the same page at every step
    /// (Back/End paths hit the ring's wrap and drain edges).
    #[test]
    fn long_walks_keep_history_aligned(
        seed in any::<u64>(),
        browse in any::<bool>(),
        steps in 100usize..2000,
    ) {
        let mix = if browse { WorkloadMix::BROWSING } else { WorkloadMix::BIDDING };
        let mut ra = SimRng::new(seed);
        let mut rb = SimRng::new(seed);
        let mut cohort = ClientCohort::new(1, mix, &mut ra);
        let mut oracle = ClientPopulation::new(1, mix, &mut rb);
        for step in 0..steps {
            let a = cohort.advance(0, &mut ra);
            let b = oracle.advance(0, &mut rb);
            prop_assert_eq!(a, b, "diverged at step {}", step);
        }
        prop_assert!(cohort.history_len(0) <= 64);
    }
}

/// Mirror of the drain loop in `core/workload.rs`, logging wakeups.
struct WheelWorld {
    wheel: TimerWheel,
    fired: Vec<(u64, u32)>,
}

fn wheel_fire(engine: &mut Engine<WheelWorld>, world: &mut WheelWorld, slot: u64) {
    let slot = slot as usize;
    if !world.wheel.begin_fire(slot, engine.now()) {
        return;
    }
    loop {
        while let Some((client, _epoch)) = world.wheel.pop_due(slot, engine.now()) {
            world.fired.push((engine.now().as_nanos(), client));
        }
        let Some(next) = world.wheel.next_deadline(slot) else {
            return;
        };
        if engine.peek_next_time().map_or(true, |h| next < h) {
            engine.advance_now_to(next);
        } else {
            world.wheel.commit(slot, next);
            engine.schedule_at(next, wheel_fire, slot as u64);
            return;
        }
    }
}

/// The per-client-event oracle's handler: log the wakeup of `client`.
fn log_wake(engine: &mut Engine<Vec<(u64, u32)>>, log: &mut Vec<(u64, u32)>, client: u64) {
    log.push((engine.now().as_nanos(), client as u32));
}

proptest! {
    /// Timer wheel ≡ per-client events: for an arbitrary batch of armed
    /// wakeups, draining the wheel yields exactly the `(time, arming
    /// FIFO)` order a per-client-event engine would execute, and every
    /// client observes its exact armed nanosecond on the clock.
    #[test]
    fn wheel_wakeup_order_matches_per_client_events(
        deadlines in proptest::collection::vec(1u64..30_000_000_000u64, 1..300),
        width_s in 1u64..4,
        nbuckets in 1usize..32,
    ) {
        // Per-client-event oracle: one engine event per wakeup, armed in
        // client order — executes in (time, seq) order.
        let mut oracle: Engine<Vec<(u64, u32)>> = Engine::new();
        let mut log: Vec<(u64, u32)> = Vec::new();
        for (client, &ns) in deadlines.iter().enumerate() {
            let client = client as u32;
            oracle.schedule_at(SimTime::from_nanos(ns), log_wake, u64::from(client));
        }
        oracle.run(&mut log);

        // Wheel path: same wakeups armed in the same order.
        let mut engine: Engine<WheelWorld> = Engine::new();
        let mut world = WheelWorld {
            wheel: TimerWheel::new(
                cloudchar_simcore::SimDuration::from_secs(width_s),
                nbuckets,
            ),
            fired: Vec::new(),
        };
        for (client, &ns) in deadlines.iter().enumerate() {
            if let Some((slot, at)) = world.wheel.arm(SimTime::from_nanos(ns), client as u32, 0) {
                engine.schedule_at(at, wheel_fire, slot as u64);
            }
        }
        engine.run(&mut world);

        prop_assert_eq!(&world.fired, &log, "wheel wakeup order diverged");
        prop_assert!(world.wheel.is_empty());
    }
}
