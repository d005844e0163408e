//! Client-scaling benchmark: per-tick workload-generator cost, the
//! retained per-client [`ClientPopulation`] + one-event-per-wake
//! oracle against the columnar [`ClientCohort`] + batched
//! [`TimerWheel`] path that `core/workload.rs` runs in production.
//!
//! Both drivers execute the *same* simulated schedule — identical RNG
//! streams, identical wake nanoseconds, identical session math — and
//! differ only in the generator machinery:
//!
//! * oracle: every wake is its own handler event pushed through the
//!   calendar queue (the pre-cohort seed's shape — N live timer events
//!   for N clients, one engine event per wake);
//! * cohort: wakes land in coarse wheel buckets and one engine event
//!   drains a whole bucket — the engine schedules O(buckets), not
//!   O(clients), per tick.
//!
//! Two costs are reported per scale: wall time for the full generator
//! (construction + every wake through the production machinery) and
//! the number of engine events the generator dispatches — the per-tick
//! scheduling cost that the wheel collapses by two orders of magnitude.
//!
//! Run `cargo bench -p cloudchar-bench --bench clients` for the
//! criterion groups (1k / 10k / 100k clients), `-- --record` to print
//! the `results/BENCH_clients.json` payload (adds the 1M point), or
//! `-- --smoke` for the CI gate: wake-count equivalence, >= 10x fewer
//! generator engine events per tick at 100k clients, and no wall-clock
//! regression against the oracle.

use cloudchar_rubis::{ClientCohort, ClientPopulation, WorkloadMix};
use cloudchar_simcore::{Engine, SimDuration, SimRng, SimTime, TimerWheel};
use criterion::{criterion_group, Criterion};
use std::hint::black_box;

const SEED: u64 = 777;
const MIX_PERCENT: u32 = 70;
/// Re-arms per client after the bootstrap wake; every driver executes
/// exactly `n * (ROUNDS + 1)` wakes.
const ROUNDS: u32 = 3;

/// What one driver run cost: wakes delivered (must match across
/// drivers) and engine events dispatched to deliver them (must not).
#[derive(Clone, Copy, Debug)]
struct Cost {
    wakes: u64,
    events: u64,
}

/// Bootstrap deadline for client `i`: staggered over the first second,
/// mirroring the ramp-up window (and keeping wake order deterministic
/// without spending RNG draws the two paths would have to mirror).
fn stagger(i: u32, n: u32) -> SimTime {
    SimTime::from_nanos(1 + (u64::from(i) * 1_000_000_000) / u64::from(n))
}

// ---------------------------------------------------------------------
// Oracle driver: one engine event per client wake.
// ---------------------------------------------------------------------

struct OracleWorld {
    pop: ClientPopulation,
    rng: SimRng,
    remaining: Vec<u32>,
    wakes: u64,
}

fn oracle_wake(engine: &mut Engine<OracleWorld>, world: &mut OracleWorld, id: u64) {
    let id = id as u32;
    world.wakes += 1;
    world.pop.advance(id, &mut world.rng);
    let think = world.pop.think_time(id, &mut world.rng);
    let i = id as usize;
    if world.remaining[i] > 0 {
        world.remaining[i] -= 1;
        engine.schedule_in(think, oracle_wake, u64::from(id));
    }
}

fn drive_oracle(n: u32) -> Cost {
    let mut rng = SimRng::new(SEED);
    let mut world = OracleWorld {
        pop: ClientPopulation::new(n, WorkloadMix::percent_browsing(MIX_PERCENT), &mut rng),
        rng,
        remaining: vec![ROUNDS; n as usize],
        wakes: 0,
    };
    let mut engine: Engine<OracleWorld> = Engine::new();
    for id in 0..n {
        engine.schedule_at(stagger(id, n), oracle_wake, u64::from(id));
    }
    let events = engine.run(&mut world);
    Cost {
        wakes: world.wakes,
        events,
    }
}

// ---------------------------------------------------------------------
// Cohort driver: the production wheel-drain shape from core/workload.rs
// (same wheel geometry: 1 s buckets, 256 slots).
// ---------------------------------------------------------------------

struct CohortWorld {
    cohort: ClientCohort,
    wheel: TimerWheel,
    rng: SimRng,
    remaining: Vec<u32>,
    wakes: u64,
}

fn arm_wake(engine: &mut Engine<CohortWorld>, world: &mut CohortWorld, id: u32, at: SimTime) {
    if let Some((slot, deadline)) = world.wheel.arm(at, id, 0) {
        engine.schedule_at(deadline, cohort_fire, slot as u64);
    }
}

fn cohort_fire(engine: &mut Engine<CohortWorld>, world: &mut CohortWorld, slot: u64) {
    let slot = slot as usize;
    if !world.wheel.begin_fire(slot, engine.now()) {
        return;
    }
    loop {
        while let Some((id, _epoch)) = world.wheel.pop_due(slot, engine.now()) {
            world.wakes += 1;
            world.cohort.advance(id, &mut world.rng);
            let think = world.cohort.think_time(id, &mut world.rng);
            let i = id as usize;
            if world.remaining[i] > 0 {
                world.remaining[i] -= 1;
                let at = engine.now() + think;
                arm_wake(engine, world, id, at);
            }
        }
        let Some(next) = world.wheel.next_deadline(slot) else {
            return;
        };
        if engine.peek_next_time().map_or(true, |h| next < h) {
            engine.advance_now_to(next);
        } else {
            world.wheel.commit(slot, next);
            engine.schedule_at(next, cohort_fire, slot as u64);
            return;
        }
    }
}

fn drive_cohort(n: u32) -> Cost {
    let mut rng = SimRng::new(SEED);
    let mut world = CohortWorld {
        cohort: ClientCohort::new(n, WorkloadMix::percent_browsing(MIX_PERCENT), &mut rng),
        wheel: TimerWheel::new(SimDuration::from_secs(1), 256),
        rng,
        remaining: vec![ROUNDS; n as usize],
        wakes: 0,
    };
    let mut engine: Engine<CohortWorld> = Engine::new();
    for id in 0..n {
        let at = stagger(id, n);
        arm_wake(&mut engine, &mut world, id, at);
    }
    let events = engine.run(&mut world);
    Cost {
        wakes: world.wakes,
        events,
    }
}

// ---------------------------------------------------------------------
// Criterion groups.
// ---------------------------------------------------------------------

fn bench_generators(c: &mut Criterion) {
    for &n in &[1_000u32, 10_000, 100_000] {
        let name = format!("clients/{n}");
        let mut group = c.benchmark_group(&name);
        group.sample_size(5);
        group.bench_function("cohort", |b| {
            b.iter(|| black_box(drive_cohort(black_box(n)).wakes))
        });
        group.bench_function("oracle", |b| {
            b.iter(|| black_box(drive_oracle(black_box(n)).wakes))
        });
        group.finish();
    }
}

// ---------------------------------------------------------------------
// One-shot measurement used by --record and --smoke.
// ---------------------------------------------------------------------

struct Measurement {
    n: u32,
    cohort_ns: u128,
    oracle_ns: u128,
    cohort: Cost,
    oracle: Cost,
}

/// Best-of-`reps` wall time of each driver. The two drivers alternate
/// rep by rep, so a noisy stretch on a shared machine slows both sides
/// instead of landing on one of them.
fn measure(n: u32, reps: u32) -> Measurement {
    use std::time::Instant;
    let time = |f: fn(u32) -> Cost| {
        let t = Instant::now();
        let cost = black_box(f(black_box(n)));
        (t.elapsed().as_nanos(), cost)
    };
    // One untimed pass of each driver first: the first allocation-heavy
    // run on a cold heap pays page-fault warmup that would bias
    // whichever driver is measured first.
    black_box(drive_cohort(n));
    black_box(drive_oracle(n));
    let (mut cohort_ns, mut cohort) = time(drive_cohort);
    let (mut oracle_ns, mut oracle) = time(drive_oracle);
    for _ in 1..reps {
        let (ns, cost) = time(drive_cohort);
        cohort_ns = cohort_ns.min(ns);
        cohort = cost;
        let (ns, cost) = time(drive_oracle);
        oracle_ns = oracle_ns.min(ns);
        oracle = cost;
    }
    Measurement {
        n,
        cohort_ns,
        oracle_ns,
        cohort,
        oracle,
    }
}

fn record() {
    println!("{{");
    let scales = [1_000u32, 10_000, 100_000, 1_000_000];
    for (k, &n) in scales.iter().enumerate() {
        let reps = if n >= 1_000_000 { 2 } else { 3 };
        let m = measure(n, reps);
        assert_eq!(m.cohort.wakes, m.oracle.wakes, "wake counts diverged");
        let comma = if k + 1 < scales.len() { "," } else { "" };
        println!(
            "  \"{}\": {{ \"cohort_ns\": {}, \"oracle_ns\": {}, \"wall_speedup\": {:.2}, \
             \"wakes\": {}, \"cohort_events\": {}, \"oracle_events\": {}, \
             \"per_tick_sched_speedup\": {:.1} }}{comma}",
            m.n,
            m.cohort_ns,
            m.oracle_ns,
            m.oracle_ns as f64 / m.cohort_ns as f64,
            m.cohort.wakes,
            m.cohort.events,
            m.oracle.events,
            m.oracle.events as f64 / m.cohort.events as f64,
        );
    }
    println!("}}");
}

fn smoke() {
    let n = 100_000u32;
    let expect = u64::from(n) * u64::from(ROUNDS + 1);
    let m = measure(n, 5);

    // Equivalence first: both drivers deliver the same wakes from the
    // same RNG stream, so the comparison is apples-to-apples.
    assert_eq!(m.cohort.wakes, expect, "cohort wake count");
    assert_eq!(m.oracle.wakes, expect, "oracle wake count");

    let wall = m.oracle_ns as f64 / m.cohort_ns as f64;
    let sched = m.oracle.events as f64 / m.cohort.events as f64;
    println!(
        "clients smoke: {n} clients x {} wakes: cohort {} ns / {} events, \
         oracle {} ns / {} events ({wall:.2}x wall, {sched:.0}x per-tick scheduling)",
        ROUNDS + 1,
        m.cohort_ns,
        m.cohort.events,
        m.oracle_ns,
        m.oracle.events,
    );
    assert!(
        sched >= 10.0,
        "the wheel must dispatch >= 10x fewer generator events per tick \
         than the per-client oracle at 100k clients, got {sched:.1}x"
    );
    assert!(
        wall >= 0.9,
        "the cohort path must not regress wall-clock against the \
         per-client oracle at 100k clients (10% timer-noise tolerance), \
         got {wall:.2}x"
    );
    println!("clients smoke: PASS");
}

criterion_group!(client_benches, bench_generators);

fn main() {
    if std::env::args().any(|a| a == "--record") {
        record();
    } else if std::env::args().any(|a| a == "--smoke") {
        smoke();
    } else {
        client_benches();
    }
}
