//! Property-based tests for the simulation core.

use cloudchar_simcore::{round_u64, Dist, Engine, Sample, SimDuration, SimRng, SimTime, Welford};
use proptest::prelude::*;

/// Logs `(clock, arg)` for every event.
struct W {
    log: Vec<(u64, u64)>,
}

fn record(e: &mut Engine<W>, w: &mut W, arg: u64) {
    w.log.push((e.now().as_nanos(), arg));
}

/// `round_u64` agrees with the float rounding it replaces at the ties,
/// the largest double below 0.5, the integer-spacing thresholds, both
/// sides of 2⁶³ (where the signed fast path ends), the saturation bounds,
/// tiny and near-half negatives, and the non-finite values.
#[test]
fn round_u64_edge_cases() {
    let p52 = 2f64.powi(52);
    let cases = [
        0.0,
        -0.0,
        -0.5,
        -0.7,
        0.49999999999999994,
        0.5,
        1.5,
        2.5,
        p52 - 0.5,
        p52 + 0.5,
        p52 + 1.0,
        2f64.powi(53),
        2f64.powi(53) + 2.0,
        2f64.powi(63),
        2f64.powi(64) - 2048.0,
        2f64.powi(64),
        2f64.powi(65),
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
        2f64.powi(63) - 1024.0,
        2f64.powi(63) + 2048.0,
        -f64::MIN_POSITIVE,
        -0.49999999999999994,
    ];
    for x in cases {
        assert_eq!(
            round_u64(x),
            x.round() as u64,
            "x = {x:e} ({:#x})",
            x.to_bits()
        );
    }
}

proptest! {
    /// `round_u64(x) == x.round() as u64` for every bit pattern: NaNs,
    /// infinities, negatives, subnormals and the saturating range.
    #[test]
    fn round_u64_matches_float_round(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assert_eq!(round_u64(x), x.round() as u64, "x = {:e}", x);
    }

    /// The same over values with a fractional part, where the bit-pattern
    /// sweep rarely lands.
    #[test]
    fn round_u64_matches_float_round_on_fractions(x in -4.0f64..1e16) {
        prop_assert_eq!(round_u64(x), x.round() as u64, "x = {:e}", x);
        prop_assert_eq!(round_u64(x.floor() + 0.5), (x.floor() + 0.5).round() as u64);
    }

    /// Events always execute in (time, insertion) order, regardless of
    /// the order they were scheduled in.
    #[test]
    fn engine_executes_in_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut engine: Engine<W> = Engine::new();
        let mut world = W { log: Vec::new() };
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(t), record, i as u64);
        }
        engine.run(&mut world);
        prop_assert_eq!(world.log.len(), times.len());
        // Times non-decreasing; ties broken by insertion index.
        for pair in world.log.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0);
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1);
            }
        }
    }

    /// Splitting a run at an arbitrary deadline never changes the result.
    #[test]
    fn engine_run_until_split_invariant(
        times in proptest::collection::vec(0u64..1_000_000, 1..100),
        split in 0u64..1_000_000,
    ) {
        fn build(times: &[u64]) -> (Engine<W>, W) {
            let mut engine: Engine<W> = Engine::new();
            for &t in times {
                engine.schedule_at(SimTime::from_nanos(t), record, 0);
            }
            (engine, W { log: Vec::new() })
        }
        let (mut e1, mut w1) = build(&times);
        e1.run(&mut w1);
        let (mut e2, mut w2) = build(&times);
        e2.run_until(&mut w2, SimTime::from_nanos(split));
        e2.run(&mut w2);
        prop_assert_eq!(w1.log, w2.log);
    }

    /// All distributions produce finite, non-negative samples (except
    /// lognormal which is positive but may be large).
    #[test]
    fn distributions_sample_sanely(seed in any::<u64>(), mean in 0.001f64..1e6) {
        let mut rng = SimRng::new(seed);
        let dists = [
            Dist::Constant { value: mean },
            Dist::Uniform { lo: 0.0, hi: mean },
            Dist::Exponential { mean },
            Dist::Erlang { k: 4, mean },
            Dist::Normal { mean, std_dev: mean / 3.0 },
            Dist::Pareto { x_min: mean, alpha: 2.5 },
        ];
        for d in &dists {
            prop_assert!(d.validate().is_ok());
            for _ in 0..50 {
                let x = d.sample(&mut rng);
                prop_assert!(x.is_finite() && x >= 0.0, "{d:?} gave {x}");
            }
        }
    }

    /// Same seed, same stream — for any distribution.
    #[test]
    fn sampling_is_deterministic(seed in any::<u64>(), mean in 0.01f64..100.0) {
        let d = Dist::Erlang { k: 3, mean };
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    /// `below(n)` stays in range for arbitrary bounds.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// Welford merge is equivalent to sequential accumulation for any
    /// split point.
    #[test]
    fn welford_merge_associative(
        xs in proptest::collection::vec(-1e6f64..1e6, 2..200),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..split] {
            left.push(x);
        }
        for &x in &xs[split..] {
            right.push(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!(
            (left.variance() - whole.variance()).abs()
                < 1e-5 * (1.0 + whole.variance().abs())
        );
    }

    /// Time arithmetic round-trips and never goes negative.
    #[test]
    fn time_arithmetic(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let d = SimDuration::from_nanos(b);
        let t2 = t + d;
        prop_assert_eq!(t2 - t, d);
        prop_assert_eq!(t2.duration_since(t).as_nanos(), b);
        prop_assert_eq!(t.duration_since(t2), SimDuration::ZERO);
    }

    /// Named substreams are independent of derivation order.
    #[test]
    fn derive_order_independent(seed in any::<u64>()) {
        let root = SimRng::new(seed);
        let mut a1 = root.derive("alpha");
        let _b = root.derive("beta");
        let mut a2 = root.derive("alpha");
        for _ in 0..20 {
            prop_assert_eq!(a1.next_u64_raw(), a2.next_u64_raw());
        }
    }
}
