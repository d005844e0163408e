//! Property-based tests for the characterization analytics.

use cloudchar_analysis::fit::ks_distance;
use cloudchar_analysis::{
    aggregate_ratio, autocorrelation, best_fit, cross_correlation, cross_correlation_scan,
    detect_jumps, dominant_periods, find_lag, find_lag_naive, fit_all, goertzel_periodogram,
    mean_ratio, pearson, periodogram, summarize, FitResult, Fitted, SeriesScratch,
};
use proptest::prelude::*;

proptest! {
    /// Summary statistics respect their order relations on any data.
    #[test]
    fn summary_order_relations(xs in proptest::collection::vec(-1e9f64..1e9, 1..500)) {
        let s = summarize(&xs).unwrap();
        prop_assert!(s.min <= s.p50 + 1e-9);
        prop_assert!(s.p50 <= s.p95 + 1e-9);
        prop_assert!(s.p95 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.variance >= 0.0);
        prop_assert!((s.std_dev * s.std_dev - s.variance).abs() < 1e-6 * (1.0 + s.variance));
        prop_assert_eq!(s.n, xs.len());
    }

    /// Scaling data scales mean/std linearly and leaves CV invariant
    /// (for positive data and scale).
    #[test]
    fn summary_scale_equivariance(
        xs in proptest::collection::vec(0.1f64..1e4, 2..100),
        k in 0.1f64..100.0,
    ) {
        let a = summarize(&xs).unwrap();
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        let b = summarize(&scaled).unwrap();
        prop_assert!((b.mean - k * a.mean).abs() < 1e-6 * (1.0 + b.mean.abs()));
        prop_assert!((b.cv - a.cv).abs() < 1e-9 + 1e-6 * a.cv);
    }

    /// Pearson correlation is bounded and symmetric.
    #[test]
    fn pearson_bounded_and_symmetric(
        pairs in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 2..200),
    ) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&a, &b) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
            let r2 = pearson(&b, &a).unwrap();
            prop_assert!((r - r2).abs() < 1e-12);
        }
    }

    /// A series correlates perfectly with itself at lag zero.
    #[test]
    fn self_correlation_is_one(xs in proptest::collection::vec(-1e3f64..1e3, 3..100)) {
        // Skip constant series (undefined correlation).
        let constant = xs.windows(2).all(|w| w[0] == w[1]);
        if !constant {
            let r = autocorrelation(&xs, 0).unwrap();
            prop_assert!((r - 1.0).abs() < 1e-9, "r = {r}");
        }
    }

    /// find_lag recovers a known integer shift of a non-degenerate
    /// signal.
    #[test]
    fn lag_recovers_shift(shift in 0usize..8, freq in 3u32..40) {
        let n = 300;
        let base: Vec<f64> = (0..n + shift)
            .map(|i| (i as f64 / f64::from(freq)).sin() + 0.2 * (i as f64 / 17.0).cos())
            .collect();
        let leader = base[shift..].to_vec();
        let follower = base[..n].to_vec();
        let r = find_lag(&leader, &follower, 10).unwrap();
        prop_assert_eq!(r.lag_samples, shift as i64);
        prop_assert!(r.correlation > 0.99);
    }

    /// Jump detection: every reported jump exceeds the threshold, indices
    /// are sorted, and a constant series reports none.
    #[test]
    fn jumps_respect_threshold(
        levels in proptest::collection::vec((10usize..40, -1e4f64..1e4), 1..6),
        threshold in 1.0f64..1e4,
        window in 2usize..10,
    ) {
        let xs: Vec<f64> = levels
            .iter()
            .flat_map(|&(n, v)| std::iter::repeat(v).take(n))
            .collect();
        let jumps = detect_jumps(&xs, window, threshold);
        for j in &jumps {
            prop_assert!(j.magnitude.abs() >= threshold);
            prop_assert!(j.index >= window && j.index <= xs.len() - window);
        }
        for pair in jumps.windows(2) {
            prop_assert!(pair[0].index < pair[1].index);
        }
        let flat = vec![levels[0].1; 100];
        prop_assert!(detect_jumps(&flat, window, threshold).is_empty());
    }

    /// Ratios: aggregate and mean ratios agree for equal-length series
    /// and respect scaling.
    #[test]
    fn ratio_identities(
        xs in proptest::collection::vec(0.1f64..1e5, 2..100),
        k in 0.1f64..100.0,
    ) {
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        let agg = aggregate_ratio(&scaled, &xs).expect("positive denominator");
        let mean = mean_ratio(&scaled, &xs).expect("positive denominator");
        prop_assert!((agg - k).abs() < 1e-9 * (1.0 + k));
        prop_assert!((mean - k).abs() < 1e-9 * (1.0 + k));
    }

    /// The FFT periodogram matches the Goertzel oracle bin for bin
    /// within 1e-9 normalized (relative) power, on random series of
    /// arbitrary length — power-of-two and Bluestein paths alike.
    #[test]
    fn fft_periodogram_matches_goertzel_oracle(
        xs in proptest::collection::vec(-1e4f64..1e4, 8..400),
    ) {
        let fast = periodogram(&xs);
        let oracle = goertzel_periodogram(&xs);
        prop_assert_eq!(fast.len(), oracle.len());
        for (f, o) in fast.iter().zip(&oracle) {
            prop_assert_eq!(f.period_samples, o.period_samples);
            prop_assert!(
                (f.power - o.power).abs() < 1e-9,
                "period {}: fft {} vs goertzel {}", f.period_samples, f.power, o.power
            );
        }
    }

    /// Ranked dominant periods agree with ranking the Goertzel oracle's
    /// spectrum: same periods in the same order.
    #[test]
    fn dominant_periods_match_goertzel_ranking(
        xs in proptest::collection::vec(-1e3f64..1e3, 8..200),
        min_power in 0.02f64..0.3,
    ) {
        let fast = dominant_periods(&xs, min_power, 5);
        let mut oracle = goertzel_periodogram(&xs);
        oracle.retain(|p| p.power >= min_power);
        oracle.sort_by(|a, b| b.power.total_cmp(&a.power));
        oracle.truncate(5);
        // Peaks within 1e-9 of the cutoff may legitimately differ; skip
        // those borderline cases.
        let borderline = oracle
            .iter()
            .chain(fast.iter())
            .any(|p| (p.power - min_power).abs() < 1e-9);
        if !borderline {
            prop_assert_eq!(fast.len(), oracle.len());
            for (f, o) in fast.iter().zip(&oracle) {
                prop_assert_eq!(f.period_samples, o.period_samples);
            }
        }
    }

    /// The prefix-sum cross-correlation scan equals the naive per-shift
    /// Pearson at every shift, including on large-mean series.
    #[test]
    fn scan_equals_naive_pearson_at_every_shift(
        pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..150),
        offset in -1e6f64..1e6,
        max_lag in 0usize..20,
    ) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0 + offset).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1 + offset).collect();
        let scan = cross_correlation_scan(&a, &b, max_lag);
        prop_assert_eq!(scan.len(), 2 * max_lag + 1);
        for (shift, got) in scan {
            let want = cross_correlation(&a, &b, shift);
            match (got, want) {
                (Some(g), Some(w)) => prop_assert!(
                    (g - w).abs() < 1e-9,
                    "shift {}: scan {} vs naive {}", shift, g, w
                ),
                (g, w) => prop_assert_eq!(g.is_some(), w.is_some(), "shift {}", shift),
            }
        }
        // And the peak pick agrees with the naive scan.
        let fast = find_lag(&a, &b, max_lag);
        let naive = find_lag_naive(&a, &b, max_lag);
        match (fast, naive) {
            (Some(f), Some(n)) => {
                prop_assert_eq!(f.lag_samples, n.lag_samples);
                prop_assert!((f.correlation - n.correlation).abs() < 1e-9);
            }
            (f, n) => prop_assert_eq!(f.is_some(), n.is_some()),
        }
    }

    /// Distribution fitting returns sorted, finite KS distances and at
    /// least the normal+uniform candidates for positive data.
    #[test]
    fn fitting_is_well_formed(xs in proptest::collection::vec(0.1f64..1e4, 8..300)) {
        let fits = fit_all(&xs);
        prop_assert!(fits.len() >= 2);
        for f in &fits {
            prop_assert!(f.ks.is_finite() && f.ks >= 0.0 && f.ks <= 1.0 + 1e-9);
        }
        for pair in fits.windows(2) {
            prop_assert!(pair[0].ks <= pair[1].ks);
        }
    }

    /// The pruned ranking picks exactly the winner of the full ranking,
    /// bit for bit, on series with heavy ties, negatives, all-positive
    /// values and mixed signed zeros.
    #[test]
    fn best_fit_is_the_full_ranking_winner(
        codes in proptest::collection::vec((0usize..8, -50f64..50.0), 0..80),
    ) {
        // Shape 4 repeats one palette value: a constant series, where the
        // degenerate families tie at KS 1.0.
        let k0 = codes.first().map_or(0, |c| c.0);
        for shape in 0..5 {
            let xs: Vec<f64> = codes
                .iter()
                .map(|&(k, u)| if shape == 4 { tie_heavy(0, k0, u) } else { tie_heavy(shape, k, u) })
                .collect();
            prop_assert_eq!(
                fit_bits(best_fit(&xs)),
                fit_bits(fit_all(&xs).first().copied()),
                "shape {}: {:?}",
                shape,
                xs
            );
        }
    }

    /// Evaluating the CDF once per run of equal samples gives the KS
    /// distance of the per-sample loop, bit for bit, for every family.
    #[test]
    fn run_grouped_ks_matches_the_per_sample_loop(
        codes in proptest::collection::vec((0usize..8, -50f64..50.0), 8..80),
    ) {
        for shape in 0..4 {
            let mut xs: Vec<f64> = codes.iter().map(|&(k, u)| tie_heavy(shape, k, u)).collect();
            let fits = fit_all(&xs);
            xs.sort_by(f64::total_cmp);
            for f in &fits {
                prop_assert_eq!(
                    ks_distance(&xs, &f.dist).to_bits(),
                    ks_per_sample(&xs, &f.dist).to_bits(),
                    "shape {}: {:?} on {:?}",
                    shape,
                    f.dist,
                    xs
                );
            }
        }
    }
}

/// The KS distance as one CDF evaluation per sample: the oracle for the
/// run-grouped `ks_distance`.
fn ks_per_sample(sorted: &[f64], dist: &Fitted) -> f64 {
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let f = dist.cdf(x);
        d = d
            .max((f - i as f64 / n).abs())
            .max((f - (i + 1) as f64 / n).abs());
    }
    d
}

/// One sample of a generated series: `k` picks from a small palette so
/// values repeat, `u` is a continuous draw.
fn tie_heavy(shape: usize, k: usize, u: f64) -> f64 {
    match shape {
        // Few distinct values: signed zeros, negatives, positives.
        0 => [0.0, -0.0, 1.0, 2.5, -3.0, 7.0, 1e-3, 100.0][k],
        // All positive, half of the samples on a 4-value grid.
        1 if k < 4 => (k + 1) as f64 * 0.25,
        1 => u.abs() + 0.01,
        // Signed continuous values with signed zeros mixed in.
        2 => match k {
            0 => 0.0,
            1 => -0.0,
            _ => u,
        },
        // Signed zeros among non-negative integers.
        _ if k < 4 => {
            if k % 2 == 0 {
                0.0
            } else {
                -0.0
            }
        }
        _ => u.abs().round(),
    }
}

/// A fit as raw bits: family tag, parameters and KS distance.
fn fit_bits(fit: Option<FitResult>) -> Option<[u64; 4]> {
    fit.map(|f| {
        let (tag, a, b) = match f.dist {
            Fitted::Normal { mean, std_dev } => (0, mean, std_dev),
            Fitted::Uniform { lo, hi } => (1, lo, hi),
            Fitted::Exponential { mean } => (2, mean, 0.0),
            Fitted::LogNormal { mu, sigma } => (3, mu, sigma),
        };
        [tag, a.to_bits(), b.to_bits(), f.ks.to_bits()]
    })
}

#[test]
fn all_zero_series_keeps_normal_on_the_ks_tie() {
    // Normal(0, 0) and Uniform(0, 0) both step to 1 at zero: KS 1.0
    // each. The full ranking's stable sort keeps Normal first, and so
    // must the pruned ranking.
    let xs = [0.0; 16];
    let all = fit_all(&xs);
    assert_eq!(all.len(), 2);
    assert_eq!(all[0].ks, all[1].ks);
    let best = best_fit(&xs).expect("16 samples fit");
    assert!(matches!(best.dist, Fitted::Normal { .. }), "{best:?}");
    assert_eq!(best.ks, 1.0);
    assert_eq!(fit_bits(Some(best)), fit_bits(all.first().copied()));
}

#[test]
fn constant_positive_series_matches_the_full_ranking() {
    // Normal, Uniform and LogNormal degenerate to a step (KS 1.0);
    // Exponential wins with 1 - e^-1.
    let xs = [3.5; 20];
    let best = best_fit(&xs).expect("20 samples fit");
    assert!(matches!(best.dist, Fitted::Exponential { .. }), "{best:?}");
    assert_eq!(
        fit_bits(Some(best)),
        fit_bits(fit_all(&xs).first().copied())
    );
}

proptest! {
    /// The scratch's lag-1 autocorrelation (read from the co-moments of
    /// the load pass) and its lag-2 one (a fresh pass) equal the free
    /// function bit for bit, on series with signed zeros, repeats and
    /// non-finite samples.
    #[test]
    fn scratch_autocorrelation_matches_free_function_bit_for_bit(
        raw in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        let xs: Vec<f64> = raw
            .iter()
            .map(|&b| match b % 20 {
                0 => -0.0,
                1 => 0.0,
                2 => f64::NAN,
                3 => f64::INFINITY,
                4..=9 => (b % 5) as f64,
                _ => (b >> 11) as f64 / (1u64 << 50) as f64 - 4.0,
            })
            .collect();
        let mut scratch = SeriesScratch::new();
        scratch.load(&xs);
        for k in [0, 1, 2] {
            let got = scratch.autocorrelation(k).map(f64::to_bits);
            let want = autocorrelation(&xs, k).map(f64::to_bits);
            prop_assert_eq!(got, want, "lag {}", k);
        }
    }
}
