//! Moment-based distribution fitting.
//!
//! The paper's future work proposes "formal methods to model the
//! workload dynamics"; its §4.1 already notes the per-resource curves
//! follow identifiable distributions. This module fits candidate
//! families by matching moments and ranks them with a
//! Kolmogorov–Smirnov distance, providing the "quantified by formal
//! models" step.

use serde::{Deserialize, Serialize};

/// A fitted distribution family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fitted {
    /// Normal(μ, σ).
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Exponential with mean `mean`.
    Exponential {
        /// Mean (1/λ).
        mean: f64,
    },
    /// LogNormal with underlying (μ, σ).
    LogNormal {
        /// Underlying normal mean.
        mu: f64,
        /// Underlying normal std-dev.
        sigma: f64,
    },
    /// Uniform(lo, hi).
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl Fitted {
    /// CDF of the fitted distribution at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        match *self {
            Fitted::Normal { mean, std_dev } => {
                if std_dev <= 0.0 {
                    return if x >= mean { 1.0 } else { 0.0 };
                }
                0.5 * (1.0 + erf((x - mean) / (std_dev * std::f64::consts::SQRT_2)))
            }
            Fitted::Exponential { mean } => {
                if x <= 0.0 || mean <= 0.0 {
                    0.0
                } else {
                    1.0 - (-x / mean).exp()
                }
            }
            Fitted::LogNormal { mu, sigma } => {
                if x <= 0.0 {
                    return 0.0;
                }
                if sigma <= 0.0 {
                    return if x.ln() >= mu { 1.0 } else { 0.0 };
                }
                0.5 * (1.0 + erf((x.ln() - mu) / (sigma * std::f64::consts::SQRT_2)))
            }
            Fitted::Uniform { lo, hi } => {
                if hi <= lo {
                    return if x >= lo { 1.0 } else { 0.0 };
                }
                ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
            }
        }
    }
}

/// Abramowitz–Stegun 7.1.26 approximation of the error function
/// (|error| < 1.5e-7, ample for fit ranking).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Result of fitting one family to data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitResult {
    /// The fitted distribution.
    pub dist: Fitted,
    /// Kolmogorov–Smirnov distance to the empirical CDF.
    pub ks: f64,
}

/// KS distance between data and a fitted CDF.
pub fn ks_distance(sorted: &[f64], dist: &Fitted) -> f64 {
    let mut starts = Vec::new();
    run_starts_into(sorted, &mut starts);
    // The distance never exceeds 1, so an infinite bound never stops it.
    ks_distance_below(
        sorted,
        &starts,
        |x| dist.cdf(x),
        f64::INFINITY,
        &mut Vec::new(),
    )
    .unwrap_or(f64::INFINITY)
}

/// The first index of every run of bit-equal values in `sorted`, then
/// `sorted.len()`, into `starts`: run `r` spans `starts[r]..starts[r + 1]`.
pub(crate) fn run_starts_into(sorted: &[f64], starts: &mut Vec<usize>) {
    starts.clear();
    let mut prev = None;
    for (i, x) in sorted.iter().enumerate() {
        let bits = x.to_bits();
        if prev != Some(bits) {
            starts.push(i);
            prev = Some(bits);
        }
    }
    starts.push(sorted.len());
}

/// Room a computed CDF may lose to rounding between two points, far
/// above it (the computed CDFs are monotone to within about 1e-15; a
/// unit test checks 1e-13) and far below any KS distance that decides
/// a ranking. A fixed constant of the proof, not a tuning knob.
const MONOTONE_SLACK: f64 = 1e-12;

/// Runs between two evaluated runs of the coarse pass.
const COARSE_STEP: usize = 4;

/// The KS scan over one sorted sample and one CDF, with the runs it
/// has evaluated folded into `d`.
struct KsScan<'a, C> {
    sorted: &'a [f64],
    starts: &'a [usize],
    n: f64,
    cdf: C,
    d: f64,
    bound: f64,
}

impl<C: Fn(f64) -> f64> KsScan<'_, C> {
    /// Run `r`'s CDF value, after folding its two terms into `d`;
    /// `None` once `d` reaches the bound.
    fn eval(&mut self, r: usize) -> Option<f64> {
        let f = (self.cdf)(self.sorted[self.starts[r]]);
        let lo = self.starts[r] as f64 / self.n;
        let hi = self.starts[r + 1] as f64 / self.n;
        self.d = self.d.max((f - lo).abs()).max((f - hi).abs());
        (self.d < self.bound).then_some(f)
    }

    /// Evaluate the runs strictly between runs `i` and `j` (CDF values
    /// `fi`, `fj`) that can still raise `d`, bisecting the gap.
    ///
    /// A run `r` in the gap has `F_i ≤ F_r ≤ F_j`, starts at or after
    /// run `i`'s end `b_i` and ends at or before run `j`'s start `a_j`.
    /// Its terms are at most `max(F_r − a_r/n, b_r/n − F_r)`, hence at
    /// most `max(F_j − b_i/n, a_j/n − F_i)`; rounding is monotone, so
    /// the computed terms obey the computed bound up to the CDF's own
    /// non-monotonicity, which the slack covers. A gap whose bound is
    /// below `d` holds no term that could change the maximum. A NaN
    /// end fails both comparisons, so its gap is always searched.
    fn gap(&mut self, i: usize, fi: f64, j: usize, fj: f64) -> Option<()> {
        if j - i < 2 {
            return Some(());
        }
        let up = fj - self.starts[i + 1] as f64 / self.n + MONOTONE_SLACK;
        let down = self.starts[j] as f64 / self.n - fi + MONOTONE_SLACK;
        if up < self.d && down < self.d {
            return Some(());
        }
        let m = i + (j - i) / 2;
        let fm = self.eval(m)?;
        self.gap(i, fi, m, fm)?;
        self.gap(m, fm, j, fj)
    }
}

/// KS distance of a CDF to the sorted sample whose runs of bit-equal
/// values start at `starts` (see [`run_starts_into`]), or `None` as
/// soon as the running distance reaches `bound`: it only grows, so
/// such a fit can at best tie with `bound`.
///
/// The CDF is evaluated once per run. Within a run at indices `a..b`
/// the terms are `|F(x) − k/n|` for `k` in `a..=b`; `k/n` and the
/// rounded difference are both monotone in `k`, so the largest term
/// sits at `k = a` or `k = b` and the per-run terms hold the maximum
/// the per-sample loop finds, bit for bit.
///
/// Not every run is evaluated. A coarse pass takes every
/// [`COARSE_STEP`]th run and the last one, keeping their CDF values in
/// `coarse`; then each gap between neighbours is bisected only while
/// its bound (see `KsScan::gap`) can still reach the running maximum.
/// A skipped run's terms are below that maximum, so the result is the
/// full per-run scan's, bit for bit.
fn ks_distance_below(
    sorted: &[f64],
    starts: &[usize],
    cdf: impl Fn(f64) -> f64,
    bound: f64,
    coarse: &mut Vec<f64>,
) -> Option<f64> {
    let runs = starts.len() - 1;
    let mut scan = KsScan {
        sorted,
        starts,
        n: sorted.len() as f64,
        cdf,
        d: 0.0,
        bound,
    };
    coarse.clear();
    let last = runs.saturating_sub(1);
    for r in (0..runs).step_by(COARSE_STEP) {
        coarse.push(scan.eval(r)?);
    }
    if runs > 0 && last % COARSE_STEP != 0 {
        coarse.push(scan.eval(last)?);
    }
    for (c, pair) in coarse.windows(2).enumerate() {
        let i = c * COARSE_STEP;
        let j = (i + COARSE_STEP).min(last);
        scan.gap(i, pair[0], j, pair[1])?;
    }
    Some(scan.d)
}

/// Sorted copy, mean and population variance of an all-finite series
/// of at least 8 samples; `None` otherwise (moments would be
/// meaningless).
fn prepare(xs: &[f64]) -> Option<(Vec<f64>, f64, f64)> {
    if xs.len() < 8 || xs.iter().any(|x| !x.is_finite()) {
        return None;
    }
    let n = xs.len() as f64;
    // Summed from +0.0 like `Moments::sum` (`Iterator::sum` starts at
    // -0.0), so an all-(-0.0) series fits the same mean as the scratch.
    let mean = xs.iter().fold(0.0, |acc, x| acc + x) / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let mut sorted: Vec<f64> = xs.to_vec();
    crate::summary::sort_total(&mut sorted);
    Some((sorted, mean, var))
}

/// Fit all candidate families by moments and rank by KS distance
/// (best first). Returns an empty vector for fewer than 8 samples or
/// when any sample is non-finite (moments would be meaningless).
pub fn fit_all(xs: &[f64]) -> Vec<FitResult> {
    let Some((sorted, mean, var)) = prepare(xs) else {
        return Vec::new();
    };
    let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
    let mut results: Vec<FitResult> = candidates(lo, hi, mean, var)
        .map(|dist| FitResult {
            dist,
            ks: ks_distance(&sorted, &dist),
        })
        .collect();
    // Stable: on a KS tie the earlier candidate ranks first.
    results.sort_by(|a, b| a.ks.total_cmp(&b.ks));
    results
}

/// The families ranked ahead of the LogNormal, in ranking order. Their
/// CDFs read the data only through ratios such as `(x − μ)/σ` and
/// `x/mean`, so multiplying the sample by a power of two leaves every
/// computed CDF value, and so every KS distance, unchanged as long as
/// nothing leaves the normal range. The LogNormal's `μ` takes `ln` of
/// the mean, which does not commute with the scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MomentFamily {
    Normal,
    Uniform,
    Exponential,
}

impl MomentFamily {
    const ALL: [MomentFamily; 3] = [
        MomentFamily::Normal,
        MomentFamily::Uniform,
        MomentFamily::Exponential,
    ];

    /// Whether the family's support admits data with this minimum and
    /// mean.
    fn admits(self, lo: f64, mean: f64) -> bool {
        match self {
            MomentFamily::Normal | MomentFamily::Uniform => true,
            MomentFamily::Exponential => mean > 0.0 && lo >= 0.0,
        }
    }

    /// The family moment-matched to a sample with these extremes, mean
    /// and population variance.
    fn fit(self, lo: f64, hi: f64, mean: f64, var: f64) -> Fitted {
        match self {
            MomentFamily::Normal => Fitted::Normal {
                mean,
                std_dev: var.sqrt(),
            },
            MomentFamily::Uniform => Fitted::Uniform { lo, hi },
            MomentFamily::Exponential => Fitted::Exponential { mean },
        }
    }
}

/// The LogNormal moment-matched to positive data: σ² = ln(1 + var/mean²).
fn lognormal(mean: f64, var: f64) -> Fitted {
    let sigma2 = (1.0 + var / (mean * mean)).ln();
    Fitted::LogNormal {
        mu: mean.ln() - sigma2 / 2.0,
        sigma: sigma2.sqrt(),
    }
}

/// The candidate families moment-matched to an all-finite sample of at
/// least 8 values, in ranking order: Normal, Uniform, then Exponential
/// and LogNormal where their support admits the data.
fn candidates(lo: f64, hi: f64, mean: f64, var: f64) -> impl Iterator<Item = Fitted> {
    let moment = MomentFamily::ALL
        .into_iter()
        .filter(move |family| family.admits(lo, mean))
        .map(move |family| family.fit(lo, hi, mean, var));
    moment.chain((lo > 0.0).then(|| lognormal(mean, var)))
}

/// The winner among the [`MomentFamily`] candidates and its KS
/// distance: the part of the ranking a power-of-two scale leaves alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MomentWinner {
    family: MomentFamily,
    ks: f64,
}

/// Rank the [`MomentFamily`] candidates of a sorted, all-finite sample
/// of at least 8 values (runs at `starts`) with its mean and population
/// variance. A later family stops being scored once its running KS
/// distance reaches the best so far: at `>=` it can at most tie, and a
/// tie keeps the earlier family, as the stable sort in [`fit_all`]
/// does.
pub(crate) fn moment_winner(
    sorted: &[f64],
    starts: &[usize],
    mean: f64,
    var: f64,
    coarse: &mut Vec<f64>,
) -> MomentWinner {
    let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
    let mut best = MomentWinner {
        family: MomentFamily::Normal,
        ks: f64::INFINITY,
    };
    for family in MomentFamily::ALL {
        if !family.admits(lo, mean) {
            continue;
        }
        let dist = family.fit(lo, hi, mean, var);
        if let Some(ks) = ks_distance_below(sorted, starts, |x| dist.cdf(x), best.ks, coarse) {
            best = MomentWinner { family, ks };
        }
    }
    best
}

/// The winner of the full ranking for `scale ·` the sample that
/// [`moment_winner`] ranked (`mean` and `var` are the unscaled sample's
/// moments): the moment winner refitted to the scaled moments with its
/// KS distance kept, then challenged by the LogNormal fitted to the
/// scaled moments and scored on the scaled sample.
///
/// At `scale = 1` this is the ranking itself. Any other `scale` must be
/// a power of two under which every sample, the mean and the variance
/// stay normal; the winner and its distance then hold for the scaled
/// sample, bit for bit, and only the LogNormal needs a new score.
pub(crate) fn winner_at_scale(
    sorted: &[f64],
    starts: &[usize],
    winner: MomentWinner,
    scale: f64,
    mean: f64,
    var: f64,
    coarse: &mut Vec<f64>,
) -> FitResult {
    let lo = sorted[0] * scale;
    let hi = sorted[sorted.len() - 1] * scale;
    let mean = mean * scale;
    let var = var * scale * scale;
    let best = FitResult {
        dist: winner.family.fit(lo, hi, mean, var),
        ks: winner.ks,
    };
    if lo <= 0.0 {
        return best;
    }
    let dist = lognormal(mean, var);
    match ks_distance_below(sorted, starts, |x| dist.cdf(x * scale), best.ks, coarse) {
        Some(ks) => FitResult { dist, ks },
        None => best,
    }
}

/// The winner of [`fit_all`]'s ranking from a pre-sorted, all-finite
/// copy with its mean and population variance already computed,
/// without scoring the families that have already lost.
fn best_sorted(sorted: &[f64], mean: f64, var: f64) -> Option<FitResult> {
    if sorted.len() < 8 {
        return None;
    }
    let mut starts = Vec::new();
    run_starts_into(sorted, &mut starts);
    let mut coarse = Vec::new();
    let winner = moment_winner(sorted, &starts, mean, var, &mut coarse);
    Some(winner_at_scale(
        sorted,
        &starts,
        winner,
        1.0,
        mean,
        var,
        &mut coarse,
    ))
}

/// Fit and return the best family: the first entry of [`fit_all`],
/// without scoring the families that have already lost.
pub fn best_fit(xs: &[f64]) -> Option<FitResult> {
    let (sorted, mean, var) = prepare(xs)?;
    best_sorted(&sorted, mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn exp_samples(mean: f64, n: usize, seed: u64) -> Vec<f64> {
        // Local deterministic LCG: analysis must not depend on simcore.
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = ((state >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                -mean * u.ln()
            })
            .collect()
    }

    fn normal_samples(mu: f64, sigma: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 + 1.0) / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let u1 = next();
                let u2 = next();
                mu + sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            })
            .collect()
    }

    #[test]
    fn erf_reference_points() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007).abs() < 1e-5);
        assert!(erf(4.0) > 0.99999);
    }

    #[test]
    fn cdf_sanity() {
        let n = Fitted::Normal {
            mean: 0.0,
            std_dev: 1.0,
        };
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-7);
        assert!(n.cdf(3.0) > 0.99);
        let e = Fitted::Exponential { mean: 2.0 };
        assert_eq!(e.cdf(-1.0), 0.0);
        assert!((e.cdf(2.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        let u = Fitted::Uniform { lo: 0.0, hi: 10.0 };
        assert_eq!(u.cdf(5.0), 0.5);
        assert_eq!(u.cdf(20.0), 1.0);
    }

    #[test]
    fn exponential_data_fits_exponential_best() {
        let xs = exp_samples(5.0, 4000, 7);
        let best = best_fit(&xs).unwrap();
        assert!(
            matches!(best.dist, Fitted::Exponential { .. }),
            "best was {:?}",
            best.dist
        );
        assert!(best.ks < 0.05, "ks {}", best.ks);
    }

    #[test]
    fn normal_data_fits_normal_best() {
        let xs = normal_samples(100.0, 5.0, 4000, 11);
        let best = best_fit(&xs).unwrap();
        assert!(
            matches!(best.dist, Fitted::Normal { .. } | Fitted::LogNormal { .. }),
            "best was {:?}",
            best.dist
        );
        // A tight normal far from zero: lognormal ≈ normal, both fine.
        assert!(best.ks < 0.05, "ks {}", best.ks);
    }

    #[test]
    fn too_few_samples_yields_nothing() {
        assert!(fit_all(&[1.0, 2.0, 3.0]).is_empty());
        assert!(best_fit(&[]).is_none());
    }

    #[test]
    fn non_finite_samples_yield_nothing() {
        let mut xs = vec![1.0; 16];
        xs[7] = f64::NAN;
        assert!(fit_all(&xs).is_empty());
        xs[7] = f64::INFINITY;
        assert!(fit_all(&xs).is_empty());
        assert!(best_fit(&xs).is_none());
    }

    /// The per-run KS scan with no skipped runs and no bound: the
    /// oracle for the bounded scan.
    fn ks_every_run(sorted: &[f64], dist: &Fitted) -> f64 {
        let n = sorted.len() as f64;
        let mut d: f64 = 0.0;
        let mut a = 0;
        while a < sorted.len() {
            let mut b = a + 1;
            while b < sorted.len() && sorted[b].to_bits() == sorted[a].to_bits() {
                b += 1;
            }
            let f = dist.cdf(sorted[a]);
            d = d
                .max((f - a as f64 / n).abs())
                .max((f - b as f64 / n).abs());
            a = b;
        }
        d
    }

    /// A sorted sample with heavy ties: `codes` pick from a palette of
    /// `palette` values on a grid of `step`, offset by `shift`; a code
    /// past the palette is a continuous draw, zeros of both signs are
    /// mixed in.
    fn tied_sample(codes: &[(u16, f64)], palette: u16, step: f64, shift: f64) -> Vec<f64> {
        let mut xs: Vec<f64> = codes
            .iter()
            .map(|&(code, u)| match code % (palette + 3) {
                c if c < palette => shift + step * f64::from(c),
                c if c == palette => 0.0,
                c if c == palette + 1 => -0.0,
                _ => shift + u * step * f64::from(palette),
            })
            .collect();
        crate::summary::sort_total(&mut xs);
        xs
    }

    proptest! {
        /// The bounded scan returns the every-run distance bit for bit
        /// below its bound and `None` at or above it, for all four
        /// families, and `best_sorted` picks the winner of the ranking
        /// scored by the every-run scan.
        #[test]
        fn bounded_scan_matches_every_run(
            codes in proptest::collection::vec((any::<u16>(), 0f64..1.0), 8..600),
            palette in 1u16..200,
            step in 0.001f64..50.0,
            shift in -100f64..100.0,
        ) {
            for shift in [shift, 0.0, 1.0] {
                let sorted = tied_sample(&codes, palette, step, shift);
                let n = sorted.len() as f64;
                let mean = sorted.iter().fold(0.0, |acc, x| acc + x) / n;
                let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
                let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
                let mut starts = Vec::new();
                run_starts_into(&sorted, &mut starts);
                let mut coarse = Vec::new();
                let mut want: Option<FitResult> = None;
                for dist in candidates(lo, hi, mean, var) {
                    let full = ks_every_run(&sorted, &dist);
                    let cdf = |x| dist.cdf(x);
                    let above = f64::from_bits(full.to_bits() + 1);
                    for (bound, expect) in [
                        (f64::INFINITY, Some(full)),
                        (above, Some(full)),
                        (full, None),
                        (full * 0.5, None),
                    ] {
                        let got = ks_distance_below(&sorted, &starts, cdf, bound, &mut coarse);
                        prop_assert_eq!(
                            got.map(f64::to_bits),
                            expect.map(f64::to_bits),
                            "{:?} at bound {}",
                            dist,
                            bound
                        );
                    }
                    if want.map_or(true, |w| full < w.ks) {
                        want = Some(FitResult { dist, ks: full });
                    }
                }
                let got = best_sorted(&sorted, mean, var);
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            }
        }
    }

    /// The bounded scan may skip a run only because every computed CDF
    /// is monotone to within its slack. Check each family over dense
    /// grids, runs of consecutive floats, and the tails where `erf` and
    /// `exp` saturate.
    #[test]
    fn computed_cdfs_are_monotone_within_the_slack() {
        let dists = [
            Fitted::Normal {
                mean: 0.0,
                std_dev: 1.0,
            },
            Fitted::Normal {
                mean: 1e6,
                std_dev: 3e-3,
            },
            Fitted::Exponential { mean: 1.0 },
            Fitted::Exponential { mean: 7e-5 },
            Fitted::LogNormal {
                mu: 0.0,
                sigma: 0.5,
            },
            Fitted::LogNormal {
                mu: 12.0,
                sigma: 2.5,
            },
            Fitted::Uniform { lo: -3.0, hi: 5.0 },
        ];
        let check = |dist: &Fitted, xs: &mut dyn Iterator<Item = f64>| {
            let mut prev: Option<(f64, f64)> = None;
            for x in xs {
                let f = dist.cdf(x);
                if let Some((px, pf)) = prev {
                    assert!(
                        f >= pf - 1e-13,
                        "{dist:?}: cdf({x:e}) = {f:e} < cdf({px:e}) = {pf:e}"
                    );
                }
                prev = Some((x, f));
            }
        };
        for dist in &dists {
            let (center, width) = match *dist {
                Fitted::Normal { mean, std_dev } => (mean, std_dev),
                Fitted::Exponential { mean } => (mean, mean),
                Fitted::LogNormal { mu, sigma } => (mu.exp(), mu.exp() * sigma),
                Fitted::Uniform { lo, hi } => ((lo + hi) / 2.0, hi - lo),
            };
            // Forty widths either side, 200,000 points: erf saturates
            // at about six.
            let grid = 200_000;
            check(
                dist,
                &mut (0..=grid).map(|i| center + width * (80.0 * i as f64 / grid as f64 - 40.0)),
            );
            // Geometric grid over the positive axis.
            check(
                dist,
                &mut (-3000..=3000).map(|i| 10f64.powf(i as f64 / 100.0)),
            );
            // Runs of consecutive floats around points of the grid.
            for z in [-8.0, -5.9, -3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 2.5, 5.9, 8.0] {
                let start = center + width * z;
                let mut x = start;
                check(
                    dist,
                    &mut std::iter::from_fn(|| {
                        let at = x;
                        x = if x == 0.0 {
                            f64::from_bits(1)
                        } else if x > 0.0 {
                            f64::from_bits(x.to_bits() + 1)
                        } else {
                            f64::from_bits(x.to_bits() - 1)
                        };
                        Some(at)
                    })
                    .take(20_000),
                );
            }
        }
    }

    #[test]
    fn results_sorted_by_ks() {
        let xs = exp_samples(1.0, 1000, 3);
        let all = fit_all(&xs);
        assert!(all.len() >= 3);
        for w in all.windows(2) {
            assert!(w[0].ks <= w[1].ks);
        }
    }
}
