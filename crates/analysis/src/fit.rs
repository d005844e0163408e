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
    // The distance never exceeds 1, so an infinite bound never stops it.
    ks_distance_below(sorted, dist, f64::INFINITY).unwrap_or(f64::INFINITY)
}

/// KS distance of `dist` to the sorted sample, or `None` as soon as the
/// running distance reaches `bound`: it only grows, so such a fit can
/// at best tie with `bound`.
///
/// The CDF is evaluated once per run of bit-equal samples. Within a run
/// at indices `a..b` the terms are `|F(x) − k/n|` for `k` in `a..=b`;
/// `k/n` and the rounded difference are both monotone in `k`, so the
/// largest term sits at `k = a` or `k = b` and the maximum is the one
/// the per-sample loop finds, bit for bit.
fn ks_distance_below(sorted: &[f64], dist: &Fitted, bound: f64) -> Option<f64> {
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    let mut a = 0;
    while a < sorted.len() {
        let bits = sorted[a].to_bits();
        let mut b = a + 1;
        while b < sorted.len() && sorted[b].to_bits() == bits {
            b += 1;
        }
        let f = dist.cdf(sorted[a]);
        let lo = a as f64 / n;
        let hi = b as f64 / n;
        d = d.max((f - lo).abs()).max((f - hi).abs());
        if d >= bound {
            return None;
        }
        a = b;
    }
    Some(d)
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
    let mut results: Vec<FitResult> = candidates(&sorted, mean, var)
        .map(|dist| FitResult {
            dist,
            ks: ks_distance(&sorted, &dist),
        })
        .collect();
    // Stable: on a KS tie the earlier candidate ranks first.
    results.sort_by(|a, b| a.ks.total_cmp(&b.ks));
    results
}

/// The candidate families moment-matched to a sorted, all-finite sample
/// of at least 8 values, in ranking order: Normal, Uniform, then
/// Exponential and LogNormal where their support admits the data.
fn candidates(sorted: &[f64], mean: f64, var: f64) -> impl Iterator<Item = Fitted> {
    let std = var.sqrt();
    let lo = sorted[0];
    let hi = sorted[sorted.len() - 1];
    let exponential = (mean > 0.0 && lo >= 0.0).then_some(Fitted::Exponential { mean });
    let lognormal = (lo > 0.0).then(|| {
        // Moment-match the lognormal: σ² = ln(1 + var/mean²).
        let sigma2 = (1.0 + var / (mean * mean)).ln();
        Fitted::LogNormal {
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    });
    [
        Some(Fitted::Normal { mean, std_dev: std }),
        Some(Fitted::Uniform { lo, hi }),
        exponential,
        lognormal,
    ]
    .into_iter()
    .flatten()
}

/// The winner of [`fit_all`]'s ranking from a pre-sorted, all-finite
/// copy with its mean and population variance already computed — the
/// shared-pass entry used by `SeriesScratch` and [`best_fit`].
///
/// Candidates are scored in ranking order and a later family stops
/// being scored once its running KS distance reaches the best so far:
/// at `>=` it can at most tie, and a tie keeps the earlier family, as
/// the stable sort in [`fit_all`] does.
pub(crate) fn best_sorted(sorted: &[f64], mean: f64, var: f64) -> Option<FitResult> {
    if sorted.len() < 8 {
        return None;
    }
    let mut best: Option<FitResult> = None;
    for dist in candidates(sorted, mean, var) {
        let bound = best.map_or(f64::INFINITY, |b| b.ks);
        if let Some(ks) = ks_distance_below(sorted, &dist, bound) {
            best = Some(FitResult { dist, ks });
        }
    }
    best
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
