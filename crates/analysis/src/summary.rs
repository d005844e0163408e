//! Summary statistics of workload time series.
//!
//! §4.1 of the paper observes that "the workload curves for different
//! types of resources display different shapes/distributions with
//! different means and variances. But for each type of resource, the
//! workload dynamics show some patterns that can be quantified by formal
//! models." This module computes those quantities.

use cloudchar_simcore::stats::{Comoments, Moments};
use serde::{Deserialize, Serialize};

/// Descriptive statistics of one series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation.
    pub cv: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Sum over the run (aggregate demand).
    pub total: f64,
}

/// Assemble a [`Summary`] from precomputed moments and a sorted copy —
/// the shared core used by [`summarize`] and `SeriesScratch`, so both
/// paths produce bit-identical results. `m.count` must be non-zero and
/// `sorted` sorted ascending with `m.count` elements.
pub(crate) fn summary_from_parts(m: &Moments, sorted: &[f64]) -> Summary {
    let n = m.count;
    let total = m.sum;
    let mean = total / n as f64;
    let variance = m.variance();
    let std_dev = variance.sqrt();
    let q = |p: f64| {
        let idx = ((n as f64 - 1.0) * p).round() as usize;
        sorted[idx]
    };
    Summary {
        n,
        mean,
        variance,
        std_dev,
        cv: if mean.is_normal() {
            std_dev / mean
        } else {
            0.0
        },
        min: m.min,
        max: m.max,
        p50: q(0.5),
        p95: q(0.95),
        total,
    }
}

/// Compute a [`Summary`]; returns `None` for an empty series or one
/// containing non-finite samples.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    // One fused pass gives count/finiteness/mean/variance/total/min/max;
    // only the percentiles still need the sorted copy.
    let m = Moments::of(xs);
    if m.count == 0 || !m.all_finite {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sort_total(&mut sorted);
    Some(summary_from_parts(&m, &sorted))
}

/// `f64` bits as a signed integer whose order is `f64::total_cmp`
/// order: negative values have every bit but the sign flipped. The map
/// keeps the sign bit, so it is its own inverse.
fn total_key(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Sort ascending exactly as `sort_by(f64::total_cmp)` does, NaN
/// payloads and signed zeros included, by sorting integer keys: keys
/// are equal only for equal bits, so the unstable integer sort leaves
/// nothing for stability to decide. Both conversions collect in place,
/// so the buffer is reused.
pub(crate) fn sort_total(xs: &mut Vec<f64>) {
    let mut keys: Vec<i64> = std::mem::take(xs)
        .into_iter()
        .map(|x| total_key(x.to_bits() as i64))
        .collect();
    keys.sort_unstable();
    *xs = keys
        .into_iter()
        .map(|k| f64::from_bits(total_key(k) as u64))
        .collect();
}

/// Sample autocorrelation at integer lag `k` (Pearson of the series with
/// its k-shifted self). Returns `None` when the overlap is < 2 samples
/// or the series is constant.
pub fn autocorrelation(xs: &[f64], k: usize) -> Option<f64> {
    if xs.len() < k + 2 {
        return None;
    }
    let n = xs.len() - k;
    let a = &xs[..n];
    let b = &xs[k..];
    pearson(a, b)
}

/// Pearson correlation of two equal-length slices, computed with the
/// one-pass Welford co-moment accumulator
/// ([`cloudchar_simcore::stats::Comoments`]) — numerically stable on
/// large-mean series, where the textbook Σxy − ΣxΣy/n form cancels
/// catastrophically. Returns `None` on length mismatch, fewer than two
/// samples, or a constant/non-finite series.
pub fn pearson(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    Comoments::of(a, b).pearson()
}

/// Sample autocorrelation at every lag `0..=max_lag`, derived from one
/// pass of prefix sums (entry `k` matches [`autocorrelation`]`(xs, k)`
/// semantics: `None` when the overlap is short or constant).
pub fn autocorrelations(xs: &[f64], max_lag: usize) -> Vec<Option<f64>> {
    crate::lag::cross_correlation_scan(xs, xs, max_lag)
        .into_iter()
        .filter(|&(shift, _)| shift >= 0)
        .map(|(_, c)| c)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An `f64` drawn from `bits`: a special value (NaNs of both signs
    /// with distinct payloads, ±0, ±∞, subnormals, the extreme normals)
    /// or, half the time, the raw pattern itself.
    fn special(bits: u64) -> f64 {
        const SPECIALS: [u64; 16] = [
            0x7ff8_0000_0000_0000, // quiet NaN
            0xfff8_0000_0000_0000, // negative quiet NaN
            0x7ff0_0000_0000_0001, // signalling NaN, payload 1
            0xfff4_0000_0000_00ff, // negative NaN, another payload
            0x0000_0000_0000_0000, // +0
            0x8000_0000_0000_0000, // -0
            0x7ff0_0000_0000_0000, // +inf
            0xfff0_0000_0000_0000, // -inf
            0x0000_0000_0000_0001, // smallest subnormal
            0x8000_0000_0000_0001, // its negative
            0x000f_ffff_ffff_ffff, // largest subnormal
            0x800f_ffff_ffff_ffff, // its negative
            0x0010_0000_0000_0000, // smallest normal
            0x7fef_ffff_ffff_ffff, // largest finite
            0xffef_ffff_ffff_ffff, // most negative finite
            0x3ff0_0000_0000_0000, // 1.0
        ];
        if bits & 1 == 0 {
            f64::from_bits(bits)
        } else {
            f64::from_bits(SPECIALS[(bits >> 1) as usize % SPECIALS.len()])
        }
    }

    proptest! {
        /// The integer-key sort is `sort_by(f64::total_cmp)` bit for bit.
        #[test]
        fn sort_total_matches_total_cmp_bit_for_bit(
            raw in proptest::collection::vec(any::<u64>(), 0..300),
        ) {
            let xs: Vec<f64> = raw.iter().map(|&b| special(b)).collect();
            let mut want = xs.clone();
            want.sort_by(f64::total_cmp);
            let mut got = xs;
            sort_total(&mut got);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn sort_total_orders_every_special_value() {
        let mut xs: Vec<f64> = (0..32u64).map(|i| special(2 * i + 1)).collect();
        let mut want = xs.clone();
        want.sort_by(f64::total_cmp);
        sort_total(&mut xs);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&xs), bits(&want));
        assert_eq!(xs[0].to_bits(), 0xfff8_0000_0000_0000);
        assert_eq!(xs[xs.len() - 1].to_bits(), 0x7ff8_0000_0000_0000);
    }

    #[test]
    fn sort_total_reuses_its_buffer() {
        let mut xs: Vec<f64> = (0..100).map(|i| (i * 37 % 100) as f64).collect();
        let ptr = xs.as_ptr();
        sort_total(&mut xs);
        assert_eq!(xs.as_ptr(), ptr);
        assert!(xs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn summary_basics() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.variance, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.total, 15.0);
        assert!((s.cv - 2.0f64.sqrt() / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn p95_order() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert!(s.p95 >= 94.0 && s.p95 <= 97.0, "p95 {}", s.p95);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let a = [1.0, 2.0, 3.0];
        assert!((pearson(&a, &[2.0, 4.0, 6.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &[3.0, 2.0, 1.0]).unwrap() + 1.0).abs() < 1e-12);
        assert!(pearson(&a, &[5.0, 5.0, 5.0]).is_none()); // constant
        assert!(pearson(&a, &[1.0]).is_none()); // length mismatch
    }

    #[test]
    fn autocorrelation_of_periodic_signal() {
        let xs: Vec<f64> = (0..200)
            .map(|i| (i as f64 * std::f64::consts::TAU / 20.0).sin())
            .collect();
        let r20 = autocorrelation(&xs, 20).unwrap();
        let r10 = autocorrelation(&xs, 10).unwrap();
        assert!(r20 > 0.95, "period lag should correlate, got {r20}");
        assert!(r10 < -0.9, "half-period lag anti-correlates, got {r10}");
    }

    #[test]
    fn autocorrelation_needs_overlap() {
        assert!(autocorrelation(&[1.0, 2.0], 5).is_none());
    }

    #[test]
    fn pearson_is_stable_on_large_mean_series() {
        // Offset 1e12 destroys the textbook Σxy − ΣxΣy/n form; the
        // Welford co-moment path must still see perfect correlation.
        let a: Vec<f64> = (0..100).map(|i| 1e12 + i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| 1e12 + 2.0 * i as f64).collect();
        let r = pearson(&a, &b).unwrap();
        assert!((r - 1.0).abs() < 1e-9, "r = {r}");
    }

    #[test]
    fn autocorrelations_match_per_lag_calls() {
        let xs: Vec<f64> = (0..200)
            .map(|i| (i as f64 * std::f64::consts::TAU / 20.0).sin() + 0.01 * i as f64)
            .collect();
        let all = autocorrelations(&xs, 25);
        assert_eq!(all.len(), 26);
        for (k, got) in all.iter().enumerate() {
            let want = autocorrelation(&xs, k);
            match (got, want) {
                (Some(g), Some(w)) => assert!((g - w).abs() < 1e-9, "lag {k}: {g} vs {w}"),
                (g, w) => assert_eq!(g.is_some(), w.is_some(), "lag {k}"),
            }
        }
    }
}
