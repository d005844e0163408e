//! Reusable per-series analysis workspace.
//!
//! Characterizing one series needs the same raw material over and over:
//! the mean, the centered values, a sorted copy, prefix sums, an FFT
//! plan. The free functions in this crate each rebuild that material
//! per call, which is fine for one-off use but wasteful in the catalog
//! loops of `core::characterize` and `core::report`, where thousands of
//! series are profiled back to back.
//!
//! [`SeriesScratch`] computes the shared passes once per [`load`] and
//! hands them to every downstream analysis — summary, distribution fit,
//! periodogram, jump detection, autocorrelation — reusing its buffers
//! across series so the steady-state loop allocates nothing.
//!
//! [`load`]: SeriesScratch::load

use crate::fft::FftScratch;
use crate::fit::{self, FitResult, MomentWinner};
use crate::jumps::{self, Jump};
use crate::spectrum::{self, Peak};
use crate::summary::{self, Summary};
use cloudchar_simcore::stats::{Comoments, Moments};

/// Shared-pass workspace for analyzing one series at a time.
///
/// Load a series with [`SeriesScratch::load`], then call any of the
/// analysis methods; intermediate products (centering, sorting, prefix
/// sums, the FFT plan, the periodogram) are computed at most once per
/// load and every buffer is reused across loads.
#[derive(Debug, Clone)]
pub struct SeriesScratch {
    /// Raw copy of the loaded series.
    values: Vec<f64>,
    /// `values` with the mean removed.
    centered: Vec<f64>,
    /// Sorted copy (built lazily for percentiles and fitting).
    sorted: Vec<f64>,
    /// Start of every run of bit-equal values in `sorted`, then its
    /// length (built with `winner`).
    run_starts: Vec<usize>,
    /// CDF values of the KS scan's coarse pass.
    ks_coarse: Vec<f64>,
    /// The moment families' ranking (built lazily for fitting).
    winner: Option<MomentWinner>,
    /// Prefix sums of `values` (built lazily for sliding windows).
    prefix: Vec<f64>,
    /// Raw `|X(k)|²` spectrum buffer.
    power: Vec<f64>,
    /// Full periodogram (one peak per DFT bin, built lazily).
    peaks: Vec<Peak>,
    /// Ranked output buffer for [`SeriesScratch::dominant_periods`].
    ranked: Vec<Peak>,
    /// Pre-merge jump candidate buffer.
    raw_jumps: Vec<Jump>,
    /// Merged jump output buffer.
    jumps: Vec<Jump>,
    /// FFT plan and twiddle/chirp caches.
    fft: FftScratch,
    /// Fused one-pass moments of the loaded series.
    moments: Moments,
    /// Co-moments of the series with itself one sample later, from the
    /// same pass.
    lag1: Comoments,
    /// Arithmetic mean (`sum / n`; 0 for an empty series).
    mean: f64,
    /// Total AC power `Σ (x − mean)²`.
    total_power: f64,
    sorted_valid: bool,
    prefix_valid: bool,
    peaks_valid: bool,
}

impl Default for SeriesScratch {
    fn default() -> Self {
        SeriesScratch::new()
    }
}

impl SeriesScratch {
    /// Fresh workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        SeriesScratch {
            values: Vec::new(),
            centered: Vec::new(),
            sorted: Vec::new(),
            run_starts: Vec::new(),
            ks_coarse: Vec::new(),
            winner: None,
            prefix: Vec::new(),
            power: Vec::new(),
            peaks: Vec::new(),
            ranked: Vec::new(),
            raw_jumps: Vec::new(),
            jumps: Vec::new(),
            fft: FftScratch::new(),
            moments: Moments::EMPTY,
            lag1: Comoments::EMPTY,
            mean: 0.0,
            total_power: 0.0,
            sorted_valid: false,
            prefix_valid: false,
            peaks_valid: false,
        }
    }

    /// Load a series: copies it, computes the fused moments and lag-1
    /// co-moments, centers it and accumulates the total AC power.
    /// Invalidates all lazily-built products of the previous load.
    pub fn load(&mut self, xs: &[f64]) -> &mut Self {
        self.begin_load();
        self.extend_load(xs);
        self.finish_load();
        self
    }

    /// Start an incremental load (the streaming counterpart of
    /// [`load`](SeriesScratch::load)): clears the value buffer so
    /// decoded chunks can be appended with
    /// [`extend_load`](SeriesScratch::extend_load).
    pub fn begin_load(&mut self) {
        self.values.clear();
    }

    /// Append one decoded chunk of the series being loaded.
    pub fn extend_load(&mut self, xs: &[f64]) {
        self.values.extend_from_slice(xs);
    }

    /// Finish an incremental load: computes the fused moments and lag-1
    /// co-moments, centers the series and accumulates the total AC
    /// power — bit-identical to a single
    /// [`load`](SeriesScratch::load) of the concatenation.
    pub fn finish_load(&mut self) {
        (self.moments, self.lag1) = Moments::with_lag1(&self.values);
        self.mean = if self.moments.count > 0 {
            self.moments.sum / self.moments.count as f64
        } else {
            0.0
        };
        self.centered.clear();
        self.centered
            .extend(self.values.iter().map(|x| x - self.mean));
        self.total_power = self.centered.iter().map(|x| x * x).sum();
        self.sorted_valid = false;
        self.winner = None;
        self.prefix_valid = false;
        self.peaks_valid = false;
    }

    /// Number of loaded samples.
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// The loaded series.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Fused one-pass moments of the loaded series.
    pub fn moments(&self) -> &Moments {
        &self.moments
    }

    /// Arithmetic mean of the loaded series (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    fn ensure_sorted(&mut self) {
        if self.sorted_valid {
            return;
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.values);
        summary::sort_total(&mut self.sorted);
        self.sorted_valid = true;
    }

    fn ensure_prefix(&mut self) {
        if self.prefix_valid {
            return;
        }
        self.prefix.clear();
        self.prefix.reserve(self.values.len() + 1);
        self.prefix.push(0.0);
        let mut acc = 0.0;
        for &x in &self.values {
            acc += x;
            self.prefix.push(acc);
        }
        self.prefix_valid = true;
    }

    fn ensure_peaks(&mut self) {
        if self.peaks_valid {
            return;
        }
        spectrum::periodogram_into(
            &self.centered,
            self.total_power,
            &mut self.fft,
            &mut self.power,
            &mut self.peaks,
        );
        self.peaks_valid = true;
    }

    /// Descriptive statistics — same result as [`crate::summarize`].
    pub fn summary(&mut self) -> Option<Summary> {
        if self.moments.count == 0 || !self.moments.all_finite {
            return None;
        }
        self.ensure_sorted();
        Some(summary::summary_from_parts(&self.moments, &self.sorted))
    }

    /// Best distribution fit by KS distance — same result as
    /// [`crate::best_fit`], sharing the sorted copy and moments with the
    /// other analyses instead of recomputing them.
    pub fn best_fit(&mut self) -> Option<FitResult> {
        self.best_fit_scaled(1.0)
    }

    /// [`best_fit`](SeriesScratch::best_fit) of the loaded series
    /// multiplied by `scale`, without loading it: the ranking of
    /// Normal, Uniform and Exponential is kept from the loaded series
    /// (computed once per load) and only the LogNormal is scored anew.
    ///
    /// `scale` must be a power of two under which every loaded sample,
    /// the mean and the variance stay normal `f64`s (zeros aside);
    /// then `+ − × ÷ sqrt` commute with it exactly and the result is
    /// the scaled series' own `best_fit`, bit for bit.
    pub fn best_fit_scaled(&mut self, scale: f64) -> Option<FitResult> {
        let n = self.values.len();
        if n < 8 || !self.moments.all_finite {
            return None;
        }
        self.ensure_sorted();
        let var = self.total_power / n as f64;
        let winner = match self.winner {
            Some(winner) => winner,
            None => {
                fit::run_starts_into(&self.sorted, &mut self.run_starts);
                let winner = fit::moment_winner(
                    &self.sorted,
                    &self.run_starts,
                    self.mean,
                    var,
                    &mut self.ks_coarse,
                );
                self.winner = Some(winner);
                winner
            }
        };
        Some(fit::winner_at_scale(
            &self.sorted,
            &self.run_starts,
            winner,
            scale,
            self.mean,
            var,
            &mut self.ks_coarse,
        ))
    }

    /// Full periodogram over DFT bins `1..=n/2` — same result as
    /// [`crate::periodogram`], computed once per load with the cached
    /// FFT plan. Empty for short (< 8 samples) or constant series.
    pub fn periodogram(&mut self) -> &[Peak] {
        self.ensure_peaks();
        &self.peaks
    }

    /// Strongest periodic components, most powerful first — same result
    /// as [`crate::dominant_periods`].
    pub fn dominant_periods(&mut self, min_power: f64, max_peaks: usize) -> &[Peak] {
        self.ensure_peaks();
        spectrum::rank_peaks(&self.peaks, min_power, max_peaks, &mut self.ranked);
        &self.ranked
    }

    /// Sample autocorrelation at lag `k` — same semantics as
    /// [`crate::autocorrelation`], allocation-free. Lag 1 reads the
    /// co-moments computed at load.
    pub fn autocorrelation(&self, k: usize) -> Option<f64> {
        let len = self.values.len();
        if len < k + 2 {
            return None;
        }
        if k == 1 {
            return self.lag1.pearson();
        }
        let n = len - k;
        Comoments::of(&self.values[..n], &self.values[k..]).pearson()
    }

    /// Sustained level shifts — same result as [`crate::detect_jumps`],
    /// using the shared prefix sums and reused buffers.
    pub fn detect_jumps(&mut self, window: usize, threshold: f64) -> &[Jump] {
        self.ensure_prefix();
        jumps::detect_jumps_prefix(
            &self.prefix,
            window,
            threshold,
            &mut self.raw_jumps,
            &mut self.jumps,
        );
        &self.jumps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        autocorrelation, best_fit, detect_jumps, dominant_periods, periodogram, summarize, Fitted,
    };

    fn series(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                100.0
                    + 20.0 * (i as f64 * std::f64::consts::TAU / 30.0).sin()
                    + 5.0 * noise
                    + if i > n / 2 { 40.0 } else { 0.0 }
            })
            .collect()
    }

    #[test]
    fn matches_free_functions_exactly() {
        let mut scratch = SeriesScratch::new();
        for (n, seed) in [(64usize, 1u64), (150, 2), (600, 3)] {
            let xs = series(n, seed);
            scratch.load(&xs);
            assert_eq!(scratch.summary(), summarize(&xs));
            assert_eq!(scratch.best_fit(), best_fit(&xs));
            assert_eq!(scratch.periodogram(), &periodogram(&xs)[..]);
            assert_eq!(
                scratch.dominant_periods(0.05, 3),
                &dominant_periods(&xs, 0.05, 3)[..]
            );
            assert_eq!(scratch.autocorrelation(1), autocorrelation(&xs, 1));
            assert_eq!(
                scratch.detect_jumps(10, 5.0),
                &detect_jumps(&xs, 10, 5.0)[..]
            );
        }
    }

    #[test]
    fn negative_zero_series_fits_like_the_free_function() {
        // `==` treats 0.0 and -0.0 as equal, so compare the fitted
        // parameters bit for bit.
        fn bits(fit: Option<FitResult>) -> Vec<u64> {
            let fit = fit.expect("16 finite samples fit");
            let params = match fit.dist {
                Fitted::Normal { mean, std_dev } => vec![mean, std_dev],
                Fitted::Exponential { mean } => vec![mean],
                Fitted::LogNormal { mu, sigma } => vec![mu, sigma],
                Fitted::Uniform { lo, hi } => vec![lo, hi],
            };
            params.iter().map(|x| x.to_bits()).collect()
        }
        let xs = [-0.0; 16];
        let mut scratch = SeriesScratch::new();
        scratch.load(&xs);
        assert_eq!(bits(scratch.best_fit()), bits(best_fit(&xs)));
    }

    #[test]
    fn scaled_fit_equals_the_fit_of_the_scaled_series() {
        // Positive series, so the LogNormal takes part and is rescored;
        // the skewed one lets it win at some scales.
        let skewed: Vec<f64> = series(200, 5).iter().map(|x| (x / 40.0).exp()).collect();
        let mut scratch = SeriesScratch::new();
        let mut fresh = SeriesScratch::new();
        for xs in [series(150, 7), skewed] {
            for k in [-40, -3, -1, 0, 1, 5, 60] {
                let scale = 2f64.powi(k);
                let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
                scratch.load(&xs);
                let got = scratch.best_fit_scaled(scale);
                fresh.load(&scaled);
                let want = fresh.best_fit();
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "k = {k}");
            }
        }
    }

    #[test]
    fn reuse_does_not_leak_state_between_series() {
        let mut scratch = SeriesScratch::new();
        // Long periodic series first, then a short constant one, then a
        // fresh noisy one: every lazily-built product must reset.
        let long = series(512, 9);
        scratch.load(&long);
        assert!(!scratch.periodogram().is_empty());
        assert!(scratch.summary().is_some());

        scratch.load(&[7.0; 20]);
        assert!(scratch.periodogram().is_empty(), "constant has no spectrum");
        assert_eq!(scratch.summary().map(|s| s.mean), Some(7.0));
        assert!(scratch.detect_jumps(3, 0.5).is_empty());

        let other = series(100, 4);
        scratch.load(&other);
        assert_eq!(scratch.summary(), summarize(&other));
        assert_eq!(scratch.periodogram(), &periodogram(&other)[..]);
    }

    #[test]
    fn empty_and_non_finite_series_are_guarded() {
        let mut scratch = SeriesScratch::new();
        scratch.load(&[]);
        assert!(scratch.summary().is_none());
        assert!(scratch.best_fit().is_none());
        assert!(scratch.periodogram().is_empty());
        assert!(scratch.autocorrelation(1).is_none());

        let mut xs = vec![1.0; 32];
        xs[5] = f64::NAN;
        scratch.load(&xs);
        assert!(scratch.summary().is_none());
        assert!(scratch.best_fit().is_none());
    }
}
