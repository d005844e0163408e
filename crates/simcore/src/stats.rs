//! Streaming statistics accumulators used by device models and monitors.

use serde::{Deserialize, Serialize};

/// Welford's online algorithm for mean and variance, plus min/max.
///
/// Numerically stable for long streams, O(1) per observation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample (unbiased) variance.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std-dev / mean); 0 when mean is 0.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One-pass summary moments of a finished slice: count, mean, M2 (for
/// variance), sum, min, max, and whether every value was finite.
///
/// Computed with Welford's update in a single walk, so callers that need
/// several of these statistics (monitor's `TimeSeries`, the analysis
/// `summarize` pass) touch the data once instead of once per statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Sum of squared deviations from the mean (Welford M2).
    pub m2: f64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (+∞ when empty).
    pub min: f64,
    /// Largest observation (-∞ when empty).
    pub max: f64,
    /// Whether every observation was finite.
    pub all_finite: bool,
}

impl Moments {
    /// The moments of no observations, which [`push`](Moments::push)
    /// starts from.
    pub const EMPTY: Moments = Moments {
        count: 0,
        mean: 0.0,
        m2: 0.0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        all_finite: true,
    };

    /// Add one observation: Welford's update plus the running sum,
    /// extremes and finiteness.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.sum += x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
        self.all_finite &= x.is_finite();
    }

    /// Compute the moments of `xs` in one pass.
    pub fn of(xs: &[f64]) -> Self {
        let mut m = Moments::EMPTY;
        for &x in xs {
            m.push(x);
        }
        m
    }

    /// The moments of `xs` and the lag-1 co-moments of
    /// `(xs[..n-1], xs[1..])` from one loop: the same values, bit for
    /// bit, as [`Moments::of`] and [`Comoments::of`] on those slices.
    /// The two Welford chains do not depend on each other, so their
    /// divisions overlap instead of running one pass after the other.
    pub fn with_lag1(xs: &[f64]) -> (Moments, Comoments) {
        let mut m = Moments::EMPTY;
        let mut c = Comoments::EMPTY;
        if let Some((&first, rest)) = xs.split_first() {
            m.push(first);
            let mut prev = first;
            for &x in rest {
                m.push(x);
                c.push(prev, x);
                prev = x;
            }
        }
        (m, c)
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Largest observation (`None` when empty), preserving the fold
    /// semantics of `Iterator::fold` over `>` comparisons.
    pub fn max_opt(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Smallest observation (`None` when empty).
    pub fn min_opt(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }
}

/// One-pass paired moments of two equal-length slices: means, M2s and
/// the Welford co-moment `cxy = Σ (x-mx)(y-my)`, plus finiteness.
///
/// The co-moment update (`cxy += dx_pre · dy_post`) never forms the
/// catastrophically cancelling `Σxy − ΣxΣy/n` difference, so Pearson
/// correlation stays accurate on large-mean series where the one-pass
/// sum-of-products form loses every significant digit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comoments {
    /// Number of paired observations.
    pub count: usize,
    /// Mean of the first series (0 when empty).
    pub mean_x: f64,
    /// Mean of the second series (0 when empty).
    pub mean_y: f64,
    /// Sum of squared deviations of the first series.
    pub m2x: f64,
    /// Sum of squared deviations of the second series.
    pub m2y: f64,
    /// Co-moment `Σ (x-mx)(y-my)`.
    pub cxy: f64,
    /// Whether every observation in both series was finite.
    pub all_finite: bool,
}

impl Comoments {
    /// The co-moments of no pairs, which [`push`](Comoments::push)
    /// starts from.
    pub const EMPTY: Comoments = Comoments {
        count: 0,
        mean_x: 0.0,
        mean_y: 0.0,
        m2x: 0.0,
        m2y: 0.0,
        cxy: 0.0,
        all_finite: true,
    };

    /// Add one pair `(x, y)`.
    #[inline]
    pub fn push(&mut self, x: f64, y: f64) {
        self.count += 1;
        let n = self.count as f64;
        let dx = x - self.mean_x;
        let dy = y - self.mean_y;
        self.mean_x += dx / n;
        self.mean_y += dy / n;
        // dx is the pre-update delta, (y - mean_y) the post-update
        // one — the standard stable co-moment recurrence.
        self.cxy += dx * (y - self.mean_y);
        self.m2x += dx * (x - self.mean_x);
        self.m2y += dy * (y - self.mean_y);
        self.all_finite &= x.is_finite() && y.is_finite();
    }

    /// Compute the paired moments of `zip(xs, ys)` in one pass (pairs
    /// past the shorter slice are ignored).
    pub fn of(xs: &[f64], ys: &[f64]) -> Self {
        let mut c = Comoments::EMPTY;
        for (&x, &y) in xs.iter().zip(ys) {
            c.push(x, y);
        }
        c
    }

    /// Population covariance (0 when fewer than 2 pairs).
    pub fn covariance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.cxy / self.count as f64
        }
    }

    /// Pearson correlation; `None` when fewer than 2 pairs or either
    /// series is (numerically) constant.
    pub fn pearson(&self) -> Option<f64> {
        if self.count < 2 {
            return None;
        }
        // `is_normal()` also rejects constant series whose sum of
        // squares is zero or subnormal, without a bare float comparison.
        if !self.m2x.is_normal() || !self.m2y.is_normal() {
            return None;
        }
        Some(self.cxy / (self.m2x.sqrt() * self.m2y.sqrt()))
    }
}

/// Exponentially weighted moving average.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// `alpha` in `(0, 1]` is the weight of the newest observation.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Record an observation and return the updated average.
    pub fn push(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current average, if any observation was recorded.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// Monotone counter with delta extraction, the shape of most sysstat
/// sources (`/proc` counters are cumulative; sar reports per-interval
/// deltas).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Counter {
    total: u64,
    last_read: u64,
}

impl Counter {
    /// Fresh zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add to the counter.
    pub fn add(&mut self, n: u64) {
        self.total = self.total.saturating_add(n);
    }

    /// Cumulative value.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Value accumulated since the previous `take_delta` call.
    pub fn take_delta(&mut self) -> u64 {
        let d = self.total - self.last_read;
        self.last_read = self.total;
        d
    }

    /// Peek at the delta without consuming it.
    pub fn peek_delta(&self) -> u64 {
        self.total - self.last_read
    }
}

/// Fixed-boundary histogram with logarithmically spaced buckets,
/// suitable for latency measurements spanning several decades.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Upper bounds of each bucket (exclusive), ascending; final bucket
    /// is unbounded.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
}

impl LogHistogram {
    /// Buckets spanning `[lo, hi]` with `per_decade` buckets per decade.
    pub fn new(lo: f64, hi: f64, per_decade: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && per_decade > 0);
        let mut bounds = Vec::new();
        let step = 10f64.powf(1.0 / per_decade as f64);
        let mut b = lo;
        while b < hi * (1.0 + 1e-12) {
            bounds.push(b);
            b *= step;
        }
        let counts = vec![0; bounds.len() + 1];
        LogHistogram {
            bounds,
            counts,
            total: 0,
        }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        let idx = self.bounds.partition_point(|&b| b <= x);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Approximate quantile `q` in `[0, 1]`; returns the upper bound of
    /// the bucket containing the quantile. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return self
                    .bounds
                    .get(i)
                    .copied()
                    .or_else(|| self.bounds.last().copied());
            }
        }
        self.bounds.last().copied()
    }
}

/// Fixed-capacity sliding window over an `f64` stream.
///
/// The ring is the one windowing implementation shared by the online
/// analysis kernels (`cloudchar-analysis`) and the fault monitor's
/// per-interval bookkeeping: pushes are O(1), the oldest sample falls
/// out once the ring is full, and no allocation happens after
/// construction.
#[derive(Debug, Clone)]
pub struct WindowRing {
    buf: Vec<f64>,
    /// Requested capacity (`Vec::capacity` may over-allocate).
    cap: usize,
    /// Physical index of the oldest sample (0 until the ring first
    /// fills, so logical index `i` is always `(head + i) % cap`).
    head: usize,
}

impl WindowRing {
    /// Empty ring holding at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be > 0");
        WindowRing {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
        }
    }

    /// Maximum number of samples the window holds.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Samples currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the window is at capacity (every push now evicts).
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.cap
    }

    /// Append `x`; once the window is full, returns the evicted oldest
    /// sample.
    pub fn push(&mut self, x: f64) -> Option<f64> {
        if self.buf.len() < self.cap {
            self.buf.push(x);
            None
        } else {
            let evicted = std::mem::replace(&mut self.buf[self.head], x);
            self.head = (self.head + 1) % self.cap;
            Some(evicted)
        }
    }

    /// Sample `i` in window order (0 = oldest, `len() - 1` = newest).
    pub fn get(&self, i: usize) -> f64 {
        assert!(i < self.buf.len(), "window index out of range");
        self.buf[(self.head + i) % self.cap]
    }

    /// Iterate the window oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.buf.len()).map(move |i| self.get(i))
    }

    /// Drop every sample, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

/// Per-interval success/failure/retry tally with idle-interval
/// semantics: `close` reports availability 1.0 (and error rate 0.0)
/// when nothing was attempted, otherwise `ok / attempted`.
///
/// This is the interval bookkeeping the fault monitor and the fleet's
/// availability sampler both need; keeping it here means one definition
/// of "idle interval" across the workspace.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct IntervalTally {
    ok: u64,
    fail: u64,
    retries: u64,
}

impl IntervalTally {
    /// Fresh zeroed tally.
    pub fn new() -> Self {
        IntervalTally::default()
    }

    /// Record one successful attempt.
    pub fn record_ok(&mut self) {
        self.ok += 1;
    }

    /// Record one failed attempt.
    pub fn record_fail(&mut self) {
        self.fail += 1;
    }

    /// Record one retry (not an attempt; orthogonal to ok/fail).
    pub fn record_retry(&mut self) {
        self.retries += 1;
    }

    /// Attempts recorded this interval.
    pub fn attempted(&self) -> u64 {
        self.ok + self.fail
    }

    /// Close the interval: `(availability, error_rate, retries)`,
    /// resetting the tally for the next interval. An idle interval
    /// (nothing attempted) closes as fully available.
    pub fn close(&mut self) -> (f64, f64, u64) {
        let attempted = self.ok + self.fail;
        let (avail, err) = if attempted == 0 {
            (1.0, 0.0)
        } else {
            let a = self.ok as f64 / attempted as f64;
            (a, 1.0 - a)
        };
        let retries = self.retries;
        *self = IntervalTally::default();
        (avail, err, retries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), None);
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut all = Welford::new();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in xs.iter().enumerate() {
            all.push(x);
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_cv() {
        let mut w = Welford::new();
        for x in [1.0, 3.0] {
            w.push(x);
        }
        assert!((w.cv() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn comoments_match_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let ys = [1.0, 3.0, 2.0, 5.0, 4.0, 6.0, 8.0, 7.0];
        let c = Comoments::of(&xs, &ys);
        assert_eq!(c.count, 8);
        let mx = xs.iter().sum::<f64>() / 8.0;
        let my = ys.iter().sum::<f64>() / 8.0;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        assert!((c.mean_x - mx).abs() < 1e-12);
        assert!((c.mean_y - my).abs() < 1e-12);
        assert!((c.cxy - cov).abs() < 1e-12);
        assert!(c.all_finite);
        let r = c.pearson().unwrap();
        assert!((-1.0..=1.0).contains(&r) && r > 0.5, "r = {r}");
    }

    #[test]
    fn comoments_large_mean_stability() {
        // Pearson on a large-mean pair (mean/σ ≈ 1e9): the textbook
        // Σxy − ΣxΣy/n form loses every significant digit here, while
        // the co-moment recurrence stays within ~n·ε·mean/σ of the
        // exact answer.
        let base = 1e9;
        let xs: Vec<f64> = (0..64).map(|i| base + (i as f64 * 0.7).sin()).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * (x - base) + base).collect();
        let r = Comoments::of(&xs, &ys).pearson().unwrap();
        assert!((r - 1.0).abs() < 1e-6, "r = {r}");

        // The cancellation-prone form, for contrast: its covariance
        // error is on the order of ε·mean² ≈ 10², versus a true
        // covariance of n·σ² ≈ 10² — pure noise.
        let n = xs.len() as f64;
        let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        let sx: f64 = xs.iter().sum();
        let sy: f64 = ys.iter().sum();
        let sxx: f64 = xs.iter().map(|x| x * x).sum();
        let syy: f64 = ys.iter().map(|y| y * y).sum();
        let naive = (sxy - sx * sy / n) / ((sxx - sx * sx / n).sqrt() * (syy - sy * sy / n).sqrt());
        assert!(
            !naive.is_finite() || (naive - 1.0).abs() > 1e-3,
            "textbook form unexpectedly accurate: {naive}"
        );
    }

    #[test]
    fn comoments_degenerate() {
        assert!(Comoments::of(&[], &[]).pearson().is_none());
        assert!(Comoments::of(&[1.0], &[2.0]).pearson().is_none());
        assert!(Comoments::of(&[1.0, 2.0], &[5.0, 5.0]).pearson().is_none());
        let c = Comoments::of(&[1.0, f64::NAN], &[2.0, 3.0]);
        assert!(!c.all_finite);
        // Shorter slice wins the zip.
        assert_eq!(Comoments::of(&[1.0, 2.0, 3.0], &[1.0, 2.0]).count, 2);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.push(10.0);
        assert_eq!(e.value(), Some(10.0));
        for _ in 0..64 {
            e.push(0.0);
        }
        assert!(e.value().unwrap() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1]")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn counter_deltas() {
        let mut c = Counter::new();
        c.add(10);
        c.add(5);
        assert_eq!(c.total(), 15);
        assert_eq!(c.peek_delta(), 15);
        assert_eq!(c.take_delta(), 15);
        assert_eq!(c.take_delta(), 0);
        c.add(7);
        assert_eq!(c.take_delta(), 7);
        assert_eq!(c.total(), 22);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = LogHistogram::new(1e-6, 10.0, 10);
        for i in 1..=100 {
            h.push(i as f64 * 0.001); // 1ms .. 100ms
        }
        assert_eq!(h.total(), 100);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 > 0.03 && p50 < 0.08, "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 > 0.08, "p99 {p99}");
        assert!(h.quantile(0.0).is_some());
    }

    #[test]
    fn histogram_empty() {
        let h = LogHistogram::new(0.001, 1.0, 5);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = LogHistogram::new(1.0, 10.0, 2);
        h.push(1e9); // way past hi — lands in the unbounded final bucket
        assert_eq!(h.total(), 1);
        assert!(h.quantile(1.0).is_some());
    }

    #[test]
    fn window_ring_fills_then_evicts_in_order() {
        let mut r = WindowRing::new(3);
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.push(1.0), None);
        assert_eq!(r.push(2.0), None);
        assert!(!r.is_full());
        assert_eq!(r.push(3.0), None);
        assert!(r.is_full());
        assert_eq!(r.push(4.0), Some(1.0));
        assert_eq!(r.push(5.0), Some(2.0));
        let window: Vec<f64> = r.iter().collect();
        assert_eq!(window, vec![3.0, 4.0, 5.0]);
        assert_eq!(r.get(0), 3.0);
        assert_eq!(r.get(2), 5.0);
        // Wrap all the way around a second time.
        for i in 6..=9 {
            r.push(i as f64);
        }
        let window: Vec<f64> = r.iter().collect();
        assert_eq!(window, vec![7.0, 8.0, 9.0]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.push(10.0), None);
        assert_eq!(r.get(0), 10.0);
    }

    #[test]
    fn window_ring_capacity_one() {
        let mut r = WindowRing::new(1);
        assert_eq!(r.push(1.0), None);
        assert_eq!(r.push(2.0), Some(1.0));
        assert_eq!(r.push(3.0), Some(2.0));
        assert_eq!(r.get(0), 3.0);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "window capacity must be > 0")]
    fn window_ring_rejects_zero_capacity() {
        let _ = WindowRing::new(0);
    }

    #[test]
    fn interval_tally_idle_and_active() {
        let mut t = IntervalTally::new();
        // Idle interval: fully available by convention.
        assert_eq!(t.close(), (1.0, 0.0, 0));
        for _ in 0..3 {
            t.record_ok();
        }
        t.record_fail();
        t.record_retry();
        assert_eq!(t.attempted(), 4);
        let (avail, err, retries) = t.close();
        assert!((avail - 0.75).abs() < 1e-12);
        assert!((err - 0.25).abs() < 1e-12);
        assert_eq!(retries, 1);
        // The close reset the tally.
        assert_eq!(t.attempted(), 0);
        assert_eq!(t.close(), (1.0, 0.0, 0));
    }
}
