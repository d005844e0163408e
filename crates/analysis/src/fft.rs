//! Dependency-free real-input FFT powering the periodogram.
//!
//! The naive Goertzel periodogram is O(n) *per bin*, O(n²) for the full
//! spectrum — the dominant cost of characterizing long series. This
//! module computes every DFT bin in O(n log n): an iterative radix-2
//! Cooley–Tukey transform for power-of-two lengths, and Bluestein's
//! chirp-z algorithm (which re-expresses an arbitrary-length DFT as a
//! power-of-two convolution) for everything else. No external crate,
//! f64 throughout.
//!
//! [`FftScratch`] owns every buffer, twiddle table and chirp filter, so
//! repeated transforms of same-length series (the catalog loop: 518
//! metrics × a few hosts, all with one sample count) allocate nothing
//! after the first call.
//!
//! The output is pinned bit for bit to the textbook schedule (a
//! bit-reversal swap pass, then every butterfly of every stage) by
//! `tests/fft_reference.rs`. The schedule here differs only in layout
//! and in skipped work whose result is known or never read:
//!
//! * inputs are written straight into bit-reversed slots, so there is
//!   no swap pass, and each stage reads its twiddles contiguously;
//! * on the Bluestein path every odd slot of the forward input holds a
//!   padding zero, so the first stage is folded into the write;
//! * the inverse only feeds bins `1..=n/2`, all below `m/4`, so its
//!   last two stages compute only the butterfly outputs that reach them.

/// Complex value as `[re, im]`.
type C = [f64; 2];

/// Twiddle `re + i·im` stored as the butterfly's two lane pairs,
/// `[re, re, −im, im]` (see [`butterfly`]).
type W = [f64; 4];

#[inline]
fn cmul(a: C, b: C) -> C {
    [a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]]
}

/// Radix-2 butterfly: `(u + t, u − t)` with `t = v·w`, as two lanes
/// `t = v·[re, re] + [v.im, v.re]·[−im, im]`. Both lanes round exactly
/// as the textbook product `(v.re·re − v.im·im, v.re·im + v.im·re)`:
/// lane 0 adds `v.im·(−im)`, which is `−(v.im·im)`, and IEEE defines
/// `x − y` as `x + (−y)`; lane 1 is the same sum with its terms swapped,
/// and IEEE addition commutes. There is no fused multiply-add.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
#[inline(always)]
fn butterfly_scalar(u: C, v: C, w: &W) -> (C, C) {
    let t = [v[0] * w[0] + v[1] * w[2], v[1] * w[1] + v[0] * w[3]];
    ([u[0] + t[0], u[1] + t[1]], [u[0] - t[0], u[1] - t[1]])
}

/// [`butterfly_scalar`] on one SSE2 register per complex value: the
/// same four products and four sums, lane for lane.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn butterfly(u: C, v: C, w: &W) -> (C, C) {
    use std::arch::x86_64::{
        _mm_add_pd, _mm_loadu_pd, _mm_mul_pd, _mm_shuffle_pd, _mm_storeu_pd, _mm_sub_pd,
    };
    let (mut sum, mut diff) = ([0.0; 2], [0.0; 2]);
    // SAFETY: SSE2 is part of the x86-64 baseline, so every x86-64
    // target has these instructions. Each unaligned load reads two
    // `f64`s inside `u`, `v` or `w`, and each store writes one whole
    // local `[f64; 2]`.
    unsafe {
        let u = _mm_loadu_pd(u.as_ptr());
        let v = _mm_loadu_pd(v.as_ptr());
        let re = _mm_loadu_pd(w.as_ptr());
        let im = _mm_loadu_pd(w[2..].as_ptr());
        let swapped = _mm_shuffle_pd(v, v, 0b01);
        let t = _mm_add_pd(_mm_mul_pd(v, re), _mm_mul_pd(swapped, im));
        _mm_storeu_pd(sum.as_mut_ptr(), _mm_add_pd(u, t));
        _mm_storeu_pd(diff.as_mut_ptr(), _mm_sub_pd(u, t));
    }
    (sum, diff)
}

#[cfg(not(target_arch = "x86_64"))]
use butterfly_scalar as butterfly;

/// Radix-2 stages of half-width `half`, `2·half`, … below `end` over
/// `buf`, whose input sits in bit-reversed order. `tw` is a per-stage
/// table from [`FftScratch::ensure_plan`].
fn stages(tw: &[W], buf: &mut [C], mut half: usize, end: usize) {
    while half < end {
        let w = &tw[half - 1..2 * half - 1];
        for block in buf.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for ((u, v), w) in lo.iter_mut().zip(hi.iter_mut()).zip(w) {
                (*u, *v) = butterfly(*u, *v, w);
            }
        }
        half <<= 1;
    }
}

/// One stage of half-width `half` that computes only the `u + t`
/// outputs of the first `keep` butterflies of each block.
fn stage_tops(tw: &[W], buf: &mut [C], half: usize, keep: usize) {
    let w = &tw[half - 1..half - 1 + keep];
    for block in buf.chunks_exact_mut(2 * half) {
        let (lo, hi) = block.split_at_mut(half);
        for ((u, v), w) in lo.iter_mut().zip(&*hi).zip(w) {
            *u = butterfly(*u, *v, w).0;
        }
    }
}

/// Reusable FFT workspace: transform buffers plus cached twiddle and
/// chirp tables keyed by the lengths they were built for.
#[derive(Debug, Clone, Default)]
pub struct FftScratch {
    /// Main transform buffer (length `m`, the power-of-two size).
    a: Vec<C>,
    /// Bluestein product and inverse-transform buffer (length `m`).
    b: Vec<C>,
    /// Bluestein chirp factors `exp(-iπ j²/n)` for the current `n`.
    chirp: Vec<C>,
    /// FFT of the Bluestein filter for the current `(n, m)`, stored at
    /// bit-reversed positions: `filter[i]` is bin `rev[i]`.
    filter: Vec<C>,
    /// Forward twiddles for the current `m`, stage by stage: the stage
    /// of half-width `h` holds `exp(-2πi k/2h)` for `k < h` at
    /// `h - 1 + k`, each the value `exp(-2πi (k·m/2h)/m)` rounds to.
    fwd: Vec<W>,
    /// `fwd` conjugated, for the inverse transform.
    inv: Vec<W>,
    /// Bit-reversal permutation of `0..m`.
    rev: Vec<u32>,
    /// Length the chirp/filter tables were built for (0 = none).
    chirp_n: usize,
    /// Power-of-two size the plan tables were built for (0 = none).
    plan_m: usize,
}

impl FftScratch {
    /// Fresh workspace; buffers grow on first use.
    pub fn new() -> Self {
        FftScratch::default()
    }

    fn ensure_plan(&mut self, m: usize) {
        if self.plan_m == m {
            return;
        }
        let twiddles: Vec<C> = (0..m / 2)
            .map(|k| {
                let angle = -std::f64::consts::TAU * k as f64 / m as f64;
                [angle.cos(), angle.sin()]
            })
            .collect();
        self.fwd.clear();
        self.inv.clear();
        let mut half = 1;
        while half < m {
            let step = m / (2 * half);
            for k in 0..half {
                let [re, im] = twiddles[k * step];
                self.fwd.push([re, re, -im, im]);
                self.inv.push([re, re, im, -im]);
            }
            half <<= 1;
        }
        let shift = usize::BITS - m.trailing_zeros();
        self.rev.clear();
        self.rev
            .extend((0..m).map(|i| (i.reverse_bits() >> shift) as u32));
        self.plan_m = m;
    }

    /// Build the Bluestein chirp table and transformed filter for `n`
    /// with convolution size `m` (the plan for `m` must be current).
    fn ensure_chirp(&mut self, n: usize, m: usize) {
        if self.chirp_n == n {
            return;
        }
        // chirp[j] = exp(-iπ j²/n); reduce j² mod 2n before the float
        // division so the angle stays in [0, 2π) even for huge j.
        self.chirp.clear();
        self.chirp.reserve(n);
        let two_n = 2 * n as u64;
        for j in 0..n as u64 {
            let r = (j * j) % two_n;
            let angle = -std::f64::consts::PI * r as f64 / n as f64;
            self.chirp.push([angle.cos(), angle.sin()]);
        }
        // Filter b[j] = conj(chirp[|j|]) laid out circularly, written
        // at bit-reversed slots and transformed once; reused for every
        // series of this length.
        self.a.clear();
        self.a.resize(m, [0.0; 2]);
        for (j, &[re, im]) in self.chirp.iter().enumerate() {
            let conj = [re, -im];
            self.a[self.rev[j] as usize] = conj;
            if j != 0 {
                self.a[self.rev[m - j] as usize] = conj;
            }
        }
        stages(&self.fwd, &mut self.a, 1, m);
        self.filter.clear();
        self.filter
            .extend(self.rev.iter().map(|&r| self.a[r as usize]));
        self.chirp_n = n;
    }

    /// Power spectrum of a real series: `out[k-1] = |X(k)|²` for DFT
    /// bins `k = 1..=n/2`, where `X` is the length-`n` DFT of `xs`.
    /// `out` is cleared and refilled (no allocation once warm).
    pub fn power_spectrum_into(&mut self, xs: &[f64], out: &mut Vec<f64>) {
        let n = xs.len();
        out.clear();
        if n < 2 {
            return;
        }
        if n.is_power_of_two() {
            self.ensure_plan(n);
            self.a.clear();
            self.a
                .extend(self.rev.iter().map(|&r| [xs[r as usize], 0.0]));
            stages(&self.fwd, &mut self.a, 1, n);
            out.extend(self.a[1..=n / 2].iter().map(|&[re, im]| re * re + im * im));
            return;
        }
        // Bluestein: X(k) = chirp[k] · (a ⊛ b)[k] with a[j] = x[j]·chirp[j]
        // for j < n and padding (+0, +0) above.
        let m = (2 * n - 1).next_power_of_two();
        self.ensure_plan(m);
        self.ensure_chirp(n, m);
        // n is not a power of two, so m > 2n, and every odd slot i holds
        // a[rev(i)] with rev(i) >= m/2 > n: a padding zero. The first
        // stage's butterfly on slots (2s, 2s + 1) multiplies (+0, +0) by
        // w = (1, −0), giving t = (+0, +0), and stores (u + 0, u − 0) =
        // (u + 0, u): write those directly and start at the second stage.
        self.a.clear();
        self.a.resize(m, [0.0; 2]);
        for (j, (&x, &[cr, ci])) in xs.iter().zip(&self.chirp).enumerate() {
            let s = self.rev[j] as usize;
            let u = [x * cr, x * ci];
            self.a[s] = [u[0] + 0.0, u[1] + 0.0];
            self.a[s + 1] = u;
        }
        stages(&self.fwd, &mut self.a, 2, m);
        // Pointwise product with the filter, gathered straight into
        // bit-reversed order for the inverse.
        self.b.clear();
        self.b.extend(
            self.rev
                .iter()
                .zip(&self.filter)
                .map(|(&r, &f)| cmul(self.a[r as usize], f)),
        );
        // Only bins 1..=n/2 are read, all below m/4 (m > 2n): the last
        // two stages compute only the outputs that feed them.
        let q = m / 4;
        stages(&self.inv, &mut self.b, 1, q);
        stage_tops(&self.inv, &mut self.b, q, q);
        stage_tops(&self.inv, &mut self.b, 2 * q, q);
        // |chirp[k]| = 1, so |X(k)|² = |conv[k]|²; fold the inverse
        // FFT's deferred 1/m into the squared magnitude.
        let inv_m2 = 1.0 / (m as f64 * m as f64);
        out.extend(
            self.b[1..=n / 2]
                .iter()
                .map(|&[re, im]| (re * re + im * im) * inv_m2),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n²) reference DFT power at bin `k`.
    fn dft_power(xs: &[f64], k: usize) -> f64 {
        let n = xs.len() as f64;
        let (mut re, mut im) = (0.0, 0.0);
        for (j, &x) in xs.iter().enumerate() {
            let angle = -std::f64::consts::TAU * k as f64 * j as f64 / n;
            re += x * angle.cos();
            im += x * angle.sin();
        }
        re * re + im * im
    }

    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn matches_reference_dft_pow2_and_bluestein() {
        let mut scratch = FftScratch::new();
        let mut out = Vec::new();
        for n in [8usize, 16, 64, 256, 10, 12, 100, 600, 37, 101] {
            let xs = noise(n, n as u64 + 1);
            scratch.power_spectrum_into(&xs, &mut out);
            assert_eq!(out.len(), n / 2, "n = {n}");
            let scale: f64 = xs.iter().map(|x| x * x).sum::<f64>() * n as f64;
            for (i, &p) in out.iter().enumerate() {
                let want = dft_power(&xs, i + 1);
                assert!(
                    (p - want).abs() <= 1e-10 * (1.0 + scale),
                    "n = {n}, bin {}: fft {p}, dft {want}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_lengths() {
        let mut scratch = FftScratch::new();
        let mut out = Vec::new();
        let a = noise(48, 3);
        let b = noise(600, 4);
        scratch.power_spectrum_into(&a, &mut out);
        scratch.power_spectrum_into(&b, &mut out);
        assert_eq!(out.len(), 300);
        // Back to the first length: cached tables must rebuild correctly.
        scratch.power_spectrum_into(&a, &mut out);
        let want = dft_power(&a, 5);
        assert!((out[4] - want).abs() <= 1e-9 * (1.0 + want));
    }

    /// The SSE2 butterfly and the scalar one it stands in for agree bit
    /// for bit (NaN against NaN: which payload an operation propagates
    /// is not pinned) on raw bit patterns and on real twiddles.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_butterfly_matches_scalar_bit_for_bit() {
        let mut scratch = FftScratch::new();
        scratch.ensure_plan(256);
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let same = |a: C, b: C| {
            a.iter()
                .zip(&b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
        };
        for i in 0..20_000 {
            let mut value = || {
                let bits = next();
                match bits % 4 {
                    0 => f64::from_bits(bits),
                    1 => [0.0, -0.0, f64::INFINITY, f64::NAN][(bits >> 8) as usize % 4],
                    _ => (bits >> 11) as f64 / (1u64 << 50) as f64 - 4.0,
                }
            };
            let u = [value(), value()];
            let v = [value(), value()];
            let raw = [value(), value(), value(), value()];
            let w = if i % 2 == 0 {
                let table = if i % 4 == 0 {
                    &scratch.fwd
                } else {
                    &scratch.inv
                };
                table[(next() % table.len() as u64) as usize]
            } else {
                raw
            };
            let (s1, d1) = butterfly(u, v, &w);
            let (s2, d2) = butterfly_scalar(u, v, &w);
            assert!(same(s1, s2) && same(d1, d2), "u {u:?} v {v:?} w {w:?}");
        }
    }

    #[test]
    fn degenerate_lengths_are_empty() {
        let mut scratch = FftScratch::new();
        let mut out = vec![1.0];
        scratch.power_spectrum_into(&[], &mut out);
        assert!(out.is_empty());
        scratch.power_spectrum_into(&[1.0], &mut out);
        assert!(out.is_empty());
    }
}
