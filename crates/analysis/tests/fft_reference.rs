//! Bit-exact oracle for `FftScratch::power_spectrum_into`.
//!
//! `Reference` below is the straightforward radix-2 + Bluestein
//! transform the periodogram was first written with: a `while j & bit`
//! bit-reversal swap pass, strided `k * step` twiddle lookups, a
//! conjugate-on-the-fly inverse and a full pointwise product. The
//! library's transform may reorder memory and skip work that provably
//! produces only padding zeros or unread bins, but every stored value
//! must come from the same IEEE operations on the same operands, so its
//! spectra must equal this reference bit for bit (NaN against NaN by
//! `is_nan`, since only NaN-ness, not the payload, is specified).

use cloudchar_analysis::FftScratch;

type C = (f64, f64);

fn cmul(a: C, b: C) -> C {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

fn bit_reverse_permute(buf: &mut [C]) {
    let n = buf.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
}

fn twiddles(m: usize) -> Vec<C> {
    (0..m / 2)
        .map(|k| {
            let angle = -std::f64::consts::TAU * k as f64 / m as f64;
            (angle.cos(), angle.sin())
        })
        .collect()
}

fn fft_pow2(twiddles: &[C], buf: &mut [C], inverse: bool) {
    let n = buf.len();
    bit_reverse_permute(buf);
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let step = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let (tr, mut ti) = twiddles[k * step];
                if inverse {
                    ti = -ti;
                }
                let u = buf[start + k];
                let v = cmul(buf[start + k + half], (tr, ti));
                buf[start + k] = (u.0 + v.0, u.1 + v.1);
                buf[start + k + half] = (u.0 - v.0, u.1 - v.1);
            }
        }
        len <<= 1;
    }
}

/// The reference power spectrum: `|X(k)|²` for bins `1..=n/2`.
fn reference(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    if n < 2 {
        return Vec::new();
    }
    if n.is_power_of_two() {
        let tw = twiddles(n);
        let mut a: Vec<C> = xs.iter().map(|&x| (x, 0.0)).collect();
        fft_pow2(&tw, &mut a, false);
        return (1..=n / 2)
            .map(|k| {
                let (re, im) = a[k];
                re * re + im * im
            })
            .collect();
    }
    let m = (2 * n - 1).next_power_of_two();
    let tw = twiddles(m);
    let two_n = 2 * n as u64;
    let chirp: Vec<C> = (0..n as u64)
        .map(|j| {
            let r = (j * j) % two_n;
            let angle = -std::f64::consts::PI * r as f64 / n as f64;
            (angle.cos(), angle.sin())
        })
        .collect();
    let mut bfft = vec![(0.0, 0.0); m];
    for (j, c) in chirp.iter().enumerate() {
        let conj = (c.0, -c.1);
        bfft[j] = conj;
        if j != 0 {
            bfft[m - j] = conj;
        }
    }
    fft_pow2(&tw, &mut bfft, false);
    let mut a = vec![(0.0, 0.0); m];
    for j in 0..n {
        a[j] = (xs[j] * chirp[j].0, xs[j] * chirp[j].1);
    }
    fft_pow2(&tw, &mut a, false);
    for (av, bv) in a.iter_mut().zip(&bfft) {
        *av = cmul(*av, *bv);
    }
    fft_pow2(&tw, &mut a, true);
    let inv_m2 = 1.0 / (m as f64 * m as f64);
    (1..=n / 2)
        .map(|k| {
            let (re, im) = a[k];
            (re * re + im * im) * inv_m2
        })
        .collect()
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The input families: uniform noise, a ±0 / small-integer mix (the
/// shape of idle and counting catalog metrics), values near 1e300 whose
/// squares overflow, raw bit patterns (NaN and infinities included),
/// sparse spikes on zeros, and a periodic counter.
fn family(f: usize, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|i| match f {
            0 => rng.unit() - 0.5,
            1 => match rng.next() >> 61 {
                0 => -0.0,
                1 => 0.0,
                r => r as f64 - 4.0,
            },
            2 => (rng.unit() - 0.5) * 1e300,
            3 => match rng.next() % 16 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => f64::from_bits(rng.next()),
            },
            4 => {
                if rng.next() % 11 == 0 {
                    rng.unit() * 100.0
                } else {
                    0.0
                }
            }
            _ => 3.0 * (i % 7) as f64 + (i / 13) as f64 - 10.0,
        })
        .collect()
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

#[test]
fn spectrum_matches_reference_bit_for_bit() {
    // One scratch across every length and family, so its cached plans
    // are rebuilt and reused the way the catalog loop uses them.
    let mut scratch = FftScratch::new();
    let mut out = Vec::new();
    for n in 2..=700usize {
        for f in 0..6 {
            let xs = family(f, n, (n * 6 + f) as u64);
            let want = reference(&xs);
            scratch.power_spectrum_into(&xs, &mut out);
            assert_eq!(out.len(), want.len(), "n = {n}, family {f}");
            for (k, (&got, &w)) in out.iter().zip(&want).enumerate() {
                assert!(
                    same_bits(got, w),
                    "n = {n}, family {f}, bin {}: {got:e} ({:#x}) vs reference {w:e} ({:#x})",
                    k + 1,
                    got.to_bits(),
                    w.to_bits()
                );
            }
        }
    }
}

#[test]
fn degenerate_lengths_match_reference() {
    let mut scratch = FftScratch::new();
    let mut out = vec![1.0];
    for xs in [&[][..], &[1.0][..], &[-0.0, 0.0][..]] {
        scratch.power_spectrum_into(xs, &mut out);
        let want = reference(xs);
        assert_eq!(out.len(), want.len());
        assert!(out.iter().zip(&want).all(|(&a, &b)| same_bits(a, b)));
    }
}
