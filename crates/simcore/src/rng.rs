//! Deterministic random-number generation.
//!
//! Every stochastic component of the testbed draws from its own named
//! stream derived from the experiment's master seed. Named streams mean
//! that adding a new random consumer does not perturb the draws seen by
//! existing components — a property we rely on when comparing the
//! virtualized and non-virtualized deployments under the same seed.
//!
//! The generator is xoshiro256** seeded through SplitMix64, implemented
//! locally so the simulation core does not depend on the exact stream
//! layout of any external crate version.

use rand::{Error, RngCore, SeedableRng};

/// SplitMix64 step, used for seeding and for hashing stream names.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string; stable across platforms and releases.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A xoshiro256** generator.
///
/// Implements [`rand::RngCore`] so it composes with `rand`'s distribution
/// adaptors where convenient, while all simulation-critical sampling goes
/// through [`crate::dist`].
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro256** must not be seeded with all zeros; splitmix64 of any
        // seed cannot produce four zero outputs, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        SimRng { s }
    }

    /// Derive an independent named stream from this generator's seed space.
    ///
    /// The same `(master seed, name)` pair always yields the same stream,
    /// regardless of how many other streams were derived or in what order.
    pub fn derive(&self, name: &str) -> SimRng {
        let mixed = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ fnv1a(name.as_bytes());
        SimRng::new(mixed)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64_raw(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `(0, 1]`; never returns exactly zero, which makes it
    /// safe as input to `ln()` in inverse-CDF sampling.
    #[inline]
    pub fn f64_open(&mut self) -> f64 {
        ((self.next_u64_raw() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's rejection method.
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64_raw();
            let m = u128::from(x) * u128::from(bound);
            let low = m as u64;
            if low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
            // Rejected a biased sample; draw again.
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive: lo > hi");
        if lo == hi {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Pick a uniformly random element of `items`; `None` when empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64_raw() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next_u64_raw()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64_raw().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for SimRng {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        SimRng::new(u64::from_le_bytes(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_is_stable_and_independent_of_consumption() {
        let root = SimRng::new(7);
        let d1 = root.derive("disk");
        let mut consumed = root.clone();
        for _ in 0..100 {
            consumed.next_u64_raw();
        }
        // Deriving is a pure function of the *initial* state we derive from.
        let d2 = root.derive("disk");
        let mut x = d1;
        let mut y = d2;
        for _ in 0..100 {
            assert_eq!(x.next_u64_raw(), y.next_u64_raw());
        }
    }

    #[test]
    fn derived_streams_differ_by_name() {
        let root = SimRng::new(7);
        let mut a = root.derive("alpha");
        let mut b = root.derive("beta");
        let same = (0..64)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 per bucket; allow generous 10% slack.
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut r = SimRng::new(5);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            match r.range_inclusive(3, 5) {
                3 => lo_seen = true,
                5 => hi_seen = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(9);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }

    #[test]
    fn pick_empty_is_none() {
        let mut r = SimRng::new(1);
        let empty: &[u32] = &[];
        assert!(r.pick(empty).is_none());
        assert_eq!(r.pick(&[42]).copied(), Some(42));
    }

    #[test]
    fn fill_bytes_partial_chunk() {
        let mut r = SimRng::new(1);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        // Not all zero, overwhelmingly likely.
        assert!(buf.iter().any(|&b| b != 0));
    }
}
