//! A small deterministic hasher for integer-keyed maps.
//!
//! The simulator's hot maps are keyed by sequential ids (in-flight
//! requests, cancelled event sequence numbers) or by page addresses.
//! The standard library's SipHash is seeded per process and costs far
//! more than such keys need. [`IntHasher`] folds each written word with
//! one rotate, xor and multiply (the Fx construction). A product's low
//! bits depend only on the key's low bits, and the table picks a bucket
//! from the hash's low bits, so `finish` rotates the well-mixed high
//! bits down: keys that differ only in their high bits (page addresses
//! at a large base, ids shifted left) still spread over the buckets. It
//! has no seed, so the maps behave identically in every process.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x517c_c1b7_2722_0a95;

/// Seedless multiplicative hasher for integer-like keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// A `HashMap` hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed with [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    #[test]
    fn hashing_is_seedless() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of(42u64), 42u64.wrapping_mul(K).rotate_left(26));
        assert_eq!(hash_of((1u8, 7u64)), hash_of((1u8, 7u64)));
    }

    /// Most keys a bucket of the low ten hash bits receives, over 1024
    /// keys.
    fn max_low_bucket_load(keys: impl Iterator<Item = u64>) -> usize {
        let mut load = [0usize; 1024];
        for k in keys {
            load[(hash_of(k) & 1023) as usize] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn keys_spread_over_low_buckets() {
        // Sequential ids, and keys that differ only in their high bits.
        assert!(max_low_bucket_load(0..1024u64) <= 4);
        assert!(max_low_bucket_load((0..1024u64).map(|k| k << 20)) <= 4);
        assert!(max_low_bucket_load((0..1024u64).map(|k| k << 40)) <= 4);
    }

    #[test]
    fn byte_writes_hash_every_byte() {
        let mut a = IntHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = IntHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn maps_round_trip() {
        let mut m: IntMap<u64, u32> = IntMap::default();
        for k in 0..10_000u64 {
            m.insert(k << 20, k as u32);
        }
        assert!((0..10_000u64).all(|k| m[&(k << 20)] == k as u32));
    }
}
