//! A fixed-key hasher for the simulator's private lookup maps.
//!
//! std's `RandomState` draws fresh keys per process, so the same seed
//! lays out a map differently in every run: lookups cost a SipHash round
//! each, and whether an insert grows or rehashes in place differs from
//! run to run. The datapath's hashed maps are keyed by small integers
//! and tuples of them, which the Fx multiply-rotate hash (the one rustc
//! uses) spreads well at a fraction of SipHash's cost, with the same
//! layout in every process. Nothing here is exposed to untrusted keys,
//! so HashDoS resistance buys nothing.
//!
//! Maps whose iteration order is observable stay ordered (`BTreeMap`);
//! these aliases are for lookup-only maps.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`]. Build it with `default()`.
pub type HashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`]. Build it with `default()`.
pub type HashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Builds [`FxHasher`]s (stateless, so every map hashes alike).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The Fx hash: per word, rotate, xor in the word, multiply by a
/// 64-bit odd constant.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn same_key_same_hash_in_every_map() {
        assert_eq!(hash_of((3u64, 7u64)), hash_of((3u64, 7u64)));
        assert_ne!(hash_of((3u64, 7u64)), hash_of((7u64, 3u64)));
        assert_ne!(hash_of("ab"), hash_of("ba"));
    }

    #[test]
    fn maps_work_as_maps() {
        let mut m: HashMap<(u32, u64), u64> = HashMap::default();
        for i in 0..1000u64 {
            m.insert((i as u32 % 7, i), i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(3, 10)], 20);
        let s: HashSet<u64> = (0..10).collect();
        assert!(s.contains(&9) && !s.contains(&10));
    }
}
