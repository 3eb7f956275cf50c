//! A fast deterministic hasher for the simulator's integer keys.
//!
//! The standard `HashMap` hashes with SipHash under per-process random
//! keys: resistant to keys crafted to collide, but costly on the store
//! barrier and compaction paths, and it makes iteration order vary from
//! run to run. Every map here is keyed by values the simulator makes
//! itself (slots, object references, workload keys), so a folded
//! multiply suffices, and its iteration order is the same in every run —
//! still arbitrary, so code that must not depend on it sorts first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes each word `w` as `fold(state ^ w)`, where `fold` multiplies
/// by an odd constant to 128 bits and xors the two halves.
#[derive(Debug, Clone, Copy)]
pub struct FoldHasher(u64);

impl Default for FoldHasher {
    fn default() -> Self {
        FoldHasher(0x243F_6A88_85A3_08D3)
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let full = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (full as u64) ^ ((full >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`FoldHasher`].
pub type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// A `HashSet` hashed with [`FoldHasher`].
pub type FoldSet<T> = HashSet<T, BuildHasherDefault<FoldHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<FoldHasher>::default().hash_one(value)
    }

    #[test]
    fn hashes_repeat_across_hashers() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_ne!(hash_of(42u64), hash_of(43u64));
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
    }

    #[test]
    fn sequential_keys_spread_over_buckets() {
        // The table indexes by the low bits: 4096 consecutive keys must
        // reach most of 4096 buckets, not a stride of them.
        let buckets: FoldSet<u64> = (0..4096u64).map(|k| hash_of(k) & 4095).collect();
        assert!(buckets.len() > 2400, "only {} of 4096 buckets used", buckets.len());
    }
}
