//! A fast hasher for small integer keys.
//!
//! The executor's nogood memo, subtree enumeration and the filter
//! builder's interners hash short tuples of ids and join keys, millions of
//! times per session. SipHash, the std default, spends several rounds per
//! word on resistance to crafted collisions; [`MulRotHasher`] spends one
//! rotate, xor and multiply per word and one xor-shift-multiply finalizer
//! per key. It is unkeyed, so callers whose keys come from user data must
//! bound what a colliding key set can cost: the nogood memo caps its size
//! and lives for one run. The other maps live for one round and key on
//! schema ids (edges, tables, columns) and ids the round assigns, never on
//! data values. Every user only inserts and looks keys up, never iterates,
//! so the hash function decides speed alone, never an order or an output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher: per word, rotate the state, xor the word in and
/// multiply by an odd constant.
///
/// A multiply carries entropy only upward, and the rotate moves just 5 bits
/// down per word, so the state's low bits see little of a key whose
/// variation sits in high bits or that ends in a constant word. A hash table
/// takes its bucket index from those low bits, so `finish` xor-folds the
/// high half down, multiplies, and folds again.
#[derive(Default)]
pub struct MulRotHasher(u64);

/// The odd multiplier of both the per-word step and the finalizer.
const MUL: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl MulRotHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for MulRotHasher {
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(MUL);
        h ^ (h >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` keyed with [`MulRotHasher`].
pub type MulRotMap<K, V> = HashMap<K, V, BuildHasherDefault<MulRotHasher>>;
/// A `HashSet` keyed with [`MulRotHasher`].
pub type MulRotSet<K> = HashSet<K, BuildHasherDefault<MulRotHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = MulRotHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn slices_hash_like_their_vecs() {
        // Interners look `Vec` keys up by slice, which only works if both
        // hash the same.
        let v: Vec<(usize, u32)> = vec![(1, 2), (3, 4)];
        assert_eq!(hash_of(&v), hash_of(&v[..]));
    }

    /// Distinct low-12-bit indices (the bucket bits of a 4,096-slot table)
    /// that `keys` hash to. 1,024 uniformly hashed keys hit about 906.
    fn low_indices<K: Hash>(keys: impl Iterator<Item = K>) -> usize {
        keys.map(|k| hash_of(k) & 0xfff)
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn key_shapes_spread_over_the_low_index_bits() {
        let keys = || 0..1024u64;
        let shapes = [
            ("(i, 7)", low_indices(keys().map(|i| (i as u32, 7u32)))),
            (
                "nogood (2, i, 0)",
                low_indices(keys().map(|i| (2u32, i, 0u64))),
            ),
            (
                "nogood over Decimal key bits",
                low_indices(keys().map(|i| (2u32, (i as f64).to_bits(), 0u64))),
            ),
            (
                "(i % 4, i / 4, 0)",
                low_indices(keys().map(|i| (i % 4, i / 4, 0u64))),
            ),
            (
                "filter key (i, 0, 0)",
                low_indices(keys().map(|i| (i as u32, 0u32, 0usize))),
            ),
            ("Vec<u32> [i]", low_indices(keys().map(|i| vec![i as u32]))),
        ];
        for (shape, hit) in shapes {
            assert!(hit >= 850, "{shape}: 1,024 keys hit only {hit} low indices");
        }
    }
}
