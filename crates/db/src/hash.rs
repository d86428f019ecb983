//! A fast hasher for small integer keys.
//!
//! The executor's nogood memo, subtree enumeration and the filter
//! builder's interners hash short tuples of ids and join keys, millions of
//! times per session. SipHash, the std default, spends several rounds per
//! word on resistance to crafted collisions; [`MulRotHasher`] spends one
//! rotate, xor and multiply. It is unkeyed, so callers whose keys come from
//! user data must bound what a colliding key set can cost: the nogood memo
//! caps its size and lives for one run. The other maps live for one round
//! and key on schema ids (edges, tables, columns) and ids the round
//! assigns, never on data values.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher: per word, rotate the state, xor the word in and
/// multiply by an odd constant; `finish` rotates the product's well-mixed
/// high bits into the low bits a hash table indexes by.
#[derive(Default)]
pub struct MulRotHasher(u64);

impl MulRotHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for MulRotHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
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
}
