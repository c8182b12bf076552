//! The workspace's one hasher for keys the simulation assigns.
//!
//! Enclave ids, thread tokens and table addresses are handed out by the
//! simulator and the SDK, not read from input files, so nobody can choose
//! them to collide. For such keys SipHash's resistance to chosen
//! collisions buys nothing, and the record path hashes them several
//! times per call. [`IntMap`] and [`IntSet`] hash them with one multiply
//! instead.
//!
//! Keys that come from EDL or trace files (interface names, the
//! analyzer's tables) stay on the standard library's SipHash: a
//! one-multiply hash lets a crafted file force every key into one bucket.
//!
//! # Examples
//!
//! ```
//! use sim_core::IntMap;
//!
//! let mut enclaves: IntMap<u32, &str> = IntMap::default();
//! enclaves.insert(7, "seven");
//! assert_eq!(enclaves.get(&7), Some(&"seven"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes integer keys (thread tokens, enclave ids and table addresses)
/// with one multiply instead of SipHash. See the [module docs](self) for
/// which keys may use it.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // The table picks buckets from the low bits, which a multiply
        // leaves as unmixed as the key's (table addresses end in zeros).
        self.0.rotate_left(26)
    }
}

/// A `HashMap` over keys the simulation assigns, hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` over keys the simulation assigns, hashed by [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn widths_of_one_value_hash_alike() {
        assert_eq!(hash_of(7u32), hash_of(7u64));
        assert_eq!(hash_of(7usize), hash_of(7u64));
    }

    #[test]
    fn aligned_addresses_spread_over_the_low_bits() {
        // Addresses 64 bytes apart must not all land in one bucket of a
        // 64-bucket table.
        let buckets: IntSet<u64> = (0..64u64).map(|i| hash_of(i * 64) & 63).collect();
        assert!(buckets.len() > 32, "{} buckets", buckets.len());
    }

    #[test]
    fn maps_work_with_derived_keys() {
        #[derive(PartialEq, Eq, Hash)]
        struct Token(usize);
        let mut map: IntMap<Token, u32> = IntMap::default();
        for i in 0..1_000 {
            map.insert(Token(i), i as u32);
        }
        assert_eq!(map.len(), 1_000);
        assert_eq!(map.get(&Token(999)), Some(&999));
        assert!(!map.contains_key(&Token(usize::MAX)));
    }
}
