//! Small utilities: a fast, non-cryptographic hasher for vertex keys and the
//! hash-set/map aliases built on it.
//!
//! The enumeration algorithms do one or two hash lookups per visited edge
//! (`on_path`, `blocked`), so the default SipHash hasher of the standard
//! library would dominate the profile. We use the FxHash mixing function
//! (the one rustc uses) re-implemented here in a few lines rather than adding
//! an external dependency.

use pce_graph::VertexId;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash mixing constant (64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A minimal FxHash-style hasher: word-at-a-time multiply-rotate mixing.
/// Not HashDoS-resistant; the keys here are internal dense vertex ids.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Creates an empty [`FxHashSet`].
pub fn fx_set<T>() -> FxHashSet<T> {
    FxHashSet::default()
}

/// Creates an empty [`FxHashMap`].
pub fn fx_map<K, V>() -> FxHashMap<K, V> {
    FxHashMap::default()
}

/// A set of dense vertex ids that empties in O(1): a vertex is a member
/// while its stamp equals the current epoch, so [`reset`](Self::reset) only
/// bumps the epoch. The search's path-membership test reads one slot instead
/// of hashing.
#[derive(Debug, Default, Clone)]
pub(crate) struct VertexMarks {
    stamps: Vec<u32>,
    /// Never 0 after the first reset, so a cleared slot (0) is never a
    /// member.
    epoch: u32,
}

impl VertexMarks {
    /// Empties the set and makes room for the vertices `0..n`.
    pub(crate) fn reset(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// The number of vertex slots (the `n` of the largest reset so far).
    pub(crate) fn universe(&self) -> usize {
        self.stamps.len()
    }

    #[inline]
    pub(crate) fn insert(&mut self, v: VertexId) {
        self.stamps[v as usize] = self.epoch;
    }

    #[inline]
    pub(crate) fn remove(&mut self, v: VertexId) {
        self.stamps[v as usize] = 0;
    }

    #[inline]
    pub(crate) fn contains(&self, v: VertexId) -> bool {
        self.stamps[v as usize] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_map_behave_like_std() {
        let mut set = fx_set();
        for i in 0..1000u32 {
            assert!(set.insert(i));
        }
        for i in 0..1000u32 {
            assert!(set.contains(&i));
            assert!(!set.insert(i));
        }
        assert_eq!(set.len(), 1000);

        let mut map = fx_map();
        for i in 0..100u32 {
            map.insert(i, i * 2);
        }
        assert_eq!(map.get(&40), Some(&80));
        assert_eq!(map.len(), 100);
    }

    #[test]
    fn hasher_distributes_small_keys() {
        // Sanity check: sequential u32 keys should not all collide in the low
        // bits (which HashMap uses for bucketing).
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..64u32 {
            let mut h = build.build_hasher();
            h.write_u32(i);
            low_bits.insert(h.finish() & 0x3f);
        }
        assert!(
            low_bits.len() > 16,
            "too many collisions: {}",
            low_bits.len()
        );
    }

    #[test]
    fn vertex_marks_reset_in_place() {
        let mut marks = VertexMarks::default();
        marks.reset(4);
        marks.insert(1);
        marks.insert(3);
        assert!(marks.contains(1) && marks.contains(3) && !marks.contains(0));
        marks.remove(3);
        assert!(!marks.contains(3));
        marks.reset(6);
        assert_eq!(marks.universe(), 6);
        assert!((0..6).all(|v| !marks.contains(v)));
        // Epoch wrap-around clears every stamp instead of reviving them.
        marks.insert(2);
        marks.epoch = u32::MAX;
        marks.insert(5);
        marks.reset(6);
        assert!((0..6).all(|v| !marks.contains(v)));
    }

    #[test]
    fn hasher_handles_arbitrary_bytes() {
        let mut h = FxHasher::default();
        h.write(b"hello world, this is more than eight bytes");
        let a = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(b"hello world, this is more than eight bytez");
        assert_ne!(a, h2.finish());
    }
}
