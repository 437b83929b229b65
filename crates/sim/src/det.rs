//! Deterministic associative containers.
//!
//! The repo's determinism contract — same-seed runs produce byte-identical
//! exports — dies quietly the moment a `std::collections::HashMap` or
//! `HashSet` with the default `RandomState` hasher sits on a path that
//! feeds statistics: the hasher is seeded from OS entropy per process, so
//! iteration order (and anything derived from it, like eviction-victim
//! tie-breaks or export ordering) changes run to run.
//!
//! [`DetMap`] and [`DetSet`] are the sanctioned replacements: the names
//! simulation code uses for `BTreeMap`/`BTreeSet`, which guarantee
//!
//! * iteration in strict ascending key order, identical in every process,
//! * no dependence on OS entropy, ASLR, or hasher state,
//! * `O(log n)` operations — for the simulator's table sizes (MSHRs,
//!   directory slices, in-flight slot groups) the difference from a hash
//!   table is noise, and the paper's exports are regenerated from these
//!   structures, so order stability wins.
//!
//! Rule **D1** (`clippy::disallowed_types`, listed in `clippy.toml`) rejects
//! raw `HashMap`/`HashSet` anywhere in the workspace and points offenders
//! here.
//!
//! ```
//! use fsoi_sim::det::{DetMap, DetSet};
//! let mut m: DetMap<u64, &str> = DetMap::new();
//! m.insert(3, "c");
//! m.insert(1, "a");
//! let keys: Vec<u64> = m.keys().copied().collect();
//! assert_eq!(keys, vec![1, 3], "iteration order is the key order");
//!
//! let mut s: DetSet<u64> = DetSet::new();
//! s.insert(9);
//! s.insert(4);
//! assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![4, 9]);
//! ```

use std::collections::{BTreeMap, BTreeSet};

/// A deterministic map: `BTreeMap` under the name lint rule D1 points to.
pub type DetMap<K, V> = BTreeMap<K, V>;

/// A deterministic set: `BTreeSet` under the name lint rule D1 points to.
pub type DetSet<T> = BTreeSet<T>;

/// A deterministic set of small indices (node ids) backed by a fixed
/// array of `u64` words.
///
/// The hot-path replacement for `DetSet<NodeId>` where the universe is
/// bounded by the node count (≤ [`NodeMask::CAPACITY`]): membership is one
/// shift-and-mask into the owning word, and iteration walks set bits in
/// strictly ascending index order — low word first, LSB first within each
/// word, the same order a `DetSet` would produce — so swapping one for the
/// other cannot perturb any export. Like its siblings above, it depends on
/// nothing but its own bits: no hasher, no OS entropy (lint rule D1).
///
/// The mask started life as a single `u128`; the word array exists so the
/// capacity can track design-space studies past the paper's 64-node system
/// (256-node grids) without changing the API or the iteration order any
/// byte-identity pin depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeMask {
    words: [u64; Self::WORDS],
}

impl NodeMask {
    /// Number of 64-bit words backing the mask.
    const WORDS: usize = 4;

    /// Largest index the mask can hold, exclusive.
    pub const CAPACITY: usize = Self::WORDS * 64;

    /// Creates an empty mask.
    pub fn new() -> Self {
        NodeMask {
            words: [0; Self::WORDS],
        }
    }

    /// Inserts `index`; returns true if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= CAPACITY`.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(
            index < Self::CAPACITY,
            "NodeMask index {index} out of range"
        );
        let bit = 1u64 << (index % 64);
        let word = &mut self.words[index / 64];
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes `index`; returns true if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= CAPACITY`.
    #[inline]
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(
            index < Self::CAPACITY,
            "NodeMask index {index} out of range"
        );
        let bit = 1u64 << (index % 64);
        let word = &mut self.words[index / 64];
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// True if `index` is present. Out-of-range indices are simply absent.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        index < Self::CAPACITY && self.words[index / 64] >> (index % 64) & 1 == 1
    }

    /// Number of set indices.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the mask holds nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The indices present in `self`, `other`, or both.
    #[inline]
    pub fn union(&self, other: &NodeMask) -> NodeMask {
        NodeMask {
            words: std::array::from_fn(|w| self.words[w] | other.words[w]),
        }
    }

    /// Removes every index.
    pub fn clear(&mut self) {
        self.words = [0; Self::WORDS];
    }

    /// Iterates set indices in ascending order.
    #[inline]
    pub fn iter(&self) -> NodeMaskIter {
        NodeMaskIter {
            words: self.words,
            word: 0,
        }
    }
}

impl IntoIterator for &NodeMask {
    type Item = usize;
    type IntoIter = NodeMaskIter;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<usize> for NodeMask {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut mask = NodeMask::new();
        for i in iter {
            mask.insert(i);
        }
        mask
    }
}

/// Ascending-order iterator over the set bits of a [`NodeMask`].
///
/// Walks the words low-to-high and the bits of each word LSB-first, so the
/// yielded indices are strictly ascending across word boundaries.
#[derive(Debug, Clone)]
pub struct NodeMaskIter {
    words: [u64; NodeMask::WORDS],
    word: usize,
}

impl Iterator for NodeMaskIter {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word < NodeMask::WORDS {
            let bits = self.words[self.word];
            if bits == 0 {
                self.word += 1;
                continue;
            }
            let offset = bits.trailing_zeros() as usize;
            self.words[self.word] = bits & (bits - 1); // clear the lowest set bit
            return Some(self.word * 64 + offset);
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.words[self.word..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl ExactSizeIterator for NodeMaskIter {}

#[cfg(test)]
mod tests {
    use super::*;

    // D1 and D3's types have no sanctioned site in the tree, so nothing
    // else would notice their clippy.toml entries being dropped: these
    // two `#[expect]`s go unfulfilled, and the gate red, if one is.
    #[test]
    #[expect(clippy::disallowed_types, reason = "control: D1 fires on HashMap")]
    fn lint_d1_fires_on_a_default_hasher_map() {
        assert!(std::collections::HashMap::<u8, u8>::new().is_empty());
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "control: D3 fires on Mutex")]
    fn lint_d3_fires_on_a_lock() {
        assert_eq!(std::sync::Mutex::new(0u8).into_inner().ok(), Some(0));
    }

    #[test]
    fn map_iterates_in_key_order() {
        let mut m = DetMap::new();
        for k in [5u64, 1, 9, 3] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u64> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
        assert_eq!(m.len(), 4);
        assert_eq!(m.get(&5), Some(&50));
        assert_eq!(m.remove(&5), Some(50));
        assert!(!m.contains_key(&5));
    }

    #[test]
    fn node_mask_matches_det_set_semantics() {
        let mut mask = NodeMask::new();
        let mut set: DetSet<usize> = DetSet::new();
        for i in [5usize, 1, 127, 5, 64, 0] {
            assert_eq!(mask.insert(i), set.insert(i), "insert({i})");
        }
        assert_eq!(mask.len(), set.len());
        assert!(!mask.is_empty());
        for i in 0..NodeMask::CAPACITY {
            assert_eq!(mask.contains(i), set.contains(&i), "contains({i})");
        }
        // Iteration order is ascending, exactly like the BTree set.
        let from_mask: Vec<usize> = mask.iter().collect();
        let from_set: Vec<usize> = set.iter().copied().collect();
        assert_eq!(from_mask, from_set);
        assert_eq!(mask.iter().len(), mask.len());
        assert_eq!(mask.remove(64), set.remove(&64));
        assert_eq!(mask.remove(64), set.remove(&64), "double remove is false");
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![0, 1, 5, 127]);
        mask.clear();
        assert!(mask.is_empty() && mask.iter().next().is_none());
    }

    #[test]
    fn node_mask_crosses_word_boundaries_in_order() {
        // One bit on each side of every 64-bit word seam, inserted in a
        // scrambled order: iteration must come back strictly ascending.
        let boundaries = [64usize, 255, 0, 128, 63, 192, 127, 191];
        let mut mask = NodeMask::new();
        for i in boundaries {
            assert!(mask.insert(i), "insert({i})");
        }
        assert_eq!(
            mask.iter().collect::<Vec<_>>(),
            vec![0, 63, 64, 127, 128, 191, 192, 255]
        );
        assert_eq!(mask.len(), 8);
        assert!(mask.remove(255) && !mask.contains(255));
        assert!(mask.contains(192), "neighbors survive a boundary remove");
        assert_eq!(mask.iter().last(), Some(192));
    }

    #[test]
    fn node_mask_union_is_word_wise_or() {
        let a: NodeMask = [1usize, 64, 200].into_iter().collect();
        let b: NodeMask = [1usize, 63, 255].into_iter().collect();
        assert_eq!(
            a.union(&b).iter().collect::<Vec<_>>(),
            vec![1, 63, 64, 200, 255]
        );
        assert_eq!(a.union(&NodeMask::new()), a);
    }

    #[test]
    fn node_mask_round_trips_from_iterator() {
        let mask: NodeMask = [9usize, 3, 100].into_iter().collect();
        assert_eq!((&mask).into_iter().collect::<Vec<_>>(), vec![3, 9, 100]);
        assert!(!mask.contains(4));
        assert!(!mask.contains(usize::MAX), "out of range is just absent");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_mask_insert_past_capacity_panics() {
        NodeMask::new().insert(NodeMask::CAPACITY);
    }
}
