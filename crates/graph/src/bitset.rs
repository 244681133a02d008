//! Fixed-capacity vertex bitsets.
//!
//! [`VertexBitSet`] is the dense-set workhorse of the hybrid neighborhood
//! index (see [`crate::neighborhoods`]): one bit per vertex of a graph's
//! (local or global) index space, packed into `u64` words. Membership tests
//! are `O(1)` and set intersection is word-parallel — 64 candidate vertices
//! per AND instruction — which is what turns the miner's `O(log d)`
//! binary-search edge queries and `O(|A| + |B|)` sorted-merge intersections
//! into `O(1)` / `O(n / 64)` operations on high-degree (hub) vertices.
//!
//! A [`crate::LocalGraph`] keeps its neighbor rows in one flat word matrix, so
//! the kernels also come in a *row* form that takes a borrowed `&[u64]` word
//! slice laid out exactly like a set's own words (`*_row` methods,
//! [`row_contains`]).

/// True if id `v` is set in the borrowed word row `row`.
#[inline]
pub fn row_contains(row: &[u64], v: u32) -> bool {
    let i = v as usize;
    (row[i >> 6] >> (i & 63)) & 1 != 0
}

/// Keeps the items of `items` for which `keep(index, item)` holds, in their
/// order, and returns how many were dropped. No branch per item: each item
/// is written to the next free slot, which then advances by the predicate's
/// 0 or 1 — a data-dependent filter that keeps about half its input costs a
/// mispredict per item otherwise.
#[inline]
pub fn compact(items: &mut Vec<u32>, mut keep: impl FnMut(usize, u32) -> bool) -> usize {
    let len = items.len();
    let mut write = 0usize;
    for read in 0..len {
        let item = items[read];
        items[write] = item;
        write += usize::from(keep(read, item));
    }
    items.truncate(write);
    len - write
}

/// `|a ∩ b|` over two word rows of equal length.
#[inline]
fn and_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x & y).count_ones() as usize)
        .sum()
}

/// A fixed-capacity set of `u32` vertex ids backed by packed `u64` words.
///
/// The capacity is fixed at construction. Mutators ([`VertexBitSet::insert`],
/// [`VertexBitSet::remove`]) panic on ids `>= capacity` in every build — an
/// id landing in the last word's slack bits would otherwise silently corrupt
/// [`VertexBitSet::len`]/[`VertexBitSet::iter`]. Read paths
/// ([`VertexBitSet::contains`]) only debug-assert: a slack bit can never be
/// set, so an in-allocation out-of-range read harmlessly answers `false`,
/// and the hot edge-query loop stays a single word probe.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct VertexBitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl VertexBitSet {
    /// Creates an empty set able to hold ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let mut set = VertexBitSet::default();
        set.reset(capacity);
        set
    }

    /// Creates a set holding exactly the given ids (need not be sorted).
    pub fn from_members(capacity: usize, members: &[u32]) -> Self {
        let mut set = VertexBitSet::new(capacity);
        for &v in members {
            set.insert(v);
        }
        set
    }

    /// The fixed id capacity (one past the largest storable id).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if `v` is in the set.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        debug_assert!(
            (v as usize) < self.capacity,
            "id {v} out of range {}",
            self.capacity
        );
        row_contains(&self.words, v)
    }

    /// The packed words: id `i` is bit `i & 63` of word `i >> 6`.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Inserts `v`; returns true if it was newly added.
    ///
    /// # Panics
    /// Panics if `v >= capacity`.
    #[inline]
    pub fn insert(&mut self, v: u32) -> bool {
        let i = v as usize;
        assert!(i < self.capacity, "id {v} out of range {}", self.capacity);
        let word = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Removes `v`; returns true if it was present.
    ///
    /// # Panics
    /// Panics if `v >= capacity`.
    #[inline]
    pub fn remove(&mut self, v: u32) -> bool {
        let i = v as usize;
        assert!(i < self.capacity, "id {v} out of range {}", self.capacity);
        let word = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// Removes `v` when `cond` holds, without a branch on `cond`. Only
    /// debug-asserts the range, like [`VertexBitSet::contains`]: clearing a
    /// slack bit changes nothing.
    #[inline]
    pub fn remove_if(&mut self, v: u32, cond: bool) {
        debug_assert!(
            (v as usize) < self.capacity,
            "id {v} out of range {}",
            self.capacity
        );
        let i = v as usize;
        self.words[i >> 6] &= !(u64::from(cond) << (i & 63));
    }

    /// Makes `self` a copy of `other`, capacity included, reusing the word
    /// buffer.
    pub fn copy_from(&mut self, other: &VertexBitSet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.capacity = other.capacity;
    }

    /// Removes every member (keeps the capacity).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Clears the set and re-targets it to a (possibly different) capacity,
    /// reusing the existing word buffer whenever it is large enough. This is
    /// what lets a scratch pool recycle bitsets across task subgraphs of
    /// different sizes without reallocating.
    pub fn reset(&mut self, capacity: usize) {
        let words = capacity.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
        self.capacity = capacity;
    }

    /// Number of members (popcount over all words).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `|self ∩ other|` by word-parallel AND + popcount. The sets must have
    /// the same capacity.
    pub fn intersection_count(&self, other: &VertexBitSet) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        and_count(&self.words, &other.words)
    }

    /// `|self ∩ row|` for a borrowed word row of the same width.
    #[inline]
    pub fn intersection_count_row(&self, row: &[u64]) -> usize {
        and_count(&self.words, row)
    }

    /// `self ← self ∩ other` (word-parallel). The sets must have the same
    /// capacity.
    pub fn intersect_with(&mut self, other: &VertexBitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        self.intersect_with_row(&other.words);
    }

    /// `self ← self ∩ row` for a borrowed word row of the same width.
    #[inline]
    pub fn intersect_with_row(&mut self, row: &[u64]) {
        debug_assert_eq!(self.words.len(), row.len());
        for (a, &b) in self.words.iter_mut().zip(row) {
            *a &= b;
        }
    }

    /// `self ← a ∩ b` for two word rows of this set's width; returns the new
    /// member count. One pass, no clearing first.
    #[inline]
    pub fn assign_intersection(&mut self, a: &[u64], b: &[u64]) -> usize {
        debug_assert!(self.words.len() == a.len() && a.len() == b.len());
        let mut count = 0usize;
        for ((out, &x), &y) in self.words.iter_mut().zip(a).zip(b) {
            *out = x & y;
            count += out.count_ones() as usize;
        }
        count
    }

    /// `self ← self ∪ other` (word-parallel). The sets must have the same
    /// capacity.
    pub fn union_with(&mut self, other: &VertexBitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        self.union_with_row(&other.words);
    }

    /// `self ← self ∪ row` for a borrowed word row of the same width.
    #[inline]
    pub fn union_with_row(&mut self, row: &[u64]) {
        debug_assert_eq!(self.words.len(), row.len());
        for (a, &b) in self.words.iter_mut().zip(row) {
            *a |= b;
        }
    }

    /// One step of a bitset flood: adds `(row ∩ within) \ self` to `self` and
    /// appends the newly added ids to `fresh` in increasing order.
    pub fn absorb_new(&mut self, row: &[u64], within: &VertexBitSet, fresh: &mut Vec<u32>) {
        debug_assert!(self.words.len() == row.len() && row.len() == within.words.len());
        for (wi, ((seen, &r), &w)) in self
            .words
            .iter_mut()
            .zip(row)
            .zip(&within.words)
            .enumerate()
        {
            let new = r & w & !*seen;
            if new != 0 {
                *seen |= new;
                fresh.extend(BitIter {
                    word: new,
                    base: (wi as u32) << 6,
                });
            }
        }
    }

    /// Iterates the members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let base = (wi as u32) << 6;
            BitIter { word, base }
        })
    }

    /// Heap footprint of the word array in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

/// Iterator over the set bits of one word (lowest first).
struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = VertexBitSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports not-fresh");
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 3);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 130);
    }

    #[test]
    fn from_members_and_iter_are_sorted() {
        let s = VertexBitSet::from_members(200, &[150, 3, 64, 3, 65]);
        let got: Vec<u32> = s.iter().collect();
        assert_eq!(got, vec![3, 64, 65, 150]);
    }

    #[test]
    fn intersection_matches_sorted_merge() {
        let a = VertexBitSet::from_members(256, &[1, 5, 64, 70, 128, 200]);
        let b = VertexBitSet::from_members(256, &[5, 64, 71, 128, 255]);
        assert_eq!(a.intersection_count(&b), 3);
        let mut c = a.clone();
        c.intersect_with(&b);
        let got: Vec<u32> = c.iter().collect();
        assert_eq!(got, vec![5, 64, 128]);
        let mut d = a.clone();
        d.union_with(&b);
        assert_eq!(d.len(), a.len() + b.len() - 3);
    }

    #[test]
    fn remove_if_and_copy_from() {
        let mut s = VertexBitSet::from_members(130, &[0, 63, 64, 129]);
        s.remove_if(63, false);
        s.remove_if(64, true);
        s.remove_if(5, true);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 129]);
        let mut t = VertexBitSet::new(7);
        t.copy_from(&s);
        assert_eq!(t, s);
    }

    #[test]
    fn zero_capacity_is_fine() {
        let s = VertexBitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn memory_is_one_bit_per_capacity_slot() {
        let s = VertexBitSet::new(1024);
        assert_eq!(s.memory_bytes(), 1024 / 8);
        // Capacity rounds up to the next word.
        assert_eq!(VertexBitSet::new(65).memory_bytes(), 16);
    }
}
