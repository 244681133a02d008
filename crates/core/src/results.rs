//! Result collection.
//!
//! The mining algorithms report candidate quasi-cliques through a
//! [`QuasiCliqueSink`]; the paper's "result file" becomes an in-memory
//! [`QuasiCliqueSet`] (a canonicalised, de-duplicated set of vertex sets) in
//! this reproduction, with the same post-processing contract: reported sets
//! may include non-maximal quasi-cliques, which
//! [`crate::maximality::remove_non_maximal`] filters out afterwards.

use qcm_graph::VertexId;
use std::collections::BTreeSet;

/// Receiver of reported quasi-cliques.
///
/// Implementations must tolerate duplicate and non-maximal reports — the
/// divide-and-conquer algorithms intentionally over-report and rely on
/// post-processing, exactly like the paper's "append to the result file".
pub trait QuasiCliqueSink {
    /// Reports a candidate quasi-clique by its member vertex ids (in any
    /// order).
    fn report(&mut self, members: Vec<VertexId>);
}

/// A canonicalised, de-duplicated set of quasi-cliques.
///
/// Each member set is stored sorted by vertex id, so set equality and subset
/// tests are well-defined regardless of the order in which the miner visited
/// vertices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuasiCliqueSet {
    sets: BTreeSet<Vec<VertexId>>,
}

impl QuasiCliqueSet {
    /// Creates an empty result set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a quasi-clique (members in any order). Returns true if it was
    /// not already present.
    pub fn insert(&mut self, mut members: Vec<VertexId>) -> bool {
        members.sort_unstable();
        members.dedup();
        self.sets.insert(members)
    }

    /// Number of distinct quasi-cliques.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True if no quasi-cliques have been recorded.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// True if the given set (in any order) is present.
    pub fn contains(&self, members: &[VertexId]) -> bool {
        let mut key = members.to_vec();
        key.sort_unstable();
        key.dedup();
        self.sets.contains(&key)
    }

    /// True if some recorded quasi-clique is a (non-strict) superset of
    /// `members`.
    pub fn contains_superset_of(&self, members: &[VertexId]) -> bool {
        let mut needle = members.to_vec();
        needle.sort_unstable();
        needle.dedup();
        self.sets.iter().any(|s| is_sorted_subset(&needle, s))
    }

    /// Iterates over the canonical (sorted) member vectors.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<VertexId>> {
        self.sets.iter()
    }

    /// Consumes the set and returns the canonical member vectors in
    /// lexicographic order.
    pub fn into_sorted_vec(self) -> Vec<Vec<VertexId>> {
        self.sets.into_iter().collect()
    }

    /// Keeps only the sets for which `keep` returns true (members are passed
    /// in canonical sorted order). Used by the engine's post-mining result
    /// validation.
    pub fn retain_sets(&mut self, mut keep: impl FnMut(&[VertexId]) -> bool) {
        self.sets.retain(|members| keep(members));
    }
}

impl QuasiCliqueSink for QuasiCliqueSet {
    fn report(&mut self, members: Vec<VertexId>) {
        self.insert(members);
    }
}

impl QuasiCliqueSink for Vec<Vec<VertexId>> {
    fn report(&mut self, mut members: Vec<VertexId>) {
        members.sort_unstable();
        self.push(members);
    }
}

impl FromIterator<Vec<VertexId>> for QuasiCliqueSet {
    fn from_iter<T: IntoIterator<Item = Vec<VertexId>>>(iter: T) -> Self {
        let mut set = QuasiCliqueSet::new();
        for members in iter {
            set.insert(members);
        }
        set
    }
}

/// True if sorted slice `a` is a subset of sorted slice `b`.
pub(crate) fn is_sorted_subset(a: &[VertexId], b: &[VertexId]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut j = 0usize;
    for &x in a {
        // Advance j until b[j] >= x.
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<VertexId> {
        raw.iter().map(|&v| VertexId::new(v)).collect()
    }

    #[test]
    fn insert_canonicalises_and_dedups() {
        let mut set = QuasiCliqueSet::new();
        assert!(set.insert(ids(&[3, 1, 2])));
        assert!(!set.insert(ids(&[1, 2, 3])));
        assert!(!set.insert(ids(&[2, 3, 1, 1])));
        assert_eq!(set.len(), 1);
        assert!(set.contains(&ids(&[2, 1, 3])));
        assert!(!set.contains(&ids(&[1, 2])));
    }

    #[test]
    fn superset_queries() {
        let mut set = QuasiCliqueSet::new();
        set.insert(ids(&[1, 2, 3, 4]));
        set.insert(ids(&[10, 11]));
        assert!(set.contains_superset_of(&ids(&[2, 4])));
        assert!(set.contains_superset_of(&ids(&[1, 2, 3, 4])));
        assert!(!set.contains_superset_of(&ids(&[4, 10])));
        assert!(set.contains_superset_of(&[]));
    }

    #[test]
    fn vec_sink_sorts_members() {
        let mut sink: Vec<Vec<VertexId>> = Vec::new();
        sink.report(ids(&[5, 3, 4]));
        assert_eq!(sink[0], ids(&[3, 4, 5]));
    }

    #[test]
    fn sorted_subset_helper() {
        assert!(is_sorted_subset(&ids(&[1, 3]), &ids(&[1, 2, 3])));
        assert!(is_sorted_subset(&[], &ids(&[1])));
        assert!(!is_sorted_subset(&ids(&[1, 4]), &ids(&[1, 2, 3])));
        assert!(!is_sorted_subset(&ids(&[1, 2, 3]), &ids(&[1, 2])));
        assert!(is_sorted_subset(&ids(&[2]), &ids(&[1, 2, 3])));
    }

    #[test]
    fn into_sorted_vec_is_lexicographic() {
        let set: QuasiCliqueSet = vec![ids(&[5, 6]), ids(&[1, 9]), ids(&[1, 2])]
            .into_iter()
            .collect();
        let v = set.into_sorted_vec();
        assert_eq!(v, vec![ids(&[1, 2]), ids(&[1, 9]), ids(&[5, 6])]);
    }
}
