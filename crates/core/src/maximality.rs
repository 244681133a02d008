//! Maximality post-processing.
//!
//! The divide-and-conquer search intentionally reports some non-maximal
//! quasi-cliques: a task mining the subtree `T_{S}` has no visibility into
//! results found by sibling tasks (Section 3.1 of the paper), and the
//! time-delayed decomposition loses track of its children's findings
//! (Algorithm 10 lines 23–24). The paper removes those in a post-processing
//! step; this module implements it.

use crate::results::{is_sorted_subset, QuasiCliqueSet};
use qcm_graph::VertexId;
use std::collections::HashMap;

/// Removes every set that is a strict subset of another reported set.
///
/// A set-containment join (Bouros et al., *Set Containment Join Revisited*,
/// KAIS 2016): the sets are visited by decreasing size, and each one that
/// survives is added to the posting list of every member. A superset of a
/// candidate contains each of its members, so the candidate is tested, by
/// one sorted merge, only against the larger sets in the posting list of
/// its member with the shortest list; a member no kept set holds clears it
/// at once. The cost follows the overlap of the family rather than its size
/// squared.
pub fn remove_non_maximal(results: QuasiCliqueSet) -> QuasiCliqueSet {
    let sets = by_decreasing_size(results);
    // Kept set indices per member, in the order they were kept.
    let mut postings: HashMap<VertexId, Vec<u32>> = HashMap::new();
    let mut keep = vec![false; sets.len()];
    for (i, candidate) in sets.iter().enumerate() {
        let shortest = candidate
            .iter()
            .map(|v| postings.get(v).map_or(&[][..], Vec::as_slice))
            .min_by_key(|list| list.len());
        let dominated = match shortest {
            // A list runs longest set first, so only its prefix of sets
            // larger than the candidate can hold a strict superset.
            Some(list) => {
                let larger = list.partition_point(|&k| sets[k as usize].len() > candidate.len());
                list[..larger]
                    .iter()
                    .any(|&k| is_sorted_subset(candidate, &sets[k as usize]))
            }
            // The empty set is below any non-empty set, and the longest set
            // came first and was kept.
            None => !sets[0].is_empty(),
        };
        if !dominated {
            keep[i] = true;
            for &v in candidate {
                postings.entry(v).or_default().push(i as u32);
            }
        }
    }
    sets.into_iter()
        .zip(keep)
        .filter_map(|(set, kept)| kept.then_some(set))
        .collect()
}

/// The canonical member vectors of `results`, longest first; ties in
/// canonical (lexicographic) order so a filter's visiting order is
/// deterministic.
fn by_decreasing_size(results: QuasiCliqueSet) -> Vec<Vec<VertexId>> {
    let mut sets = results.into_sorted_vec();
    sets.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    sets
}

/// The quadratic filter [`remove_non_maximal`] replaced: every candidate
/// against every kept set. The join's test oracle.
#[cfg(test)]
fn remove_non_maximal_quadratic(results: QuasiCliqueSet) -> QuasiCliqueSet {
    let mut kept: Vec<Vec<VertexId>> = Vec::new();
    for candidate in by_decreasing_size(results) {
        let dominated = kept
            .iter()
            .any(|k| k.len() > candidate.len() && is_sorted_subset(&candidate, k));
        if !dominated {
            kept.push(candidate);
        }
    }
    kept.into_iter().collect()
}

/// Checks that every set in `results` is maximal with respect to the others
/// (no strict-subset pairs). Used by tests and debug assertions.
pub fn is_maximal_family(results: &QuasiCliqueSet) -> bool {
    let sets: Vec<&Vec<VertexId>> = results.iter().collect();
    for (i, a) in sets.iter().enumerate() {
        for (j, b) in sets.iter().enumerate() {
            if i != j && a.len() < b.len() && is_sorted_subset(a, b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(raw: &[u32]) -> Vec<VertexId> {
        raw.iter().map(|&v| VertexId::new(v)).collect()
    }

    #[test]
    fn strict_subsets_are_removed() {
        let results: QuasiCliqueSet = vec![
            ids(&[1, 2, 3]),
            ids(&[1, 2]),
            ids(&[2, 3]),
            ids(&[4, 5]),
            ids(&[1, 2, 3, 9]),
        ]
        .into_iter()
        .collect();
        let maximal = remove_non_maximal(results);
        assert_eq!(maximal.len(), 2);
        assert!(maximal.contains(&ids(&[1, 2, 3, 9])));
        assert!(maximal.contains(&ids(&[4, 5])));
        assert!(!maximal.contains(&ids(&[1, 2, 3])));
        assert!(!maximal.contains(&ids(&[1, 2])));
        assert!(is_maximal_family(&maximal));
    }

    #[test]
    fn equal_sets_are_kept_once() {
        let mut results = QuasiCliqueSet::new();
        results.insert(ids(&[7, 8, 9]));
        results.insert(ids(&[9, 8, 7]));
        let maximal = remove_non_maximal(results);
        assert_eq!(maximal.len(), 1);
    }

    #[test]
    fn incomparable_sets_all_survive() {
        let results: QuasiCliqueSet = vec![ids(&[1, 2, 3]), ids(&[2, 3, 4]), ids(&[3, 4, 5])]
            .into_iter()
            .collect();
        let maximal = remove_non_maximal(results.clone());
        assert_eq!(maximal, results);
        assert!(is_maximal_family(&maximal));
    }

    #[test]
    fn empty_input_is_fine() {
        let maximal = remove_non_maximal(QuasiCliqueSet::new());
        assert!(maximal.is_empty());
        assert!(is_maximal_family(&maximal));
    }

    #[test]
    fn is_maximal_family_detects_violations() {
        let bad: QuasiCliqueSet = vec![ids(&[1, 2]), ids(&[1, 2, 3])].into_iter().collect();
        assert!(!is_maximal_family(&bad));
    }

    #[test]
    fn the_empty_set_falls_only_below_a_non_empty_one() {
        let alone: QuasiCliqueSet = vec![ids(&[])].into_iter().collect();
        assert_eq!(remove_non_maximal(alone.clone()), alone);
        let below: QuasiCliqueSet = vec![ids(&[]), ids(&[4])].into_iter().collect();
        assert_eq!(remove_non_maximal(below).len(), 1);
    }

    /// A family over a small universe, so sets overlap and nest: random sets
    /// (some repeated, since `ids` of the same members insert once), each
    /// followed by a chain of its own prefixes and an equal-size neighbour.
    fn arb_family() -> impl Strategy<Value = Vec<Vec<VertexId>>> {
        proptest::collection::vec(
            (proptest::collection::vec(0u32..14, 0..9), 0usize..4, 0u8..2),
            0..40,
        )
        .prop_map(|seeds| {
            let mut family = Vec::new();
            for (mut set, chain, sibling) in seeds {
                set.sort_unstable();
                set.dedup();
                family.push(ids(&set));
                family.push(ids(&set));
                for cut in 1..=chain.min(set.len()) {
                    family.push(ids(&set[..set.len() - cut]));
                }
                if sibling == 1 && !set.is_empty() {
                    let mut other = set.clone();
                    let last = other.len() - 1;
                    other[last] = (other[last] + 1) % 14;
                    family.push(ids(&other));
                }
            }
            family
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_join_equals_the_quadratic_filter(family in arb_family()) {
            let results: QuasiCliqueSet = family.into_iter().collect();
            let joined = remove_non_maximal(results.clone());
            prop_assert!(is_maximal_family(&joined));
            prop_assert_eq!(joined, remove_non_maximal_quadratic(results));
        }
    }
}
