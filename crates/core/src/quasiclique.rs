//! Quasi-clique definition checks over a task subgraph.
//!
//! Implements Definitions 1–2 of the paper: a γ-quasi-clique is a *connected*
//! subgraph in which every vertex is adjacent to at least `⌈γ·(|S|−1)⌉` of
//! the other vertices; a maximal one has no strict superset that is also a
//! γ-quasi-clique. This is the check the recursion runs at every lookahead
//! and every `G(S)` examination, so it works on scratch frames and bit rows;
//! the global-graph validators live in [`crate::validate`].

use crate::params::MiningParams;
use crate::scratch::MiningScratch;
use qcm_graph::neighborhoods::perf;
use qcm_graph::{LocalGraph, VertexBitSet};

/// Checks whether the set of *local* vertex indices `s` (duplicate-free)
/// induces a γ-quasi-clique in the task subgraph `g`.
///
/// The check follows Definition 1 exactly: the induced subgraph must be
/// connected and every member must meet the degree threshold. A single vertex
/// is a quasi-clique; the empty set is not.
///
/// A member with a bit row counts its degree as `popcount(row & members)` and
/// floods by `row & members & !reached`; one without walks its adjacency
/// list. All working sets are `scratch` frames.
pub fn is_quasi_clique_local(
    g: &LocalGraph,
    s: &[u32],
    params: &MiningParams,
    scratch: &mut MiningScratch,
) -> bool {
    let mut members = scratch.take_bitset(g.capacity());
    for &v in s {
        members.insert(v);
    }
    let holds = is_quasi_clique_of(g, s, &[], &members, params, scratch);
    scratch.put_bitset(members);
    holds
}

/// [`is_quasi_clique_local`] on the set `head ∪ tail` of two disjoint lists,
/// with `members` that set as a bitset sized to `g`: the lookahead's
/// `S ∪ ext(S)`, which the search already holds as two slices and a bitset.
/// Degrees are checked in list order, `head` first; the flood starts from
/// the first member.
pub(crate) fn is_quasi_clique_of(
    g: &LocalGraph,
    head: &[u32],
    tail: &[u32],
    members: &VertexBitSet,
    params: &MiningParams,
    scratch: &mut MiningScratch,
) -> bool {
    let n = head.len() + tail.len();
    if n < 2 {
        return n == 1;
    }
    debug_assert_eq!(members.len(), n);
    debug_assert!(head.iter().chain(tail).all(|&v| members.contains(v)));
    let required = params.required_degree(n);
    // Degree check.
    let mut row_counts = 0u64;
    let degrees_ok = head.iter().chain(tail).all(|&v| {
        let d = match g.hub_row(v) {
            Some(row) => {
                row_counts += 1;
                members.intersection_count_row(row)
            }
            None => g
                .neighbors(v)
                .iter()
                .filter(|&&w| members.contains(w))
                .count(),
        };
        d >= required
    });
    perf::count_intersections(row_counts);
    let Some(&first) = head.first().or(tail.first()) else {
        return false;
    };
    if !degrees_ok {
        return false;
    }
    // Connectivity: flood the member set from its first vertex.
    let mut reached = scratch.take_bitset(g.capacity());
    let mut frontier = scratch.take_vec();
    reached.insert(first);
    frontier.push(first);
    let mut count = 0usize;
    while let Some(u) = frontier.pop() {
        count += 1;
        match g.hub_row(u) {
            Some(row) => reached.absorb_new(row, members, &mut frontier),
            None => {
                for &w in g.neighbors(u) {
                    if members.contains(w) && reached.insert(w) {
                        frontier.push(w);
                    }
                }
            }
        }
    }
    scratch.put_vec(frontier);
    scratch.put_bitset(reached);
    count == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{is_quasi_clique, is_valid_quasi_clique};
    use qcm_gen::datasets::figure4;
    use qcm_graph::{Graph, VertexId};

    fn ids(raw: &[u32]) -> Vec<VertexId> {
        raw.iter().map(|&v| VertexId::new(v)).collect()
    }

    #[test]
    fn paper_example_s1_and_s2_are_point_six_quasi_cliques() {
        // Paper Section 3.1: S1 = {a,b,c,d}, S2 = S1 ∪ {e}, γ = 0.6:
        // both are γ-quasi-cliques and S1 is not maximal.
        let g = figure4();
        let params = MiningParams::new(0.6, 2);
        let s1 = ids(&[0, 1, 2, 3]);
        let s2 = ids(&[0, 1, 2, 3, 4]);
        assert!(is_quasi_clique(&g, &s1, &params));
        assert!(is_quasi_clique(&g, &s2, &params));
    }

    #[test]
    fn degree_shortfall_is_detected() {
        let g = figure4();
        // {a, b, c, d} with γ = 0.9 would require each vertex to have
        // ⌈0.9·3⌉ = 3 neighbors inside; b has only 2 (a, c).
        let params = MiningParams::new(0.9, 2);
        assert!(!is_quasi_clique(&g, &ids(&[0, 1, 2, 3]), &params));
    }

    #[test]
    fn disconnected_sets_are_rejected_even_with_low_gamma() {
        // Two disjoint edges: every vertex has 1 neighbor among the 3 others,
        // which passes γ = 1/3, but the subgraph is disconnected.
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let params = MiningParams::new(0.33, 2);
        assert!(!is_quasi_clique(&g, &ids(&[0, 1, 2, 3]), &params));
        assert!(is_quasi_clique(&g, &ids(&[0, 1]), &params));
    }

    #[test]
    fn singleton_and_empty_sets() {
        let g = figure4();
        let params = MiningParams::new(0.9, 2);
        assert!(is_quasi_clique(&g, &ids(&[5]), &params));
        assert!(!is_quasi_clique(&g, &[], &params));
        // But a singleton never satisfies the size threshold.
        assert!(!is_valid_quasi_clique(&g, &ids(&[5]), &params));
    }

    #[test]
    fn validity_includes_size_threshold() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        assert!(is_valid_quasi_clique(&g, &ids(&[0, 1, 2, 3, 4]), &params));
        assert!(!is_valid_quasi_clique(&g, &ids(&[0, 1, 2, 3]), &params));
    }

    #[test]
    fn local_graph_checks_agree_with_global() {
        let g = figure4();
        let all: Vec<VertexId> = g.vertices().collect();
        let lg = LocalGraph::from_induced(&g, &all);
        let params = MiningParams::new(0.6, 2);
        let strict = MiningParams::new(0.9, 2);
        // With a row for every vertex, for the hubs only, and for none: the
        // word and the list paths must agree with the global check.
        for spec in [
            qcm_graph::IndexSpec::Auto,
            qcm_graph::IndexSpec::Threshold(5),
            qcm_graph::IndexSpec::Threshold(usize::MAX),
        ] {
            let mut lg = lg.clone();
            lg.build_hub_index(spec);
            let mut scratch = MiningScratch::default();
            // Local indices equal global ids here because we induced on all vertices.
            assert!(is_quasi_clique_local(
                &lg,
                &[0, 1, 2, 3, 4],
                &params,
                &mut scratch
            ));
            assert!(!is_quasi_clique_local(&lg, &[], &params, &mut scratch));
            assert!(is_quasi_clique_local(&lg, &[7], &params, &mut scratch));
            assert!(!is_quasi_clique_local(
                &lg,
                &[0, 1, 2, 3],
                &strict,
                &mut scratch
            ));
            // {f, g} ∪ {h, i} passes the degree bar at γ = 1/3 but is disconnected.
            let loose = MiningParams::new(0.33, 2);
            assert!(!is_quasi_clique_local(
                &lg,
                &[5, 6, 7, 8],
                &loose,
                &mut scratch
            ));
            assert!(is_quasi_clique_local(&lg, &[3, 7, 8], &loose, &mut scratch));
        }
    }

    #[test]
    fn clique_is_quasi_clique_for_gamma_one() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let params = MiningParams::new(1.0, 2);
        assert!(is_quasi_clique(&g, &ids(&[0, 1, 2, 3]), &params));
        // Remove one edge conceptually by testing a subset missing it: {0,1,2}
        // is still a triangle → fine.
        assert!(is_quasi_clique(&g, &ids(&[0, 1, 2]), &params));
    }
}
