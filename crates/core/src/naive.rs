//! Brute-force oracle for maximal quasi-clique mining.
//!
//! For graphs small enough to enumerate every vertex subset (≤ ~20 vertices),
//! this module computes the exact set of maximal γ-quasi-cliques by
//! definition. It is the ground truth that the recursive miner, the Quick
//! baseline and the parallel engine are validated against in tests — the
//! central correctness claim of the paper is precisely that its algorithm
//! (unlike Quick) never misses a result.

use crate::maximality::remove_non_maximal;
use crate::params::MiningParams;
use crate::results::QuasiCliqueSet;
use crate::validate::is_quasi_clique;
use qcm_graph::{Graph, VertexId};

/// Maximum graph size the oracle accepts (2^24 subsets would already take
/// minutes; the tests stay well below this).
pub const MAX_ORACLE_VERTICES: usize = 24;

/// Enumerates every subset of `g`'s vertices and returns all *valid* (size ≥
/// τ_size) γ-quasi-cliques, without the maximality filter.
///
/// # Panics
/// Panics if the graph has more than [`MAX_ORACLE_VERTICES`] vertices.
pub fn all_valid_quasi_cliques(g: &Graph, params: &MiningParams) -> QuasiCliqueSet {
    let n = g.num_vertices();
    assert!(
        n <= MAX_ORACLE_VERTICES,
        "naive oracle limited to {MAX_ORACLE_VERTICES} vertices, got {n}"
    );
    let mut results = QuasiCliqueSet::new();
    if n == 0 {
        return results;
    }
    let mut members: Vec<VertexId> = Vec::with_capacity(n);
    for mask in 1u32..(1u32 << n) {
        if (mask.count_ones() as usize) < params.min_size {
            continue;
        }
        members.clear();
        for v in 0..n {
            if mask & (1 << v) != 0 {
                members.push(VertexId::from(v));
            }
        }
        if is_quasi_clique(g, &members, params) {
            results.insert(members.clone());
        }
    }
    results
}

/// Returns the exact set of **maximal** valid γ-quasi-cliques of `g` by brute
/// force (Definition 2 + Definition 3 of the paper).
pub fn maximal_quasi_cliques(g: &Graph, params: &MiningParams) -> QuasiCliqueSet {
    remove_non_maximal(all_valid_quasi_cliques(g, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_gen::datasets::figure4;

    fn ids(raw: &[u32]) -> Vec<VertexId> {
        raw.iter().map(|&v| VertexId::new(v)).collect()
    }

    #[test]
    fn oracle_on_figure4_gamma_point_six() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let maximal = maximal_quasi_cliques(&g, &params);
        assert_eq!(maximal.len(), 1);
        assert!(maximal.contains(&ids(&[0, 1, 2, 3, 4])));
    }

    #[test]
    fn oracle_on_figure4_gamma_point_nine() {
        let g = figure4();
        let params = MiningParams::new(0.9, 4);
        let maximal = maximal_quasi_cliques(&g, &params);
        assert_eq!(maximal.len(), 2);
        assert!(maximal.contains(&ids(&[0, 1, 2, 4])));
        assert!(maximal.contains(&ids(&[0, 2, 3, 4])));
    }

    #[test]
    fn all_valid_includes_non_maximal_sets() {
        let g = figure4();
        let params = MiningParams::new(0.6, 4);
        let all = all_valid_quasi_cliques(&g, &params);
        let maximal = maximal_quasi_cliques(&g, &params);
        assert!(all.len() > maximal.len());
        for m in maximal.iter() {
            assert!(all.contains(m));
        }
    }

    #[test]
    fn clique_oracle() {
        let edges: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|i| ((i + 1)..6).map(move |j| (i, j)))
            .collect();
        let g = Graph::from_edges(6, edges.iter().copied()).unwrap();
        let params = MiningParams::new(1.0, 3);
        let maximal = maximal_quasi_cliques(&g, &params);
        assert_eq!(maximal.len(), 1);
        assert!(maximal.contains(&ids(&[0, 1, 2, 3, 4, 5])));
    }

    #[test]
    fn empty_and_sparse_graphs() {
        let g = Graph::empty(4);
        let params = MiningParams::new(0.5, 2);
        assert!(maximal_quasi_cliques(&g, &params).is_empty());
        let g = Graph::from_edges(4, [(0, 1)]).unwrap();
        let maximal = maximal_quasi_cliques(&g, &params);
        assert_eq!(maximal.len(), 1);
        assert!(maximal.contains(&ids(&[0, 1])));
    }

    #[test]
    #[should_panic(expected = "naive oracle limited")]
    fn oracle_rejects_large_graphs() {
        let g = Graph::empty(30);
        let params = MiningParams::new(0.5, 2);
        all_valid_quasi_cliques(&g, &params);
    }
}
