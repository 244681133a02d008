//! Quasi-clique validators over whole-graph representations.
//!
//! The same Definition-1 check as [`crate::quasiclique`], but over the global
//! [`Graph`] or any [`Neighborhoods`] backend, in global vertex ids. These run
//! once per *reported* set (the oracle, the tests, the engine's post-mining
//! result validation), not once per tree node, so they allocate their working
//! sets freely and stay off the hot-path lint list.

use crate::params::MiningParams;
use qcm_graph::{Graph, Neighborhoods, VertexId};

/// Checks whether the set of global vertex ids `s` induces a γ-quasi-clique in
/// the full graph `g`.
pub fn is_quasi_clique(g: &Graph, s: &[VertexId], params: &MiningParams) -> bool {
    let n = s.len();
    if n == 0 {
        return false;
    }
    if n == 1 {
        return true;
    }
    let required = params.required_degree(n);
    for &v in s {
        let d = s.iter().filter(|&&u| u != v && g.has_edge(u, v)).count();
        if d < required {
            return false;
        }
    }
    qcm_graph::traversal::is_connected_subset(g, s)
}

/// Checks whether `s` is a *valid* quasi-clique for reporting: it is a
/// γ-quasi-clique and satisfies the size threshold τ_size.
pub fn is_valid_quasi_clique(g: &Graph, s: &[VertexId], params: &MiningParams) -> bool {
    s.len() >= params.min_size && is_quasi_clique(g, s, params)
}

/// Definition-1 check through the backend-agnostic [`Neighborhoods`] trait
/// (raw `u32` ids in the representation's own index space): size threshold,
/// per-member degree and connectivity.
///
/// This is the kernel behind the engine's post-mining result validation —
/// every backend's answers are re-checked against the shared (hub-indexed)
/// edge-query path before they are published or cached, so an indexed
/// representation and the plain CSR can cross-validate each other.
pub fn is_valid_quasi_clique_over(
    nbhd: &dyn Neighborhoods,
    s: &[u32],
    params: &MiningParams,
) -> bool {
    let n = s.len();
    if n < params.min_size {
        return false;
    }
    if n == 1 {
        return true;
    }
    let required = params.required_degree(n);
    for &v in s {
        let d = s.iter().filter(|&&u| u != v && nbhd.adjacent(u, v)).count();
        if d < required {
            return false;
        }
    }
    // Connectivity over the induced member set.
    let mut sorted = s.to_vec();
    sorted.sort_unstable();
    let mut visited = vec![false; sorted.len()];
    let mut stack = vec![0usize];
    visited[0] = true;
    let mut count = 1usize;
    while let Some(i) = stack.pop() {
        nbhd.for_each_neighbor(sorted[i], &mut |w| {
            if let Ok(j) = sorted.binary_search(&w) {
                if !visited[j] {
                    visited[j] = true;
                    count += 1;
                    stack.push(j);
                }
            }
        });
    }
    count == sorted.len()
}
