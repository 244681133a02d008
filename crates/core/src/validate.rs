//! Quasi-clique validators over the whole graph.
//!
//! The same Definition-1 check as [`crate::quasiclique`], but over the global
//! [`Graph`]'s CSR, in global vertex ids. These run once per *reported* set
//! (the oracle, the tests, the engine's post-mining result validation), not
//! once per tree node, so they allocate their working sets freely and stay
//! off the hot-path lint list.

use crate::params::MiningParams;
use qcm_graph::{Graph, VertexId};

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
