//! Critical-vertex pruning (P6, Definition 4 and Theorem 9).
//!
//! A vertex `v ∈ S` is *critical* when `d_S(v) + d_ext(S)(v)` equals exactly
//! the degree that `v` will need in the smallest feasible extension,
//! `⌈γ·(|S| + L_S − 1)⌉`. In that case every γ-quasi-clique strictly extending
//! `S` must contain *all* of `v`'s neighbors in `ext(S)` — so the miner can
//! move `Γ_ext(S)(v)` into `S` wholesale instead of branching on each of them.

use crate::degrees::Degrees;
use qcm_graph::bitset::row_contains;
use qcm_graph::neighborhoods::perf;
use qcm_graph::LocalGraph;

/// Moves `Γ_ext(S)(v)` — the extension vertices a critical vertex `v` forces
/// into `S` (Theorem 9) — out of `ext` into a scratch-provided buffer
/// (cleared first); both keep `ext`'s order. When `v` has a bit row the split
/// is one row probe per extension vertex; otherwise it goes through
/// [`LocalGraph::has_edge`].
pub fn collect_critical_moves(
    g: &LocalGraph,
    ext: &mut Vec<u32>,
    v: u32,
    moved_out: &mut Vec<u32>,
) {
    moved_out.clear();
    let row = g.hub_row(v);
    if row.is_some() {
        perf::count_edge_queries(ext.len() as u64);
        perf::count_bitset_hits(ext.len() as u64);
    }
    ext.retain(|&u| {
        let adjacent = match row {
            Some(row) => row_contains(row, u),
            None => g.has_edge(u, v),
        };
        if adjacent {
            moved_out.push(u);
        }
        !adjacent
    });
}

/// Finds a critical vertex of `S`, if any: a member whose
/// `d_S(v) + d_ext(S)(v)` is exactly `needed`, the round's
/// `⌈γ·(|S| + L_S − 1)⌉` ([`crate::rules::RoundCuts::critical_degree`]).
///
/// Returns the position (index into the `s` slice that produced `degrees`) of
/// the first critical vertex, or `None`.
pub fn find_critical_vertex(degrees: &Degrees, needed: usize) -> Option<usize> {
    let mut totals = degrees.s_in_s.iter().zip(&degrees.s_in_ext);
    totals.position(|(&d_s, &d_ext)| d_s as usize + d_ext as usize == needed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{lower_bound, LowerBound};
    use crate::degrees::compute_degrees;
    use crate::params::MiningParams;

    /// The critical member of `S` under `⌈γ(|S| + L_S − 1)⌉`.
    fn critical(params: &MiningParams, deg: &Degrees, ls: usize) -> Option<usize> {
        let needed = params.gamma.ceil_mul(deg.s_in_s.len() + ls - 1);
        find_critical_vertex(deg, needed)
    }
    use qcm_gen::datasets::figure4_local;
    use qcm_graph::{Graph, LocalGraph, VertexId};

    #[test]
    fn critical_vertex_when_budget_is_exact() {
        // Bespoke graph: S = {a, b} (not adjacent), ext = {c, d, e} where
        // c and d are adjacent to both a and b while e is adjacent to b only.
        //   a=0, b=1, c=2, d=3, e=4.
        // With γ = 0.6: L_min = 2 (two additions are needed before a and b can
        // reach ⌈0.6·(|S'|−1)⌉), and Eq. 8 confirms L_S = 2. The needed total
        // degree is ⌈0.6·(2 + 2 − 1)⌉ = 2, which vertex a meets *exactly*
        // (d_S(a) = 0, d_ext(a) = 2) → a is critical and every valid
        // extension must contain both of a's extension neighbors {c, d}.
        let g = Graph::from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4)]).unwrap();
        let all: Vec<VertexId> = g.vertices().collect();
        let lg = LocalGraph::from_induced(&g, &all);
        let params = MiningParams::new(0.6, 2);
        let (deg, _) = compute_degrees(&lg, &[0, 1], &[2, 3, 4]);
        let LowerBound::Bound(ls) = lower_bound(&params, &deg, 3) else {
            panic!("lower bound should be feasible");
        };
        assert_eq!(ls, 2);
        let found = critical(&params, &deg, ls);
        // Position 0 in the s slice corresponds to vertex a.
        assert_eq!(found, Some(0));
    }

    #[test]
    fn no_critical_vertex_when_slack_exists() {
        let g = figure4_local();
        // S = {a}, ext = {b, c, d, e}, γ = 0.5: a has 4 extension neighbors
        // but only needs ⌈0.5·(1 + L_S − 1)⌉ with L_S small — plenty of slack.
        let params = MiningParams::new(0.5, 2);
        let (deg, _) = compute_degrees(&g, &[0], &[1, 2, 3, 4]);
        let LowerBound::Bound(ls) = lower_bound(&params, &deg, 4) else {
            panic!("lower bound should be feasible");
        };
        assert_eq!(critical(&params, &deg, ls), None);
    }

    #[test]
    fn empty_s_has_no_critical_vertex() {
        let g = figure4_local();
        let (deg, _) = compute_degrees(&g, &[], &[0, 1]);
        assert_eq!(find_critical_vertex(&deg, 0), None);
    }
}
