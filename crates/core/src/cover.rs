//! Cover-vertex pruning (P7, Eq. 9).
//!
//! Given a candidate `⟨S, ext(S)⟩` and a vertex `u ∈ ext(S)`, the cover set
//! `C_S(u)` contains the extension vertices such that any quasi-clique built
//! from `S` using only vertices of `C_S(u)` could also absorb `u` — and would
//! therefore not be maximal. Algorithm 2 exploits this by moving `C_S(u)` to
//! the tail of the extension list and never using those vertices as the next
//! branching vertex. To maximise the saving, the `u` with the largest
//! `|C_S(u)|` is chosen.
//!
//! `C_S(u) = Γ_ext(S)(u) ∩ ⋂_{v ∈ S, v ∉ Γ(u)} Γ(v)`, and the pruning is only
//! applicable when `d_S(u) ≥ ⌈γ·|S|⌉` and every non-neighbor `v ∈ S` of `u`
//! has `d_S(v) ≥ ⌈γ·|S|⌉` (otherwise those vertices are already handled by
//! Theorems 3–4).

use crate::context::MiningContext;
use crate::degrees::carried_degrees_into;
use crate::scratch::MiningScratch;
use qcm_graph::bitset::{row_contains, VertexBitSet};
use qcm_graph::neighborhoods::perf;

/// Finds the cover vertex `u ∈ ext` with the largest `|C_S(u)|` (Eq. 9) in
/// the context's task graph: writes the winning `C_S(u)` (sorted) into
/// `covered_out` (cleared first) and returns the chosen cover vertex. The
/// context's carried S-side degrees are moved to `s` here if they describe
/// another set, and `ext_bits` is `ext` as the bitset the search carries
/// beside it. Every intermediate set comes from — and goes back to — the
/// context's arena, so the per-tree-node call allocates nothing in steady
/// state.
///
/// Mirrors the implementation note of Algorithm 2 line 2: while scanning
/// candidates, a vertex whose `|Γ_ext(S)(u)|` is already no larger than the
/// best cover found so far is skipped without evaluating the intersection.
///
/// The candidate cover set is a bitset: `Γ_ext(S)(u)` is `row(u) ∧ ext`, each
/// non-neighbor `v ∈ S` narrows it by one `∧ row(v)`, and its size is a
/// popcount. A vertex without a bit row (hybrid index on a large task graph,
/// or no index) contributes its adjacency list as a row built on the spot.
pub fn find_cover_vertex_into(
    ctx: &mut MiningContext<'_>,
    s: &[u32],
    ext: &[u32],
    ext_bits: &VertexBitSet,
    covered_out: &mut Vec<u32>,
) -> Option<u32> {
    covered_out.clear();
    if ext.is_empty() {
        return None;
    }
    let g = ctx.graph;
    let scratch = &mut ctx.scratch;
    let mut degrees = scratch.take_degrees();
    carried_degrees_into(g, &mut ctx.path, s, ext, ext_bits, &mut degrees);
    let threshold = ctx.params.gamma.ceil_mul(s.len());
    let mut best_vertex = None;
    let mut best_len = 0usize;
    let mut best = scratch.take_bitset(g.capacity());
    let mut cover = scratch.take_bitset(g.capacity());
    // The row of a vertex that has none, built from its list when needed.
    let mut list_row = None;
    let mut row_probes = 0u64;

    for (j, &u) in ext.iter().enumerate() {
        // Applicability: d_S(u) ≥ ⌈γ·|S|⌉.
        if (degrees.ext_in_s[j] as usize) < threshold {
            continue;
        }
        // Γ_ext(S)(u).
        let row_u = g.hub_row(u);
        let mut len = match row_u {
            Some(row) => cover.assign_intersection(row, ext_bits.words()),
            None => {
                cover.clear();
                g.neighbors(u)
                    .iter()
                    .filter(|&&w| ext_bits.contains(w) && cover.insert(w))
                    .count()
            }
        };
        // Cheap skip: the cover set can never exceed |Γ_ext(S)(u)|.
        if len <= best_len {
            continue;
        }
        // C_S(u) = Γ_ext(u) ∩ ⋂_{v ∈ S, v ∉ Γ(u)} Γ(v). Every such
        // non-neighbor must itself satisfy d_S(v) ≥ ⌈γ·|S|⌉ for the rule to
        // apply at all; a candidate that cannot beat the best is dropped as
        // soon as it shrinks that far.
        for (i, &v) in s.iter().enumerate() {
            let adjacent = match row_u {
                Some(row) => {
                    row_probes += 1;
                    row_contains(row, v)
                }
                None => g.has_edge(u, v),
            };
            if adjacent {
                continue;
            }
            if (degrees.s_in_s[i] as usize) < threshold {
                len = 0;
                break;
            }
            match g.hub_row(v) {
                Some(row) => cover.intersect_with_row(row),
                None => {
                    let list_row =
                        list_row.get_or_insert_with(|| scratch.take_bitset(g.capacity()));
                    list_row.clear();
                    for &w in g.neighbors(v) {
                        list_row.insert(w);
                    }
                    cover.intersect_with(list_row);
                }
            }
            len = cover.len();
            if len <= best_len {
                break;
            }
        }
        if len > best_len {
            std::mem::swap(&mut best, &mut cover);
            best_len = len;
            best_vertex = Some(u);
        }
    }
    perf::count_edge_queries(row_probes);
    perf::count_bitset_hits(row_probes);
    covered_out.extend(best.iter());
    if let Some(list_row) = list_row {
        scratch.put_bitset(list_row);
    }
    scratch.put_bitset(cover);
    scratch.put_bitset(best);
    scratch.put_degrees(degrees);
    best_vertex
}

/// Reorders `ext` so that the vertices of `covered` (sorted) form the tail,
/// preserving the relative order of the non-covered prefix (which the
/// extension loop will iterate over). Returns the number of non-covered
/// vertices (the prefix length to iterate).
///
/// In place: compacts the non-covered prefix forward and copies the covered
/// tail back from a scratch buffer — no allocation, `ext`'s own buffer is
/// reused.
pub fn move_cover_to_tail_with(
    ext: &mut [u32],
    covered: &[u32],
    scratch: &mut MiningScratch,
) -> usize {
    if covered.is_empty() {
        return ext.len();
    }
    let mut tail = scratch.take_vec();
    let mut write = 0usize;
    for read in 0..ext.len() {
        let v = ext[read];
        if covered.binary_search(&v).is_ok() {
            tail.push(v);
        } else {
            ext[write] = v;
            write += 1;
        }
    }
    let prefix_len = write;
    ext[prefix_len..].copy_from_slice(&tail);
    scratch.put_vec(tail);
    prefix_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MiningParams;
    use crate::results::QuasiCliqueSet;
    use qcm_graph::{Graph, LocalGraph, VertexId};

    /// Result of the cover-vertex search.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct CoverVertex {
        /// The chosen cover vertex `u` (local index), if any applicable one exists.
        vertex: Option<u32>,
        /// The cover set `C_S(u)` (local indices, sorted).
        covered: Vec<u32>,
    }

    fn find_cover_vertex(
        g: &LocalGraph,
        s: &[u32],
        ext: &[u32],
        params: &MiningParams,
    ) -> CoverVertex {
        // The same answer with a row for every vertex, for some, and for none.
        let covers: Vec<CoverVertex> = [
            qcm_graph::IndexSpec::Auto,
            qcm_graph::IndexSpec::Threshold(3),
            qcm_graph::IndexSpec::Threshold(usize::MAX),
        ]
        .into_iter()
        .map(|spec| {
            let mut g = g.clone();
            g.build_hub_index(spec);
            let mut sink = QuasiCliqueSet::new();
            let mut ctx = MiningContext::new(&g, *params, &mut sink);
            let ext_bits = VertexBitSet::from_members(g.capacity(), ext);
            let mut covered = Vec::new();
            let vertex = find_cover_vertex_into(&mut ctx, s, ext, &ext_bits, &mut covered);
            CoverVertex { vertex, covered }
        })
        .collect();
        assert!(covers.windows(2).all(|w| w[0] == w[1]), "{covers:?}");
        covers.into_iter().next().unwrap()
    }

    fn move_cover_to_tail(ext: &mut [u32], covered: &[u32]) -> usize {
        move_cover_to_tail_with(ext, covered, &mut MiningScratch::fresh())
    }

    fn local(edges: &[(u32, u32)], n: usize) -> LocalGraph {
        let g = Graph::from_edges(n, edges.iter().copied()).unwrap();
        let all: Vec<VertexId> = g.vertices().collect();
        LocalGraph::from_induced(&g, &all)
    }

    #[test]
    fn cover_vertex_in_a_clique_covers_everything_else() {
        // K5 on {0..4}; S = {0}, ext = {1, 2, 3, 4}. Any u ∈ ext is adjacent
        // to all of S and to all other ext vertices, and u has no non-neighbor
        // in S, so C_S(u) = Γ_ext(u) = the other three vertices.
        let edges: Vec<(u32, u32)> = (0..5u32)
            .flat_map(|i| ((i + 1)..5).map(move |j| (i, j)))
            .collect();
        let g = local(&edges, 5);
        let params = MiningParams::new(0.8, 2);
        let cover = find_cover_vertex(&g, &[0], &[1, 2, 3, 4], &params);
        assert!(cover.vertex.is_some());
        assert_eq!(cover.covered.len(), 3);
    }

    #[test]
    fn cover_requires_su_degree_threshold() {
        // Star: 0 is the centre; S = {0, 1}, ext = {2, 3}. Vertex 2 has
        // d_S(2) = 1 < ⌈0.9·2⌉ = 2 so the rule is inapplicable for it (and
        // likewise for 3) → no cover vertex.
        let g = local(&[(0, 1), (0, 2), (0, 3)], 4);
        let params = MiningParams::new(0.9, 2);
        let cover = find_cover_vertex(&g, &[0, 1], &[2, 3], &params);
        assert_eq!(cover.vertex, None);
        assert!(cover.covered.is_empty());
    }

    #[test]
    fn cover_intersects_non_neighbor_adjacency() {
        // S = {0, 1}; u = 2 adjacent to 0 but NOT to 1; ext also has 3 and 4.
        // 3 is adjacent to u and to 1; 4 is adjacent to u but not to 1.
        // C_S(2) must only keep 3 (the non-neighbor 1 of u must be adjacent to
        // every covered vertex). For the rule to apply at all, both u and the
        // non-neighbor 1 must meet the d_S ≥ ⌈γ|S|⌉ = 1 bar: d_S(2) = 1 ✓,
        // d_S(1) = 1 ✓ (0–1 edge).
        let g = local(
            &[
                (0, 1),
                (0, 2),
                (2, 3),
                (2, 4),
                (1, 3),
                (0, 3), // make 3 also adjacent to 0 (richer ext structure)
            ],
            5,
        );
        let params = MiningParams::new(0.5, 2);
        let cover = find_cover_vertex(&g, &[0, 1], &[2, 3, 4], &params);
        // Vertex 3 is adjacent to both members of S, has Γ_ext = {2}, so its
        // cover set is {2} (no non-neighbors in S). Vertex 2's cover set is
        // {3} as analysed above. Either is a valid "largest" (size 1); the
        // implementation picks the first maximal one encountered: vertex 2.
        assert_eq!(cover.covered.len(), 1);
        assert!(cover.vertex == Some(2) || cover.vertex == Some(3));
        if cover.vertex == Some(2) {
            assert_eq!(cover.covered, vec![3]);
        }
    }

    #[test]
    fn empty_ext_has_no_cover() {
        let g = local(&[(0, 1)], 2);
        let params = MiningParams::new(0.9, 2);
        let cover = find_cover_vertex(&g, &[0, 1], &[], &params);
        assert_eq!(cover, CoverVertex::default());
    }

    #[test]
    fn move_cover_to_tail_preserves_prefix_order() {
        let mut ext = vec![5u32, 9, 2, 7, 4];
        let covered = vec![2u32, 7];
        let prefix_len = move_cover_to_tail(&mut ext, &covered);
        assert_eq!(prefix_len, 3);
        assert_eq!(&ext[..3], &[5, 9, 4]);
        let mut tail = ext[3..].to_vec();
        tail.sort_unstable();
        assert_eq!(tail, covered);
    }

    #[test]
    fn move_cover_with_empty_cover_is_identity() {
        let mut ext = vec![1u32, 2, 3];
        let prefix_len = move_cover_to_tail(&mut ext, &[]);
        assert_eq!(prefix_len, 3);
        assert_eq!(ext, vec![1, 2, 3]);
    }
}
