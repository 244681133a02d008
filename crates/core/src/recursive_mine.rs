//! The recursive mining algorithm — Algorithm 2 of the paper, and with a
//! [`HandOff`] its engine forms, Algorithms 8 and 10.
//!
//! `recursive_mine(S, ext(S))` explores the set-enumeration subtree rooted at
//! `S` (Figure 5): it picks the cover vertex, iterates over the non-covered
//! extension vertices `v`, forms `S' = S ∪ {v}` with
//! `ext(S') = (ext(S) \ {v}) ∩ B(v)`, applies Algorithm 1 to prune, and
//! recurses. The boolean return value (`true` iff some valid quasi-clique
//! strictly extending `S` was found) lets a parent avoid reporting a
//! non-maximal `G(S')` when a larger result below it already exists — the
//! remaining non-maximal reports are removed by the post-processing phase,
//! exactly as in the paper.
//!
//! `ext(S)` travels down the search as a list and a bitset that describe one
//! set: the list gives the branching order, the bits serve every membership
//! test and row AND. A node removes each branching vertex from its bits, a
//! child's bits are its parent's remaining bits `∧ B(v)`, and Algorithm 1
//! clears the bits of every vertex it takes out of the list, so no step of a
//! node re-inserts the extension into a set.
//!
//! A child's extension is decided on its bits first: `rest ∧ B(v)`, one AND
//! per word. Its list is then cut from the parent's tail, and every child,
//! a root's `{root, v}` as much as a deep one, runs the same Algorithm 1
//! ([`mod@crate::iterative_bounding`]) on the list and the bits.
//!
//! The loop has one fork, on the line after Algorithm 1: the subtree under
//! `S'` is either walked here or handed to the caller's [`HandOff`] as a task
//! of its own. The serial miner never hands off ([`NoHandOff`]); an engine
//! task does once its timeout has passed (Algorithm 10), or from its first
//! node (Algorithm 8, the same thing with the timeout already over).

use crate::context::MiningContext;
use crate::cover::{find_cover_vertex_into, move_cover_to_tail_with};
use crate::iterative_bounding::iterative_bounding_carried;
use crate::quasiclique::is_quasi_clique_of;
use crate::scratch::MiningScratch;
use qcm_graph::bitset::{compact, VertexBitSet};
use qcm_graph::neighborhoods::perf;
use qcm_graph::subgraph::ALL_ROWS_MAX_VERTICES;
use qcm_graph::LocalGraph;

/// Fills `seen` (which must be cleared and sized to `g.capacity()`) with
/// `B(v) ∖ {v}` — the local vertices within two hops of `v` in the task
/// subgraph, the `B(v)` of pruning rule P1 — using `first_hop` as scratch for
/// the frontier between the two hops.
///
/// A first-hop vertex with a bit row — every vertex of a small task graph —
/// contributes its second hop by one word-parallel OR of the row instead of a
/// walk of its adjacency list.
pub fn two_hop_bits_into(
    g: &LocalGraph,
    v: u32,
    seen: &mut VertexBitSet,
    first_hop: &mut Vec<u32>,
) {
    debug_assert!(seen.is_empty() && seen.capacity() == g.capacity());
    seen.insert(v);
    first_hop.clear();
    for &u in g.neighbors(v) {
        if seen.insert(u) {
            first_hop.push(u);
        }
    }
    for &u in first_hop.iter() {
        match g.hub_row(u) {
            Some(row) => seen.union_with_row(row),
            None => {
                for &w in g.neighbors(u) {
                    seen.insert(w);
                }
            }
        }
    }
    seen.remove(v);
}

/// The `B(v) ∖ {v}` rows of one task subgraph, each built the first time the
/// search branches on `v`. `B(v)` is a function of the task graph alone, and
/// a task branches on the same vertex at many tree nodes.
#[derive(Debug, Default)]
pub(crate) struct TwoHopRows {
    /// Row-major `n × ⌈n/64⌉` words, laid out like the graph's own bit rows;
    /// row `v` is meaningful only once `built` holds `v`.
    rows: Vec<u64>,
    built: VertexBitSet,
}

impl TwoHopRows {
    /// Row `v` of `g` (the same graph on every call), built with
    /// [`two_hop_bits_into`] on first use — or `None` when no rows are kept
    /// for `g`. They are kept when `g` has a bit row for every vertex — so
    /// it is small ([`ALL_ROWS_MAX_VERTICES`] bounds the matrix at 2 MiB) and
    /// its index policy already pays for one matrix of this size.
    fn row(&mut self, g: &LocalGraph, v: u32, scratch: &mut MiningScratch) -> Option<&[u64]> {
        let n = g.capacity();
        if g.hub_threshold() != Some(0) || n > ALL_ROWS_MAX_VERTICES {
            return None;
        }
        let words = n.div_ceil(64);
        if self.built.capacity() != n {
            self.built.reset(n);
            self.rows.resize(n * words, 0);
        }
        let row = &mut self.rows[v as usize * words..][..words];
        if self.built.insert(v) {
            let mut b_v = scratch.take_bitset(n);
            let mut hop = scratch.take_vec();
            two_hop_bits_into(g, v, &mut b_v, &mut hop);
            row.copy_from_slice(b_v.words());
            scratch.put_vec(hop);
            scratch.put_bitset(b_v);
        }
        Some(row)
    }
}

/// Writes the bits of a child's extension into `out_bits` and returns its
/// size: `tail_bits` (the `tail_len` vertices the parent has not branched
/// on) restricted to the two-hop neighborhood of the branching vertex `v`
/// when the diameter rule applies (γ ≥ 0.5 and the rule is enabled), or
/// `tail_bits` itself. `out_bits` is sized to the task graph like
/// `tail_bits`.
///
/// `B(v)` comes from the context's two-hop rows when the task graph keeps
/// them — every task subgraph the miners build — and is otherwise computed
/// here into a scratch bitset by the same [`two_hop_bits_into`]. Either way
/// the bits are `tail_bits ∧ B(v)`, one AND per word.
fn extension_bits(
    ctx: &mut MiningContext<'_>,
    tail_bits: &VertexBitSet,
    tail_len: usize,
    v: u32,
    out_bits: &mut VertexBitSet,
) -> usize {
    if !(ctx.config.diameter && ctx.params.gamma.diameter_two_applies()) {
        out_bits.copy_from(tail_bits);
        return tail_len;
    }
    let graph = ctx.graph;
    perf::count_intersections(1);
    if let Some(b_v) = ctx.two_hop.row(graph, v, &mut ctx.scratch) {
        return out_bits.assign_intersection(tail_bits.words(), b_v);
    }
    let mut b_v = ctx.scratch.take_bitset(graph.capacity());
    let mut hop = ctx.scratch.take_vec();
    two_hop_bits_into(graph, v, &mut b_v, &mut hop);
    let len = out_bits.assign_intersection(tail_bits.words(), b_v.words());
    ctx.scratch.put_vec(hop);
    ctx.scratch.put_bitset(b_v);
    len
}

/// Writes a child's extension list into `out`: the members of `bits` (of
/// size `len`, a subset of `tail`) in `tail`'s order, by one branch-free bit
/// probe per vertex of `tail` — or none when `bits` kept all of it.
fn cut_extension(tail: &[u32], bits: &VertexBitSet, len: usize, out: &mut Vec<u32>) {
    out.clear();
    out.extend_from_slice(tail);
    if len != tail.len() {
        compact(out, |_, u| bits.contains(u));
    }
    debug_assert_eq!(out.len(), len);
}

/// Cover-vertex pruning over scratch frames (Algorithm 2 lines 2–4): moves
/// the winning cover set `C_S(u)` to the tail of `ext` and returns the
/// branchable prefix length. `ext_bits` is `ext` as a bitset.
fn cover_prune_prefix(
    ctx: &mut MiningContext<'_>,
    s: &[u32],
    ext: &mut [u32],
    ext_bits: &VertexBitSet,
) -> usize {
    let mut covered = ctx.scratch.take_vec();
    find_cover_vertex_into(ctx, s, ext, ext_bits, &mut covered);
    ctx.stats.cover_skipped += covered.len() as u64;
    let prefix_len = move_cover_to_tail_with(ext, &covered, &mut ctx.scratch);
    ctx.scratch.put_vec(covered);
    prefix_len
}

/// The lookahead of Algorithm 2 lines 8–10: if `S` together with the entire
/// remaining extension `rest` (`rest_bits` as a bitset) already forms a
/// quasi-clique, reports it and returns `true` — it is maximal within this
/// subtree and everything below is redundant. The check runs over the two
/// slices and `rest_bits ∪ S`; the set is written out as one list only to be
/// reported.
fn lookahead_hit(
    ctx: &mut MiningContext<'_>,
    s: &[u32],
    rest: &[u32],
    rest_bits: &VertexBitSet,
) -> bool {
    let mut members = ctx.scratch.take_bitset(ctx.graph.capacity());
    members.copy_from(rest_bits);
    for &v in s {
        members.insert(v);
    }
    let hit = is_quasi_clique_of(ctx.graph, s, rest, &members, &ctx.params, &mut ctx.scratch);
    ctx.scratch.put_bitset(members);
    if hit {
        ctx.stats.lookahead_hits += 1;
        let mut whole = ctx.scratch.take_vec_cap(s.len() + rest.len());
        whole.extend_from_slice(s);
        whole.extend_from_slice(rest);
        ctx.report(&whole);
        ctx.scratch.put_vec(whole);
    }
    hit
}

/// What a search node does with the subtree under a child `S'` that survived
/// Algorithm 1: walk it, or hand it to whoever runs tasks.
pub trait HandOff {
    /// True once the remaining subtrees are handed off instead of walked.
    fn due(&mut self) -> bool;
    /// Takes over the subtree `⟨S', ext(S')⟩` (local indices).
    fn take(&mut self, s: &[u32], ext: &[u32]);
}

/// The serial miner's [`HandOff`]: never due, every subtree is walked.
pub struct NoHandOff;

impl HandOff for NoHandOff {
    #[inline]
    fn due(&mut self) -> bool {
        false
    }

    fn take(&mut self, _s: &[u32], _ext: &[u32]) {}
}

/// Algorithm 2: mines all valid quasi-cliques extending `S` (including
/// `G(S ∪ ext(S))` via the lookahead), reporting them through the context's
/// sink. Returns `true` iff some valid quasi-clique **strictly** containing
/// `S` was found *by this call* — what a handed-off subtree finds is unknown
/// here.
///
/// `ext` keeps its members but is reordered in place (cover vertices move to
/// the tail), matching the paper's in-place treatment of the extension list.
pub fn recursive_mine<H: HandOff>(
    ctx: &mut MiningContext<'_>,
    s: &[u32],
    ext: &mut [u32],
    hand_off: &mut H,
) -> bool {
    let mut rest = ctx.scratch.take_bitset(ctx.graph.capacity());
    for &u in ext.iter() {
        rest.insert(u);
    }
    let found = mine_node(ctx, s, ext, &mut rest, hand_off);
    ctx.scratch.put_bitset(rest);
    found
}

/// One node of Algorithm 2 on `⟨S, ext(S)⟩` with `rest` = `ext` as a bitset
/// sized to the task graph. `rest` follows the loop: it holds the extension
/// vertices not yet branched on, so the cover search, the lookahead and each
/// child's extension read it instead of re-inserting `ext` into a set.
fn mine_node<H: HandOff>(
    ctx: &mut MiningContext<'_>,
    s: &[u32],
    ext: &mut [u32],
    rest: &mut VertexBitSet,
    hand_off: &mut H,
) -> bool {
    let mut found = false;

    // Lines 2–4: cover-vertex pruning — the covered tail is never used as the
    // next branching vertex.
    let prefix_len = if ctx.config.cover_vertex {
        cover_prune_prefix(ctx, s, ext, rest)
    } else {
        ext.len()
    };
    // The branching vertices are the first `prefix_len` of `ext`, in order;
    // `ext[i]` is branched on with `ext[i..]` still to extend with, so this
    // depth needs no copy of the prefix and no shift of the list.
    for i in 0..prefix_len {
        // Cooperative cancellation: abandon the remaining subtrees without
        // handing them off — the run is ending, not decomposing. Everything
        // reported so far stays valid; the run is labelled partial upstream.
        if ctx.is_cancelled() {
            break;
        }
        // Line 6: not enough vertices left to ever reach τ_size.
        if s.len() + ext.len() - i < ctx.params.min_size {
            break;
        }
        // Lines 8–10: lookahead.
        if ctx.config.lookahead && lookahead_hit(ctx, s, &ext[i..], rest) {
            found = true;
            break;
        }
        // Line 11: S' = S ∪ {v}; v leaves the extension for this and all
        // later iterations (the set-enumeration tree's "only extend with
        // larger vertices" discipline).
        let v = ext[i];
        rest.remove(v);
        let mut s_prime = ctx.scratch.take_vec_cap(s.len() + 1);
        s_prime.extend_from_slice(s);
        s_prime.push(v);
        ctx.stats.nodes_expanded += 1;

        // Line 12: diameter-based shrink of the new extension set, on its
        // bits; the list waits until Algorithm 1 needs it.
        let tail = &ext[i + 1..];
        let mut ext_prime = ctx.scratch.take_vec();
        let mut ext_prime_bits = ctx.scratch.take_bitset(ctx.graph.capacity());
        let ext_len = extension_bits(ctx, rest, tail.len(), v, &mut ext_prime_bits);

        if ext_len == 0 {
            // Lines 13–16: nothing to extend S' with; examine G(S') directly.
            // (The original Quick misses this check — toggled for the
            // baseline.)
            if !ctx.emulate_quick_omissions && ctx.report_if_valid(&s_prime) {
                found = true;
            }
        } else {
            // Line 18: apply the pruning rules; this may also grow S' via the
            // critical-vertex rule and will report G(S') itself when
            // appropriate.
            cut_extension(tail, &ext_prime_bits, ext_len, &mut ext_prime);
            let pruned =
                iterative_bounding_carried(ctx, &mut s_prime, &mut ext_prime, &mut ext_prime_bits);

            // Lines 20–25, or Algorithm 10 lines 18–24 once a hand-off is due.
            if !pruned && s_prime.len() + ext_prime.len() >= ctx.params.min_size {
                let child_found = if hand_off.due() {
                    // The subtask will not tell us what it finds, so G(S') is
                    // examined now to avoid missing a maximal result.
                    hand_off.take(&s_prime, &ext_prime);
                    false
                } else {
                    mine_node(ctx, &s_prime, &mut ext_prime, &mut ext_prime_bits, hand_off)
                };
                if child_found || ctx.report_if_valid(&s_prime) {
                    found = true;
                }
            }
        }
        ctx.scratch.put_bitset(ext_prime_bits);
        ctx.scratch.put_vec(ext_prime);
        ctx.scratch.put_vec(s_prime);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PruneConfig;
    use crate::params::MiningParams;
    use crate::results::QuasiCliqueSet;
    use qcm_gen::datasets::figure4_local;
    use qcm_graph::{Graph, LocalGraph, VertexId};

    /// `B(v) ∖ {v}` as a sorted list.
    fn two_hop_local(g: &LocalGraph, v: u32) -> Vec<u32> {
        let mut seen = VertexBitSet::new(g.capacity());
        two_hop_bits_into(g, v, &mut seen, &mut Vec::new());
        seen.iter().collect()
    }

    fn ids(raw: &[u32]) -> Vec<VertexId> {
        raw.iter().map(|&v| VertexId::new(v)).collect()
    }

    /// Mines the whole Figure 4 graph serially: spawn from every vertex with
    /// the "> v" two-hop extension, exactly like the paper's initial calls.
    fn mine_figure4(params: MiningParams, config: PruneConfig) -> QuasiCliqueSet {
        let g = figure4_local();
        let mut sink = QuasiCliqueSet::new();
        for v in 0..9u32 {
            let mut ctx = MiningContext::with_config(&g, params, config, &mut sink);
            let mut ext: Vec<u32> = two_hop_local(&g, v)
                .into_iter()
                .filter(|&u| u > v)
                .collect();
            let s = vec![v];
            let found = recursive_mine(&mut ctx, &s, &mut ext, &mut NoHandOff);
            // The root S = {v} is a singleton: never reportable on its own.
            let _ = found;
        }
        sink
    }

    #[test]
    fn figure4_point_six_mining_finds_the_dense_region() {
        // γ = 0.6, τ_size = 5: the only 5-vertex 0.6-quasi-clique in Figure 4
        // is {a, b, c, d, e}.
        let results = mine_figure4(MiningParams::new(0.6, 5), PruneConfig::all_enabled());
        assert!(results.contains(&ids(&[0, 1, 2, 3, 4])));
        // No larger set can qualify: adding any outer vertex drops its degree
        // ratio below 0.6, so nothing reported may strictly contain it.
        for r in results.iter() {
            assert!(r.len() <= 5);
        }
    }

    #[test]
    fn figure4_point_nine_mining_finds_the_four_vertex_core() {
        // γ = 0.9, τ_size = 4 effectively asks for near-cliques of size ≥ 4:
        // {a, b, c, e}, {a, c, d, e} and {a, b, c, d, e} is NOT 0.9-dense
        // (each vertex would need ⌈0.9·4⌉ = 4 neighbors, i.e. a clique).
        let results = mine_figure4(MiningParams::new(0.9, 4), PruneConfig::all_enabled());
        assert!(results.contains(&ids(&[0, 1, 2, 4])));
        assert!(results.contains(&ids(&[0, 2, 3, 4])));
        assert!(!results.contains(&ids(&[0, 1, 2, 3, 4])));
    }

    #[test]
    fn pruning_rules_do_not_change_results_on_figure4() {
        for (gamma, min_size) in [(0.6, 4), (0.7, 3), (0.9, 4), (0.5, 5)] {
            let params = MiningParams::new(gamma, min_size);
            let full = mine_figure4(params, PruneConfig::all_enabled());
            let bare = mine_figure4(params, PruneConfig::none());
            // After removing non-maximal entries both runs must agree.
            let full = crate::maximality::remove_non_maximal(full);
            let bare = crate::maximality::remove_non_maximal(bare);
            assert_eq!(
                full, bare,
                "pruned vs unpruned mismatch at gamma={gamma}, min_size={min_size}"
            );
        }
    }

    #[test]
    fn lookahead_reports_the_whole_candidate_when_dense() {
        // Mining a 5-clique: the first task (spawned from vertex 0) should hit
        // the lookahead immediately.
        let edges: Vec<(u32, u32)> = (0..5u32)
            .flat_map(|i| ((i + 1)..5).map(move |j| (i, j)))
            .collect();
        let g = Graph::from_edges(5, edges.iter().copied()).unwrap();
        let all: Vec<VertexId> = g.vertices().collect();
        let lg = LocalGraph::from_induced(&g, &all);
        let mut sink = QuasiCliqueSet::new();
        let params = MiningParams::new(0.9, 5);
        let mut ctx = MiningContext::new(&lg, params, &mut sink);
        let mut ext: Vec<u32> = (1..5).collect();
        let found = recursive_mine(&mut ctx, &[0], &mut ext, &mut NoHandOff);
        assert!(found);
        assert!(ctx.stats.lookahead_hits >= 1);
        assert!(sink.contains(&ids(&[0, 1, 2, 3, 4])));
    }

    #[test]
    fn cancelled_context_stops_the_recursion_without_reports() {
        let g = figure4_local();
        let mut sink = QuasiCliqueSet::new();
        let params = MiningParams::new(0.6, 5);
        let mut ctx = MiningContext::new(&g, params, &mut sink);
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        ctx.cancel = token;
        let mut ext: Vec<u32> = (1..9).collect();
        let found = recursive_mine(&mut ctx, &[0], &mut ext, &mut NoHandOff);
        assert!(!found);
        assert_eq!(ctx.stats.nodes_expanded, 0);
        assert!(sink.is_empty(), "a pre-cancelled run must not report");
    }

    #[test]
    fn two_hop_local_matches_figure4_expectations() {
        let g = figure4_local();
        // B̄(e) \ {e} covers every other vertex.
        assert_eq!(two_hop_local(&g, 4).len(), 8);
        // B̄(f) = {b, g, a, c, e} ∪ {c's part via g}: f-b, f-g; two hops: a, c,
        // e (via b), c (via g).
        let two_f = two_hop_local(&g, 5);
        assert!(two_f.contains(&1) && two_f.contains(&6));
        assert!(two_f.contains(&0) && two_f.contains(&2) && two_f.contains(&4));
        assert!(!two_f.contains(&7));
    }

    #[test]
    fn quick_omissions_lose_results_somewhere() {
        // The emulated Quick baseline must never report *more* maximal results
        // than the fixed algorithm, and on suitable inputs it reports fewer.
        // (The specific loss depends on critical-vertex timing; the guarantee
        // tested here is one-sided containment.)
        let g = figure4_local();
        let params = MiningParams::new(0.9, 4);
        let mine = |quick: bool| {
            let mut sink = QuasiCliqueSet::new();
            for v in 0..9u32 {
                let mut ctx = MiningContext::new(&g, params, &mut sink);
                ctx.emulate_quick_omissions = quick;
                let mut ext: Vec<u32> = two_hop_local(&g, v)
                    .into_iter()
                    .filter(|&u| u > v)
                    .collect();
                recursive_mine(&mut ctx, &[v], &mut ext, &mut NoHandOff);
            }
            crate::maximality::remove_non_maximal(sink)
        };
        let fixed = mine(false);
        let quick = mine(true);
        for r in quick.iter() {
            assert!(
                fixed.contains(r),
                "quick baseline reported {r:?} which the fixed algorithm lacks"
            );
        }
        assert!(quick.len() <= fixed.len());
    }
}
