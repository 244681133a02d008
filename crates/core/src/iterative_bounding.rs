//! Iterative bound-based pruning — Algorithm 1 of the paper.
//!
//! Given a candidate `⟨S, ext(S)⟩`, `iterative_bounding` repeatedly
//!
//! 1. refreshes the candidate's degrees (the S-side ones are carried along
//!    the search path, see [`crate::path_degrees`]), the bounds `U_S`, `L_S`
//!    and from them the round's [`RoundCuts`], which the three rule steps
//!    below share,
//! 2. applies critical-vertex pruning (which may *grow* `S`, and then
//!    refreshes all of step 1 for the grown `S`),
//! 3. applies the Type-II rules (which may prune the whole subtree), and
//! 4. applies the Type-I rules (which shrink `ext(S)`),
//!
//! until `ext(S)` is empty or a full round removes nothing. Shrinking
//! `ext(S)` changes the degrees, which tightens the bounds, which can enable
//! more pruning — hence the loop (topic T4 of the paper).
//!
//! The return value is `true` iff the *extensions* of `S` are pruned (the
//! caller must not recurse further); `S` itself is examined and reported here
//! whenever the paper requires it, so no maximal result is ever missed.
//!
//! Every node of the search runs this one procedure, a root's child
//! `{root, v}` included. One shortcut leaves every decision where it was:
//! Type-I builds its rule first and counts the EE-degree `d_ext(S)(u)` only
//! where `d_S(u)` reaches Theorem 5's cut; below it the vertex goes whatever
//! its EE-degree.

use crate::bounds::{lower_bound, upper_bound, LowerBound, UpperBound};
use crate::context::MiningContext;
use crate::critical::{collect_critical_moves, find_critical_vertex};
use crate::degrees::{carried_degrees_into, compute_ee_degrees_into, Degrees};
use crate::rules::{RoundCuts, Type2Outcome};
use qcm_graph::bitset::{compact, VertexBitSet};
use qcm_graph::LocalGraph;

/// Computes the bounds, handling the three pruning outcomes the paper attaches
/// to bound computation (below Eqs. 4, 7, 8 and Algorithm 1 line 3), and
/// returns the round's cuts for the rules that follow:
///
/// * upper bound infeasible → prune extensions, but examine `G(S)` first;
/// * lower bound infeasible → prune `S` and extensions;
/// * `U_S < L_S` → prune `S` and extensions.
///
/// Returns `Err(())` when the caller should return `true` immediately (the
/// reporting of `G(S)`, when required, has already happened). `ext_len` is
/// `|ext(S)|`.
fn compute_bounds(
    ctx: &mut MiningContext<'_>,
    s: &[u32],
    ext_len: usize,
    degrees: &Degrees,
) -> Result<RoundCuts, ()> {
    let mut us = None;
    if ctx.config.upper_bound {
        match upper_bound(&ctx.params, degrees, ext_len) {
            UpperBound::Bound(b) => us = Some(b),
            UpperBound::ExtensionsPruned => {
                // Same actions as Algorithm 1 lines 23–25: G(S) is still a
                // candidate result.
                ctx.stats.type2_pruned += 1;
                ctx.report_if_valid(s);
                return Err(());
            }
        }
    }
    let mut ls = None;
    if ctx.config.lower_bound || ctx.config.critical_vertex {
        match lower_bound(&ctx.params, degrees, ext_len) {
            LowerBound::Bound(b) => ls = Some(b),
            LowerBound::AllPruned => {
                if ctx.config.lower_bound {
                    // S and its extensions are pruned without examination.
                    ctx.stats.type2_pruned += 1;
                    return Err(());
                }
                // Lower bound only computed for the critical-vertex rule,
                // which cannot apply without a feasible L_S; fall through with
                // ls = None so no lower-bound-based pruning is used.
            }
        }
    }
    if let (Some(us_v), Some(ls_v)) = (us, ls) {
        if ctx.config.upper_bound && ctx.config.lower_bound && us_v < ls_v {
            // L_S ≥ 1 in this situation, so S itself cannot be valid either.
            ctx.stats.type2_pruned += 1;
            return Err(());
        }
    }
    Ok(RoundCuts::new(&ctx.params, &ctx.config, s.len(), us, ls))
}

/// Algorithm 1: iteratively applies the pruning rules to `⟨S, ext(S)⟩`.
///
/// * Returns `true` iff extending `S` (beyond what critical-vertex moves have
///   already absorbed into it) is pruned; any required examination of `G(S)`
///   has been performed before returning.
/// * Returns `false` only when `ext(S)` is non-empty and the caller should
///   keep extending `S` (Algorithm 2 line 20 / Algorithm 10 line 19).
///
/// Both `s` and `ext` are passed by mutable reference: Type-I pruning shrinks
/// `ext`, and critical-vertex pruning can move vertices from `ext` into `s`.
pub fn iterative_bounding(
    ctx: &mut MiningContext<'_>,
    s: &mut Vec<u32>,
    ext: &mut Vec<u32>,
) -> bool {
    let mut ext_bits = ctx.scratch.take_bitset(ctx.graph.capacity());
    for &u in ext.iter() {
        ext_bits.insert(u);
    }
    let pruned = iterative_bounding_carried(ctx, s, ext, &mut ext_bits);
    ctx.scratch.put_bitset(ext_bits);
    pruned
}

/// [`iterative_bounding`] on an `ext` that travels with its bitset
/// `ext_bits` (sized to the task graph): every vertex the rules take out of
/// `ext` leaves `ext_bits` too, so on return the two still describe one set.
pub(crate) fn iterative_bounding_carried(
    ctx: &mut MiningContext<'_>,
    s: &mut Vec<u32>,
    ext: &mut Vec<u32>,
    ext_bits: &mut VertexBitSet,
) -> bool {
    // All working frames come from the context's scratch arena: in steady
    // state a full bounding loop — degree refreshes included — performs
    // zero heap allocations.
    let mut degrees = ctx.scratch.take_degrees();
    let mut ee = ctx.scratch.take_vec();
    let mut moved = ctx.scratch.take_vec();
    let pruned = bounding_loop(ctx, s, ext, ext_bits, &mut degrees, &mut ee, &mut moved);
    ctx.scratch.put_vec(moved);
    ctx.scratch.put_vec(ee);
    ctx.scratch.put_degrees(degrees);
    pruned
}

/// The body of Algorithm 1, operating entirely on borrowed scratch frames.
fn bounding_loop(
    ctx: &mut MiningContext<'_>,
    s: &mut Vec<u32>,
    ext: &mut Vec<u32>,
    ext_bits: &mut VertexBitSet,
    degrees: &mut Degrees,
    ee: &mut Vec<u32>,
    moved: &mut Vec<u32>,
) -> bool {
    loop {
        ctx.stats.bounding_rounds += 1;
        // Line 2: SS/ES/SE degrees (EE deferred to the Type-I phase).
        carried_degrees_into(ctx.graph, &mut ctx.path, s, ext, ext_bits, degrees);

        // Line 3: bounds (may prune), and the cuts every rule below reads.
        let mut cuts = match compute_bounds(ctx, s, ext.len(), degrees) {
            Ok(cuts) => cuts,
            Err(()) => return true,
        };

        // Lines 4–8: critical-vertex pruning.
        let critical = cuts
            .critical_degree()
            .and_then(|needed| find_critical_vertex(degrees, needed));
        if let Some(pos) = critical {
            let v = s[pos];
            // The paper's fix over Quick: examine G(S) *before* absorbing the
            // critical vertex's neighborhood, otherwise a maximal G(S) could
            // be lost.
            if !ctx.emulate_quick_omissions {
                ctx.report_if_valid(s);
            }
            collect_critical_moves(ctx.graph, ext, v, moved);
            if !moved.is_empty() {
                ctx.stats.critical_moves += moved.len() as u64;
                for &u in moved.iter() {
                    ext_bits.remove(u);
                }
                s.extend_from_slice(moved);
                if ext.is_empty() {
                    // Skip straight to the C1 exit case.
                    break;
                }
                // Line 8: degrees, bounds and cuts of the grown S.
                carried_degrees_into(ctx.graph, &mut ctx.path, s, ext, ext_bits, degrees);
                cuts = match compute_bounds(ctx, s, ext.len(), degrees) {
                    Ok(cuts) => cuts,
                    Err(()) => return true,
                };
            }
        }

        // Lines 9–16: Type-II rules, examining G(S) where Theorem 4
        // Condition (i) requires it.
        match cuts.type2(degrees) {
            Type2Outcome::PruneAll => {
                ctx.stats.type2_pruned += 1;
                return true;
            }
            Type2Outcome::PruneExtensionsKeepS => {
                ctx.stats.type2_pruned += 1;
                ctx.report_if_valid(s);
                return true;
            }
            Type2Outcome::None => {}
        }

        // Lines 17–20: Type-I rules.
        let pruned = type1_compact(ctx.graph, &cuts, ext, ext_bits, &degrees.ext_in_s, ee);
        ctx.stats.type1_pruned += pruned as u64;

        // Line 21: stop when ext is empty or this round pruned nothing.
        if ext.is_empty() || pruned == 0 {
            break;
        }
    }

    // Lines 22–25: if ext is empty, S has nothing to extend — examine it.
    if ext.is_empty() {
        ctx.report_if_valid(s);
        return true;
    }
    false
}

/// Algorithm 1 lines 17–20: removes from `ext` (in place, survivors in
/// order) and from `ext_bits` every vertex `rule` prunes, and returns how
/// many went. `ext_in_s` holds the round's SE-degrees. The EE-degrees are
/// all counted against the round's `ext`, before anything leaves it, and
/// only at or above Theorem 5's cut ([`RoundCuts::ee_from`]); the vertices
/// below get 0, which the rule never reads for them.
fn type1_compact(
    g: &LocalGraph,
    rule: &RoundCuts,
    ext: &mut Vec<u32>,
    ext_bits: &mut VertexBitSet,
    ext_in_s: &[u32],
    ee: &mut Vec<u32>,
) -> usize {
    compute_ee_degrees_into(g, ext, ext_bits, ext_in_s, rule.ee_from(), ee);
    compact(ext, |j, u| {
        let prune = rule.prunes(ext_in_s[j], ee[j]);
        ext_bits.remove_if(u, prune);
        !prune
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PruneConfig;
    use crate::degrees::compute_degrees;
    use crate::params::MiningParams;
    use crate::results::QuasiCliqueSet;
    use crate::stats::MiningStats;
    use proptest::prelude::*;
    use qcm_gen::datasets::figure4_local;
    use qcm_graph::{Graph, LocalGraph, VertexId};

    fn run(
        g: &LocalGraph,
        params: MiningParams,
        config: PruneConfig,
        s: &[u32],
        ext: &[u32],
    ) -> (bool, Vec<u32>, Vec<u32>, QuasiCliqueSet) {
        let mut sink = QuasiCliqueSet::new();
        let mut ctx = MiningContext::with_config(g, params, config, &mut sink);
        let mut s = s.to_vec();
        let mut ext = ext.to_vec();
        let pruned = iterative_bounding(&mut ctx, &mut s, &mut ext);
        (pruned, s, ext, sink)
    }

    #[test]
    fn healthy_candidate_is_not_pruned() {
        // S = {a}, ext = {b, c, d, e} with γ = 0.6: the dense 5-vertex region
        // of Figure 4 survives in full.
        let g = figure4_local();
        let (pruned, s, ext, sink) = run(
            &g,
            MiningParams::new(0.6, 4),
            PruneConfig::all_enabled(),
            &[0],
            &[1, 2, 3, 4],
        );
        assert!(!pruned);
        assert_eq!(s, vec![0]);
        assert_eq!(ext.len(), 4);
        assert!(sink.is_empty());
    }

    #[test]
    fn type1_pruning_removes_peripheral_vertices() {
        // S = {a}, ext = {b, c, d, e, f, h}: with γ = 0.9 and τ_size = 4,
        // peripheral vertices like f (adjacent only to b within the
        // candidate region) cannot survive the degree rules.
        let g = figure4_local();
        let (pruned, _s, ext, _sink) = run(
            &g,
            MiningParams::new(0.9, 4),
            PruneConfig::all_enabled(),
            &[0],
            &[1, 2, 3, 4, 5, 7],
        );
        // Whatever the final outcome, f (5) and h (7) must have been dropped
        // from ext if extensions were not wholesale pruned.
        if !pruned {
            assert!(!ext.contains(&5));
            assert!(!ext.contains(&7));
        }
    }

    #[test]
    fn infeasible_candidate_is_pruned_entirely() {
        // S = {f, i}: disconnected within the candidate with nothing in ext to
        // repair it — Type-II pruning must fire and nothing is reported.
        let g = figure4_local();
        let (pruned, _, _, sink) = run(
            &g,
            MiningParams::new(0.9, 2),
            PruneConfig::all_enabled(),
            &[5, 8],
            &[],
        );
        assert!(pruned);
        assert!(sink.is_empty());
    }

    #[test]
    fn empty_ext_reports_valid_s() {
        // S = {a, b, c, e} (0.9-quasi-clique needs ⌈0.9·3⌉ = 3 internal
        // neighbors; all four members have exactly 3), ext = ∅.
        let g = figure4_local();
        let (pruned, _, _, sink) = run(
            &g,
            MiningParams::new(0.9, 4),
            PruneConfig::all_enabled(),
            &[0, 1, 2, 4],
            &[],
        );
        assert!(pruned);
        assert_eq!(sink.len(), 1);
        let expected: Vec<VertexId> = [0u32, 1, 2, 4].iter().map(|&v| VertexId::new(v)).collect();
        assert!(sink.contains(&expected));
    }

    #[test]
    fn critical_vertex_absorbs_required_neighbors() {
        // Same construction as the critical-vertex unit test: a (vertex 0)
        // must absorb both of its extension neighbors {2, 3}.
        let g = {
            let graph = Graph::from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4)]).unwrap();
            let all: Vec<VertexId> = graph.vertices().collect();
            LocalGraph::from_induced(&graph, &all)
        };
        let (pruned, s, _ext, _sink, stats) = run_list(
            &g,
            MiningParams::new(0.6, 2),
            PruneConfig::all_enabled(),
            &[0, 1],
            &[2, 3, 4],
        );
        // After the critical move S must contain {0, 1, 2, 3} regardless of
        // whether the remaining extension survives further pruning.
        assert!(
            s.contains(&2) && s.contains(&3),
            "s = {s:?}, pruned = {pruned}"
        );
        assert_eq!(stats.critical_moves, 2);
    }

    #[test]
    fn disabled_rules_leave_candidate_untouched() {
        let g = figure4_local();
        let (pruned, s, ext, sink) = run(
            &g,
            MiningParams::new(0.9, 4),
            PruneConfig::none(),
            &[0],
            &[1, 2, 3, 4, 5, 7],
        );
        assert!(!pruned);
        assert_eq!(s, vec![0]);
        assert_eq!(ext.len(), 6);
        assert!(sink.is_empty());
    }

    #[test]
    fn stats_record_rule_activity() {
        let g = figure4_local();
        let mut sink = QuasiCliqueSet::new();
        let mut ctx = MiningContext::with_config(
            &g,
            MiningParams::new(0.9, 4),
            PruneConfig::all_enabled(),
            &mut sink,
        );
        let mut s = vec![0u32];
        let mut ext = vec![1u32, 2, 3, 4, 5, 7];
        let _ = iterative_bounding(&mut ctx, &mut s, &mut ext);
        assert!(ctx.stats.bounding_rounds >= 1);
        assert!(ctx.stats.type1_pruned + ctx.stats.type2_pruned > 0);
    }

    #[test]
    fn one_context_bounds_unrelated_candidates_like_fresh_contexts() {
        // The benchmark probe's pattern: a context over a whole working graph
        // is handed a fresh S = [v] with no relation to the S it bounded
        // before. The carried degrees must follow.
        let mut g = figure4_local();
        g.build_hub_index(qcm_graph::IndexSpec::Auto);
        let params = MiningParams::new(0.6, 4);
        let candidates: [(&[u32], &[u32]); 4] = [
            (&[0], &[1, 2, 3, 4]),
            (&[3, 7], &[8]),
            (&[2], &[0, 1, 3, 4, 6]),
            (&[0], &[1, 2, 3, 4]),
        ];
        let mut shared_sink = QuasiCliqueSet::new();
        let mut fresh_reports = QuasiCliqueSet::new();
        let mut shared =
            MiningContext::with_config(&g, params, PruneConfig::all_enabled(), &mut shared_sink);
        for (s, ext) in candidates {
            let (mut s_shared, mut ext_shared) = (s.to_vec(), ext.to_vec());
            let pruned = iterative_bounding(&mut shared, &mut s_shared, &mut ext_shared);
            let fresh = run(&g, params, PruneConfig::all_enabled(), s, ext);
            assert_eq!(
                (pruned, s_shared, ext_shared),
                (fresh.0, fresh.1, fresh.2),
                "S = {s:?}, ext = {ext:?}"
            );
            for set in fresh.3.iter() {
                fresh_reports.insert(set.clone());
            }
        }
        assert_eq!(shared_sink, fresh_reports);
    }

    /// [`run`] with its statistics, the extension cleared when pruned.
    fn run_list(
        g: &LocalGraph,
        params: MiningParams,
        config: PruneConfig,
        s: &[u32],
        ext: &[u32],
    ) -> (bool, Vec<u32>, Vec<u32>, QuasiCliqueSet, MiningStats) {
        let mut sink = QuasiCliqueSet::new();
        let mut ctx = MiningContext::with_config(g, params, config, &mut sink);
        let (mut s, mut ext) = (s.to_vec(), ext.to_vec());
        let pruned = iterative_bounding(&mut ctx, &mut s, &mut ext);
        if pruned {
            ext.clear();
        }
        let stats = ctx.stats;
        (pruned, s, ext, sink, stats)
    }

    #[test]
    fn a_critical_move_rebuilds_the_cuts_for_the_grown_s() {
        // S = {0, 1, 2}, ext = {3, 4, 5} at γ = 0.7: L_S = 2, so a member is
        // critical at total degree ⌈0.7·4⌉ = 3. Vertex 0 (d_S 2, d_ext 1) is,
        // and pulls 3 into S mid-round.
        let g = {
            let edges = [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 3),
                (1, 5),
                (2, 3),
                (2, 4),
                (2, 5),
                (3, 4),
                (3, 5),
                (4, 5),
            ];
            let graph = Graph::from_edges(6, edges).unwrap();
            let all: Vec<VertexId> = graph.vertices().collect();
            LocalGraph::from_induced(&graph, &all)
        };
        let params = MiningParams::new(0.7, 2);
        let config = PruneConfig::all_enabled();
        let (before, _) = compute_degrees(&g, &[0, 1, 2], &[3, 4, 5]);
        let (after, _) = compute_degrees(&g, &[0, 1, 2, 3], &[4, 5]);
        let bounds = |d: &Degrees, ext_len| {
            let UpperBound::Bound(us) = upper_bound(&params, d, ext_len) else {
                panic!()
            };
            let LowerBound::Bound(ls) = lower_bound(&params, d, ext_len) else {
                panic!()
            };
            RoundCuts::new(&params, &config, d.s_in_s.len(), Some(us), Some(ls))
        };
        let (pre_move, grown) = (bounds(&before, 3), bounds(&after, 2));
        assert_eq!(pre_move.critical_degree(), Some(3));
        // In the grown S, vertex 4 has d_S 2 and d_ext 1. U_S = 1 there, so
        // Theorem 5 cuts d_S below ⌈0.7·4⌉ − 1 + 1 = 3; the pre-move cuts
        // (U_S = 2, |S| = 3) let it stay.
        assert!(grown.prunes(2, 1) && !pre_move.prunes(2, 1));

        let (pruned, s, ext, sink, stats) = run_list(&g, params, config, &[0, 1, 2], &[3, 4, 5]);
        assert!(!pruned && sink.is_empty());
        assert_eq!((s, ext), (vec![0, 1, 2, 3], vec![5]));
        assert_eq!((stats.critical_moves, stats.type1_pruned), (1, 1));
        assert_eq!(stats.bounding_rounds, 2);
    }

    /// A random graph on `n ≤ 40` vertices, `S` and `ext` disjoint random
    /// subsets of it, γ and a rule set.
    fn arb_type1_case() -> impl Strategy<Value = (LocalGraph, Vec<u32>, Vec<u32>, MiningParams, u8)>
    {
        (4usize..40, 0u64..u64::MAX, 5u32..=10, 0u8..8).prop_flat_map(|(n, seed, g10, family)| {
            let pairs = n * (n - 1) / 2;
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..=pairs).prop_map(
                move |edges| {
                    let edges: Vec<(u32, u32)> =
                        edges.into_iter().filter(|(a, b)| a != b).collect();
                    let graph = Graph::from_edges(n, edges.iter().copied()).unwrap();
                    let all: Vec<VertexId> = graph.vertices().collect();
                    let mut lg = LocalGraph::from_induced(&graph, &all);
                    lg.build_hub_index(qcm_graph::IndexSpec::Threshold((seed % 8) as usize));
                    // Each vertex goes to S, ext or neither by two bits of the seed.
                    let side = |u: u32| (seed.rotate_left(2 * u) & 3) as u8;
                    let s: Vec<u32> = (0..n as u32).filter(|&u| side(u) == 0).collect();
                    let ext: Vec<u32> = (0..n as u32).filter(|&u| side(u) >= 2).collect();
                    (
                        lg,
                        s,
                        ext,
                        MiningParams::new(f64::from(g10) / 10.0, 2),
                        family,
                    )
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Type-I with EE-degrees counted only from Theorem 5's cut keeps
        /// the same survivors, in the same order, as Type-I over every
        /// EE-degree.
        #[test]
        fn the_ee_gate_keeps_every_type1_decision(
            (g, s, ext, params, family) in arb_type1_case(),
            us in 0usize..12,
            ls in 0usize..12,
        ) {
            let mut config = PruneConfig::all_enabled();
            config.degree = family & 1 != 0;
            config.upper_bound = family & 2 != 0;
            config.lower_bound = family & 4 != 0;
            let (degrees, bits) = compute_degrees(&g, &s, &ext);
            let rule = RoundCuts::new(&params, &config, s.len(), Some(us), Some(ls));
            let (mut gated, mut gated_bits, mut ee) = (ext.clone(), bits.clone(), Vec::new());
            let pruned = type1_compact(&g, &rule, &mut gated, &mut gated_bits, &degrees.ext_in_s, &mut ee);
            // The reference: every EE-degree, then the same compaction.
            compute_ee_degrees_into(&g, &ext, &bits, &degrees.ext_in_s, 0, &mut ee);
            let survivors: Vec<u32> = ext
                .iter()
                .zip(&degrees.ext_in_s)
                .zip(&ee)
                .filter(|((_, &d_s), &d_ext)| !rule.prunes(d_s, d_ext))
                .map(|((&u, _), _)| u)
                .collect();
            prop_assert_eq!(&gated, &survivors);
            prop_assert_eq!(pruned, ext.len() - survivors.len());
            prop_assert_eq!(gated_bits, VertexBitSet::from_members(g.capacity(), &survivors));
        }
    }
}
