//! Property-based tests for the mining core.
//!
//! The central invariant of the paper's algorithm is *exactness*: unlike
//! Quick, it must report precisely the maximal γ-quasi-cliques. These tests
//! check that against the brute-force oracle on random graphs, and check the
//! soundness of the pruning rules (no pruning configuration may change the
//! final result set).

use common::{arb_graph, arb_params};
use proptest::prelude::*;
use qcm_core::degrees::{carried_degrees_into, Degrees};
use qcm_core::path_degrees::PathDegrees;
use qcm_core::{naive, quick_mine, MiningParams, PruneConfig, SerialMiner};
use qcm_graph::{IndexSpec, LocalGraph, VertexBitSet, VertexId};

mod common;

/// The γ values and pruning configurations that decide how a root's task
/// subgraph is cut: γ = 0.4 and `without("diameter")` keep every larger
/// vertex instead of the two-hop neighborhood, `without("size_threshold")`
/// and `none()` skip the k-core peel.
fn arb_task_shape() -> impl Strategy<Value = (MiningParams, PruneConfig)> {
    (0usize..6, 2usize..=5, 0usize..4).prop_map(|(gamma_idx, min_size, config_idx)| {
        let gamma = [0.4, 0.5, 0.6, 0.8, 0.9, 1.0][gamma_idx];
        let config = [
            PruneConfig::all_enabled(),
            PruneConfig::none(),
            PruneConfig::all_enabled().without("size_threshold"),
            PruneConfig::all_enabled().without("diameter"),
        ][config_idx];
        (MiningParams::new(gamma, min_size), config)
    })
}

/// One move of a search over `S`, decoded against the current `S` by
/// [`next_s`]: `(kind, pick, ext_mask)`.
type Step = (u8, u32, u32);

/// The `S` a step leads to, over the vertices `alive` (never empty).
/// Kind 0 is a DFS push, 1 pops any number of levels at once, 2 is a
/// critical-vertex style extension by up to three vertices, 3 jumps to an
/// unrelated set that shares no prefix with `s`.
fn next_s(s: &[u32], alive: &[u32], (kind, pick, _): Step) -> Vec<u32> {
    let mut next = s.to_vec();
    let push_free = |next: &mut Vec<u32>, pick: u32| {
        let free: Vec<u32> = alive
            .iter()
            .copied()
            .filter(|v| !next.contains(v))
            .collect();
        if !free.is_empty() {
            next.push(free[pick as usize % free.len()]);
        }
    };
    match kind {
        0 => push_free(&mut next, pick),
        1 => next.truncate(pick as usize % (s.len() + 1)),
        2 => (0..3).for_each(|i| push_free(&mut next, pick.rotate_left(8 * i))),
        _ => {
            next.clear();
            let first: Vec<u32> = alive
                .iter()
                .copied()
                .filter(|v| s.first() != Some(v))
                .collect();
            if !first.is_empty() {
                next.push(first[pick as usize % first.len()]);
                (1..=pick % 4).for_each(|i| push_free(&mut next, pick.rotate_left(4 * i)));
            }
        }
    }
    next
}

/// `|Γ(v) ∩ set|` by walking `v`'s adjacency list.
fn list_degree(g: &LocalGraph, v: u32, set: &[u32]) -> u32 {
    g.neighbors(v).iter().filter(|w| set.contains(w)).count() as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The degrees carried along the search path equal a recount from the
    /// adjacency lists after every move, whatever the sequence of `S` values
    /// one `PathDegrees` is asked to follow, with rows for every, some or no
    /// vertices.
    #[test]
    fn carried_degrees_equal_a_recount_after_every_move(
        g in arb_graph(16),
        spec_idx in 0usize..3,
        steps in proptest::collection::vec((0u8..4, 0u32..u32::MAX, 0u32..u32::MAX), 1..24),
    ) {
        let all: Vec<VertexId> = g.vertices().collect();
        let mut lg = LocalGraph::from_induced(&g, &all);
        let none = IndexSpec::Threshold(usize::MAX);
        lg.build_hub_index([IndexSpec::Auto, IndexSpec::Threshold(3), none][spec_idx]);
        let alive: Vec<u32> = (0..lg.capacity() as u32).collect();
        let mut path = PathDegrees::default();
        let mut degrees = Degrees::default();
        let mut s: Vec<u32> = Vec::new();
        for step in steps {
            s = next_s(&s, &alive, step);
            let ext: Vec<u32> = alive
                .iter()
                .copied()
                .filter(|&u| step.2 >> u & 1 != 0 && !s.contains(&u))
                .collect();
            let ext_bits = VertexBitSet::from_members(lg.capacity(), &ext);
            carried_degrees_into(&lg, &mut path, &s, &ext, &ext_bits, &mut degrees);
            let mut expected = Degrees {
                s_in_s: s.iter().map(|&v| list_degree(&lg, v, &s)).collect(),
                s_in_ext: s.iter().map(|&v| list_degree(&lg, v, &ext)).collect(),
                ext_in_s: ext.iter().map(|&u| list_degree(&lg, u, &s)).collect(),
                se_histogram: vec![0; s.len() + 1],
            };
            for &d in &expected.ext_in_s {
                expected.se_histogram[d as usize] += 1;
            }
            prop_assert_eq!(&degrees, &expected, "S = {:?}, ext = {:?}, after {:?}", s, ext, step);
        }
    }

    /// Mining every root on its own task subgraph loses and invents nothing,
    /// however the subgraph is cut.
    #[test]
    fn per_root_task_subgraphs_are_exact(
        g in arb_graph(12),
        (params, config) in arb_task_shape(),
    ) {
        let mined = SerialMiner::with_config(params, config).mine(&g);
        let oracle = naive::maximal_quasi_cliques(&g, &params);
        prop_assert_eq!(
            mined.maximal, oracle,
            "gamma={} min_size={} config={:?}", params.gamma, params.min_size, config
        );
    }

    /// The serial miner returns exactly the oracle's maximal quasi-cliques.
    #[test]
    fn serial_miner_is_exact((g, params) in (arb_graph(12), arb_params())) {
        let mined = SerialMiner::new(params).mine(&g);
        let oracle = naive::maximal_quasi_cliques(&g, &params);
        prop_assert_eq!(
            mined.maximal, oracle,
            "exactness violated at gamma={} min_size={}", params.gamma, params.min_size
        );
    }

    /// Every reported maximal set really is a valid quasi-clique.
    #[test]
    fn reported_sets_are_valid((g, params) in (arb_graph(14), arb_params())) {
        let mined = SerialMiner::new(params).mine(&g);
        for s in mined.maximal.iter() {
            prop_assert!(qcm_core::is_valid_quasi_clique(&g, s, &params));
        }
    }

    /// Disabling any single pruning rule must not change the maximal result
    /// set (the rules are optimisations, never filters).
    #[test]
    fn pruning_rules_are_sound((g, params) in (arb_graph(11), arb_params()), rule_idx in 0usize..8) {
        let rule = PruneConfig::rule_names()[rule_idx];
        let with_all = SerialMiner::new(params).mine(&g);
        let without =
            SerialMiner::with_config(params, PruneConfig::all_enabled().without(rule)).mine(&g);
        prop_assert_eq!(
            with_all.maximal, without.maximal,
            "disabling rule {} changed the result set", rule
        );
    }

    /// The Quick baseline never reports a maximal set that the fixed
    /// algorithm lacks (its defect is one-sided: it can only lose results).
    #[test]
    fn quick_baseline_is_a_subset((g, params) in (arb_graph(12), arb_params())) {
        let fixed = SerialMiner::new(params).mine(&g);
        let quick = quick_mine(&g, params);
        for s in quick.maximal.iter() {
            prop_assert!(fixed.maximal.contains(s));
        }
        prop_assert!(quick.maximal.len() <= fixed.maximal.len());
    }

    /// k-core preprocessing never removes a vertex that appears in some
    /// maximal valid quasi-clique.
    #[test]
    fn kcore_never_removes_result_vertices((g, params) in (arb_graph(12), arb_params())) {
        let oracle = naive::maximal_quasi_cliques(&g, &params);
        let k = params.kcore_threshold();
        let survivors = qcm_graph::kcore::k_core_vertices(&g, k);
        for s in oracle.iter() {
            for v in s {
                prop_assert!(
                    survivors.binary_search(v).is_ok(),
                    "vertex {} of result {:?} peeled by {}-core", v, s, k
                );
            }
        }
    }

    /// The global peel's edge rule is exact: every member of every set the
    /// naive oracle finds valid, and every edge between two members, is in
    /// the (k, s)-core both miners start from.
    #[test]
    fn the_global_peel_keeps_every_edge_of_every_valid_set(
        g in arb_graph(14),
        gamma in 0usize..4,
        min_size in 3usize..=6,
    ) {
        let params = MiningParams::new([0.6, 0.75, 0.9, 1.0][gamma], min_size);
        let g = qcm_sync::Arc::new(g);
        let core = PruneConfig::all_enabled().core_of(&g, &params);
        let masked = core.masked(&g);
        for set in naive::all_valid_quasi_cliques(&g, &params).iter() {
            for (i, &u) in set.iter().enumerate() {
                prop_assert!(core.graph.global_ids().binary_search(&u).is_ok(), "{} of {:?} peeled", u, set);
                for &v in set[i + 1..].iter().filter(|&&v| g.has_edge(u, v)) {
                    prop_assert!(masked.has_edge(u, v), "edge {}-{} of {:?} cut", u, v, set);
                }
            }
        }
    }

    /// Raw reports always contain the maximal family (post-processing only
    /// ever removes dominated sets).
    #[test]
    fn raw_report_count_upper_bounds_maximal((g, params) in (arb_graph(12), arb_params())) {
        let mined = SerialMiner::new(params).mine(&g);
        prop_assert!(mined.raw_reported >= mined.maximal.len() as u64);
    }
}
