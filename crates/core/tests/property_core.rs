//! Property-based tests for the mining core.
//!
//! The central invariant of the paper's algorithm is *exactness*: unlike
//! Quick, it must report precisely the maximal γ-quasi-cliques. These tests
//! check that against the brute-force oracle on random graphs, and check the
//! soundness of the pruning rules (no pruning configuration may change the
//! final result set).

use proptest::prelude::*;
use qcm_core::{naive, quick_mine, MiningParams, PruneConfig, SerialMiner};
use qcm_graph::{Graph, GraphBuilder};

/// Random simple graph with `n ≤ max_n` vertices and bounded edge count.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4usize..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new();
                b.set_min_vertices(n);
                for (a, x) in edges {
                    b.add_edge_raw(a, x);
                }
                b.build()
            },
        )
    })
}

/// Random mining parameters in the ranges the paper uses (γ ∈ [0.5, 1.0]).
fn arb_params() -> impl Strategy<Value = MiningParams> {
    (5u32..=10, 3usize..=5)
        .prop_map(|(g10, min_size)| MiningParams::new(g10 as f64 / 10.0, min_size))
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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

    /// Raw reports always contain the maximal family (post-processing only
    /// ever removes dominated sets).
    #[test]
    fn raw_report_count_upper_bounds_maximal((g, params) in (arb_graph(12), arb_params())) {
        let mined = SerialMiner::new(params).mine(&g);
        prop_assert!(mined.raw_reported >= mined.maximal.len() as u64);
    }
}
