//! Property-based tests for the mining core.
//!
//! The central invariant of the paper's algorithm is *exactness*: unlike
//! Quick, it must report precisely the maximal γ-quasi-cliques. These tests
//! check that against the brute-force oracle on random graphs, and check the
//! soundness of the pruning rules (no pruning configuration may change the
//! final result set).

use proptest::prelude::*;
use qcm_core::degrees::{carried_degrees_into, Degrees};
use qcm_core::path_degrees::PathDegrees;
use qcm_core::{naive, quick_mine, MiningParams, PruneConfig, SerialMiner};
use qcm_graph::{Graph, GraphBuilder, IndexSpec, LocalGraph, VertexBitSet, VertexId};

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

    /// Raw reports always contain the maximal family (post-processing only
    /// ever removes dominated sets).
    #[test]
    fn raw_report_count_upper_bounds_maximal((g, params) in (arb_graph(12), arb_params())) {
        let mined = SerialMiner::new(params).mine(&g);
        prop_assert!(mined.raw_reported >= mined.maximal.len() as u64);
    }
}

/// A planted-community graph small enough that every root's task keeps a
/// bit row for every vertex: a power-law background with a few dense
/// communities of size 8–19.
fn arb_planted() -> impl Strategy<Value = Graph> {
    (80usize..200, 0u64..1 << 32, 6u32..=10, 1usize..4).prop_map(|(n, seed, density10, count)| {
        let spec = qcm_gen::PlantedGraphSpec {
            num_vertices: n,
            background_avg_degree: 5.0,
            background_max_degree: 40.0,
            community_sizes: (0..count)
                .map(|i| 8 + (seed as usize >> (4 * i)) % 12)
                .collect(),
            community_density: density10 as f64 / 10.0,
            seed,
            ..qcm_gen::PlantedGraphSpec::default()
        };
        qcm_gen::plant_quasi_cliques(&spec).0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every child `S' = {root, v}` of every root task — its extension
    /// being the vertices after `v` within two hops of it — the popcount
    /// round yields the degrees the list round reads (`ext_in_s` aside,
    /// which no bound or Type-II rule reads), and so the same `U_S`, `L_S`
    /// and Type-II outcome.
    #[test]
    fn the_popcount_round_bounds_a_roots_child_like_the_list_round(
        g in arb_planted(),
        (params, config) in arb_task_shape(),
    ) {
        use qcm_core::bounds::{lower_bound, upper_bound, LowerBound, UpperBound};
        use qcm_core::degrees::pair_degrees_into;
        use qcm_core::rules::check_type2;
        let k = config.peel_threshold(&params);
        let (core, roots) = qcm_graph::kcore::k_core_with_roots(&g, k.max(1));
        let lists = LocalGraph::from_induced(&g, &core);
        let core = qcm_sync::Arc::new(qcm_core::CoreNumbering::new(core));
        let mut tasks = qcm_core::TaskAssembly::new(params, &config, core);
        let (mut children, mut both) = (0u64, 0u64);
        for root in roots {
            let task = tasks.build(&lists, root).filter(|t| t.capacity() >= params.min_size);
            let Some(mut t) = task else { continue };
            t.build_hub_index(IndexSpec::Auto);
            let n = t.capacity();
            let mut path = PathDegrees::default();
            let (mut list, mut pair) = (Degrees::default(), Degrees::default());
            for v in 1..n as u32 {
                let mut b_v = VertexBitSet::new(n);
                qcm_core::two_hop_bits_into(&t, v, &mut b_v, &mut Vec::new());
                let ext: Vec<u32> = (v + 1..n as u32).filter(|&u| b_v.contains(u)).collect();
                let bits = VertexBitSet::from_members(n, &ext);
                children += 1;
                let rows = t.hub_row(0).is_some() && t.hub_row(v).is_some();
                prop_assert_eq!(pair_degrees_into(&t, [0, v], &bits, ext.len(), &mut pair), rows);
                if !rows {
                    continue;
                }
                both += 1;
                carried_degrees_into(&t, &mut path, &[0, v], &ext, &bits, &mut list);
                list.ext_in_s.clear();
                prop_assert_eq!(&pair, &list, "root {} child {}", root, v);
                let bounds = |d: &Degrees| {
                    let us = match upper_bound(&params, d, ext.len()) {
                        UpperBound::Bound(b) => Some(b),
                        UpperBound::ExtensionsPruned => None,
                    };
                    let ls = match lower_bound(&params, d, ext.len()) {
                        LowerBound::Bound(b) => Some(b),
                        LowerBound::AllPruned => None,
                    };
                    (us, ls, check_type2(&params, &config, d, us, ls))
                };
                prop_assert_eq!(bounds(&pair), bounds(&list));
            }
        }
        // Every task of these graphs is small enough to keep all its rows.
        prop_assert_eq!(both, children);
    }
}
