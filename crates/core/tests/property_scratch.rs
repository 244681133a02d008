//! Property tests of the scratch arena.
//!
//! The pooled recursion must be a pure performance change: for any graph,
//! mining parameters and pruning configuration, [`SerialMiner`], which
//! carries one warm pooled arena from root to root, and a per-root loop over
//! the same [`TaskAssembly`] tasks that installs the fresh-allocation
//! reference arena ([`MiningScratch::fresh`]) in every context must produce
//! byte-identical result sets, identical raw report counts and identical
//! search statistics — the pool may only change *where* buffers come from,
//! never what the search does with them.

use proptest::prelude::*;
use qcm_core::{
    recursive_mine, remove_non_maximal, CoreNumbering, MiningContext, MiningOutput, MiningParams,
    MiningScratch, MiningStats, NoHandOff, PruneConfig, QuasiCliqueSet, SerialMiner, TaskAssembly,
};
use qcm_graph::kcore::k_core_with_roots;
use qcm_graph::{Graph, GraphBuilder, IndexSpec, LocalGraph};
use qcm_sync::Arc;

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

/// A pruning configuration: everything on, everything off, or exactly one
/// rule off — the shapes the hot path branches on.
fn arb_prune() -> impl Strategy<Value = PruneConfig> {
    (0usize..=PruneConfig::rule_names().len() + 1).prop_map(|pick| {
        if pick == 0 {
            PruneConfig::none()
        } else if pick == 1 {
            PruneConfig::all_enabled()
        } else {
            PruneConfig::all_enabled().without(PruneConfig::rule_names()[pick - 2])
        }
    })
}

/// What `SerialMiner` reports, mined root by root with a fresh arena in
/// every context and `index` rows on every task: the maximal sets, the raw
/// report count and the search statistics.
fn mine_fresh_per_root(
    g: &Graph,
    params: MiningParams,
    prune: PruneConfig,
    index: IndexSpec,
) -> (QuasiCliqueSet, u64, MiningStats) {
    let k = prune.peel_threshold(&params);
    let (core, roots) = k_core_with_roots(g, k.max(1));
    let mut stats = MiningStats::new();
    if k > 0 {
        stats.kcore_removed = (g.num_vertices() - core.len()) as u64;
    }
    let mut sink = QuasiCliqueSet::new();
    let lists = LocalGraph::from_induced(g, &core);
    let mut tasks = TaskAssembly::new(params, &prune, Arc::new(CoreNumbering::new(core)));
    for v in roots {
        let task = tasks
            .build(&lists, v)
            .filter(|t| t.capacity() >= params.min_size);
        let Some(mut task) = task else {
            continue;
        };
        task.build_hub_index(index);
        let mut ctx = MiningContext::with_config(&task, params, prune, &mut sink);
        ctx.scratch = MiningScratch::fresh();
        let mut ext: Vec<u32> = (1..task.capacity() as u32).collect();
        recursive_mine(&mut ctx, &[0], &mut ext, &mut NoHandOff);
        stats.merge(&ctx.stats);
        stats.tasks_processed += 1;
    }
    (remove_non_maximal(sink), stats.results_reported, stats)
}

fn observed(out: MiningOutput) -> (QuasiCliqueSet, u64, MiningStats) {
    (out.maximal, out.raw_reported, out.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The warm pooled arena and the fresh one agree on everything
    /// observable.
    #[test]
    fn pooled_recursion_is_byte_identical_to_fresh(
        (g, params, prune) in (arb_graph(12), arb_params(), arb_prune())
    ) {
        let pooled = observed(SerialMiner::with_config(params, prune).mine(&g));
        let fresh = mine_fresh_per_root(&g, params, prune, IndexSpec::Auto);
        prop_assert_eq!(
            pooled, fresh,
            "gamma={} min_size={} prune={:?}", params.gamma, params.min_size, prune
        );
    }

    /// The agreement holds whichever rows a task carries (the two-hop kernel
    /// takes a word-parallel shortcut through the rows, which must not be
    /// observable either).
    #[test]
    fn pooled_recursion_matches_fresh_across_index_specs(
        (g, params) in (arb_graph(12), arb_params())
    ) {
        let pooled = observed(SerialMiner::new(params).mine(&g));
        let none = IndexSpec::Threshold(usize::MAX);
        for index in [none, IndexSpec::Auto, IndexSpec::Threshold(0)] {
            let fresh = mine_fresh_per_root(&g, params, PruneConfig::all_enabled(), index);
            prop_assert_eq!(&pooled, &fresh, "{:?}", index);
        }
    }
}
