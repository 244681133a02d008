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

use common::{arb_graph, arb_params};
use proptest::prelude::*;
use qcm_core::{
    recursive_mine, remove_non_maximal, CoreNumbering, MiningContext, MiningOutput, MiningParams,
    MiningScratch, MiningStats, NoHandOff, PruneConfig, QuasiCliqueSet, SerialMiner, TaskAssembly,
};
use qcm_graph::{Graph, IndexSpec};
use qcm_sync::Arc;

mod common;

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
    let core = prune.core_of(g, &params);
    let mut stats = MiningStats::new();
    if prune.size_threshold {
        stats.kcore_removed = (g.num_vertices() - core.graph.capacity()) as u64;
    }
    let mut sink = QuasiCliqueSet::new();
    let numbering = CoreNumbering::new(core.graph.global_ids().to_vec());
    let mut tasks = TaskAssembly::new(params, &prune, Arc::new(numbering));
    for &v in &core.roots {
        let task = tasks
            .build(&core.graph, v)
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
