//! Equivalence tests for the per-task bitset-row policy (`IndexSpec`). Every
//! run gives its tasks `IndexSpec::Auto` rows; the other policies are
//! reached here, where a task is mined. Rows may only change how fast edge
//! queries run, never what is mined.

use qcm::core::{
    recursive_mine, remove_non_maximal, CoreNumbering, MiningContext, NoHandOff, TaskAssembly,
};
use qcm::graph::{LocalGraph, VertexId};
use qcm::prelude::*;
use qcm::IndexSpec;
use qcm_sync::Arc;

fn datasets() -> Vec<Arc<qcm::graph::Graph>> {
    let tiny = qcm::gen::datasets::tiny_test_dataset(7);
    let planted = qcm_bench_dataset(&qcm::gen::datasets::cx_gse1730());
    vec![Arc::new(tiny.graph), Arc::new(planted)]
}

/// A strongly reduced planted dataset (a few hundred vertices).
fn qcm_bench_dataset(spec: &qcm::gen::DatasetSpec) -> qcm::graph::Graph {
    let mut spec = spec.clone();
    spec.num_vertices = spec.num_vertices.min(300);
    spec.max_degree = spec.max_degree.min(40.0);
    spec.planted_sizes.truncate(2);
    spec.generate().graph
}

/// The rows a task reports, in report order, and its search counters.
fn mine_task(
    task: &LocalGraph,
    params: MiningParams,
    config: PruneConfig,
) -> (Vec<Vec<VertexId>>, MiningStats) {
    let mut rows = Vec::new();
    let mut ctx = MiningContext::with_config(task, params, config, &mut rows);
    let mut ext: Vec<u32> = (1..task.capacity() as u32).collect();
    recursive_mine(&mut ctx, &[0], &mut ext, &mut NoHandOff);
    let stats = ctx.stats;
    (rows, stats)
}

/// Rows may change how a node computes its sets, never which nodes the
/// search visits: on the Enron stand-in every root task reports the same
/// rows and the same search counters with a row for every vertex, for the
/// vertices of degree ≥ 4 and for none. With no rows a task keeps no
/// two-hop rows either, so each child's extension is cut by a two-hop set
/// built on the spot. Run with every rule, without the diameter rule (no
/// two-hop cut at all) and without the cover vertex (every extension vertex
/// is branched on). The tasks as built, with their `Auto` rows, add up to
/// what `SerialMiner` reports.
#[test]
fn task_search_counters_are_identical_under_every_row_policy() {
    let spec = qcm::gen::datasets::enron();
    let graph = spec.generate().graph;
    let params = MiningParams::new(spec.gamma, spec.min_size);
    for config in [
        PruneConfig::all_enabled(),
        PruneConfig::all_enabled().without("diameter"),
        PruneConfig::all_enabled().without("cover_vertex"),
    ] {
        let core = config.core_of(&graph, &params);
        let mut total = MiningStats::new();
        total.kcore_removed = (graph.num_vertices() - core.graph.capacity()) as u64;
        let numbering = CoreNumbering::new(core.graph.global_ids().to_vec());
        let mut tasks = TaskAssembly::new(params, &config, Arc::new(numbering));
        let mut reported = QuasiCliqueSet::new();
        for &v in &core.roots {
            let task = tasks
                .build(&core.graph, v)
                .filter(|t| t.capacity() >= params.min_size);
            let Some(mut task) = task else {
                continue;
            };
            task.build_hub_index(IndexSpec::Auto);
            let built = mine_task(&task, params, config);
            for policy in [
                IndexSpec::Threshold(0),
                IndexSpec::Threshold(4),
                IndexSpec::Threshold(usize::MAX),
            ] {
                let mut rebuilt = task.clone();
                rebuilt.build_hub_index(policy);
                let case = format!("{config:?}, root {v} under {policy:?}");
                assert_eq!(mine_task(&rebuilt, params, config), built, "{case}");
            }
            let (rows, stats) = built;
            for row in rows {
                reported.insert(row);
            }
            total.merge(&stats);
            total.tasks_processed += 1;
        }
        let serial = SerialMiner::with_config(params, config).mine(&graph);
        assert!(serial.outcome.is_complete());
        assert!(total.nodes_expanded > 0 && total.tasks_processed > 0);
        assert_eq!(total, serial.stats, "{config:?}");
        assert_eq!(remove_non_maximal(reported), serial.maximal, "{config:?}");
    }
}

#[test]
fn prepared_graph_runs_match_unprepared_runs() {
    for graph in datasets() {
        let session = Session::builder()
            .gamma(0.85)
            .min_size(5)
            .backend(Backend::parallel(4, 1))
            .build()
            .unwrap();
        let prepared = session.prepare(graph.clone());
        assert!(Arc::ptr_eq(prepared.graph(), &graph));
        let via_prepared = session.run_prepared(&prepared).unwrap();
        let direct = session.run(&graph).unwrap();
        assert_eq!(via_prepared.maximal, direct.maximal);
        // Reuse across runs: same PreparedGraph, second run, same answer.
        let again = session.run_prepared(&prepared).unwrap();
        assert_eq!(again.maximal, direct.maximal);
    }
}
