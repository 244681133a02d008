//! Stress/fault-injection tests of the engine running the real quasi-clique
//! application: pathological queue capacities (forcing constant spilling),
//! a one-entry vertex cache, skewed partitioning with many machines, and
//! spill directories on disk. In every scenario the result set must match the
//! serial reference and no spill file may be left behind.

use qcm::prelude::*;
use qcm_sync::Arc;
use std::time::Duration;

fn test_graph() -> (Arc<Graph>, MiningParams) {
    let spec = PlantedGraphSpec {
        num_vertices: 250,
        background_avg_degree: 5.0,
        background_beta: 2.4,
        background_max_degree: 50.0,
        community_sizes: vec![9, 8, 8],
        community_density: 0.95,
        seed: 77,
    };
    let (graph, _) = qcm::gen::plant_quasi_cliques(&spec);
    (Arc::new(graph), MiningParams::new(0.8, 7))
}

#[test]
fn tiny_queues_with_disk_spill_produce_correct_results() {
    let (graph, params) = test_graph();
    let reference = Session::builder()
        .params(params)
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();

    let spill_dir = std::env::temp_dir().join(format!("qcm_fault_spill_{}", std::process::id()));
    let mut config = EngineConfig::single_machine(4);
    config.batch_size = 2;
    config.local_capacity = 2;
    config.global_queue_capacity = 2;
    config.spill_dir = Some(spill_dir.clone());

    // Every task is "big" → hammer the global queue; maximal decomposition.
    let out = ParallelMiner::new(params, config)
        .with_decomposition(1, Duration::ZERO)
        .mine(graph.clone());
    assert_eq!(out.maximal, reference.maximal);
    assert!(
        out.metrics.spill_bytes_written > 0,
        "2-slot queues with full decomposition must spill"
    );
    assert_eq!(
        out.metrics.spill_bytes_written,
        out.metrics.spill_bytes_read
    );
    let leftover = std::fs::read_dir(&spill_dir)
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(leftover, 0, "spill files must be consumed and removed");
    let _ = std::fs::remove_dir_all(&spill_dir);
}

#[test]
fn one_entry_vertex_cache_is_only_a_performance_problem() {
    let (graph, params) = test_graph();
    let reference = Session::builder()
        .params(params)
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    let mut config = EngineConfig::cluster(4, 2);
    config.vertex_cache_capacity = 1;
    config.balance_period = Duration::from_millis(1);
    let out = ParallelMiner::new(params, config).mine(graph.clone());
    assert_eq!(out.maximal, reference.maximal);
    assert!(out.metrics.remote_fetches > 0);
}

#[test]
fn more_machines_than_meaningful_work_still_terminates() {
    let (graph, params) = test_graph();
    let reference = Session::builder()
        .params(params)
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    let mut config = EngineConfig::cluster(8, 1);
    config.balance_period = Duration::from_millis(1);
    let out = ParallelMiner::new(params, config).mine(graph.clone());
    assert_eq!(out.maximal, reference.maximal);
}

#[test]
fn stealing_moves_big_tasks_under_skew() {
    // All interesting vertices hash to a few machines when the graph is small
    // and the cluster is wide; with an aggressive balance period the master
    // should move at least some big tasks (or there must have been nothing to
    // move because queues drained instantly — accept either, but the run must
    // stay correct).
    let (graph, params) = test_graph();
    let reference = Session::builder()
        .params(params)
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    let mut config = EngineConfig::cluster(4, 1);
    config.balance_period = Duration::from_micros(200);
    let out = ParallelMiner::new(params, config)
        .with_decomposition(1, Duration::ZERO)
        .mine(graph.clone());
    assert_eq!(out.maximal, reference.maximal);
    // The metric is recorded; whether stealing triggered depends on timing,
    // so only sanity-check that the counter is readable and not absurd.
    assert!(out.metrics.stolen_tasks < 1_000_000);
}

#[test]
fn empty_and_trivial_graphs_are_handled() {
    let params = MiningParams::new(0.9, 3);
    let empty = Arc::new(Graph::empty(0));
    let parallel_session = |graph: &Arc<Graph>| {
        Session::builder()
            .params(params)
            .backend(Backend::parallel(2, 1))
            .build()
            .unwrap()
            .run(graph)
            .unwrap()
    };
    let out = parallel_session(&empty);
    assert!(out.maximal.is_empty());

    let no_edges = Arc::new(Graph::empty(50));
    let out = parallel_session(&no_edges);
    assert!(out.maximal.is_empty());

    let triangle = Arc::new(Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap());
    let out = parallel_session(&triangle);
    assert_eq!(out.maximal.len(), 1);
}

#[test]
fn dropped_pulls_are_retried_until_the_results_are_correct() {
    // The strict transport serialises every message AND loses the first few
    // pull attempts; the vertex table must retry through the timeout path
    // (visible in the metrics) and still produce the serial answer.
    let (graph, params) = test_graph();
    let reference = Session::builder()
        .params(params)
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    let mut config = EngineConfig::cluster(4, 1)
        .with_transport(qcm::engine::TransportFactory::strict().with_pull_drops(3));
    config.pull_timeout = Duration::from_millis(20);
    config.pull_retries = 6;
    let out = ParallelMiner::new(params, config).mine(graph.clone());
    assert_eq!(out.maximal, reference.maximal);
    assert!(
        out.metrics.pull_retries >= 3,
        "three dropped pulls must surface as retries, saw {}",
        out.metrics.pull_retries
    );
    assert_eq!(out.metrics.pull_failures, 0, "retries must eventually win");
}
