//! Determinism and schedule-independence of the parallel miner, driven
//! through the unified `Session` front door.
//!
//! The paper's system runs the same algorithm under wildly different
//! schedules (1–512 threads, 2–16 machines, different τ_split/τ_time). These
//! tests assert that the *result set* is a pure function of (graph, γ,
//! τ_size): every cluster shape and every hyperparameter setting must return
//! exactly what the serial reference returns.

use qcm::prelude::*;
use qcm_sync::Arc;
use std::time::Duration;

fn planted_graph(seed: u64) -> (Arc<Graph>, SessionBuilder) {
    let spec = PlantedGraphSpec {
        num_vertices: 300,
        background_avg_degree: 5.0,
        background_beta: 2.5,
        background_max_degree: 40.0,
        community_sizes: vec![9, 8, 7],
        community_density: 0.95,
        seed,
    };
    let (graph, _) = qcm::gen::plant_quasi_cliques(&spec);
    (Arc::new(graph), Session::builder().gamma(0.8).min_size(7))
}

#[test]
fn thread_count_does_not_change_results() {
    let (graph, base) = planted_graph(1);
    let reference = base.clone().build().unwrap().run(&graph).unwrap();
    assert!(!reference.maximal.is_empty());
    for threads in [1, 2, 4, 8] {
        let parallel = base
            .clone()
            .backend(Backend::parallel(threads, 1))
            .build()
            .unwrap()
            .run(&graph)
            .unwrap();
        assert_eq!(
            parallel.maximal, reference.maximal,
            "result set changed with {threads} threads"
        );
    }
}

#[test]
fn machine_count_does_not_change_results() {
    let (graph, base) = planted_graph(2);
    let reference = base.clone().build().unwrap().run(&graph).unwrap();
    for machines in [1, 2, 4] {
        let parallel = base
            .clone()
            .backend(Backend::parallel(2, machines))
            .balance_period(Duration::from_millis(2))
            .build()
            .unwrap()
            .run(&graph)
            .unwrap();
        assert_eq!(
            parallel.maximal, reference.maximal,
            "result set changed with {machines} machines"
        );
    }
}

#[test]
fn hyperparameters_do_not_change_results() {
    let (graph, base) = planted_graph(3);
    let reference = base.clone().build().unwrap().run(&graph).unwrap();
    for tau_split in [1usize, 10, 1000] {
        for tau_time_ms in [0u64, 1, 1000] {
            let parallel = base
                .clone()
                .backend(Backend::parallel(4, 1))
                .tau_split(tau_split)
                .tau_time(Duration::from_millis(tau_time_ms))
                .build()
                .unwrap()
                .run(&graph)
                .unwrap();
            assert_eq!(
                parallel.maximal, reference.maximal,
                "result set changed at tau_split={tau_split}, tau_time={tau_time_ms}ms"
            );
        }
    }
}

#[test]
fn repeated_runs_are_deterministic() {
    let (graph, base) = planted_graph(4);
    let session = base.backend(Backend::parallel(4, 1)).build().unwrap();
    let first = session.run(&graph).unwrap();
    for _ in 0..3 {
        let again = session.run(&graph).unwrap();
        assert_eq!(first.maximal, again.maximal);
    }
}

#[test]
fn engine_metrics_are_consistent_with_results() {
    let (graph, base) = planted_graph(5);
    let out = base
        .backend(Backend::parallel(4, 1))
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    let metrics = out.engine_metrics().expect("parallel backend");
    assert!(out.raw_reported >= out.maximal.len() as u64);
    assert_eq!(metrics.results_emitted, out.raw_reported);
    assert!(metrics.tasks_processed >= metrics.tasks_spawned);
    assert_eq!(metrics.task_times.len() as u64, metrics.tasks_processed);
    assert!(metrics.worker_busy.len() == 4);
    assert!(out.is_complete());
}

#[test]
fn streaming_and_plain_runs_agree_across_backends() {
    let (graph, base) = planted_graph(6);
    for backend in [Backend::Serial, Backend::parallel(4, 1)] {
        let session = base.clone().backend(backend.clone()).build().unwrap();
        let plain = session.run(&graph).unwrap();
        let mut sink = CollectingSink::default();
        let streamed = session.run_streaming(&graph, &mut sink).unwrap();
        assert_eq!(plain.maximal, streamed.maximal, "{backend:?}");
        assert_eq!(sink.candidates, streamed.raw_reported, "{backend:?}");
        assert_eq!(sink.maximal.len(), streamed.maximal.len(), "{backend:?}");
    }
}

/// `Session` reports only the published sets; the miner underneath also
/// counts what its post-mining validity check dropped. Gate that at zero so
/// the safety net cannot hide an engine bug behind a correct-looking answer.
#[test]
fn validity_net_drops_nothing_on_any_cluster_shape() {
    let (graph, _) = planted_graph(7);
    let params = MiningParams::new(0.8, 7);
    let serial = SerialMiner::new(params).mine(&graph);
    for (machines, threads) in [(1, 1), (1, 4), (2, 2), (4, 1)] {
        let out = ParallelMiner::new(params, EngineConfig::cluster(machines, threads))
            .mine(graph.clone());
        assert!(out.outcome().is_complete());
        assert_eq!(out.maximal, serial.maximal, "{machines}x{threads}");
        assert_eq!(out.invalid_sets_dropped, 0, "{machines}x{threads}");
    }
}
