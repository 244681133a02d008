//! Engine integration tests through its one entry point, `ParallelMiner`,
//! on a planted graph: spawning from the suffix roots, the big/small task routing,
//! pull resolution through the vertex table and cache, recursive task
//! decomposition, disk spilling under tiny queue capacities, multi-machine
//! stealing, clean termination, and the live and simulated drivers agreeing.
//! Every run is compared with the serial miner.

use qcm_core::{MiningParams, QuasiCliqueSet, RunOutcome, SerialMiner};
use qcm_engine::{
    DecompositionStrategy, EngineConfig, ParallelMiner, QuasiCliqueApp, SimConfig, TransportFactory,
};
use qcm_graph::kcore::{k_core_masked_with_roots, k_core_vertices};
use qcm_graph::{Graph, VertexId};
use qcm_sync::Arc;
use std::time::Duration;

/// Nine planted communities in 400 vertices: about a hundred of them survive
/// the k-core peel, so every machine of a small cluster owns tasks.
fn planted() -> Arc<Graph> {
    let spec = qcm_gen::PlantedGraphSpec {
        num_vertices: 400,
        background_avg_degree: 5.0,
        background_beta: 2.5,
        background_max_degree: 40.0,
        community_sizes: vec![10, 9, 8, 10, 9, 8, 10, 9, 8],
        community_density: 0.95,
        seed: 99,
    };
    Arc::new(qcm_gen::plant_quasi_cliques(&spec).0)
}

fn params() -> MiningParams {
    MiningParams::new(0.8, 8)
}

fn serial_maximal(g: &Graph) -> QuasiCliqueSet {
    let serial = SerialMiner::new(params()).mine(g).maximal;
    assert!(!serial.is_empty(), "the planted communities exist");
    serial
}

/// The vertices the engine's table holds: the k-core's suffix roots.
fn roots(g: &Arc<Graph>) -> Vec<VertexId> {
    k_core_masked_with_roots(g, params().kcore_threshold()).1
}

#[test]
fn single_machine_processes_every_vertex() {
    let g = planted();
    // τ_time = 0: every mine phase hands its subtrees off as subtasks.
    let out = ParallelMiner::new(params(), EngineConfig::single_machine(4))
        .with_decomposition(QuasiCliqueApp::DEFAULT_TAU_SPLIT, Duration::ZERO)
        .mine(g.clone());
    assert_eq!(out.outcome(), RunOutcome::Complete);
    assert_eq!(out.maximal, serial_maximal(&g));
    let m = &out.metrics;
    assert_eq!(m.tasks_spawned, roots(&g).len() as u64);
    assert!(m.tasks_decomposed > 0);
    assert_eq!(m.tasks_processed, m.tasks_spawned + m.tasks_decomposed);
    assert!(m.peak_task_bytes > 0);
    assert_eq!(m.worker_busy.len(), 4);
}

#[test]
fn results_are_identical_across_thread_counts() {
    let g = planted();
    let serial = serial_maximal(&g);
    for threads in [1, 2, 8] {
        let out = ParallelMiner::new(params(), EngineConfig::single_machine(threads))
            .with_decomposition(10, Duration::ZERO)
            .mine(g.clone());
        assert_eq!(
            out.maximal, serial,
            "thread count {threads} changed the results"
        );
    }
}

#[test]
fn multi_machine_run_steals_and_matches_single_machine() {
    let g = planted();
    let single = ParallelMiner::new(params(), EngineConfig::single_machine(2)).mine(g.clone());
    let mut config = EngineConfig::cluster(4, 2);
    config.balance_period = Duration::from_millis(1);
    let out = ParallelMiner::new(params(), config)
        .with_decomposition(10, Duration::ZERO)
        .mine(g.clone());
    assert_eq!(out.maximal, single.maximal);
    assert_eq!(out.maximal, serial_maximal(&g));
    // With 4 machines, remote vertices must have been fetched.
    assert!(out.metrics.remote_fetches + out.metrics.cache_hits > 0);
}

#[test]
fn empty_graph_terminates_immediately() {
    let g = Arc::new(Graph::empty(0));
    let out = ParallelMiner::new(params(), EngineConfig::single_machine(3)).mine(g);
    assert_eq!(out.outcome(), RunOutcome::Complete);
    assert!(out.maximal.is_empty());
    assert_eq!(out.metrics.tasks_processed, 0);
}

#[test]
fn per_task_time_log_covers_all_tasks() {
    let g = planted();
    let out = ParallelMiner::new(params(), EngineConfig::single_machine(2))
        .with_decomposition(10, Duration::ZERO)
        .mine(g.clone());
    assert_eq!(
        out.metrics.task_times.len() as u64,
        out.metrics.tasks_processed
    );
    // A set is mined by the task of its smallest member, so every result's
    // root shows up in the per-root aggregation.
    let roots: Vec<VertexId> = out
        .metrics
        .per_root_totals()
        .iter()
        .map(|(v, _, _)| *v)
        .collect();
    for set in out.maximal.iter() {
        assert!(roots.contains(&set[0]), "no task time for root {}", set[0]);
    }
    let top = out.metrics.top_k_task_times(5);
    assert_eq!(top.len(), 5);
    assert!(top.windows(2).all(|w| w[0].elapsed >= w[1].elapsed));
}

/// The live cluster and the fault simulator drive the same per-machine
/// protocol: with no fault injected they must agree on the result set and on
/// how many tasks were spawned, processed and decomposed. The `fault-matrix`
/// CI job runs this next to every scenario cell, so each cell proves the
/// matrix exercises the shipping core.
#[test]
fn live_and_simulated_clusters_agree_without_faults() {
    let g = planted();
    // Tiny queues, so both drivers also go through the spill/refill path.
    let mut config = EngineConfig::cluster(3, 1);
    config.batch_size = 2;
    config.local_capacity = 2;
    config.global_queue_capacity = 2;
    // The simulator decomposes by size, since time-delayed decomposition
    // reads the wall clock; the live side is set to match.
    let miner = |config: EngineConfig| {
        ParallelMiner::new(params(), config)
            .with_strategy(DecompositionStrategy::SizeThreshold)
            .with_decomposition(10, Duration::ZERO)
    };

    let live = miner(config.clone()).mine(g.clone());
    let sim =
        miner(config.with_transport(TransportFactory::Sim(SimConfig::new(7)))).mine(g.clone());
    assert_eq!(live.outcome(), RunOutcome::Complete);
    assert_eq!(sim.outcome(), RunOutcome::Complete);
    assert_eq!(live.maximal, serial_maximal(&g));
    assert_eq!(live.maximal, sim.maximal, "result sets differ");
    for (name, l, s) in [
        (
            "spawned",
            live.metrics.tasks_spawned,
            sim.metrics.tasks_spawned,
        ),
        (
            "processed",
            live.metrics.tasks_processed,
            sim.metrics.tasks_processed,
        ),
        (
            "decomposed",
            live.metrics.tasks_decomposed,
            sim.metrics.tasks_decomposed,
        ),
    ] {
        assert_eq!(l, s, "tasks {name}: live {l} vs simulated {s}");
    }
    assert!(sim.metrics.tasks_decomposed > 0);
    assert!(live.metrics.spill_bytes_written > 0 && sim.metrics.spill_bytes_written > 0);
}

/// The engine spawns the vertices its table holds and no others. The miner
/// hands it the k-core's suffix roots, each of which has `k` larger core
/// neighbours, so `spawn` refuses none: on a graph most of whose core
/// vertices are not suffix roots, both drivers spawn exactly one task per
/// suffix root, every task's root is one, and every root a crash loses is
/// one.
#[test]
fn both_drivers_spawn_exactly_the_listed_vertices() {
    let g = planted();
    let listed = roots(&g);
    let core = k_core_vertices(&g, params().kcore_threshold());
    assert!(
        listed.len() * 2 < core.len(),
        "most core vertices lie outside their suffix core"
    );
    let config = EngineConfig::cluster(3, 2);
    let simulated = |sim| config.clone().with_transport(TransportFactory::Sim(sim));

    let live = ParallelMiner::new(params(), config.clone()).mine(g.clone());
    let sim = ParallelMiner::new(params(), simulated(SimConfig::new(7))).mine(g.clone());
    assert_eq!(live.outcome(), RunOutcome::Complete);
    assert_eq!(sim.outcome(), RunOutcome::Complete);
    for (driver, out) in [("live", &live), ("simulated", &sim)] {
        assert_eq!(out.metrics.tasks_spawned, listed.len() as u64, "{driver}");
        for record in &out.metrics.task_times {
            let root = record.root;
            assert!(listed.binary_search(&root).is_ok(), "{driver}: root {root}");
        }
    }

    // A crash that never heals loses roots; every root it names, spawned or
    // not, is a listed one.
    let crash = SimConfig::crash_scenario(11, 1, 300, None);
    let out = ParallelMiner::new(params(), simulated(crash)).mine(g.clone());
    assert_eq!(out.outcome(), RunOutcome::Faulted);
    assert!(!out.lost_roots.is_empty());
    for root in &out.lost_roots {
        assert!(
            listed.binary_search(root).is_ok(),
            "lost unlisted root {root}"
        );
    }
}
