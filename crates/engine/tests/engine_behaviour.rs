//! Engine integration tests through its one entry point, `ParallelMiner`,
//! on a planted graph: spawning from the suffix roots, the big/small task routing,
//! pull resolution through the vertex table and cache, recursive task
//! decomposition, disk spilling under tiny queue capacities, multi-machine
//! stealing, clean termination, and the live and simulated drivers agreeing.
//! Every run is compared with the serial miner.

use qcm_core::{MiningParams, PruneConfig, QuasiCliqueSet, RunOutcome, SerialMiner};
use qcm_engine::{
    DecompositionStrategy, EngineConfig, ParallelMiner, ParallelMiningOutput, QuasiCliqueApp,
    SimConfig, TransportFactory,
};
use qcm_graph::kcore::k_core_vertices;
use qcm_graph::{Graph, VertexId};
use qcm_sync::Arc;
use std::time::Duration;

/// Nine planted communities in 400 vertices: at [`params`] 92 of them survive
/// the global (k, s) peel, so every machine of a small cluster owns tasks.
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

/// γ = 0.7, τ_size = 8: k = 5, and the edge rule keeps an edge with two
/// common neighbours. At γ = 0.8 it needs four, which leaves each community
/// alone, a task mined whole at its root that never decomposes or spills.
fn params() -> MiningParams {
    MiningParams::new(0.7, 8)
}

fn serial_maximal(g: &Graph) -> QuasiCliqueSet {
    let serial = SerialMiner::new(params()).mine(g).maximal;
    assert!(!serial.is_empty(), "the planted communities exist");
    serial
}

/// The vertices the engine's table holds: the (k, s)-core's suffix roots.
fn roots(g: &Arc<Graph>) -> Vec<VertexId> {
    PruneConfig::all_enabled().core_of(g, &params()).roots
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
    let config = EngineConfig::cluster(4, 2);
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

/// The planted graph with every vertex id doubled: each root hashes to
/// machine 0 of a two-machine cluster, and machine 1 owns no work at all.
fn skewed_to_machine_zero() -> Arc<Graph> {
    let g = planted();
    let edges = g.vertices().flat_map(|v| {
        let larger = g.neighbors(v).iter().filter(move |&&u| u > v);
        larger.map(move |&u| (2 * v.raw(), 2 * u.raw()))
    });
    let edges: Vec<(u32, u32)> = edges.collect();
    Arc::new(Graph::from_edges(2 * g.num_vertices(), edges).unwrap())
}

/// The virtual instants of the simulated run's event-log lines that contain
/// `what`, in log order.
fn logged_at(out: &ParallelMiningOutput, what: &str) -> Vec<u64> {
    let log = &out.replay.as_ref().expect("a simulated run").event_log;
    let at = |line: &String| line["t=".len()..].split_whitespace().next()?.parse().ok();
    log.iter()
        .filter(|line| line.contains(what))
        .filter_map(at)
        .collect()
}

/// Every task of the skewed graph queues at machine 0, and none is big at
/// the default τ_split. Machine 1, idle, asks for queued tasks as soon as
/// machine 0 queues two: on two simulated machines tasks move, the serial
/// answer comes back, and the run replays exactly.
#[test]
fn an_idle_machine_takes_queued_tasks_when_none_is_big() {
    let g = skewed_to_machine_zero();
    let sim = TransportFactory::Sim(SimConfig::new(5));
    let miner = ParallelMiner::new(params(), EngineConfig::cluster(2, 1).with_transport(sim));
    assert_eq!(miner.app.tau_split, QuasiCliqueApp::DEFAULT_TAU_SPLIT);
    let out = miner.mine(g.clone());
    assert_eq!(out.outcome(), RunOutcome::Complete);
    assert_eq!(out.maximal, serial_maximal(&g));
    assert_eq!(out.metrics.tasks_decomposed, 0, "no task is big");
    assert!(
        out.metrics.stolen_tasks > 0,
        "no task moved between machines"
    );
    let again = miner.mine(g.clone());
    let hash = |out: &ParallelMiningOutput| out.replay.as_ref().map(|r| r.log_hash);
    assert!(hash(&out).is_some());
    assert_eq!(hash(&out), hash(&again), "replays diverged");
    assert_eq!(out.metrics.stolen_tasks, again.metrics.stolen_tasks);
    let asks = logged_at(&out, "send m1->m0 steal-req");
    let first = asks.first().copied();
    assert!(first.is_some_and(|at| at < 5_000), "m1 asked at {asks:?}us");
}

/// An ask for work that the network loses is freed by its timeout and sent
/// again: the link between machine 1 and machine 0 is severed before
/// machine 1's first ask and healed long before that ask times out.
#[test]
fn a_lost_ask_for_work_is_sent_again_after_its_timeout() {
    let g = skewed_to_machine_zero();
    let sim = SimConfig::partition_scenario(5, 1, 0, 1, Some(2_000));
    let timeout = sim.pull_timeout_us;
    let config = EngineConfig::cluster(2, 1).with_transport(TransportFactory::Sim(sim));
    let miner = ParallelMiner::new(params(), config);
    let out = miner.mine(g.clone());
    assert_eq!(out.outcome(), RunOutcome::Complete);
    assert_eq!(out.maximal, serial_maximal(&g));
    let lost = logged_at(&out, "drop m1->m0 steal-req");
    let sent = logged_at(&out, "send m1->m0 steal-req");
    assert_eq!(lost.len(), 1, "{lost:?}");
    assert_eq!(
        sent.first(),
        Some(&(lost[0] + timeout)),
        "{lost:?} {sent:?}"
    );
    assert!(
        out.metrics.stolen_tasks > 0,
        "no task moved between machines"
    );
    let again = miner.mine(g.clone());
    let hash = |out: &ParallelMiningOutput| out.replay.as_ref().map(|r| r.log_hash);
    assert_eq!(hash(&out), hash(&again), "replays diverged");
}

/// A crash frees the crashed machine's ask for work. Machine 1 crashes while
/// its first ask is out, and the grant arrives while it is down; restarted,
/// it asks again before that ask's timeout would have freed it.
#[test]
fn a_restarted_machine_asks_again_before_its_lost_ask_times_out() {
    let g = skewed_to_machine_zero();
    let (crash_at, restart_at) = (100, 3_000);
    let sim = SimConfig::crash_scenario(5, 1, crash_at, Some(restart_at));
    let timeout = sim.pull_timeout_us;
    let config = EngineConfig::cluster(2, 1).with_transport(TransportFactory::Sim(sim));
    let out = ParallelMiner::new(params(), config).mine(g.clone());
    assert_eq!(out.outcome(), RunOutcome::Complete);
    assert_eq!(out.maximal, serial_maximal(&g));
    let asks = logged_at(&out, "send m1->m0 steal-req");
    assert!(asks.first().is_some_and(|&at| at < crash_at), "{asks:?}");
    assert!(!logged_at(&out, "lost m0->m1 steal-grant").is_empty());
    let again = asks.iter().find(|&&at| at >= restart_at);
    assert!(again.is_some_and(|&at| at < asks[0] + timeout), "{asks:?}");
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
/// hands it the (k, s)-core's suffix roots, each of which has `k` larger core
/// neighbours, and at least one, so `spawn` needs no test: on a graph most of
/// whose core vertices are not suffix roots, both drivers spawn exactly one
/// task per suffix root, every task's root is one, and every root a crash
/// loses is one. Without the size-threshold rule the listed roots are the
/// vertices with a larger neighbour.
#[test]
fn both_drivers_spawn_exactly_the_listed_vertices() {
    let g = planted();
    let listed = roots(&g);
    let core = k_core_vertices(&g, params().kcore_threshold());
    assert!(
        listed.len() * 2 < core.len(),
        "most core vertices lie outside their suffix core"
    );
    let has_larger = |v: &VertexId| g.neighbors(*v).iter().any(|u| u > v);
    let unpeeled: Vec<VertexId> = g.vertices().filter(has_larger).collect();
    assert!(unpeeled.len() < g.num_vertices());
    let config = EngineConfig::cluster(3, 2);
    let simulated = |sim| config.clone().with_transport(TransportFactory::Sim(sim));

    for (prune, listed) in [
        (PruneConfig::all_enabled(), &listed),
        (
            PruneConfig::all_enabled().without("size_threshold"),
            &unpeeled,
        ),
    ] {
        let miner = |config| {
            let mut miner = ParallelMiner::new(params(), config);
            miner.app.prune_config = prune;
            miner
        };
        let live = miner(config.clone()).mine(g.clone());
        let sim = miner(simulated(SimConfig::new(7))).mine(g.clone());
        for (driver, out) in [("live", &live), ("simulated", &sim)] {
            assert_eq!(out.outcome(), RunOutcome::Complete, "{driver}");
            assert_eq!(out.metrics.tasks_spawned, listed.len() as u64, "{driver}");
            for record in &out.metrics.task_times {
                let root = record.root;
                assert!(listed.binary_search(&root).is_ok(), "{driver}: root {root}");
            }
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
