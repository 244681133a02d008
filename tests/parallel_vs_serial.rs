//! Determinism and schedule-independence of the parallel miner, driven
//! through the unified `Session` front door.
//!
//! The paper's system runs the same algorithm under wildly different
//! schedules (1–512 threads, 2–16 machines, different τ_split/τ_time). These
//! tests assert that the *result set* is a pure function of (graph, γ,
//! τ_size): every cluster shape and every hyperparameter setting must return
//! exactly what the serial reference returns.

use proptest::prelude::*;
use qcm::core::{CoreNumbering, TaskAssembly};
use qcm::engine::{Frontier, QCTask, QuasiCliqueApp, TaskCodec, TaskPhase, WorkerScratch};
use qcm::graph::kcore::{k_core_masked_with_roots, k_core_with_roots};
use qcm::graph::LocalGraph;
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

/// The engine mines the k-core of its input (the loader-time form of the
/// size-threshold rule). The peel must be invisible in the answer: serial,
/// parallel, and parallel with the peel switched off agree on planted and
/// power-law graphs, on both sides of γ = ½, at every cluster shape and over
/// the serialising transport and the simulator.
#[test]
fn peeling_to_the_core_first_never_changes_the_answer() {
    let planted = PlantedGraphSpec {
        num_vertices: 90,
        background_avg_degree: 4.0,
        background_beta: 2.5,
        background_max_degree: 20.0,
        community_sizes: vec![8, 7, 6],
        community_density: 0.9,
        seed: 11,
    };
    let graphs = [
        ("planted", qcm::gen::plant_quasi_cliques(&planted).0),
        (
            "power-law",
            qcm::gen::powerlaw::power_law_graph(120, 5.0, 2.3, 30.0, 5),
        ),
    ];
    let shapes = [
        ("1x2", EngineConfig::cluster(1, 2)),
        ("2x1", EngineConfig::cluster(2, 1)),
        (
            "2x1 strict",
            EngineConfig::cluster(2, 1).with_transport(TransportFactory::strict()),
        ),
        (
            "2x1 simulated",
            EngineConfig::cluster(2, 1).with_transport(TransportFactory::Sim(SimConfig::new(3))),
        ),
    ];
    let unpeeled = PruneConfig::all_enabled().without("size_threshold");
    let mut results = 0;
    for (name, graph) in graphs {
        let graph = Arc::new(graph);
        // Larger sizes at low γ keep the sweep to seconds.
        for (gamma, sizes) in [(0.4, [9, 10]), (0.5, [7, 8]), (0.9, [5, 7]), (1.0, [4, 5])] {
            for min_size in sizes {
                let params = MiningParams::new(gamma, min_size);
                let serial = SerialMiner::new(params).mine(&graph);
                results += serial.maximal.len();
                for (shape, config) in &shapes {
                    let case = format!("{name} γ={gamma} τ={min_size} {shape}");
                    let peeled = ParallelMiner::new(params, config.clone()).mine(graph.clone());
                    let mut unpeeled_miner = ParallelMiner::new(params, config.clone());
                    unpeeled_miner.app.prune_config = unpeeled;
                    let plain = unpeeled_miner.mine(graph.clone());
                    assert!(peeled.outcome().is_complete(), "{case}");
                    assert_eq!(peeled.invalid_sets_dropped, 0, "{case}");
                    assert_eq!(plain.invalid_sets_dropped, 0, "{case} (no peel)");
                    assert!(
                        peeled.metrics.tasks_spawned <= plain.metrics.tasks_spawned,
                        "{case}: the peel can only remove roots"
                    );
                    assert_eq!(peeled.maximal, serial.maximal, "{case}");
                    assert_eq!(plain.maximal, serial.maximal, "{case} (no peel)");
                }
            }
        }
    }
    assert!(results > 0, "the sweep must mine something");
}

/// A 6-clique on vertices 0–5 whose vertex 0 is also the hub of a star with
/// ten spokes, each spoke carrying three pendant leaves. A spoke has degree 4,
/// which is k for γ = 0.8, τ_size = 6, so a raw-degree test (Algorithm 4 as
/// written) spawns a task from every spoke only to peel it away; only the
/// clique is in the 4-core, and only core vertices may become tasks.
#[test]
fn roots_outside_the_core_never_become_tasks() {
    let clique = (0..6u32).flat_map(|a| (a + 1..6).map(move |b| (a, b)));
    let spokes = (0..10u32).map(|i| 6 + 4 * i);
    let star = spokes.flat_map(|spoke| {
        let leaves = (1..4u32).map(move |leaf| (spoke, spoke + leaf));
        std::iter::once((0, spoke)).chain(leaves)
    });
    let graph = Arc::new(Graph::from_edges(46, clique.chain(star)).unwrap());
    assert_eq!(graph.degree(VertexId::new(6)), 4);
    let params = MiningParams::new(0.8, 6);
    assert_eq!(params.kcore_threshold(), 4);
    let serial = SerialMiner::new(params).mine(&graph);
    assert_eq!(serial.maximal.len(), 1);
    for (machines, threads) in [(1, 2), (2, 1)] {
        let out = ParallelMiner::new(params, EngineConfig::cluster(machines, threads))
            .mine(graph.clone());
        assert_eq!(out.maximal, serial.maximal);
        assert_eq!(out.invalid_sets_dropped, 0);
        // At most one task per core vertex (the largest has no larger
        // neighbour and spawns none).
        let spawned = out.metrics.tasks_spawned;
        assert!(
            (1..=6).contains(&spawned),
            "{spawned} tasks, 6 core vertices"
        );
        let mut roots = out.metrics.task_times.iter().map(|t| t.root);
        assert!(roots.all(|root| root.raw() < 6), "a spoke became a task");
        // The hub's task holds the clique, not its 10 spokes.
        let largest = out.metrics.task_times.iter().map(|t| t.subgraph_size);
        assert_eq!(largest.max(), Some(6));
    }
}

/// The fault simulator and the live cluster drive the same per-machine
/// protocol over the same peeled graph: with no fault injected they report
/// the same sets and spawn the same tasks.
#[test]
fn simulated_and_live_miners_agree_on_a_complete_run() {
    let (graph, _) = planted_graph(8);
    let params = MiningParams::new(0.8, 7);
    // Size-threshold decomposition on both sides: it is the one the
    // simulator forces, and what makes the task counts comparable.
    let config = EngineConfig::cluster(2, 1);
    let live = ParallelMiner::new(params, config.clone())
        .with_strategy(DecompositionStrategy::SizeThreshold)
        .mine(graph.clone());
    let simulated = config.with_transport(TransportFactory::Sim(SimConfig::new(3)));
    let sim = ParallelMiner::new(params, simulated).mine(graph.clone());
    assert_eq!(sim.outcome(), RunOutcome::Complete);
    assert!(!live.maximal.is_empty());
    assert_eq!(sim.maximal, live.maximal);
    assert_eq!(sim.invalid_sets_dropped, 0);
    assert_eq!(sim.raw_reported, live.raw_reported);
    assert_eq!(sim.metrics.tasks_spawned, live.metrics.tasks_spawned);
    assert_eq!(sim.metrics.tasks_processed, live.metrics.tasks_processed);
}

/// The task an engine worker builds for `root` from lists pulled off
/// `graph`, parked between rounds and passed through the codec, the
/// `workers` taking the rounds in turn; `None` when it terminates.
fn pulled_task(
    app: &QuasiCliqueApp,
    workers: &mut [WorkerScratch],
    graph: &Graph,
    root: VertexId,
) -> Option<LocalGraph> {
    let (mut task, mut round) = (app.spawn(root, graph.neighbors(root)), 0);
    loop {
        let mut frontier = Frontier::new();
        for &u in &task.pull_targets {
            frontier.insert(u, graph.neighbors(u).to_vec());
        }
        let worker = &mut workers[round % workers.len()];
        round += 1;
        if !app.compute(&mut task, &frontier, worker).0 {
            return None;
        }
        if task.phase == TaskPhase::Mine {
            return Some(task.subgraph);
        }
        let mut bytes = Vec::new();
        task.encode(&mut bytes);
        task = QCTask::decode(&mut bytes.as_slice()).expect("a parked task decodes");
    }
}

/// The engine's assembly over `graph` and the synchronous driver's, which
/// reads the same vertices as a graph indexed by their numbering: every
/// vertex with a neighbour, as a run numbers the core it mines.
fn both_drivers(
    graph: &Graph,
    params: MiningParams,
) -> (TaskAssembly, impl FnMut(VertexId) -> Option<LocalGraph>) {
    let held: Vec<VertexId> = graph.vertices().filter(|&v| graph.degree(v) > 0).collect();
    let lists = LocalGraph::from_induced(graph, &held);
    let numbering = Arc::new(CoreNumbering::new(held));
    let config = PruneConfig::all_enabled();
    let engine = TaskAssembly::new(params, &config, numbering.clone());
    let mut serial = TaskAssembly::new(params, &config, numbering);
    (engine, move |root| serial.build(&lists, root))
}

/// One task assembly serves both miners: on every root of the Enron and
/// YouTube stand-ins, the task `SerialMiner` builds — fed synchronously from
/// its copy of the core — and the task an engine worker builds from lists
/// pulled off the masked core, parked between rounds and passed through the
/// codec, are the same `Option<LocalGraph>`.
#[test]
fn serial_and_engine_tasks_are_built_alike_on_every_root() {
    for spec in [qcm::gen::datasets::enron(), qcm::gen::datasets::youtube()] {
        let graph = Arc::new(spec.generate().graph);
        let params = MiningParams::new(spec.gamma, spec.min_size);
        let k = PruneConfig::all_enabled().peel_threshold(&params);
        let (core, roots) = k_core_with_roots(&graph, k);
        // What `ParallelMiner` hands its engine, and how a run numbers it.
        let (masked, listed) = k_core_masked_with_roots(&graph, k);
        assert_eq!(listed, roots);
        let (engine, mut serial) = both_drivers(&masked, params);
        let held: Vec<VertexId> = masked
            .vertices()
            .filter(|&v| masked.degree(v) > 0)
            .collect();
        assert_eq!(held, core);
        let mut worker = [WorkerScratch::building(engine)];
        let app = QuasiCliqueApp::new(params, 100, Duration::ZERO);
        let (mut built, mut dropped) = (0, 0);
        for &root in &roots {
            let pulled = pulled_task(&app, &mut worker, &masked, root);
            let synchronous = serial(root);
            assert_eq!(synchronous, pulled, "{} root {root}", spec.name);
            built += usize::from(pulled.is_some_and(|t| t.capacity() >= params.min_size));
            dropped += usize::from(synchronous.is_none());
        }
        assert!(
            built > 50 && dropped > 0,
            "{}: {built} built, {dropped} dropped",
            spec.name
        );
    }
}

#[test]
fn below_one_half_a_parked_task_is_built_as_the_synchronous_driver_builds_it() {
    // γ = 0.4, τ_size = 4 → k = 2. Round 1 peels 3, whose only neighbour is
    // the root, and names 4. Parked with the task, 3 is gone again at round
    // 2 without costing the root a neighbour: the task keeps {0, 1, 2, 4}.
    // One worker runs every round, so it has been fed the list of 3 before.
    let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 4)];
    let graph = Graph::from_edges(5, edges).unwrap();
    let params = MiningParams::new(0.4, 4);
    let (engine, mut serial) = both_drivers(&graph, params);
    let app = QuasiCliqueApp::new(params, 100, Duration::ZERO);
    let root = VertexId::new(0);
    let pulled = pulled_task(&app, &mut [WorkerScratch::building(engine)], &graph, root);
    assert_eq!(pulled, serial(root));
    let ids = pulled.expect("the root survives").global_ids().to_vec();
    assert_eq!(ids, [0, 1, 2, 4].map(VertexId::new));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Below γ = ½ a task parks between as many rounds as add something,
    /// carrying the vertices it peeled: on every vertex of planted and
    /// power-law graphs, the engine's build iterations, with the codec
    /// between rounds and one worker or two taking turns, build what the
    /// synchronous driver builds.
    #[test]
    fn below_one_half_parked_tasks_are_built_as_the_synchronous_driver_builds_them(
        seed in 0u64..1_000,
        n in 120usize..260,
        min_size in 3usize..9,
    ) {
        let planted = qcm::gen::plant_quasi_cliques(&PlantedGraphSpec {
            num_vertices: n,
            background_avg_degree: 5.0,
            background_max_degree: 40.0,
            community_sizes: vec![14, 10, 8],
            community_density: 0.6,
            seed,
            ..PlantedGraphSpec::default()
        })
        .0;
        let power_law = qcm::gen::powerlaw::power_law_graph(n, 6.0, 2.2, 40.0, seed);
        for graph in [&planted, &power_law] {
            for gamma in [0.3, 0.4] {
                let params = MiningParams::new(gamma, min_size);
                let app = QuasiCliqueApp::new(params, 100, Duration::ZERO);
                let (one, mut serial) = both_drivers(graph, params);
                let (two, three) = (both_drivers(graph, params).0, both_drivers(graph, params).0);
                let mut one = [WorkerScratch::building(one)];
                let mut two = [WorkerScratch::building(two), WorkerScratch::building(three)];
                for root in graph.vertices().filter(|&v| graph.degree(v) > 0) {
                    let task = serial(root);
                    let by_one = pulled_task(&app, &mut one, graph, root);
                    prop_assert_eq!(&by_one, &task, "γ {} root {}", gamma, root);
                    let by_two = pulled_task(&app, &mut two, graph, root);
                    prop_assert_eq!(&by_two, &task, "γ {} root {}, two workers", gamma, root);
                }
            }
        }
    }
}
