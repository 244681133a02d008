//! Determinism and schedule-independence of the parallel miner, and how the
//! two miners build their tasks.
//!
//! The paper's system runs the same algorithm under wildly different
//! schedules (1–512 threads, 2–16 machines, different τ_split/τ_time). The
//! result set must be a pure function of (graph, γ, τ_size): the first tests
//! push planted graphs through the differential harness's surfaces, which
//! compare every cluster shape, hyperparameter and backend with the serial
//! reference. Then: only core vertices become roots, and the serial miner's
//! synchronous task assembly and an engine worker's, fed pulled lists and
//! parked through the codec between rounds, build the same task on every
//! root.

mod common;

use common::harness::leg;
use proptest::prelude::*;
use qcm::core::{CoreNumbering, TaskAssembly};
use qcm::engine::{Frontier, QCTask, QuasiCliqueApp, TaskCodec, TaskPhase, WorkerScratch};
use qcm::graph::kcore::ks_core;
use qcm::graph::LocalGraph;
use qcm::prelude::*;
use qcm_sync::Arc;
use std::time::Duration;

// The answer-equality tests are legs of the differential harness: 300-vertex
// planted graphs with communities of 9, 8 and 7 at γ = 0.8, τ_size = 7, one
// seed per test (`tests/common/harness.rs`, `legs`).

/// One machine of 1, 2, 3, 4 and 8 threads finds the serial answer, which
/// is not empty.
#[test]
fn thread_count_does_not_change_results() {
    assert!(leg("thread_count_does_not_change_results").answers > 0);
}

/// Clusters of 2 to 8 machines, and 4 × 2 behind a one-entry cache, which
/// must pull remote vertices.
#[test]
fn machine_count_does_not_change_results() {
    leg("machine_count_does_not_change_results");
}

/// τ_split ∈ {1, 10, 1000} × τ_time ∈ {0, 1, 1000} ms on every cluster shape;
/// some tasks must decompose.
#[test]
fn hyperparameters_do_not_change_results() {
    leg("hyperparameters_do_not_change_results");
}

/// Each session runs twice, plain and streaming, and the simulator twice,
/// with the same event log.
#[test]
fn repeated_runs_are_deterministic() {
    leg("repeated_runs_are_deterministic");
}

/// After every engine run the harness checks raw ≥ sets, emitted == raw,
/// processed ≥ spawned, one task time per processed task and one busy time
/// per worker.
#[test]
fn engine_metrics_are_consistent_with_results() {
    leg("engine_metrics_are_consistent_with_results");
}

#[test]
fn streaming_and_plain_runs_agree_across_backends() {
    leg("streaming_and_plain_runs_agree_across_backends");
}

/// `Session` reports only the published sets; the miner underneath also
/// counts what its post-mining validity check dropped. The harness gates
/// that at zero after every run, so the safety net cannot hide an engine bug
/// behind a correct-looking answer.
#[test]
fn validity_net_drops_nothing_on_any_cluster_shape() {
    leg("validity_net_drops_nothing_on_any_cluster_shape");
}

/// The engine mines the k-core of its input (the loader-time form of the
/// size-threshold rule). The peel must be invisible in the answer: small
/// planted and power-law graphs on both sides of γ = ½, each with the peel
/// and without it, give the serial answer at every cluster shape, through
/// `Session` over the serialising transport and on the simulator; without
/// the peel, the peeled 2 × 2 run spawns no more tasks.
#[test]
fn peeling_to_the_core_first_never_changes_the_answer() {
    leg("peeling_to_the_core_first_never_changes_the_answer");
}

/// The fault simulator and the live cluster drive the same per-machine
/// protocol over the same peeled graph: with no fault injected they report
/// the same sets and spawn the same tasks.
#[test]
fn simulated_and_live_miners_agree_on_a_complete_run() {
    assert!(leg("simulated_and_live_miners_agree_on_a_complete_run").answers > 0);
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
/// codec, are the same `Option<LocalGraph>`. Both run on the (k, s)-core the
/// miners start from, and on the k-core: the edge rule leaves the Enron
/// stand-in 34 roots whose tasks all hold τ_size vertices, and the k-core's
/// walk lists roots whose tasks drop too.
#[test]
fn serial_and_engine_tasks_are_built_alike_on_every_root() {
    for spec in [qcm::gen::datasets::enron(), qcm::gen::datasets::youtube()] {
        let graph = Arc::new(spec.generate().graph);
        let params = MiningParams::new(spec.gamma, spec.min_size);
        let config = PruneConfig::all_enabled();
        let k = config.peel_threshold(&params);
        let (mined, k_core) = (config.core_of(&graph, &params), ks_core(&graph, k, 0));
        let cut = mined.graph.num_edges() < k_core.graph.num_edges();
        assert!(cut, "{}: the edge rule cut nothing", spec.name);
        for (core, edge_rule) in [(mined, true), (k_core, false)] {
            // What `ParallelMiner` hands its engine, and how a run numbers it.
            let masked = core.masked(&graph);
            let (engine, mut serial) = both_drivers(&masked, params);
            let held: Vec<VertexId> = masked
                .vertices()
                .filter(|&v| masked.degree(v) > 0)
                .collect();
            assert_eq!(held, core.graph.global_ids());
            let mut worker = [WorkerScratch::building(engine)];
            let app = QuasiCliqueApp::new(params, 100, Duration::ZERO);
            let (mut built, mut dropped) = (0, 0);
            for &root in &core.roots {
                let pulled = pulled_task(&app, &mut worker, &masked, root);
                let synchronous = serial(root);
                assert_eq!(synchronous, pulled, "{} root {root}", spec.name);
                built += usize::from(pulled.is_some_and(|t| t.capacity() >= params.min_size));
                dropped += usize::from(synchronous.is_none());
            }
            let case = format!(
                "{}, edge rule {edge_rule}: {built} built, {dropped} dropped",
                spec.name
            );
            if edge_rule {
                assert!(built > 30, "{case}");
            } else {
                assert!(built > 50 && dropped > 0, "{case}");
            }
        }
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
