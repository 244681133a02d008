//! High-level parallel mining API.
//!
//! [`ParallelMiner`] is the engine's one entry point: it validates its
//! [`EngineConfig`], runs the quasi-clique application on the cluster that
//! config describes, and post-processes the raw reports into the final
//! maximal result set — the same pipeline the paper's experiments use
//! (Section 7), exposed as one call.
//!
//! One step comes first that the paper leaves to its tasks: the input is
//! peeled to its k-core, `k = ⌈γ·(τ_size − 1)⌉`, *before* the engine
//! partitions it (`peel_to_core`). In G-thinker no machine sees the whole
//! graph, so Algorithm 4 can only test a root's raw degree and every task
//! peels its own subgraph (Algorithms 6–7); here the miner is handed the whole
//! graph, as a loader is, and the peel is the loader-time form of the same
//! size-threshold rule (a distributed loader would run a standard distributed
//! k-core). The engine's vertex table then holds the *suffix roots*: the
//! core vertices `v` that lie in the k-core of the core's vertices `≥ v`
//! ([`k_core_masked_with_roots`]). Every other root's task would lose its
//! root in the task assembly's peels, so only those are spawned from, and
//! `SerialMiner` visits the same roots. The graph behind the table keeps the
//! caller's vertex ids, with every vertex outside the core isolated: it is
//! pulled by no task, and a degree the assembly counts is a core degree; its
//! vertices with a neighbour are the run's core numbering. The published
//! sets are still validated against the graph the caller passed in
//! (`finalize_results`).
//!
//! The transport picks the engine's driver. Under
//! [`TransportFactory::Sim`] the job runs on the deterministic fault
//! simulator, and one seed plus one fault scenario replays byte-identically.
//! Determinism needs two deviations from a live run, both applied by
//! [`ParallelMiner::mine`]: decomposition is forced to
//! [`DecompositionStrategy::SizeThreshold`], since time-delayed decomposition
//! consults the wall clock, and the cancel token is not wired in — the run is
//! bounded by [`crate::SimConfig::max_virtual_us`] instead.
//!
//! A run of either driver that lost work keeps the partial-result contract
//! (`retain_provably_maximal`): it publishes only sets the complete run
//! reports too.

use crate::app::QuasiCliqueApp;
use crate::cluster;
use crate::config::EngineConfig;
use crate::metrics::EngineMetrics;
use crate::mine::DecompositionStrategy;
use crate::sim::Replay;
use crate::transport::TransportFactory;
use qcm_core::{
    is_valid_quasi_clique, remove_non_maximal, CancelToken, MiningParams, PruneConfig,
    QuasiCliqueSet, QuasiCliqueSink, RunOutcome,
};
use qcm_graph::kcore::k_core_masked_with_roots;
use qcm_graph::{Graph, VertexId};
use qcm_obs::clock::Instant;
use qcm_sync::Arc;
use std::collections::HashSet;
use std::time::Duration;

/// Output of a parallel mining run.
#[derive(Clone, Debug)]
pub struct ParallelMiningOutput {
    /// The final maximal quasi-cliques. When work was lost
    /// ([`RunOutcome::Faulted`]) this is a *partial* result: every set in it
    /// is one the complete run reports too, and a set that a lost root's
    /// superset could have removed is withheld.
    pub maximal: QuasiCliqueSet,
    /// Number of raw (pre-post-processing) reports emitted by tasks.
    pub raw_reported: u64,
    /// Sets the post-mining validity check dropped before publication.
    /// Anything but 0 is an engine bug the check swallowed.
    pub invalid_sets_dropped: u64,
    /// Engine metrics (timing, tasks, spilling, stealing, per-task log;
    /// `virtual_time` on the simulator, whose wall `elapsed` measures only
    /// the simulation itself).
    pub metrics: EngineMetrics,
    /// The spawned roots whose work was lost for good, sorted.
    pub lost_roots: Vec<VertexId>,
    /// The simulator's event log and its hash, the replay-determinism
    /// witness; `None` on a live run.
    pub replay: Option<Replay>,
}

impl ParallelMiningOutput {
    /// Wall-clock time of the run.
    pub fn elapsed(&self) -> Duration {
        self.metrics.elapsed
    }

    /// Whether the run drained every task, lost work to a fault, or was
    /// interrupted by cancellation/deadline. An interrupted run's `maximal`
    /// holds the valid quasi-cliques found before the interruption; some may
    /// be non-maximal in the full graph (a completed run could replace them
    /// with supersets).
    pub fn outcome(&self) -> RunOutcome {
        self.metrics.outcome
    }
}

/// Parallel maximal quasi-clique miner (the paper's full system).
#[derive(Clone, Debug)]
pub struct ParallelMiner {
    /// The application the engine runs: γ, τ_size, the pruning rules and how
    /// tasks decompose (τ_split, τ_time, strategy, task row policy). A live
    /// run sets its `cancel` from `engine_config.cancel`; a simulated one
    /// forces its strategy to size threshold.
    pub app: QuasiCliqueApp,
    /// Engine/cluster configuration (threads, machines, queues, transport,
    /// cancellation). The transport picks the driver; the simulator models
    /// one thread per machine.
    pub engine_config: EngineConfig,
}

impl ParallelMiner {
    /// Creates a miner with the paper's defaults: all pruning rules enabled
    /// and time-delayed task decomposition.
    pub fn new(params: MiningParams, engine_config: EngineConfig) -> Self {
        ParallelMiner {
            app: QuasiCliqueApp::new(
                params,
                QuasiCliqueApp::DEFAULT_TAU_SPLIT,
                QuasiCliqueApp::DEFAULT_TAU_TIME,
            ),
            engine_config,
        }
    }

    /// Overrides the decomposition strategy.
    pub fn with_strategy(mut self, strategy: DecompositionStrategy) -> Self {
        self.app.strategy = strategy;
        self
    }

    /// Sets the two hyperparameters of Table 2 (τ_split, τ_time).
    pub fn with_decomposition(mut self, tau_split: usize, tau_time: Duration) -> Self {
        self.app.tau_split = tau_split;
        self.app.tau_time = tau_time;
        self
    }

    /// Attaches a cancellation token, polled both by the engine's worker pop
    /// loops and inside each task's backtracking, so a cancelled or
    /// deadline-hit run returns the partial results emitted so far. A
    /// simulated run ignores it.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.engine_config.cancel = cancel;
        self
    }

    /// Mines all maximal γ-quasi-cliques of `graph` on the configured
    /// cluster.
    pub fn mine(&self, graph: Arc<Graph>) -> ParallelMiningOutput {
        self.mine_impl(graph, None)
    }

    /// Like [`ParallelMiner::mine`], but forwards every raw result row to
    /// `observer` as the engine output is drained (after the cluster run —
    /// the engine funnels rows through its shared result buffer, so parallel
    /// candidate streaming is per-run, not per-report). This is the streaming
    /// seam `qcm::Session::run_streaming` builds on.
    pub fn mine_with_observer(
        &self,
        graph: Arc<Graph>,
        observer: &mut dyn QuasiCliqueSink,
    ) -> ParallelMiningOutput {
        self.mine_impl(graph, Some(observer))
    }

    fn mine_impl(
        &self,
        graph: Arc<Graph>,
        observer: Option<&mut dyn QuasiCliqueSink>,
    ) -> ParallelMiningOutput {
        let mut app = self.app.clone();
        match self.engine_config.transport {
            // Deterministic replay; see the module docs.
            TransportFactory::Sim(_) => app.strategy = DecompositionStrategy::SizeThreshold,
            TransportFactory::InProc { .. } => app.cancel = self.engine_config.cancel.clone(),
        }
        let (params, prune) = (&self.app.params, &self.app.prune_config);
        self.engine_config.validate();
        let (core, roots, peel_time) = peel_to_core(&graph, params, prune);
        let mut output = cluster::run(&app, &self.engine_config, core, roots);
        output.metrics.elapsed += peel_time;
        let raw_reported = output.metrics.results_emitted;
        let (mut maximal, invalid_sets_dropped) =
            finalize_results(output.results, &graph, params, observer);
        retain_provably_maximal(&mut maximal, &output.lost_roots, &graph, params);
        ParallelMiningOutput {
            maximal,
            raw_reported,
            invalid_sets_dropped,
            metrics: output.metrics,
            lost_roots: output.lost_roots,
            replay: output.replay,
        }
    }
}

/// The pre-processing: the graph the engine runs on is the k-core of the
/// caller's graph in the caller's id space, and the vertex list its table
/// holds is the core's suffix roots ([`k_core_masked_with_roots`], at
/// [`PruneConfig::peel_threshold`]). So a root that cannot hold a result is
/// never spawned, and every degree the application reads is a core degree.
/// The peel runs at `k ≥ 1`: without the size-threshold rule `k` is 0, and
/// `k = 1` drops only the roots with no larger neighbour, which head no set
/// of τ_size ≥ 2 vertices, and the isolated vertices, which no task pulls.
/// Returns the time spent too: it belongs to the run's `elapsed`.
fn peel_to_core(
    graph: &Arc<Graph>,
    params: &MiningParams,
    prune: &PruneConfig,
) -> (Arc<Graph>, Vec<VertexId>, Duration) {
    let started = Instant::now();
    let _span = qcm_obs::span(qcm_obs::SpanKind::KCore);
    let (core, roots) = k_core_masked_with_roots(graph, prune.peel_threshold(params).max(1));
    (core, roots, started.elapsed())
}

/// The post-processing: collect the raw reports (feeding `observer` each
/// row), keep the maximal sets, then trust-but-verify against `graph`, the
/// caller's graph. Returns the final set and how many invalid sets the check
/// dropped.
fn finalize_results(
    results: Vec<Vec<VertexId>>,
    graph: &Graph,
    params: &MiningParams,
    mut observer: Option<&mut dyn QuasiCliqueSink>,
) -> (QuasiCliqueSet, u64) {
    let mut set = QuasiCliqueSet::new();
    for members in results {
        if let Some(observer) = observer.as_deref_mut() {
            observer.report(members.clone());
        }
        set.insert(members);
    }
    let mut maximal = remove_non_maximal(set);
    // Trust-but-verify: re-check every answer against the graph the caller
    // passed in — never the peeled copy the engine mined, or the check would
    // share the peel's mistakes. The distributed search assembled these
    // sets from task-local subgraphs; a validation failure here means an
    // engine bug, and dropping the set beats publishing — or cache-poisoning,
    // at the service layer — a wrong answer.
    let before = maximal.len();
    maximal.retain_sets(|members| {
        let valid = is_valid_quasi_clique(graph, members, params);
        debug_assert!(valid, "engine emitted an invalid result {members:?}");
        valid
    });
    let dropped = (before - maximal.len()) as u64;
    (maximal, dropped)
}

/// The partial-result contract of a faulted run: keeps the sets that are
/// maximal whatever the `lost` roots would have reported. A root mines exactly
/// the quasi-cliques whose smallest member it is, so the superset that would
/// remove a reported set can only be missing if a lost root is smaller than
/// all the set's members — and, for γ ≥ 1/2 (diameter ≤ 2), within two hops of
/// each of them.
fn retain_provably_maximal(
    maximal: &mut QuasiCliqueSet,
    lost: &[VertexId],
    graph: &Graph,
    params: &MiningParams,
) {
    let two_hops = params.gamma.diameter_two_applies();
    for &root in lost {
        let near = graph.neighbors(root);
        let two_away = near.iter().flat_map(|&u| graph.neighbors(u));
        let reach: HashSet<&VertexId> = two_away.chain(near).collect();
        let in_reach = |set: &[VertexId]| set.iter().all(|v| reach.contains(v));
        maximal.retain_sets(|set| set[0] < root || (two_hops && !in_reach(set)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimConfig;
    use qcm_core::SerialMiner;

    fn figure4() -> Arc<Graph> {
        Arc::new(crate::iterations::tests::figure4())
    }

    /// A miner on the fault simulator with `machines` machines.
    fn simulated(params: MiningParams, machines: usize, sim: SimConfig) -> ParallelMiner {
        let config = EngineConfig::cluster(machines, 1).with_transport(TransportFactory::Sim(sim));
        ParallelMiner::new(params, config)
    }

    #[test]
    fn parallel_matches_serial_on_figure4() {
        let g = figure4();
        for (gamma, min_size) in [(0.6, 5), (0.9, 4), (0.5, 4)] {
            let params = MiningParams::new(gamma, min_size);
            let serial = SerialMiner::new(params).mine(&g);
            let parallel =
                ParallelMiner::new(params, EngineConfig::single_machine(4)).mine(g.clone());
            assert_eq!(
                parallel.maximal, serial.maximal,
                "parallel/serial mismatch at gamma={gamma} min_size={min_size}"
            );
        }
    }

    #[test]
    fn without_the_size_threshold_only_roots_with_a_larger_neighbour_are_listed() {
        let g = figure4();
        let params = MiningParams::new(0.9, 4);
        let prune = PruneConfig::all_enabled().without("size_threshold");
        let (core, roots, _) = peel_to_core(&g, &params, &prune);
        assert!(Arc::ptr_eq(&core, &g), "nothing is peeled");
        let larger = |v: &VertexId| g.neighbors(*v).iter().any(|u| u > v);
        let expected: Vec<VertexId> = g.vertices().filter(larger).collect();
        assert_eq!(roots, expected);
        assert_eq!(roots.len(), 6, "e, g and i have no larger neighbour");
    }

    #[test]
    fn decomposition_strategies_agree() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        // Force heavy decomposition.
        let miner = ParallelMiner::new(params, EngineConfig::single_machine(2))
            .with_decomposition(1, Duration::ZERO);
        let time_delayed = miner.mine(g.clone());
        let size_threshold = miner
            .with_strategy(DecompositionStrategy::SizeThreshold)
            .mine(g.clone());
        let serial = SerialMiner::new(params).mine(&g);
        assert_eq!(time_delayed.maximal, serial.maximal);
        assert_eq!(size_threshold.maximal, serial.maximal);
        assert!(time_delayed.elapsed() > Duration::ZERO);
    }

    #[test]
    fn with_decomposition_sets_hyperparameters() {
        let miner = ParallelMiner::new(MiningParams::new(0.6, 5), EngineConfig::single_machine(2))
            .with_decomposition(50, Duration::from_millis(1));
        assert_eq!(miner.app.tau_split, 50);
        assert_eq!(miner.app.tau_time, Duration::from_millis(1));
    }

    #[test]
    fn pre_cancelled_run_is_labelled_and_partial() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let token = CancelToken::new();
        token.cancel();
        let out = ParallelMiner::new(params, EngineConfig::single_machine(2))
            .with_cancel(token)
            .mine(g.clone());
        assert_eq!(out.outcome(), RunOutcome::Cancelled);
        assert!(out.maximal.is_empty(), "workers must drain before popping");
    }

    #[test]
    fn zero_deadline_run_is_labelled_deadline_exceeded() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let token = CancelToken::never().with_deadline(Some(Duration::ZERO));
        let out = ParallelMiner::new(params, EngineConfig::single_machine(2))
            .with_cancel(token)
            .mine(g.clone());
        assert_eq!(out.outcome(), RunOutcome::DeadlineExceeded);
        // A zero deadline stops workers before any task is popped, so the
        // partial set is deterministically empty.
        assert!(out.maximal.is_empty());
        let full = ParallelMiner::new(params, EngineConfig::single_machine(2)).mine(g.clone());
        assert_eq!(full.outcome(), RunOutcome::Complete);
    }

    #[test]
    fn observer_sees_every_raw_result_row() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let mut observed: Vec<Vec<qcm_graph::VertexId>> = Vec::new();
        let out = ParallelMiner::new(params, EngineConfig::single_machine(2))
            .mine_with_observer(g.clone(), &mut observed);
        assert_eq!(observed.len() as u64, out.raw_reported);
        for r in out.maximal.iter() {
            assert!(observed.iter().any(|c| c == r));
        }
    }

    #[test]
    fn a_wide_graph_is_mined_from_its_small_core() {
        // 20,000 vertices of average degree 2 around three planted
        // communities: at k = ⌈0.9·9⌉ = 9 nearly every vertex starts below k,
        // and the engine holds the few that survive the peel.
        let spec = qcm_gen::PlantedGraphSpec {
            num_vertices: 20_000,
            background_avg_degree: 2.0,
            background_beta: 2.5,
            background_max_degree: 20.0,
            community_sizes: vec![12, 11, 10],
            community_density: 0.95,
            seed: 7,
        };
        let g = Arc::new(qcm_gen::plant_quasi_cliques(&spec).0);
        let params = MiningParams::new(0.9, 10);
        let core = qcm_graph::kcore::k_core_vertices(&g, params.kcore_threshold());
        assert!(
            core.len() * 100 < g.num_vertices(),
            "{} of {} vertices in the core",
            core.len(),
            g.num_vertices()
        );
        let serial = SerialMiner::new(params).mine(&g);
        assert!(!serial.maximal.is_empty(), "the planted communities exist");
        let parallel = ParallelMiner::new(params, EngineConfig::cluster(2, 2)).mine(g.clone());
        assert_eq!(parallel.outcome(), RunOutcome::Complete);
        assert_eq!(parallel.maximal, serial.maximal);
        assert!(parallel.metrics.tasks_spawned <= core.len() as u64);
    }

    #[test]
    fn multi_machine_matches_single_machine() {
        let g = figure4();
        let params = MiningParams::new(0.9, 4);
        let single = ParallelMiner::new(params, EngineConfig::single_machine(2)).mine(g.clone());
        let multi = ParallelMiner::new(params, EngineConfig::cluster(3, 2)).mine(g.clone());
        assert_eq!(single.maximal, multi.maximal);
        assert!(multi.raw_reported >= multi.maximal.len() as u64);
    }

    #[test]
    fn fault_free_sim_matches_serial() {
        let g = figure4();
        for (gamma, min_size) in [(0.6, 5), (0.9, 4)] {
            let params = MiningParams::new(gamma, min_size);
            let serial = SerialMiner::new(params).mine(&g);
            let sim = simulated(params, 3, SimConfig::new(17)).mine(g.clone());
            assert_eq!(sim.outcome(), RunOutcome::Complete);
            assert_eq!(
                sim.maximal, serial.maximal,
                "sim/serial mismatch at gamma={gamma} min_size={min_size}"
            );
        }
    }

    #[test]
    fn mining_replays_byte_identically() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let mk = || {
            let crash = SimConfig::crash_scenario(99, 2, 2_000, Some(25_000));
            simulated(params, 4, crash).mine(g.clone())
        };
        let a = mk();
        let b = mk();
        let (a_log, b_log) = (a.replay.expect("simulated"), b.replay.expect("simulated"));
        assert_eq!(a_log.log_hash, b_log.log_hash);
        assert_eq!(a_log.event_log, b_log.event_log);
        assert_eq!(a.maximal, b.maximal);
        assert_eq!(a.metrics.outcome, b.metrics.outcome);
    }

    #[test]
    fn crash_with_restart_still_matches_serial() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let serial = SerialMiner::new(params).mine(&g);
        let crash = SimConfig::crash_scenario(5, 1, 1_000, Some(30_000));
        let sim = simulated(params, 3, crash).mine(g.clone());
        assert_eq!(sim.outcome(), RunOutcome::Complete);
        assert_eq!(sim.maximal, serial.maximal);
    }

    #[test]
    fn only_sets_a_lost_root_cannot_extend_are_kept() {
        // A path 0–1–2–3–4: vertex 0 reaches {1, 2} within two hops.
        let path = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let ids = |raw: &[u32]| raw.iter().map(|&v| VertexId::new(v)).collect::<Vec<_>>();
        let reported = || {
            let mut set = QuasiCliqueSet::new();
            for members in [&[1, 2][..], &[2, 3], &[3, 4]] {
                set.insert(ids(members));
            }
            set
        };
        let kept = |lost: &[u32], gamma: f64| {
            let mut set = reported();
            let params = MiningParams::new(gamma, 2);
            retain_provably_maximal(&mut set, &ids(lost), &path, &params);
            set.into_sorted_vec()
        };
        assert_eq!(kept(&[], 0.8), reported().into_sorted_vec());
        // Lost root 0 could head a superset of {1, 2} only.
        assert_eq!(kept(&[0], 0.8), vec![ids(&[2, 3]), ids(&[3, 4])]);
        // A lost root never extends a set with a smaller member; its own
        // set {2, 3} and {3, 4}, which it reaches, go.
        assert_eq!(kept(&[2], 0.8), vec![ids(&[1, 2])]);
        // Below γ = 1/2 distance proves nothing: every later set goes.
        assert_eq!(kept(&[0], 0.4), Vec::<Vec<VertexId>>::new());
    }

    #[test]
    fn results_are_valid_even_under_faults() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let crash = SimConfig::crash_scenario(7, 1, 1_000, None);
        let sim = simulated(params, 3, crash).mine(g.clone());
        // Completion is not guaranteed, but every surviving answer must be a
        // valid quasi-clique (partial-result contract).
        let serial = SerialMiner::new(params).mine(&g);
        for members in sim.maximal.iter() {
            assert!(serial.maximal.iter().any(|s| s == members));
        }
    }
}
