//! High-level parallel mining API.
//!
//! [`ParallelMiner`] wires the quasi-clique application to the reforged
//! engine, runs the job on the simulated cluster, and post-processes the raw
//! reports into the final maximal result set — the same pipeline the paper's
//! experiments use (Section 7), exposed as one call.
//!
//! One step comes first that the paper leaves to its tasks: the input is
//! peeled to its k-core, `k = ⌈γ·(τ_size − 1)⌉`, *before* the engine
//! partitions it (`peel_to_core`). In G-thinker no machine sees the whole
//! graph, so Algorithm 4 can only test a root's raw degree and every task
//! peels its own subgraph (Algorithms 6–7); here the miner is handed the whole
//! graph, as a loader is, and the peel is the loader-time form of the same
//! size-threshold rule (a distributed loader would run a standard distributed
//! k-core). The engine's vertex table then holds the core's vertices, and
//! only those are spawned from. The graph behind the table keeps the
//! caller's vertex ids, with every vertex outside the core isolated: it is
//! pulled by no task, and a degree read by `spawn` or an iteration filter is
//! an exact core degree. The published sets are still validated against the
//! graph the caller passed in (`finalize_results`).

use crate::app::QuasiCliqueApp;
use crate::mine::DecompositionStrategy;
use qcm_core::{
    is_valid_quasi_clique, remove_non_maximal, CancelToken, MiningParams, PruneConfig,
    QuasiCliqueSet, QuasiCliqueSink, RunOutcome,
};
use qcm_engine::{Cluster, EngineConfig, EngineMetrics};
use qcm_graph::kcore::k_core_masked_with_vertices;
use qcm_graph::{Graph, IndexSpec, VertexId};
use qcm_obs::clock::Instant;
use qcm_sync::Arc;
use std::time::Duration;

/// Output of a parallel mining run.
#[derive(Clone, Debug)]
pub struct ParallelMiningOutput {
    /// The final maximal quasi-cliques.
    pub maximal: QuasiCliqueSet,
    /// Number of raw (pre-post-processing) reports emitted by tasks.
    pub raw_reported: u64,
    /// Sets the post-mining validity check dropped before publication.
    /// Anything but 0 is an engine bug the check swallowed.
    pub invalid_sets_dropped: u64,
    /// Engine metrics (timing, tasks, spilling, stealing, per-task log).
    pub metrics: EngineMetrics,
}

impl ParallelMiningOutput {
    /// Wall-clock time of the run.
    pub fn elapsed(&self) -> Duration {
        self.metrics.elapsed
    }

    /// Whether the run drained every task or was interrupted by
    /// cancellation/deadline. An interrupted run's `maximal` holds the valid
    /// quasi-cliques found before the interruption; some may be non-maximal
    /// in the full graph (a completed run could replace them with supersets).
    pub fn outcome(&self) -> RunOutcome {
        self.metrics.outcome
    }
}

/// Parallel maximal quasi-clique miner (the paper's full system).
#[derive(Clone, Debug)]
pub struct ParallelMiner {
    /// The application the engine runs: γ, τ_size, the pruning rules and how
    /// tasks decompose (τ_split, τ_time, strategy, task row policy). Its
    /// `cancel` is set per run, from `engine_config.cancel`.
    pub app: QuasiCliqueApp,
    /// Engine/cluster configuration (threads, machines, queues, transport,
    /// cancellation).
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

    /// Chooses the row policy of task subgraphs (default [`IndexSpec::Auto`]).
    pub fn with_index(mut self, index: IndexSpec) -> Self {
        self.app.index = index;
        self
    }

    /// Overrides the pruning configuration.
    pub fn with_prune_config(mut self, config: PruneConfig) -> Self {
        self.app.prune_config = config;
        self
    }

    /// Attaches a cancellation token, polled both by the engine's worker pop
    /// loops and inside each task's backtracking, so a cancelled or
    /// deadline-hit run returns the partial results emitted so far.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.engine_config.cancel = cancel;
        self
    }

    /// Mines all maximal γ-quasi-cliques of `graph` on the simulated cluster.
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
        let app = self
            .app
            .clone()
            .with_cancel(self.engine_config.cancel.clone());
        let (params, prune) = (&self.app.params, &self.app.prune_config);
        let cluster = Cluster::new(Arc::new(app), self.engine_config.clone());
        let (core, vertices, peel_time) = peel_to_core(&graph, params, prune);
        let mut output = cluster.run(core, vertices);
        output.metrics.elapsed += peel_time;
        let raw_reported = output.metrics.results_emitted;
        let (maximal, invalid_sets_dropped) =
            finalize_results(output.results, &graph, params, observer);
        ParallelMiningOutput {
            maximal,
            raw_reported,
            invalid_sets_dropped,
            metrics: output.metrics,
        }
    }
}

/// The pre-processing both miners share: the graph the engine runs on is the
/// k-core of the caller's graph in the caller's id space, and the vertex
/// list its table holds is the core's ([`k_core_masked_with_vertices`]). So
/// a root that cannot hold a result is never spawned, and every degree the
/// application reads is a core degree. Follows [`PruneConfig::size_threshold`],
/// as the serial miner's peel does; without it the engine holds every vertex.
/// Returns the time spent too: it belongs to the run's `elapsed`.
pub(crate) fn peel_to_core(
    graph: &Arc<Graph>,
    params: &MiningParams,
    prune: &PruneConfig,
) -> (Arc<Graph>, Vec<VertexId>, Duration) {
    if !prune.size_threshold {
        return (graph.clone(), graph.vertices().collect(), Duration::ZERO);
    }
    let started = Instant::now();
    let _span = qcm_obs::span(qcm_obs::SpanKind::KCore);
    let (core, vertices) = k_core_masked_with_vertices(graph, params.kcore_threshold());
    (core, vertices, started.elapsed())
}

/// The post-processing both miners share: collect the raw reports (feeding
/// `observer` each row), keep the maximal sets, then trust-but-verify against
/// `graph`, the caller's graph. Returns the final set and how many invalid
/// sets the check dropped.
pub(crate) fn finalize_results(
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

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_core::SerialMiner;

    fn figure4() -> Arc<Graph> {
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
            (1, 5),
            (5, 6),
            (2, 6),
            (3, 7),
            (7, 8),
            (3, 8),
        ];
        Arc::new(Graph::from_edges(9, edges.iter().copied()).unwrap())
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
}
