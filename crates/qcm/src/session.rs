//! The unified front-door API: [`Session`].
//!
//! A [`Session`] is one validated mining configuration that can be run many
//! times, over any backend, with deadlines, cancellation and streaming
//! delivery:
//!
//! ```
//! use qcm::{Backend, Session};
//! use qcm_sync::Arc;
//!
//! let dataset = qcm::gen::datasets::tiny_test_dataset(7);
//! let graph = Arc::new(dataset.graph.clone());
//!
//! let session = Session::builder()
//!     .gamma(dataset.spec.gamma)
//!     .min_size(dataset.spec.min_size)
//!     .backend(Backend::parallel(4, 1))
//!     .build()
//!     .expect("valid configuration");
//! let report = session.run(&graph).unwrap();
//! assert!(report.outcome.is_complete());
//! assert!(!report.maximal.is_empty());
//! ```
//!
//! Configuration errors surface at [`SessionBuilder::build`] as
//! [`QcmError::InvalidConfig`] instead of panicking deep inside the miners; a
//! run that hits its [`SessionBuilder::deadline`] or whose
//! [`Session::cancel_token`] fires returns a *partial* [`MiningReport`]
//! labelled [`RunOutcome::DeadlineExceeded`] / [`RunOutcome::Cancelled`]
//! rather than blocking until completion.

use qcm_core::{
    CancelToken, MiningParams, MiningStats, PruneConfig, QcmError, QuasiCliqueSet, QuasiCliqueSink,
    RunOutcome, SerialMiner,
};
use qcm_engine::{EngineConfig, EngineMetrics, ParallelMiner, QuasiCliqueApp, TransportFactory};
use qcm_graph::Graph;
use qcm_obs::clock::Instant;
use qcm_obs::{SpanKind, Trace, TraceConfig};
use qcm_sync::Arc;
use std::time::Duration;

/// Which execution engine a [`Session`] drives.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Backend {
    /// The single-threaded reference miner (Algorithm 2).
    #[default]
    Serial,
    /// The task-based miner on the reforged engine (the paper's full system),
    /// on `machines × threads` mining threads.
    Parallel {
        /// Mining threads per simulated machine.
        threads: usize,
        /// Simulated machines (each owns a vertex-table partition, a global
        /// big-task queue and a remote-vertex cache).
        machines: usize,
        /// How messages move between machines: the zero-copy in-process
        /// transport (default), its strict serialising variant, or the
        /// deterministic fault simulator ([`TransportFactory::Sim`], which
        /// runs the job in virtual time under a seeded fault scenario, one
        /// thread per machine, ignoring wall-clock deadlines).
        transport: TransportFactory,
    },
}

impl Backend {
    /// The parallel backend with the default in-process transport — the
    /// common case, and the shape the old two-field `Backend::Parallel`
    /// literal built.
    pub fn parallel(threads: usize, machines: usize) -> Self {
        Backend::Parallel {
            threads,
            machines,
            transport: TransportFactory::default(),
        }
    }
}

/// Per-backend statistics of a [`MiningReport`].
#[derive(Clone, Debug)]
pub enum BackendStats {
    /// Statistics of a [`Backend::Serial`] run.
    Serial {
        /// Aggregated pruning/search counters.
        stats: MiningStats,
        /// Vertices surviving the k-core preprocessing.
        kcore_vertices: usize,
    },
    /// Metrics of a [`Backend::Parallel`] run.
    Parallel {
        /// Engine metrics (tasks, spilling, stealing, per-task log, …).
        metrics: Box<EngineMetrics>,
    },
}

/// The unified result of a [`Session`] run.
#[derive(Clone, Debug)]
pub struct MiningReport {
    /// The result sets. Exactly the maximal quasi-cliques when
    /// [`MiningReport::outcome`] is [`RunOutcome::Complete`]. For an
    /// interrupted run these are the valid quasi-cliques found before the
    /// interruption — maximal within the explored portion of the search
    /// space, but some may be non-maximal in the full graph (a completed run
    /// could replace them with supersets).
    pub maximal: QuasiCliqueSet,
    /// Raw (pre-post-processing) reports produced by the run.
    pub raw_reported: u64,
    /// Wall-clock time of the run on either backend: the k-core peel, the
    /// search and the maximality post-processing.
    pub elapsed: Duration,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Backend-specific statistics.
    pub stats: BackendStats,
    /// The span trace of this run, when the session was built with
    /// [`SessionBuilder::tracing`] (and the process-wide recorder was
    /// free). It holds every span the process recorded while the run
    /// lasted, so the spans of runs concurrent with this one appear in it
    /// too. Export with [`qcm_obs::chrome::render`].
    pub trace: Option<Trace>,
}

impl MiningReport {
    /// True if the run explored the whole search space.
    pub fn is_complete(&self) -> bool {
        self.outcome.is_complete()
    }

    /// Engine metrics, when the report came from a parallel run.
    pub fn engine_metrics(&self) -> Option<&EngineMetrics> {
        match &self.stats {
            BackendStats::Parallel { metrics } => Some(metrics),
            BackendStats::Serial { .. } => None,
        }
    }

    /// Serial search statistics, when the report came from a serial run.
    pub fn serial_stats(&self) -> Option<&MiningStats> {
        match &self.stats {
            BackendStats::Serial { stats, .. } => Some(stats),
            BackendStats::Parallel { .. } => None,
        }
    }

    /// Converts an interrupted report into the matching [`QcmError`]
    /// (discarding the partial results); a complete report passes through.
    /// For callers that treat a deadline hit as a failure rather than a
    /// partial answer.
    pub fn into_result(self) -> Result<MiningReport, QcmError> {
        match QcmError::from_outcome(self.outcome) {
            None => Ok(self),
            Some(err) => Err(err),
        }
    }
}

/// γ as supplied to the builder: a raw float (validated at build time) or an
/// already-exact rational adopted from a [`MiningParams`] — kept apart so
/// `.params(p).min_size(n)` never round-trips the rational through `f64`.
#[derive(Clone, Copy, Debug)]
enum GammaSpec {
    Float(f64),
    Exact(qcm_core::Gamma),
}

/// Fluent, validating builder for [`Session`]. Obtained from
/// [`Session::builder`]; every setter is infallible, all validation happens in
/// [`SessionBuilder::build`].
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    gamma: GammaSpec,
    min_size: usize,
    backend: Backend,
    prune: PruneConfig,
    deadline: Option<Duration>,
    tau_split: usize,
    tau_time: Duration,
    cancel: Option<CancelToken>,
    tracing: Option<TraceConfig>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            gamma: GammaSpec::Float(0.9),
            min_size: 10,
            backend: Backend::Serial,
            prune: PruneConfig::all_enabled(),
            deadline: None,
            tau_split: QuasiCliqueApp::DEFAULT_TAU_SPLIT,
            tau_time: QuasiCliqueApp::DEFAULT_TAU_TIME,
            cancel: None,
            tracing: None,
        }
    }
}

impl SessionBuilder {
    /// Minimum degree ratio γ ∈ (0, 1] (default 0.9).
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.gamma = GammaSpec::Float(gamma);
        self
    }

    /// Minimum result size τ_size ≥ 2 (default 10).
    pub fn min_size(mut self, min_size: usize) -> Self {
        self.min_size = min_size;
        self
    }

    /// Sets γ and τ_size from an existing [`MiningParams`] (exact — the
    /// rational γ is adopted without a float round-trip, even if τ_size is
    /// later overridden with [`SessionBuilder::min_size`]). A later
    /// [`SessionBuilder::gamma`] call replaces the rational γ.
    pub fn params(mut self, params: MiningParams) -> Self {
        self.gamma = GammaSpec::Exact(params.gamma);
        self.min_size = params.min_size;
        self
    }

    /// Execution backend (default [`Backend::Serial`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Pruning-rule configuration (default: all rules enabled).
    pub fn prune(mut self, prune: PruneConfig) -> Self {
        self.prune = prune;
        self
    }

    /// Soft wall-clock budget: when it passes, the run stops cooperatively
    /// and the report is labelled [`RunOutcome::DeadlineExceeded`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Big-task threshold τ_split (parallel backend).
    pub fn tau_split(mut self, tau_split: usize) -> Self {
        self.tau_split = tau_split;
        self
    }

    /// Decomposition timeout τ_time (parallel backend). A live run
    /// decomposes time-delayed (Algorithm 10); a simulated one
    /// ([`TransportFactory::Sim`]) by size threshold (Algorithm 8), which keeps
    /// it replayable and reads no τ_time.
    pub fn tau_time(mut self, tau_time: Duration) -> Self {
        self.tau_time = tau_time;
        self
    }

    /// Uses an external cancellation token instead of the session-owned one,
    /// e.g. one token shared by a batch of sessions.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Enables span tracing for this session's runs: each run records the
    /// `run → decompose → task → mine_phase → steal/pull/spill` hierarchy
    /// into bounded per-thread buffers and attaches the captured
    /// [`Trace`] to [`MiningReport::trace`].
    ///
    /// The recorder is process-wide with a single active recording; when
    /// another traced run is already in flight, this run proceeds untraced
    /// (`trace: None`). A trace holds every span the process records while
    /// the run lasts: runs concurrent with a traced one, untraced ones
    /// included, appear in its trace until traces are kept per job (ROADMAP
    /// item 3). Sessions without tracing pay one relaxed atomic load per
    /// span site.
    pub fn tracing(mut self, config: TraceConfig) -> Self {
        self.tracing = Some(config);
        self
    }

    /// Validates the configuration and builds the [`Session`].
    ///
    /// # Errors
    /// [`QcmError::InvalidConfig`] when γ ∉ (0, 1], τ_size < 2, or the
    /// parallel backend is configured with zero threads or machines.
    pub fn build(self) -> Result<Session, QcmError> {
        if self.min_size < 2 {
            return Err(QcmError::InvalidConfig(format!(
                "min_size must be at least 2, got {}",
                self.min_size
            )));
        }
        let params = match self.gamma {
            // An adopted Gamma already upholds the (0, 1] invariant.
            GammaSpec::Exact(gamma) => MiningParams {
                gamma,
                min_size: self.min_size,
            },
            GammaSpec::Float(gamma) => {
                if !gamma.is_finite() || gamma <= 0.0 || gamma > 1.0 {
                    return Err(QcmError::InvalidConfig(format!(
                        "gamma must be in (0, 1], got {gamma}"
                    )));
                }
                MiningParams::new(gamma, self.min_size)
            }
        };
        if let Backend::Parallel {
            threads, machines, ..
        } = &self.backend
        {
            if *threads == 0 {
                return Err(QcmError::InvalidConfig(
                    "parallel backend needs at least one thread per machine".into(),
                ));
            }
            if *machines == 0 {
                return Err(QcmError::InvalidConfig(
                    "parallel backend needs at least one machine".into(),
                ));
            }
        }
        Ok(Session {
            params,
            prune: self.prune,
            backend: self.backend,
            deadline: self.deadline,
            tau_split: self.tau_split,
            tau_time: self.tau_time,
            // Not unwrap_or_default(): the Default token is the never-firing
            // one, while a session-owned token must be cancellable.
            #[allow(clippy::unwrap_or_default)]
            cancel: self.cancel.unwrap_or_else(CancelToken::new),
            tracing: self.tracing,
        })
    }
}

/// A validated mining session: one configuration, runnable many times over
/// any graph, with cancellation, deadlines and streaming delivery.
///
/// See the [module documentation](self) for an end-to-end example.
#[derive(Clone, Debug)]
pub struct Session {
    params: MiningParams,
    prune: PruneConfig,
    backend: Backend,
    deadline: Option<Duration>,
    tau_split: usize,
    tau_time: Duration,
    cancel: CancelToken,
    tracing: Option<TraceConfig>,
}

/// A graph handed to [`Session::prepare`]. Nothing is built for it: a run
/// reads the whole graph as CSR adjacency lists and builds bitset rows per
/// task, so there is no per-graph state to prepare. The type exists for the
/// benchmark of record (`benchmark/src/rounds.rs`), its only caller, and goes
/// away with that call (ROADMAP item 9, which re-anchors the benchmark).
#[derive(Clone, Debug)]
pub struct PreparedGraph {
    graph: Arc<Graph>,
}

impl PreparedGraph {
    /// The underlying graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The validated mining parameters (γ, τ_size).
    pub fn params(&self) -> &MiningParams {
        &self.params
    }

    /// The configured backend.
    pub fn backend(&self) -> Backend {
        self.backend.clone()
    }

    /// A handle to cancel this session's runs from another thread. Firing it
    /// makes in-flight and future `run`s stop cooperatively and return
    /// partial reports labelled [`RunOutcome::Cancelled`].
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Wraps `graph` for [`Session::run_prepared`]; builds nothing. Kept for
    /// the benchmark of record, its only caller — use [`Session::run`].
    pub fn prepare(&self, graph: Arc<Graph>) -> PreparedGraph {
        PreparedGraph { graph }
    }

    /// Mines `graph` and returns the unified report. Interruption
    /// (cancellation / deadline) is reported in [`MiningReport::outcome`],
    /// not as an error — chain [`MiningReport::into_result`] to treat partial
    /// runs as failures.
    pub fn run(&self, graph: &Arc<Graph>) -> Result<MiningReport, QcmError> {
        self.run_impl(graph, None)
    }

    /// [`Session::run`] on the wrapped graph. Kept for the benchmark of
    /// record, its only caller.
    pub fn run_prepared(&self, prepared: &PreparedGraph) -> Result<MiningReport, QcmError> {
        self.run(&prepared.graph)
    }

    /// Mines `graph`, handing every raw candidate report to `sink` (live for
    /// the serial backend, as the engine's result rows are drained for the
    /// parallel one). Candidates may be duplicated or non-maximal; the
    /// maximal sets are the returned report's, which is identical to what
    /// [`Session::run`] would produce.
    pub fn run_streaming(
        &self,
        graph: &Arc<Graph>,
        sink: &mut dyn QuasiCliqueSink,
    ) -> Result<MiningReport, QcmError> {
        self.run_impl(graph, Some(sink))
    }

    fn run_impl(
        &self,
        graph: &Arc<Graph>,
        sink: Option<&mut dyn QuasiCliqueSink>,
    ) -> Result<MiningReport, QcmError> {
        // Arm the per-run token: session cancellation plus this run's
        // deadline, composed into one poll.
        let run_token = self.cancel.with_deadline(self.deadline);
        // One process-wide recording at a time: if another traced run is
        // in flight, this one proceeds untraced rather than blocking.
        let recording = match &self.tracing {
            Some(config) => qcm_obs::start_recording(config),
            None => false,
        };
        let run_span = recording.then(|| qcm_obs::span(SpanKind::Run));
        let report = match &self.backend {
            Backend::Serial => self.run_serial(graph.as_ref(), run_token, sink),
            Backend::Parallel {
                threads,
                machines,
                transport,
            } => self.run_parallel(graph, *threads, *machines, transport, run_token, sink),
        };
        drop(run_span);
        let mut report = report;
        if recording {
            report.trace = Some(qcm_obs::finish_recording());
        }
        Ok(report)
    }

    fn run_serial(
        &self,
        graph: &Graph,
        cancel: CancelToken,
        sink: Option<&mut dyn QuasiCliqueSink>,
    ) -> MiningReport {
        let miner = SerialMiner::with_config(self.params, self.prune).with_cancel(cancel);
        let output = match sink {
            None => miner.mine(graph),
            Some(sink) => miner.mine_with_observer(graph, sink),
        };
        MiningReport {
            maximal: output.maximal,
            raw_reported: output.raw_reported,
            elapsed: output.elapsed,
            outcome: output.outcome,
            stats: BackendStats::Serial {
                stats: output.stats,
                kcore_vertices: output.kcore_vertices,
            },
            trace: None,
        }
    }

    fn run_parallel(
        &self,
        graph: &Arc<Graph>,
        threads: usize,
        machines: usize,
        transport: &TransportFactory,
        cancel: CancelToken,
        sink: Option<&mut dyn QuasiCliqueSink>,
    ) -> MiningReport {
        let engine_config = EngineConfig::cluster(machines, threads)
            .with_cancel(cancel)
            .with_transport(transport.clone());
        let app = QuasiCliqueApp::new(self.params, self.tau_split, self.tau_time)
            .with_prune_config(self.prune);
        let miner = ParallelMiner { app, engine_config };
        // The engine's own clock stops before `finalize_results`.
        let start = Instant::now();
        let output = match sink {
            None => miner.mine(graph.clone()),
            Some(sink) => miner.mine_with_observer(graph.clone(), sink),
        };
        let elapsed = start.elapsed();
        let outcome = output.outcome();
        MiningReport {
            maximal: output.maximal,
            raw_reported: output.raw_reported,
            elapsed,
            outcome,
            stats: BackendStats::Parallel {
                metrics: Box::new(output.metrics),
            },
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure4() -> Arc<Graph> {
        Arc::new(qcm_gen::datasets::figure4())
    }

    #[test]
    fn builder_rejects_invalid_gamma() {
        for gamma in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let err = Session::builder().gamma(gamma).build().unwrap_err();
            assert!(matches!(err, QcmError::InvalidConfig(_)), "gamma {gamma}");
        }
    }

    #[test]
    fn builder_rejects_degenerate_sizes_and_shapes() {
        assert!(matches!(
            Session::builder().min_size(1).build().unwrap_err(),
            QcmError::InvalidConfig(_)
        ));
        assert!(matches!(
            Session::builder()
                .backend(Backend::parallel(0, 1))
                .build()
                .unwrap_err(),
            QcmError::InvalidConfig(_)
        ));
        assert!(matches!(
            Session::builder()
                .backend(Backend::parallel(2, 0))
                .build()
                .unwrap_err(),
            QcmError::InvalidConfig(_)
        ));
    }

    #[test]
    fn params_keeps_exact_rational_gamma_across_min_size_override() {
        // γ = 2/3 has no exact 1/1_000_000-grid representation, so a float
        // round-trip would silently change the mining thresholds.
        let exact = qcm_core::Gamma::from_ratio(2, 3);
        let params = MiningParams {
            gamma: exact,
            min_size: 4,
        };
        let session = Session::builder()
            .params(params)
            .min_size(5)
            .build()
            .unwrap();
        assert_eq!(session.params().gamma, exact);
        assert_eq!(session.params().min_size, 5);
        // A later .gamma() call replaces the rational with the float path.
        let session = Session::builder()
            .params(params)
            .gamma(0.5)
            .build()
            .unwrap();
        assert_eq!(session.params().gamma, qcm_core::Gamma::new(0.5));
    }

    #[test]
    fn serial_and_parallel_backends_agree_on_figure4() {
        let g = figure4();
        let serial = Session::builder()
            .gamma(0.6)
            .min_size(5)
            .build()
            .unwrap()
            .run(&g)
            .unwrap();
        let parallel = Session::builder()
            .gamma(0.6)
            .min_size(5)
            .backend(Backend::parallel(4, 1))
            .build()
            .unwrap()
            .run(&g)
            .unwrap();
        assert_eq!(serial.maximal, parallel.maximal);
        assert_eq!(serial.maximal.len(), 1);
        assert!(serial.serial_stats().is_some());
        assert!(serial.engine_metrics().is_none());
        assert!(parallel.engine_metrics().is_some());
        assert!(parallel.serial_stats().is_none());
    }

    #[test]
    fn parallel_elapsed_spans_the_whole_run() {
        let g = figure4();
        let session = Session::builder()
            .gamma(0.6)
            .min_size(5)
            .backend(Backend::parallel(2, 1))
            .build()
            .unwrap();
        let start = Instant::now();
        let report = session.run(&g).unwrap();
        let wall = start.elapsed();
        let engine = report.engine_metrics().unwrap().elapsed;
        // `finalize_results` runs after the engine's clock stops.
        assert!(
            report.elapsed > engine,
            "{:?} <= {engine:?}",
            report.elapsed
        );
        assert!(report.elapsed <= wall, "{:?} > {wall:?}", report.elapsed);
    }

    #[test]
    fn cancelled_session_returns_partial_labelled_report() {
        let g = figure4();
        let session = Session::builder().gamma(0.6).min_size(5).build().unwrap();
        session.cancel_token().cancel();
        let report = session.run(&g).unwrap();
        assert_eq!(report.outcome, RunOutcome::Cancelled);
        assert!(!report.is_complete());
        assert!(matches!(
            report.into_result().unwrap_err(),
            QcmError::Cancelled
        ));
    }

    #[test]
    fn zero_deadline_is_reported_as_deadline_exceeded() {
        let g = figure4();
        for backend in [Backend::Serial, Backend::parallel(2, 1)] {
            let report = Session::builder()
                .gamma(0.6)
                .min_size(5)
                .backend(backend.clone())
                .deadline(Duration::ZERO)
                .build()
                .unwrap()
                .run(&g)
                .unwrap();
            assert_eq!(report.outcome, RunOutcome::DeadlineExceeded, "{backend:?}");
            assert!(matches!(
                report.into_result().unwrap_err(),
                QcmError::DeadlineExceeded
            ));
        }
    }

    #[test]
    fn streaming_delivers_candidates_and_maximal_results() {
        let g = figure4();
        let session = Session::builder().gamma(0.9).min_size(4).build().unwrap();
        let mut sink: Vec<Vec<qcm_graph::VertexId>> = Vec::new();
        let report = session.run_streaming(&g, &mut sink).unwrap();
        assert_eq!(sink.len() as u64, report.raw_reported);
        for members in report.maximal.iter() {
            assert!(sink.contains(members), "{members:?} was never reported");
        }
        assert_eq!(report.maximal, session.run(&g).unwrap().maximal);
    }
}
