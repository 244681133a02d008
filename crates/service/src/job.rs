//! Job identities, requests, states and results.

use qcm::core::{PruneConfig, QuasiCliqueSet, QuasiCliqueSink, RunOutcome};
use qcm::Backend;
use qcm_graph::Graph;
use qcm_sync::Arc;
use std::fmt;
use std::time::Duration;

/// Opaque, service-unique job identifier, handed out by
/// [`crate::MiningService::submit`] and accepted by `status` / `cancel` /
/// `poll_fetch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// Reconstructs an id from its raw value (e.g. parsed from a protocol
    /// line). Ids are only meaningful to the service that issued them.
    pub fn from_raw(raw: u64) -> Self {
        JobId(raw)
    }

    /// The raw numeric value.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Scheduling priority of a job. Within one priority band tenants are served
/// round-robin; a higher band always preempts a lower one at dispatch time
/// (no preemption of already-running jobs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Background work: dispatched only when no normal/high job is queued.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-sensitive work: dispatched before everything else.
    High,
}

impl Priority {
    /// Dispatch-order band index: high = 0, normal = 1, low = 2.
    pub(crate) fn band(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Parses the lowercase name used by the CLI protocol.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        })
    }
}

/// Lifecycle state of a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted and waiting for a worker.
    Queued,
    /// A worker is mining it right now.
    Running,
    /// Finished with a result (complete, or partial after a deadline /
    /// mid-run cancellation — see the result's [`RunOutcome`]).
    Completed,
    /// Cancelled. If the cancel arrived while the job was queued it never ran
    /// and has no result; if it arrived mid-run the job carries a partial
    /// result labelled [`RunOutcome::Cancelled`].
    Cancelled,
    /// The run failed inside the engine.
    Failed,
}

impl JobStatus {
    /// True once the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Cancelled | JobStatus::Failed
        )
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed => "failed",
        })
    }
}

/// One mining query, ready for [`crate::MiningService::submit`].
///
/// Built fluently; every setter is infallible and validation happens at
/// submit (returning [`crate::ServiceError::InvalidJob`]):
///
/// ```
/// use qcm_service::{JobRequest, Priority};
/// use qcm_sync::Arc;
/// use std::time::Duration;
///
/// let graph = Arc::new(qcm::gen::datasets::tiny_test_dataset(1).graph.clone());
/// let request = JobRequest::new(graph, 0.8, 6)
///     .tenant("analytics")
///     .priority(Priority::High)
///     .deadline(Duration::from_secs(30));
/// # let _ = request;
/// ```
pub struct JobRequest {
    pub(crate) graph: Arc<Graph>,
    pub(crate) gamma: f64,
    pub(crate) min_size: usize,
    pub(crate) prune: PruneConfig,
    pub(crate) backend: Backend,
    pub(crate) tenant: String,
    pub(crate) priority: Priority,
    pub(crate) deadline: Option<Duration>,
    pub(crate) sink: Option<Box<dyn QuasiCliqueSink + Send>>,
    pub(crate) fingerprint: Option<u64>,
}

impl JobRequest {
    /// A request to mine `graph` for maximal γ-quasi-cliques of at least
    /// `min_size` vertices, with default tenant (`"default"`), normal
    /// priority, all pruning rules and the serial backend (the worker pool
    /// provides the parallelism across jobs; see [`JobRequest::backend`] to
    /// parallelise within one job instead).
    pub fn new(graph: Arc<Graph>, gamma: f64, min_size: usize) -> Self {
        JobRequest {
            graph,
            gamma,
            min_size,
            prune: PruneConfig::all_enabled(),
            backend: Backend::Serial,
            tenant: "default".to_string(),
            priority: Priority::Normal,
            deadline: None,
            sink: None,
            fingerprint: None,
        }
    }

    /// The tenant this job is accounted against (fair scheduling and quotas).
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Scheduling priority (default [`Priority::Normal`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Pruning-rule configuration (default: all enabled). Part of the cache
    /// key.
    pub fn prune(mut self, prune: PruneConfig) -> Self {
        self.prune = prune;
        self
    }

    /// Execution backend for this job (default [`Backend::Serial`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Per-job execution deadline, measured from the moment a worker starts
    /// the run (queue wait does not count). A job past its deadline completes
    /// with a *partial* result labelled [`RunOutcome::DeadlineExceeded`] — it
    /// is not an error.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Hands `sink` every raw candidate report of the run (see
    /// `qcm::Session::run_streaming`). A cache hit mines nothing, so its sink
    /// receives no report; the maximal sets come from
    /// [`crate::MiningService::poll_fetch`] either way.
    pub fn stream(mut self, sink: Box<dyn QuasiCliqueSink + Send>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Supplies a precomputed graph fingerprint
    /// ([`Graph::content_hash`]), skipping the `O(|V| + |E|)` hash at
    /// submit. The caller is responsible for it actually matching the graph —
    /// a wrong value silently poisons the result cache.
    pub fn fingerprint(mut self, fingerprint: u64) -> Self {
        self.fingerprint = Some(fingerprint);
        self
    }
}

/// The shared, immutable answer of one mined query.
///
/// Stored once in the result cache and handed out as an `Arc` to every job
/// that hits it, so serving a hot query never clones the result sets.
#[derive(Clone, Debug)]
pub struct MinedAnswer {
    /// The result sets (exactly the maximal quasi-cliques when
    /// [`MinedAnswer::outcome`] is [`RunOutcome::Complete`]).
    pub maximal: QuasiCliqueSet,
    /// Raw candidate reports produced by the run.
    pub raw_reported: u64,
    /// How the mining run ended. Only [`RunOutcome::Complete`] answers are
    /// ever cached; partial answers are returned to their own job only.
    pub outcome: RunOutcome,
    /// Wall-clock time of the original mining run (a cache hit reports the
    /// time the *original* mine took, not the ~zero serving time).
    pub mining_time: Duration,
}

/// The result of one job, as returned by [`crate::MiningService::poll_fetch`].
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job this result belongs to.
    pub job: JobId,
    /// The tenant that submitted it.
    pub tenant: String,
    /// True if the answer was served from the result cache without mining.
    pub cache_hit: bool,
    /// The (possibly shared) answer.
    pub answer: Arc<MinedAnswer>,
}

impl JobResult {
    /// How the mining run ended.
    pub fn outcome(&self) -> RunOutcome {
        self.answer.outcome
    }

    /// True if the run explored the whole search space.
    pub fn is_complete(&self) -> bool {
        self.answer.outcome.is_complete()
    }

    /// The result sets.
    pub fn maximal(&self) -> &QuasiCliqueSet {
        &self.answer.maximal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_roundtrips_raw_value() {
        let id = JobId::from_raw(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.to_string(), "42");
    }

    #[test]
    fn priority_bands_order_high_first() {
        assert!(Priority::High.band() < Priority::Normal.band());
        assert!(Priority::Normal.band() < Priority::Low.band());
        assert_eq!(Priority::parse("high"), Some(Priority::High));
        assert_eq!(Priority::parse("normal"), Some(Priority::Normal));
        assert_eq!(Priority::parse("low"), Some(Priority::Low));
        assert_eq!(Priority::parse("urgent"), None);
        assert_eq!(Priority::High.to_string(), "high");
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn terminal_states() {
        assert!(!JobStatus::Queued.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
        assert!(JobStatus::Completed.is_terminal());
        assert!(JobStatus::Cancelled.is_terminal());
        assert!(JobStatus::Failed.is_terminal());
        assert_eq!(JobStatus::Running.to_string(), "running");
    }
}
