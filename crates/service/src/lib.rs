//! # qcm-service — multi-tenant mining job service
//!
//! The paper's engine mines maximal quasi-cliques as one batch run; a
//! production deployment instead faces a *stream* of queries from many
//! tenants, most of them repeats. This crate turns the `qcm::Session` front
//! door into an embeddable, thread-based job service:
//!
//! * [`MiningService`] — the service itself: `submit → JobId`, `status`,
//!   `cancel`, deadline-bounded `poll_fetch` / non-blocking `try_fetch`,
//!   and a run observer through the standard `qcm::QuasiCliqueSink`.
//! * [`JobQueue`] — priority bands with per-tenant round-robin, so one
//!   flooding tenant delays only its own jobs.
//! * A [`WorkerPool`][MiningService::start]: OS threads that execute each
//!   job as a `qcm::Session` run (serial or parallel backend) with the
//!   job's deadline and a per-job `CancelToken` wired through, so deadline
//!   hits and cancellations produce *partial, well-labelled* results instead
//!   of errors or runaway compute.
//! * [`ResultCache`] — completed answers keyed by
//!   [`QueryKey`](qcm_core::QueryKey) (graph content hash + γ + τ_size +
//!   pruning config) with LRU + TTL eviction: a repeated query is answered
//!   without re-mining, in microseconds.
//! * [`AdmissionControl`] — bounded queue, bounded concurrency and
//!   per-tenant quotas; an overloaded service rejects *synchronously* with
//!   the typed [`ServiceError::Overloaded`] instead of queueing unboundedly.
//! * [`ServiceMetrics`] / [`MetricsSnapshot`] — queue depth, in-flight
//!   count, cache hit rate, and p50/p99 job latency over a sliding window.
//!
//! The CLI front end exposes the same lifecycle over HTTP as
//! `qcm serve --listen` (through `qcm-http`); the `job_service` example
//! drives a mixed hot/cold workload across tenants.
//!
//! ## Example
//!
//! ```
//! use qcm_service::{JobRequest, MiningService, ServiceConfig};
//! use qcm_sync::Arc;
//! use std::time::Duration;
//!
//! let dataset = qcm::gen::datasets::tiny_test_dataset(7);
//! let graph = Arc::new(dataset.graph.clone());
//!
//! let service = MiningService::start(ServiceConfig::default());
//! let gamma = dataset.spec.gamma;
//! let min_size = dataset.spec.min_size;
//! let wait = Duration::from_secs(60);
//!
//! // Cold query: mined by the worker pool, awaited via long-poll.
//! let job = service.submit(JobRequest::new(graph.clone(), gamma, min_size))?;
//! let cold = service.poll_fetch(job, wait)?.expect("tiny graph mines fast");
//! assert!(!cold.cache_hit);
//! assert!(cold.is_complete());
//!
//! // Identical query again: served from the result cache.
//! let job = service.submit(JobRequest::new(graph, gamma, min_size))?;
//! let hot = service.poll_fetch(job, wait)?.expect("cache hits are instant");
//! assert!(hot.cache_hit);
//! assert_eq!(hot.maximal(), cold.maximal());
//! assert_eq!(service.metrics().cache_hits, 1);
//!
//! service.shutdown();
//! # Ok::<(), qcm_service::ServiceError>(())
//! ```
//!
//! ## Semantics worth knowing
//!
//! * **Deadlines are execution budgets.** A job's deadline starts counting
//!   when a worker picks it up; a deadline hit completes the job with a
//!   partial result labelled `RunOutcome::DeadlineExceeded` — not an error.
//! * **Cancellation is two different things.** Cancelling a *queued* job
//!   removes it before it ever starts (no result; `poll_fetch` returns
//!   [`ServiceError::Cancelled`]). Cancelling a *running* job fires its
//!   `CancelToken`; the miner unwinds cooperatively and the job ends
//!   `Cancelled` *with* the partial result found so far.
//! * **Only complete answers are cached.** Partial results are returned to
//!   their own job but never served to later identical queries.
//! * **The backend is not part of the cache key.** Serial and parallel runs
//!   of the same query produce identical maximal sets (enforced by the
//!   workspace equivalence tests), so either may serve the other's repeats.

pub mod admission;
pub mod cache;
pub mod error;
pub mod job;
pub mod metrics;
pub mod queue;
pub mod service;

pub use admission::AdmissionControl;
pub use cache::ResultCache;
pub use error::ServiceError;
pub use job::{JobId, JobRequest, JobResult, JobStatus, MinedAnswer, Priority};
pub use metrics::{MetricsSnapshot, ServiceMetrics};
pub use queue::JobQueue;
pub use service::{MiningService, ServiceConfig};
