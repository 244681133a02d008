//! The mining job service: submission, scheduling, execution, results.

use crate::admission::AdmissionControl;
use crate::cache::ResultCache;
use crate::error::ServiceError;
use crate::job::{JobId, JobRequest, JobResult, JobStatus, MinedAnswer, Priority};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::queue::JobQueue;
use qcm::{CancelToken, RunOutcome, Session};
use qcm_core::{QuasiCliqueSink, QueryKey};
use qcm_graph::Graph;
use qcm_obs::clock::Instant;
use qcm_sync::atomic::Ordering;
use qcm_sync::thread::JoinHandle;
use qcm_sync::{Arc, Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::time::Duration;

/// Static configuration of a [`MiningService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool (clamped to at least 1).
    pub workers: usize,
    /// Admission limits (queue bound, concurrency bound, tenant quotas).
    pub admission: AdmissionControl,
    /// Result-cache capacity in answers (0 disables caching).
    pub cache_capacity: usize,
    /// Result-cache time-to-live (`None` = answers never expire).
    pub cache_ttl: Option<Duration>,
    /// How many terminal jobs to retain for late `status`/`poll_fetch` calls.
    /// Beyond this the oldest are evicted (and report
    /// [`ServiceError::UnknownJob`]), bounding the service's memory over a
    /// long life.
    pub max_finished_jobs: usize,
    /// Start with dispatch paused: jobs are admitted and queued but no worker
    /// picks them up until [`MiningService::resume`]. Useful for tests and
    /// for pre-loading a queue before opening the floodgates.
    pub start_paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            admission: AdmissionControl::default(),
            cache_capacity: 128,
            cache_ttl: None,
            max_finished_jobs: 1024,
            start_paused: false,
        }
    }
}

/// Everything a job carries through its lifecycle.
struct JobEntry {
    tenant: String,
    priority: Priority,
    status: JobStatus,
    /// The validated session; taken by the worker that runs the job.
    session: Option<Session>,
    /// The input graph; taken by the worker (and dropped afterwards so a
    /// finished job does not pin the graph in memory).
    graph: Option<Arc<Graph>>,
    /// Optional observer of the run's raw reports; taken by the worker.
    sink: Option<Box<dyn QuasiCliqueSink + Send>>,
    key: QueryKey,
    cancel: CancelToken,
    submitted_at: Instant,
    result: Option<Arc<MinedAnswer>>,
    cache_hit: bool,
    /// Engine failure message, when `status == Failed`.
    error: Option<String>,
}

/// Mutable service state behind the one service lock.
struct State {
    queue: JobQueue,
    jobs: HashMap<JobId, JobEntry>,
    cache: ResultCache,
    /// Unfinished (queued + running) jobs per tenant — an O(1) counter, not a
    /// scan, because it sits on every submit's hot path under the lock.
    tenant_unfinished: HashMap<String, usize>,
    /// Terminal jobs in completion order; once it outgrows
    /// `max_finished_jobs`, the oldest entries are dropped from `jobs`.
    finished: std::collections::VecDeque<JobId>,
    max_finished_jobs: usize,
    next_id: u64,
    running: usize,
    paused: bool,
    stop: bool,
}

impl State {
    fn tenant_unfinished(&self, tenant: &str) -> usize {
        self.tenant_unfinished.get(tenant).copied().unwrap_or(0)
    }

    fn tenant_job_started(&mut self, tenant: &str) {
        *self
            .tenant_unfinished
            .entry(tenant.to_string())
            .or_insert(0) += 1;
    }

    fn tenant_job_finished(&mut self, tenant: &str) {
        match self.tenant_unfinished.get_mut(tenant) {
            Some(count) if *count > 1 => *count -= 1,
            Some(_) => {
                self.tenant_unfinished.remove(tenant);
            }
            None => debug_assert!(
                false,
                "tenant {tenant:?} finished more jobs than it started"
            ),
        }
    }

    /// Records a job as terminal and evicts the oldest terminal entries
    /// beyond the retention bound, so a long-lived service does not
    /// accumulate every result ever produced. An evicted job becomes
    /// [`ServiceError::UnknownJob`] to late `status`/`poll_fetch` calls.
    fn retire(&mut self, job: JobId) {
        self.finished.push_back(job);
        while self.finished.len() > self.max_finished_jobs {
            if let Some(old) = self.finished.pop_front() {
                self.jobs.remove(&old);
            }
        }
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when work may be available (push, resume, freed slot, stop).
    work_cv: Condvar,
    /// Signalled when any job reaches a terminal state.
    done_cv: Condvar,
    metrics: ServiceMetrics,
    admission: AdmissionControl,
}

impl Shared {
    /// Locks the state, recovering from poisoning: a panic in caller-supplied
    /// sink code must not brick the whole service.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock()
    }
}

/// An embeddable, thread-based, multi-tenant mining job service.
///
/// See the [crate docs](crate) for the architecture overview and an
/// end-to-end example.
pub struct MiningService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl MiningService {
    /// Starts the service with its worker pool.
    pub fn start(config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: JobQueue::new(),
                jobs: HashMap::new(),
                cache: ResultCache::new(config.cache_capacity, config.cache_ttl),
                tenant_unfinished: HashMap::new(),
                finished: std::collections::VecDeque::new(),
                max_finished_jobs: config.max_finished_jobs.max(1),
                next_id: 1,
                running: 0,
                paused: config.start_paused,
                stop: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            metrics: ServiceMetrics::default(),
            admission: config.admission,
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                qcm_sync::thread::Builder::new()
                    .name(format!("qcm-service-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a service worker thread")
            })
            .collect();
        MiningService { shared, workers }
    }

    /// Submits a job.
    ///
    /// Validates the configuration, applies admission control and consults
    /// the result cache — all synchronously. On a cache hit the job is
    /// complete before `submit` returns (its [`JobResult::cache_hit`] is
    /// true); otherwise it is queued for the worker pool.
    ///
    /// # Errors
    /// [`ServiceError::InvalidJob`] for a configuration the `Session` builder
    /// rejects, [`ServiceError::Overloaded`] when admission control sheds the
    /// job, [`ServiceError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, request: JobRequest) -> Result<JobId, ServiceError> {
        let mut builder = Session::builder()
            .gamma(request.gamma)
            .min_size(request.min_size)
            .prune(request.prune)
            .backend(request.backend);
        if let Some(deadline) = request.deadline {
            builder = builder.deadline(deadline);
        }
        let cancel = CancelToken::new();
        let session = builder.cancel_token(cancel.clone()).build()?;
        // Hash the graph before taking the lock: O(|V| + |E|) work must not
        // serialise the whole service.
        let graph_hash = request
            .fingerprint
            .unwrap_or_else(|| request.graph.content_hash());
        let key = QueryKey::new(graph_hash, *session.params(), request.prune);

        let (id, hit) = {
            let mut state = self.shared.lock();
            if state.stop {
                return Err(ServiceError::ShuttingDown);
            }
            // The cache is consulted *before* admission control: a hit
            // consumes no queue slot, no worker and no tenant quota, so hot
            // repeat traffic — exactly what the cache exists to keep serving
            // under load — must not be shed while the queue is full.
            let hit = state.cache.get(&key);
            if hit.is_none() {
                if let Err(rejection) = self.shared.admission.admit(
                    state.queue.len(),
                    &request.tenant,
                    state.tenant_unfinished(&request.tenant),
                ) {
                    // ordering: Relaxed — service stats counter; totals are read via
                    // snapshot(), which tolerates skew.
                    self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(rejection);
                }
            }
            let id = JobId::from_raw(state.next_id);
            state.next_id += 1;
            // ordering: Relaxed — service stats counter; totals are read via
            // snapshot(), which tolerates skew.
            self.shared
                .metrics
                .submitted
                .fetch_add(1, Ordering::Relaxed);

            if let Some(answer) = hit {
                // Served from cache: the job is born completed.
                // ordering: Relaxed — service stats counter; totals are read via
                // snapshot(), which tolerates skew.
                self.shared
                    .metrics
                    .cache_hits
                    .fetch_add(1, Ordering::Relaxed);
                // ordering: Relaxed — service stats counter; totals are read via
                // snapshot(), which tolerates skew.
                self.shared
                    .metrics
                    .completed
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.metrics.record_latency(Duration::ZERO);
                state.jobs.insert(
                    id,
                    JobEntry {
                        tenant: request.tenant,
                        priority: request.priority,
                        status: JobStatus::Completed,
                        session: None,
                        graph: None,
                        sink: None,
                        key,
                        cancel,
                        submitted_at: Instant::now(),
                        result: Some(answer),
                        cache_hit: true,
                        error: None,
                    },
                );
                state.retire(id);
                (id, true)
            } else {
                // ordering: Relaxed — service stats counter; totals are read via
                // snapshot(), which tolerates skew.
                self.shared
                    .metrics
                    .cache_misses
                    .fetch_add(1, Ordering::Relaxed);
                state.jobs.insert(
                    id,
                    JobEntry {
                        tenant: request.tenant.clone(),
                        priority: request.priority,
                        status: JobStatus::Queued,
                        session: Some(session),
                        graph: Some(request.graph),
                        sink: request.sink,
                        key,
                        cancel,
                        submitted_at: Instant::now(),
                        result: None,
                        cache_hit: false,
                        error: None,
                    },
                );
                state.queue.push(&request.tenant, request.priority, id);
                state.tenant_job_started(&request.tenant);
                self.shared.work_cv.notify_one();
                (id, false)
            }
        };
        if hit {
            self.shared.done_cv.notify_all();
        }
        Ok(id)
    }

    /// The current lifecycle state of a job.
    pub fn status(&self, job: JobId) -> Result<JobStatus, ServiceError> {
        let state = self.shared.lock();
        state
            .jobs
            .get(&job)
            .map(|e| e.status)
            .ok_or(ServiceError::UnknownJob(job))
    }

    /// The tenant a job is accounted against. Front ends use this to scope
    /// job reads/cancels to the authenticated tenant — job ids are
    /// sequential, so without the check any caller could enumerate them.
    pub fn tenant_of(&self, job: JobId) -> Result<String, ServiceError> {
        let state = self.shared.lock();
        state
            .jobs
            .get(&job)
            .map(|e| e.tenant.clone())
            .ok_or(ServiceError::UnknownJob(job))
    }

    /// Cancels a job and returns its status after the call.
    ///
    /// A queued job is removed before it ever starts (terminal immediately,
    /// no result). A running job has its [`CancelToken`] fired: the miner
    /// unwinds cooperatively and the job completes shortly after with a
    /// partial result labelled [`RunOutcome::Cancelled`] — poll
    /// [`MiningService::status`] or wait in [`MiningService::poll_fetch`] for
    /// the transition. Cancelling a terminal job is a no-op.
    pub fn cancel(&self, job: JobId) -> Result<JobStatus, ServiceError> {
        let mut state = self.shared.lock();
        let entry = state
            .jobs
            .get_mut(&job)
            .ok_or(ServiceError::UnknownJob(job))?;
        match entry.status {
            JobStatus::Queued => {
                entry.status = JobStatus::Cancelled;
                entry.session = None;
                entry.graph = None;
                entry.sink = None;
                let (tenant, priority) = (entry.tenant.clone(), entry.priority);
                let latency = entry.submitted_at.elapsed();
                let removed = state.queue.remove(&tenant, priority, job);
                debug_assert!(removed, "queued job must be in the queue");
                state.tenant_job_finished(&tenant);
                state.retire(job);
                // ordering: Relaxed — service stats counter; totals are read via
                // snapshot(), which tolerates skew.
                self.shared
                    .metrics
                    .cancelled
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.metrics.record_latency(latency);
                drop(state);
                self.shared.done_cv.notify_all();
                Ok(JobStatus::Cancelled)
            }
            JobStatus::Running => {
                entry.cancel.cancel();
                Ok(JobStatus::Running)
            }
            terminal => Ok(terminal),
        }
    }

    /// Waits up to `wait` for the job to reach a terminal state.
    ///
    /// Returns `Ok(Some(result))` once terminal, `Ok(None)` when the
    /// deadline expires first (the job keeps running — poll again). This is
    /// the long-poll primitive of the HTTP surface: `GET
    /// /v1/jobs/{id}?wait_ms=` parks here for a bounded time, so a handler
    /// always returns to its connection pool. `Duration::ZERO` is an
    /// instantaneous status probe.
    ///
    /// # Errors
    /// [`ServiceError::UnknownJob`] for an id this service never issued,
    /// [`ServiceError::Cancelled`] for a job cancelled while still queued
    /// (it has no result), [`ServiceError::JobFailed`] when the run failed in
    /// the engine. A job cancelled *mid-run* or stopped by its deadline
    /// returns `Ok` with a partial result — inspect [`JobResult::outcome`].
    pub fn poll_fetch(
        &self,
        job: JobId,
        wait: Duration,
    ) -> Result<Option<JobResult>, ServiceError> {
        let deadline = Instant::now() + wait;
        let mut state = self.shared.lock();
        loop {
            if let Some(result) = Self::terminal_result(&state, job) {
                return result.map(Some);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            // Re-armed each lap: done_cv is notified for *any* terminal job,
            // so a wakeup here says nothing about *this* job yet.
            let (guard, _timed_out) = self.shared.done_cv.wait_timeout(state, deadline - now);
            state = guard;
        }
    }

    /// Non-blocking fetch: `Ok(None)` while the job is still queued or
    /// running. Equivalent to [`poll_fetch`](MiningService::poll_fetch) with
    /// a zero wait, without touching the clock.
    pub fn try_fetch(&self, job: JobId) -> Result<Option<JobResult>, ServiceError> {
        let state = self.shared.lock();
        Self::terminal_result(&state, job).transpose()
    }

    fn terminal_result(state: &State, job: JobId) -> Option<Result<JobResult, ServiceError>> {
        let Some(entry) = state.jobs.get(&job) else {
            return Some(Err(ServiceError::UnknownJob(job)));
        };
        if !entry.status.is_terminal() {
            return None;
        }
        Some(match (&entry.result, entry.status) {
            (Some(answer), _) => Ok(JobResult {
                job,
                tenant: entry.tenant.clone(),
                cache_hit: entry.cache_hit,
                answer: answer.clone(),
            }),
            (None, JobStatus::Failed) => Err(ServiceError::JobFailed {
                job,
                message: entry.error.clone().unwrap_or_else(|| "unknown".into()),
            }),
            (None, _) => Err(ServiceError::Cancelled(job)),
        })
    }

    /// A point-in-time metrics snapshot (counters, gauges, latency
    /// percentiles).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut state = self.shared.lock();
        let queue_depth = state.queue.len();
        let in_flight = state.running;
        let cache_entries = state.cache.len();
        self.shared
            .metrics
            .snapshot(queue_depth, in_flight, cache_entries)
    }

    /// Pauses dispatch: running jobs continue, queued jobs wait.
    pub fn pause(&self) {
        self.shared.lock().paused = true;
    }

    /// Resumes dispatch after [`MiningService::pause`] (or a paused start).
    pub fn resume(&self) {
        self.shared.lock().paused = false;
        self.shared.work_cv.notify_all();
    }

    /// Graceful shutdown: stops accepting submissions, drains the queue
    /// (every already-admitted job still runs) and joins the workers.
    pub fn shutdown(mut self) {
        self.stop(true);
    }

    fn stop(&mut self, drain: bool) {
        {
            let mut state = self.shared.lock();
            state.stop = true;
            // A paused service must still be able to wind down.
            state.paused = false;
            if !drain {
                // Abort: drop queued jobs as cancelled, interrupt running ones.
                while let Some(id) = state.queue.pop() {
                    if let Some(entry) = state.jobs.get_mut(&id) {
                        entry.status = JobStatus::Cancelled;
                        entry.session = None;
                        entry.graph = None;
                        entry.sink = None;
                        let tenant = entry.tenant.clone();
                        state.tenant_job_finished(&tenant);
                        state.retire(id);
                        // ordering: Relaxed — service stats counter; totals are read via
                        // snapshot(), which tolerates skew.
                        self.shared
                            .metrics
                            .cancelled
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                for entry in state.jobs.values() {
                    if entry.status == JobStatus::Running {
                        entry.cancel.cancel();
                    }
                }
            }
        }
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for MiningService {
    /// Dropping a live service aborts it: queued jobs are cancelled, running
    /// jobs are interrupted via their tokens, workers are joined. Use
    /// [`MiningService::shutdown`] for a draining stop.
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop(false);
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Wait for a dispatchable job (or for shutdown).
        let (id, session, graph, sink) = {
            let mut state = shared.lock();
            let job = loop {
                if state.stop && state.queue.is_empty() {
                    return;
                }
                let slot_free = state.running < shared.admission.max_in_flight;
                if !state.paused && slot_free {
                    if let Some(id) = state.queue.pop() {
                        break id;
                    }
                }
                state = shared.work_cv.wait(state);
            };
            state.running += 1;
            let entry = state
                .jobs
                .get_mut(&job)
                .expect("queued job must have an entry");
            debug_assert_eq!(entry.status, JobStatus::Queued);
            entry.status = JobStatus::Running;
            (
                job,
                entry.session.take().expect("queued job keeps its session"),
                entry.graph.take().expect("queued job keeps its graph"),
                entry.sink.take(),
            )
        };

        // Mine outside the lock, on the job's own graph. The entry gave its
        // handle up above and this one is dropped after the run, so the
        // service keeps no graph past its job.
        let outcome = run_job(&session, &graph, sink);
        drop(graph);

        // Publish the terminal state.
        {
            let mut state = shared.lock();
            state.running -= 1;
            // ordering: Relaxed — service stats counter; totals are read via
            // snapshot(), which tolerates skew.
            shared.metrics.jobs_mined.fetch_add(1, Ordering::Relaxed);
            let entry = state
                .jobs
                .get_mut(&id)
                .expect("running job must have an entry");
            let latency = entry.submitted_at.elapsed();
            let key = entry.key;
            let tenant = entry.tenant.clone();
            match outcome {
                Ok(answer) => {
                    let answer = Arc::new(answer);
                    entry.result = Some(answer.clone());
                    if answer.outcome == RunOutcome::Cancelled {
                        entry.status = JobStatus::Cancelled;
                        // ordering: Relaxed — service stats counter; totals are read via
                        // snapshot(), which tolerates skew.
                        shared.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                    } else {
                        entry.status = JobStatus::Completed;
                        // ordering: Relaxed — service stats counter; totals are read via
                        // snapshot(), which tolerates skew.
                        shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
                    }
                    // Only complete answers may serve other jobs.
                    if answer.outcome.is_complete() {
                        state.cache.insert(key, answer);
                    }
                }
                Err(message) => {
                    entry.status = JobStatus::Failed;
                    entry.error = Some(message);
                    // ordering: Relaxed — service stats counter; totals are read via
                    // snapshot(), which tolerates skew.
                    shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                }
            }
            state.tenant_job_finished(&tenant);
            state.retire(id);
            shared.metrics.record_latency(latency);
        }
        shared.done_cv.notify_all();
        // A slot freed up; every waiter must re-check (not notify_one: with
        // max_in_flight < workers a single token can land on a worker that
        // goes back to sleep, stranding the rest — and hanging shutdown's
        // join if the one skipped waiter was never woken again).
        shared.work_cv.notify_all();
    }
}

fn run_job(
    session: &Session,
    graph: &Arc<Graph>,
    mut sink: Option<Box<dyn QuasiCliqueSink + Send>>,
) -> Result<MinedAnswer, String> {
    // The run executes caller-supplied sink code; a panic there must fail
    // *this job* (JobStatus::Failed), not unwind the worker thread — an
    // unwinding worker would leak its `running` slot and leave the job stuck
    // in Running, never answering `poll_fetch`.
    let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match sink.as_mut() {
        Some(sink) => session.run_streaming(graph, sink.as_mut()),
        None => session.run(graph),
    }))
    .map_err(|panic| format!("job run panicked: {}", panic_message(panic.as_ref())))?
    .map_err(|e| e.to_string())?;
    Ok(MinedAnswer {
        maximal: report.maximal,
        raw_reported: report.raw_reported,
        outcome: report.outcome,
        mining_time: report.elapsed,
    })
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}
