//! Integration tests of the `qcm-service` job lifecycle: caching,
//! deadlines, admission control and cancellation (the acceptance criteria of
//! the service subsystem).

use qcm::core::QuasiCliqueSink;
use qcm::prelude::{Graph, VertexId};
use qcm::{Backend, RunOutcome};
use qcm_service::{
    AdmissionControl, JobId, JobRequest, JobResult, JobStatus, MiningService, Priority,
    ServiceConfig, ServiceError,
};
use qcm_sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Waits for a terminal result through the long-poll API
/// (every lap also exercises the `Ok(None)`-on-timeout path).
fn fetch(service: &MiningService, job: JobId) -> Result<JobResult, ServiceError> {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Some(result) = service.poll_fetch(job, Duration::from_millis(200))? {
            return Ok(result);
        }
        assert!(Instant::now() < deadline, "job {job} never went terminal");
    }
}

/// A small graph that mines in milliseconds.
fn easy_graph() -> (Arc<Graph>, f64, usize) {
    let dataset = qcm::gen::datasets::tiny_test_dataset(11);
    (
        Arc::new(dataset.graph.clone()),
        dataset.spec.gamma,
        dataset.spec.min_size,
    )
}

/// A dense random graph whose full search space is astronomically large at
/// γ = 0.5, τ_size = 3 — any run over it *must* be stopped by a deadline or a
/// cancellation, which makes interruption behaviour deterministic to test.
fn endless_graph() -> (Arc<Graph>, f64, usize) {
    (Arc::new(qcm::gen::uniform::gnp(120, 0.5, 42)), 0.5, 3)
}

fn single_worker_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

#[test]
fn identical_submits_mine_once_and_hit_the_cache() {
    let (graph, gamma, min_size) = easy_graph();
    let service = MiningService::start(ServiceConfig::default());

    let first = service
        .submit(JobRequest::new(graph.clone(), gamma, min_size).tenant("alpha"))
        .unwrap();
    let cold = fetch(&service, first).unwrap();
    assert!(!cold.cache_hit);
    assert!(cold.is_complete());
    assert!(!cold.maximal().is_empty(), "planted graph has results");

    let second = service
        .submit(JobRequest::new(graph.clone(), gamma, min_size).tenant("beta"))
        .unwrap();
    assert_ne!(first, second, "every submit gets a fresh job id");
    let hot = fetch(&service, second).unwrap();
    assert!(hot.cache_hit, "identical query must be served from cache");
    assert_eq!(hot.maximal(), cold.maximal());
    assert_eq!(hot.answer.mining_time, cold.answer.mining_time);

    let metrics = service.metrics();
    assert_eq!(metrics.cache_hits, 1);
    assert_eq!(metrics.cache_misses, 1);
    assert_eq!(metrics.jobs_mined, 1, "the second submit must not re-mine");
    assert_eq!(metrics.completed, 2);
    assert_eq!(metrics.cache_hit_rate(), Some(0.5));

    // A *different* query over the same graph is a miss, not a hit.
    let third = service
        .submit(JobRequest::new(graph, gamma, min_size + 1))
        .unwrap();
    let other = fetch(&service, third).unwrap();
    assert!(!other.cache_hit);
    assert_eq!(service.metrics().jobs_mined, 2);

    service.shutdown();
}

/// A parallel-backend job goes first: the result-cache key ignores the
/// backend, so after a serial job the cache would answer and nothing parallel
/// would run.
#[test]
fn a_finished_parallel_job_answers_like_serial_and_releases_its_graph() {
    let (graph, gamma, min_size) = easy_graph();
    let expected = qcm::core::SerialMiner::new(qcm::core::MiningParams::new(gamma, min_size))
        .mine(&graph)
        .maximal;
    assert!(!expected.is_empty(), "planted graph has results");
    let service = MiningService::start(single_worker_config());
    let request =
        || JobRequest::new(graph.clone(), gamma, min_size).backend(qcm::Backend::parallel(2, 1));

    let cold = fetch(&service, service.submit(request()).unwrap()).unwrap();
    assert!(!cold.cache_hit);
    assert!(cold.is_complete());
    assert_eq!(cold.maximal(), &expected);

    let hot = fetch(&service, service.submit(request()).unwrap()).unwrap();
    assert!(hot.cache_hit, "identical query must be served from cache");
    assert_eq!(hot.maximal(), &expected);
    assert_eq!(service.metrics().jobs_mined, 1);

    // Both jobs are terminal and fetched: the service holds answers, not
    // graphs.
    assert_eq!(Arc::strong_count(&graph), 1);
    service.shutdown();
}

#[test]
fn deadline_hit_completes_with_partial_result_not_error() {
    let (graph, gamma, min_size) = endless_graph();
    let service = MiningService::start(single_worker_config());
    let job = service
        .submit(JobRequest::new(graph, gamma, min_size).deadline(Duration::from_millis(50)))
        .unwrap();
    let result = fetch(&service, job).expect("a deadline hit is not an error");
    assert_eq!(result.outcome(), RunOutcome::DeadlineExceeded);
    assert!(!result.is_complete());
    assert_eq!(service.status(job).unwrap(), JobStatus::Completed);
    // Partial answers must never be served to later identical queries.
    assert_eq!(service.metrics().cache_entries, 0);
    service.shutdown();
}

#[test]
fn submits_beyond_the_admission_limit_fail_fast() {
    let (graph, gamma, min_size) = easy_graph();
    let service = MiningService::start(ServiceConfig {
        workers: 1,
        admission: AdmissionControl {
            max_queued: 3,
            max_in_flight: usize::MAX,
            per_tenant_quota: 100,
        },
        start_paused: true, // nothing dispatches: the queue fills deterministically
        ..ServiceConfig::default()
    });
    for _ in 0..3 {
        service
            .submit(JobRequest::new(graph.clone(), gamma, min_size))
            .unwrap();
    }
    let err = service
        .submit(JobRequest::new(graph.clone(), gamma, min_size))
        .unwrap_err();
    assert!(
        matches!(err, ServiceError::Overloaded { .. }),
        "expected Overloaded, got {err:?}"
    );
    assert_eq!(service.metrics().rejected, 1);
    assert_eq!(service.metrics().queue_depth, 3);
    drop(service); // abort: queued jobs are discarded
}

#[test]
fn per_tenant_quota_rejects_only_the_greedy_tenant() {
    let (graph, gamma, min_size) = easy_graph();
    let service = MiningService::start(ServiceConfig {
        workers: 1,
        admission: AdmissionControl {
            max_queued: 100,
            max_in_flight: usize::MAX,
            per_tenant_quota: 2,
        },
        start_paused: true,
        ..ServiceConfig::default()
    });
    for _ in 0..2 {
        service
            .submit(JobRequest::new(graph.clone(), gamma, min_size).tenant("greedy"))
            .unwrap();
    }
    let err = service
        .submit(JobRequest::new(graph.clone(), gamma, min_size).tenant("greedy"))
        .unwrap_err();
    assert!(matches!(err, ServiceError::QuotaExceeded { .. }));
    // Another tenant is unaffected.
    service
        .submit(JobRequest::new(graph, gamma, min_size).tenant("modest"))
        .unwrap();
    drop(service);
}

#[test]
fn cancelling_a_queued_job_prevents_it_from_ever_running() {
    let (graph, gamma, min_size) = easy_graph();
    let service = MiningService::start(ServiceConfig {
        workers: 1,
        start_paused: true,
        ..ServiceConfig::default()
    });
    let doomed = service
        .submit(JobRequest::new(graph.clone(), gamma, min_size))
        .unwrap();
    let survivor = service
        .submit(JobRequest::new(graph, gamma, min_size + 1))
        .unwrap();
    assert_eq!(service.status(doomed).unwrap(), JobStatus::Queued);
    assert_eq!(service.cancel(doomed).unwrap(), JobStatus::Cancelled);

    service.resume();
    let result = fetch(&service, survivor).unwrap();
    assert!(result.is_complete());
    // The cancelled job never ran: exactly one mining run happened, and
    // fetching the cancelled job reports it produced nothing.
    assert_eq!(service.metrics().jobs_mined, 1);
    assert_eq!(service.status(doomed).unwrap(), JobStatus::Cancelled);
    assert!(matches!(
        fetch(&service,doomed),
        Err(ServiceError::Cancelled(id)) if id == doomed
    ));
    // Cancelling again is a terminal no-op.
    assert_eq!(service.cancel(doomed).unwrap(), JobStatus::Cancelled);
    service.shutdown();
}

#[test]
fn cancelling_a_running_job_stops_it_via_its_cancel_token() {
    let (graph, gamma, min_size) = endless_graph();
    let service = MiningService::start(single_worker_config());
    let job = service
        .submit(JobRequest::new(graph, gamma, min_size))
        .unwrap();
    // Wait for the worker to pick it up.
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.status(job).unwrap() != JobStatus::Running {
        assert!(Instant::now() < deadline, "job never started running");
        qcm_sync::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(service.cancel(job).unwrap(), JobStatus::Running);
    // The run over this graph cannot finish on its own in test time, so a
    // returned fetch proves the CancelToken stopped it cooperatively.
    let result = fetch(&service, job).unwrap();
    assert_eq!(result.outcome(), RunOutcome::Cancelled);
    assert!(!result.is_complete());
    assert_eq!(service.status(job).unwrap(), JobStatus::Cancelled);
    assert_eq!(service.metrics().cancelled, 1);
    service.shutdown();
}

/// A thread-safe observer that counts a job's raw reports from outside.
#[derive(Clone, Default)]
struct SharedSink {
    reports: Arc<Mutex<u64>>,
}

impl QuasiCliqueSink for SharedSink {
    fn report(&mut self, _members: Vec<VertexId>) {
        *self.reports.lock() += 1;
    }
}

/// A mined job's observer gets every raw report, on both backends; a cache
/// hit's gets none, and its sets come from `poll_fetch`.
#[test]
fn streaming_sinks_fire_for_mined_jobs_and_cache_hits() {
    let (graph, gamma, min_size) = easy_graph();
    for backend in [Backend::Serial, Backend::parallel(2, 1)] {
        let service = MiningService::start(ServiceConfig::default());
        let request = || JobRequest::new(graph.clone(), gamma, min_size).backend(backend.clone());

        let cold_sink = SharedSink::default();
        let job = service
            .submit(request().stream(Box::new(cold_sink.clone())))
            .unwrap();
        let cold = fetch(&service, job).unwrap();
        assert!(!cold.cache_hit);
        assert!(cold.answer.raw_reported > 0, "{backend:?}");
        assert_eq!(
            *cold_sink.reports.lock(),
            cold.answer.raw_reported,
            "{backend:?}"
        );

        // A cache hit mines nothing: its observer gets no report, and the
        // sets come from `poll_fetch`.
        let hot_sink = SharedSink::default();
        let job = service
            .submit(request().stream(Box::new(hot_sink.clone())))
            .unwrap();
        let hot = fetch(&service, job).unwrap();
        assert!(hot.cache_hit);
        assert_eq!(*hot_sink.reports.lock(), 0, "{backend:?}");
        assert_eq!(hot.maximal(), cold.maximal(), "{backend:?}");
        service.shutdown();
    }
}

#[test]
fn cache_hits_are_served_even_when_admission_would_reject() {
    let (graph, gamma, min_size) = easy_graph();
    let service = MiningService::start(ServiceConfig {
        workers: 1,
        admission: AdmissionControl {
            max_queued: 2,
            max_in_flight: usize::MAX,
            per_tenant_quota: 100,
        },
        ..ServiceConfig::default()
    });
    // Warm the cache with one completed query.
    let warm = service
        .submit(JobRequest::new(graph.clone(), gamma, min_size))
        .unwrap();
    fetch(&service, warm).unwrap();
    // Fill the queue with cold jobs while dispatch is paused.
    service.pause();
    for bump in 1..=2 {
        service
            .submit(JobRequest::new(graph.clone(), gamma, min_size + bump))
            .unwrap();
    }
    let err = service
        .submit(JobRequest::new(graph.clone(), gamma, min_size + 3))
        .unwrap_err();
    assert!(matches!(err, ServiceError::Overloaded { .. }));
    // The hot repeat consumes no queue slot and must not be shed.
    let hot = service
        .submit(JobRequest::new(graph, gamma, min_size))
        .unwrap();
    assert!(fetch(&service, hot).unwrap().cache_hit);
    service.resume();
    service.shutdown();
}

/// An observer that panics on the first report, for worker-robustness tests.
struct PanickingSink;

impl QuasiCliqueSink for PanickingSink {
    fn report(&mut self, _members: Vec<VertexId>) {
        panic!("sink exploded");
    }
}

#[test]
fn panicking_sink_fails_the_job_but_not_the_service() {
    let (graph, gamma, min_size) = easy_graph();
    let service = MiningService::start(single_worker_config());
    let doomed = service
        .submit(JobRequest::new(graph.clone(), gamma, min_size).stream(Box::new(PanickingSink)))
        .unwrap();
    let err = fetch(&service, doomed).unwrap_err();
    assert!(
        matches!(&err, ServiceError::JobFailed { message, .. } if message.contains("sink exploded")),
        "expected JobFailed, got {err:?}"
    );
    assert_eq!(service.status(doomed).unwrap(), JobStatus::Failed);
    assert_eq!(service.metrics().failed, 1);
    // The single worker survived the panic and keeps serving.
    let next = service
        .submit(JobRequest::new(graph, gamma, min_size))
        .unwrap();
    assert!(fetch(&service, next).unwrap().is_complete());
    assert_eq!(service.metrics().in_flight, 0);
    service.shutdown();
}

#[test]
fn terminal_jobs_are_evicted_beyond_the_retention_bound() {
    let (graph, gamma, min_size) = easy_graph();
    let service = MiningService::start(ServiceConfig {
        workers: 1,
        max_finished_jobs: 2,
        ..ServiceConfig::default()
    });
    let mut jobs = Vec::new();
    for bump in 0..3 {
        let job = service
            .submit(JobRequest::new(graph.clone(), gamma, min_size + bump))
            .unwrap();
        fetch(&service, job).unwrap();
        jobs.push(job);
    }
    // Only the two most recent terminal jobs are retained; the oldest has
    // been evicted and now reads as unknown (memory stays bounded).
    assert!(matches!(
        service.status(jobs[0]),
        Err(ServiceError::UnknownJob(_))
    ));
    assert!(service.status(jobs[1]).is_ok());
    assert!(service.status(jobs[2]).is_ok());
    // Eviction does not touch the result cache: the evicted job's answer is
    // still served to a repeat query.
    let repeat = service
        .submit(JobRequest::new(graph, gamma, min_size))
        .unwrap();
    assert!(fetch(&service, repeat).unwrap().cache_hit);
    service.shutdown();
}

#[test]
fn max_in_flight_one_with_many_workers_drains_and_shuts_down() {
    // Regression: with max_in_flight < workers, every completion must wake
    // all waiting workers, or an idle worker can be stranded and shutdown
    // hangs on join.
    let (graph, gamma, min_size) = easy_graph();
    let service = MiningService::start(ServiceConfig {
        workers: 4,
        admission: AdmissionControl {
            max_queued: 16,
            max_in_flight: 1,
            per_tenant_quota: 16,
        },
        start_paused: true,
        ..ServiceConfig::default()
    });
    let jobs: Vec<_> = (0..3)
        .map(|bump| {
            service
                .submit(JobRequest::new(graph.clone(), gamma, min_size + bump))
                .unwrap()
        })
        .collect();
    service.resume();
    for job in jobs {
        let result = fetch(&service, job).unwrap();
        assert!(result.is_complete());
    }
    let metrics = service.metrics();
    assert_eq!(metrics.completed, 3);
    service.shutdown(); // must not hang
}

#[test]
fn invalid_jobs_and_unknown_ids_return_typed_errors() {
    let (graph, _, _) = easy_graph();
    let service = MiningService::start(single_worker_config());
    let err = service
        .submit(JobRequest::new(graph.clone(), 1.5, 5))
        .unwrap_err();
    assert!(matches!(err, ServiceError::InvalidJob(_)));
    let err = service.submit(JobRequest::new(graph, 0.9, 1)).unwrap_err();
    assert!(matches!(err, ServiceError::InvalidJob(_)));
    let ghost = qcm_service::JobId::from_raw(999);
    assert!(matches!(
        service.status(ghost),
        Err(ServiceError::UnknownJob(_))
    ));
    assert!(matches!(
        fetch(&service, ghost),
        Err(ServiceError::UnknownJob(_))
    ));
    assert!(matches!(
        service.cancel(ghost),
        Err(ServiceError::UnknownJob(_))
    ));
    // Invalid submissions never touch the admission/cache counters.
    assert_eq!(service.metrics().submitted, 0);
    service.shutdown();
}

#[test]
fn mixed_tenant_workload_respects_priorities_and_reports_latency() {
    let (graph, gamma, min_size) = easy_graph();
    let service = MiningService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let mut jobs = Vec::new();
    for (tenant, priority, bump) in [
        ("alpha", Priority::Low, 0),
        ("beta", Priority::Normal, 1),
        ("alpha", Priority::High, 2),
    ] {
        jobs.push(
            service
                .submit(
                    JobRequest::new(graph.clone(), gamma, min_size + bump)
                        .tenant(tenant)
                        .priority(priority),
                )
                .unwrap(),
        );
    }
    for &job in &jobs {
        let result = fetch(&service, job).unwrap();
        assert!(result.is_complete());
    }
    // A repeat of the (now completed) first query is served hot.
    let repeat = service
        .submit(
            JobRequest::new(graph.clone(), gamma, min_size)
                .tenant("beta")
                .priority(Priority::High),
        )
        .unwrap();
    assert!(fetch(&service, repeat).unwrap().cache_hit);
    let metrics = service.metrics();
    assert_eq!(metrics.queue_depth, 0);
    assert_eq!(metrics.in_flight, 0);
    assert_eq!(metrics.completed, 4);
    assert_eq!(metrics.jobs_mined, 3, "the repeat query must not re-mine");
    assert!(metrics.p99_latency >= metrics.p50_latency);
    service.shutdown();
}
