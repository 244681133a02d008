//! The transport-independent handler table.
//!
//! The versioned HTTP surface in this crate is a thin adapter over this one
//! struct: parse the wire format into the shared DTOs (`qcm_core::api`),
//! call the matching [`Api`] method, render the result. Behaviour (auth,
//! graph resolution, admission, long-poll) lives here, not in the transport.

use crate::registry::SharedRegistry;
use qcm::prelude::{ApiError, ErrorCode, GraphInfo, JobView, SubmitRequest, SubmitResponse};
use qcm::RunOutcome;
use qcm_service::{
    JobId, JobRequest, JobResult, JobStatus, MetricsSnapshot, MiningService, Priority,
    ServiceConfig, ServiceError,
};
use std::collections::HashMap;
use std::time::Duration;

/// Longest long-poll wait the service grants, whatever the client asks for:
/// a connection-pool thread parked in `poll_fetch` must come back in
/// bounded time.
pub const MAX_WAIT: Duration = Duration::from_secs(30);

/// Authentication configuration: bearer token → tenant.
///
/// With no tokens configured the service runs *open* (every caller is
/// tenant `default`, or whatever `X-Qcm-Tenant` names — convenient for
/// local use). With tokens configured, a missing or unknown
/// `Authorization: Bearer` is a 401.
#[derive(Default)]
pub struct AuthConfig {
    tokens: HashMap<String, String>,
}

impl AuthConfig {
    /// Open access (single-machine/dev mode).
    pub fn open() -> AuthConfig {
        AuthConfig::default()
    }

    /// Requires one of `token → tenant` mappings.
    pub fn with_tokens(tokens: impl IntoIterator<Item = (String, String)>) -> AuthConfig {
        AuthConfig {
            tokens: tokens.into_iter().collect(),
        }
    }

    /// Whether any tokens are configured.
    pub fn requires_token(&self) -> bool {
        !self.tokens.is_empty()
    }

    /// Resolves the tenant for a request.
    pub fn tenant(
        &self,
        bearer: Option<&str>,
        tenant_header: Option<&str>,
    ) -> Result<String, ApiError> {
        if self.tokens.is_empty() {
            return Ok(tenant_header.unwrap_or("default").to_string());
        }
        let token = bearer.ok_or_else(|| {
            ApiError::new(
                ErrorCode::Unauthorized,
                "missing Authorization: Bearer token",
            )
        })?;
        self.tokens
            .get(token)
            .cloned()
            .ok_or_else(|| ApiError::new(ErrorCode::Unauthorized, "unknown auth token"))
    }
}

/// The shared service API: one mining service, one graph registry, one auth
/// table.
pub struct Api {
    service: MiningService,
    graphs: SharedRegistry,
    auth: AuthConfig,
}

impl Api {
    /// Starts a mining service with `config` behind a fresh registry.
    pub fn start(config: ServiceConfig, auth: AuthConfig) -> Api {
        Api::over(MiningService::start(config), auth)
    }

    /// Wraps an already-running service.
    pub fn over(service: MiningService, auth: AuthConfig) -> Api {
        Api {
            service,
            graphs: SharedRegistry::default(),
            auth,
        }
    }

    /// Confines path-based graph loading (`POST /v1/jobs {"graph": path}`,
    /// `PUT /v1/graphs {"path": path}`) to `root`: requests naming a path
    /// outside it answer `unknown_graph` without touching the filesystem.
    /// Network front doors should always set this — without it any caller
    /// can make the server stat/read arbitrary server-local files.
    pub fn with_graph_root(self, root: impl Into<std::path::PathBuf>) -> Api {
        self.graphs.set_root(root.into());
        self
    }

    /// The auth table (transports resolve the tenant before dispatching).
    pub fn auth(&self) -> &AuthConfig {
        &self.auth
    }

    /// The underlying service (for metrics snapshots and shutdown).
    pub fn service(&self) -> &MiningService {
        &self.service
    }

    /// Actual graph loads so far (stays flat across repeat submits of an
    /// unchanged path — the registry's stat cache at work).
    pub fn graph_loads(&self) -> u64 {
        self.graphs.loads()
    }

    /// `POST /v1/jobs`: validates, resolves the graph, submits, and reports
    /// the job's immediate state (a repeat of a cached query completes at
    /// submit time with `cache_hit`). The registry lock guards only its
    /// maps: a cold graph loads with no lock held, so it never stalls
    /// another connection's submit, and once however many submits name
    /// it at once.
    pub fn submit(
        &self,
        request: &SubmitRequest,
        tenant: &str,
    ) -> Result<SubmitResponse, ApiError> {
        let priority = Priority::parse(&request.priority).ok_or_else(|| {
            ApiError::bad_request(format!(
                "invalid priority {:?} (expected low, normal or high)",
                request.priority
            ))
        })?;
        let loaded = self.graphs.resolve(&request.graph)?;
        let mut job_request = JobRequest::new(loaded.graph, request.gamma, request.min_size)
            .tenant(tenant)
            .priority(priority)
            .fingerprint(loaded.fingerprint);
        if let Some(ms) = request.deadline_ms {
            job_request = job_request.deadline(Duration::from_millis(ms));
        }
        let job = self.service.submit(job_request).map_err(ApiError::from)?;
        // A result-cache hit completes synchronously inside submit; report
        // it so clients can skip the status poll entirely.
        let cache_hit = match self.service.try_fetch(job) {
            Ok(Some(result)) => result.cache_hit,
            _ => false,
        };
        let status = self.service.status(job).map_err(ApiError::from)?;
        Ok(SubmitResponse {
            job: job.raw(),
            status: status.to_string(),
            cache_hit,
        })
    }

    /// `GET /v1/jobs/{id}?wait_ms=`: waits up to `wait` (clamped to
    /// [`MAX_WAIT`]) for a terminal state, then describes the job as it
    /// stands. `tenant` is the authenticated
    /// caller: with tokens configured, another tenant's job answers
    /// `unknown_job` (ids are sequential, so resource access must be
    /// tenant-scoped, not just admission).
    pub fn job(&self, id: u64, wait: Duration, tenant: &str) -> Result<JobView, ApiError> {
        let job = JobId::from_raw(id);
        self.authorize_job(job, tenant)?;
        match self.service.poll_fetch(job, wait.min(MAX_WAIT)) {
            Ok(Some(result)) => Ok(self.view(job, result)),
            // Deadline expired with the job still queued/running — that is a
            // successful status response, not an error.
            Ok(None) => {
                let status = self.service.status(job).map_err(ApiError::from)?;
                Ok(JobView {
                    job: id,
                    status: status.to_string(),
                    tenant: String::new(),
                    outcome: None,
                    cache_hit: None,
                    num_maximal: None,
                    raw_reported: None,
                    mining_ms: None,
                })
            }
            // Cancelled-while-queued is a terminal state of the resource,
            // not a request failure: report it as a view.
            Err(ServiceError::Cancelled(_)) => Ok(JobView {
                job: id,
                status: JobStatus::Cancelled.to_string(),
                tenant: String::new(),
                outcome: Some("cancelled".to_string()),
                cache_hit: None,
                num_maximal: None,
                raw_reported: None,
                mining_ms: None,
            }),
            Err(e) => Err(e.into()),
        }
    }

    /// `DELETE /v1/jobs/{id}`: requests cancellation and reports the job's
    /// state at that instant. Scoped to the authenticated `tenant` exactly
    /// like [`Api::job`].
    pub fn cancel(&self, id: u64, tenant: &str) -> Result<JobView, ApiError> {
        let job = JobId::from_raw(id);
        self.authorize_job(job, tenant)?;
        let status = self.service.cancel(job).map_err(ApiError::from)?;
        Ok(JobView {
            job: id,
            status: status.to_string(),
            tenant: String::new(),
            outcome: None,
            cache_hit: None,
            num_maximal: None,
            raw_reported: None,
            mining_ms: None,
        })
    }

    /// Enforces job ownership when tokens are configured. In open mode any
    /// caller may name any tenant anyway, so the check would be theatre —
    /// current (local/dev) behaviour is kept. A mismatch answers the same
    /// `unknown_job` as a never-issued id, so the response does not reveal
    /// whether the id exists.
    fn authorize_job(&self, job: JobId, tenant: &str) -> Result<(), ApiError> {
        if !self.auth.requires_token() {
            return Ok(());
        }
        let owner = self.service.tenant_of(job).map_err(ApiError::from)?;
        if owner != tenant {
            return Err(ServiceError::UnknownJob(job).into());
        }
        Ok(())
    }

    /// `GET /v1/graphs`: the registered (named) graphs.
    pub fn graphs(&self) -> Vec<GraphInfo> {
        self.graphs.list()
    }

    /// `PUT /v1/graphs/{name}`: registers `name` for the snapshot or edge
    /// list at `path`, loading it the way [`Api::submit`] loads a path.
    pub fn register_graph(&self, name: &str, path: &str) -> Result<GraphInfo, ApiError> {
        self.graphs.register(name, path)
    }

    /// `GET /metrics`: the Prometheus text exposition of the service's
    /// counters, gauges and latency quantiles plus the graph kernels' perf
    /// counters.
    pub fn metrics_prometheus(&self) -> String {
        crate::exposition::render(
            &self.service.metrics(),
            &qcm_graph::neighborhoods::perf::snapshot(),
        )
    }

    /// The raw metrics snapshot, for embedders that read counters without
    /// parsing the exposition.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.service.metrics()
    }

    /// Graceful shutdown: drains admitted jobs, joins the worker pool.
    pub fn shutdown(self) {
        self.service.shutdown();
    }

    fn view(&self, job: JobId, result: JobResult) -> JobView {
        let status = self
            .service
            .status(job)
            .map(|s| s.to_string())
            .unwrap_or_else(|_| JobStatus::Completed.to_string());
        JobView {
            job: job.raw(),
            status,
            tenant: result.tenant.clone(),
            outcome: Some(
                match result.outcome() {
                    RunOutcome::Complete => "complete",
                    RunOutcome::Cancelled => "cancelled",
                    RunOutcome::DeadlineExceeded => "deadline_exceeded",
                    RunOutcome::Faulted => "faulted",
                }
                .to_string(),
            ),
            cache_hit: Some(result.cache_hit),
            num_maximal: Some(result.maximal().len()),
            raw_reported: Some(result.answer.raw_reported),
            mining_ms: Some(result.answer.mining_time.as_millis() as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_graph::io;

    fn with_graph_file<R>(tag: &str, f: impl FnOnce(&str) -> R) -> R {
        let dir = std::env::temp_dir().join(format!("qcm_http_api_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.txt");
        let dataset = qcm_gen::datasets::tiny_test_dataset(9);
        io::write_edge_list_file(&dataset.graph, &path).unwrap();
        let result = f(&path.to_string_lossy());
        std::fs::remove_dir_all(&dir).ok();
        result
    }

    fn submit_request(path: &str) -> SubmitRequest {
        SubmitRequest::new(path, 0.8, 6)
    }

    #[test]
    fn submit_then_long_poll_round_trip_with_cache_hit_on_repeat() {
        with_graph_file("roundtrip", |path| {
            let api = Api::start(ServiceConfig::default(), AuthConfig::open());
            let cold = api.submit(&submit_request(path), "alpha").unwrap();
            assert!(!cold.cache_hit);
            let view = api.job(cold.job, Duration::from_secs(60), "alpha").unwrap();
            assert_eq!(view.status, "completed");
            assert_eq!(view.outcome.as_deref(), Some("complete"));
            assert_eq!(view.tenant, "alpha");
            assert!(view.num_maximal.unwrap() > 0);

            let hot = api.submit(&submit_request(path), "beta").unwrap();
            assert!(hot.cache_hit, "repeat query must be served from cache");
            assert_eq!(hot.status, "completed");
            assert_eq!(
                api.graph_loads(),
                1,
                "repeat submit must not reload the file"
            );
            api.shutdown();
        });
    }

    #[test]
    fn zero_wait_is_a_status_probe_and_unknown_jobs_are_typed() {
        with_graph_file("probe", |path| {
            let api = Api::start(
                ServiceConfig {
                    start_paused: true,
                    ..ServiceConfig::default()
                },
                AuthConfig::open(),
            );
            let submitted = api.submit(&submit_request(path), "t").unwrap();
            let view = api.job(submitted.job, Duration::ZERO, "t").unwrap();
            assert_eq!(view.status, "queued");
            assert_eq!(view.outcome, None);
            let err = api.job(999, Duration::ZERO, "t").unwrap_err();
            assert_eq!(err.code, ErrorCode::UnknownJob);
            let cancelled = api.cancel(submitted.job, "t").unwrap();
            assert_eq!(cancelled.status, "cancelled");
            let view = api.job(submitted.job, Duration::ZERO, "t").unwrap();
            assert_eq!(view.status, "cancelled");
            api.shutdown();
        });
    }

    #[test]
    fn auth_modes_resolve_tenants_and_reject_bad_tokens() {
        let open = AuthConfig::open();
        assert_eq!(open.tenant(None, None).unwrap(), "default");
        assert_eq!(open.tenant(None, Some("lab")).unwrap(), "lab");

        let auth = AuthConfig::with_tokens([("sekrit".to_string(), "alpha".to_string())]);
        assert!(auth.requires_token());
        assert_eq!(auth.tenant(Some("sekrit"), None).unwrap(), "alpha");
        assert_eq!(
            auth.tenant(None, None).unwrap_err().code,
            ErrorCode::Unauthorized
        );
        assert_eq!(
            auth.tenant(Some("wrong"), None).unwrap_err().code,
            ErrorCode::Unauthorized
        );
    }

    #[test]
    fn job_reads_and_cancels_are_tenant_scoped_under_token_auth() {
        with_graph_file("owner", |path| {
            let api = Api::start(
                ServiceConfig {
                    start_paused: true,
                    cache_capacity: 0,
                    ..ServiceConfig::default()
                },
                AuthConfig::with_tokens([
                    ("tok-a".to_string(), "alpha".to_string()),
                    ("tok-b".to_string(), "beta".to_string()),
                ]),
            );
            let submitted = api.submit(&submit_request(path), "alpha").unwrap();

            // Another authenticated tenant sees (and can cancel) nothing —
            // and the error is indistinguishable from a never-issued id.
            let err = api.job(submitted.job, Duration::ZERO, "beta").unwrap_err();
            assert_eq!(err.code, ErrorCode::UnknownJob);
            assert_eq!(err.message, format!("unknown job {}", submitted.job));
            let err = api.cancel(submitted.job, "beta").unwrap_err();
            assert_eq!(err.code, ErrorCode::UnknownJob);

            // The owner still has full access.
            let view = api.job(submitted.job, Duration::ZERO, "alpha").unwrap();
            assert_eq!(view.status, "queued");
            let cancelled = api.cancel(submitted.job, "alpha").unwrap();
            assert_eq!(cancelled.status, "cancelled");
            api.shutdown();
        });
    }

    #[test]
    fn metrics_exposition_is_wellformed() {
        with_graph_file("prom", |path| {
            let api = Api::start(ServiceConfig::default(), AuthConfig::open());
            api.submit(&submit_request(path), "t").unwrap();
            api.job(1, Duration::from_secs(60), "t").unwrap();
            let text = api.metrics_prometheus();
            qcm_obs::prometheus::check_text(&text).expect("exposition must be well-formed");
            assert!(text.contains("qcm_service_jobs_mined_total"));
            api.shutdown();
        });
    }
}
