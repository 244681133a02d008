//! The stable, transport-independent service API vocabulary.
//!
//! The mining service's versioned HTTP/1.1 JSON API (`qcm-http`) and the
//! `qcm` CLI must agree on one machine-readable error taxonomy and one set
//! of request/response shapes. That shared vocabulary lives here, *below*
//! the service and transport crates, so the `qcm` facade can re-export it
//! and every layer (CLI exit codes, HTTP statuses, JSON error bodies) maps
//! from the same table.
//!
//! Nothing in this module performs I/O or serialisation; the DTOs are plain
//! data the transports render with their own (hand-rolled, offline-safe)
//! JSON encoders.

use std::fmt;

/// Stable, machine-readable error codes of the mining service API.
///
/// Every service-level failure maps to exactly one code; the code string is
/// part of the public API and never changes meaning once released. The enum
/// is `#[non_exhaustive]`: new codes may appear in later releases, so
/// clients must treat unknown codes as a generic failure of the transport's
/// status class.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The request itself is malformed: unparseable body, unknown field
    /// value, invalid mining parameters.
    BadRequest,
    /// The request head (request line + headers) exceeds the transport's
    /// size limits.
    HeadTooLarge,
    /// The declared request body exceeds the transport's size limit.
    BodyTooLarge,
    /// Recognisable protocol the transport deliberately does not speak
    /// (unknown method, `Transfer-Encoding`, unknown HTTP version).
    Unsupported,
    /// Missing or unknown tenant auth token.
    Unauthorized,
    /// No such route/resource on the HTTP surface.
    NotFound,
    /// No job with the requested id (never submitted, or already evicted
    /// from the finished-job retention window).
    UnknownJob,
    /// No graph registered under the requested name / loadable from the
    /// requested path.
    UnknownGraph,
    /// Admission control shed the job: the global queue is full. Retry
    /// after backing off — the `Retry-After` the HTTP surface attaches is
    /// [`ErrorCode::retry_after_secs`].
    Overloaded,
    /// Admission control shed the job: this tenant is over its unfinished-
    /// job quota. Other tenants are unaffected.
    QuotaExceeded,
    /// The job was cancelled while still queued and therefore has no
    /// result.
    JobCancelled,
    /// The job's mining run failed inside the engine.
    JobFailed,
    /// The service is draining and no longer accepts submissions.
    ShuttingDown,
    /// An unexpected transport- or service-internal failure.
    Internal,
}

/// One row of the shared code table: `(code, string, HTTP status, CLI exit
/// code)`.
///
/// This is *the* mapping both wire surfaces use — the HTTP listener picks
/// column 3, the CLI picks column 4, and both emit column 2 in their JSON
/// error bodies — so the taxonomy cannot drift between transports.
pub const ERROR_CODE_TABLE: &[(ErrorCode, &str, u16, u8)] = &[
    (ErrorCode::BadRequest, "bad_request", 400, 2),
    (ErrorCode::HeadTooLarge, "head_too_large", 431, 2),
    (ErrorCode::BodyTooLarge, "body_too_large", 413, 2),
    (ErrorCode::Unsupported, "unsupported", 501, 2),
    (ErrorCode::Unauthorized, "unauthorized", 401, 2),
    (ErrorCode::NotFound, "not_found", 404, 1),
    (ErrorCode::UnknownJob, "unknown_job", 404, 1),
    (ErrorCode::UnknownGraph, "unknown_graph", 404, 1),
    (ErrorCode::Overloaded, "overloaded", 429, 3),
    (ErrorCode::QuotaExceeded, "quota_exceeded", 429, 3),
    (ErrorCode::JobCancelled, "job_cancelled", 409, 1),
    (ErrorCode::JobFailed, "job_failed", 500, 1),
    (ErrorCode::ShuttingDown, "shutting_down", 503, 3),
    (ErrorCode::Internal, "internal", 500, 1),
];

impl ErrorCode {
    fn row(self) -> &'static (ErrorCode, &'static str, u16, u8) {
        ERROR_CODE_TABLE
            .iter()
            .find(|(code, ..)| *code == self)
            .unwrap_or(&ERROR_CODE_TABLE[ERROR_CODE_TABLE.len() - 1])
    }

    /// The stable wire string (`"overloaded"`, `"unknown_job"`, …).
    pub fn as_str(self) -> &'static str {
        self.row().1
    }

    /// The HTTP status the versioned API answers with.
    pub fn http_status(self) -> u16 {
        self.row().2
    }

    /// The process exit code the CLI maps a terminal failure to. `2` is
    /// caller misconfiguration, `1` runtime failure, `3` "retry later"
    /// (overload / quota / shutdown) so scripts can distinguish shed load
    /// from hard errors.
    pub fn cli_exit_code(self) -> u8 {
        self.row().3
    }

    /// The back-off hint (seconds) attached as `Retry-After` to shed
    /// requests, `None` for codes that are not retryable-by-waiting.
    pub fn retry_after_secs(self) -> Option<u64> {
        match self {
            ErrorCode::Overloaded | ErrorCode::QuotaExceeded => Some(1),
            ErrorCode::ShuttingDown => Some(5),
            _ => None,
        }
    }

    /// Parses the stable wire string back into its code.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        ERROR_CODE_TABLE
            .iter()
            .find(|(_, name, ..)| *name == s)
            .map(|(code, ..)| *code)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A transport-independent API error: a stable code plus a human-readable
/// message. This is the `{"error":{"code":…,"message":…}}` body both wire
/// surfaces emit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// The stable machine-readable code.
    pub code: ErrorCode,
    /// Human-readable diagnostic (free-form, never parsed by clients).
    pub message: String,
}

impl ApiError {
    /// A new error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ApiError {
            code,
            message: message.into(),
        }
    }

    /// Shorthand for [`ErrorCode::BadRequest`].
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError::new(ErrorCode::BadRequest, message)
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

/// Job-submission request DTO (`POST /v1/jobs` body). Field names match the
/// JSON wire format one-to-one.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitRequest {
    /// Graph reference: a name registered via `PUT /v1/graphs/{name}`, or a
    /// server-local file path (edge list or `QCMGRPH` binary snapshot).
    pub graph: String,
    /// Minimum degree ratio γ.
    pub gamma: f64,
    /// Minimum quasi-clique size τ_size.
    pub min_size: usize,
    /// Scheduling priority: `"low"` / `"normal"` / `"high"`.
    pub priority: String,
    /// Optional per-job execution deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl SubmitRequest {
    /// A request with the default priority and no deadline.
    pub fn new(graph: impl Into<String>, gamma: f64, min_size: usize) -> Self {
        SubmitRequest {
            graph: graph.into(),
            gamma,
            min_size,
            priority: "normal".to_string(),
            deadline_ms: None,
        }
    }
}

/// Job-submission response DTO (`202 Accepted` body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitResponse {
    /// The issued job id.
    pub job: u64,
    /// Lifecycle state right after submission (`"queued"`, or `"completed"`
    /// for a cache hit).
    pub status: String,
    /// True when the answer was served from the result cache at submit.
    pub cache_hit: bool,
}

/// Job status / result DTO (the `GET /v1/jobs/{id}` body). Result fields
/// are `None` until the job reaches a terminal state with a result.
#[derive(Clone, Debug, PartialEq)]
pub struct JobView {
    /// The job id.
    pub job: u64,
    /// Lifecycle state (`"queued"`, `"running"`, `"completed"`,
    /// `"cancelled"`, `"failed"`).
    pub status: String,
    /// Tenant the job is accounted against.
    pub tenant: String,
    /// How the run ended (`"complete"`, `"cancelled"`,
    /// `"deadline_exceeded"`, `"faulted"`); `None` while non-terminal.
    pub outcome: Option<String>,
    /// True when the terminal answer was served from the result cache.
    pub cache_hit: Option<bool>,
    /// Number of maximal quasi-cliques in the answer.
    pub num_maximal: Option<usize>,
    /// Raw candidate reports of the run.
    pub raw_reported: Option<u64>,
    /// Wall-clock milliseconds of the original mining run.
    pub mining_ms: Option<u64>,
}

/// Registered-graph DTO (`GET /v1/graphs` rows; `PUT /v1/graphs/{name}`
/// response).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphInfo {
    /// Registry name (or the load path for path-loaded graphs).
    pub name: String,
    /// Vertex count.
    pub num_vertices: usize,
    /// Edge count.
    pub num_edges: usize,
    /// Stable content hash ([`crate::QueryKey`]'s graph component).
    pub fingerprint: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_code_roundtrips_through_the_table() {
        for &(code, name, status, exit) in ERROR_CODE_TABLE {
            assert_eq!(code.as_str(), name);
            assert_eq!(code.http_status(), status);
            assert_eq!(code.cli_exit_code(), exit);
            assert_eq!(ErrorCode::parse(name), Some(code));
        }
        assert_eq!(ErrorCode::parse("no_such_code"), None);
    }

    #[test]
    fn shed_codes_carry_retry_after() {
        assert!(ErrorCode::Overloaded.retry_after_secs().is_some());
        assert!(ErrorCode::QuotaExceeded.retry_after_secs().is_some());
        assert!(ErrorCode::ShuttingDown.retry_after_secs().is_some());
        assert_eq!(ErrorCode::BadRequest.retry_after_secs(), None);
        assert_eq!(ErrorCode::UnknownJob.retry_after_secs(), None);
    }

    #[test]
    fn shed_codes_map_to_429() {
        assert_eq!(ErrorCode::Overloaded.http_status(), 429);
        assert_eq!(ErrorCode::QuotaExceeded.http_status(), 429);
        assert_eq!(ErrorCode::Overloaded.cli_exit_code(), 3);
    }

    #[test]
    fn api_error_displays_code_and_message() {
        let err = ApiError::new(ErrorCode::UnknownJob, "job 7");
        assert_eq!(err.to_string(), "unknown_job: job 7");
        assert_eq!(ApiError::bad_request("x").code, ErrorCode::BadRequest);
    }

    #[test]
    fn submit_request_defaults() {
        let req = SubmitRequest::new("enron", 0.9, 10);
        assert_eq!(req.priority, "normal");
        assert_eq!(req.deadline_ms, None);
    }
}
