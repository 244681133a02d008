//! `qcm-http`: the versioned HTTP/1.1 JSON surface of the mining service.
//!
//! This crate is the wire surface of `qcm serve --listen`: a small,
//! dependency-free HTTP service with explicit load-shedding semantics:
//!
//! - `POST /v1/jobs` — submit a mining job (tenant auth + priority);
//!   answers `202` with the job id, or `429` + `Retry-After` when admission
//!   control sheds the request.
//! - `GET /v1/jobs/{id}?wait_ms=` — job status with bounded long-polling.
//! - `DELETE /v1/jobs/{id}` — cancel.
//! - `GET /v1/graphs` / `PUT /v1/graphs/{name}` — the named graph registry,
//!   backed by the binary snapshot loader with a (path, mtime, len) cache.
//! - `GET /metrics` — Prometheus text exposition; `GET /healthz` — liveness.
//!
//! Everything is hand-rolled on `std::net` (this crate and `qcm-bench` are
//! the only crates allowed to touch it — enforced by `qcm-lint`): a total,
//! limit-enforcing request parser ([`parser`]), a routing table over the
//! shared DTOs of `qcm_core::api` ([`router`], [`wire`]), and a
//! thread-per-connection listener over `qcm-sync` with graceful shutdown
//! ([`server`]).
//!
//! ```no_run
//! use qcm_http::{Api, AuthConfig, Server, ServerConfig};
//! use qcm_service::ServiceConfig;
//! use qcm_sync::Arc;
//!
//! let api = Arc::new(Api::start(ServiceConfig::default(), AuthConfig::open()));
//! let server = Server::start(api, ServerConfig::default()).unwrap();
//! println!("listening on http://{}", server.local_addr());
//! server.shutdown();
//! ```

pub mod api;
mod exposition;
pub mod parser;
pub mod registry;
pub mod response;
pub mod router;
pub mod server;
pub mod wire;

pub use api::{Api, AuthConfig};
pub use parser::{Head, Method, ParseError};
pub use registry::{GraphRegistry, SharedRegistry};
pub use response::Response;
pub use server::{Server, ServerConfig};
