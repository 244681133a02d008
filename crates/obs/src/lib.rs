//! `qcm-obs`: the workspace observability layer.
//!
//! One crate unifies what used to be four disjoint telemetry surfaces
//! (`EngineMetrics`, `ServiceMetrics`, the striped graph perf counters and
//! the transport fault-sim event log):
//!
//! * **[Spans](mod@span)** — hierarchical `run → kcore/decompose/task →
//!   mine_phase → steal/pull/spill` intervals recorded into bounded
//!   per-thread single-writer buffers with an exact drop counter. Enabled
//!   per `Session` via `Session::builder().tracing(TraceConfig)`; with no
//!   recording active every span site costs one relaxed load.
//! * **[Registry](registry)** — typed [`Counter`] / [`Gauge`] /
//!   [`Histogram`] handles with labels; the metric structs of the engine,
//!   service and graph crates publish their snapshots into it.
//! * **[Exporters](chrome)** — Chrome trace-event JSON
//!   ([`chrome::render`], loadable in Perfetto with one lane per simulated
//!   machine) and Prometheus text exposition ([`prometheus::render`] with
//!   a CI-grade well-formedness checker, [`prometheus::check_text`]).
//! * **[Clock facade](clock)** — the single `Instant` source for the
//!   mining crates (`qcm-lint` bans `std::time::Instant` elsewhere).
//!
//! Like the rest of the workspace this crate is hand-rolled over the
//! `qcm-sync` facade — no external dependencies.

pub mod chrome;
pub mod clock;
pub mod json;
pub mod prometheus;
pub mod registry;
pub mod span;
pub mod summary;

pub use json::Json;
pub use registry::{Counter, Gauge, Histogram, MetricKind, Registry};
pub use span::{
    finish_recording, recording_enabled, set_lane, span, span_with, start_recording, SpanEvent,
    SpanGuard, SpanKind, Trace, TraceConfig,
};
pub use summary::self_time_by_kind;
