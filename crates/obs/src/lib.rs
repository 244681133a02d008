//! `qcm-obs`: the workspace observability layer.
//!
//! One crate holds the workspace's spans, their exporters and its clock:
//!
//! * **[Spans](mod@span)** — hierarchical `run → kcore/decompose/task →
//!   mine_phase → steal/pull/spill` intervals recorded into bounded
//!   per-thread single-writer buffers with an exact drop counter. Enabled
//!   per `Session` via `Session::builder().tracing(TraceConfig)`; with no
//!   recording active every span site costs one relaxed load.
//! * **[Exporters](chrome)** — Chrome trace-event JSON
//!   ([`chrome::render`], loadable in Perfetto with one lane per simulated
//!   machine), and [`prometheus::check_text`], the well-formedness gate
//!   for the `GET /metrics` exposition `qcm-http` renders from the
//!   owners' snapshots.
//! * **[Clock facade](clock)** — the single `Instant` source for the
//!   mining crates (`qcm-lint` bans `std::time::Instant` elsewhere).
//!
//! Like the rest of the workspace this crate is hand-rolled over the
//! `qcm-sync` facade — no external dependencies.

pub mod chrome;
pub mod clock;
pub mod json;
pub mod prometheus;
pub mod span;
pub mod summary;

pub use json::Json;
pub use span::{
    finish_recording, recording_enabled, set_lane, span, span_with, start_recording, SpanEvent,
    SpanGuard, SpanKind, Trace, TraceConfig,
};
pub use summary::self_time_by_kind;
