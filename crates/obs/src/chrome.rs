//! Chrome trace-event JSON exporter.
//!
//! Renders a [`Trace`] as the `traceEvents` JSON consumed by Perfetto and
//! `about://tracing`: one complete (`"ph":"X"`) event per span, with the
//! simulated machine as the process lane (`pid`) and the recording-local
//! thread id as `tid`, plus metadata events naming each machine lane. The
//! output is plain ASCII built by hand (span names are fixed identifiers,
//! values are integers), so no JSON library is needed to *write* it; tests
//! parse it back with the bench suite's hand-rolled `json` module.

use crate::span::Trace;
use std::fmt::Write as _;

/// Renders the trace as a Chrome trace-event JSON document.
pub fn render(trace: &Trace) -> String {
    let mut out = String::with_capacity(64 + trace.spans.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    // Name each machine lane once so Perfetto shows "machine N" headers.
    let mut lanes: Vec<u32> = trace.spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in lanes {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{lane},\"tid\":0,\
             \"args\":{{\"name\":\"machine {lane}\"}}}}"
        );
    }
    for span in &trace.spans {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\
             \"tid\":{},\"args\":{{\"arg\":{}}}}}",
            span.kind.as_str(),
            span.start_us,
            span.dur_us,
            span.lane,
            span.tid,
            span.arg
        );
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{}}}}}",
        trace.dropped
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanEvent, SpanKind};

    #[test]
    fn renders_lanes_and_complete_events() {
        let trace = Trace {
            spans: vec![
                SpanEvent {
                    kind: SpanKind::Run,
                    start_us: 0,
                    dur_us: 100,
                    lane: 0,
                    tid: 0,
                    arg: 0,
                    seq: 0,
                },
                SpanEvent {
                    kind: SpanKind::Task,
                    start_us: 10,
                    dur_us: 20,
                    lane: 1,
                    tid: 2,
                    arg: 9,
                    seq: 1,
                },
            ],
            dropped: 0,
        };
        let text = render(&trace);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"name\":\"machine 1\""));
        assert!(text.contains(
            "{\"name\":\"task\",\"ph\":\"X\",\"ts\":10,\"dur\":20,\"pid\":1,\
             \"tid\":2,\"args\":{\"arg\":9}}"
        ));
        assert!(text.ends_with("\"otherData\":{\"dropped_events\":0}}"));
    }
}
