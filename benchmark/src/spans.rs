//! The harness's own spans: one per call into a layer's public functions.
//!
//! Spans live in memory while the benchmark runs and are written out as one
//! Chrome trace-event file at the end of a traced run. A child process
//! (one mining round, one server) records its spans the same way and hands
//! them to the parent as JSON, which files them under the child's lane.

use qcm_obs::json::{object, Json};
use std::fmt::Write as _;
use std::time::Instant;

/// One closed interval around a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `graph.load`.
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Spans of one request (one round, one job) share this id.
    pub request: u64,
    /// Chrome `pid`: 0 for the harness, one lane per child process.
    pub lane: u32,
}

/// Summed duration of the spans of `spans` called `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us as f64 / 1e6)
        .sum()
}

/// Append-only span store with a stack of open spans.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span under the innermost open one; close it with [`end`].
    ///
    /// [`end`]: Recorder::end
    pub fn begin(&mut self, name: &str, request: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            dur_us: 0,
            parent: self.open.last().copied(),
            request,
            lane: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes `id` (and anything left open inside it).
    pub fn end(&mut self, id: usize) {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].dur_us = now - self.spans[top].start_us;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` under a span.
    pub fn scope<T>(&mut self, name: &str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        total_s(&self.spans, name)
    }

    /// Files a child's spans under `lane`, shifted so its time zero lands
    /// at `offset_us` on this recorder's clock.
    pub fn absorb(&mut self, child: &[Span], offset_us: u64, lane: u32) {
        let base = self.spans.len();
        for span in child {
            self.spans.push(Span {
                start_us: span.start_us + offset_us,
                parent: span.parent.map(|p| p + base),
                lane,
                ..span.clone()
            });
        }
    }

    /// Microseconds since this recorder's time zero.
    pub fn elapsed_us(&self) -> u64 {
        self.now_us()
    }

    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    object(vec![
                        ("name", Json::from(s.name.as_str())),
                        ("start_us", Json::from(s.start_us)),
                        ("dur_us", Json::from(s.dur_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        ("request", Json::from(s.request)),
                    ])
                })
                .collect(),
        )
    }

    /// Parses what [`to_json`](Recorder::to_json) wrote.
    pub fn spans_from_json(json: &Json) -> Vec<Span> {
        let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        json.as_array()
            .unwrap_or(&[])
            .iter()
            .map(|j| Span {
                name: j
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                start_us: num(j, "start_us"),
                dur_us: num(j, "dur_us"),
                parent: j.get("parent").and_then(Json::as_f64).map(|p| p as usize),
                request: num(j, "request"),
                lane: 0,
            })
            .collect()
    }

    /// The spans as a Chrome trace-event document (Perfetto,
    /// `about://tracing`): one complete event per span, `pid` = lane,
    /// `args` = request id and parent index.
    pub fn render_chrome(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 128);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":0,\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
                Json::from(s.name.as_str()).render(),
                s.start_us,
                s.dur_us,
                s.lane,
                s.request
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_round_trips() {
        let mut rec = Recorder::default();
        let outer = rec.begin("round", 7);
        rec.scope("graph.load", 7, || ());
        rec.end(outer);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[0].parent, None);
        let back = Recorder::spans_from_json(&rec.to_json());
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].name, "graph.load");
        assert_eq!(back[1].parent, Some(0));
        assert_eq!(back[1].request, 7);
    }

    #[test]
    fn absorb_rebases_parents_and_chrome_parses() {
        let mut child = Recorder::default();
        let outer = child.begin("round", 1);
        child.scope("session.run", 1, || ());
        child.end(outer);
        let mut parent = Recorder::default();
        parent.scope("setup", 0, || ());
        parent.absorb(child.spans(), 1_000, 3);
        assert_eq!(parent.spans()[2].parent, Some(1));
        assert_eq!(parent.spans()[2].lane, 3);
        assert!(parent.spans()[1].start_us >= 1_000);
        let doc = Json::parse(&parent.render_chrome()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 3);
    }
}
