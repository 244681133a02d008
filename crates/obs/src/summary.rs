//! Per-phase self-time summaries over a recorded trace.
//!
//! *Self time* of a span is its duration minus the durations of its direct
//! children (spans of the same thread nested inside it), so summing self
//! times per [`SpanKind`] attributes every traced microsecond to exactly
//! one phase. The bench suite attaches this summary to each BENCH row.

use crate::span::{SpanEvent, SpanKind, Trace};
use std::collections::BTreeMap;

/// Total self time per span kind, in µs, keyed by [`SpanKind::as_str`].
/// Kinds with no spans are absent.
pub fn self_time_by_kind(trace: &Trace) -> BTreeMap<&'static str, u64> {
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut tids: Vec<u32> = trace.spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let mut spans: Vec<&SpanEvent> = trace.spans.iter().filter(|s| s.tid == tid).collect();
        // Parents sort before their children, also when the two start and
        // end in the same µs.
        spans.sort_by_key(|s| s.nesting_order());
        // Containment stack: (end_us, kind, dur_us, direct-child time).
        let mut stack: Vec<(u64, SpanKind, u64, u64)> = Vec::new();
        let close = |stack: &mut Vec<(u64, SpanKind, u64, u64)>,
                     totals: &mut BTreeMap<&'static str, u64>| {
            let (_, kind, dur, child) = stack.pop().expect("caller checks non-empty");
            *totals.entry(kind.as_str()).or_default() += dur.saturating_sub(child);
        };
        for span in spans {
            while stack.last().is_some_and(|&(end, ..)| end <= span.start_us) {
                close(&mut stack, &mut totals);
            }
            if let Some(top) = stack.last_mut() {
                // Direct child: grandchildren are subtracted inside the
                // child's own frame, not here.
                top.3 += span.dur_us;
            }
            stack.push((span.end_us(), span.kind, span.dur_us, 0));
        }
        while !stack.is_empty() {
            close(&mut stack, &mut totals);
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, start_us: u64, dur_us: u64, tid: u32) -> SpanEvent {
        SpanEvent {
            kind,
            start_us,
            dur_us,
            lane: 0,
            tid,
            arg: 0,
            seq: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0, 100) ⊃ task [10, 60) ⊃ mine_phase [20, 50); a second
        // thread contributes a flat steal [0, 5).
        let trace = Trace {
            spans: vec![
                ev(SpanKind::Run, 0, 100, 0),
                ev(SpanKind::Task, 10, 50, 0),
                ev(SpanKind::MinePhase, 20, 30, 0),
                ev(SpanKind::Steal, 0, 5, 1),
            ],
            dropped: 0,
        };
        let totals = self_time_by_kind(&trace);
        assert_eq!(
            totals["run"], 50,
            "100 − task(50); grandchild not double-counted"
        );
        assert_eq!(totals["task"], 20, "50 − mine_phase(30)");
        assert_eq!(totals["mine_phase"], 30);
        assert_eq!(totals["steal"], 5);
        let attributed: u64 = totals.values().sum();
        assert_eq!(
            attributed, 105,
            "every traced µs lands in exactly one phase"
        );
    }

    #[test]
    fn a_child_that_ties_its_parent_gets_the_self_time() {
        // A task and its mine phase opened and closed in the same µs, listed
        // as recorded: the child closes, and is recorded, first.
        let parent = SpanEvent {
            seq: 7,
            ..ev(SpanKind::Task, 10, 30, 0)
        };
        let child = SpanEvent {
            seq: 8,
            ..ev(SpanKind::MinePhase, 10, 30, 0)
        };
        let trace = Trace {
            spans: vec![child, parent],
            dropped: 0,
        };
        let totals = self_time_by_kind(&trace);
        assert_eq!(totals["mine_phase"], 30);
        assert_eq!(totals["task"], 0);
    }

    #[test]
    fn siblings_do_not_nest() {
        // Two back-to-back tasks under one run; the boundary task starting
        // exactly at the first one's end must not count as its child.
        let trace = Trace {
            spans: vec![
                ev(SpanKind::Run, 0, 100, 0),
                ev(SpanKind::Task, 0, 40, 0),
                ev(SpanKind::Task, 40, 40, 0),
            ],
            dropped: 0,
        };
        let totals = self_time_by_kind(&trace);
        assert_eq!(totals["task"], 80);
        assert_eq!(totals["run"], 20);
    }
}
