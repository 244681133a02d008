//! `GET /metrics`: the Prometheus text exposition (format 0.0.4) of the
//! service's [`MetricsSnapshot`] and the graph kernels' [`PerfSnapshot`].
//!
//! Every series is one row of [`rows`]: its name, help text, label set and
//! the snapshot field it reads. The route is the only reader of these names,
//! so they live here and nowhere else. Rows are in name order, the order
//! scrapers and the golden test expect; a family's first row writes its
//! `# HELP` / `# TYPE` header.

use qcm_graph::neighborhoods::perf::PerfSnapshot;
use qcm_service::MetricsSnapshot;
use std::fmt::Write as _;

/// A sample's value, which also gives its family's `# TYPE`.
enum Value {
    /// A monotone total, printed exactly.
    Counter(u64),
    /// A point-in-time value.
    Gauge(f64),
}

/// `(name, help, labels, value)`: one sample line.
type Row = (&'static str, &'static str, &'static str, Value);

const LATENCY_HELP: &str = "Job latency (submit to terminal state) over the recent window.";

fn rows(s: &MetricsSnapshot, p: &PerfSnapshot) -> [Row; 23] {
    use Value::{Counter, Gauge};
    [
        (
            "qcm_graph_allocations_avoided_total",
            "Scratch-frame requests served from a pool.",
            "",
            Counter(p.allocations_avoided),
        ),
        (
            "qcm_graph_bitset_hits_total",
            "Edge queries served by a bitset row.",
            "",
            Counter(p.bitset_hits),
        ),
        (
            "qcm_graph_edge_queries_total",
            "Edge-membership probes.",
            "",
            Counter(p.edge_queries),
        ),
        (
            "qcm_graph_intersections_total",
            "Neighborhood intersections performed.",
            "",
            Counter(p.intersections),
        ),
        (
            "qcm_graph_scratch_bytes_peak",
            "High-water mark of pooled scratch bytes.",
            "",
            Gauge(p.scratch_bytes_peak as f64),
        ),
        (
            "qcm_graph_scratch_fresh_allocs_total",
            "Scratch-frame requests that hit the heap.",
            "",
            Counter(p.scratch_fresh_allocs),
        ),
        (
            "qcm_graph_steal_failures_total",
            "Steal sweeps that found nothing.",
            "",
            Counter(p.steal_failures),
        ),
        (
            "qcm_graph_steals_total",
            "Tasks moved between worker deques.",
            "",
            Counter(p.steals),
        ),
        (
            "qcm_service_cache_entries",
            "Live answers in the result cache.",
            "",
            Gauge(s.cache_entries as f64),
        ),
        (
            "qcm_service_cache_hits_total",
            "Submits answered from the result cache.",
            "",
            Counter(s.cache_hits),
        ),
        (
            "qcm_service_cache_misses_total",
            "Submits that had to mine.",
            "",
            Counter(s.cache_misses),
        ),
        (
            "qcm_service_cancelled_total",
            "Jobs cancelled before or during their run.",
            "",
            Counter(s.cancelled),
        ),
        (
            "qcm_service_completed_total",
            "Jobs that reached a terminal state with a result.",
            "",
            Counter(s.completed),
        ),
        (
            "qcm_service_failed_total",
            "Jobs whose run failed inside the engine.",
            "",
            Counter(s.failed),
        ),
        (
            "qcm_service_job_latency_seconds",
            LATENCY_HELP,
            "{quantile=\"0.5\"}",
            Gauge(s.p50_latency.as_secs_f64()),
        ),
        (
            "qcm_service_job_latency_seconds",
            LATENCY_HELP,
            "{quantile=\"0.99\"}",
            Gauge(s.p99_latency.as_secs_f64()),
        ),
        (
            "qcm_service_jobs_in_flight",
            "Jobs currently being mined.",
            "",
            Gauge(s.in_flight as f64),
        ),
        (
            "qcm_service_jobs_mined_total",
            "Mining runs executed by the worker pool.",
            "",
            Counter(s.jobs_mined),
        ),
        (
            "qcm_service_latency_samples_dropped_total",
            "Latency samples overwritten by the sliding percentile window.",
            "",
            Counter(s.latency_samples_dropped),
        ),
        (
            "qcm_service_latency_samples_total",
            "Job latencies ever recorded.",
            "",
            Counter(s.latency_samples),
        ),
        (
            "qcm_service_queue_depth",
            "Jobs waiting in the queue.",
            "",
            Gauge(s.queue_depth as f64),
        ),
        (
            "qcm_service_rejected_total",
            "Submits rejected by admission control.",
            "",
            Counter(s.rejected),
        ),
        (
            "qcm_service_submitted_total",
            "Jobs accepted by admission control.",
            "",
            Counter(s.submitted),
        ),
    ]
}

/// Renders both snapshots as Prometheus text exposition.
pub(crate) fn render(service: &MetricsSnapshot, perf: &PerfSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let mut family = "";
    for (name, help, labels, value) in rows(service, perf) {
        if name != family {
            let kind = match value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) => "gauge",
            };
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
            family = name;
        }
        // A whole gauge below 9·10¹⁵ prints without a fraction; any other
        // in `f64`'s shortest round-trip form.
        let _ = match value {
            Value::Counter(v) => writeln!(out, "{name}{labels} {v}"),
            Value::Gauge(v) if v == v.trunc() && v.abs() < 9e15 => {
                writeln!(out, "{name}{labels} {}", v as i64)
            }
            Value::Gauge(v) => writeln!(out, "{name}{labels} {v}"),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The exposition of [`snapshots`], byte for byte: scrapers and
    /// dashboards key on these names, help texts and number formats.
    const GOLDEN: &str = r#"# HELP qcm_graph_allocations_avoided_total Scratch-frame requests served from a pool.
# TYPE qcm_graph_allocations_avoided_total counter
qcm_graph_allocations_avoided_total 1024
# HELP qcm_graph_bitset_hits_total Edge queries served by a bitset row.
# TYPE qcm_graph_bitset_hits_total counter
qcm_graph_bitset_hits_total 6000000001
# HELP qcm_graph_edge_queries_total Edge-membership probes.
# TYPE qcm_graph_edge_queries_total counter
qcm_graph_edge_queries_total 9007199254740993
# HELP qcm_graph_intersections_total Neighborhood intersections performed.
# TYPE qcm_graph_intersections_total counter
qcm_graph_intersections_total 77
# HELP qcm_graph_scratch_bytes_peak High-water mark of pooled scratch bytes.
# TYPE qcm_graph_scratch_bytes_peak gauge
qcm_graph_scratch_bytes_peak 65536
# HELP qcm_graph_scratch_fresh_allocs_total Scratch-frame requests that hit the heap.
# TYPE qcm_graph_scratch_fresh_allocs_total counter
qcm_graph_scratch_fresh_allocs_total 12
# HELP qcm_graph_steal_failures_total Steal sweeps that found nothing.
# TYPE qcm_graph_steal_failures_total counter
qcm_graph_steal_failures_total 14
# HELP qcm_graph_steals_total Tasks moved between worker deques.
# TYPE qcm_graph_steals_total counter
qcm_graph_steals_total 13
# HELP qcm_service_cache_entries Live answers in the result cache.
# TYPE qcm_service_cache_entries gauge
qcm_service_cache_entries 17
# HELP qcm_service_cache_hits_total Submits answered from the result cache.
# TYPE qcm_service_cache_hits_total counter
qcm_service_cache_hits_total 8
# HELP qcm_service_cache_misses_total Submits that had to mine.
# TYPE qcm_service_cache_misses_total counter
qcm_service_cache_misses_total 9
# HELP qcm_service_cancelled_total Jobs cancelled before or during their run.
# TYPE qcm_service_cancelled_total counter
qcm_service_cancelled_total 6
# HELP qcm_service_completed_total Jobs that reached a terminal state with a result.
# TYPE qcm_service_completed_total counter
qcm_service_completed_total 4
# HELP qcm_service_failed_total Jobs whose run failed inside the engine.
# TYPE qcm_service_failed_total counter
qcm_service_failed_total 7
# HELP qcm_service_job_latency_seconds Job latency (submit to terminal state) over the recent window.
# TYPE qcm_service_job_latency_seconds gauge
qcm_service_job_latency_seconds{quantile="0.5"} 0.008
qcm_service_job_latency_seconds{quantile="0.99"} 1.234567
# HELP qcm_service_jobs_in_flight Jobs currently being mined.
# TYPE qcm_service_jobs_in_flight gauge
qcm_service_jobs_in_flight 1
# HELP qcm_service_jobs_mined_total Mining runs executed by the worker pool.
# TYPE qcm_service_jobs_mined_total counter
qcm_service_jobs_mined_total 10
# HELP qcm_service_latency_samples_dropped_total Latency samples overwritten by the sliding percentile window.
# TYPE qcm_service_latency_samples_dropped_total counter
qcm_service_latency_samples_dropped_total 11
# HELP qcm_service_latency_samples_total Job latencies ever recorded.
# TYPE qcm_service_latency_samples_total counter
qcm_service_latency_samples_total 1
# HELP qcm_service_queue_depth Jobs waiting in the queue.
# TYPE qcm_service_queue_depth gauge
qcm_service_queue_depth 2
# HELP qcm_service_rejected_total Submits rejected by admission control.
# TYPE qcm_service_rejected_total counter
qcm_service_rejected_total 3
# HELP qcm_service_submitted_total Jobs accepted by admission control.
# TYPE qcm_service_submitted_total counter
qcm_service_submitted_total 5
"#;

    /// Every field distinct, a latency off whole seconds (the gauge's float
    /// path) and a counter past 2⁵³, which an `f64` would round.
    fn snapshots() -> (MetricsSnapshot, PerfSnapshot) {
        let service = MetricsSnapshot {
            queue_depth: 2,
            in_flight: 1,
            cache_entries: 17,
            submitted: 5,
            rejected: 3,
            completed: 4,
            cancelled: 6,
            failed: 7,
            cache_hits: 8,
            cache_misses: 9,
            jobs_mined: 10,
            p50_latency: Duration::from_millis(8),
            p99_latency: Duration::from_micros(1_234_567),
            latency_samples: 1,
            latency_samples_dropped: 11,
        };
        let perf = PerfSnapshot {
            edge_queries: (1 << 53) + 1,
            bitset_hits: 6_000_000_001,
            intersections: 77,
            allocations_avoided: 1_024,
            scratch_fresh_allocs: 12,
            scratch_bytes_peak: 65_536,
            steals: 13,
            steal_failures: 14,
        };
        (service, perf)
    }

    #[test]
    fn exposition_matches_the_golden_text() {
        let (service, perf) = snapshots();
        let text = render(&service, &perf);
        assert_eq!(text, GOLDEN);
        qcm_obs::prometheus::check_text(&text).expect("exposition must be well-formed");
        assert_eq!(text.matches("# TYPE ").count(), 22, "families");
        assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), 23);
        for line in [
            "qcm_service_submitted_total 5",
            "qcm_service_queue_depth 2",
            "qcm_service_latency_samples_total 1",
            "qcm_service_job_latency_seconds{quantile=\"0.5\"} 0.008",
            "qcm_graph_edge_queries_total 9007199254740993",
        ] {
            assert!(text.lines().any(|l| l == line), "{line}");
        }
    }
}
