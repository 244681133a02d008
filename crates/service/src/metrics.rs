//! Service observability: counters, gauges and job-latency percentiles.

use qcm_sync::atomic::{AtomicU64, Ordering};
use qcm_sync::Mutex;
use std::time::Duration;

/// How many recent job latencies the percentile window keeps. A power of two
/// around "a few minutes of heavy traffic"; beyond it the window slides.
const LATENCY_WINDOW: usize = 4096;

/// Shared, lock-free-where-possible counters of a [`crate::MiningService`].
///
/// All counters are monotone; gauges (queue depth, in-flight, cache size) are
/// read from the live service state at snapshot time instead of being
/// tracked here, so they can never drift.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Jobs accepted by admission control (including cache hits).
    pub submitted: AtomicU64,
    /// Submits rejected by admission control.
    pub rejected: AtomicU64,
    /// Jobs that reached a terminal state with a result.
    pub completed: AtomicU64,
    /// Jobs cancelled (before start or mid-run).
    pub cancelled: AtomicU64,
    /// Jobs whose run failed inside the engine.
    pub failed: AtomicU64,
    /// Submits answered from the result cache without mining.
    pub cache_hits: AtomicU64,
    /// Submits that had to mine (no cached answer).
    pub cache_misses: AtomicU64,
    /// Mining runs actually executed by the worker pool.
    pub jobs_mined: AtomicU64,
    /// Sliding window of recent job latencies (submit → terminal state), in
    /// microseconds.
    latencies: Mutex<LatencyWindow>,
}

#[derive(Debug, Default)]
struct LatencyWindow {
    samples: Vec<u64>,
    /// Next overwrite position once the window is full (ring buffer).
    cursor: usize,
    /// Every latency ever recorded, including ones the ring has since
    /// overwritten — the *true* sample count the percentiles are a window
    /// over.
    total: u64,
}

impl ServiceMetrics {
    /// Records one job latency (submission to terminal state).
    pub fn record_latency(&self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        let mut window = self.latencies.lock();
        window.total += 1;
        if window.samples.len() < LATENCY_WINDOW {
            window.samples.push(micros);
        } else {
            let cursor = window.cursor;
            window.samples[cursor] = micros;
            window.cursor = (cursor + 1) % LATENCY_WINDOW;
        }
    }

    /// `(recorded, dropped)` latency sample counts: how many latencies were
    /// ever recorded, and how many of those the sliding window has already
    /// overwritten. `dropped > 0` means the percentiles describe only the
    /// most recent `LATENCY_WINDOW` (4096) jobs, not the whole run.
    pub fn latency_sample_counts(&self) -> (u64, u64) {
        let window = self.latencies.lock();
        let kept = window.samples.len() as u64;
        (window.total, window.total.saturating_sub(kept))
    }

    /// The (p50, p99) job latencies over the recent window, or zeros when no
    /// job has finished yet.
    ///
    /// Uses `select_nth_unstable` per percentile instead of fully sorting the
    /// window copy: `O(n)` rather than `O(n log n)` per metrics poll.
    pub fn latency_percentiles(&self) -> (Duration, Duration) {
        let mut samples = {
            let window = self.latencies.lock();
            window.samples.clone()
        };
        if samples.is_empty() {
            return (Duration::ZERO, Duration::ZERO);
        }
        let mut pick = |q_num: usize, q_den: usize| {
            // Nearest-rank percentile: index ⌈q·n⌉ − 1.
            let rank = (samples.len() * q_num).div_ceil(q_den).saturating_sub(1);
            let (_, &mut v, _) = samples.select_nth_unstable(rank);
            Duration::from_micros(v)
        };
        (pick(50, 100), pick(99, 100))
    }
}

/// A point-in-time view of the service, returned by
/// [`crate::MiningService::metrics`].
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Jobs currently being mined.
    pub in_flight: usize,
    /// Live answers in the result cache.
    pub cache_entries: usize,
    /// Jobs accepted by admission control (including cache hits).
    pub submitted: u64,
    /// Submits rejected by admission control.
    pub rejected: u64,
    /// Jobs that reached a terminal state with a result.
    pub completed: u64,
    /// Jobs cancelled (before start or mid-run).
    pub cancelled: u64,
    /// Jobs whose run failed inside the engine.
    pub failed: u64,
    /// Submits answered from the result cache without mining.
    pub cache_hits: u64,
    /// Submits that had to mine.
    pub cache_misses: u64,
    /// Mining runs actually executed.
    pub jobs_mined: u64,
    /// Median job latency (submit → terminal) over the recent window.
    pub p50_latency: Duration,
    /// 99th-percentile job latency over the recent window.
    pub p99_latency: Duration,
    /// Every latency ever recorded (the true sample count; the percentile
    /// window holds at most the most recent 4096 of these).
    pub latency_samples: u64,
    /// Samples the sliding window has overwritten. Non-zero means the
    /// percentiles cover a suffix of the run, not all of it.
    pub latency_samples_dropped: u64,
}

impl MetricsSnapshot {
    /// Fraction of admitted submits served from the cache, in `[0, 1]`
    /// (`None` before any submit was admitted).
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / total as f64)
        }
    }
}

impl ServiceMetrics {
    pub(crate) fn snapshot(
        &self,
        queue_depth: usize,
        in_flight: usize,
        cache_entries: usize,
    ) -> MetricsSnapshot {
        let (p50, p99) = self.latency_percentiles();
        let (latency_samples, latency_samples_dropped) = self.latency_sample_counts();
        MetricsSnapshot {
            queue_depth,
            in_flight,
            cache_entries,
            // ordering: Relaxed — monitoring snapshot; counters may be mutually
            // skewed by in-flight updates, which dashboards tolerate.
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            jobs_mined: self.jobs_mined.load(Ordering::Relaxed),
            p50_latency: p50,
            p99_latency: p99,
            latency_samples,
            latency_samples_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_over_a_known_distribution() {
        let metrics = ServiceMetrics::default();
        assert_eq!(
            metrics.latency_percentiles(),
            (Duration::ZERO, Duration::ZERO)
        );
        // 1..=100 ms: p50 = 50 ms, p99 = 99 ms by nearest rank.
        for ms in 1..=100u64 {
            metrics.record_latency(Duration::from_millis(ms));
        }
        let (p50, p99) = metrics.latency_percentiles();
        assert_eq!(p50, Duration::from_millis(50));
        assert_eq!(p99, Duration::from_millis(99));
    }

    #[test]
    fn window_slides_once_full() {
        let metrics = ServiceMetrics::default();
        // Fill beyond the window with a low plateau, then overwrite the
        // oldest entries with a high plateau.
        for _ in 0..LATENCY_WINDOW {
            metrics.record_latency(Duration::from_micros(10));
        }
        for _ in 0..LATENCY_WINDOW / 2 {
            metrics.record_latency(Duration::from_micros(1_000_000));
        }
        let (p50, p99) = metrics.latency_percentiles();
        // Half the window is now the high plateau: the p99 must reflect it.
        assert_eq!(p99, Duration::from_secs(1));
        assert!(p50 <= Duration::from_secs(1));
    }

    #[test]
    fn wrap_reports_true_count_and_drops() {
        let metrics = ServiceMetrics::default();
        for _ in 0..LATENCY_WINDOW / 2 {
            metrics.record_latency(Duration::from_micros(1));
        }
        assert_eq!(
            metrics.latency_sample_counts(),
            (LATENCY_WINDOW as u64 / 2, 0),
            "no drops before the window fills"
        );
        for _ in 0..LATENCY_WINDOW {
            metrics.record_latency(Duration::from_micros(1));
        }
        let (total, dropped) = metrics.latency_sample_counts();
        assert_eq!(
            total,
            LATENCY_WINDOW as u64 * 3 / 2,
            "true count keeps growing"
        );
        assert_eq!(dropped, LATENCY_WINDOW as u64 / 2, "overwrites are drops");
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.latency_samples, total);
        assert_eq!(snap.latency_samples_dropped, dropped);
    }

    #[test]
    fn snapshot_copies_counters_and_gauges() {
        let metrics = ServiceMetrics::default();
        metrics.submitted.store(5, Ordering::Relaxed);
        metrics.cache_hits.store(2, Ordering::Relaxed);
        metrics.cache_misses.store(3, Ordering::Relaxed);
        let snap = metrics.snapshot(7, 1, 4);
        assert_eq!(snap.queue_depth, 7);
        assert_eq!(snap.in_flight, 1);
        assert_eq!(snap.cache_entries, 4);
        assert_eq!(snap.submitted, 5);
        assert_eq!(snap.cache_hit_rate(), Some(0.4));
    }

    #[test]
    fn hit_rate_is_none_without_traffic() {
        let snap = ServiceMetrics::default().snapshot(0, 0, 0);
        assert_eq!(snap.cache_hit_rate(), None);
    }
}
