//! Engine metrics.
//!
//! The experiment harness regenerates the paper's tables and figures from
//! these records:
//!
//! * Table 2's Time / RAM / Disk columns — wall time, peak in-memory task
//!   bytes (plus cache), spill bytes;
//! * Table 6 — the split between cumulative *mining* time and cumulative
//!   *subgraph materialisation* time across all tasks;
//! * Figures 1–3 — the per-task time log ([`TaskTimeRecord`]).

use crate::task::TaskTimings;
use crate::termination::WorkDropped;
use qcm_core::RunOutcome;
use qcm_graph::VertexId;
use std::time::Duration;

/// One entry in the per-task time log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskTimeRecord {
    /// The vertex the root task was spawned from.
    pub root: VertexId,
    /// Size of the task's subgraph in vertices: `|V(t.g)|`, or
    /// `|S| + |ext(S)|` when that is larger.
    pub subgraph_size: usize,
    /// Wall-clock time spent processing the task (all its compute iterations).
    pub elapsed: Duration,
    /// Mining vs materialisation attribution of the task's mine phase.
    pub timings: TaskTimings,
}

/// The standard per-task wall-time percentile summary
/// ([`EngineMetrics::task_time_percentiles`]), surfaced by `qcm mine`'s
/// report output and the Prometheus exposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskTimePercentiles {
    /// Median per-task wall time.
    pub p50: Duration,
    /// 95th-percentile per-task wall time.
    pub p95: Duration,
    /// 99th-percentile per-task wall time.
    pub p99: Duration,
}

/// Aggregate metrics of one engine run.
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Number of root tasks spawned from vertices.
    pub tasks_spawned: u64,
    /// Total number of tasks processed (roots + decomposed subtasks).
    pub tasks_processed: u64,
    /// Number of subtasks created by task decomposition.
    pub tasks_decomposed: u64,
    /// Number of result rows emitted (before maximality post-processing).
    pub results_emitted: u64,
    /// Peak bytes held by in-memory tasks (queued + being processed).
    pub peak_task_bytes: u64,
    /// Spill bytes written (the "Disk" column of Table 2).
    pub spill_bytes_written: u64,
    /// Spill bytes read back.
    pub spill_bytes_read: u64,
    /// Peak bytes resident in spill storage.
    pub spill_peak_bytes: u64,
    /// Adjacency lists served from local partitions.
    pub local_reads: u64,
    /// Adjacency lists fetched from remote machines.
    pub remote_fetches: u64,
    /// Bytes moved between machines for vertex data.
    pub remote_bytes: u64,
    /// Remote reads served by the vertex cache.
    pub cache_hits: u64,
    /// Vertex-cache evictions.
    pub cache_evictions: u64,
    /// Pull attempts that timed out and were retried.
    pub pull_retries: u64,
    /// Pulls abandoned after exhausting their retry budget (each one
    /// abandons a task and forces a [`RunOutcome::Faulted`] label).
    pub pull_failures: u64,
    /// Messages accepted by the transport (all kinds).
    pub transport_messages: u64,
    /// Messages the transport dropped in flight (fault injection /
    /// simulated loss).
    pub transport_dropped: u64,
    /// The time the modelled cluster took (`None` for live runs): the
    /// instant of a simulated run's last event that acted, where a timer
    /// whose reply already came does not count. A simulated run's `elapsed`
    /// measures only the simulation itself.
    pub virtual_time: Option<Duration>,
    /// Tasks moved between machines, counted where they arrive: the master's
    /// big-task steals and the grants an idle machine asked for (big tasks,
    /// then the oldest small tasks of the granting machine's deques).
    pub stolen_tasks: u64,
    /// Tasks moved between worker deques by the intra-machine steal protocol.
    pub steals: u64,
    /// Intra-machine steal sweeps that found every victim deque empty.
    pub steal_failures: u64,
    /// Worker pops that found the machine's global queue lock already held
    /// (the contention the per-worker deques exist to avoid; with the old
    /// single-queue pop path every one of these was a stalled worker).
    pub pop_contention: u64,
    /// Cumulative mining time over all tasks (Table 6).
    pub total_mining_time: Duration,
    /// Cumulative subgraph-materialisation time over all tasks (Table 6).
    pub total_materialization_time: Duration,
    /// Per-task time log (Figures 1–3).
    pub task_times: Vec<TaskTimeRecord>,
    /// Per-worker busy time (used to verify that cores stay busy).
    pub worker_busy: Vec<Duration>,
    /// Whether the run drained the whole task pool or was interrupted by its
    /// cancellation token / deadline (in which case the emitted results cover
    /// only the processed tasks).
    pub outcome: RunOutcome,
    /// On the threaded driver, which check found dropped work and so
    /// labelled the run [`RunOutcome::Faulted`] or cancelled; `None` when
    /// nothing was dropped, and on the simulator, whose losses are its lost
    /// roots.
    pub work_dropped: Option<WorkDropped>,
}

impl EngineMetrics {
    /// Mining : materialisation time ratio (the last column of Table 6).
    /// Returns `None` when no materialisation time was recorded.
    pub fn mining_materialization_ratio(&self) -> Option<f64> {
        let mat = self.total_materialization_time.as_secs_f64();
        if mat <= 0.0 {
            None
        } else {
            Some(self.total_mining_time.as_secs_f64() / mat)
        }
    }

    /// Estimated peak memory in bytes: the high-water mark of the bytes held
    /// by in-memory tasks, which their subgraphs dominate. This is what the
    /// paper's RAM column tracks; the remote-vertex cache is not counted.
    pub fn peak_memory_bytes(&self) -> u64 {
        self.peak_task_bytes
    }

    /// The `k` largest per-task wall times, sorted descending (Figure 2).
    ///
    /// Selects over an index vector with `select_nth_unstable` instead of
    /// cloning and fully sorting the record log: `O(n + k log k)` and
    /// 4 bytes per task of transient memory, regardless of record size.
    pub fn top_k_task_times(&self, k: usize) -> Vec<TaskTimeRecord> {
        let n = self.task_times.len();
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        if k < n {
            order.select_nth_unstable_by_key(k - 1, |&i| {
                std::cmp::Reverse(self.task_times[i as usize].elapsed)
            });
            order.truncate(k);
        }
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(self.task_times[i as usize].elapsed));
        order
            .into_iter()
            .map(|i| self.task_times[i as usize])
            .collect()
    }

    /// The `p`-th percentile (nearest-rank, `0.0 < p <= 1.0`) of per-task
    /// wall times, via `select_nth_unstable` over an index vector — no clone
    /// of the record log, no full sort. `None` when no tasks were recorded.
    pub fn task_time_percentile(&self, p: f64) -> Option<Duration> {
        let n = self.task_times.len();
        if n == 0 || !(0.0..=1.0).contains(&p) {
            return None;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let (_, &mut i, _) =
            order.select_nth_unstable_by_key(rank, |&i| self.task_times[i as usize].elapsed);
        Some(self.task_times[i as usize].elapsed)
    }

    /// The standard (p50, p95, p99) per-task wall-time summary, or `None`
    /// when no tasks were recorded. One selection pass per quantile over an
    /// index vector — see [`EngineMetrics::task_time_percentile`].
    pub fn task_time_percentiles(&self) -> Option<TaskTimePercentiles> {
        Some(TaskTimePercentiles {
            p50: self.task_time_percentile(0.50)?,
            p95: self.task_time_percentile(0.95)?,
            p99: self.task_time_percentile(0.99)?,
        })
    }

    /// Aggregates per-root totals: for every spawning vertex, the summed wall
    /// time and the largest subgraph size over the root task and all subtasks
    /// attributed to it (Figure 1 plots these per-root totals).
    pub fn per_root_totals(&self) -> Vec<(VertexId, Duration, usize)> {
        use std::collections::HashMap;
        let mut acc: HashMap<VertexId, (Duration, usize)> = HashMap::new();
        for rec in &self.task_times {
            let entry = acc.entry(rec.root).or_insert((Duration::ZERO, 0));
            entry.0 += rec.elapsed;
            entry.1 = entry.1.max(rec.subgraph_size);
        }
        let mut rows: Vec<(VertexId, Duration, usize)> =
            acc.into_iter().map(|(v, (d, s))| (v, d, s)).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }

    /// Simulates the makespan of replaying the recorded per-task durations on
    /// `workers` parallel workers with greedy list scheduling (tasks assigned
    /// in recorded order to the earliest-free worker).
    ///
    /// This is the machine-independent scalability measure used by the
    /// experiment harness when the host lacks real parallelism (e.g. a
    /// single-core CI container): the measured wall time cannot drop below the
    /// serial task time there, but the simulated makespan still reveals
    /// whether the decomposition produced tasks fine-grained enough to keep
    /// `workers` cores busy — which is exactly the property Table 5 of the
    /// paper is about.
    pub fn simulated_makespan(&self, workers: usize) -> Duration {
        let workers = workers.max(1);
        let mut finish = vec![Duration::ZERO; workers];
        for rec in &self.task_times {
            // Earliest-free worker.
            let (idx, _) = finish
                .iter()
                .enumerate()
                .min_by_key(|(_, f)| **f)
                .expect("at least one worker");
            finish[idx] += rec.elapsed;
        }
        finish.into_iter().max().unwrap_or(Duration::ZERO)
    }

    /// Fraction of total worker capacity that was spent busy (a load-balance
    /// health indicator; the paper's goal 2 is "keep CPU cores busy").
    pub fn worker_utilisation(&self) -> f64 {
        if self.worker_busy.is_empty() || self.elapsed.is_zero() {
            return 0.0;
        }
        let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
        busy / (self.elapsed.as_secs_f64() * self.worker_busy.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(root: u32, size: usize, ms: u64) -> TaskTimeRecord {
        TaskTimeRecord {
            root: VertexId::new(root),
            subgraph_size: size,
            elapsed: Duration::from_millis(ms),
            timings: TaskTimings::default(),
        }
    }

    #[test]
    fn ratio_handles_zero_materialization() {
        let mut m = EngineMetrics::default();
        assert_eq!(m.mining_materialization_ratio(), None);
        m.total_mining_time = Duration::from_secs(10);
        m.total_materialization_time = Duration::from_millis(100);
        let ratio = m.mining_materialization_ratio().unwrap();
        assert!((ratio - 100.0).abs() < 1e-9);
    }

    #[test]
    fn top_k_sorts_by_elapsed() {
        let m = EngineMetrics {
            task_times: vec![record(1, 10, 5), record(2, 20, 50), record(3, 5, 20)],
            ..EngineMetrics::default()
        };
        let top2 = m.top_k_task_times(2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].root, VertexId::new(2));
        assert_eq!(top2[1].root, VertexId::new(3));
        assert_eq!(m.top_k_task_times(10).len(), 3);
    }

    #[test]
    fn task_time_percentile_is_nearest_rank() {
        let m = EngineMetrics {
            task_times: (1..=100u64).map(|ms| record(1, 1, ms)).collect(),
            ..EngineMetrics::default()
        };
        assert_eq!(m.task_time_percentile(0.5), Some(Duration::from_millis(50)));
        assert_eq!(
            m.task_time_percentile(0.99),
            Some(Duration::from_millis(99))
        );
        assert_eq!(
            m.task_time_percentile(1.0),
            Some(Duration::from_millis(100))
        );
        assert_eq!(EngineMetrics::default().task_time_percentile(0.5), None);
        assert_eq!(m.task_time_percentile(1.5), None);
    }

    #[test]
    fn percentile_summary_over_a_task_log() {
        let m = EngineMetrics {
            tasks_processed: 100,
            task_times: (1..=100u64).map(|ms| record(1, 1, ms)).collect(),
            ..EngineMetrics::default()
        };
        let p = m.task_time_percentiles().unwrap();
        assert_eq!(p.p50, Duration::from_millis(50));
        assert_eq!(p.p95, Duration::from_millis(95));
        assert_eq!(p.p99, Duration::from_millis(99));
        assert_eq!(EngineMetrics::default().task_time_percentiles(), None);
    }

    #[test]
    fn per_root_totals_aggregate_subtasks() {
        let m = EngineMetrics {
            task_times: vec![
                record(7, 100, 30),
                record(7, 40, 20),
                record(9, 10, 5),
                record(9, 3, 1),
            ],
            ..EngineMetrics::default()
        };
        let totals = m.per_root_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].0, VertexId::new(7));
        assert_eq!(totals[0].1, Duration::from_millis(50));
        assert_eq!(totals[0].2, 100);
        assert_eq!(totals[1], (VertexId::new(9), Duration::from_millis(6), 10));
    }

    #[test]
    fn simulated_makespan_balances_tasks() {
        let m = EngineMetrics {
            task_times: vec![
                record(1, 1, 40),
                record(2, 1, 10),
                record(3, 1, 10),
                record(4, 1, 10),
                record(5, 1, 10),
            ],
            ..EngineMetrics::default()
        };
        // Serial: 80 ms. Two workers: the greedy schedule puts the 40 ms task
        // on one worker and the four 10 ms tasks on the other.
        assert_eq!(m.simulated_makespan(1), Duration::from_millis(80));
        assert_eq!(m.simulated_makespan(2), Duration::from_millis(40));
        // More workers cannot beat the longest task.
        assert_eq!(m.simulated_makespan(8), Duration::from_millis(40));
        assert_eq!(m.simulated_makespan(0), Duration::from_millis(80));
        assert_eq!(
            EngineMetrics::default().simulated_makespan(4),
            Duration::ZERO
        );
    }

    #[test]
    fn worker_utilisation_bounds() {
        let mut m = EngineMetrics::default();
        assert_eq!(m.worker_utilisation(), 0.0);
        m.elapsed = Duration::from_secs(2);
        m.worker_busy = vec![Duration::from_secs(1), Duration::from_secs(2)];
        let u = m.worker_utilisation();
        assert!(u > 0.74 && u <= 1.0, "utilisation {u}");
    }
}
