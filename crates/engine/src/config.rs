//! Engine configuration.
//!
//! The knobs mirror Section 5 of the paper: the spill batch size `C`, the
//! queue/cache capacities and the simulated cluster shape (number of machines
//! × mining threads per machine). What a big task is and when a task
//! decomposes (Table 2's τ_split and τ_time) belong to the quasi-clique
//! application; the engine asks [`crate::QuasiCliqueApp::is_big`].

use crate::transport::TransportFactory;
use qcm_core::CancelToken;
use std::path::PathBuf;
use std::time::Duration;

/// Configuration of the simulated cluster and the task scheduler.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of simulated machines. Each machine owns a hash partition of the
    /// vertex table, a global big-task queue, a remote-vertex cache and its
    /// own group of mining threads.
    pub num_machines: usize,
    /// Mining threads per machine.
    pub threads_per_machine: usize,
    /// Spill/steal batch size `C`: tasks are spilled to disk, refilled and
    /// (between machines) stolen in batches of this size.
    pub batch_size: usize,
    /// Capacity of each mining thread's bounded work-stealing deque. Small
    /// tasks beyond it overflow into the machine's spill-backed global queue,
    /// so per-worker memory stays bounded without per-worker spill files.
    pub local_capacity: usize,
    /// Number of tasks one successful intra-machine steal moves from a
    /// victim's deque (FIFO end) to the thief. `0` disables work stealing —
    /// workers then only use their own deque and the global queue.
    pub steal_batch: usize,
    /// Capacity of each machine's global task queue before spilling.
    pub global_queue_capacity: usize,
    /// Maximum number of adjacency lists kept in a machine's remote-vertex
    /// cache.
    pub vertex_cache_capacity: usize,
    /// Directory used for spill files. `None` keeps spilled batches in memory
    /// (still accounted as "disk" bytes in the metrics) — useful for tests.
    pub spill_dir: Option<PathBuf>,
    /// Period of the master's load-balancing loop (big-task stealing).
    pub balance_period: Duration,
    /// Selects the inter-machine transport of each run, and with it the
    /// driver (live threads or the fault simulator). The config holds a
    /// factory rather than a live channel handle so it stays `Clone + Debug`
    /// and every run starts with fresh mailboxes and counters.
    pub transport: TransportFactory,
    /// Per-attempt timeout of a remote vertex pull.
    pub pull_timeout: Duration,
    /// Additional pull attempts after the first times out; when the budget is
    /// exhausted the task is abandoned and the run is labelled
    /// [`qcm_core::RunOutcome::Faulted`].
    pub pull_retries: u32,
    /// Cooperative cancellation: workers poll this at the top of their pop
    /// loop and drain out when it fires, so a cancelled or deadline-hit run
    /// returns the results emitted so far. Defaults to a never-firing token.
    pub cancel: CancelToken,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_machines: 1,
            threads_per_machine: num_cpus_fallback(),
            batch_size: 16,
            local_capacity: 256,
            steal_batch: 4,
            global_queue_capacity: 1024,
            vertex_cache_capacity: 100_000,
            spill_dir: None,
            balance_period: Duration::from_millis(20),
            transport: TransportFactory::default(),
            pull_timeout: Duration::from_millis(100),
            pull_retries: 3,
            cancel: CancelToken::never(),
        }
    }
}

impl EngineConfig {
    /// Creates a configuration for a single machine with the given number of
    /// mining threads (the most common setup for the experiment harness).
    pub fn single_machine(threads: usize) -> Self {
        Self::cluster(1, threads)
    }

    /// Creates a configuration for a simulated cluster.
    pub fn cluster(num_machines: usize, threads_per_machine: usize) -> Self {
        EngineConfig {
            num_machines: num_machines.max(1),
            threads_per_machine: threads_per_machine.max(1),
            ..Default::default()
        }
    }

    /// Attaches a cancellation token polled by the worker loops.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Chooses the inter-machine transport (default: zero-copy in-process).
    pub fn with_transport(mut self, transport: TransportFactory) -> Self {
        self.transport = transport;
        self
    }

    /// Total number of mining threads across the cluster.
    pub fn total_threads(&self) -> usize {
        self.num_machines * self.threads_per_machine
    }

    /// Validates the configuration, panicking on nonsensical values. Called by
    /// [`crate::ParallelMiner::mine`] before every run.
    pub fn validate(&self) {
        assert!(self.num_machines >= 1, "need at least one machine");
        assert!(
            self.threads_per_machine >= 1,
            "need at least one thread per machine"
        );
        assert!(self.batch_size >= 1, "batch size must be at least 1");
        assert!(
            self.local_capacity >= 1,
            "local capacity must hold at least one task"
        );
        assert!(
            self.global_queue_capacity >= self.batch_size,
            "global queue capacity must hold at least one batch"
        );
    }
}

/// Conservative fallback for the default thread count (`std::thread` exposes
/// available parallelism but may fail in constrained environments).
fn num_cpus_fallback() -> usize {
    qcm_sync::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_is_valid() {
        let c = EngineConfig::default();
        c.validate();
        assert_eq!(c.num_machines, 1);
        assert!(c.threads_per_machine >= 1);
    }

    #[test]
    fn cluster_constructor_sets_shape() {
        let c = EngineConfig::cluster(4, 8);
        assert_eq!(c.total_threads(), 32);
        c.validate();
        let c = EngineConfig::cluster(0, 0);
        assert_eq!(c.total_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn validate_rejects_zero_batch() {
        let c = EngineConfig {
            batch_size: 0,
            ..EngineConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "local capacity")]
    fn validate_rejects_zero_local_capacity() {
        let c = EngineConfig {
            local_capacity: 0,
            ..EngineConfig::default()
        };
        c.validate();
    }
}
