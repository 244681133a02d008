//! The quasi-clique application (the two UDFs of Algorithms 4–5) the engine
//! runs.
//!
//! The iteration filters compare degrees with the size-threshold rule's
//! `k = ⌈γ·(τ_size − 1)⌉`, as the paper does, and peel at it; with the rule
//! off `k` is 0 and nothing is filtered or peeled. [`crate::ParallelMiner`]
//! hands the engine the k-core of its input, where a degree is an exact core
//! degree, and spawns only from the core's suffix roots, so Algorithm 4's
//! degree test is already passed when `spawn` runs: every root has `k`
//! larger neighbours, and at least one.

use crate::iterations::{iteration_1, iteration_2};
use crate::mine::{run_mine_phase, DecompositionStrategy, MineOutcome};
use crate::task::{Frontier, QCTask, TaskPhase, WorkerScratch};
use qcm_core::{CancelToken, MiningParams, PruneConfig};
use qcm_graph::VertexId;
use std::time::Duration;

/// The maximal quasi-clique mining application, parameterised by the mining
/// thresholds and the task-decomposition hyperparameters of Table 2. This is
/// the one place an engine run keeps them: the mine phase reads them here, and
/// the engine learns what a big task is from [`QuasiCliqueApp::is_big`].
#[derive(Clone, Debug)]
pub struct QuasiCliqueApp {
    /// Mining parameters (γ, τ_size).
    pub params: MiningParams,
    /// Pruning-rule configuration (all rules on by default).
    pub prune_config: PruneConfig,
    /// Big-task threshold τ_split.
    pub tau_split: usize,
    /// Decomposition timeout τ_time.
    pub tau_time: Duration,
    /// Decomposition strategy (time-delayed by default, per the paper).
    pub strategy: DecompositionStrategy,
    /// Cooperative cancellation threaded into every mining-phase context.
    pub cancel: CancelToken,
}

impl QuasiCliqueApp {
    /// τ_split of a miner or session that sets none.
    pub const DEFAULT_TAU_SPLIT: usize = 100;
    /// τ_time of a miner or session that sets none.
    pub const DEFAULT_TAU_TIME: Duration = Duration::from_millis(10);

    /// Creates the application with the paper's default strategy
    /// (time-delayed decomposition) and all pruning rules enabled.
    pub fn new(params: MiningParams, tau_split: usize, tau_time: Duration) -> Self {
        QuasiCliqueApp {
            params,
            prune_config: PruneConfig::all_enabled(),
            tau_split,
            tau_time,
            strategy: DecompositionStrategy::TimeDelayed,
            cancel: CancelToken::never(),
        }
    }

    /// Switches to the simple size-threshold decomposition (Algorithm 8),
    /// used as the baseline in the τ_time ablation.
    pub fn with_strategy(mut self, strategy: DecompositionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the pruning configuration.
    pub fn with_prune_config(mut self, config: PruneConfig) -> Self {
        self.prune_config = config;
        self
    }

    /// Attaches a cancellation token polled inside the mining phase, so big
    /// tasks stop mid-backtrack when the run is cancelled or its deadline
    /// passes.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Algorithm 4: the task spawned from `v`, pulling its larger-id
    /// neighbors; `adj` is Γ(v), sorted. The engine calls it only for the
    /// vertices its table holds, suffix roots with at least
    /// `max(`[`PruneConfig::peel_threshold`]`, 1)` larger neighbours, so it
    /// refuses none.
    pub fn spawn(&self, v: VertexId, adj: &[VertexId]) -> QCTask {
        let larger = &adj[adj.partition_point(|&u| u <= v)..];
        QCTask::spawned(v, larger.to_vec())
    }

    /// Algorithm 5: advances `task` by one iteration over `frontier`, the
    /// adjacency lists of its `pull_targets`. Returns whether the task needs
    /// another iteration, and what its mine phase produced (nothing for
    /// iterations 1 and 2). `scratch` is the calling worker's.
    pub fn compute(
        &self,
        task: &mut QCTask,
        frontier: &Frontier,
        scratch: &mut WorkerScratch,
    ) -> (bool, MineOutcome) {
        let k = self.prune_config.peel_threshold(&self.params);
        match task.phase {
            TaskPhase::FirstHop => (iteration_1(task, frontier, k), MineOutcome::default()),
            // Iteration 2 performs no pulls, so returning `true` makes the
            // engine run iteration 3 immediately (the paper's "G-thinker will
            // schedule t to run Iteration 3 right away").
            TaskPhase::SecondHop => (iteration_2(task, frontier, k), MineOutcome::default()),
            TaskPhase::Mine => (false, run_mine_phase(task, self, scratch)),
        }
    }

    /// Classifies a task as *big* (goes to the machine-wide global queue and
    /// participates in inter-machine stealing) or small (stays in the
    /// spawning thread's local queue): `|ext(S)|` against τ_split.
    pub fn is_big(&self, task: &QCTask) -> bool {
        task.size_measure() > self.tau_split
    }

    /// Approximate in-memory size of a task in bytes, for the engine's
    /// peak-memory accounting (Table 2's RAM column): what the task carries
    /// while queued, as the hub rows exist only while its mine phase runs.
    /// `O(1)`.
    pub fn task_memory_bytes(&self, task: &QCTask) -> usize {
        let graph = &task.subgraph;
        64 + graph.memory_bytes() - graph.hub_index_memory_bytes()
            + 4 * (task.pull_targets.len() + task.s.len() + task.ext.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_filters_by_degree_and_larger_neighbors() {
        // The degree test is the root list's (`peel_to_core`); spawn keeps
        // the larger neighbours.
        let app = QuasiCliqueApp::new(MiningParams::new(0.9, 4), 100, Duration::from_millis(10));
        let ids = |raw: &[u32]| raw.iter().map(|&v| VertexId::new(v)).collect::<Vec<_>>();
        let root = VertexId::new(5);
        let task = app.spawn(root, &ids(&[1, 2, 6, 7, 8]));
        assert_eq!(task.root, root);
        assert_eq!(task.pull_targets, ids(&[6, 7, 8]));
    }

    #[test]
    fn big_task_classification_uses_tau_split() {
        let app = QuasiCliqueApp::new(MiningParams::new(0.8, 3), 2, Duration::from_millis(1));
        let small = QCTask::spawned(VertexId::new(0), vec![VertexId::new(1)]);
        assert!(!app.is_big(&small));
        let big = QCTask::spawned(
            VertexId::new(0),
            vec![VertexId::new(1), VertexId::new(2), VertexId::new(3)],
        );
        assert!(app.is_big(&big));
        assert!(app.task_memory_bytes(&big) > 0);
        assert_eq!(big.subgraph_size(), 0);
    }
}
