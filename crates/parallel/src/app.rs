//! The quasi-clique G-thinker application (the two UDFs of Algorithms 4–5).
//!
//! `spawn` and the iteration filters compare `adj.len()` with
//! `k = ⌈γ·(τ_size − 1)⌉`, as the paper does. What that test means depends on
//! the graph the engine was given: on a raw input it is Algorithm 4's
//! raw-degree test, a necessary condition only; [`crate::ParallelMiner`]
//! hands the engine the k-core of its input, where the same line is an exact
//! core-degree test and a vertex outside the core, having no neighbour left,
//! spawns nothing.

use crate::iterations::{iteration_1, iteration_2};
use crate::mine::{run_mine_phase, DecompositionStrategy};
use crate::task::{QCTask, TaskPhase};
use qcm_core::{CancelToken, MiningParams, PruneConfig};
use qcm_engine::{ComputeContext, Frontier, GThinkerApp, TaskLabel};
use qcm_graph::{IndexSpec, VertexId};
use std::time::Duration;

/// The maximal quasi-clique mining application, parameterised by the mining
/// thresholds and the task-decomposition hyperparameters of Table 2. This is
/// the one place an engine run keeps them: the mine phase reads them here, and
/// the engine learns what a big task is from [`GThinkerApp::is_big`].
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
    /// Hybrid bitset neighborhood index built over each mining task's
    /// materialised subgraph (Auto by default).
    pub index: IndexSpec,
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
            index: IndexSpec::Auto,
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

    /// Chooses the per-task hub index policy (default [`IndexSpec::Auto`]);
    /// results are identical with the index on or off.
    pub fn with_index(mut self, index: IndexSpec) -> Self {
        self.index = index;
        self
    }
}

impl GThinkerApp for QuasiCliqueApp {
    type Task = QCTask;

    /// Algorithm 4: spawn a task from `v` if its degree reaches
    /// `k = ⌈γ(τ_size − 1)⌉`, pulling its larger-id neighbors. (Its core
    /// degree, when the miner runs the engine on the k-core.)
    fn spawn(&self, v: VertexId, adj: &[VertexId], ctx: &mut ComputeContext<Self::Task>) {
        let k = self.params.kcore_threshold();
        if adj.len() < k {
            return;
        }
        let larger = &adj[adj.partition_point(|&u| u <= v)..];
        // v needs k neighbors inside its task and all of them are larger
        // first-hop vertices, so with fewer the peel of iteration 1 would end
        // the task (the test `RootTaskBuilder::build` makes); with none there
        // is nothing to pull.
        let too_few = self.prune_config.size_threshold && larger.len() < k;
        if too_few || larger.is_empty() {
            return;
        }
        ctx.add_task(QCTask::spawned(v, larger.to_vec()));
    }

    fn pending_pulls<'t>(&self, task: &'t Self::Task) -> &'t [VertexId] {
        &task.pull_targets
    }

    /// Algorithm 5: dispatch on the task's iteration.
    fn compute(
        &self,
        task: &mut Self::Task,
        frontier: &Frontier,
        ctx: &mut ComputeContext<Self::Task>,
    ) -> bool {
        let k = self.params.kcore_threshold();
        match task.phase {
            TaskPhase::FirstHop => iteration_1(task, frontier, k),
            TaskPhase::SecondHop => {
                // Iteration 2 performs no pulls, so returning `true` makes the
                // engine run iteration 3 immediately (the paper's "G-thinker
                // will schedule t to run Iteration 3 right away").
                iteration_2(task, frontier, k)
            }
            TaskPhase::Mine => {
                let outcome = run_mine_phase(task, self, &mut ctx.scratch);
                for r in outcome.results {
                    ctx.emit(r);
                }
                for sub in outcome.subtasks {
                    ctx.add_task(sub);
                }
                ctx.timings.mining += outcome.mining_time;
                ctx.timings.materialization += outcome.materialization_time;
                ctx.interrupted |= outcome.interrupted;
                false
            }
        }
    }

    fn is_big(&self, task: &Self::Task) -> bool {
        task.size_measure() > self.tau_split
    }

    fn task_memory_bytes(&self, task: &Self::Task) -> usize {
        // What the task carries while queued: the hub rows exist only while
        // its mine phase runs.
        let graph = &task.subgraph;
        64 + graph.memory_bytes() - graph.hub_index_memory_bytes()
            + 4 * (task.pull_targets.len() + task.s.len() + task.ext.len())
    }

    fn task_label(&self, task: &Self::Task) -> TaskLabel {
        TaskLabel {
            root: Some(task.root),
            subgraph_size: task
                .subgraph
                .num_vertices()
                .max(task.s.len() + task.ext.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_filters_by_degree_and_larger_neighbors() {
        let app = QuasiCliqueApp::new(MiningParams::new(0.9, 4), 100, Duration::from_millis(10));
        // k = ⌈0.9·3⌉ = 3.
        let mut ctx = ComputeContext::new();
        app.spawn(
            VertexId::new(5),
            &[VertexId::new(1), VertexId::new(2)],
            &mut ctx,
        );
        assert!(ctx.new_tasks.is_empty(), "degree 2 < k must not spawn");

        let mut ctx = ComputeContext::new();
        app.spawn(
            VertexId::new(5),
            &[VertexId::new(1), VertexId::new(2), VertexId::new(3)],
            &mut ctx,
        );
        assert!(
            ctx.new_tasks.is_empty(),
            "no larger neighbor means the task would die instantly"
        );

        // Degree 4 ≥ k, but only two larger neighbors: the root would need
        // three inside its task and the peel of iteration 1 would end it.
        let few_larger = [1, 2, 6, 7].map(VertexId::new);
        let mut ctx = ComputeContext::new();
        app.spawn(VertexId::new(5), &few_larger, &mut ctx);
        assert!(ctx.new_tasks.is_empty(), "fewer than k larger neighbors");
        // The test belongs to the size-threshold rule.
        let unpruned = app
            .clone()
            .with_prune_config(PruneConfig::all_enabled().without("size_threshold"));
        let mut ctx = ComputeContext::new();
        unpruned.spawn(VertexId::new(5), &few_larger, &mut ctx);
        assert_eq!(ctx.new_tasks.len(), 1);

        let mut ctx = ComputeContext::new();
        app.spawn(
            VertexId::new(5),
            &[VertexId::new(6), VertexId::new(7), VertexId::new(8)],
            &mut ctx,
        );
        assert_eq!(ctx.new_tasks.len(), 1);
        assert_eq!(ctx.new_tasks[0].pull_targets.len(), 3);
        assert_eq!(app.pending_pulls(&ctx.new_tasks[0]).len(), 3);
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
        assert_eq!(app.task_label(&big).root, Some(VertexId::new(0)));
    }
}
