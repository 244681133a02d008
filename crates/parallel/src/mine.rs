//! Iteration 3: mining and task decomposition (Algorithms 8–10).
//!
//! A mining-phase task holds a materialised subgraph and a candidate
//! `⟨S, ext(S)⟩`. Two decomposition strategies are implemented:
//!
//! * [`DecompositionStrategy::SizeThreshold`] — Algorithm 8: if
//!   `|ext(S)| ≤ τ_split` the task is mined in place with the serial
//!   recursion, otherwise one subtask per (surviving) extension vertex is
//!   created immediately.
//! * [`DecompositionStrategy::TimeDelayed`] — Algorithms 9–10: the task mines
//!   its subgraph by backtracking until `τ_time` elapses, after which every
//!   remaining (unpruned) subtree is wrapped into a new task with a smaller
//!   materialised subgraph. This is the paper's headline technique: cheap
//!   tasks finish before the timeout and never pay decomposition overhead,
//!   expensive tasks are split at whatever granularity they have reached.
//!
//! The subgraph-materialisation time of creating subtasks is measured
//! separately from the mining time; the ratio is Table 6 of the paper.

use crate::task::{QCTask, TaskGraph};
use qcm_core::recursive_mine::{cover_prune_prefix, lookahead_hit, shrink_by_diameter};
use qcm_core::{
    iterative_bounding, recursive_mine, CancelToken, MiningContext, MiningParams, MiningScratch,
    MiningStats, PruneConfig, QuasiCliqueSet,
};
use qcm_graph::{IndexSpec, LocalGraph, SubgraphScratch, VertexId};
use qcm_obs::clock::Instant;
use std::collections::HashMap;
use std::time::Duration;

/// How a big mining task is decomposed into subtasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecompositionStrategy {
    /// Algorithm 8: decompose whenever `|ext(S)| > τ_split`.
    SizeThreshold,
    /// Algorithms 9–10: mine for `τ_time`, then decompose what remains.
    TimeDelayed,
}

/// The outcome of running iteration 3 on one task.
#[derive(Debug, Default)]
pub struct MineOutcome {
    /// Quasi-cliques reported by this task (global ids, possibly non-maximal).
    pub results: Vec<Vec<VertexId>>,
    /// Subtasks to hand back to the engine.
    pub subtasks: Vec<QCTask>,
    /// Time spent on actual mining (backtracking + pruning).
    pub mining_time: Duration,
    /// Time spent materialising subtask subgraphs.
    pub materialization_time: Duration,
    /// Search/pruning statistics of this task.
    pub stats: MiningStats,
    /// True if this task's backtracking observed the cancellation token fired
    /// and stopped early (its subtree coverage is incomplete).
    pub interrupted: bool,
}

/// Parameters threaded through the mining phase.
#[derive(Clone, Debug)]
pub struct MinePhaseParams {
    /// Mining parameters (γ, τ_size).
    pub params: MiningParams,
    /// Pruning-rule configuration.
    pub config: PruneConfig,
    /// Big-task threshold τ_split.
    pub tau_split: usize,
    /// Decomposition timeout τ_time.
    pub tau_time: Duration,
    /// Decomposition strategy.
    pub strategy: DecompositionStrategy,
    /// Cooperative cancellation polled inside the backtracking loops, so a
    /// long-running task stops mid-subgraph instead of running to completion.
    pub cancel: CancelToken,
    /// Hub-index policy for the task's materialised subgraph.
    pub index: IndexSpec,
}

/// Runs iteration 3 for `task`. `scratch` is the calling worker's arena: it
/// is moved into the mining context for the duration of the phase and handed
/// back afterwards, so the recursion frames warmed up by one task serve the
/// worker's next task without reallocating.
pub fn run_mine_phase(
    task: &QCTask,
    phase: &MinePhaseParams,
    scratch: &mut MiningScratch,
) -> MineOutcome {
    let started = Instant::now();
    // One mine_phase span per task timeslice; the payload is the root vertex.
    let _phase_span = qcm_obs::span_with(qcm_obs::SpanKind::MinePhase, task.root.raw() as u64);
    let mut outcome = MineOutcome::default();

    let (mut graph, index) = task.subgraph.to_local_graph();
    // One hub-index build per task, amortised over the whole backtracking
    // below (and over the induced child subgraphs' construction).
    graph.build_hub_index(phase.index);
    let graph = graph;
    let to_local = |v: &VertexId| index.get(v).copied();
    let s_local: Vec<u32> = task.s.iter().filter_map(&to_local).collect();
    let mut ext_local: Vec<u32> = task.ext.iter().filter_map(to_local).collect();
    if s_local.len() != task.s.len() {
        // Some S member is missing from the materialised subgraph; nothing to
        // mine (can only happen with an empty/over-pruned subgraph).
        return outcome;
    }

    let mut sink = QuasiCliqueSet::new();
    let mut collector = SubtaskCollector {
        parent: task,
        graph: &graph,
        subtasks: Vec::new(),
        materialization_time: Duration::ZERO,
        induce: SubgraphScratch::default(),
    };

    {
        let mut ctx = MiningContext::with_config(&graph, phase.params, phase.config, &mut sink);
        ctx.cancel = phase.cancel.clone();
        ctx.scratch = std::mem::take(scratch);
        ctx.stats.tasks_processed = 1;

        if ext_local.is_empty() {
            // Nothing to extend: G(S) itself may still be a result.
            ctx.report_if_valid(&s_local);
        } else {
            match phase.strategy {
                DecompositionStrategy::SizeThreshold => {
                    if ext_local.len() <= phase.tau_split {
                        recursive_mine(&mut ctx, &s_local, &mut ext_local);
                    } else {
                        size_threshold_decompose(
                            &mut ctx,
                            &s_local,
                            &mut ext_local,
                            &mut collector,
                        );
                    }
                }
                DecompositionStrategy::TimeDelayed => {
                    let deadline = Instant::now() + phase.tau_time;
                    time_delayed(&mut ctx, &s_local, &mut ext_local, deadline, &mut collector);
                }
            }
        }
        outcome.stats = ctx.stats;
        outcome.interrupted = ctx.interrupted;
        *scratch = std::mem::take(&mut ctx.scratch);
    }

    outcome.results = sink.into_sorted_vec();
    outcome.subtasks = collector.subtasks;
    outcome.materialization_time = collector.materialization_time;
    outcome.mining_time = started
        .elapsed()
        .saturating_sub(outcome.materialization_time);
    outcome
}

/// Collects decomposed subtasks, materialising their (smaller) subgraphs and
/// accounting the time spent doing so.
struct SubtaskCollector<'a> {
    parent: &'a QCTask,
    graph: &'a LocalGraph,
    subtasks: Vec<QCTask>,
    materialization_time: Duration,
    /// Induction buffers, reused from subtask to subtask.
    induce: SubgraphScratch,
}

impl SubtaskCollector<'_> {
    /// Wraps `⟨S', ext(S')⟩` (local indices) into a new iteration-3 task whose
    /// subgraph is induced by `S' ∪ ext(S')` (Algorithm 8 line 19).
    fn add(&mut self, s_local: &[u32], ext_local: &[u32]) {
        let t0 = Instant::now();
        // Decompose span: materialising one subtask; payload is the child
        // subgraph's vertex count.
        let _decompose = qcm_obs::span_with(
            qcm_obs::SpanKind::Decompose,
            (s_local.len() + ext_local.len()) as u64,
        );
        let mut keep: Vec<u32> = s_local.iter().chain(ext_local).copied().collect();
        keep.sort_unstable();
        keep.dedup();
        let child_graph = self.graph.induce_from_local(&keep, &mut self.induce);
        let mut task_graph = TaskGraph::new();
        let globals: HashMap<u32, VertexId> = keep
            .iter()
            .enumerate()
            .map(|(new_idx, &old)| (new_idx as u32, self.graph.global_id(old)))
            .collect();
        for i in child_graph.vertices() {
            let nbrs: Vec<VertexId> = child_graph.neighbors(i).map(|j| globals[&j]).collect();
            task_graph.insert(globals[&i], nbrs);
        }
        let s_global: Vec<VertexId> = s_local.iter().map(|&i| self.graph.global_id(i)).collect();
        let ext_global: Vec<VertexId> =
            ext_local.iter().map(|&i| self.graph.global_id(i)).collect();
        self.subtasks.push(QCTask::decomposed(
            self.parent.root,
            s_global,
            ext_global,
            task_graph,
        ));
        self.materialization_time += t0.elapsed();
    }
}

/// Algorithm 8 (lines 3–24): decompose a big task into one subtask per
/// surviving extension vertex, applying the same pruning as the recursion.
fn size_threshold_decompose(
    ctx: &mut MiningContext<'_>,
    s: &[u32],
    ext: &mut Vec<u32>,
    collector: &mut SubtaskCollector<'_>,
) {
    let prefix_len = if ctx.config.cover_vertex {
        cover_prune_prefix(ctx, s, ext)
    } else {
        ext.len()
    };
    let mut branch = ctx.scratch.take_vec_cap(prefix_len);
    branch.extend_from_slice(&ext[..prefix_len]);
    let mut i = 0usize;
    while i < branch.len() {
        let v = branch[i];
        i += 1;
        if ctx.is_cancelled() {
            break;
        }
        if s.len() + ext.len() < ctx.params.min_size {
            break;
        }
        if ctx.config.lookahead && lookahead_hit(ctx, s, ext) {
            break;
        }
        ext.retain(|&u| u != v);
        let mut s_prime = ctx.scratch.take_vec_cap(s.len() + 1);
        s_prime.extend_from_slice(s);
        s_prime.push(v);
        ctx.stats.nodes_expanded += 1;
        let mut ext_prime = ctx.scratch.take_vec();
        shrink_by_diameter(ctx, ext, v, &mut ext_prime);

        // Algorithm 8 lines 15–16: the parent loses track of the subtask, so
        // G(S') is checked eagerly.
        ctx.report_if_valid(&s_prime);

        if !ext_prime.is_empty() {
            let pruned = iterative_bounding(ctx, &mut s_prime, &mut ext_prime);
            if !pruned && s_prime.len() + ext_prime.len() >= ctx.params.min_size {
                collector.add(&s_prime, &ext_prime);
            }
        }
        ctx.scratch.put_vec(ext_prime);
        ctx.scratch.put_vec(s_prime);
    }
    ctx.scratch.put_vec(branch);
}

/// Algorithm 10: backtracking with time-delayed decomposition. Identical to
/// the serial recursion until the deadline passes, after which every remaining
/// unpruned subtree is wrapped as a subtask instead of being recursed into.
/// Returns true iff some valid quasi-clique strictly containing `S` was found
/// *by this task* (results found by offloaded subtasks are unknown here, which
/// is why G(S') is checked eagerly when offloading).
fn time_delayed(
    ctx: &mut MiningContext<'_>,
    s: &[u32],
    ext: &mut Vec<u32>,
    deadline: Instant,
    collector: &mut SubtaskCollector<'_>,
) -> bool {
    let mut found = false;
    let prefix_len = if ctx.config.cover_vertex {
        cover_prune_prefix(ctx, s, ext)
    } else {
        ext.len()
    };
    // This depth's branch frame, borrowed from the worker's arena.
    let mut branch = ctx.scratch.take_vec_cap(prefix_len);
    branch.extend_from_slice(&ext[..prefix_len]);
    let mut i = 0usize;
    while i < branch.len() {
        let v = branch[i];
        i += 1;
        // Cooperative cancellation: abandon the remaining subtrees without
        // offloading them — the run is ending, not decomposing.
        if ctx.is_cancelled() {
            break;
        }
        // Line 6.
        if s.len() + ext.len() < ctx.params.min_size {
            break;
        }
        // Lines 7–8: lookahead.
        if ctx.config.lookahead && lookahead_hit(ctx, s, ext) {
            break;
        }
        // Lines 9–10.
        ext.retain(|&u| u != v);
        let mut s_prime = ctx.scratch.take_vec_cap(s.len() + 1);
        s_prime.extend_from_slice(s);
        s_prime.push(v);
        ctx.stats.nodes_expanded += 1;
        let mut ext_prime = ctx.scratch.take_vec();
        shrink_by_diameter(ctx, ext, v, &mut ext_prime);

        if ext_prime.is_empty() {
            // Lines 11–14.
            if ctx.report_if_valid(&s_prime) {
                found = true;
            }
        } else {
            // Line 16.
            let pruned = iterative_bounding(ctx, &mut s_prime, &mut ext_prime);

            if Instant::now() > deadline {
                // Lines 18–24: offload the remaining subtree as a new task.
                if !pruned && s_prime.len() + ext_prime.len() >= ctx.params.min_size {
                    collector.add(&s_prime, &ext_prime);
                    // The subtask will not tell us about its findings, so
                    // examine G(S') now to avoid missing a maximal result.
                    if ctx.report_if_valid(&s_prime) {
                        found = true;
                    }
                }
            } else if !pruned && s_prime.len() + ext_prime.len() >= ctx.params.min_size {
                // Lines 25–30: regular backtracking.
                let child_found = time_delayed(ctx, &s_prime, &mut ext_prime, deadline, collector);
                found = found || child_found;
                if !child_found && ctx.report_if_valid(&s_prime) {
                    found = true;
                }
            }
        }
        ctx.scratch.put_vec(ext_prime);
        ctx.scratch.put_vec(s_prime);
    }
    ctx.scratch.put_vec(branch);
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_core::SerialMiner;
    use qcm_graph::Graph;

    fn figure4() -> Graph {
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
            (1, 5),
            (5, 6),
            (2, 6),
            (3, 7),
            (7, 8),
            (3, 8),
        ];
        Graph::from_edges(9, edges.iter().copied()).unwrap()
    }

    /// Builds a mining-phase task over the whole graph for the given root.
    fn mine_task(g: &Graph, root: u32) -> QCTask {
        let mut tg = TaskGraph::new();
        let root_id = VertexId::new(root);
        let keep: Vec<VertexId> = g.vertices().filter(|v| *v >= root_id).collect();
        for &v in &keep {
            let nbrs: Vec<VertexId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|w| *w >= root_id)
                .collect();
            tg.insert(v, nbrs);
        }
        let ext: Vec<VertexId> = keep.iter().copied().filter(|v| *v != root_id).collect();
        QCTask::decomposed(root_id, vec![root_id], ext, tg)
    }

    fn phase(
        strategy: DecompositionStrategy,
        tau_split: usize,
        tau_time: Duration,
    ) -> MinePhaseParams {
        MinePhaseParams {
            params: MiningParams::new(0.6, 5),
            config: PruneConfig::all_enabled(),
            tau_split,
            tau_time,
            strategy,
            cancel: CancelToken::never(),
            index: IndexSpec::Auto,
        }
    }

    /// Drives a task and all transitively created subtasks to completion,
    /// returning every reported result.
    fn drain(task: QCTask, p: &MinePhaseParams) -> (QuasiCliqueSet, usize) {
        let mut queue = vec![task];
        let mut sink = QuasiCliqueSet::new();
        let mut processed = 0usize;
        while let Some(t) = queue.pop() {
            processed += 1;
            assert!(processed < 10_000, "decomposition does not terminate");
            let out = run_mine_phase(&t, p, &mut MiningScratch::default());
            for r in out.results {
                sink.insert(r);
            }
            queue.extend(out.subtasks);
        }
        (sink, processed)
    }

    #[test]
    fn in_place_mining_matches_serial_results() {
        let g = figure4();
        let p = phase(
            DecompositionStrategy::TimeDelayed,
            100,
            Duration::from_secs(5),
        );
        let task = mine_task(&g, 0);
        let (results, processed) = drain(task, &p);
        assert_eq!(
            processed, 1,
            "no decomposition expected before the deadline"
        );
        let expected = SerialMiner::new(p.params).mine(&g);
        // The task spawned from vertex 0 must find the unique 5-vertex result.
        let maximal = qcm_core::remove_non_maximal(results);
        assert_eq!(maximal, expected.maximal);
    }

    #[test]
    fn zero_timeout_decomposes_but_preserves_results() {
        let g = figure4();
        let p = phase(DecompositionStrategy::TimeDelayed, 100, Duration::ZERO);
        let task = mine_task(&g, 0);
        let (results, processed) = drain(task, &p);
        assert!(processed > 1, "zero timeout must force decomposition");
        let maximal = qcm_core::remove_non_maximal(results);
        let expected = SerialMiner::new(p.params).mine(&g);
        assert_eq!(maximal, expected.maximal);
    }

    #[test]
    fn size_threshold_decomposition_preserves_results() {
        let g = figure4();
        let p = phase(
            DecompositionStrategy::SizeThreshold,
            2,
            Duration::from_secs(1),
        );
        let task = mine_task(&g, 0);
        let (results, processed) = drain(task, &p);
        assert!(processed > 1, "|ext| = 8 > τ_split = 2 must decompose");
        let maximal = qcm_core::remove_non_maximal(results);
        let expected = SerialMiner::new(p.params).mine(&g);
        assert_eq!(maximal, expected.maximal);
    }

    #[test]
    fn materialization_time_is_tracked_when_decomposing() {
        let g = figure4();
        let p = phase(DecompositionStrategy::TimeDelayed, 100, Duration::ZERO);
        let task = mine_task(&g, 0);
        let out = run_mine_phase(&task, &p, &mut MiningScratch::default());
        if !out.subtasks.is_empty() {
            assert!(out.materialization_time > Duration::ZERO);
        }
        // Subtask subgraphs are induced: they never contain vertices outside
        // S' ∪ ext(S').
        for sub in &out.subtasks {
            let allowed: Vec<VertexId> = sub.s.iter().chain(sub.ext.iter()).copied().collect();
            for (v, nbrs) in &sub.subgraph.adj {
                assert!(allowed.contains(v));
                for w in nbrs {
                    assert!(allowed.contains(w));
                }
            }
        }
    }

    #[test]
    fn cancelled_phase_stops_without_offloading_subtasks() {
        let g = figure4();
        let mut p = phase(DecompositionStrategy::TimeDelayed, 100, Duration::ZERO);
        let token = CancelToken::new();
        token.cancel();
        p.cancel = token;
        let task = mine_task(&g, 0);
        let out = run_mine_phase(&task, &p, &mut MiningScratch::default());
        assert!(out.subtasks.is_empty(), "a dying run must not decompose");
        assert!(out.results.is_empty());
    }

    #[test]
    fn empty_ext_reports_s_when_valid() {
        let g = figure4();
        // A task whose candidate is exactly the dense block with no extension.
        let mut tg = TaskGraph::new();
        for v in 0..5u32 {
            let nbrs: Vec<VertexId> = g
                .neighbors(VertexId::new(v))
                .iter()
                .copied()
                .filter(|w| w.raw() < 5)
                .collect();
            tg.insert(VertexId::new(v), nbrs);
        }
        let s: Vec<VertexId> = (0..5u32).map(VertexId::new).collect();
        let task = QCTask::decomposed(VertexId::new(0), s.clone(), vec![], tg);
        let p = phase(
            DecompositionStrategy::TimeDelayed,
            100,
            Duration::from_secs(1),
        );
        let out = run_mine_phase(&task, &p, &mut MiningScratch::default());
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0], s);
    }
}
