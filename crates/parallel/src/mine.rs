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
//! The task's subgraph is already the [`LocalGraph`] the search runs on, and
//! `S`/`ext(S)` index it: the phase builds the hub rows and mines. A subtask
//! gets the subgraph induced by `S' ∪ ext(S')` and the two sets renumbered
//! into it, nothing else. The subgraph-materialisation time of creating
//! subtasks is measured separately from the mining time; the ratio is Table 6
//! of the paper.

use crate::task::QCTask;
use qcm_core::recursive_mine::{cover_prune_prefix, lookahead_hit, shrink_by_diameter};
use qcm_core::{
    iterative_bounding, recursive_mine, CancelToken, MiningContext, MiningParams, MiningStats,
    PruneConfig, QuasiCliqueSet,
};
use qcm_engine::WorkerScratch;
use qcm_graph::{IndexSpec, LocalGraph, SubgraphScratch, VertexId};
use qcm_obs::clock::Instant;
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

/// Runs iteration 3 for `task`, which ends with it: the hub rows are built
/// into the task's own subgraph. `scratch` is the calling worker's: the mining
/// arena is moved into the mining context for the duration of the phase and
/// handed back afterwards, so the recursion frames warmed up by one task serve
/// the worker's next task without reallocating; the induction buffers serve
/// every subtask.
pub fn run_mine_phase(
    task: &mut QCTask,
    phase: &MinePhaseParams,
    scratch: &mut WorkerScratch,
) -> MineOutcome {
    let started = Instant::now();
    // One mine_phase span per task timeslice; the payload is the root vertex.
    let _phase_span = qcm_obs::span_with(qcm_obs::SpanKind::MinePhase, task.root.raw() as u64);
    let mut outcome = MineOutcome::default();

    // One hub-index build per task, amortised over the whole backtracking
    // below.
    task.subgraph.build_hub_index(phase.index);
    let graph = &task.subgraph;
    let s_local = task.s.as_slice();
    let mut ext_local = task.ext.clone();

    let mut sink = QuasiCliqueSet::new();
    let mut collector = SubtaskCollector {
        root: task.root,
        graph,
        subtasks: Vec::new(),
        materialization_time: Duration::ZERO,
        keep: Vec::new(),
        induce: &mut scratch.subgraph,
    };

    {
        let mut ctx = MiningContext::with_config(graph, phase.params, phase.config, &mut sink);
        ctx.cancel = phase.cancel.clone();
        ctx.scratch = std::mem::take(&mut scratch.mining);
        ctx.stats.tasks_processed = 1;

        if ext_local.is_empty() {
            // Nothing to extend: G(S) itself may still be a result.
            ctx.report_if_valid(s_local);
        } else {
            match phase.strategy {
                DecompositionStrategy::SizeThreshold => {
                    if ext_local.len() <= phase.tau_split {
                        recursive_mine(&mut ctx, s_local, &mut ext_local);
                    } else {
                        size_threshold_decompose(&mut ctx, s_local, &mut ext_local, &mut collector);
                    }
                }
                DecompositionStrategy::TimeDelayed => {
                    let deadline = Instant::now() + phase.tau_time;
                    time_delayed(&mut ctx, s_local, &mut ext_local, deadline, &mut collector);
                }
            }
        }
        outcome.stats = ctx.stats;
        outcome.interrupted = ctx.interrupted;
        scratch.mining = std::mem::take(&mut ctx.scratch);
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
    root: VertexId,
    graph: &'a LocalGraph,
    subtasks: Vec<QCTask>,
    materialization_time: Duration,
    /// `S' ∪ ext(S')` of the subtask being added, sorted.
    keep: Vec<u32>,
    /// The worker's induction buffers.
    induce: &'a mut SubgraphScratch,
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
        let keep = &mut self.keep;
        keep.clear();
        keep.extend(s_local.iter().chain(ext_local));
        keep.sort_unstable();
        keep.dedup();
        let child_graph = self.graph.induce_from_local(keep, self.induce);
        // A child index is the rank among the kept parent indices: the order
        // of `S'` and of `ext(S')` carries over.
        let rank = |i: &u32| keep.binary_search(i).expect("S' ∪ ext(S') was kept") as u32;
        self.subtasks.push(QCTask::decomposed(
            self.root,
            s_local.iter().map(rank).collect(),
            ext_local.iter().map(rank).collect(),
            child_graph,
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
    use crate::iterations::tests::{build_task, figure4, globals};
    use qcm_core::{remove_non_maximal, SerialMiner};
    use qcm_gen::planted::{plant_quasi_cliques, PlantedGraphSpec};
    use qcm_graph::Graph;

    /// Builds a mining-phase task over every vertex of the graph from `root`
    /// up.
    fn mine_task(g: &Graph, root: u32) -> QCTask {
        let root_id = VertexId::new(root);
        let keep: Vec<VertexId> = g.vertices().filter(|v| *v >= root_id).collect();
        let graph = LocalGraph::from_induced(g, &keep);
        let ext = (1..keep.len() as u32).collect();
        QCTask::decomposed(root_id, vec![0], ext, graph)
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
    /// returning every reported result. Every subtask must carry exactly the
    /// subgraph of its parent induced by its own `S' ∪ ext(S')`.
    fn drain(task: QCTask, p: &MinePhaseParams) -> (QuasiCliqueSet, usize) {
        let mut queue = vec![task];
        let mut sink = QuasiCliqueSet::new();
        let mut processed = 0usize;
        let mut scratch = WorkerScratch::default();
        while let Some(mut t) = queue.pop() {
            processed += 1;
            assert!(processed < 10_000, "decomposition does not terminate");
            let out = run_mine_phase(&mut t, p, &mut scratch);
            for r in out.results {
                sink.insert(r);
            }
            for sub in &out.subtasks {
                assert_eq!(sub.root, t.root);
                let n = sub.subgraph.capacity() as u32;
                let mut candidate: Vec<u32> = sub.s.iter().chain(&sub.ext).copied().collect();
                candidate.sort_unstable();
                assert_eq!(
                    candidate,
                    (0..n).collect::<Vec<_>>(),
                    "V(t'.g) = S' ∪ ext(S')"
                );
                let parent_ids = t.subgraph.alive_global_ids();
                let keep: Vec<u32> = (0..n)
                    .map(|i| {
                        parent_ids
                            .binary_search(&sub.subgraph.global_id(i))
                            .unwrap() as u32
                    })
                    .collect();
                let induced = t
                    .subgraph
                    .induce_from_local(&keep, &mut SubgraphScratch::default());
                assert_eq!(sub.subgraph, induced);
            }
            queue.extend(out.subtasks);
        }
        (sink, processed)
    }

    /// What the serial recursion reports on the task's own candidate.
    fn recursive_reference(task: &QCTask, p: &MinePhaseParams) -> QuasiCliqueSet {
        let mut graph = task.subgraph.clone();
        graph.build_hub_index(p.index);
        let mut sink = QuasiCliqueSet::new();
        {
            let mut ctx = MiningContext::with_config(&graph, p.params, p.config, &mut sink);
            let found = recursive_mine(&mut ctx, &task.s, &mut task.ext.clone());
            if !found {
                ctx.report_if_valid(&task.s);
            }
        }
        sink
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
    fn decomposing_at_every_node_finds_what_the_recursion_finds() {
        // τ_time = 0 (or τ_split = 0) splits at every node, so every subtree
        // travels as a subtask with its own induced subgraph and renumbered
        // S' and ext(S'); after the maximality filter nothing may differ from
        // the recursion run on the root task's own candidate.
        let (g, _) = plant_quasi_cliques(&PlantedGraphSpec {
            num_vertices: 150,
            background_avg_degree: 5.0,
            background_max_degree: 30.0,
            community_sizes: vec![12, 9],
            community_density: 0.85,
            seed: 11,
            ..PlantedGraphSpec::default()
        });
        let mut compared = 0;
        for (strategy, tau_split) in [
            (DecompositionStrategy::TimeDelayed, 100),
            (DecompositionStrategy::SizeThreshold, 0),
        ] {
            let mut p = phase(strategy, tau_split, Duration::ZERO);
            p.params = MiningParams::new(0.8, 6);
            let k = p.params.kcore_threshold();
            for task in (0..150).filter_map(|root| build_task(&g, root, k)) {
                let expected = remove_non_maximal(recursive_reference(&task, &p));
                let (results, processed) = drain(task, &p);
                assert_eq!(remove_non_maximal(results), expected);
                compared += usize::from(processed > 1 && !expected.is_empty());
            }
        }
        assert!(compared >= 2, "some decomposed task must hold a result");
    }

    #[test]
    fn materialization_time_is_tracked_when_decomposing() {
        let g = figure4();
        let p = phase(DecompositionStrategy::TimeDelayed, 100, Duration::ZERO);
        let mut task = mine_task(&g, 0);
        let out = run_mine_phase(&mut task, &p, &mut WorkerScratch::default());
        assert!(!out.subtasks.is_empty());
        assert!(out.materialization_time > Duration::ZERO);
        // Subtask subgraphs are induced: they never contain vertices outside
        // S' ∪ ext(S').
        for sub in &out.subtasks {
            let allowed: Vec<u32> = sub.s.iter().chain(sub.ext.iter()).copied().collect();
            for i in sub.subgraph.vertices() {
                assert!(allowed.contains(&i));
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
        let mut task = mine_task(&g, 0);
        let out = run_mine_phase(&mut task, &p, &mut WorkerScratch::default());
        assert!(out.subtasks.is_empty(), "a dying run must not decompose");
        assert!(out.results.is_empty());
    }

    #[test]
    fn empty_ext_reports_s_when_valid() {
        let g = figure4();
        // A task whose candidate is exactly the dense block with no extension.
        let block: Vec<VertexId> = (0..5u32).map(VertexId::new).collect();
        let graph = LocalGraph::from_induced(&g, &block);
        let mut task = QCTask::decomposed(VertexId::new(0), (0..5).collect(), vec![], graph);
        let p = phase(
            DecompositionStrategy::TimeDelayed,
            100,
            Duration::from_secs(1),
        );
        let out = run_mine_phase(&mut task, &p, &mut WorkerScratch::default());
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0], globals(&task, &task.s));
    }
}
