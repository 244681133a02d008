//! Iteration 3: mining and task decomposition (Algorithms 8–10).
//!
//! A mining-phase task holds a materialised subgraph and a candidate
//! `⟨S, ext(S)⟩`, and searches it with the serial loop,
//! [`qcm_core::recursive_mine()`]. What makes it a task is the loop's
//! [`HandOff`]: from some instant on, a subtree that survived the pruning is
//! not walked but wrapped into a new task with a smaller materialised
//! subgraph, and `G(S')` is examined on the spot. The
//! [`DecompositionStrategy`] only picks that instant:
//!
//! * [`DecompositionStrategy::TimeDelayed`] — Algorithms 9–10, the paper's
//!   headline technique: `τ_time` after the phase began. Cheap tasks finish
//!   before the timeout and never pay decomposition overhead, expensive tasks
//!   are split at whatever granularity they have reached.
//! * [`DecompositionStrategy::SizeThreshold`] — Algorithm 8: at once if
//!   `|ext(S)| > τ_split`, so one subtask per surviving extension vertex is
//!   created; never otherwise.
//!
//! The task's subgraph is already the [`LocalGraph`] the search runs on, and
//! `S`/`ext(S)` index it: the phase builds the hub rows and mines. A subtask
//! gets the subgraph induced by `S' ∪ ext(S')` and the two sets renumbered
//! into it, nothing else. The subgraph-materialisation time of creating
//! subtasks is measured separately from the mining time; the ratio is Table 6
//! of the paper.

use crate::app::QuasiCliqueApp;
use crate::task::{QCTask, TaskTimings, WorkerScratch};
use qcm_core::{recursive_mine, HandOff, MiningContext, MiningStats, QuasiCliqueSet};
use qcm_graph::{IndexSpec, LocalGraph, SubgraphScratch, VertexId};
use qcm_obs::clock::Instant;
use std::time::Duration;

/// When a mining task starts handing its remaining subtrees off as subtasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecompositionStrategy {
    /// Algorithm 8: from the first node whenever `|ext(S)| > τ_split`.
    SizeThreshold,
    /// Algorithms 9–10: after mining for `τ_time`.
    TimeDelayed,
}

/// The outcome of running iteration 3 on one task.
#[derive(Debug, Default)]
pub struct MineOutcome {
    /// Quasi-cliques reported by this task (global ids, possibly non-maximal).
    pub results: Vec<Vec<VertexId>>,
    /// Subtasks to hand back to the engine.
    pub subtasks: Vec<QCTask>,
    /// Time spent on actual mining (backtracking + pruning) and on
    /// materialising subtask subgraphs.
    pub timings: TaskTimings,
    /// Search/pruning statistics of this task.
    pub stats: MiningStats,
    /// True if this task's backtracking observed the cancellation token fired
    /// and stopped early (its subtree coverage is incomplete).
    pub interrupted: bool,
}

/// Runs iteration 3 for `task`, which ends with it: the hub rows are built
/// into the task's own subgraph. `scratch` is the calling worker's: the mining
/// arena is moved into the mining context for the duration of the phase and
/// handed back afterwards, so the recursion frames warmed up by one task serve
/// the worker's next task without reallocating; the induction buffers serve
/// every subtask.
pub fn run_mine_phase(
    task: &mut QCTask,
    app: &QuasiCliqueApp,
    scratch: &mut WorkerScratch,
) -> MineOutcome {
    let started = Instant::now();
    // One mine_phase span per task timeslice; the payload is the root vertex.
    let _phase_span = qcm_obs::span_with(qcm_obs::SpanKind::MinePhase, task.root.raw() as u64);
    let mut outcome = MineOutcome::default();

    // One hub-index build per task, amortised over the whole backtracking
    // below.
    task.subgraph.build_hub_index(IndexSpec::Auto);
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
        hand_off_at: match app.strategy {
            DecompositionStrategy::TimeDelayed => Some(started + app.tau_time),
            // Algorithm 8 is Algorithm 10 with the timeout already over.
            DecompositionStrategy::SizeThreshold => {
                (ext_local.len() > app.tau_split).then_some(started)
            }
        },
    };

    {
        let mut ctx = MiningContext::with_config(graph, app.params, app.prune_config, &mut sink);
        ctx.cancel = app.cancel.clone();
        ctx.scratch = std::mem::take(&mut scratch.mining);
        ctx.stats.tasks_processed = 1;

        if ext_local.is_empty() {
            // Nothing to extend: G(S) itself may still be a result.
            ctx.report_if_valid(s_local);
        } else {
            recursive_mine(&mut ctx, s_local, &mut ext_local, &mut collector);
        }
        outcome.stats = ctx.stats;
        outcome.interrupted = ctx.interrupted;
        scratch.mining = std::mem::take(&mut ctx.scratch);
    }

    outcome.results = sink.into_sorted_vec();
    outcome.subtasks = collector.subtasks;
    outcome.timings = TaskTimings {
        mining: started
            .elapsed()
            .saturating_sub(collector.materialization_time),
        materialization: collector.materialization_time,
    };
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
    /// From when on the search hands its remaining subtrees off; `None` is
    /// never.
    hand_off_at: Option<Instant>,
}

impl HandOff for SubtaskCollector<'_> {
    fn due(&mut self) -> bool {
        // `>=`: with τ_time = 0 every node hands off, whether or not the clock
        // has ticked since the phase began.
        self.hand_off_at.is_some_and(|at| Instant::now() >= at)
    }

    /// Wraps `⟨S', ext(S')⟩` (local indices) into a new iteration-3 task whose
    /// subgraph is induced by `S' ∪ ext(S')` (Algorithm 8 line 19).
    fn take(&mut self, s_local: &[u32], ext_local: &[u32]) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterations::tests::{build_task, figure4, globals};
    use qcm_core::{remove_non_maximal, CancelToken, MiningParams, NoHandOff, SerialMiner};
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
    ) -> QuasiCliqueApp {
        QuasiCliqueApp::new(MiningParams::new(0.6, 5), tau_split, tau_time).with_strategy(strategy)
    }

    /// Drives a task and all transitively created subtasks to completion,
    /// returning every reported result. Every subtask must carry exactly the
    /// subgraph of its parent induced by its own `S' ∪ ext(S')`.
    fn drain(task: QCTask, p: &QuasiCliqueApp) -> (QuasiCliqueSet, usize) {
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
                let parent_ids = t.subgraph.global_ids();
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

    /// What the serial recursion reports on the task's own candidate, and
    /// its counters.
    fn recursive_reference(task: &QCTask, p: &QuasiCliqueApp) -> (QuasiCliqueSet, MiningStats) {
        let mut graph = task.subgraph.clone();
        graph.build_hub_index(IndexSpec::Auto);
        let mut sink = QuasiCliqueSet::new();
        let mut ctx = MiningContext::with_config(&graph, p.params, p.prune_config, &mut sink);
        recursive_mine(&mut ctx, &task.s, &mut task.ext.clone(), &mut NoHandOff);
        let stats = ctx.stats;
        (sink, stats)
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

    /// The root tasks of a planted 150-vertex graph.
    fn planted_root_tasks(params: MiningParams) -> Vec<QCTask> {
        let (g, _) = plant_quasi_cliques(&PlantedGraphSpec {
            num_vertices: 150,
            background_avg_degree: 5.0,
            background_max_degree: 30.0,
            community_sizes: vec![12, 9],
            community_density: 0.85,
            seed: 11,
            ..PlantedGraphSpec::default()
        });
        let k = params.kcore_threshold();
        (0..150)
            .filter_map(|root| build_task(&g, root, k))
            .collect()
    }

    #[test]
    fn decomposing_at_every_node_finds_what_the_recursion_finds() {
        // τ_time = 0 (or τ_split = 0) splits at every node, so every subtree
        // travels as a subtask with its own induced subgraph and renumbered
        // S' and ext(S'); after the maximality filter nothing may differ from
        // the recursion run on the root task's own candidate.
        let mut compared = 0;
        for (strategy, tau_split) in [
            (DecompositionStrategy::TimeDelayed, 100),
            (DecompositionStrategy::SizeThreshold, 0),
        ] {
            let mut p = phase(strategy, tau_split, Duration::ZERO);
            p.params = MiningParams::new(0.8, 6);
            for task in planted_root_tasks(p.params) {
                let expected = remove_non_maximal(recursive_reference(&task, &p).0);
                let (results, processed) = drain(task, &p);
                assert_eq!(remove_non_maximal(results), expected);
                compared += usize::from(processed > 1 && !expected.is_empty());
            }
        }
        assert!(compared >= 2, "some decomposed task must hold a result");
    }

    #[test]
    fn a_task_whose_hand_off_is_never_due_is_the_serial_recursion() {
        // One loop: until a hand-off is due, a task reports the rows and
        // counts the counters of `recursive_mine` on its candidate, exactly.
        // The case that tells two loops apart is a lookahead hit beneath the
        // root: if the child's `found` is lost there, the parent reports a
        // non-maximal G(S') again. A hit ends its loop, so two hits in one
        // task put one of them below depth 0, and at γ = 0.6, τ_size = 5 a
        // few of those have a G(S') that is itself a result.
        let hour = Duration::from_secs(3600);
        let mut hits_below_root = 0;
        for strategy in [
            DecompositionStrategy::TimeDelayed,
            DecompositionStrategy::SizeThreshold,
        ] {
            let mut p = phase(strategy, 0, hour);
            for mut task in planted_root_tasks(p.params) {
                // No split under the size threshold either.
                p.tau_split = task.ext.len();
                let (rows, stats) = recursive_reference(&task, &p);
                let out = run_mine_phase(&mut task, &p, &mut WorkerScratch::default());
                assert!(out.subtasks.is_empty());
                assert_eq!(out.results, rows.into_sorted_vec(), "root {}", task.root);
                let expected = MiningStats {
                    tasks_processed: 1,
                    ..stats
                };
                assert_eq!(out.stats, expected, "root {}", task.root);
                hits_below_root += usize::from(stats.lookahead_hits >= 2);
            }
        }
        assert!(
            hits_below_root >= 2,
            "no task hit the lookahead below its root"
        );
    }

    #[test]
    fn materialization_time_is_tracked_when_decomposing() {
        let g = figure4();
        let p = phase(DecompositionStrategy::TimeDelayed, 100, Duration::ZERO);
        let mut task = mine_task(&g, 0);
        let out = run_mine_phase(&mut task, &p, &mut WorkerScratch::default());
        assert!(!out.subtasks.is_empty());
        assert!(out.timings.materialization > Duration::ZERO);
        // Subtask subgraphs are induced: they never contain vertices outside
        // S' ∪ ext(S').
        for sub in &out.subtasks {
            let allowed: Vec<u32> = sub.s.iter().chain(sub.ext.iter()).copied().collect();
            for i in 0..sub.subgraph.capacity() as u32 {
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
