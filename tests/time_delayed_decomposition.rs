//! Behavioural tests of the time-delayed task decomposition (Figure 9 and
//! Algorithms 9–10 of the paper).
//!
//! The mechanism promised by the paper:
//!
//! * cheap tasks finish before the timeout and are never decomposed (no
//!   materialisation overhead paid);
//! * expensive tasks are decomposed after at least τ_time of real mining, at
//!   whatever granularity the backtracking has reached (not uniformly);
//! * decreasing τ_time increases the number of decomposed subtasks;
//! * subgraph-materialisation time stays a small fraction of mining time
//!   (Table 6's ratio).

use qcm::engine::{DecompositionStrategy, ParallelMiner};
use qcm::prelude::*;
use qcm_sync::Arc;
use std::time::Duration;

/// A graph with one moderately dense hard core that takes real work to mine,
/// plus planted results, so that both "cheap" and "expensive" tasks exist.
fn hard_core_graph() -> (Arc<Graph>, MiningParams) {
    let background = qcm::gen::gnp(150, 0.02, 9);
    let (with_core, _) = qcm::gen::plant_into(&background, &[30], 0.72, 5);
    let (graph, _) = qcm::gen::plant_into(&with_core, &[10, 9], 0.95, 11);
    (Arc::new(graph), MiningParams::new(0.85, 8))
}

fn run_with_tau_time(
    graph: &Arc<Graph>,
    params: MiningParams,
    tau_time: Duration,
) -> ParallelMiningOutput {
    ParallelMiner::new(params, EngineConfig::single_machine(4))
        .with_decomposition(30, tau_time)
        .mine(graph.clone())
}

#[test]
fn huge_timeout_never_decomposes() {
    let (graph, params) = hard_core_graph();
    let out = run_with_tau_time(&graph, params, Duration::from_secs(3600));
    assert_eq!(
        out.metrics.tasks_decomposed, 0,
        "nothing should time out with a one-hour τ_time"
    );
    assert_eq!(out.metrics.total_materialization_time, Duration::ZERO);
}

#[test]
fn zero_timeout_decomposes_aggressively_and_preserves_results() {
    let (graph, params) = hard_core_graph();
    let lazy = run_with_tau_time(&graph, params, Duration::from_secs(3600));
    let eager = run_with_tau_time(&graph, params, Duration::ZERO);
    assert!(
        eager.metrics.tasks_decomposed > 0,
        "zero τ_time must decompose expensive tasks"
    );
    assert_eq!(
        eager.maximal, lazy.maximal,
        "decomposition changed the result set"
    );
    // Decomposition pays a materialisation cost, which must now be non-zero…
    assert!(eager.metrics.total_materialization_time > Duration::ZERO);
    // …but stays far below the mining time (Table 6's point: the overhead is
    // a tiny fraction; we only assert the order of magnitude here).
    assert!(
        eager.metrics.total_mining_time > eager.metrics.total_materialization_time,
        "materialisation {:?} should not dominate mining {:?}",
        eager.metrics.total_materialization_time,
        eager.metrics.total_mining_time
    );
}

#[test]
fn smaller_tau_time_means_more_subtasks() {
    let (graph, params) = hard_core_graph();
    let coarse = run_with_tau_time(&graph, params, Duration::from_millis(50));
    let fine = run_with_tau_time(&graph, params, Duration::ZERO);
    assert!(
        fine.metrics.tasks_decomposed >= coarse.metrics.tasks_decomposed,
        "τ_time=0 produced fewer subtasks ({}) than τ_time=50ms ({})",
        fine.metrics.tasks_decomposed,
        coarse.metrics.tasks_decomposed
    );
    assert_eq!(fine.maximal, coarse.maximal);
}

#[test]
fn time_delayed_beats_or_matches_size_threshold_on_task_count() {
    // With a small τ_split the size-threshold strategy splits every moderately
    // sized task regardless of cost, while the time-delayed strategy only
    // splits tasks that actually run long. The time-delayed run must therefore
    // never create more subtasks.
    let (graph, params) = hard_core_graph();
    let miner = ParallelMiner::new(params, EngineConfig::single_machine(4))
        .with_decomposition(10, Duration::from_millis(200));
    let time_delayed = miner.mine(graph.clone());
    let size_threshold = miner
        .with_strategy(DecompositionStrategy::SizeThreshold)
        .mine(graph.clone());
    assert!(
        time_delayed.metrics.tasks_decomposed <= size_threshold.metrics.tasks_decomposed,
        "time-delayed created {} subtasks, size-threshold {}",
        time_delayed.metrics.tasks_decomposed,
        size_threshold.metrics.tasks_decomposed
    );
    assert_eq!(time_delayed.maximal, size_threshold.maximal);
}

#[test]
fn per_task_times_expose_the_skew_of_figures_1_and_2() {
    let (graph, params) = hard_core_graph();
    let out = run_with_tau_time(&graph, params, Duration::from_secs(3600));
    let per_root = out.metrics.per_root_totals();
    assert!(per_root.len() > 1);
    let slowest = per_root.first().unwrap().1;
    let fastest = per_root.last().unwrap().1;
    // Heavy-tailed task times: the slowest root should dominate the fastest by
    // a large factor (the paper reports orders of magnitude).
    assert!(
        slowest > fastest * 2,
        "expected skewed task times, got slowest={slowest:?} fastest={fastest:?}"
    );
}
