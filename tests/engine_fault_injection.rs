//! Stress/fault-injection tests of the engine running the real quasi-clique
//! application, as legs of the differential harness: pathological queue
//! capacities (forcing constant spilling), a one-entry vertex cache, skewed
//! partitioning with many machines, dropped pulls and spill directories on
//! disk. In every scenario the result set must match the serial reference
//! and no spill file may be left behind; a run that loses tasks must say so
//! and publish only serial-maximal sets.

mod common;

use common::harness::leg;

// A 250-vertex planted graph with communities of 9, 8 and 8 on a heavy-tailed
// background, mined at γ = 0.8, τ_size = 7; and the 400-vertex graph with
// nine communities of `tests/fault_scenarios.rs`, mined as it is mined, at
// γ = 0.7, τ_size = 8 (`tests/common/harness.rs`, `legs`).

/// 2-slot queues under full decomposition: every spilled byte is read back
/// and the spill directory ends empty.
#[test]
fn tiny_queues_with_disk_spill_produce_correct_results() {
    leg("tiny_queues_with_disk_spill_produce_correct_results");
}

/// Four machines of two threads behind a one-entry cache still pull, and
/// still find the serial answer.
#[test]
fn one_entry_vertex_cache_is_only_a_performance_problem() {
    leg("one_entry_vertex_cache_is_only_a_performance_problem");
}

/// The `shapes` surface runs up to eight machines of one thread.
#[test]
fn more_machines_than_meaningful_work_still_terminates() {
    leg("more_machines_than_meaningful_work_still_terminates");
}

/// All interesting vertices of the nine communities hash to a few machines
/// when the cluster is wide, and the others run dry and ask for work.
/// Whether a live ask moves a task depends on the wall clock, so the live
/// runs only have to stay correct; the simulator's asks run in virtual time,
/// and under full decomposition they must move some.
#[test]
fn stealing_moves_big_tasks_under_skew() {
    leg("stealing_moves_big_tasks_under_skew");
}

/// The empty graph and 50 isolated vertices hold no set, a triangle one, on
/// every surface.
#[test]
fn empty_and_trivial_graphs_are_handled() {
    assert_eq!(leg("empty_and_trivial_graphs_are_handled").answers, 1);
}

/// The strict transport serialises every message and loses the first three
/// pulls; the vertex table retries through the timeout path, no pull fails,
/// and the serial answer comes back.
#[test]
fn dropped_pulls_are_retried_until_the_results_are_correct() {
    leg("dropped_pulls_are_retried_until_the_results_are_correct");
}

/// The partial-result contract holds on the live driver too: a pull that
/// runs out of retries abandons its task, names the task's root in
/// `lost_roots`, and every set the run still publishes is one the serial
/// miner proves maximal. Drops land on whichever tasks pull first, so the
/// `fault` surface sweeps how many are armed.
#[test]
fn live_faulted_runs_report_only_serial_maximal_sets() {
    leg("live_faulted_runs_report_only_serial_maximal_sets");
}
