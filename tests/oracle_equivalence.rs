//! Cross-crate oracle tests: the serial miner, the parallel miner (with both
//! decomposition strategies) and the brute-force oracle must agree exactly on
//! small arithmetic and planted graphs.
//!
//! This is the project's strongest end-to-end correctness statement: the
//! paper's central algorithmic claim is that, unlike Quick, its algorithm
//! misses no maximal quasi-clique, and the system side (task decomposition,
//! queues, spilling) must not change the result set either. Each test is a
//! leg of the differential harness, whose `oracle` surface runs the naive
//! oracle on graphs of up to 14 vertices and checks Quick against the
//! serial answer.

mod common;

use common::harness::leg;

// Arithmetic graphs of 13 or 14 vertices at γ from 0.4 to 1: seeds 0–3 for
// the first test, 4–5 for the second, 6–9 for the third
// (`tests/common/harness.rs`, `legs`).

/// The naive oracle, the serial miner and every cluster shape agree, on
/// both sides of γ = ½.
#[test]
fn serial_parallel_and_oracle_agree_on_arithmetic_graphs() {
    leg("serial_parallel_and_oracle_agree_on_arithmetic_graphs");
}

/// τ_split = 1 and τ_time = 0 force the maximum possible amount of task
/// decomposition; the result set must be unchanged for both strategies.
#[test]
fn forced_decomposition_does_not_change_results() {
    leg("forced_decomposition_does_not_change_results");
}

/// Every set Quick reports is in the serial answer, which is the oracle's.
#[test]
fn quick_baseline_reports_no_spurious_results() {
    leg("quick_baseline_reports_no_spurious_results");
}

/// Every planted near-clique of the `tiny-test` dataset lies in some
/// reported maximal quasi-clique, for serial and parallel alike.
#[test]
fn planted_communities_are_recovered_exactly() {
    assert!(leg("planted_communities_are_recovered_exactly").answers > 0);
}
