//! The search itself, pinned: how many tree nodes the serial miner expands on
//! the Enron stand-in and what each pruning rule cuts. A kernel change —
//! carried degrees, cached two-hop rows, a different task build — must leave
//! every one of these where it is; a change that alters pruning on purpose
//! edits the numbers here and says why.
//!
//! The values are those of the benchmark's `core.*` rows on
//! `mine_hubs_serial` at `--seed 1`.

use qcm::prelude::*;
use qcm_sync::Arc;

#[test]
fn serial_search_on_the_enron_standin_repeats_to_the_last_digit() {
    let spec = qcm::gen::datasets::enron();
    let graph = spec.generate().graph;
    let out = SerialMiner::new(MiningParams::new(spec.gamma, spec.min_size)).mine(&graph);
    assert!(out.outcome.is_complete());
    assert_eq!(out.maximal.len(), 5, "maximal");
    let stats = out.stats;
    assert_eq!(stats.nodes_expanded, 26_423, "nodes_expanded");
    assert_eq!(stats.bounding_rounds, 35_815, "bounding_rounds");
    assert_eq!(stats.type1_pruned, 372_616, "type1_pruned");
    assert_eq!(stats.type2_pruned, 21_306, "type2_pruned");
    assert_eq!(stats.cover_skipped, 26_303, "cover_skipped");
    assert_eq!(stats.critical_moves, 4_484, "critical_moves");
    assert_eq!(stats.lookahead_hits, 15, "lookahead_hits");
}

#[test]
fn two_threads_report_the_serial_set_and_drop_nothing() {
    let spec = qcm::gen::datasets::cx_gse10158();
    let graph = Arc::new(spec.generate().graph);
    let params = MiningParams::new(spec.gamma, spec.min_size);
    let serial = SerialMiner::new(params).mine(&graph);
    assert!(!serial.maximal.is_empty());
    let parallel = ParallelMiner::new(params, EngineConfig::cluster(1, 2)).mine(graph.clone());
    assert!(parallel.outcome().is_complete());
    assert_eq!(parallel.maximal, serial.maximal);
    assert_eq!(parallel.invalid_sets_dropped, 0);
}

#[test]
fn serial_search_on_the_youtube_standin_repeats_to_the_last_digit() {
    let spec = qcm::gen::datasets::youtube();
    let graph = spec.generate().graph;
    let out = SerialMiner::new(MiningParams::new(spec.gamma, spec.min_size)).mine(&graph);
    assert!(out.outcome.is_complete());
    assert_eq!(out.maximal.len(), 227, "maximal");
    let stats = out.stats;
    assert_eq!(stats.nodes_expanded, 143_544, "nodes_expanded");
    assert_eq!(stats.bounding_rounds, 198_017, "bounding_rounds");
    assert_eq!(stats.type1_pruned, 1_085_034, "type1_pruned");
    assert_eq!(stats.type2_pruned, 111_166, "type2_pruned");
    assert_eq!(stats.cover_skipped, 159_989, "cover_skipped");
    assert_eq!(stats.critical_moves, 58_118, "critical_moves");
    assert_eq!(stats.lookahead_hits, 136, "lookahead_hits");
}
