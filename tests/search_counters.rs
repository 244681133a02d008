//! The search itself, pinned: how many tree nodes the serial miner expands on
//! the Enron stand-in and what each pruning rule cuts. A kernel change —
//! carried degrees, cached two-hop rows, a different task build — must leave
//! every one of these where it is; a change that alters pruning on purpose
//! edits the numbers here and says why. The search runs on the (k, s)-core,
//! which is unique, so any correct global peel gives these numbers.
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
    assert_eq!(stats.nodes_expanded, 11_376, "nodes_expanded");
    assert_eq!(stats.bounding_rounds, 17_886, "bounding_rounds");
    assert_eq!(stats.type1_pruned, 22_343, "type1_pruned");
    assert_eq!(stats.type2_pruned, 7_793, "type2_pruned");
    assert_eq!(stats.cover_skipped, 22_882, "cover_skipped");
    assert_eq!(stats.critical_moves, 4_578, "critical_moves");
    assert_eq!(stats.lookahead_hits, 11, "lookahead_hits");
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
    assert_eq!(stats.nodes_expanded, 111_631, "nodes_expanded");
    assert_eq!(stats.bounding_rounds, 160_944, "bounding_rounds");
    assert_eq!(stats.type1_pruned, 153_799, "type1_pruned");
    assert_eq!(stats.type2_pruned, 81_788, "type2_pruned");
    assert_eq!(stats.cover_skipped, 154_301, "cover_skipped");
    assert_eq!(stats.critical_moves, 58_109, "critical_moves");
    assert_eq!(stats.lookahead_hits, 136, "lookahead_hits");
}
