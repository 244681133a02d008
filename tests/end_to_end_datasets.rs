//! End-to-end runs on (scaled-down versions of) the synthetic stand-in
//! datasets, mirroring the Table 2 pipeline: generate → mine on the
//! differential harness's surfaces → check the result sets against the
//! planted ground truth and the serial reference.
//!
//! The full-size stand-ins are exercised by the release-mode experiment
//! harness (`qcm-bench`); these debug-mode tests shrink the specs so the whole
//! suite stays fast.

use qcm::prelude::*;

mod common;

use common::harness::leg;

// Each stand-in shrunk, at its own seed, γ and τ_size
// (`tests/common/harness.rs`, `legs`).

/// Every reported set is a valid quasi-clique of at least τ_size members,
/// and every planted community lies in one, serial and parallel alike; each
/// stand-in plants some, so no answer is empty.
#[test]
fn every_dataset_standin_yields_its_planted_communities() {
    let tally = leg("every_dataset_standin_yields_its_planted_communities");
    let standins = qcm::gen::datasets::all_datasets().len();
    assert!(tally.answers >= standins, "{tally:?}");
}

/// CX_GSE1730 and Amazon on every cluster shape.
#[test]
fn parallel_equals_serial_on_two_shrunk_datasets() {
    leg("parallel_equals_serial_on_two_shrunk_datasets");
}

#[test]
fn dataset_table1_shapes_are_reported() {
    // The Table 1 regeneration path: every stand-in reports |V| and |E| and
    // the generated sizes match the spec's vertex budget.
    for spec in qcm::gen::datasets::all_datasets() {
        let spec = common::shrink(&spec);
        let dataset = spec.generate();
        let stats = GraphStats::compute(&dataset.graph);
        assert_eq!(stats.num_vertices, spec.num_vertices);
        assert!(stats.num_edges > 0);
        assert!(stats.max_degree >= spec.min_size - 1);
    }
}
