//! Helpers shared by the workspace-level test targets. Each target uses
//! part of them.
#![allow(dead_code)]

pub mod harness;

use qcm::prelude::DatasetSpec;

/// Shrinks a dataset spec to a debug-test-friendly size while keeping its
/// mining parameters and structural character.
pub fn shrink(spec: &DatasetSpec) -> DatasetSpec {
    let mut s = spec.clone();
    s.num_vertices = s.num_vertices.min(600);
    s.max_degree = s.max_degree.min(60.0);
    // Keep at most two planted communities and cap their size so that the
    // debug-mode miner finishes quickly.
    s.planted_sizes.truncate(2);
    for size in &mut s.planted_sizes {
        *size = (*size).min(s.min_size + 2).max(s.min_size);
    }
    s.hard_core = s.hard_core.map(|(size, p)| (size.min(20), p.min(0.6)));
    s
}
