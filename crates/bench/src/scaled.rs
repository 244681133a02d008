//! Scaled-down dataset variants for quick harness runs and tests.
//!
//! `experiments --quick`, the benchmark of record's smoke mode and the
//! harness tests use these reduced specs (a few hundred to a few thousand
//! vertices) while full runs use the stand-in sizes. The scaling keeps the
//! mining parameters and the structural ingredients (power-law background,
//! planted communities, hard core) intact so the qualitative shapes survive.

use qcm_gen::DatasetSpec;

/// A medium reduction (~quarter scale) used by `experiments --quick`.
pub fn bench_scale(spec: &DatasetSpec) -> DatasetSpec {
    let mut s = spec.clone();
    s.num_vertices = (s.num_vertices / 4).clamp(400, 5_000);
    s.max_degree = s.max_degree.min(s.num_vertices as f64 / 10.0).max(20.0);
    s.planted_sizes.truncate(3);
    for size in &mut s.planted_sizes {
        *size = (*size).min(s.min_size + 3).max(s.min_size);
    }
    s.hard_core = s.hard_core.map(|(size, p)| (size.min(30), p.min(0.62)));
    s
}

/// A strong reduction used by unit tests of the harness itself.
pub fn tiny(spec: &DatasetSpec) -> DatasetSpec {
    let mut s = spec.clone();
    s.num_vertices = s.num_vertices.min(500);
    s.max_degree = s.max_degree.min(50.0);
    s.planted_sizes.truncate(2);
    for size in &mut s.planted_sizes {
        *size = (*size).min(s.min_size + 2).max(s.min_size);
    }
    s.hard_core = s.hard_core.map(|(size, p)| (size.min(18), p.min(0.58)));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_preserves_mining_parameters() {
        for spec in qcm_gen::datasets::all_datasets() {
            for scaled in [bench_scale(&spec), tiny(&spec)] {
                assert_eq!(scaled.gamma, spec.gamma);
                assert_eq!(scaled.min_size, spec.min_size);
                assert!(scaled.num_vertices <= spec.num_vertices);
                assert!(!scaled.planted_sizes.is_empty());
                for size in &scaled.planted_sizes {
                    assert!(*size >= scaled.min_size);
                }
            }
        }
    }

    #[test]
    fn scaled_datasets_generate() {
        let spec = tiny(&qcm_gen::datasets::youtube());
        let ds = spec.generate();
        assert_eq!(ds.graph.num_vertices(), spec.num_vertices);
        assert!(!ds.planted.is_empty());
    }
}
