//! Cross-crate oracle tests: the serial miner, the parallel miner (with both
//! decomposition strategies) and the brute-force oracle must agree exactly on
//! small random and planted graphs.
//!
//! This is the project's strongest end-to-end correctness statement: the
//! paper's central algorithmic claim is that, unlike Quick, its algorithm
//! misses no maximal quasi-clique, and the system side (task decomposition,
//! queues, spilling) must not change the result set either.

use qcm::core::naive;
use qcm::parallel::DecompositionStrategy;
use qcm::prelude::*;
use qcm_sync::Arc;
use std::time::Duration;

/// Deterministic pseudo-random small graphs without pulling in a RNG: a
/// Paley-like construction over `n` vertices where `(a, b)` is an edge iff
/// `(a*a + b*b + seed) % modulus < threshold`.
fn arithmetic_graph(n: usize, seed: u64, threshold: u64, modulus: u64) -> Graph {
    let mut builder = GraphBuilder::new();
    builder.set_min_vertices(n);
    for a in 0..n as u64 {
        for b in (a + 1)..n as u64 {
            if (a * a + b * b + seed) % modulus < threshold {
                builder.add_edge_raw(a as u32, b as u32);
            }
        }
    }
    builder.build()
}

fn all_configs() -> Vec<(f64, usize)> {
    vec![(0.5, 4), (0.6, 4), (0.7, 3), (0.8, 3), (0.9, 4), (1.0, 3)]
}

#[test]
fn serial_parallel_and_oracle_agree_on_arithmetic_graphs() {
    for (i, (seed, threshold, modulus)) in
        [(1u64, 11u64, 29u64), (7, 13, 31), (23, 9, 23), (5, 17, 37)]
            .iter()
            .enumerate()
    {
        let g = arithmetic_graph(13, *seed, *threshold, *modulus);
        for (gamma, min_size) in all_configs() {
            let params = MiningParams::new(gamma, min_size);
            let oracle = naive::maximal_quasi_cliques(&g, &params);
            let shared = Arc::new(g.clone());
            let serial = Session::builder()
                .params(params)
                .build()
                .unwrap()
                .run(&shared)
                .unwrap();
            assert_eq!(
                serial.maximal, oracle,
                "serial != oracle (graph #{i}, gamma={gamma}, min_size={min_size})"
            );
            let parallel = Session::builder()
                .params(params)
                .backend(Backend::parallel(3, 1))
                .build()
                .unwrap()
                .run(&shared)
                .unwrap();
            assert_eq!(
                parallel.maximal, oracle,
                "parallel != oracle (graph #{i}, gamma={gamma}, min_size={min_size})"
            );
        }
    }
}

#[test]
fn forced_decomposition_does_not_change_results() {
    // τ_split = 1 and τ_time = 0 force the maximum possible amount of task
    // decomposition; the result set must be unchanged for both strategies.
    let g = Arc::new(arithmetic_graph(14, 3, 12, 27));
    let params = MiningParams::new(0.7, 4);
    let oracle = naive::maximal_quasi_cliques(&g, &params);

    let miner = ParallelMiner::new(params, EngineConfig::single_machine(4))
        .with_decomposition(1, Duration::ZERO);

    let time_delayed = miner.mine(g.clone());
    assert_eq!(
        time_delayed.maximal, oracle,
        "time-delayed decomposition lost results"
    );

    let size_threshold = miner
        .with_strategy(DecompositionStrategy::SizeThreshold)
        .mine(g.clone());
    assert_eq!(
        size_threshold.maximal, oracle,
        "size-threshold decomposition lost results"
    );
}

#[test]
fn quick_baseline_reports_no_spurious_results() {
    let g = arithmetic_graph(13, 11, 10, 21);
    for (gamma, min_size) in all_configs() {
        let params = MiningParams::new(gamma, min_size);
        let oracle = naive::maximal_quasi_cliques(&g, &params);
        let quick = quick_mine(&g, params);
        for r in quick.maximal.iter() {
            assert!(
                oracle.contains(r),
                "quick baseline fabricated {r:?} at gamma={gamma}"
            );
        }
    }
}

#[test]
fn planted_communities_are_recovered_exactly() {
    // Every planted near-clique must be contained in some reported maximal
    // quasi-clique, for serial and parallel alike.
    let dataset = qcm::gen::datasets::tiny_test_dataset(42);
    let params = MiningParams::new(dataset.spec.gamma, dataset.spec.min_size);
    let graph = Arc::new(dataset.graph.clone());
    let serial = Session::builder()
        .params(params)
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    let parallel = Session::builder()
        .params(params)
        .backend(Backend::parallel(4, 1))
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    assert_eq!(serial.maximal, parallel.maximal);
    for community in &dataset.planted {
        assert!(
            serial.maximal.contains_superset_of(&community.members),
            "planted community {:?} not recovered",
            community.members
        );
    }
}
