//! Generators shared by the qcm-core property suites.

use proptest::prelude::*;
use qcm_core::MiningParams;
use qcm_graph::{Graph, GraphBuilder};

/// Random simple graph with `n ≤ max_n` vertices and bounded edge count.
pub fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4usize..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new();
                b.set_min_vertices(n);
                for (a, x) in edges {
                    b.add_edge_raw(a, x);
                }
                b.build()
            },
        )
    })
}

/// Random mining parameters in the ranges the paper uses (γ ∈ [0.5, 1.0]).
pub fn arb_params() -> impl Strategy<Value = MiningParams> {
    (5u32..=10, 3usize..=5)
        .prop_map(|(g10, min_size)| MiningParams::new(g10 as f64 / 10.0, min_size))
}
