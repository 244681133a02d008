//! Property-based tests for the hybrid bitset neighborhood index: on random
//! graphs, across the degree-threshold boundary, edge queries and
//! intersections through the index must agree **exactly** with the plain CSR
//! binary-search path.

use proptest::prelude::*;
use qcm_graph::{
    bitset::VertexBitSet,
    neighborhoods::auto_threshold,
    subgraph::{LocalGraph, ALL_ROWS_MAX_VERTICES},
    Graph, GraphBuilder, IndexSpec, NeighborhoodIndex, VertexId,
};
use qcm_sync::Arc;

/// Strategy producing a random simple graph with up to `max_n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.min(200)).prop_map(
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

/// Thresholds straddling every interesting boundary: auto, 0 (all vertices
/// indexed), tiny values around real degrees, and one far above the maximum
/// degree (no vertex indexed).
fn arb_spec() -> impl Strategy<Value = IndexSpec> {
    (0usize..14).prop_map(|k| match k {
        0 => IndexSpec::Auto,
        1 => IndexSpec::Threshold(usize::MAX),
        t => IndexSpec::Threshold(t - 2),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_edge_queries_agree_with_csr(g in arb_graph(24), spec in arb_spec()) {
        let g = Arc::new(g);
        let idx = NeighborhoodIndex::build(g.clone(), spec);
        for u in g.vertices() {
            for v in g.vertices() {
                prop_assert_eq!(
                    idx.has_edge(u, v),
                    g.has_edge(u, v),
                    "spec {:?}, pair ({}, {})", spec, u, v
                );
            }
        }
    }

    #[test]
    fn index_intersections_agree_with_sorted_merge(g in arb_graph(20), spec in arb_spec()) {
        let g = Arc::new(g);
        let idx = NeighborhoodIndex::build(g.clone(), spec);
        for u in g.vertices() {
            for v in g.vertices() {
                prop_assert_eq!(
                    idx.common_neighbor_count(u, v),
                    g.common_neighbor_count(u, v),
                    "spec {:?}, pair ({}, {})", spec, u, v
                );
            }
        }
    }

    #[test]
    fn local_graph_hub_index_agrees_across_threshold_boundary(
        g in arb_graph(20),
        threshold in 0usize..10,
    ) {
        let all: Vec<VertexId> = g.vertices().collect();
        let plain = LocalGraph::from_induced(&g, &all);
        let mut indexed = plain.clone();
        indexed.build_hub_index(IndexSpec::Threshold(threshold));
        // The index is derived data: structural equality must hold.
        prop_assert_eq!(&plain, &indexed);
        let n = plain.capacity() as u32;
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(
                    indexed.has_edge(a, b),
                    plain.has_edge(a, b),
                    "threshold {}, pair ({}, {})", threshold, a, b
                );
            }
        }
    }

    /// `IndexSpec::Auto` gives every vertex a row up to `ALL_ROWS_MAX_VERTICES`
    /// vertices and only the hubs one vertex later. On either side of that
    /// boundary the rows must answer like the adjacency lists — edge queries,
    /// and degrees counted as row ∩ all vertices.
    #[test]
    fn local_graph_rows_agree_across_the_all_row_size_boundary(
        over in 0usize..=1,
        hub_extra in 0usize..40,
        edges in proptest::collection::vec((0u32..5000, 0u32..5000), 0..300),
    ) {
        let n = ALL_ROWS_MAX_VERTICES + over;
        let id = |x: u32| x % n as u32;
        let mut b = GraphBuilder::new();
        b.set_min_vertices(n);
        // Vertex 0 is a hub on either side of the hybrid threshold.
        let hub_degree = auto_threshold(n) - 20 + hub_extra;
        for w in 1..=hub_degree as u32 {
            b.add_edge_raw(0, w * 7 % n as u32);
        }
        for &(a, x) in &edges {
            b.add_edge_raw(id(a), id(x));
        }
        let g = b.build();
        let all: Vec<VertexId> = g.vertices().collect();
        let plain = LocalGraph::from_induced(&g, &all);
        let mut indexed = plain.clone();
        let threshold = indexed.build_hub_index(IndexSpec::Auto);
        if over == 0 {
            prop_assert_eq!(threshold, 0);
            prop_assert_eq!(indexed.hub_count(), n);
            prop_assert!(indexed.hub_index_memory_bytes() <= (2 << 20) + 4 * n);
        } else {
            prop_assert_eq!(threshold, auto_threshold(n));
            let hubs = (0..n as u32).filter(|&i| plain.degree(i) >= threshold).count();
            prop_assert_eq!(indexed.hub_count(), hubs);
        }
        let everyone = VertexBitSet::from_members(n, &(0..n as u32).collect::<Vec<u32>>());
        let mut probes: Vec<u32> = edges.iter().flat_map(|&(a, x)| [id(a), id(x)]).collect();
        probes.extend([0, 7, n as u32 - 1]);
        for &a in &probes {
            for &x in &probes {
                prop_assert_eq!(indexed.has_edge(a, x), plain.has_edge(a, x), "pair ({}, {})", a, x);
            }
            if let Some(row) = indexed.hub_row(a) {
                prop_assert_eq!(everyone.intersection_count_row(row), plain.degree(a), "row of {}", a);
            }
        }
    }

    #[test]
    fn bitset_ops_match_naive_sets(
        a_raw in proptest::collection::vec(0u32..128, 0..40),
        b_raw in proptest::collection::vec(0u32..128, 0..40),
    ) {
        let a: std::collections::BTreeSet<u32> = a_raw.iter().copied().collect();
        let b: std::collections::BTreeSet<u32> = b_raw.iter().copied().collect();
        let sa = VertexBitSet::from_members(128, &a_raw);
        let sb = VertexBitSet::from_members(128, &b_raw);
        prop_assert_eq!(sa.len(), a.len());
        prop_assert_eq!(sa.intersection_count(&sb), a.intersection(&b).count());
        let mut inter = sa.clone();
        inter.intersect_with(&sb);
        let got: Vec<u32> = inter.iter().collect();
        let expected: Vec<u32> = a.intersection(&b).copied().collect();
        prop_assert_eq!(got, expected);
        let mut uni = sa.clone();
        uni.union_with(&sb);
        prop_assert_eq!(uni.len(), a.union(&b).count());
    }
}
