//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use qcm_graph::{
    bitset::{compact, VertexBitSet},
    io, k_core,
    kcore::{
        core_numbers, k_core_masked, k_core_masked_with_vertices, k_core_vertices, suffix_roots,
    },
    subgraph::{induced_subgraph, LocalGraph},
    traversal::{bfs_distances, connected_components, two_hop_neighborhood},
    Graph, GraphBuilder, VertexId,
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

/// Strategy producing a sparse graph in which most vertices start below a
/// small `k`: a dense random block on the first ids (the would-be core), a
/// sparse random fringe over every id, and at least one isolated id at the
/// end.
fn arb_sparse_with_core() -> impl Strategy<Value = Graph> {
    (4usize..=12, 20usize..=150, 1usize..=10).prop_flat_map(|(core, fringe, isolated)| {
        let linked = core + fringe;
        let block = proptest::collection::vec((0..core as u32, 0..core as u32), 0..=core * core);
        let sparse = proptest::collection::vec((0..linked as u32, 0..linked as u32), 0..=fringe);
        (block, sparse).prop_map(move |(block, sparse)| {
            let mut b = GraphBuilder::new();
            b.set_min_vertices(linked + isolated);
            for (a, x) in block.into_iter().chain(sparse) {
                b.add_edge_raw(a, x);
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn built_graphs_satisfy_csr_invariants(g in arb_graph(30)) {
        prop_assert!(g.validate().is_ok());
        // Handshake lemma.
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn has_edge_is_symmetric(g in arb_graph(20)) {
        for u in g.vertices() {
            for v in g.vertices() {
                prop_assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn kcore_vertices_all_have_degree_at_least_k(g in arb_graph(30), k in 1usize..6) {
        let (core, mapping) = k_core(&g, k);
        core.validate().unwrap();
        for v in core.vertices() {
            prop_assert!(core.degree(v) >= k,
                "vertex {} (global {}) has degree {} < k={}",
                v, mapping[v.index()], core.degree(v), k);
        }
    }

    #[test]
    fn kcore_is_maximal(g in arb_graph(25), k in 0usize..9) {
        // No vertex outside the k-core could be added back: in the subgraph
        // induced by (core ∪ {v}) vertex v must have degree < k OR v fails to
        // survive because the peeling order doesn't matter (k-core is unique).
        let survivors = k_core_vertices(&g, k);
        let core_nums = core_numbers(&g);
        for v in g.vertices() {
            let in_core = survivors.binary_search(&v).is_ok();
            prop_assert_eq!(in_core, core_nums[v.index()] as usize >= k);
        }
    }

    #[test]
    fn masked_kcore_is_the_kcore_in_the_callers_id_space(g in arb_graph(30), k in 0usize..6) {
        let g = Arc::new(g);
        let survivors = k_core_vertices(&g, k);
        let masked = k_core_masked(&g, k);
        prop_assert!(masked.validate().is_ok());
        prop_assert_eq!(masked.num_vertices(), g.num_vertices());
        for v in g.vertices() {
            let expected: Vec<VertexId> = if survivors.binary_search(&v).is_ok() {
                let in_core = |w: &&VertexId| survivors.binary_search(w).is_ok();
                g.neighbors(v).iter().filter(in_core).copied().collect()
            } else {
                Vec::new()
            };
            prop_assert_eq!(masked.neighbors(v), expected.as_slice(), "vertex {}", v);
        }
        // No edge cut: the very same graph comes back. So does a second
        // peel's input, always.
        prop_assert_eq!(Arc::ptr_eq(&masked, &g), *masked == *g);
        prop_assert!(Arc::ptr_eq(&k_core_masked(&masked, k), &masked));
    }

    /// The peel drops a vertex below `k` without reading its list; on a
    /// graph where most vertices start there, the core is still exactly the
    /// vertices of core number `≥ k`, and the masked form's list agrees.
    #[test]
    fn kcore_of_a_sparse_graph_with_a_small_core_is_exact(g in arb_sparse_with_core(), k in 0usize..9) {
        let core_nums = core_numbers(&g);
        let expected: Vec<VertexId> =
            g.vertices().filter(|v| core_nums[v.index()] as usize >= k).collect();
        let survivors = k_core_vertices(&g, k);
        prop_assert_eq!(&survivors, &expected);
        let g = Arc::new(g);
        let (masked, listed) = k_core_masked_with_vertices(&g, k);
        prop_assert_eq!(&listed, &survivors);
        for v in g.vertices() {
            let kept = masked.degree(v);
            if listed.binary_search(&v).is_ok() {
                prop_assert!(kept >= k, "core vertex {} keeps degree {} < {}", v, kept, k);
            } else {
                prop_assert_eq!(kept, 0, "peeled vertex {} kept an edge", v);
            }
        }
    }

    #[test]
    fn induced_subgraph_preserves_edges(g in arb_graph(25)) {
        // Take every other vertex.
        let vs: Vec<VertexId> = g.vertices().filter(|v| v.raw() % 2 == 0).collect();
        let (sub, mapping) = induced_subgraph(&g, &vs);
        sub.validate().unwrap();
        for u in sub.vertices() {
            for v in sub.vertices() {
                if u < v {
                    prop_assert_eq!(
                        sub.has_edge(u, v),
                        g.has_edge(mapping[u.index()], mapping[v.index()])
                    );
                }
            }
        }
    }

    #[test]
    fn local_graph_matches_induced_subgraph(g in arb_graph(25)) {
        let vs: Vec<VertexId> = g.vertices().filter(|v| v.raw() % 3 != 0).collect();
        let (sub, _) = induced_subgraph(&g, &vs);
        let lg = LocalGraph::from_induced(&g, &vs);
        prop_assert_eq!(sub.num_vertices(), lg.capacity());
        prop_assert_eq!(sub.num_edges(), lg.num_edges());
        for v in sub.vertices() {
            let local: Vec<u32> = sub.neighbors(v).iter().map(|w| w.raw()).collect();
            prop_assert_eq!(lg.neighbors(v.raw()), local.as_slice());
        }
    }

    #[test]
    fn two_hop_neighborhood_is_sound(g in arb_graph(25)) {
        for v in g.vertices() {
            let dist = bfs_distances(&g, v);
            let bbar = two_hop_neighborhood(&g, v);
            // Everything in B̄(v) is within distance 2 and != v.
            for w in &bbar {
                prop_assert!(dist[w.index()] <= 2 && *w != v);
            }
            // Everything within distance 1..=2 is in B̄(v).
            for w in g.vertices() {
                if w != v && dist[w.index()] <= 2 && dist[w.index()] > 0 {
                    prop_assert!(bbar.binary_search(&w).is_ok());
                }
            }
        }
    }

    #[test]
    fn components_partition_the_vertex_set(g in arb_graph(30)) {
        let comps = connected_components(&g);
        let total: usize = comps.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.num_vertices());
        let mut seen = vec![false; g.num_vertices()];
        for comp in &comps {
            for v in comp {
                prop_assert!(!seen[v.index()]);
                seen[v.index()] = true;
            }
        }
    }

    #[test]
    fn binary_io_roundtrip(g in arb_graph(30)) {
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        let g2 = io::read_binary(buf.as_slice()).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_io_preserves_edges(g in arb_graph(30)) {
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = io::read_edge_list(buf.as_slice()).unwrap();
        prop_assert_eq!(g2.num_edges(), g.num_edges());
    }

    /// The suffix-core walk keeps exactly the core vertices `v` that lie in
    /// the k-core of `G[{u ≥ v}]`.
    #[test]
    fn suffix_roots_lie_in_their_suffix_core(g in arb_graph(25), k in 0usize..5) {
        let core = k_core_vertices(&g, k);
        let expected: Vec<VertexId> = core
            .iter()
            .copied()
            .filter(|&v| {
                let suffix: Vec<VertexId> = g.vertices().filter(|&u| u >= v).collect();
                let (sub, _) = induced_subgraph(&g, &suffix);
                k_core_vertices(&sub, k).first() == Some(&VertexId::new(0))
            })
            .collect();
        prop_assert_eq!(suffix_roots(&g, &core, k), expected);
    }

    /// The branch-free compaction keeps what `iter().filter()` keeps, in the
    /// same order, hands the predicate each item's original index, and
    /// counts the rest. Clearing each dropped item's bit with `remove_if`,
    /// as the search does, leaves the bits equal to the kept list.
    #[test]
    fn compaction_equals_filter_in_order(
        raw in proptest::collection::vec((0u32..200, 0u8..2), 0..80),
    ) {
        let mut items: Vec<u32> = Vec::new();
        let mut keep: Vec<bool> = Vec::new();
        for (item, flag) in raw {
            if !items.contains(&item) {
                items.push(item);
                keep.push(flag == 1);
            }
        }
        let expected: Vec<u32> = items
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(&item, _)| item)
            .collect();
        let mut bits = VertexBitSet::from_members(200, &items);
        let mut compacted = items.clone();
        let dropped = compact(&mut compacted, |j, item| {
            assert_eq!(items[j], item);
            bits.remove_if(item, !keep[j]);
            keep[j]
        });
        prop_assert_eq!(dropped, items.len() - expected.len());
        let mut sorted = expected.clone();
        sorted.sort_unstable();
        prop_assert_eq!(compacted, expected);
        prop_assert_eq!(bits.iter().collect::<Vec<_>>(), sorted);
    }
}
