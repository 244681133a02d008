//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use qcm_graph::{
    bitset::{compact, VertexBitSet},
    io,
    kcore::{core_numbers, k_core_vertices, ks_core, Peel, PEELED},
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

/// Runs `peel`'s cascade to its end on `g`'s lists, counting each popped
/// vertex in `popped` and checking after every pop that no vertex seen out
/// (`out`) is back in, as a decrement of a `PEELED` entry would put it.
fn drain(peel: &mut Peel, g: &Graph, popped: &mut [u32], out: &mut [bool]) -> Result<(), String> {
    let neighbors = |v: u32| g.neighbors(VertexId::new(v)).iter().map(|w| w.raw());
    while let Some(x) = peel.pop(neighbors) {
        popped[x as usize] += 1;
        for (v, was_out) in out.iter_mut().enumerate() {
            let gone = !peel.contains(v as u32);
            prop_assert!(
                gone || !*was_out,
                "vertex {} came back after it was removed",
                v
            );
            *was_out = gone;
        }
    }
    Ok(())
}

/// The (k, s)-core by its definition: vertices and edges are dropped, a
/// pass at a time, until every vertex left has `k` neighbours and every edge
/// left `s` common neighbours. Returns which vertices are in and the edges
/// `(u, v)`, `u < v`, sorted.
fn naive_ks_core(g: &Graph, k: usize, s: usize) -> (Vec<bool>, Vec<(VertexId, VertexId)>) {
    let mut vertices = vec![true; g.num_vertices()];
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    loop {
        let adjacent = |edges: &[(VertexId, VertexId)], u: VertexId, v: VertexId| {
            edges.binary_search(&(u.min(v), u.max(v))).is_ok()
        };
        let degree = |edges: &[(VertexId, VertexId)], u: VertexId| {
            g.vertices().filter(|&w| adjacent(edges, u, w)).count()
        };
        let weak = g
            .vertices()
            .filter(|&u| vertices[u.index()] && degree(&edges, u) < k);
        let weak: Vec<VertexId> = weak.collect();
        weak.iter().for_each(|u| vertices[u.index()] = false);
        edges.retain(|&(u, v)| vertices[u.index()] && vertices[v.index()]);
        let support = |&(u, v): &(VertexId, VertexId)| {
            g.vertices()
                .filter(|&w| adjacent(&edges, u, w) && adjacent(&edges, v, w))
                .count()
        };
        let strong: Vec<(VertexId, VertexId)> =
            edges.iter().copied().filter(|e| support(e) >= s).collect();
        if weak.is_empty() && strong.len() == edges.len() {
            return (vertices, edges);
        }
        edges = strong;
    }
}

/// [`ks_core`] on `g` against [`naive_ks_core`]: the core's vertices, its
/// edges in both forms, and its suffix roots.
fn check_ks_core(g: Graph, k: usize, s: usize) -> Result<(), String> {
    let (vertices, edges) = naive_ks_core(&g, k, s);
    let g = Arc::new(g);
    let core = ks_core(&g, k, s);
    let ids: Vec<VertexId> = g.vertices().filter(|v| vertices[v.index()]).collect();
    prop_assert_eq!(core.graph.global_ids(), ids.as_slice());
    let masked = core.masked(&g);
    prop_assert!(masked.validate().is_ok());
    prop_assert_eq!(masked.num_vertices(), g.num_vertices());
    let mut kept: Vec<(VertexId, VertexId)> = masked.edges().collect();
    kept.sort_unstable();
    prop_assert_eq!(&kept, &edges);
    for (x, &v) in ids.iter().enumerate() {
        let listed = core.graph.neighbors(x as u32).iter();
        let listed: Vec<VertexId> = listed.map(|&w| ids[w as usize]).collect();
        prop_assert_eq!(masked.neighbors(v), listed.as_slice());
    }
    prop_assert_eq!(Arc::ptr_eq(&masked, &g), edges.len() == g.num_edges());
    // The suffix walk over the fixed point.
    let expected: Vec<VertexId> = ids
        .iter()
        .copied()
        .filter(|&v| {
            let suffix: Vec<VertexId> = ids.iter().copied().filter(|&u| u >= v).collect();
            let (sub, _) = induced_subgraph(&masked, &suffix);
            k_core_vertices(&sub, k).first() == Some(&VertexId::new(0))
        })
        .collect();
    prop_assert_eq!(core.roots, expected);
    Ok(())
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
        let (core, mapping) = induced_subgraph(&g, &k_core_vertices(&g, k));
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
        let masked = ks_core(&g, k, 0).masked(&g);
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
        prop_assert!(Arc::ptr_eq(&ks_core(&masked, k, 0).masked(&masked), &masked));
    }

    /// The peel drops a vertex below `k` without reading its list; on a
    /// graph where most vertices start there, the core is still exactly the
    /// vertices of core number `≥ k`, the masked form agrees, and its roots
    /// lie in the core.
    #[test]
    fn kcore_of_a_sparse_graph_with_a_small_core_is_exact(g in arb_sparse_with_core(), k in 0usize..9) {
        let core_nums = core_numbers(&g);
        let expected: Vec<VertexId> =
            g.vertices().filter(|v| core_nums[v.index()] as usize >= k).collect();
        let survivors = k_core_vertices(&g, k);
        prop_assert_eq!(&survivors, &expected);
        let g = Arc::new(g);
        let core = ks_core(&g, k, 0);
        let (masked, roots) = (core.masked(&g), core.roots);
        prop_assert!(roots.iter().all(|v| survivors.binary_search(v).is_ok()));
        for v in g.vertices() {
            let kept = masked.degree(v);
            if survivors.binary_search(&v).is_ok() {
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
        let peeled = ks_core(&g, k, 0);
        prop_assert_eq!(peeled.graph.global_ids(), core.as_slice());
        prop_assert_eq!(peeled.roots, expected);
    }

    /// The (k, s)-core is the naive fixed point — drop every vertex with
    /// fewer than `k` neighbours, then every edge with fewer than `s` common
    /// neighbours, and repeat until a pass drops nothing — in both its forms,
    /// and its roots are those of a suffix walk over that fixed point.
    #[test]
    fn ks_core_equals_the_naive_fixed_point(
        g in arb_graph(25),
        sparse in arb_sparse_with_core(),
        k in 0usize..6,
        s in 0usize..5,
    ) {
        check_ks_core(g, k, s)?;
        check_ks_core(sparse, k, s)?;
    }

    /// The peel kernel's contract, on any graph and `k`: with a pre-removed
    /// set out from the start, one seeded cascade, then removals in any
    /// order, each run to the end of its cascade, what stays in is the naive
    /// fixed point — drop any vertex with fewer than `k` neighbours in until
    /// none is left, over the vertices neither pre-removed nor removed. Every
    /// removed vertex is popped exactly once, a pre-removed one never, and no
    /// vertex comes back in.
    #[test]
    fn peel_kernel_equals_the_naive_fixed_point(
        g in arb_graph(25),
        k in 0usize..6,
        pre in proptest::collection::vec(0u8..5, 25),
        removals in proptest::collection::vec(0u32..25, 0..8),
    ) {
        let n = g.num_vertices();
        let pre: Vec<bool> = pre[..n].iter().map(|&x| x == 0).collect();
        let count_in = |v: VertexId, keep: &[bool]| {
            g.neighbors(v).iter().filter(|w| keep[w.index()]).count()
        };
        let mine: Vec<bool> = pre.iter().map(|&p| !p).collect();
        let degree = g.vertices().map(|v| if pre[v.index()] { PEELED } else { count_in(v, &mine) as u32 });
        let mut peel = Peel::new(degree.collect(), k);
        let (mut popped, mut out) = (vec![0u32; n], pre.clone());
        peel.seed(0..n as u32);
        drain(&mut peel, &g, &mut popped, &mut out)?;
        let mut naive = mine;
        for &r in &removals {
            let r = r % n as u32;
            if peel.contains(r) {
                peel.remove(r);
                drain(&mut peel, &g, &mut popped, &mut out)?;
            }
            naive[r as usize] = false;
        }
        while let Some(v) = g.vertices().find(|&v| naive[v.index()] && count_in(v, &naive) < k) {
            naive[v.index()] = false;
        }
        let survivors: Vec<bool> = (0..n as u32).map(|v| peel.contains(v)).collect();
        prop_assert_eq!(&survivors, &naive);
        for v in 0..n {
            let removed = !pre[v] && !survivors[v];
            prop_assert_eq!(popped[v], u32::from(removed), "vertex {} popped {} times", v, popped[v]);
        }
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
