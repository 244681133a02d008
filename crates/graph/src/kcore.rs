//! k-core decomposition by peeling.
//!
//! The size-threshold pruning rule (P2 / Theorem 2 of the paper) states that a
//! vertex with degree `< k = ⌈γ·(τ_size − 1)⌉` cannot belong to any valid
//! quasi-clique, so the input graph can be shrunk to its k-core before mining.
//! The paper adopts the O(|E|) peeling algorithm of Batagelj & Zaversnik \[13\];
//! this module implements both the targeted `k_core` extraction and the full
//! core-number decomposition (used by the experiment harness for workload
//! characterisation and by the generators for calibration).
//!
//! The targeted extraction peels from the *candidates*, the vertices of degree
//! `≥ k`: every other vertex is dropped on sight, its adjacency list unread,
//! so the peel costs O(n + Σ_{deg(v) ≥ k} deg(v)) rather than O(n + |E|). On a
//! sparse graph with a small core most vertices start below `k`.
//!
//! [`SuffixCores`] goes one step further for the miners: it walks the core in
//! id order and keeps a vertex as a root only if it lies in the k-core of the
//! vertices from it up, the only roots whose task can hold a result.

use crate::graph::Graph;
use crate::subgraph::induced_subgraph;
use crate::vertex::VertexId;
use qcm_sync::Arc;

/// Computes the core number of every vertex with the classic O(|E|)
/// bucket-based peeling algorithm.
///
/// `core[v]` is the largest `k` such that `v` belongs to the k-core of `g`.
pub fn core_numbers(g: &Graph) -> Vec<u32> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<u32> = (0..n).map(|v| g.degree(VertexId::from(v)) as u32).collect();
    let max_deg = *degree.iter().max().unwrap() as usize;

    // Bucket sort vertices by degree.
    let mut bin = vec![0usize; max_deg + 2];
    for &d in &degree {
        bin[d as usize + 1] += 1;
    }
    for i in 1..bin.len() {
        bin[i] += bin[i - 1];
    }
    let mut pos = vec![0usize; n]; // position of vertex in `vert`
    let mut vert = vec![0u32; n]; // vertices sorted by current degree
    {
        let mut cursor = bin.clone();
        for v in 0..n {
            let d = degree[v] as usize;
            pos[v] = cursor[d];
            vert[cursor[d]] = v as u32;
            cursor[d] += 1;
        }
    }
    // bin[d] must point at the first vertex of degree d.
    // (After the cursor pass above it already does.)

    let mut core = degree.clone();
    for i in 0..n {
        let v = vert[i] as usize;
        core[v] = degree[v];
        for &w in g.neighbors(VertexId::from(v)) {
            let w = w.index();
            if degree[w] > degree[v] {
                // Move w one bucket down: swap it with the first vertex of its
                // current bucket, then shrink the bucket boundary.
                let dw = degree[w] as usize;
                let pw = pos[w];
                let first = bin[dw];
                let u = vert[first] as usize;
                if u != w {
                    vert.swap(pw, first);
                    pos[w] = first;
                    pos[u] = pw;
                }
                bin[dw] += 1;
                degree[w] -= 1;
            }
        }
    }
    core
}

/// Returns the maximal subgraph in which every vertex has degree `>= k`
/// (the *k-core*), together with the surviving original vertex ids.
///
/// The returned [`Graph`] uses a compacted id space; `mapping[i]` is the
/// original id of the new vertex `i`. Vertices not in the k-core are dropped.
/// If the k-core is empty, an empty graph and mapping are returned.
pub fn k_core(g: &Graph, k: usize) -> (Graph, Vec<VertexId>) {
    let survivors = k_core_vertices(g, k);
    induced_subgraph(g, &survivors)
}

/// Returns the vertices of the k-core of `g` (sorted by id) without
/// materialising the subgraph. O(n + Σ_{deg(v) ≥ k} deg(v)).
pub fn k_core_vertices(g: &Graph, k: usize) -> Vec<VertexId> {
    peel(g, k).survivors()
}

/// Returns the k-core of `graph` **in the caller's id space**: the same
/// vertex count, every vertex outside the k-core isolated, every core vertex
/// keeping exactly its core neighbours. O(n + Σ_{deg(v) ≥ k} deg(v)).
///
/// This is the form the parallel miner hands to the engine: vertex ids,
/// partition hash, task labels and result rows need no translation, and a
/// degree read off the result is an exact core degree. When the peel removes
/// nothing the *same* `Arc` comes back and no copy is made.
pub fn k_core_masked(graph: &Arc<Graph>, k: usize) -> Arc<Graph> {
    k_core_masked_with_vertices(graph, k).0
}

/// [`k_core_masked`] together with the core's vertices, sorted by id — the
/// list [`k_core_vertices`] returns, collected by the same peel.
pub fn k_core_masked_with_vertices(graph: &Arc<Graph>, k: usize) -> (Arc<Graph>, Vec<VertexId>) {
    let peeled = peel(graph, k);
    let core = peeled.survivors();
    if !peeled.cut_an_edge {
        // Only isolated vertices went, if any: the masked form is the input.
        return (graph.clone(), core);
    }
    // A survivor's remaining degree is its core degree, so the CSR is sized
    // exactly and written in one pass.
    let core_degrees = peeled.degree.iter().filter(|&&d| d != PEELED);
    let total: usize = core_degrees.map(|&d| d as usize).sum();
    let mut offsets = Vec::with_capacity(graph.num_vertices() + 1);
    let mut neighbors = Vec::with_capacity(total);
    offsets.push(0);
    for v in graph.vertices() {
        if peeled.in_core(v) {
            let adj = graph.neighbors(v).iter().copied();
            neighbors.extend(adj.filter(|&w| peeled.in_core(w)));
        }
        offsets.push(neighbors.len());
    }
    debug_assert_eq!(neighbors.len(), total);
    (Arc::new(Graph::from_csr(offsets, neighbors)), core)
}

/// What peeling `g` down to its k-core leaves behind.
struct Peeled {
    /// Remaining degree of every vertex when the peel stopped: the core
    /// degree of a survivor, [`PEELED`] for a removed vertex.
    degree: Vec<u32>,
    /// Whether a removed vertex had a neighbour, i.e. the peel cut an edge.
    cut_an_edge: bool,
}

/// Degree marker of a peeled vertex (no vertex has this many neighbours: ids
/// are `u32`).
const PEELED: u32 = u32::MAX;

impl Peeled {
    fn in_core(&self, v: VertexId) -> bool {
        self.degree[v.index()] != PEELED
    }

    /// The vertices that survived, sorted by id.
    fn survivors(&self) -> Vec<VertexId> {
        let ids = (0..self.degree.len() as u32).map(VertexId::new);
        ids.filter(|&v| self.in_core(v)).collect()
    }
}

/// Repeatedly removes every vertex of degree `< k`.
///
/// A vertex of degree `< k` is removed on sight and its list is never read:
/// only the candidates (degree `≥ k`) are counted and peeled. A candidate
/// starts at its number of candidate neighbours, which is its degree once the
/// first wave is gone.
fn peel(g: &Graph, k: usize) -> Peeled {
    let mut cut_an_edge = false;
    let mut candidates: Vec<u32> = Vec::new();
    let mut degree: Vec<u32> = g
        .vertices()
        .map(|v| {
            let d = g.degree(v);
            if d < k {
                // A candidate peeled later also cut an edge, but only ever
                // after one of these did.
                cut_an_edge |= d > 0;
                PEELED
            } else {
                candidates.push(v.raw());
                0
            }
        })
        .collect();
    // Count in one pass, mark in another: a candidate marked mid-count would
    // be counted by the neighbours before it and not by those after.
    for &v in &candidates {
        let adj = g.neighbors(VertexId::new(v));
        degree[v as usize] = adj.iter().filter(|w| degree[w.index()] != PEELED).count() as u32;
    }
    let mut stack: Vec<u32> = Vec::new();
    for &v in &candidates {
        let d = &mut degree[v as usize];
        if (*d as usize) < k {
            *d = PEELED;
            stack.push(v);
        }
    }
    while let Some(v) = stack.pop() {
        for &w in g.neighbors(VertexId::new(v)) {
            let d = &mut degree[w.index()];
            if *d != PEELED {
                *d -= 1;
                if (*d as usize) < k {
                    *d = PEELED;
                    stack.push(w.raw());
                }
            }
        }
    }
    Peeled {
        degree,
        cut_an_edge,
    }
}

/// The suffix cores of a k-core, visited in increasing id order.
///
/// The set-enumeration search assigns every result to the task of its
/// smallest member `v`, inside `G[{u ≥ v}]`, and under the size-threshold
/// rule every member of a result keeps `k` neighbours there. So `v` can head
/// a result only if it lies in the k-core of `G[{u ≥ v}]`, its *suffix core*
/// `C_v`. Walking the core in increasing order, `C_v` is what is left when
/// every smaller vertex has been deleted and the deletions peeled:
/// [`SuffixCores::next_root`] returns the next vertex still in, deletes it on
/// the following call and cascades, so the whole walk costs `O(V + E)` of the
/// core. With `k = 0` nothing peels and every vertex is a root.
///
/// Vertices are named by their rank in the core's sorted vertex list, and
/// the arrays are sized to the core, not to the id range.
#[derive(Debug)]
pub struct SuffixCores {
    k: u32,
    /// Number of neighbours in the current suffix core, by rank, or
    /// [`PEELED`] once the vertex is deleted or peeled.
    degree: Vec<u32>,
    /// The current root, deleted by the next [`SuffixCores::next_root`].
    root: Option<u32>,
    /// The rank the search for the next root starts from.
    next: usize,
    stack: Vec<u32>,
}

impl SuffixCores {
    /// Starts the walk over a k-core whose vertex of rank `i` has
    /// `degrees[i]` core neighbours, all at least `k`.
    pub fn new(degrees: Vec<u32>, k: usize) -> Self {
        let k = u32::try_from(k).unwrap_or(u32::MAX);
        debug_assert!(degrees.iter().all(|&d| d >= k), "not a k-core");
        SuffixCores {
            k,
            degree: degrees,
            root: None,
            next: 0,
            stack: Vec::new(),
        }
    }

    /// Deletes the current root, peels what that leaves below `k`, and moves
    /// to the next vertex still in: its rank, or `None` when none is left.
    /// `neighbors(i)` lists the ranks of the core neighbours of rank `i`.
    pub fn next_root<I>(&mut self, mut neighbors: impl FnMut(u32) -> I) -> Option<u32>
    where
        I: IntoIterator<Item = u32>,
    {
        if let Some(root) = self.root.take() {
            self.degree[root as usize] = PEELED;
            self.stack.push(root);
            while let Some(x) = self.stack.pop() {
                for w in neighbors(x) {
                    let d = &mut self.degree[w as usize];
                    if *d != PEELED {
                        *d -= 1;
                        if *d < self.k {
                            *d = PEELED;
                            self.stack.push(w);
                        }
                    }
                }
            }
        }
        let skipped = self.degree[self.next..].iter().position(|&d| d != PEELED);
        self.next = skipped.map_or(self.degree.len(), |i| self.next + i + 1);
        self.root = skipped.map(|_| self.next as u32 - 1);
        self.root
    }

    /// True if rank `i` lies in the current root's suffix core (the root
    /// included).
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        self.degree[i as usize] != PEELED
    }
}

/// The vertices of `core`, the sorted vertex list of the k-core of `graph`,
/// that lie in their own suffix core (see [`SuffixCores`]): the only roots
/// whose task can hold a result of minimum degree `k`. `O(V + E)` of the
/// core, with every array sized to the core.
pub fn suffix_roots(graph: &Graph, core: &[VertexId], k: usize) -> Vec<VertexId> {
    let rank = |w: &VertexId| core.binary_search(w).ok().map(|r| r as u32);
    let core_neighbors = |i: u32| graph.neighbors(core[i as usize]).iter().filter_map(rank);
    let degrees = (0..core.len() as u32).map(|i| core_neighbors(i).count() as u32);
    let mut walk = SuffixCores::new(degrees.collect(), k);
    let mut roots = Vec::new();
    while let Some(i) = walk.next_root(core_neighbors) {
        roots.push(core[i as usize]);
    }
    roots
}

/// Returns a degeneracy ordering of the graph: vertices in the order they are
/// peeled when repeatedly removing a minimum-degree vertex. The degeneracy of
/// the graph is `max(core_numbers)`.
pub fn degeneracy_ordering(g: &Graph) -> Vec<VertexId> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let core = core_numbers(g);
    // The standard peeling order: sort by (core number, id) is *not* a valid
    // degeneracy ordering in general, so re-run the bucket peeling recording
    // removal order.
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(VertexId::from(v))).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n {
        buckets[degree[v]].push(v as u32);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut min_bucket = 0usize;
    while order.len() < n {
        while min_bucket <= max_deg && buckets[min_bucket].is_empty() {
            min_bucket += 1;
        }
        if min_bucket > max_deg {
            break;
        }
        let v = buckets[min_bucket].pop().unwrap() as usize;
        if removed[v] || degree[v] != min_bucket {
            // Stale bucket entry.
            continue;
        }
        removed[v] = true;
        order.push(VertexId::from(v));
        for &w in g.neighbors(VertexId::from(v)) {
            let w = w.index();
            if !removed[w] && degree[w] > 0 {
                degree[w] -= 1;
                buckets[degree[w]].push(w as u32);
                if degree[w] < min_bucket {
                    min_bucket = degree[w];
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    let _ = core; // core numbers retained for potential debug assertions
    order
}

/// The degeneracy (maximum core number) of the graph.
pub fn degeneracy(g: &Graph) -> u32 {
    core_numbers(g).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> Graph {
        // Triangle 0-1-2 plus a path 2-3-4.
        Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn core_numbers_triangle_with_tail() {
        let g = triangle_plus_tail();
        let core = core_numbers(&g);
        assert_eq!(core, vec![2, 2, 2, 1, 1]);
    }

    #[test]
    fn k_core_extracts_triangle() {
        let g = triangle_plus_tail();
        let (core2, mapping) = k_core(&g, 2);
        assert_eq!(core2.num_vertices(), 3);
        assert_eq!(core2.num_edges(), 3);
        let mapped: Vec<u32> = mapping.iter().map(|v| v.raw()).collect();
        assert_eq!(mapped, vec![0, 1, 2]);
    }

    #[test]
    fn k_core_zero_is_identity() {
        let g = triangle_plus_tail();
        let (same, mapping) = k_core(&g, 0);
        assert_eq!(same.num_vertices(), g.num_vertices());
        assert_eq!(same.num_edges(), g.num_edges());
        assert_eq!(mapping.len(), g.num_vertices());
    }

    #[test]
    fn k_core_too_large_is_empty() {
        let g = triangle_plus_tail();
        let (empty, mapping) = k_core(&g, 3);
        assert_eq!(empty.num_vertices(), 0);
        assert!(mapping.is_empty());
    }

    #[test]
    fn k_core_cascades_removals() {
        // A path 0-1-2-3-4: the 2-core is empty because peeling the endpoints
        // cascades through the whole path.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let survivors = k_core_vertices(&g, 2);
        assert!(survivors.is_empty());
    }

    #[test]
    fn masked_core_keeps_ids_and_isolates_the_peeled() {
        let g = Arc::new(triangle_plus_tail());
        let core2 = k_core_masked(&g, 2);
        core2.validate().unwrap();
        assert_eq!(core2.num_vertices(), 5);
        assert_eq!(core2.num_edges(), 3);
        let v = VertexId::new;
        // Vertex 2 loses its tail neighbour 3 and keeps the triangle.
        assert_eq!(core2.neighbors(v(2)), &[v(0), v(1)]);
        assert_eq!(core2.degree(v(3)), 0);
        assert_eq!(core2.degree(v(4)), 0);
        // Peeling the result again removes nothing more.
        assert!(Arc::ptr_eq(&k_core_masked(&core2, 2), &core2));
    }

    #[test]
    fn masked_core_hands_back_the_input_when_nothing_is_peeled() {
        let g = Arc::new(triangle_plus_tail());
        assert!(Arc::ptr_eq(&k_core_masked(&g, 0), &g));
        assert!(Arc::ptr_eq(&k_core_masked(&g, 1), &g));
        let triangle = Arc::new(Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap());
        assert!(Arc::ptr_eq(&k_core_masked(&triangle, 2), &triangle));
        let none = Arc::new(Graph::empty(0));
        assert!(Arc::ptr_eq(&k_core_masked(&none, 3), &none));
    }

    #[test]
    fn masked_core_lists_its_vertices_even_when_nothing_is_cut() {
        // A triangle plus an isolated vertex 3: at k = 1 only 3 goes, and it
        // has no edge, so the input comes back beside the shorter list.
        let g = Arc::new(Graph::from_edges(4, [(0, 1), (1, 2), (2, 0)]).unwrap());
        let (same, core) = k_core_masked_with_vertices(&g, 1);
        assert!(Arc::ptr_eq(&same, &g));
        assert_eq!(core, [0, 1, 2].map(VertexId::new));
        assert_eq!(k_core_masked_with_vertices(&g, 0).1.len(), 4);
        // At k = 2 the tail of `triangle_plus_tail` cascades away.
        let g = Arc::new(triangle_plus_tail());
        let (_, core) = k_core_masked_with_vertices(&g, 2);
        assert_eq!(core, [0, 1, 2].map(VertexId::new));
    }

    #[test]
    fn masked_empty_core_is_edgeless_with_every_vertex() {
        let g = Arc::new(triangle_plus_tail());
        let core3 = k_core_masked(&g, 3);
        assert_eq!(*core3, Graph::empty(5));
    }

    #[test]
    fn suffix_roots_stop_where_the_suffix_core_peels_away() {
        let g = triangle_plus_tail();
        let roots = |k: usize| {
            let raw = suffix_roots(&g, &k_core_vertices(&g, k), k);
            raw.iter().map(|v| v.raw()).collect::<Vec<_>>()
        };
        assert_eq!(roots(0), [0, 1, 2, 3, 4]);
        // Deleting 3 leaves 4 with no neighbour in {4}.
        assert_eq!(roots(1), [0, 1, 2, 3]);
        // Deleting 0 peels the rest of the triangle.
        assert_eq!(roots(2), [0]);
        assert!(roots(3).is_empty());
        // The walk itself: 0's suffix core is the whole 2-core, 1's is empty.
        let mut walk = SuffixCores::new(vec![2, 2, 2], 2);
        let triangle = |i: u32| [0u32, 1, 2].into_iter().filter(move |&j| j != i);
        assert_eq!(walk.next_root(triangle), Some(0));
        assert!((0..3).all(|i| walk.contains(i)));
        assert_eq!(walk.next_root(triangle), None);
        assert!((0..3).all(|i| !walk.contains(i)));
        assert_eq!(walk.next_root(triangle), None);
    }

    #[test]
    fn clique_core_numbers_are_n_minus_1() {
        let mut b = GraphBuilder::new();
        let n = 6u32;
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_edge_raw(i, j);
            }
        }
        let g = b.build();
        let core = core_numbers(&g);
        assert!(core.iter().all(|&c| c == n - 1));
        assert_eq!(degeneracy(&g), n - 1);
    }

    #[test]
    fn degeneracy_ordering_is_a_permutation_and_valid() {
        let g = triangle_plus_tail();
        let order = degeneracy_ordering(&g);
        assert_eq!(order.len(), g.num_vertices());
        let mut seen = vec![false; g.num_vertices()];
        for v in &order {
            assert!(!seen[v.index()]);
            seen[v.index()] = true;
        }
        // Validity: when vertex v is removed, its remaining (later) degree is
        // at most the graph degeneracy.
        let d = degeneracy(&g) as usize;
        let mut position = vec![0usize; g.num_vertices()];
        for (i, v) in order.iter().enumerate() {
            position[v.index()] = i;
        }
        for (i, v) in order.iter().enumerate() {
            let later = g
                .neighbors(*v)
                .iter()
                .filter(|w| position[w.index()] > i)
                .count();
            assert!(
                later <= d,
                "vertex {v} has {later} later neighbors > degeneracy {d}"
            );
        }
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = Graph::empty(0);
        assert!(core_numbers(&g).is_empty());
        assert!(degeneracy_ordering(&g).is_empty());
        assert_eq!(degeneracy(&g), 0);
        let (e, m) = k_core(&g, 1);
        assert_eq!(e.num_vertices(), 0);
        assert!(m.is_empty());
    }
}
