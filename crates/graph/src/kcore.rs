//! The k-core peel: one cascade and the peels built on it.
//!
//! The size-threshold pruning rule (P2 / Theorem 2 of the paper) states that a
//! vertex with degree `< k = ⌈γ·(τ_size − 1)⌉` cannot belong to any valid
//! quasi-clique. The paper applies it at load time and inside every task
//! (Algorithm 6 line 10, Algorithm 7 line 9) with the O(|E|) peel of Batagelj
//! & Zaversnik \[13\]. [`Peel`] is that cascade, once, and every peel of the
//! miners runs on it:
//!
//! * the global peel of the input ([`k_core_with_roots`] for the serial
//!   miner, [`k_core_masked_with_roots`] for the parallel one). It peels from
//!   the *candidates*, the vertices of degree `≥ k`: every other vertex is
//!   dropped on sight, its adjacency list unread, so the peel costs
//!   O(n + Σ_{deg(v) ≥ k} deg(v)) rather than O(n + |E|);
//! * the suffix walk of those two, which walks the peeled core in id order
//!   and keeps a vertex as a root only if it lies in the k-core of the
//!   vertices from it up, the only roots whose task can hold a result;
//! * every round of a root task's assembly (`qcm_core::TaskAssembly`), which
//!   both miners run.
//!
//! [`core_numbers`] is the full bucket decomposition behind the degeneracy
//! that [`crate::GraphStats`] reports.

use crate::graph::Graph;
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

/// The entry of a removed position in a [`Peel`] (no vertex has this many
/// neighbours: ids are `u32`).
pub const PEELED: u32 = u32::MAX;

/// The Batagelj–Zaversnik cascade at threshold `k` over positions `0..n`:
/// the one peel every k-core of the miners runs.
///
/// A position's entry is the number of its neighbours still counted — those
/// in, and those removed but not yet popped — or [`PEELED`] once it is
/// removed. A removed position is stacked once and popped once, and popping
/// it costs each neighbour still in one, removing every one that falls below
/// `k`. The neighbours of a popped position come from a closure, so the same
/// cascade runs on a [`Graph`], a `LocalGraph` or a flat buffer of positions.
#[derive(Debug)]
pub struct Peel {
    k: u32,
    degree: Vec<u32>,
    stack: Vec<u32>,
}

impl Peel {
    /// A peel at threshold `k` over `degree.len()` positions: `degree[i]` is
    /// the number of neighbours position `i` has in, or [`PEELED`] if it is
    /// out from the start. Nothing is removed yet.
    pub fn new(degree: Vec<u32>, k: usize) -> Self {
        Peel {
            k: u32::try_from(k).unwrap_or(u32::MAX),
            degree,
            stack: Vec::new(),
        }
    }

    /// Starts a cascade: removes each of `positions` whose entry is below
    /// `k`. An entry that is [`PEELED`] already stays unstacked, and whatever
    /// an abandoned cascade left on the stack is dropped.
    pub fn seed(&mut self, positions: impl IntoIterator<Item = u32>) {
        self.stack.clear();
        for i in positions {
            if self.degree[i as usize] < self.k {
                self.remove(i);
            }
        }
    }

    /// Removes position `i`, which is in; its neighbours lose it when it is
    /// popped.
    #[inline]
    pub fn remove(&mut self, i: u32) {
        debug_assert!(self.contains(i), "position {i} is out already");
        self.degree[i as usize] = PEELED;
        self.stack.push(i);
    }

    /// Pops one removed position and costs each of its neighbours still in
    /// one, removing every one that falls below `k`. Returns the popped
    /// position, or `None` once the cascade is over. `neighbors(i)` lists the
    /// neighbours of position `i`.
    pub fn pop<I>(&mut self, neighbors: impl FnOnce(u32) -> I) -> Option<u32>
    where
        I: IntoIterator<Item = u32>,
    {
        let x = self.stack.pop()?;
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
        Some(x)
    }

    /// Appends a position with entry `degree` ([`PEELED`]: out from the
    /// start).
    #[inline]
    pub fn push(&mut self, degree: u32) {
        self.degree.push(degree);
    }

    /// Drops every position, keeping the buffers for the next subgraph.
    pub fn clear(&mut self) {
        self.degree.clear();
        self.stack.clear();
    }

    /// True while position `i` is in.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        self.degree[i as usize] != PEELED
    }

    /// Overwrites the entry of position `i` outside any cascade: a count puts
    /// it in, [`PEELED`] takes it out unstacked. This is how one peel marks
    /// subgraph after subgraph of the same positions.
    #[inline]
    pub fn set(&mut self, i: u32, degree: u32) {
        self.degree[i as usize] = degree;
    }
}

/// The neighbours of `v` in `g`, as positions.
fn raw_neighbors(g: &Graph, v: u32) -> impl Iterator<Item = u32> + '_ {
    g.neighbors(VertexId::new(v)).iter().map(|w| w.raw())
}

/// The global peel: `g` peeled to its k-core, positions being vertex ids.
///
/// A vertex of degree `< k` is out from the start and its list is never read:
/// only the candidates (degree `≥ k`) are counted and peeled. A candidate
/// starts at its number of candidate neighbours, which is its degree once the
/// first wave is gone.
fn peel(g: &Graph, k: usize) -> Peel {
    let mut candidates: Vec<u32> = Vec::new();
    let degree = g.vertices().map(|v| {
        if g.degree(v) < k {
            return PEELED;
        }
        candidates.push(v.raw());
        0
    });
    let mut peel = Peel::new(degree.collect(), k);
    // Count in one pass, seed in another: a candidate removed mid-count would
    // be counted by the neighbours before it and not by those after.
    for &v in &candidates {
        let live = raw_neighbors(g, v).filter(|&w| peel.contains(w)).count();
        peel.set(v, live as u32);
    }
    peel.seed(candidates);
    while peel.pop(|v| raw_neighbors(g, v)).is_some() {}
    peel
}

/// Returns the vertices of the k-core of `g` (sorted by id) without
/// materialising the subgraph. O(n + Σ_{deg(v) ≥ k} deg(v)).
pub fn k_core_vertices(g: &Graph, k: usize) -> Vec<VertexId> {
    let peel = peel(g, k);
    let ids = (0..g.num_vertices() as u32).filter(|&v| peel.contains(v));
    ids.map(VertexId::new).collect()
}

/// Returns the vertices of the k-core of `graph` and the core's suffix roots
/// (see `suffix_roots`), both sorted by id, without copying the graph.
/// O(n + Σ_{deg(v) ≥ k} deg(v)).
pub fn k_core_with_roots(graph: &Graph, k: usize) -> (Vec<VertexId>, Vec<VertexId>) {
    let peel = peel(graph, k);
    let core = (0..graph.num_vertices() as u32).filter(|&v| peel.contains(v));
    (core.map(VertexId::new).collect(), suffix_roots(peel, graph))
}

/// Returns the k-core of `graph` **in the caller's id space** — the same
/// vertex count, every vertex outside the k-core isolated, every core vertex
/// keeping exactly its core neighbours — and the core's suffix roots (see
/// [`k_core_with_roots`]), sorted by id. O(n + Σ_{deg(v) ≥ k} deg(v)).
///
/// This is the form the parallel miner hands to the engine: vertex ids,
/// partition hash, task labels and result rows need no translation, a degree
/// read off the result is an exact core degree, and the vertex table holds
/// the roots only. When the peel cuts no edge the *same* `Arc` comes back and
/// no copy is made. The suffix walk continues the peel's own array, so no
/// core degree is counted twice.
pub fn k_core_masked_with_roots(graph: &Arc<Graph>, k: usize) -> (Arc<Graph>, Vec<VertexId>) {
    let peel = peel(graph, k);
    // A survivor's entry is its core degree, so the CSR is sized exactly and
    // written in one pass, and it holds every edge only if the entries sum to
    // all of them.
    let core_degrees = peel.degree.iter().filter(|&&d| d != PEELED);
    let total: usize = core_degrees.map(|&d| d as usize).sum();
    let core = if total == 2 * graph.num_edges() {
        graph.clone()
    } else {
        let mut offsets = Vec::with_capacity(graph.num_vertices() + 1);
        let mut neighbors = Vec::with_capacity(total);
        offsets.push(0);
        for v in graph.vertices() {
            if peel.contains(v.raw()) {
                let adj = graph.neighbors(v).iter().copied();
                neighbors.extend(adj.filter(|w| peel.contains(w.raw())));
            }
            offsets.push(neighbors.len());
        }
        debug_assert_eq!(neighbors.len(), total);
        Arc::new(Graph::from_csr(offsets, neighbors))
    };
    (core, suffix_roots(peel, graph))
}

/// The suffix roots of `peel`, the k-core of `graph`, sorted by id.
///
/// The set-enumeration search assigns every result to the task of its
/// smallest member `v`, inside `G[{u ≥ v}]`, and under the size-threshold
/// rule every member of a result keeps `k` neighbours there. So `v` can head
/// a result only if it lies in the k-core of `G[{u ≥ v}]`, its *suffix core*.
/// Walking the core in increasing order, that is what is left when every
/// smaller vertex has been removed and the removals peeled, so the walk
/// removes each root once it is listed and runs the cascade: `O(V + E)` of
/// the core in all. A neighbour outside the core is out of the peel, which a
/// pop passes over. With `k = 0` nothing peels and every vertex is a root.
fn suffix_roots(mut peel: Peel, graph: &Graph) -> Vec<VertexId> {
    let mut roots = Vec::new();
    for v in 0..graph.num_vertices() as u32 {
        if peel.contains(v) {
            roots.push(VertexId::new(v));
            peel.remove(v);
            while peel.pop(|x| raw_neighbors(graph, x)).is_some() {}
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph::induced_subgraph;
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> Graph {
        // Triangle 0-1-2 plus a path 2-3-4.
        Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).unwrap()
    }

    fn masked(g: &Arc<Graph>, k: usize) -> Arc<Graph> {
        k_core_masked_with_roots(g, k).0
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
        let survivors = k_core_vertices(&g, 2);
        let mapped: Vec<u32> = survivors.iter().map(|v| v.raw()).collect();
        assert_eq!(mapped, vec![0, 1, 2]);
        let (core2, _) = induced_subgraph(&g, &survivors);
        assert_eq!(core2.num_edges(), 3);
    }

    #[test]
    fn k_core_zero_is_identity() {
        let g = triangle_plus_tail();
        assert_eq!(k_core_vertices(&g, 0).len(), g.num_vertices());
    }

    #[test]
    fn k_core_too_large_is_empty() {
        let g = triangle_plus_tail();
        assert!(k_core_vertices(&g, 3).is_empty());
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
        let core2 = masked(&g, 2);
        core2.validate().unwrap();
        assert_eq!(core2.num_vertices(), 5);
        assert_eq!(core2.num_edges(), 3);
        let v = VertexId::new;
        // Vertex 2 loses its tail neighbour 3 and keeps the triangle.
        assert_eq!(core2.neighbors(v(2)), &[v(0), v(1)]);
        assert_eq!(core2.degree(v(3)), 0);
        assert_eq!(core2.degree(v(4)), 0);
        // Peeling the result again removes nothing more.
        assert!(Arc::ptr_eq(&masked(&core2, 2), &core2));
    }

    #[test]
    fn masked_core_hands_back_the_input_when_nothing_is_peeled() {
        let g = Arc::new(triangle_plus_tail());
        assert!(Arc::ptr_eq(&masked(&g, 0), &g));
        assert!(Arc::ptr_eq(&masked(&g, 1), &g));
        let triangle = Arc::new(Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap());
        assert!(Arc::ptr_eq(&masked(&triangle, 2), &triangle));
        let none = Arc::new(Graph::empty(0));
        assert!(Arc::ptr_eq(&masked(&none, 3), &none));
    }

    #[test]
    fn masked_core_lists_its_vertices_even_when_nothing_is_cut() {
        // A triangle plus an isolated vertex 3: at k = 1 only 3 goes, and it
        // has no edge, so the input comes back beside the roots of the
        // triangle: deleting 0 leaves the edge 1-2, deleting 1 peels 2.
        let g = Arc::new(Graph::from_edges(4, [(0, 1), (1, 2), (2, 0)]).unwrap());
        let (same, roots) = k_core_masked_with_roots(&g, 1);
        assert!(Arc::ptr_eq(&same, &g));
        assert_eq!(roots, [0, 1].map(VertexId::new));
        assert_eq!(k_core_masked_with_roots(&g, 0).1.len(), 4);
        // At k = 2 the tail of `triangle_plus_tail` cascades away.
        let g = Arc::new(triangle_plus_tail());
        let (_, roots) = k_core_masked_with_roots(&g, 2);
        assert_eq!(roots, [VertexId::new(0)]);
    }

    #[test]
    fn masked_empty_core_is_edgeless_with_every_vertex() {
        let g = Arc::new(triangle_plus_tail());
        let core3 = masked(&g, 3);
        assert_eq!(*core3, Graph::empty(5));
    }

    #[test]
    fn suffix_roots_stop_where_the_suffix_core_peels_away() {
        let g = Arc::new(triangle_plus_tail());
        let roots = |k: usize| {
            let raw = k_core_masked_with_roots(&g, k).1;
            raw.iter().map(|v| v.raw()).collect::<Vec<_>>()
        };
        assert_eq!(roots(0), [0, 1, 2, 3, 4]);
        // Deleting 3 leaves 4 with no neighbour in {4}.
        assert_eq!(roots(1), [0, 1, 2, 3]);
        // Deleting 0 peels the rest of the triangle.
        assert_eq!(roots(2), [0]);
        assert!(roots(3).is_empty());
        // Without the copy: the same roots beside the core.
        assert_eq!(
            k_core_with_roots(&g, 2),
            (
                vec![0, 1, 2].into_iter().map(VertexId::new).collect(),
                vec![VertexId::new(0)]
            )
        );
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
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = Graph::empty(0);
        assert!(core_numbers(&g).is_empty());
        assert!(k_core_vertices(&g, 1).is_empty());
        let (e, roots) = k_core_masked_with_roots(&Arc::new(g), 1);
        assert_eq!(e.num_vertices(), 0);
        assert!(roots.is_empty());
    }
}
