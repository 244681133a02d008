//! The k-core peel: one cascade and the peels built on it.
//!
//! The size-threshold pruning rule (P2 / Theorem 2 of the paper) states that a
//! vertex with degree `< k = ⌈γ·(τ_size − 1)⌉` cannot belong to any valid
//! quasi-clique. The paper applies it at load time and inside every task
//! (Algorithm 6 line 10, Algorithm 7 line 9) with the O(|E|) peel of Batagelj
//! & Zaversnik \[13\]. [`Peel`] is that cascade, once, and every peel of the
//! miners runs on it:
//!
//! * the global peel of the input, [`ks_core`], which both miners start from.
//!   It peels the vertices from the *candidates*, the vertices of degree
//!   `≥ k`: every other vertex is dropped on sight, its adjacency list
//!   unread, so that part costs O(n + Σ_{deg(v) ≥ k} deg(v)) rather than
//!   O(n + |E|). The same rule bounds edges too: two adjacent members of a
//!   valid quasi-clique share at least `s` neighbours in it, so with `s > 0`
//!   the cascade also drops every edge with fewer common neighbours, a
//!   k-truss style peel over the core's triangles;
//! * its suffix walk, which walks the peeled core in id order and keeps a
//!   vertex as a root only if it lies in the k-core of the vertices from it
//!   up, the only roots whose task can hold a result;
//! * every round of a root task's assembly (`qcm_core::TaskAssembly`), which
//!   both miners run.
//!
//! [`core_numbers`] is the full bucket decomposition behind the degeneracy
//! that [`crate::GraphStats`] reports.

use crate::graph::Graph;
use crate::subgraph::LocalGraph;
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
/// the one peel every core of the miners runs.
///
/// A position's entry is the number of its neighbours still counted — those
/// in, and those removed but not yet popped — or [`PEELED`] once it is
/// removed. A removed position is stacked once and popped once, and popping
/// it costs each neighbour still in one ([`Peel::lose`]), removing every one
/// that falls below `k`. The neighbours of a popped position come from a
/// closure, so the same cascade runs on a [`Graph`], a [`LocalGraph`] or a
/// flat buffer of positions; a position is a vertex, or, in the edge rule of
/// [`ks_core`], an edge whose neighbours are the edges it closes a triangle
/// with.
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
            self.lose(w);
        }
        Some(x)
    }

    /// Costs position `i` one neighbour if it is in, removing it once it
    /// falls below `k`.
    #[inline]
    pub fn lose(&mut self, i: u32) {
        let d = &mut self.degree[i as usize];
        if *d != PEELED {
            *d -= 1;
            if *d < self.k {
                *d = PEELED;
                self.stack.push(i);
            }
        }
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

/// The vertex peel of the input: `g` peeled to its k-core, positions being
/// vertex ids.
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

/// The (k, s)-core of a graph and its suffix roots: what both miners start
/// from ([`ks_core`]).
#[derive(Debug)]
pub struct Core {
    /// The core, numbered in id order: its global ids are the core's
    /// vertices, and each list holds the core edges at that vertex.
    pub graph: LocalGraph,
    /// The core's suffix roots (see `suffix_roots`), sorted by id.
    pub roots: Vec<VertexId>,
}

impl Core {
    /// The core **in the caller's id space**: `input`'s vertex count, every
    /// vertex outside the core isolated, every core vertex keeping exactly
    /// its core edges. `input` must be the graph the core was peeled from.
    ///
    /// This is the form the parallel miner hands to the engine: vertex ids,
    /// partition hash, task labels and result rows need no translation, and
    /// a degree read off the result is an exact core degree. When the peel
    /// cut no edge the *same* `Arc` comes back and no copy is made.
    pub fn masked(&self, input: &Arc<Graph>) -> Arc<Graph> {
        let core = &self.graph;
        if core.num_edges() == input.num_edges() {
            return input.clone();
        }
        let ids = core.global_ids();
        let mut offsets = Vec::with_capacity(input.num_vertices() + 1);
        let mut neighbors = Vec::with_capacity(2 * core.num_edges());
        offsets.push(0);
        let mut next = 0;
        for v in input.vertices() {
            if ids.get(next) == Some(&v) {
                let adj = core.neighbors(next as u32).iter();
                neighbors.extend(adj.map(|&w| ids[w as usize]));
                next += 1;
            }
            offsets.push(neighbors.len());
        }
        Arc::new(Graph::from_csr(offsets, neighbors))
    }
}

/// The (k, s)-core of `graph`: the largest subgraph in which every vertex
/// has `≥ k` neighbours and every edge `≥ s` common neighbours, with its
/// suffix roots. `s = 0` makes it the k-core. The vertex peel costs
/// O(n + Σ_{deg(v) ≥ k} deg(v)). With `s > 0` the edge rule then runs on the
/// k-core's `m` edges (`cut_edges`): at most two support counts of O(m^1.5)
/// each, O(m) to cut the first wave, and O(min(deg x, deg y)·log Δ) for each
/// edge `x–y` the cascade pops after it, O(α·m·log Δ) in all by Chiba and
/// Nishizeki's bound on Σ min(deg x, deg y) (α the arboricity). That is not
/// O(the core's triangles): no triangle count runs in that.
///
/// Only a vertex of the k-core can be in it, so the vertices are peeled
/// first, on the input; the survivors are numbered in id order, each entry
/// of the peel becoming its vertex's number, and their lists copied into the
/// core's CSR. The edge rule then runs on that copy, and the suffix walk on
/// what is left.
pub fn ks_core(graph: &Graph, k: usize, s: usize) -> Core {
    let mut peel = peel(graph, k);
    // A survivor's entry is its core degree, so the CSR is sized exactly.
    let mut ids = Vec::new();
    let mut offsets = vec![0];
    for v in 0..graph.num_vertices() as u32 {
        if peel.contains(v) {
            offsets.push(offsets[ids.len()] + peel.degree[v as usize] as usize);
            peel.set(v, ids.len() as u32);
            ids.push(VertexId::new(v));
        }
    }
    let mut targets = Vec::with_capacity(offsets[ids.len()]);
    for v in &ids {
        let core = raw_neighbors(graph, v.raw()).filter(|&w| peel.contains(w));
        targets.extend(core.map(|w| peel.degree[w as usize]));
    }
    drop(peel);
    if s > 0 {
        cut_edges(&mut ids, &mut offsets, &mut targets, k, s);
    }
    let graph = LocalGraph::from_csr(ids, offsets, targets);
    let roots = suffix_roots(&graph, k);
    Core { graph, roots }
}

/// The edge rule on a k-core's CSR (vertices numbered `0..n`, lists sorted),
/// rewritten in place to the (k, s)-core.
///
/// An edge's entry is its support: the triangles it closes through edges not
/// popped yet. A popped edge costs each edge that closes a triangle with it
/// one, the triangle being gone, and each of its ends one neighbour; a vertex
/// that falls below `k` takes every edge still at it. Two [`Peel`]s carry
/// the cascade — one over the edges at `s`, one over the vertices at `k` —
/// and it ends when neither has a removal left to pop, every edge and vertex
/// left in then meeting its threshold.
///
/// The first wave, every edge below `s` from the start, is cut at once: its
/// edges go without breaking their triangles, the vertices that fall below
/// `k` take theirs, and the supports are counted again on what is left
/// before the cascade runs. An edge below `s` is below it in every subgraph,
/// so the (k, s)-core is inside what is left. Most of the cut is in that
/// wave (Enron's 10-core: 6,065 of the 6,595 edges cut), and the recount
/// costs less than looking up their triangles: the edge part of the peel
/// took 2.3–2.5 ms there with every edge popped one by one, 0.8 ms with the
/// wave (release build, 2-vCPU x86-64 host).
fn cut_edges(
    ids: &mut Vec<VertexId>,
    offsets: &mut Vec<usize>,
    targets: &mut Vec<u32>,
    k: usize,
    s: usize,
) {
    for cascade in [false, true] {
        let n = ids.len();
        let mut core = Triangles::new(offsets, targets);
        let degree = (0..n).map(|x| core.list(x as u32).len() as u32).collect();
        let mut vertices = Peel::new(degree, k);
        let mut edges = Peel::new(core.supports(), s);
        edges.seed(0..core.ends.len() as u32);
        let mut closing = Vec::new();
        loop {
            let out = &mut closing;
            let triangles = |e: u32| {
                let out = out;
                out.clear();
                if cascade {
                    core.closing(e, out);
                }
                out.iter().copied()
            };
            if let Some(e) = edges.pop(triangles) {
                let (x, y) = core.pop(e);
                vertices.lose(x);
                vertices.lose(y);
            } else if let Some(x) = vertices.pop(|_| None) {
                for a in core.arcs(x) {
                    if edges.contains(core.edge[a]) {
                        edges.remove(core.edge[a]);
                    }
                }
            } else {
                break;
            }
        }
        // Compact the survivors in place: a kept arc is never written past
        // where it was read.
        let edge = core.edge;
        let mut number = vec![u32::MAX; n];
        let survivors = (0..n).filter(|&x| vertices.contains(x as u32));
        for (i, x) in survivors.enumerate() {
            number[x] = i as u32;
        }
        let (mut write, mut kept, mut from) = (0, 0, 0);
        for x in 0..n {
            let to = offsets[x + 1];
            if vertices.contains(x as u32) {
                for a in from..to {
                    if edges.contains(edge[a]) {
                        debug_assert!(vertices.contains(targets[a]), "an edge outlived its end");
                        targets[write] = number[targets[a] as usize];
                        write += 1;
                    }
                }
                ids[kept] = ids[x];
                kept += 1;
                offsets[kept] = write;
            }
            from = to;
        }
        let uncut = write == targets.len();
        ids.truncate(kept);
        offsets.truncate(kept + 1);
        targets.truncate(write);
        if uncut {
            // Nothing was below a threshold: this is the (k, s)-core.
            break;
        }
    }
}

/// A k-core's CSR with its edges numbered, and the edges not popped yet: the
/// triangles the edge rule counts and breaks.
struct Triangles<'a> {
    offsets: &'a [usize],
    targets: &'a [u32],
    /// Per arc, its edge.
    edge: Vec<u32>,
    /// Per edge, its ends, the smaller first.
    ends: Vec<(u32, u32)>,
    /// Per edge, whether it is popped.
    popped: Vec<bool>,
}

impl<'a> Triangles<'a> {
    fn new(offsets: &'a [usize], targets: &'a [u32]) -> Self {
        let n = offsets.len() - 1;
        let mut t = Triangles {
            offsets,
            targets,
            edge: vec![0; targets.len()],
            ends: Vec::with_capacity(targets.len() / 2),
            popped: Vec::new(),
        };
        // Number each edge at its smaller end. Its larger end meets it
        // through the smaller end's cursor, which walks that vertex's larger
        // neighbours in the order the larger ends come.
        let mut cursor: Vec<usize> = (0..n as u32)
            .map(|x| t.arcs(x).start + t.list(x).partition_point(|&w| w < x))
            .collect();
        for x in 0..n as u32 {
            for a in t.arcs(x) {
                let w = targets[a];
                if w < x {
                    t.edge[a] = t.edge[cursor[w as usize]];
                    cursor[w as usize] += 1;
                } else {
                    t.edge[a] = t.ends.len() as u32;
                    t.ends.push((x, w));
                }
            }
        }
        t.popped = vec![false; t.ends.len()];
        t
    }

    fn arcs(&self, x: u32) -> std::ops::Range<usize> {
        self.offsets[x as usize]..self.offsets[x as usize + 1]
    }

    fn list(&self, x: u32) -> &'a [u32] {
        &self.targets[self.arcs(x)]
    }

    /// Every edge's support, each triangle found once. Each edge is oriented
    /// towards its end of larger (degree, number), which leaves a vertex at
    /// most √(2m) out-arcs, and a triangle is found at its first end, the
    /// out-arcs of that end marked and each out-neighbour's out-arcs looked
    /// up in them: O(m^1.5) in all.
    fn supports(&self) -> Vec<u32> {
        let n = self.offsets.len() - 1;
        let rank = |x: u32| (self.list(x).len(), x);
        // Per vertex, its out-arcs as (head, edge).
        let mut forward = Vec::with_capacity(self.ends.len());
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        for x in 0..n as u32 {
            let up = self.arcs(x).filter(|&a| rank(self.targets[a]) > rank(x));
            forward.extend(up.map(|a| (self.targets[a], self.edge[a])));
            starts.push(forward.len());
        }
        let out = |x: u32| &forward[starts[x as usize]..starts[x as usize + 1]];
        let mut support = vec![0u32; self.ends.len()];
        let mut mark = vec![0u32; n];
        for x in 0..n as u32 {
            for &(y, xy) in out(x) {
                mark[y as usize] = xy + 1;
            }
            for &(y, xy) in out(x) {
                for &(z, yz) in out(y) {
                    if let Some(xz) = mark[z as usize].checked_sub(1) {
                        for e in [xy, yz, xz] {
                            support[e as usize] += 1;
                        }
                    }
                }
            }
            for &(y, _) in out(x) {
                mark[y as usize] = 0;
            }
        }
        support
    }

    /// Appends to `out` the edges that close a triangle with edge `e`
    /// through two edges not popped, two per triangle: the shorter end's
    /// list walked and each entry looked up in the longer one's.
    fn closing(&self, e: u32, out: &mut Vec<u32>) {
        let (x, y) = self.ends[e as usize];
        let (short, long) = if self.list(x).len() <= self.list(y).len() {
            (x, y)
        } else {
            (y, x)
        };
        // Both lists are sorted, so each lookup starts where the last ended.
        let long = self.arcs(long);
        let mut from = long.start;
        for a in self.arcs(short) {
            let (f, w) = (self.edge[a], self.targets[a]);
            if self.popped[f as usize] {
                continue;
            }
            from += self.targets[from..long.end].partition_point(|&v| v < w);
            if from < long.end && self.targets[from] == w && !self.popped[self.edge[from] as usize]
            {
                out.extend([f, self.edge[from]]);
            }
        }
    }

    /// Pops edge `e`: its triangles are gone. Returns its ends.
    fn pop(&mut self, e: u32) -> (u32, u32) {
        self.popped[e as usize] = true;
        self.ends[e as usize]
    }
}

/// The suffix roots of `core`, a (k, s)-core, sorted by id.
///
/// The set-enumeration search assigns every result to the task of its
/// smallest member `v`, inside `G[{u ≥ v}]`, and under the size-threshold
/// rule every member of a result keeps `k` neighbours there. So `v` can head
/// a result only if it lies in the k-core of `G[{u ≥ v}]`, its *suffix core*.
/// Walking the core in increasing order, that is what is left when every
/// smaller vertex has been removed and the removals peeled, so the walk
/// removes each root once it is listed and runs the cascade on the core's
/// own lists: `O(V + E)` of the core in all. With `k = 0` nothing peels and
/// every vertex is a root.
fn suffix_roots(core: &LocalGraph, k: usize) -> Vec<VertexId> {
    let n = core.capacity() as u32;
    let mut peel = Peel::new((0..n).map(|x| core.degree(x) as u32).collect(), k);
    let mut roots = Vec::new();
    for x in 0..n {
        if peel.contains(x) {
            roots.push(core.global_id(x));
            peel.remove(x);
            while peel.pop(|y| core.neighbors(y).iter().copied()).is_some() {}
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
        ks_core(g, k, 0).masked(g)
    }

    fn raw(ids: &[VertexId]) -> Vec<u32> {
        ids.iter().map(|v| v.raw()).collect()
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
        let core = ks_core(&g, 1, 0);
        assert!(Arc::ptr_eq(&core.masked(&g), &g));
        assert_eq!(core.roots, [0, 1].map(VertexId::new));
        assert_eq!(ks_core(&g, 0, 0).roots.len(), 4);
        // At k = 2 the tail of `triangle_plus_tail` cascades away.
        let g = Arc::new(triangle_plus_tail());
        assert_eq!(ks_core(&g, 2, 0).roots, [VertexId::new(0)]);
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
        let roots = |k: usize| raw(&ks_core(&g, k, 0).roots);
        assert_eq!(roots(0), [0, 1, 2, 3, 4]);
        // Deleting 3 leaves 4 with no neighbour in {4}.
        assert_eq!(roots(1), [0, 1, 2, 3]);
        // Deleting 0 peels the rest of the triangle.
        assert_eq!(roots(2), [0]);
        assert!(roots(3).is_empty());
        // The core beside them, numbered in id order.
        let core = ks_core(&g, 2, 0);
        assert_eq!(raw(core.graph.global_ids()), [0, 1, 2]);
        assert_eq!(core.graph.num_edges(), 3);
    }

    #[test]
    fn the_edge_rule_cuts_edges_outside_triangles_and_cascades() {
        // A triangle 0-1-2 and a square 2-3-4-5-2: the 2-core is all of it,
        // but no square edge closes a triangle. At s = 1 they go, 3, 4 and 5
        // fall below k = 2, and the triangle is left.
        let square = [(2, 3), (3, 4), (4, 5), (5, 2)];
        let edges = [(0, 1), (1, 2), (2, 0)].into_iter().chain(square);
        let g = Arc::new(Graph::from_edges(6, edges).unwrap());
        assert_eq!(ks_core(&g, 2, 0).graph.capacity(), 6);
        let core = ks_core(&g, 2, 1);
        assert_eq!(raw(core.graph.global_ids()), [0, 1, 2]);
        assert_eq!(core.graph.num_edges(), 3);
        assert_eq!(core.roots, [VertexId::new(0)]);
        let masked = core.masked(&g);
        masked.validate().unwrap();
        assert_eq!(masked.num_vertices(), 6);
        assert_eq!(masked.num_edges(), 3);
        assert_eq!(masked.degree(VertexId::new(3)), 0);
        // At s = 2 the triangle's edges have one common neighbour too few.
        assert_eq!(ks_core(&g, 2, 2).graph.capacity(), 0);
    }

    #[test]
    fn the_edge_rule_keeps_the_vertices_of_a_cut_bridge() {
        // Two 4-cliques joined by the edge 3-4, which closes no triangle: at
        // k = 3, s = 2 the bridge goes and every vertex keeps its clique.
        let mut b = GraphBuilder::new();
        for block in [0u32, 4] {
            for i in block..block + 4 {
                for j in i + 1..block + 4 {
                    b.add_edge_raw(i, j);
                }
            }
        }
        b.add_edge_raw(3, 4);
        let g = Arc::new(b.build());
        let core = ks_core(&g, 3, 2);
        assert_eq!(core.graph.capacity(), 8);
        assert_eq!(core.graph.num_edges(), 12);
        assert_eq!(core.graph.neighbors(3), [0, 1, 2]);
        assert_eq!(core.graph.neighbors(4), [5, 6, 7]);
        // Each clique is a suffix core of its own.
        assert_eq!(raw(&core.roots), [0, 4]);
        assert!(!core.masked(&g).has_edge(VertexId::new(3), VertexId::new(4)));
        // Without the edge rule nothing is cut, and the input comes back.
        assert!(Arc::ptr_eq(&ks_core(&g, 3, 0).masked(&g), &g));
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
        let g = Arc::new(g);
        let core = ks_core(&g, 1, 1);
        assert_eq!(core.masked(&g).num_vertices(), 0);
        assert!(core.roots.is_empty());
    }
}
