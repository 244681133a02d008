//! Induced subgraphs and the task-local graph representation.
//!
//! Mining tasks in the paper carry a *materialised subgraph* `t.g` — the
//! k-core of the spawning vertex's two-hop neighborhood, or an induced
//! subgraph of a parent task's graph after decomposition. [`LocalGraph`] is
//! that representation: a small adjacency-list graph over a *local* index
//! space (`0..n_local`) plus a mapping back to the global [`VertexId`]s, so
//! that result sets can be reported in terms of the original graph.

use crate::bitset::row_contains;
use crate::graph::Graph;
use crate::neighborhoods::{perf, IndexSpec};
use crate::vertex::VertexId;

/// Largest vertex count at which [`LocalGraph::build_hub_index`] with
/// [`IndexSpec::Auto`] gives *every* vertex a row. A full row matrix costs
/// `n² / 8` bytes, so this bounds it at 2 MiB — a few L2s — while covering the
/// task subgraphs the miners actually recurse on (a root's two-hop k-core is
/// a few hundred vertices). Larger graphs keep the hybrid degree threshold.
pub const ALL_ROWS_MAX_VERTICES: usize = 4096;

/// `row_of` entry of a vertex without a row.
const NO_ROW: u32 = u32::MAX;

/// Caller-owned buffers for [`LocalGraph::induce_from_local`],
/// [`LocalGraph::shrink_to_k_core`] and [`LocalGraph::compact`], so a driver
/// that builds one subgraph per root or per subtask pays for them once. The
/// rank table is kept all-`u32::MAX` between calls (each call resets only
/// the entries it set), so a call costs `O(subgraph)`, not `O(parent)`.
#[derive(Debug, Default)]
pub struct SubgraphScratch {
    rank: Vec<u32>,
    degree: Vec<u32>,
    stack: Vec<u32>,
    keep: Vec<u32>,
}

/// Local index of every kept global id, or `u32::MAX` for dropped ones — the
/// `O(|V|)` rank array that replaces per-edge binary searches during subgraph
/// induction.
fn rank_table(universe: usize, kept: &[VertexId]) -> Vec<u32> {
    let mut rank = vec![u32::MAX; universe];
    for (local, &v) in kept.iter().enumerate() {
        rank[v.index()] = local as u32;
    }
    rank
}

/// Returns the subgraph of `g` induced by `vertices` together with the
/// local→global id mapping.
///
/// `vertices` must be sorted by id and duplicate-free (callers in this crate
/// always satisfy this; the function debug-asserts it). Runs in
/// `O(|V| + Σ_{v∈vertices} d(v))` via a rank array.
pub fn induced_subgraph(g: &Graph, vertices: &[VertexId]) -> (Graph, Vec<VertexId>) {
    debug_assert!(vertices.windows(2).all(|w| w[0] < w[1]));
    let mapping: Vec<VertexId> = vertices.to_vec();
    let rank = rank_table(g.num_vertices(), &mapping);
    let n = mapping.len();
    let mut offsets = vec![0usize; n + 1];
    let mut neighbors: Vec<VertexId> = Vec::new();
    for (local, &v) in mapping.iter().enumerate() {
        for &w in g.neighbors(v) {
            let local_w = rank[w.index()];
            if local_w != u32::MAX {
                neighbors.push(VertexId::new(local_w));
            }
        }
        offsets[local + 1] = neighbors.len();
    }
    (Graph::from_csr(offsets, neighbors), mapping)
}

/// Rank lookup for a sorted id table: a bit per id of the table's range and,
/// per word of bits, the number of table ids before it. [`IdRanks::rank`] is
/// one probe and a popcount; a binary search of the table, a chain of
/// dependent loads per lookup, took four times as long when the engine's
/// tasks translated their pulled adjacency lists. Sized by the range of the
/// ids (a bit and a half each), so meant to live as long as one task build.
#[derive(Debug)]
pub struct IdRanks {
    lo: u32,
    words: Vec<u64>,
    before: Vec<u32>,
}

impl IdRanks {
    /// Indexes `ids`, which must be strictly increasing.
    pub fn over(ids: &[VertexId]) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let lo = ids.first().map_or(0, |v| v.raw());
        let range = ids.last().map_or(0, |hi| (hi.raw() - lo) as usize + 1);
        let mut words = vec![0u64; range.div_ceil(64)];
        for v in ids {
            let off = v.raw() - lo;
            words[off as usize >> 6] |= 1 << (off & 63);
        }
        let mut count = 0u32;
        let before = words
            .iter()
            .map(|w| {
                count += w.count_ones();
                count - w.count_ones()
            })
            .collect();
        IdRanks { lo, words, before }
    }

    /// The index of `v` in the table, if it is there.
    #[inline]
    pub fn rank(&self, v: VertexId) -> Option<usize> {
        let off = v.raw().wrapping_sub(self.lo);
        let (word, bit) = (off as usize >> 6, off & 63);
        let bits = *self.words.get(word)?;
        (bits >> bit & 1 != 0)
            .then(|| (self.before[word] + (bits & ((1 << bit) - 1)).count_ones()) as usize)
    }
}

/// A small adjacency-list graph over a local index space, carried by mining
/// tasks.
///
/// Unlike [`Graph`], a `LocalGraph` supports *vertex removal* (needed by the
/// per-task k-core shrinking of Algorithms 6–7) and records the global id of
/// every local vertex.
///
/// A `LocalGraph` optionally carries a **hub index**
/// ([`LocalGraph::build_hub_index`]): a dense bit row per indexed vertex —
/// every vertex of a graph of at most [`ALL_ROWS_MAX_VERTICES`], the
/// high-degree ones of a larger graph — giving the mining kernels `O(1)`
/// [`LocalGraph::has_edge`] and word-parallel degree counting. The index is
/// derived data — two local graphs compare equal iff their structure
/// (adjacency, global ids, alive flags) matches, regardless of indexing.
#[derive(Clone, Debug)]
pub struct LocalGraph {
    /// `adj[i]` is the sorted list of local neighbor indices of local vertex `i`.
    adj: Vec<Vec<u32>>,
    /// `global[i]` is the global id of local vertex `i`.
    global: Vec<VertexId>,
    /// `alive[i]` is false if the vertex has been peeled away.
    alive: Vec<bool>,
    /// Number of alive vertices.
    alive_count: usize,
    /// The neighbor rows, row-major: `row_words` words per indexed vertex, in
    /// slot order. Rows keep bits of peeled neighbors (queries check `alive`
    /// separately, and edges are never removed — only vertices die), so
    /// removal needs no row maintenance. Empty when no index is built.
    rows: Vec<u64>,
    /// `row_of[i]` is the slot of local vertex `i`'s row, or [`NO_ROW`] when
    /// its *raw* degree was below the threshold at index-build time.
    row_of: Vec<u32>,
    /// Words per row: `capacity.div_ceil(64)` at index-build time.
    row_words: usize,
    /// The resolved threshold the rows were built with (`None` = no index).
    hub_threshold: Option<usize>,
}

impl PartialEq for LocalGraph {
    fn eq(&self, other: &Self) -> bool {
        // The hub index is derived data and deliberately excluded.
        self.adj == other.adj
            && self.global == other.global
            && self.alive == other.alive
            && self.alive_count == other.alive_count
    }
}

impl Eq for LocalGraph {}

impl LocalGraph {
    /// Creates a local graph with the given global ids and no edges.
    pub fn new(global_ids: Vec<VertexId>) -> Self {
        let n = global_ids.len();
        LocalGraph {
            adj: vec![Vec::new(); n],
            global: global_ids,
            alive: vec![true; n],
            alive_count: n,
            rows: Vec::new(),
            row_of: Vec::new(),
            row_words: 0,
            hub_threshold: None,
        }
    }

    /// Builds a `LocalGraph` from its parts, checking every condition the
    /// other constructors establish themselves: one list per id, the ids
    /// strictly increasing (so a local index is the rank of its global id),
    /// every list strictly increasing, in range and free of the vertex
    /// itself, and `b ∈ adj[a]` exactly when `a ∈ adj[b]`. Returns `None`
    /// otherwise. This is the entry point for lists that were assembled
    /// outside this crate — decoded from bytes, or merged from pulled
    /// adjacency lists. `O(|V| + |E|)`.
    pub fn from_sorted_lists(global_ids: Vec<VertexId>, adj: Vec<Vec<u32>>) -> Option<Self> {
        let n = global_ids.len();
        if adj.len() != n || !global_ids.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        // `mirrored[b]` counts the entries `a < b` of `adj[b]` already matched
        // by a `b` in `adj[a]`; lists are sorted, so the matches come in order
        // and by the time `b` is visited they must be its whole lower part.
        let mut mirrored = vec![0usize; n];
        for (a, list) in adj.iter().enumerate() {
            if !list.windows(2).all(|w| w[0] < w[1])
                || list.last().is_some_and(|&w| w as usize >= n)
            {
                return None;
            }
            let lower = list.partition_point(|&w| (w as usize) < a);
            if lower != mirrored[a] || list.get(lower).is_some_and(|&w| w as usize == a) {
                return None;
            }
            for &b in &list[lower..] {
                let seen = &mut mirrored[b as usize];
                if adj[b as usize].get(*seen) != Some(&(a as u32)) {
                    return None;
                }
                *seen += 1;
            }
        }
        Some(LocalGraph {
            adj,
            global: global_ids,
            alive: vec![true; n],
            alive_count: n,
            ..LocalGraph::new(Vec::new())
        })
    }

    /// Builds a `LocalGraph` as the subgraph of `g` induced by `vertices`
    /// (sorted, duplicate-free). `O(|V| + Σ d)` via a rank array.
    pub fn from_induced(g: &Graph, vertices: &[VertexId]) -> Self {
        debug_assert!(vertices.windows(2).all(|w| w[0] < w[1]));
        let rank = rank_table(g.num_vertices(), vertices);
        let mut lg = LocalGraph::new(vertices.to_vec());
        for (local, &v) in vertices.iter().enumerate() {
            let mut list: Vec<u32> = Vec::with_capacity(g.degree(v));
            for &w in g.neighbors(v) {
                let local_w = rank[w.index()];
                if local_w != u32::MAX {
                    list.push(local_w);
                }
            }
            lg.adj[local] = list;
        }
        lg
    }

    /// Builds a `LocalGraph` from another local graph restricted to the given
    /// *local* indices of the parent (sorted, duplicate-free). This is the
    /// subgraph-materialisation step of task decomposition (Algorithm 8
    /// line 19): the child task's graph is induced by `S' ∪ ext(S')`.
    ///
    /// The child carries no hub index — the mining driver decides whether the
    /// child is big enough to warrant one. Costs `O(Σ_{i∈keep} d(i))`: the
    /// rank table comes from `scratch` and only its `keep` entries are
    /// touched.
    pub fn induce_from_local(&self, keep: &[u32], scratch: &mut SubgraphScratch) -> LocalGraph {
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]));
        let rank = &mut scratch.rank;
        if rank.len() < self.adj.len() {
            rank.resize(self.adj.len(), u32::MAX);
        }
        for (new_idx, &old_idx) in keep.iter().enumerate() {
            rank[old_idx as usize] = new_idx as u32;
        }
        let kept = |w: &&u32| self.alive[**w as usize] && rank[**w as usize] != u32::MAX;
        let mut child = LocalGraph::new(keep.iter().map(|&i| self.global[i as usize]).collect());
        for (list, &old_idx) in child.adj.iter_mut().zip(keep) {
            let parent_list = &self.adj[old_idx as usize];
            // Sized exactly: one allocation per list, never a regrowth.
            list.reserve_exact(parent_list.iter().filter(kept).count());
            list.extend(parent_list.iter().filter(kept).map(|&w| rank[w as usize]));
        }
        for &old_idx in keep {
            rank[old_idx as usize] = u32::MAX;
        }
        child
    }

    /// Builds the hub index: every vertex whose raw adjacency length reaches
    /// the threshold resolved from `spec` gets a dense neighbor row, making
    /// [`LocalGraph::has_edge`] `O(1)` on indexed vertices and letting the
    /// mining kernels count degrees by word-parallel AND + popcount.
    ///
    /// Under [`IndexSpec::Auto`] a graph of at most [`ALL_ROWS_MAX_VERTICES`]
    /// vertices indexes **every** vertex (threshold 0; at most 2 MiB of
    /// rows), so the kernels never fall back to list walks on the task
    /// subgraphs the miners recurse on; a larger graph keeps the hybrid
    /// [`crate::neighborhoods::auto_threshold`]. The rows live in one flat
    /// row-major word vector.
    ///
    /// Returns the resolved threshold (`None` when `spec` is
    /// [`IndexSpec::Disabled`], which also drops any existing index).
    /// Rebuilding replaces the previous index. Incremental mutation
    /// ([`LocalGraph::add_vertex`] / [`LocalGraph::add_edge`]) invalidates
    /// the index; vertex removal does not (rows keep dead neighbors and
    /// queries check liveness).
    pub fn build_hub_index(&mut self, spec: IndexSpec) -> Option<usize> {
        let n = self.adj.len();
        let threshold = match spec {
            IndexSpec::Auto if n <= ALL_ROWS_MAX_VERTICES => 0,
            _ => match spec.resolve(n) {
                Some(t) => t,
                None => {
                    self.invalidate_hub_index();
                    return None;
                }
            },
        };
        let words = n.div_ceil(64);
        let mut slots = 0u32;
        self.row_of.clear();
        self.row_of.extend(self.adj.iter().map(|list| {
            if list.len() >= threshold {
                slots += 1;
                slots - 1
            } else {
                NO_ROW
            }
        }));
        self.rows.clear();
        self.rows.resize(slots as usize * words, 0);
        for (list, &slot) in self.adj.iter().zip(&self.row_of) {
            if slot != NO_ROW {
                let row = &mut self.rows[slot as usize * words..][..words];
                for &w in list {
                    row[w as usize >> 6] |= 1u64 << (w & 63);
                }
            }
        }
        self.row_words = words;
        self.hub_threshold = Some(threshold);
        Some(threshold)
    }

    /// The threshold the current hub index was built with (`None` = no
    /// index).
    #[inline]
    pub fn hub_threshold(&self) -> Option<usize> {
        self.hub_threshold
    }

    /// Number of vertices carrying a bitset row.
    pub fn hub_count(&self) -> usize {
        self.rows.len().checked_div(self.row_words).unwrap_or(0)
    }

    /// The dense neighbor row of local vertex `i`, when it is indexed: word
    /// `w >> 6`, bit `w & 63` is set iff `w` is a raw neighbor (the layout of
    /// [`crate::VertexBitSet::words`]). Bits may include peeled neighbors;
    /// callers intersecting with sets of known-alive vertices (the degree
    /// kernels) need no extra filtering.
    #[inline]
    pub fn hub_row(&self, i: u32) -> Option<&[u64]> {
        match self.row_of.get(i as usize) {
            Some(&slot) if slot != NO_ROW => {
                Some(&self.rows[slot as usize * self.row_words..][..self.row_words])
            }
            _ => None,
        }
    }

    /// Heap bytes of the hub index (0 when none is built).
    pub fn hub_index_memory_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u64>()
            + self.row_of.capacity() * std::mem::size_of::<u32>()
    }

    /// Drops the hub index (used by mutating builders).
    fn invalidate_hub_index(&mut self) {
        if self.hub_threshold.is_some() {
            self.rows = Vec::new();
            self.row_of = Vec::new();
            self.row_words = 0;
            self.hub_threshold = None;
        }
    }

    /// Number of local vertices ever added (including removed ones).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.global.len()
    }

    /// Number of alive (not peeled) vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.alive_count
    }

    /// Number of edges between alive vertices.
    pub fn num_edges(&self) -> usize {
        let mut total = 0usize;
        for i in 0..self.adj.len() {
            if !self.alive[i] {
                continue;
            }
            total += self.adj[i]
                .iter()
                .filter(|&&w| self.alive[w as usize])
                .count();
        }
        total / 2
    }

    /// True if local vertex `i` is alive.
    #[inline]
    pub fn is_alive(&self, i: u32) -> bool {
        self.alive[i as usize]
    }

    /// Global id of local vertex `i`.
    #[inline]
    pub fn global_id(&self, i: u32) -> VertexId {
        self.global[i as usize]
    }

    /// Finds the local index of a global id, if present and alive.
    pub fn local_index(&self, v: VertexId) -> Option<u32> {
        // The global mapping is not necessarily sorted for incrementally built
        // graphs, so do a linear scan; task graphs are small.
        self.global
            .iter()
            .position(|&g| g == v)
            .filter(|&i| self.alive[i])
            .map(|i| i as u32)
    }

    /// Iterator over alive local vertex indices.
    pub fn vertices(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.adj.len() as u32).filter(move |&i| self.alive[i as usize])
    }

    /// Sorted adjacency list of local vertex `i` **including** removed
    /// neighbors; callers that care must filter with [`LocalGraph::is_alive`].
    #[inline]
    pub fn raw_neighbors(&self, i: u32) -> &[u32] {
        &self.adj[i as usize]
    }

    /// Alive neighbors of local vertex `i`.
    pub fn neighbors(&self, i: u32) -> impl Iterator<Item = u32> + '_ {
        self.adj[i as usize]
            .iter()
            .copied()
            .filter(move |&w| self.alive[w as usize])
    }

    /// Degree of local vertex `i` counting only alive neighbors.
    pub fn degree(&self, i: u32) -> usize {
        self.neighbors(i).count()
    }

    /// True if alive vertices `a` and `b` are adjacent.
    ///
    /// This is the shared edge-query path of the mining hot loop: `O(1)` via
    /// the bitset row when either endpoint is an indexed hub
    /// ([`LocalGraph::build_hub_index`]), `O(log d)` over the shorter
    /// adjacency list otherwise.
    #[inline]
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        if a == b || !self.alive[a as usize] || !self.alive[b as usize] {
            return false;
        }
        perf::count_edge_queries(1);
        if let Some(row) = self.hub_row(a) {
            perf::count_bitset_hits(1);
            // Both endpoints are alive (checked above), so a stale bit for a
            // peeled vertex can never be observed here.
            return row_contains(row, b);
        }
        if let Some(row) = self.hub_row(b) {
            perf::count_bitset_hits(1);
            return row_contains(row, a);
        }
        let (s, l) = if self.adj[a as usize].len() <= self.adj[b as usize].len() {
            (a, b)
        } else {
            (b, a)
        };
        self.adj[s as usize].binary_search(&l).is_ok()
    }

    /// Adds an undirected edge between local indices (used when constructing
    /// task subgraphs incrementally from pulled adjacency lists). Keeps the
    /// lists sorted.
    pub fn add_edge(&mut self, a: u32, b: u32) {
        if a == b {
            return;
        }
        debug_assert!((a as usize) < self.adj.len() && (b as usize) < self.adj.len());
        // Structural growth invalidates the derived hub index; builders call
        // `build_hub_index` once construction is done.
        self.invalidate_hub_index();
        if let Err(pos) = self.adj[a as usize].binary_search(&b) {
            self.adj[a as usize].insert(pos, b);
        }
        if let Err(pos) = self.adj[b as usize].binary_search(&a) {
            self.adj[b as usize].insert(pos, a);
        }
    }

    /// Appends a new local vertex with the given global id and returns its
    /// local index.
    pub fn add_vertex(&mut self, global: VertexId) -> u32 {
        self.invalidate_hub_index();
        let idx = self.adj.len() as u32;
        self.adj.push(Vec::new());
        self.global.push(global);
        self.alive.push(true);
        self.alive_count += 1;
        idx
    }

    /// Removes (peels) a vertex. Its edges become invisible to alive queries.
    pub fn remove_vertex(&mut self, i: u32) {
        if self.alive[i as usize] {
            self.alive[i as usize] = false;
            self.alive_count -= 1;
        }
    }

    /// Shrinks the graph to its k-core **in place** by peeling alive vertices
    /// of alive-degree `< k`. Returns the number of vertices removed. The
    /// degree and stack buffers come from `scratch`.
    pub fn shrink_to_k_core(&mut self, k: usize, scratch: &mut SubgraphScratch) -> usize {
        if k == 0 {
            return 0;
        }
        let k = u32::try_from(k).unwrap_or(u32::MAX);
        let (degree, stack) = (&mut scratch.degree, &mut scratch.stack);
        degree.clear();
        degree.extend((0..self.adj.len() as u32).map(|i| {
            if self.alive[i as usize] {
                self.degree(i) as u32
            } else {
                0
            }
        }));
        stack.clear();
        stack.extend(
            (0..self.adj.len() as u32)
                .filter(|&i| self.alive[i as usize] && degree[i as usize] < k),
        );
        let mut removed = 0usize;
        while let Some(v) = stack.pop() {
            self.remove_vertex(v);
            removed += 1;
            for &w in &self.adj[v as usize] {
                let d = &mut degree[w as usize];
                // A vertex is queued exactly once: at the start if it is
                // already below k, else when this decrement takes it there.
                if self.alive[w as usize] && *d >= k {
                    *d -= 1;
                    if *d < k {
                        stack.push(w);
                    }
                }
            }
        }
        removed
    }

    /// Compacts the graph: drops removed vertices and renumbers the alive ones
    /// to `0..alive_count`, returning the compacted graph. The relative order
    /// of global ids is preserved.
    pub fn compact(&self, scratch: &mut SubgraphScratch) -> LocalGraph {
        // `induce_from_local` expects sorted local indices, which `vertices()`
        // yields by construction.
        let mut keep = std::mem::take(&mut scratch.keep);
        keep.clear();
        keep.extend(self.vertices());
        let compacted = self.induce_from_local(&keep, scratch);
        scratch.keep = keep;
        compacted
    }

    /// Converts to an immutable [`Graph`] plus global-id mapping (compacting
    /// removed vertices away).
    pub fn to_graph(&self) -> (Graph, Vec<VertexId>) {
        let compacted = self.compact(&mut SubgraphScratch::default());
        let n = compacted.adj.len();
        let mut offsets = vec![0usize; n + 1];
        let mut neighbors = Vec::new();
        for i in 0..n {
            for &w in &compacted.adj[i] {
                neighbors.push(VertexId::new(w));
            }
            offsets[i + 1] = neighbors.len();
        }
        (Graph::from_csr(offsets, neighbors), compacted.global)
    }

    /// Approximate heap footprint in bytes (for the engine's memory metrics).
    pub fn memory_bytes(&self) -> usize {
        let adj_bytes: usize = self
            .adj
            .iter()
            .map(|l| l.len() * std::mem::size_of::<u32>())
            .sum();
        adj_bytes
            + self.global.len() * std::mem::size_of::<VertexId>()
            + self.alive.len()
            + self.adj.len() * std::mem::size_of::<Vec<u32>>()
            + self.hub_index_memory_bytes()
    }

    /// Global ids of all alive vertices, in local-index order.
    pub fn alive_global_ids(&self) -> Vec<VertexId> {
        self.vertices().map(|i| self.global_id(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure4() -> Graph {
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
            (1, 5),
            (5, 6),
            (2, 6),
            (3, 7),
            (7, 8),
            (3, 8),
        ];
        Graph::from_edges(9, edges.iter().copied()).unwrap()
    }

    #[test]
    fn induced_subgraph_of_figure4_red_set() {
        let g = figure4();
        // S = {a, b, c, d, e} = {0,1,2,3,4}.
        let vs: Vec<VertexId> = (0..5u32).map(VertexId::new).collect();
        let (sub, mapping) = induced_subgraph(&g, &vs);
        assert_eq!(sub.num_vertices(), 5);
        // The induced subgraph has 9 edges (all pairs except b-d).
        assert_eq!(sub.num_edges(), 9);
        assert_eq!(mapping.len(), 5);
        sub.validate().unwrap();
    }

    #[test]
    fn local_graph_from_induced_matches_graph() {
        let g = figure4();
        let vs: Vec<VertexId> = (0..5u32).map(VertexId::new).collect();
        let lg = LocalGraph::from_induced(&g, &vs);
        assert_eq!(lg.num_vertices(), 5);
        assert_eq!(lg.num_edges(), 9);
        assert!(lg.has_edge(0, 1));
        assert!(!lg.has_edge(1, 3)); // b-d not an edge
        assert_eq!(lg.global_id(4), VertexId::new(4));
    }

    #[test]
    fn local_graph_remove_and_degree() {
        let g = figure4();
        let vs: Vec<VertexId> = (0..5u32).map(VertexId::new).collect();
        let mut lg = LocalGraph::from_induced(&g, &vs);
        assert_eq!(lg.degree(0), 4);
        lg.remove_vertex(4); // remove e
        assert_eq!(lg.num_vertices(), 4);
        assert_eq!(lg.degree(0), 3);
        assert!(!lg.has_edge(0, 4));
        assert_eq!(lg.num_edges(), 5);
    }

    #[test]
    fn shrink_to_k_core_peels_cascade() {
        // Path 0-1-2-3 plus triangle 3-4-5.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)]).unwrap();
        let vs: Vec<VertexId> = (0..6u32).map(VertexId::new).collect();
        let mut lg = LocalGraph::from_induced(&g, &vs);
        let removed = lg.shrink_to_k_core(2, &mut SubgraphScratch::default());
        assert_eq!(removed, 3); // 0, 1, 2 peel away
        assert_eq!(lg.num_vertices(), 3);
        let alive: Vec<u32> = lg.alive_global_ids().iter().map(|v| v.raw()).collect();
        assert_eq!(alive, vec![3, 4, 5]);
    }

    #[test]
    fn compact_renumbers_and_preserves_edges() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)]).unwrap();
        let vs: Vec<VertexId> = (0..6u32).map(VertexId::new).collect();
        let mut lg = LocalGraph::from_induced(&g, &vs);
        let mut scratch = SubgraphScratch::default();
        lg.shrink_to_k_core(2, &mut scratch);
        let c = lg.compact(&mut scratch);
        assert_eq!(c.capacity(), 3);
        assert_eq!(c.num_edges(), 3);
        let (as_graph, mapping) = lg.to_graph();
        assert_eq!(as_graph.num_vertices(), 3);
        assert_eq!(as_graph.num_edges(), 3);
        assert_eq!(
            mapping.iter().map(|v| v.raw()).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        as_graph.validate().unwrap();
    }

    #[test]
    fn induce_from_local_respects_alive_flags() {
        let g = figure4();
        let vs: Vec<VertexId> = (0..5u32).map(VertexId::new).collect();
        let mut lg = LocalGraph::from_induced(&g, &vs);
        lg.remove_vertex(2); // remove c
        let mut scratch = SubgraphScratch::default();
        let child = lg.induce_from_local(&[0, 1, 3, 4], &mut scratch);
        assert_eq!(child.capacity(), 4);
        // c's edges must be gone; a-b, a-d, a-e, b-e, d-e remain.
        assert_eq!(child.num_edges(), 5);
        // The scratch rank table is left clean: a second, different induction
        // through the same buffers sees none of the first one's entries.
        let other = lg.induce_from_local(&[1, 4], &mut scratch);
        assert_eq!(other.capacity(), 2);
        assert_eq!(other.num_edges(), 1);
    }

    #[test]
    fn hub_index_agrees_with_binary_search_under_removal() {
        let g = figure4();
        let vs: Vec<VertexId> = g.vertices().collect();
        let plain = LocalGraph::from_induced(&g, &vs);
        for threshold in [0usize, 2, 4, 100] {
            let mut indexed = plain.clone();
            indexed.build_hub_index(IndexSpec::Threshold(threshold));
            assert_eq!(indexed.hub_threshold(), Some(threshold));
            assert_eq!(plain, indexed, "hub index must not affect equality");
            for a in 0..9u32 {
                for b in 0..9u32 {
                    assert_eq!(
                        indexed.has_edge(a, b),
                        plain.has_edge(a, b),
                        "threshold {threshold}, pair ({a}, {b})"
                    );
                }
            }
            // Peel a hub and a leaf: rows keep stale bits, queries must not.
            let mut peeled_plain = plain.clone();
            let mut peeled_indexed = indexed.clone();
            for v in [3u32, 6] {
                peeled_plain.remove_vertex(v);
                peeled_indexed.remove_vertex(v);
            }
            for a in 0..9u32 {
                for b in 0..9u32 {
                    assert_eq!(
                        peeled_indexed.has_edge(a, b),
                        peeled_plain.has_edge(a, b),
                        "post-removal threshold {threshold}, pair ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn hub_index_auto_and_disabled_and_invalidation() {
        let g = figure4();
        let vs: Vec<VertexId> = g.vertices().collect();
        let mut lg = LocalGraph::from_induced(&g, &vs);
        assert_eq!(lg.hub_threshold(), None);
        assert_eq!(lg.hub_index_memory_bytes(), 0);
        lg.build_hub_index(IndexSpec::Threshold(4));
        assert_eq!(lg.hub_count(), 5); // c, d have degree 5; a, b, e have 4
        assert!(lg.hub_index_memory_bytes() > 0);
        assert!(lg.hub_row(3).is_some());
        assert!(lg.hub_row(5).is_none());
        // Disabled drops the index.
        lg.build_hub_index(IndexSpec::Disabled);
        assert_eq!(lg.hub_threshold(), None);
        assert_eq!(lg.hub_count(), 0);
        // Structural growth invalidates a built index.
        lg.build_hub_index(IndexSpec::Threshold(0));
        assert!(lg.hub_threshold().is_some());
        let i = lg.add_vertex(VertexId::new(99));
        assert_eq!(lg.hub_threshold(), None);
        lg.build_hub_index(IndexSpec::Threshold(0));
        lg.add_edge(0, i);
        assert_eq!(lg.hub_threshold(), None);
        assert!(lg.has_edge(0, i));
    }

    #[test]
    fn id_ranks_agree_with_binary_search() {
        let ids = |raw: &[u32]| raw.iter().map(|&v| VertexId::new(v)).collect::<Vec<_>>();
        for table in [
            ids(&[]),
            ids(&[7]),
            ids(&[0, 1, 2, 63, 64, 65, 127, 128, 1_000]),
            ids(&[5, 69, 70, 1_000_000]),
            (300..700).step_by(3).map(VertexId::new).collect(),
        ] {
            let ranks = IdRanks::over(&table);
            let probes = table
                .iter()
                .flat_map(|v| [v.raw().wrapping_sub(1), v.raw(), v.raw().wrapping_add(1)])
                .chain([0, 64, u32::MAX]);
            for probe in probes {
                let v = VertexId::new(probe);
                assert_eq!(ranks.rank(v), table.binary_search(&v).ok(), "{probe}");
            }
        }
    }

    #[test]
    fn from_sorted_lists_checks_every_condition() {
        let ids = |raw: &[u32]| raw.iter().map(|&v| VertexId::new(v)).collect::<Vec<_>>();
        let build = |raw: &[u32], adj: &[&[u32]]| {
            LocalGraph::from_sorted_lists(ids(raw), adj.iter().map(|l| l.to_vec()).collect())
        };
        // A triangle with a pendant vertex equals the induced construction.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap();
        let all: Vec<VertexId> = g.vertices().collect();
        let lists: [&[u32]; 4] = [&[1, 2], &[0, 2], &[0, 1, 3], &[2]];
        assert_eq!(
            build(&[0, 1, 2, 3], &lists),
            Some(LocalGraph::from_induced(&g, &all))
        );
        assert_eq!(build(&[], &[]).map(|g| g.capacity()), Some(0));
        // Ids need not be dense, only increasing.
        assert!(build(&[5, 9, 40, 41], &lists).is_some());
        assert!(build(&[5, 9, 9, 41], &lists).is_none(), "repeated id");
        assert!(build(&[5, 9, 41, 40], &lists).is_none(), "ids out of order");
        assert!(build(&[0, 1, 2], &lists).is_none(), "a list without an id");
        let broken = |adj: [&[u32]; 4]| build(&[0, 1, 2, 3], &adj).is_none();
        assert!(broken([&[2, 1], &[0, 2], &[0, 1, 3], &[2]]), "unsorted");
        assert!(broken([&[1, 1, 2], &[0, 2], &[0, 1, 3], &[2]]), "duplicate");
        assert!(broken([&[0, 1, 2], &[0, 2], &[0, 1, 3], &[2]]), "loop");
        assert!(
            broken([&[1, 2], &[0, 2], &[0, 1, 3], &[2, 4]]),
            "out of range"
        );
        assert!(broken([&[1, 2], &[0, 2], &[0, 1], &[2]]), "3 names 2 only");
        assert!(
            broken([&[1, 2, 3], &[0, 2], &[0, 1, 3], &[2]]),
            "0 names 3 only"
        );
    }

    #[test]
    fn add_vertex_and_add_edge_incremental_build() {
        let mut lg = LocalGraph::new(vec![]);
        let a = lg.add_vertex(VertexId::new(100));
        let b = lg.add_vertex(VertexId::new(200));
        let c = lg.add_vertex(VertexId::new(300));
        lg.add_edge(a, b);
        lg.add_edge(b, c);
        lg.add_edge(b, c); // duplicate ignored
        assert_eq!(lg.num_vertices(), 3);
        assert_eq!(lg.num_edges(), 2);
        assert_eq!(lg.local_index(VertexId::new(200)), Some(b));
        assert_eq!(lg.local_index(VertexId::new(999)), None);
        assert!(lg.memory_bytes() > 0);
    }
}
