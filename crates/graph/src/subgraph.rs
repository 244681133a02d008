//! Induced subgraphs and the task-local graph representation.
//!
//! Mining tasks in the paper carry a *materialised subgraph* `t.g` — the
//! k-core of the spawning vertex's two-hop neighborhood, or an induced
//! subgraph of a parent task's graph after decomposition. [`LocalGraph`] is
//! that representation: a small immutable CSR over a *local* index space
//! (`0..n_local`) plus a mapping back to the global [`VertexId`]s, so that
//! result sets can be reported in terms of the original graph.

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

/// The caller-owned rank table of [`LocalGraph::induce_from_local`], so a
/// driver that builds one subgraph per root or per subtask pays for it once.
/// It is kept all-`u32::MAX` between calls (each call resets only the entries
/// it set), so a call costs `O(subgraph)`, not `O(parent)`.
#[derive(Debug, Default)]
pub struct SubgraphScratch {
    rank: Vec<u32>,
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
/// ids (a bit and a half each): over a run's k-core it is the numbering the
/// task assembly's per-worker arrays are indexed by.
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

/// A small immutable graph over a local index space, carried by mining
/// tasks: one flat CSR (`offsets`, `targets`) plus the global id of every
/// local vertex.
///
/// Nothing peels or grows a `LocalGraph`: a root task is cut out already
/// peeled to its k-core, a decomposed subtask is induced afresh from its
/// parent, and a decoded task is checked as a whole
/// ([`LocalGraph::from_sorted_lists`]). So every list holds exactly the
/// vertex's neighbors, and every constructor writes two buffers.
///
/// A `LocalGraph` optionally carries a **hub index**
/// ([`LocalGraph::build_hub_index`]): a dense bit row per indexed vertex —
/// every vertex of a graph of at most [`ALL_ROWS_MAX_VERTICES`], the
/// high-degree ones of a larger graph — giving the mining kernels `O(1)`
/// [`LocalGraph::has_edge`] and word-parallel degree counting. The index is
/// derived data — two local graphs compare equal iff their structure
/// (adjacency and global ids) matches, regardless of indexing.
#[derive(Clone, Debug)]
pub struct LocalGraph {
    /// `targets[offsets[i]..offsets[i + 1]]` is the sorted list of local
    /// neighbor indices of local vertex `i`.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    /// `global[i]` is the global id of local vertex `i`.
    global: Vec<VertexId>,
    /// The neighbor rows, row-major: `row_words` words per indexed vertex, in
    /// slot order. Empty when no index is built.
    rows: Vec<u64>,
    /// `row_of[i]` is the slot of local vertex `i`'s row, or [`NO_ROW`] when
    /// its degree was below the threshold at index-build time.
    row_of: Vec<u32>,
    /// Words per row: `n.div_ceil(64)` at index-build time.
    row_words: usize,
    /// The resolved threshold the rows were built with (`None` = no index).
    hub_threshold: Option<usize>,
}

impl PartialEq for LocalGraph {
    fn eq(&self, other: &Self) -> bool {
        // The hub index is derived data and deliberately excluded.
        self.offsets == other.offsets
            && self.targets == other.targets
            && self.global == other.global
    }
}

impl Eq for LocalGraph {}

impl LocalGraph {
    /// Creates a local graph with the given global ids and no edges.
    pub fn new(global_ids: Vec<VertexId>) -> Self {
        LocalGraph::from_lists(global_ids, |_| std::iter::empty())
    }

    /// The graph whose local vertex `i` has the neighbors `list(i)`, sorted,
    /// in two passes over the lists so that each buffer is sized exactly.
    fn from_lists<I>(global: Vec<VertexId>, list: impl Fn(usize) -> I) -> Self
    where
        I: Iterator<Item = u32>,
    {
        let n = global.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity((0..n).map(|i| list(i).count()).sum());
        offsets.push(0);
        for i in 0..n {
            targets.extend(list(i));
            offsets.push(targets.len());
        }
        LocalGraph::from_csr(global, offsets, targets)
    }

    /// The graph of a CSR its caller built correctly.
    pub(crate) fn from_csr(global: Vec<VertexId>, offsets: Vec<usize>, targets: Vec<u32>) -> Self {
        debug_assert_eq!(offsets.len(), global.len() + 1);
        LocalGraph {
            offsets,
            targets,
            global,
            rows: Vec::new(),
            row_of: Vec::new(),
            row_words: 0,
            hub_threshold: None,
        }
    }

    /// Builds a `LocalGraph` from a CSR — vertex `a`'s list is
    /// `targets[offsets[a]..offsets[a + 1]]` — checking every condition the
    /// other constructors establish themselves: one list per id, framed by
    /// offsets that start at 0, never decrease and end at `targets.len()`;
    /// the ids strictly increasing (so a local index is the rank of its
    /// global id); every list strictly increasing, in range and free of the
    /// vertex itself; and `b` in `a`'s list exactly when `a` is in `b`'s.
    /// Returns `None` otherwise. This is the entry point for lists that were
    /// assembled outside this crate — decoded from bytes, or merged from
    /// pulled adjacency lists. `O(|V| + |E|)`.
    pub fn from_sorted_lists(
        global_ids: Vec<VertexId>,
        offsets: Vec<usize>,
        targets: Vec<u32>,
    ) -> Option<Self> {
        let n = global_ids.len();
        let framed = offsets.len() == n + 1
            && offsets[0] == 0
            && offsets.windows(2).all(|w| w[0] <= w[1])
            && offsets[n] == targets.len();
        if !framed || !global_ids.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        let list = |a: usize| &targets[offsets[a]..offsets[a + 1]];
        // `mirrored[b]` counts the entries `a < b` of `b`'s list already
        // matched by a `b` in `a`'s; lists are sorted, so the matches come in
        // order and by the time `b` is visited they must be its whole lower
        // part.
        let mut mirrored = vec![0usize; n];
        for a in 0..n {
            let own = list(a);
            if !own.windows(2).all(|w| w[0] < w[1]) || own.last().is_some_and(|&w| w as usize >= n)
            {
                return None;
            }
            let lower = own.partition_point(|&w| (w as usize) < a);
            if lower != mirrored[a] || own.get(lower).is_some_and(|&w| w as usize == a) {
                return None;
            }
            for &b in &own[lower..] {
                let seen = &mut mirrored[b as usize];
                if list(b as usize).get(*seen) != Some(&(a as u32)) {
                    return None;
                }
                *seen += 1;
            }
        }
        Some(LocalGraph::from_csr(global_ids, offsets, targets))
    }

    /// Builds a `LocalGraph` as the subgraph of `g` induced by `vertices`
    /// (sorted, duplicate-free). `O(|V| + Σ d)` via a rank array.
    pub fn from_induced(g: &Graph, vertices: &[VertexId]) -> Self {
        debug_assert!(vertices.windows(2).all(|w| w[0] < w[1]));
        let rank = rank_table(g.num_vertices(), vertices);
        LocalGraph::from_lists(vertices.to_vec(), |i| {
            let ranks = g.neighbors(vertices[i]).iter().map(|w| rank[w.index()]);
            ranks.filter(|&r| r != u32::MAX)
        })
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
        if rank.len() < self.capacity() {
            rank.resize(self.capacity(), u32::MAX);
        }
        for (new_idx, &old_idx) in keep.iter().enumerate() {
            rank[old_idx as usize] = new_idx as u32;
        }
        let global = keep.iter().map(|&i| self.global[i as usize]).collect();
        let child = LocalGraph::from_lists(global, |i| {
            let ranks = self.neighbors(keep[i]).iter().map(|&w| rank[w as usize]);
            ranks.filter(|&r| r != u32::MAX)
        });
        for &old_idx in keep {
            rank[old_idx as usize] = u32::MAX;
        }
        child
    }

    /// Builds the hub index: every vertex whose degree reaches the threshold
    /// resolved from `spec` gets a dense neighbor row, making
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
    /// Returns the resolved threshold. Rebuilding replaces the previous
    /// index.
    pub fn build_hub_index(&mut self, spec: IndexSpec) -> usize {
        let n = self.capacity();
        let threshold = match spec {
            IndexSpec::Auto if n <= ALL_ROWS_MAX_VERTICES => 0,
            _ => spec.resolve(n),
        };
        let words = n.div_ceil(64);
        let (offsets, targets) = (&self.offsets, &self.targets);
        let mut slots = 0u32;
        self.row_of.clear();
        self.row_of.extend(offsets.windows(2).map(|span| {
            if span[1] - span[0] >= threshold {
                slots += 1;
                slots - 1
            } else {
                NO_ROW
            }
        }));
        self.rows.clear();
        self.rows.resize(slots as usize * words, 0);
        for (span, &slot) in offsets.windows(2).zip(&self.row_of) {
            if slot != NO_ROW {
                let row = &mut self.rows[slot as usize * words..][..words];
                for &w in &targets[span[0]..span[1]] {
                    row[w as usize >> 6] |= 1u64 << (w & 63);
                }
            }
        }
        self.row_words = words;
        self.hub_threshold = Some(threshold);
        threshold
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
    /// `w >> 6`, bit `w & 63` is set iff `w` is a neighbor (the layout of
    /// [`crate::VertexBitSet::words`]).
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

    /// Number of local vertices.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.global.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Global id of local vertex `i`.
    #[inline]
    pub fn global_id(&self, i: u32) -> VertexId {
        self.global[i as usize]
    }

    /// The global ids of all local vertices, in local-index order.
    pub fn global_ids(&self) -> &[VertexId] {
        &self.global
    }

    /// Sorted adjacency list of local vertex `i`.
    #[inline]
    pub fn neighbors(&self, i: u32) -> &[u32] {
        let i = i as usize;
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Degree of local vertex `i`.
    #[inline]
    pub fn degree(&self, i: u32) -> usize {
        self.offsets[i as usize + 1] - self.offsets[i as usize]
    }

    /// True if vertices `a` and `b` are adjacent.
    ///
    /// This is the shared edge-query path of the mining hot loop: `O(1)` via
    /// the bitset row when either endpoint is an indexed hub
    /// ([`LocalGraph::build_hub_index`]), `O(log d)` over the shorter
    /// adjacency list otherwise.
    #[inline]
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        if a == b {
            return false;
        }
        perf::count_edge_queries(1);
        if let Some(row) = self.hub_row(a) {
            perf::count_bitset_hits(1);
            return row_contains(row, b);
        }
        if let Some(row) = self.hub_row(b) {
            perf::count_bitset_hits(1);
            return row_contains(row, a);
        }
        let (s, l) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(s).binary_search(&l).is_ok()
    }

    /// Heap footprint in bytes (for the engine's memory metrics). `O(1)`.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.targets.as_slice())
            + std::mem::size_of_val(self.global.as_slice())
            + self.hub_index_memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::figure4_graph as figure4;

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
        assert_eq!(lg.capacity(), 5);
        assert_eq!(lg.num_edges(), 9);
        assert_eq!(lg.degree(0), 4);
        assert_eq!(lg.neighbors(1), &[0, 2, 4]);
        assert!(lg.has_edge(0, 1));
        assert!(!lg.has_edge(1, 3)); // b-d not an edge
        assert_eq!(lg.global_id(4), VertexId::new(4));
        assert!(lg.memory_bytes() > 0);
    }

    #[test]
    fn induce_from_local_keeps_the_edges_among_the_kept() {
        let g = figure4();
        let vs: Vec<VertexId> = (0..5u32).map(VertexId::new).collect();
        let lg = LocalGraph::from_induced(&g, &vs);
        let mut scratch = SubgraphScratch::default();
        let child = lg.induce_from_local(&[0, 1, 3, 4], &mut scratch);
        assert_eq!(child.global_ids(), [0, 1, 3, 4].map(VertexId::new));
        // c's edges are gone; a-b, a-d, a-e, b-e, d-e remain.
        assert_eq!(child.num_edges(), 5);
        assert_eq!(child, LocalGraph::from_induced(&g, child.global_ids()));
        // The scratch rank table is left clean: a second, different induction
        // through the same buffers sees none of the first one's entries.
        let other = lg.induce_from_local(&[1, 4], &mut scratch);
        assert_eq!(other.capacity(), 2);
        assert_eq!(other.num_edges(), 1);
    }

    #[test]
    fn hub_index_agrees_with_binary_search() {
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
        // Auto on a small graph gives every vertex a row.
        assert_eq!(lg.build_hub_index(IndexSpec::Auto), 0);
        assert_eq!(lg.hub_count(), 9);
        // A threshold no degree reaches drops every row.
        lg.build_hub_index(IndexSpec::Threshold(usize::MAX));
        assert_eq!(lg.hub_threshold(), Some(usize::MAX));
        assert_eq!(lg.hub_count(), 0);
        assert!((0..9).all(|i| lg.hub_row(i).is_none()));
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
            let mut offsets = vec![0];
            offsets.extend(adj.iter().scan(0, |end, list| {
                *end += list.len();
                Some(*end)
            }));
            LocalGraph::from_sorted_lists(ids(raw), offsets, adj.concat())
        };
        // A triangle with a pendant vertex equals the induced construction.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap();
        let all: Vec<VertexId> = g.vertices().collect();
        let lists: [&[u32]; 4] = [&[1, 2], &[0, 2], &[0, 1, 3], &[2]];
        assert_eq!(
            build(&[0, 1, 2, 3], &lists),
            Some(LocalGraph::from_induced(&g, &all))
        );
        assert_eq!(build(&[], &[]), Some(LocalGraph::new(Vec::new())));
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
        // Offsets that do not frame the targets.
        let frame = |offsets: Vec<usize>| {
            LocalGraph::from_sorted_lists(ids(&[0, 1]), offsets, vec![1, 0]).is_none()
        };
        assert!(!frame(vec![0, 1, 2]));
        assert!(frame(vec![0, 1]), "an offset short");
        assert!(frame(vec![1, 1, 2]), "not starting at 0");
        assert!(frame(vec![0, 2, 1]), "decreasing");
        assert!(frame(vec![0, 1, 1]), "not ending at the targets' end");
        assert!(frame(vec![0, 1, 3]), "past the targets' end");
    }
}
