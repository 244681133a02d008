//! The immutable CSR graph.
//!
//! [`Graph`] is the canonical in-memory representation used by the whole
//! project: a simple, undirected graph stored in compressed-sparse-row form
//! with each adjacency list sorted by vertex id. Sorted lists give
//! `O(log d)` edge queries (`has_edge`) and allow linear-time sorted-set
//! intersections, which the pruning rules of the miner (cover-vertex pruning,
//! diameter pruning) rely on heavily.

use crate::error::GraphError;
use crate::vertex::VertexId;
use crate::Result;

/// A simple undirected graph in CSR (compressed sparse row) form.
///
/// * Vertex ids are dense `0..num_vertices()`.
/// * Each adjacency list is sorted in increasing vertex-id order and contains
///   no duplicates or self loops.
/// * The structure is immutable after construction (build one with
///   [`crate::GraphBuilder`] or [`Graph::from_edges`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` is the slice of `neighbors` holding Γ(v).
    offsets: Vec<usize>,
    /// Concatenated, per-vertex-sorted adjacency lists.
    neighbors: Vec<VertexId>,
    /// Number of undirected edges (each edge counted once).
    num_edges: usize,
}

impl Graph {
    /// Creates an empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
            num_edges: 0,
        }
    }

    /// Builds a graph with `n` vertices from an iterator of undirected edges.
    ///
    /// Self loops and duplicate edges are silently dropped. Edges referencing
    /// vertices `>= n` produce an error.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut builder = crate::GraphBuilder::with_capacity(n, 0);
        for (a, b) in edges {
            if a as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: a,
                    num_vertices: n,
                });
            }
            if b as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: b,
                    num_vertices: n,
                });
            }
            builder.add_edge(VertexId::new(a), VertexId::new(b));
        }
        builder.set_min_vertices(n);
        Ok(builder.build())
    }

    /// Constructs a graph directly from pre-validated CSR arrays.
    ///
    /// This is used by the builder and the subgraph-induction code; callers
    /// must guarantee that the adjacency lists are sorted, deduplicated,
    /// symmetric and free of self loops.
    pub(crate) fn from_csr(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        let num_edges = neighbors.len() / 2;
        Graph {
            offsets,
            neighbors,
            num_edges,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (each counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Returns true if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_vertices() == 0
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as u32).map(VertexId::new)
    }

    /// The sorted adjacency list Γ(v).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let i = v.index();
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Degree d(v) = |Γ(v)|.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let i = v.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Returns true if `(u, v)` is an edge. `O(log d)` over the shorter
    /// adjacency list. This is the whole graph's one edge-query path: every
    /// membership probe on a [`Graph`] (including [`Graph::validate`]) routes
    /// through here, so the perf counters see each query exactly once.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        crate::neighborhoods::perf::count_edge_queries(1);
        self.has_edge_csr(u, v)
    }

    /// The raw CSR binary search behind [`Graph::has_edge`], uncounted — used
    /// by [`crate::NeighborhoodIndex`] (which already counted the query) as
    /// its non-hub fallback.
    #[inline]
    pub(crate) fn has_edge_csr(&self, u: VertexId, v: VertexId) -> bool {
        // Search the shorter adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adjacency_contains(a, b)
    }

    /// Directed membership primitive: true if `v` appears in Γ(u). This is
    /// the one place the crate binary-searches an adjacency slice for
    /// membership; [`Graph::has_edge`] and [`Graph::validate`] both build on
    /// it (`validate` needs the *directed* form — a symmetric query could
    /// answer from the other endpoint's list and mask an asymmetric CSR).
    #[inline]
    fn adjacency_contains(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all undirected edges, each reported once with
    /// `src < dst`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&w| u < w)
                .map(move |w| (u, w))
        })
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|i| self.offsets[i + 1] - self.offsets[i])
            .max()
            .unwrap_or(0)
    }

    /// Average degree (0.0 for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_vertices() as f64
        }
    }

    /// Number of common neighbors of `u` and `v` (sorted-merge intersection).
    pub fn common_neighbor_count(&self, u: VertexId, v: VertexId) -> usize {
        let mut count = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        let nu = self.neighbors(u);
        let nv = self.neighbors(v);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// A stable 64-bit fingerprint of the graph's content.
    ///
    /// Hashes the vertex count and every CSR offset/neighbor with the
    /// release-stable FNV-1a hasher ([`crate::hash::Fnv1a64`]), so the same
    /// graph structure always produces the same value — across processes,
    /// platforms and releases. Two graphs compare [`PartialEq`]-equal exactly
    /// when their fingerprints are computed over identical arrays, which makes
    /// this the cache key of choice for anything memoising per-graph work
    /// (the service-layer result cache keys on it via `qcm-core`'s
    /// `QueryKey`).
    ///
    /// This is a hash of the *labelled* structure: isomorphic graphs with
    /// different vertex numberings hash differently. `O(|V| + |E|)`.
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::hash::Fnv1a64::new();
        h.write_u64(self.num_vertices() as u64);
        for &off in &self.offsets {
            h.write_u64(off as u64);
        }
        for &v in &self.neighbors {
            h.write_u32(v.raw());
        }
        h.finish()
    }

    /// Approximate heap size of the CSR arrays in bytes. Used by the engine's
    /// memory accounting (the "RAM" column of Table 2).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<VertexId>()
    }

    /// Checks the internal CSR invariants. Intended for tests and debug
    /// assertions; `O(|V| + |E| log d)`.
    pub fn validate(&self) -> Result<()> {
        let n = self.num_vertices();
        for v in self.vertices() {
            let adj = self.neighbors(v);
            for w in adj.windows(2) {
                if w[0] >= w[1] {
                    return Err(GraphError::Parse {
                        line: 0,
                        message: format!("adjacency list of {v} is not strictly sorted"),
                    });
                }
            }
            for &w in adj {
                if w.index() >= n {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: w.raw(),
                        num_vertices: n,
                    });
                }
                if w == v {
                    return Err(GraphError::Parse {
                        line: 0,
                        message: format!("self loop at {v}"),
                    });
                }
                // Shared directed-membership path (kept directed on purpose:
                // the symmetric `has_edge` probes the shorter list and would
                // mask an asymmetric CSR).
                if !self.adjacency_contains(w, v) {
                    return Err(GraphError::Parse {
                        line: 0,
                        message: format!("edge ({v},{w}) is not symmetric"),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 9-vertex illustrative graph of Figure 4 of the paper
    /// (a..i mapped to 0..8).
    pub(crate) fn figure4_graph() -> Graph {
        // a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8
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
            (1, 5), // b-f
            (5, 6), // f-g
            (2, 6), // c-g
            (3, 7), // d-h
            (7, 8), // h-i
            (3, 8), // d-i
        ];
        Graph::from_edges(9, edges.iter().copied()).unwrap()
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(!g.is_empty());
        assert!(Graph::empty(0).is_empty());
    }

    #[test]
    fn from_edges_builds_symmetric_sorted_lists() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 0)]).unwrap();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(
            g.neighbors(VertexId::new(0)),
            &[VertexId::new(1), VertexId::new(2), VertexId::new(3)]
        );
        assert_eq!(g.degree(VertexId::new(0)), 3);
        assert_eq!(g.degree(VertexId::new(3)), 1);
        g.validate().unwrap();
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        let err = Graph::from_edges(3, [(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 5, .. }
        ));
    }

    #[test]
    fn duplicate_edges_and_loops_are_dropped() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(VertexId::new(2)), 0);
    }

    #[test]
    fn has_edge_checks_both_directions() {
        let g = figure4_graph();
        assert!(g.has_edge(VertexId::new(0), VertexId::new(3)));
        assert!(g.has_edge(VertexId::new(3), VertexId::new(0)));
        assert!(!g.has_edge(VertexId::new(0), VertexId::new(8)));
        assert!(!g.has_edge(VertexId::new(4), VertexId::new(4)));
    }

    #[test]
    fn figure4_degrees_match_paper() {
        let g = figure4_graph();
        // Γ(d) = {a, c, e, h, i} so d(d) = 5 (paper, Section 3.1).
        assert_eq!(g.degree(VertexId::new(3)), 5);
        let nbrs: Vec<u32> = g
            .neighbors(VertexId::new(3))
            .iter()
            .map(|v| v.raw())
            .collect();
        assert_eq!(nbrs, vec![0, 2, 4, 7, 8]);
        // Γ(e) = {a, b, c, d}.
        assert_eq!(g.degree(VertexId::new(4)), 4);
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = figure4_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.num_edges());
        for (u, v) in edges {
            assert!(u < v);
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn common_neighbors_counts_intersection() {
        let g = figure4_graph();
        // a and c share neighbors {b, d, e}.
        assert_eq!(
            g.common_neighbor_count(VertexId::new(0), VertexId::new(2)),
            3
        );
        // f and i share none.
        assert_eq!(
            g.common_neighbor_count(VertexId::new(5), VertexId::new(8)),
            0
        );
    }

    #[test]
    fn degree_statistics() {
        let g = figure4_graph();
        assert_eq!(g.max_degree(), 5);
        let expected_avg = 2.0 * g.num_edges() as f64 / 9.0;
        assert!((g.avg_degree() - expected_avg).abs() < 1e-12);
    }

    #[test]
    fn memory_bytes_is_nonzero_for_nonempty_graph() {
        let g = figure4_graph();
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        let g = figure4_graph();
        // Deterministic across calls and across an equal reconstruction.
        assert_eq!(g.content_hash(), g.content_hash());
        assert_eq!(g.content_hash(), figure4_graph().content_hash());
        // Edge-order of construction does not matter (CSR is canonical).
        let a = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let b = Graph::from_edges(3, [(1, 2), (0, 1)]).unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
        // Any structural change changes the hash.
        let c = Graph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        assert_ne!(a.content_hash(), c.content_hash());
        let d = Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        assert_ne!(a.content_hash(), d.content_hash());
        assert_ne!(
            Graph::empty(0).content_hash(),
            Graph::empty(1).content_hash()
        );
    }
}
