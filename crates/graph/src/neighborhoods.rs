//! The bitset-row policy ([`IndexSpec`]), the hub-indexed whole-graph view
//! ([`NeighborhoodIndex`]) and the kernel counters ([`perf`]).
//!
//! Sorted CSR adjacency lists give `O(log d)` edge queries. Fast in-memory
//! graph analytics engines get their speed from *dense* adjacency structures
//! tuned for repeated set operations: a bitset row per vertex makes
//! `has_edge` a single word probe and turns candidate-set intersection into
//! word-parallel ANDs.
//!
//! Storing a bitset row for **every** vertex costs `O(|V|² / 8)` bytes, so
//! the rule depends on the size of the graph:
//!
//! * A [`crate::LocalGraph`] of at most
//!   [`crate::subgraph::ALL_ROWS_MAX_VERTICES`] (4096) vertices under
//!   [`IndexSpec::Auto`] indexes *every* vertex — at most 2 MiB, in one flat
//!   row-major word vector. That covers the task subgraphs the miners
//!   recurse on (a root's two-hop k-core), where the same rows are probed and
//!   ANDed thousands of times, so the mining kernels never leave the word
//!   path there.
//! * Anything larger is **hybrid**: only vertices whose degree reaches a
//!   threshold get a row, everything else keeps the CSR binary search. With
//!   the [`IndexSpec::Auto`] threshold (`max(16, |V| / 64)`) a hub's row is at
//!   most ~2× the size of its adjacency slice, bounding the rows at ~2× the
//!   CSR footprint while covering exactly the vertices where `log d` hurts
//!   most (the ones every dense candidate set keeps probing).
//!
//! There is one edge-query backend per level: the whole [`Graph`] answers
//! from its CSR, and a task — serial root or engine task alike — answers
//! from the rows of its own [`crate::LocalGraph`]. No run builds rows over
//! the whole graph; [`NeighborhoodIndex`] does, for the benchmark of record
//! only.

use crate::bitset::VertexBitSet;
use crate::graph::Graph;
use crate::vertex::VertexId;
use qcm_sync::atomic::{AtomicU64, Ordering};
use qcm_sync::Arc;

/// Which vertices of a graph get a bitset neighborhood row. Every run uses
/// [`IndexSpec::Auto`]; tests pick a [`IndexSpec::Threshold`] to reach the
/// other kernel paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum IndexSpec {
    /// Pick the threshold from the graph size: `max(16, |V| / 64)`, which
    /// bounds the index at roughly twice the CSR footprint. A
    /// [`crate::LocalGraph`] small enough for a full row matrix
    /// ([`crate::subgraph::ALL_ROWS_MAX_VERTICES`]) indexes every vertex
    /// instead.
    #[default]
    Auto,
    /// Give a bitset row to every vertex of degree `>= t`. `Threshold(0)`
    /// indexes every vertex, `Threshold(usize::MAX)` none, so every edge
    /// query takes the CSR binary-search path.
    Threshold(usize),
}

impl IndexSpec {
    /// Resolves the spec against a vertex count: a row for every vertex of
    /// degree ≥ the returned threshold.
    pub fn resolve(self, num_vertices: usize) -> usize {
        match self {
            IndexSpec::Auto => auto_threshold(num_vertices),
            IndexSpec::Threshold(t) => t,
        }
    }
}

/// The [`IndexSpec::Auto`] hub threshold for an `n`-vertex graph.
///
/// A bitset row costs `n / 8` bytes; a vertex of degree `d` already stores
/// `4d` adjacency bytes. Requiring `d ≥ n / 64` keeps every row within ~2× of
/// the adjacency slice it shadows; the floor of 16 stops tiny graphs from
/// indexing everything for no measurable gain.
pub fn auto_threshold(n: usize) -> usize {
    (n / 64).max(16)
}

/// A hub-indexed view of an immutable [`Graph`]: shared CSR plus bitset rows
/// for every vertex of degree ≥ the resolved threshold.
///
/// Building it is `O(|V| + Σ_{hubs} d)` and allocates up to ~2× the CSR
/// size: a 4-byte slot per vertex once the graph has a hub, plus the rows; an
/// index over a hub-less graph owns no heap memory. No miner, engine or
/// service path builds or reads one — every run answers edge queries inside
/// per-task [`crate::LocalGraph`]s. Its only caller is the benchmark of
/// record, which times `build`, `has_edge` and `common_neighbor_count` for
/// its `graph.index_*` rows; it goes away with those rows (ROADMAP item 9,
/// which re-anchors the benchmark).
#[derive(Clone, Debug)]
pub struct NeighborhoodIndex {
    graph: Arc<Graph>,
    /// Resolved hub threshold.
    threshold: usize,
    /// `row_of[v]` is the slot of `v`'s row in `rows`, [`NO_ROW`] for a
    /// non-hub. Empty while the graph has no hub at all, so a hub-less index
    /// costs nothing per vertex.
    row_of: Vec<u32>,
    /// The dense neighbor rows of the vertices with `d(v) ≥ threshold`, in
    /// id order.
    rows: Vec<VertexBitSet>,
}

/// `row_of` entry of a vertex without a row.
const NO_ROW: u32 = u32::MAX;

impl NeighborhoodIndex {
    /// Builds the index over `graph` per `spec`.
    pub fn build(graph: Arc<Graph>, spec: IndexSpec) -> Self {
        let n = graph.num_vertices();
        let threshold = spec.resolve(n);
        let is_hub = |v: &VertexId| graph.degree(*v) >= threshold;
        let mut row_of: Vec<u32> = Vec::new();
        let mut rows: Vec<VertexBitSet> = Vec::new();
        for v in graph.vertices().filter(is_hub) {
            // The slot table appears with the first hub.
            if row_of.is_empty() {
                row_of = vec![NO_ROW; n];
            }
            let mut row = VertexBitSet::new(n);
            for &w in graph.neighbors(v) {
                row.insert(w.raw());
            }
            row_of[v.index()] = rows.len() as u32;
            rows.push(row);
        }
        NeighborhoodIndex {
            graph,
            threshold,
            row_of,
            rows,
        }
    }

    /// The underlying shared graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The resolved hub degree threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of vertices that received a bitset row.
    pub fn hub_count(&self) -> usize {
        self.rows.len()
    }

    /// True if `v` has a bitset row.
    #[inline]
    pub fn is_hub(&self, v: VertexId) -> bool {
        self.hub_row(v).is_some()
    }

    /// The dense neighbor row of `v`, when it is a hub.
    #[inline]
    pub fn hub_row(&self, v: VertexId) -> Option<&VertexBitSet> {
        match self.row_of.get(v.index()) {
            Some(&slot) if slot != NO_ROW => Some(&self.rows[slot as usize]),
            _ => None,
        }
    }

    /// True if `(u, v)` is an edge: `O(1)` when either endpoint is a hub,
    /// CSR binary search otherwise.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        perf::count_edge_queries(1);
        if let Some(row) = self.hub_row(u) {
            perf::count_bitset_hits(1);
            return row.contains(v.raw());
        }
        if let Some(row) = self.hub_row(v) {
            perf::count_bitset_hits(1);
            return row.contains(u.raw());
        }
        self.graph.has_edge_csr(u, v)
    }

    /// Number of common neighbors of `u` and `v`: word-parallel AND when both
    /// are hubs, hybrid probe otherwise.
    pub fn common_neighbor_count(&self, u: VertexId, v: VertexId) -> usize {
        perf::count_intersections(1);
        match (self.hub_row(u), self.hub_row(v)) {
            (Some(a), Some(b)) => a.intersection_count(b),
            (Some(a), None) => self
                .graph
                .neighbors(v)
                .iter()
                .filter(|w| a.contains(w.raw()))
                .count(),
            (None, Some(b)) => self
                .graph
                .neighbors(u)
                .iter()
                .filter(|w| b.contains(w.raw()))
                .count(),
            (None, None) => self.graph.common_neighbor_count(u, v),
        }
    }

    /// Heap footprint of the slot table and the bitset rows in bytes
    /// (excludes the shared CSR).
    pub fn memory_bytes(&self) -> usize {
        self.row_of.capacity() * std::mem::size_of::<u32>()
            + self.rows.capacity() * std::mem::size_of::<VertexBitSet>()
            + self
                .rows
                .iter()
                .map(VertexBitSet::memory_bytes)
                .sum::<usize>()
    }
}

/// Process-wide counters of the neighborhood kernels, read by the benchmark
/// of record (`graph.edge_queries`, `graph.bitset_hits`,
/// `graph.intersections`, `core.scratch_*`) and the `GET /metrics` route.
///
/// Counting is a plain add to a thread-local cell — no atomic, no lazy
/// initialisation — so it stays on unconditionally inside `has_edge` and the
/// scratch pool. [`perf::flush`] publishes the calling thread's cells to the
/// shared atomics; the serial miner calls it once per root, the engine once
/// per compute step, every thread on exit, and [`perf::snapshot`] on entry
/// (for the caller's own counts). Counts of *another* thread become visible at
/// its next flush. Totals only grow: measure a region as the
/// [`perf::PerfSnapshot::since`] of snapshots taken before and after it.
pub mod perf {
    use super::{AtomicU64, Ordering};
    use std::cell::Cell;

    /// The additive counters, in [`PerfSnapshot`] field order.
    #[derive(Clone, Copy)]
    enum Counter {
        EdgeQueries,
        BitsetHits,
        Intersections,
        AllocationsAvoided,
        ScratchFreshAllocs,
        Steals,
        StealFailures,
    }

    const COUNTERS: usize = Counter::StealFailures as usize + 1;

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);

    /// Published totals. A thread touches these once per flush, not once per
    /// count, so one cell per counter is enough.
    static TOTALS: [AtomicU64; COUNTERS] = [ZERO; COUNTERS];
    /// High-water mark of pooled scratch bytes — a gauge, published by
    /// `fetch_max`.
    static SCRATCH_BYTES_PEAK: AtomicU64 = AtomicU64::new(0);

    /// One thread's unpublished counts.
    struct Local {
        counts: [Cell<u64>; COUNTERS],
        scratch_bytes_peak: Cell<u64>,
    }

    impl Local {
        fn publish(&self) {
            for (cell, total) in self.counts.iter().zip(&TOTALS) {
                let n = cell.replace(0);
                if n != 0 {
                    // ordering: Relaxed — statistics counter; the sum only
                    // needs RMW atomicity.
                    total.fetch_add(n, Ordering::Relaxed);
                }
            }
            let peak = self.scratch_bytes_peak.replace(0);
            if peak != 0 {
                // ordering: Relaxed — high-water gauge, publishes no data.
                SCRATCH_BYTES_PEAK.fetch_max(peak, Ordering::Relaxed);
            }
        }
    }

    impl Drop for Local {
        fn drop(&mut self) {
            self.publish();
        }
    }

    thread_local! {
        static LOCAL: Local = const {
            #[allow(clippy::declare_interior_mutable_const)]
            const CELL: Cell<u64> = Cell::new(0);
            Local {
                counts: [CELL; COUNTERS],
                scratch_bytes_peak: CELL,
            }
        };
    }

    #[inline]
    fn add(counter: Counter, n: u64) {
        let counted = LOCAL.try_with(|local| {
            let cell = &local.counts[counter as usize];
            cell.set(cell.get() + n);
        });
        if counted.is_err() {
            // The thread's cells are already destroyed (a count made from
            // another thread-local's destructor): publish directly.
            // ordering: Relaxed — statistics counter.
            TOTALS[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Publishes the calling thread's counts to the totals [`snapshot`]
    /// reads. Cheap when nothing was counted since the last call.
    pub fn flush() {
        let _ = LOCAL.try_with(Local::publish);
    }

    /// A point-in-time copy of the counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct PerfSnapshot {
        /// `has_edge`-style membership probes across all representations.
        pub edge_queries: u64,
        /// Edge queries answered by a bitset row (`O(1)` fast path).
        pub bitset_hits: u64,
        /// Candidate-set / neighborhood intersections performed.
        pub intersections: u64,
        /// Scratch-frame requests served from a pool instead of the heap
        /// (each would have been a fresh allocation before the arena).
        pub allocations_avoided: u64,
        /// Scratch-frame requests that did hit the heap (pool growth and the
        /// fresh-allocation reference mode). In steady state this stays flat
        /// while `allocations_avoided` grows with every tree node.
        pub scratch_fresh_allocs: u64,
        /// High-water mark of bytes resident in scratch pools. A gauge: it
        /// only ever grows, so [`PerfSnapshot::since`] keeps the later value
        /// instead of differencing.
        pub scratch_bytes_peak: u64,
        /// Tasks moved between worker deques by the work-stealing pop path.
        pub steals: u64,
        /// Steal attempts that found every victim deque empty.
        pub steal_failures: u64,
    }

    impl PerfSnapshot {
        /// Counter deltas `self − earlier` (saturating).
        /// `scratch_bytes_peak` is a gauge and keeps the later value.
        pub fn since(&self, earlier: &PerfSnapshot) -> PerfSnapshot {
            PerfSnapshot {
                edge_queries: self.edge_queries.saturating_sub(earlier.edge_queries),
                bitset_hits: self.bitset_hits.saturating_sub(earlier.bitset_hits),
                intersections: self.intersections.saturating_sub(earlier.intersections),
                allocations_avoided: self
                    .allocations_avoided
                    .saturating_sub(earlier.allocations_avoided),
                scratch_fresh_allocs: self
                    .scratch_fresh_allocs
                    .saturating_sub(earlier.scratch_fresh_allocs),
                scratch_bytes_peak: self.scratch_bytes_peak,
                steals: self.steals.saturating_sub(earlier.steals),
                steal_failures: self.steal_failures.saturating_sub(earlier.steal_failures),
            }
        }
    }

    /// Adds `n` edge queries.
    #[inline]
    pub fn count_edge_queries(n: u64) {
        add(Counter::EdgeQueries, n);
    }

    /// Adds `n` bitset fast-path hits.
    #[inline]
    pub fn count_bitset_hits(n: u64) {
        add(Counter::BitsetHits, n);
    }

    /// Adds `n` intersections.
    #[inline]
    pub fn count_intersections(n: u64) {
        add(Counter::Intersections, n);
    }

    /// Adds `n` pool-served scratch-frame requests.
    #[inline]
    pub fn count_allocations_avoided(n: u64) {
        add(Counter::AllocationsAvoided, n);
    }

    /// Adds `n` heap-served scratch-frame requests.
    #[inline]
    pub fn count_scratch_fresh_allocs(n: u64) {
        add(Counter::ScratchFreshAllocs, n);
    }

    /// Raises the pooled-scratch-bytes high-water mark to at least `bytes`.
    #[inline]
    pub fn record_scratch_bytes(bytes: u64) {
        let recorded = LOCAL.try_with(|local| {
            if bytes > local.scratch_bytes_peak.get() {
                local.scratch_bytes_peak.set(bytes);
            }
        });
        if recorded.is_err() {
            // ordering: Relaxed — high-water gauge, publishes no data.
            SCRATCH_BYTES_PEAK.fetch_max(bytes, Ordering::Relaxed);
        }
    }

    /// Adds `n` stolen tasks.
    #[inline]
    pub fn count_steals(n: u64) {
        add(Counter::Steals, n);
    }

    /// Adds `n` failed steal sweeps.
    #[inline]
    pub fn count_steal_failures(n: u64) {
        add(Counter::StealFailures, n);
    }

    /// Reads all counters, after publishing the calling thread's own.
    pub fn snapshot() -> PerfSnapshot {
        flush();
        // ordering: Relaxed — monitoring snapshot, skew tolerated.
        let total = |counter: Counter| TOTALS[counter as usize].load(Ordering::Relaxed);
        PerfSnapshot {
            edge_queries: total(Counter::EdgeQueries),
            bitset_hits: total(Counter::BitsetHits),
            intersections: total(Counter::Intersections),
            allocations_avoided: total(Counter::AllocationsAvoided),
            scratch_fresh_allocs: total(Counter::ScratchFreshAllocs),
            // ordering: Relaxed — monitoring snapshot, skew tolerated.
            scratch_bytes_peak: SCRATCH_BYTES_PEAK.load(Ordering::Relaxed),
            steals: total(Counter::Steals),
            steal_failures: total(Counter::StealFailures),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure4() -> Arc<Graph> {
        Arc::new(crate::graph::tests::figure4_graph())
    }

    #[test]
    fn auto_threshold_has_floor_and_scales() {
        assert_eq!(auto_threshold(0), 16);
        assert_eq!(auto_threshold(1_000), 16);
        assert_eq!(auto_threshold(6_400), 100);
        assert_eq!(IndexSpec::Auto.resolve(6_400), 100);
        assert_eq!(IndexSpec::Threshold(3).resolve(6_400), 3);
    }

    #[test]
    fn index_agrees_with_csr_on_every_pair() {
        let g = figure4();
        for spec in [
            IndexSpec::Threshold(usize::MAX),
            IndexSpec::Auto,
            IndexSpec::Threshold(0),
            IndexSpec::Threshold(3),
            IndexSpec::Threshold(100),
        ] {
            let idx = NeighborhoodIndex::build(g.clone(), spec);
            for u in g.vertices() {
                for v in g.vertices() {
                    assert_eq!(
                        idx.has_edge(u, v),
                        g.has_edge(u, v),
                        "spec {spec:?}, pair ({u}, {v})"
                    );
                    assert_eq!(
                        idx.common_neighbor_count(u, v),
                        g.common_neighbor_count(u, v),
                        "spec {spec:?}, pair ({u}, {v})"
                    );
                }
            }
        }
    }

    #[test]
    fn threshold_splits_hubs_from_the_rest() {
        let g = figure4();
        // Degrees: a=4 b=4 c=5 d=5 e=4 f=2 g=2 h=2 i=2.
        let idx = NeighborhoodIndex::build(g.clone(), IndexSpec::Threshold(4));
        assert_eq!(idx.hub_count(), 5);
        assert!(idx.is_hub(VertexId::new(0)));
        assert!(!idx.is_hub(VertexId::new(5)));
        assert!(idx.memory_bytes() > 0);
        assert_eq!(idx.threshold(), 4);

        // Every vertex of figure 4 has degree >= 2.
        let all = NeighborhoodIndex::build(g.clone(), IndexSpec::Threshold(2));
        assert_eq!(all.threshold(), 2);
        assert_eq!(all.hub_count(), 9);
        assert!(all.memory_bytes() > 0);

        let none = NeighborhoodIndex::build(g, IndexSpec::Threshold(usize::MAX));
        assert_eq!(none.hub_count(), 0);
        assert!(none.has_edge(VertexId::new(0), VertexId::new(1)));
    }

    #[test]
    fn an_index_without_hubs_allocates_nothing() {
        let g = figure4();
        for spec in [
            IndexSpec::Auto,
            IndexSpec::Threshold(usize::MAX),
            IndexSpec::Threshold(6),
        ] {
            let idx = NeighborhoodIndex::build(g.clone(), spec);
            assert_eq!(idx.hub_count(), 0, "{spec:?}");
            assert_eq!(idx.memory_bytes(), 0, "{spec:?}");
            assert!(g.vertices().all(|v| !idx.is_hub(v)));
        }
        // One hub brings the slot table (4 bytes a vertex) and its row.
        let one = NeighborhoodIndex::build(g, IndexSpec::Threshold(5));
        assert_eq!(one.hub_count(), 2);
        assert!(one.memory_bytes() >= 9 * 4 + 2 * 8);
    }

    #[test]
    fn perf_counters_accumulate_and_reset() {
        let g = figure4();
        let idx = NeighborhoodIndex::build(g, IndexSpec::Threshold(0));
        let before = perf::snapshot();
        idx.has_edge(VertexId::new(0), VertexId::new(1));
        idx.common_neighbor_count(VertexId::new(0), VertexId::new(2));
        let delta = perf::snapshot().since(&before);
        assert!(delta.edge_queries >= 1);
        assert!(delta.bitset_hits >= 1);
        assert!(delta.intersections >= 1);
    }
}
