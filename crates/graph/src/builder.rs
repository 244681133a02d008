//! Incremental graph construction.
//!
//! [`GraphBuilder`] collects undirected edges (in any order, with duplicates
//! and self loops tolerated) and produces a canonical [`Graph`]: dense vertex
//! ids, sorted and de-duplicated adjacency lists, no self loops.

use crate::graph::Graph;
use crate::lanes::{close_gaps, lane_count, on_lanes, windows_mut};
use crate::vertex::VertexId;

/// Builder for [`Graph`].
///
/// ```
/// use qcm_graph::{GraphBuilder, VertexId};
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(VertexId::new(0), VertexId::new(1));
/// b.add_edge(VertexId::new(1), VertexId::new(2));
/// b.add_edge(VertexId::new(2), VertexId::new(0));
/// let g = b.build();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    /// Raw (directed) edge endpoints; every undirected edge is stored once in
    /// the order it was added and mirrored during `build`.
    edges: Vec<(u32, u32)>,
    /// Highest vertex id seen so far plus one.
    min_vertices: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with pre-reserved capacity.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(num_edges),
            min_vertices: num_vertices,
        }
    }

    /// Adds an undirected edge. Self loops are ignored; duplicates are removed
    /// during [`GraphBuilder::build`].
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) {
        let (a, b) = (a.raw(), b.raw());
        let needed = (a.max(b) as usize) + 1;
        if needed > self.min_vertices {
            self.min_vertices = needed;
        }
        if a == b {
            return;
        }
        self.edges.push((a, b));
    }

    /// Adds an undirected edge given raw `u32` endpoints.
    pub fn add_edge_raw(&mut self, a: u32, b: u32) {
        self.add_edge(VertexId::new(a), VertexId::new(b));
    }

    /// Ensures the built graph has at least `n` vertices even if the highest
    /// vertex id mentioned by an edge is smaller (trailing isolated vertices).
    pub fn set_min_vertices(&mut self, n: usize) {
        if n > self.min_vertices {
            self.min_vertices = n;
        }
    }

    /// Number of (possibly duplicated) edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// A builder over edges that are already in hand: endpoints below
    /// `num_vertices`, self loops allowed (the build skips them).
    pub(crate) fn from_ranked(edges: Vec<(u32, u32)>, num_vertices: usize) -> Self {
        GraphBuilder {
            edges,
            min_vertices: num_vertices,
        }
    }

    /// Finalises the builder into a canonical [`Graph`].
    ///
    /// Runs in `O(|V| + |E| log d_max)`: edges are bucketed per vertex with a
    /// counting pass, then each adjacency list is sorted and de-duplicated.
    /// A large edge set is built on several threads at once; the graph is the
    /// same on any number of them.
    pub fn build(self) -> Graph {
        // A lane reads its edges (8 bytes each) and writes both directions.
        let lanes = lane_count(16 * self.edges.len());
        self.build_on(lanes)
    }

    /// [`GraphBuilder::build`] on up to `lanes` lanes.
    pub(crate) fn build_on(self, lanes: usize) -> Graph {
        let GraphBuilder {
            edges,
            min_vertices: n,
        } = self;
        assert!(
            edges.len() <= (u32::MAX / 2) as usize,
            "{} edges overflow the builder's 32-bit slot counters",
            edges.len()
        );
        // A lane carries one u32 per vertex, an edge is two: more lanes than
        // this and their tables outweigh the edge array.
        let lanes = lanes.min(2 * edges.len() / n.max(1));
        let (neighbors, offsets) = if lanes <= 1 {
            let buckets = Buckets::of(&edges, n);
            drop(edges);
            buckets.sorted_in_place()
        } else {
            // Lanes split the edges for count and scatter: each buckets its
            // share into slots of its own, so no two write the same memory.
            let share = edges.len().div_ceil(lanes);
            let buckets = on_lanes(edges.chunks(share).collect(), |edges| Buckets::of(edges, n));
            drop(edges);
            merge_sorted(&buckets, n)
        };
        // Same size, same alignment: the collect reuses the allocation.
        let neighbors = neighbors.into_iter().map(VertexId::new).collect();
        Graph::from_csr(offsets, neighbors)
    }
}

/// Both directions of a set of edges, bucketed by vertex: the adjacency lists
/// before sorting, duplicates still in.
struct Buckets {
    /// `ends[v]` is where the bucket of `v` ends in `slots`; it starts where
    /// the bucket of `v - 1` ends.
    ends: Vec<u32>,
    slots: Vec<u32>,
}

impl Buckets {
    /// Counts, then scatters. Self loops are skipped.
    fn of(edges: &[(u32, u32)], n: usize) -> Self {
        let mut cursor = vec![0u32; n];
        for &(a, b) in edges {
            if a != b {
                cursor[a as usize] += 1;
                cursor[b as usize] += 1;
            }
        }
        // Every cursor moves to the start of its bucket.
        let entries = exclusive_prefix_sum(&mut cursor);
        let mut slots = vec![0u32; entries as usize];
        for &(a, b) in edges {
            if a != b {
                slots[cursor[a as usize] as usize] = b;
                cursor[a as usize] += 1;
                slots[cursor[b as usize] as usize] = a;
                cursor[b as usize] += 1;
            }
        }
        // Every cursor has walked to the end of its bucket.
        Buckets {
            ends: cursor,
            slots,
        }
    }

    /// Where the bucket of `v` starts.
    fn start(&self, v: usize) -> usize {
        v.checked_sub(1)
            .map_or(0, |before| self.ends[before] as usize)
    }

    /// The single-lane finish: sorts and de-duplicates every bucket where it
    /// lies and closes the gaps, so the slots become the adjacency array
    /// without a second buffer. Returns it with its CSR offsets.
    fn sorted_in_place(self) -> (Vec<u32>, Vec<usize>) {
        let Buckets { ends, mut slots } = self;
        let mut offsets = Vec::with_capacity(ends.len() + 1);
        offsets.push(0);
        let (mut start, mut write) = (0, 0);
        for end in ends {
            let end = end as usize;
            let kept = sort_dedup(&mut slots[start..end]);
            slots.copy_within(start..start + kept, write);
            write += kept;
            offsets.push(write);
            start = end;
        }
        slots.truncate(write);
        slots.shrink_to_fit();
        (slots, offsets)
    }
}

/// The multi-lane finish: lanes split the *vertices*; each gathers its
/// vertices' buckets from every edge lane into its window of the adjacency
/// array and sorts and de-duplicates them there. Returns the array with its
/// CSR offsets.
fn merge_sorted(buckets: &[Buckets], n: usize) -> (Vec<u32>, Vec<usize>) {
    // Entries bucketed for the vertices below `v`, over all edge lanes.
    let entries_below = |v: usize| -> usize { buckets.iter().map(|lane| lane.start(v)).sum() };
    // Cut the vertices where the work splits evenly; a vertex costs about as
    // much as one of its entries.
    let work_below = |v: usize| entries_below(v) + v;
    let mut cuts = vec![0];
    for lane in 1..buckets.len() {
        let share = lane * work_below(n) / buckets.len();
        let (mut low, mut high) = (cuts[lane - 1], n);
        while low < high {
            let mid = low + (high - low) / 2;
            if work_below(mid) < share {
                low = mid + 1;
            } else {
                high = mid;
            }
        }
        cuts.push(low);
    }
    cuts.push(n);

    let entries: Vec<usize> = cuts
        .windows(2)
        .map(|cut| entries_below(cut[1]) - entries_below(cut[0]))
        .collect();
    let mut neighbors = vec![0u32; entries.iter().sum()];
    let mut offsets = vec![0usize; n + 1];
    let jobs: Vec<_> = windows_mut(&mut neighbors, entries.iter().copied())
        .into_iter()
        .zip(windows_mut(
            &mut offsets[1..],
            cuts.windows(2).map(|cut| cut[1] - cut[0]),
        ))
        .zip(&cuts)
        .collect();
    let filled = on_lanes(jobs, |((window, degrees), &first)| {
        // Where each edge lane's bucket of the next vertex starts.
        let mut starts: Vec<usize> = buckets.iter().map(|lane| lane.start(first)).collect();
        let mut write = 0;
        for (v, degree) in (first..).zip(degrees) {
            let from = write;
            for (lane, start) in buckets.iter().zip(&mut starts) {
                let end = lane.ends[v] as usize;
                for &neighbor in &lane.slots[*start..end] {
                    window[write] = neighbor;
                    write += 1;
                }
                *start = end;
            }
            *degree = sort_dedup(&mut window[from..write]);
            write = from + *degree;
        }
        write
    });
    close_gaps(&mut neighbors, &entries, &filled);
    neighbors.shrink_to_fit();
    // Degrees to offsets.
    let mut end = 0;
    for slot in &mut offsets[1..] {
        end += *slot;
        *slot = end;
    }
    (neighbors, offsets)
}

/// Replaces every count by the sum of the counts before it; returns the sum
/// of all.
pub(crate) fn exclusive_prefix_sum(counts: &mut [u32]) -> u32 {
    let mut sum = 0;
    for count in counts {
        sum += std::mem::replace(count, sum);
    }
    sum
}

/// Sorts `list` and moves its distinct values to the front; returns how many.
fn sort_dedup(list: &mut [u32]) -> usize {
    list.sort_unstable();
    let mut kept = 0;
    for i in 0..list.len() {
        if kept == 0 || list[kept - 1] != list[i] {
            list[kept] = list[i];
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_removes_duplicates_and_loops() {
        let mut b = GraphBuilder::new();
        b.add_edge_raw(0, 1);
        b.add_edge_raw(1, 0);
        b.add_edge_raw(0, 1);
        b.add_edge_raw(2, 2); // loop, dropped
        b.add_edge_raw(1, 2);
        let g = b.build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn builder_respects_min_vertices() {
        let mut b = GraphBuilder::new();
        b.add_edge_raw(0, 1);
        b.set_min_vertices(10);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(VertexId::new(9)), 0);
    }

    #[test]
    fn builder_handles_unordered_input() {
        let mut b = GraphBuilder::new();
        for (a, x) in [(5u32, 3u32), (1, 4), (4, 0), (3, 1), (2, 5)] {
            b.add_edge_raw(a, x);
        }
        let g = b.build();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 5);
        g.validate().unwrap();
        // Every list is sorted.
        for v in g.vertices() {
            let adj = g.neighbors(v);
            assert!(adj.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn any_number_of_lanes_builds_the_same_graph() {
        // Duplicates, reversed duplicates, self loops, skewed degrees and
        // trailing isolated vertices; edges outnumber vertices, so the
        // table-weight cap leaves the lanes asked for.
        let mut state = 17u64;
        let mut below = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % bound) as u32
        };
        for (n, m) in [(1, 3), (2, 5), (40, 400), (300, 2000)] {
            let mut b = GraphBuilder::new();
            for _ in 0..m {
                let (a, x) = (below(n) * below(n) / n as u32, below(n));
                b.add_edge_raw(a, x);
                if below(8) == 0 {
                    b.add_edge_raw(x, a);
                }
            }
            b.set_min_vertices(n as usize + 2);
            // Self loops reach the build only through `from_ranked`.
            let mut edges = b.edges.clone();
            edges.extend((0..n as u32).map(|v| (v, v)));
            let one = b.clone().build_on(1);
            one.validate().unwrap();
            assert_eq!(one.num_vertices(), n as usize + 2);
            for lanes in 2..=5 {
                assert_eq!(b.clone().build_on(lanes), one, "{m} edges on {lanes} lanes");
                let ranked = GraphBuilder::from_ranked(edges.clone(), n as usize + 2);
                assert_eq!(ranked.build_on(lanes), one);
            }
        }
        assert_eq!(GraphBuilder::new().build_on(4), Graph::empty(0));
        // More vertices than entries: the cap brings this down to one lane.
        let mut sparse = GraphBuilder::with_capacity(100, 1);
        sparse.add_edge_raw(3, 90);
        assert_eq!(sparse.clone().build_on(3), sparse.build_on(1));
    }

    #[test]
    fn empty_builder_produces_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn with_capacity_and_len_track_additions() {
        let mut b = GraphBuilder::with_capacity(4, 8);
        assert!(b.is_empty());
        b.add_edge_raw(0, 3);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        let g = b.build();
        assert_eq!(g.num_vertices(), 4);
    }
}
