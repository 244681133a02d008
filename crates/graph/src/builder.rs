//! Incremental graph construction.
//!
//! [`GraphBuilder`] collects undirected edges (in any order, with duplicates
//! and self loops tolerated) and produces a canonical [`Graph`]: dense vertex
//! ids, sorted and de-duplicated adjacency lists, no self loops.

use crate::graph::Graph;
use crate::lanes::{close_gaps, lane_count, on_lanes, windows_mut, LANE_BYTES};
use crate::vertex::VertexId;
use std::ops::Range;

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
    /// A graph whose cursor table and slots (4 bytes per vertex, 8 per edge)
    /// fit in 1 MiB is one block and builds as it always has, on the calling
    /// thread: a counting pass buckets the edge ends per vertex, and each
    /// bucket is sorted and de-duplicated where it lies. A larger graph is cut
    /// into blocks of 4,096 vertices and built in two passes: a staging pass
    /// writes every edge end into its block's stretch of one array, then each
    /// block is counting-sorted by vertex in a buffer that stays in cache and
    /// its lists are sorted and de-duplicated there. That is
    /// `O(|V| + |E| log d_max)` either way; blocking makes the random accesses
    /// land in cache rather than costing a miss per edge end. A large edge set
    /// is built on several threads at once; the graph is the same on any
    /// number of them.
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
        // One u32 cursor per vertex, one u32 slot per edge end.
        let words = n + 2 * edges.len();
        let (neighbors, offsets) = if words <= ONE_BLOCK_BYTES / std::mem::size_of::<u32>() {
            in_place(edges, n)
        } else {
            blocked(edges, n, lanes)
        };
        // Same size, same alignment: the collect reuses the allocation.
        let neighbors = neighbors.into_iter().map(VertexId::new).collect();
        Graph::from_csr(offsets, neighbors)
    }
}

/// The one-block budget: a graph whose cursor table and slots take at most
/// this many bytes builds in place, one block, since the misses of its
/// scatter land in a core's L2. Staging such a graph measured slower (the CX,
/// Enron and YouTube stand-ins all fit). Two lanes take at least
/// `2 * LANE_BYTES` of edges, that is `LANE_BYTES` of slots, so every graph
/// built on two lanes is multi-block.
const ONE_BLOCK_BYTES: usize = 1 << 20;

/// Bytes of the cursor table that counts out one block's lists: small enough
/// to stay in L1 while the block is sorted. Blocks of 2,048 to 8,192 vertices
/// built the DBLP-shaped benchmark graph equally fast.
const BLOCK_BYTES: usize = 16 << 10;

/// Vertices per block, one `u32` cursor each. Staging holds a vertex as its
/// offset inside its block, a `u16`.
const BLOCK_VERTICES: usize = BLOCK_BYTES / std::mem::size_of::<u32>();

/// A block's far ends are put in order of their top bits, this many, before
/// its lists are sorted: 256 cursors, 1 KiB. A list in random order costs a
/// mispredicted branch per value or so to sort (about 100 ns for a list of
/// six); in this order a list of the DBLP-shaped benchmark graph has one
/// pair of values out of order per 13 values.
const FAR_KEY_BITS: u32 = 8;

const _: () = assert!(BLOCK_VERTICES.is_power_of_two() && BLOCK_VERTICES <= 1 << 16);
const _: () = assert!(ONE_BLOCK_BYTES <= LANE_BYTES);

/// The block of vertex `v`.
fn block_of(v: u32) -> usize {
    v as usize / BLOCK_VERTICES
}

/// Where `v` lies inside its block.
fn offset_in_block(v: u32) -> u16 {
    (v as usize % BLOCK_VERTICES) as u16
}

/// The one-block build: counts, scatters both directions of every edge into
/// one bucket per vertex, then sorts and de-duplicates every bucket where it
/// lies and closes the gaps, so the slots become the adjacency array without
/// a second buffer. Self loops are skipped. Returns the array with its CSR
/// offsets.
fn in_place(edges: Vec<(u32, u32)>, n: usize) -> (Vec<u32>, Vec<usize>) {
    let mut cursor = vec![0u32; n];
    for &(a, b) in &edges {
        if a != b {
            cursor[a as usize] += 1;
            cursor[b as usize] += 1;
        }
    }
    // Every cursor moves to the start of its bucket.
    let entries = exclusive_prefix_sum(&mut cursor);
    let mut slots = vec![0u32; entries as usize];
    for &(a, b) in &edges {
        if a != b {
            slots[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            slots[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
    }
    drop(edges);
    // Every cursor has walked to the end of its bucket.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let (mut start, mut write) = (0, 0);
    for end in cursor {
        let end = end as usize;
        slots[start..end].sort_unstable();
        write += dedup_to(&mut slots, start..end, write);
        offsets.push(write);
        start = end;
    }
    slots.truncate(write);
    slots.shrink_to_fit();
    (slots, offsets)
}

/// The multi-block build, in two passes on up to `lanes` lanes. Returns the
/// adjacency array with its CSR offsets.
///
/// **Staging.** Lanes split the edges. Each counts its edge ends per block,
/// then writes every end into its own window of its block's stretch of one
/// staging array: the far end as a `u32` in `far`, the near end's offset
/// inside its block as a `u16` in `near`. A block's stretch holds its windows
/// in lane order, so a lane writes about one cache line per block at a time.
///
/// **Sorting.** Lanes split the blocks evenly by entries. Per block a lane
/// counting-sorts the stretch twice, with both cursor tables in L1: by the
/// far end's top bits into a reused block-sized buffer, then stably by the
/// near end back into the stretch. Each list lands there in order of its far
/// ends' top bits, so an insertion sort finishes it; the lane de-duplicates
/// it and moves it behind the lists before it. The gaps between lanes close
/// and the degrees become offsets.
fn blocked(edges: Vec<(u32, u32)>, n: usize, lanes: usize) -> (Vec<u32>, Vec<usize>) {
    let blocks = n.div_ceil(BLOCK_VERTICES);
    let shares: Vec<&[(u32, u32)]> = edges.chunks(edges.len().div_ceil(lanes).max(1)).collect();
    let counts = on_lanes(shares.clone(), |edges| {
        let mut counts = vec![0usize; blocks];
        for &(a, b) in edges {
            if a != b {
                counts[block_of(a)] += 1;
                counts[block_of(b)] += 1;
            }
        }
        counts
    });
    // Block by block, each block's stretch holds one window per lane.
    let windows: Vec<usize> = (0..blocks)
        .flat_map(|block| counts.iter().map(move |lane| lane[block]))
        .collect();
    let entries = windows.iter().sum();
    let mut far = vec![0u32; entries];
    let mut near = vec![0u16; entries];
    let mut stages: Vec<_> = shares
        .into_iter()
        .map(|edges| {
            (
                edges,
                Vec::with_capacity(blocks),
                Vec::with_capacity(blocks),
            )
        })
        .collect();
    let far_windows = windows_mut(&mut far, windows.iter().copied());
    let near_windows = windows_mut(&mut near, windows.iter().copied());
    for (window, (far, near)) in far_windows.into_iter().zip(near_windows).enumerate() {
        let (_, fars, nears) = &mut stages[window % counts.len()];
        fars.push(far);
        nears.push(near);
    }
    // A lane writes each block's window front to back: about one cache line
    // per block is live.
    on_lanes(stages, |(edges, mut far, mut near)| {
        let mut filled = vec![0; blocks];
        for &(a, b) in edges {
            if a != b {
                for (end, other) in [(a, b), (b, a)] {
                    let block = block_of(end);
                    let at = filled[block];
                    far[block][at] = other;
                    near[block][at] = offset_in_block(end);
                    filled[block] = at + 1;
                }
            }
        }
    });
    drop(edges);

    // `below[block]`: the entries staged for the blocks before it.
    let mut below = Vec::with_capacity(blocks + 1);
    below.push(0);
    for block in 0..blocks {
        below.push(below[block] + counts.iter().map(|lane| lane[block]).sum::<usize>());
    }
    let cuts: Vec<usize> = (0..lanes)
        .map(|lane| below.partition_point(|&before| before * lanes < lane * entries))
        .chain([blocks])
        .collect();
    let first_vertex = |block: usize| (block * BLOCK_VERTICES).min(n);
    let lens: Vec<usize> = cuts
        .windows(2)
        .map(|cut| below[cut[1]] - below[cut[0]])
        .collect();
    let mut offsets = vec![0usize; n + 1];
    let jobs: Vec<_> = windows_mut(&mut far, lens.iter().copied())
        .into_iter()
        .zip(windows_mut(
            &mut offsets[1..],
            cuts.windows(2)
                .map(|cut| first_vertex(cut[1]) - first_vertex(cut[0])),
        ))
        .zip(cuts.windows(2))
        .collect();
    let far_shift = (usize::BITS - n.leading_zeros()).saturating_sub(FAR_KEY_BITS);
    let key = |other: u32| (other >> far_shift) as usize;
    let filled = on_lanes(jobs, |((far, degrees), cut)| {
        let stretch = |block: usize| below[block]..below[block + 1];
        let biggest = (cut[0]..cut[1]).map(|block| stretch(block).len()).max();
        let mut keyed = vec![0u32; biggest.unwrap_or(0)];
        let mut keyed_near = vec![0u16; keyed.len()];
        let mut cursor = vec![0u32; BLOCK_VERTICES];
        let mut key_cursor = [0u32; 1 << FAR_KEY_BITS];
        let (first, mut write) = (below[cut[0]], 0);
        for (block, degrees) in (cut[0]..).zip(degrees.chunks_mut(BLOCK_VERTICES)) {
            let stretch = stretch(block);
            let near = &near[stretch.clone()];
            let staged = stretch.start - first..stretch.end - first;
            let cursor = &mut cursor[..degrees.len()];
            cursor.fill(0);
            key_cursor.fill(0);
            for (&other, &v) in far[staged.clone()].iter().zip(near) {
                cursor[v as usize] += 1;
                key_cursor[key(other)] += 1;
            }
            exclusive_prefix_sum(cursor);
            exclusive_prefix_sum(&mut key_cursor);
            // Two stable counting sorts: by the far end's key into the
            // buffers, then by the near end back into the stretch. Each list
            // comes out in order of its far ends' keys.
            for (&other, &v) in far[staged.clone()].iter().zip(near) {
                let at = &mut key_cursor[key(other)];
                keyed[*at as usize] = other;
                keyed_near[*at as usize] = v;
                *at += 1;
            }
            let lists = &mut far[staged.clone()];
            let len = lists.len();
            for (&other, &v) in keyed[..len].iter().zip(&keyed_near[..len]) {
                let at = &mut cursor[v as usize];
                lists[*at as usize] = other;
                *at += 1;
            }
            // Every cursor has walked to the end of its list.
            let mut start = staged.start;
            for (degree, &end) in degrees.iter_mut().zip(cursor.iter()) {
                let end = staged.start + end as usize;
                sort_nearly_sorted(&mut far[start..end]);
                *degree = dedup_to(far, start..end, write);
                write += *degree;
                start = end;
            }
        }
        write
    });
    drop(near);
    close_gaps(&mut far, &lens, &filled);
    far.shrink_to_fit();
    // Degrees to offsets.
    let mut end = 0;
    for slot in &mut offsets[1..] {
        end += *slot;
        *slot = end;
    }
    (far, offsets)
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

/// Sorts `list`, which is in order but for a few values: an insertion sort
/// then costs about one compare per value, each a predictable branch. A long
/// list, where the few may be many, takes the library sort.
fn sort_nearly_sorted(list: &mut [u32]) {
    if list.len() > 32 {
        return list.sort_unstable();
    }
    for i in 1..list.len() {
        let value = list[i];
        let mut at = i;
        while at > 0 && list[at - 1] > value {
            list[at] = list[at - 1];
            at -= 1;
        }
        list[at] = value;
    }
}

/// Moves the distinct values of the sorted `items[list]` to `items[to..]`,
/// where `to` is at most `list.start`; returns how many.
fn dedup_to(items: &mut [u32], list: Range<usize>, to: usize) -> usize {
    let mut kept = 0;
    for i in list {
        let value = items[i];
        if kept == 0 || items[to + kept - 1] != value {
            items[to + kept] = value;
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;
    use std::collections::BTreeSet;

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
        // trailing isolated vertices, all in one block: these build in place
        // whatever the lanes asked for.
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
        let mut sparse = GraphBuilder::with_capacity(100, 1);
        sparse.add_edge_raw(3, 90);
        assert_eq!(sparse.clone().build_on(3), sparse.build_on(1));
    }

    /// Multi-block graphs per run: a release build, which CI also runs under
    /// further `PROPTEST_SEED`s, checks ten times as many.
    const MULTI_BLOCK_CASES: usize = if cfg!(debug_assertions) { 4 } else { 40 };

    /// A random edge list past the one-block budget on `n` vertices: ids on
    /// both sides of every block boundary and in the last, partial block;
    /// empty blocks; duplicates in both orientations; self loops. `wide` asks
    /// for many blocks with few edges, otherwise a few blocks carry many;
    /// `hub` adds a vertex adjacent to every block that is not empty.
    fn multi_block_edges(rng: &mut TestRng, wide: bool, hub: bool) -> (Vec<(u32, u32)>, usize) {
        let mut below = |bound: usize| (rng.next_u64() % bound as u64) as usize;
        let blocks = if wide {
            ONE_BLOCK_BYTES / BLOCK_BYTES + 1 + below(8)
        } else {
            2 + below(5)
        };
        let n = (blocks - 1) * BLOCK_VERTICES + 1 + below(BLOCK_VERTICES);
        let empty: Vec<bool> = (0..blocks)
            .map(|block| block > 0 && below(4) == 0)
            .collect();
        let vertex = |v: usize| (!empty[v / BLOCK_VERTICES]).then_some(v as u32);
        let mut edges = Vec::new();
        // The vertices either side of each boundary, to each other and on.
        for first in (1..blocks).map(|block| block * BLOCK_VERTICES) {
            for (a, b) in [
                (first - 2, first - 1),
                (first - 1, first),
                (first, first + 1),
            ] {
                if let (Some(a), Some(b)) = (vertex(a), vertex(b.min(n - 1))) {
                    edges.push((a, b));
                }
            }
        }
        if let Some(last) = vertex(n - 1) {
            edges.push((0, last));
        }
        if hub {
            let hub = below(BLOCK_VERTICES) as u32;
            let firsts = (0..blocks).filter_map(|block| vertex(block * BLOCK_VERTICES));
            edges.extend(firsts.map(|first| (hub, first)));
        }
        // Random edges until the graph is past the one-block budget.
        let budget = (ONE_BLOCK_BYTES / 4).saturating_sub(n) / 2;
        while edges.len() <= budget + below(4096) {
            let a = below(n);
            // Half the far ends land near `a`, across its block's edges.
            let b = if below(2) == 0 {
                below(n)
            } else {
                (a + below(64)).saturating_sub(32).min(n - 1)
            };
            if let (Some(a), Some(b)) = (vertex(a), vertex(b)) {
                edges.push((a, b));
            }
        }
        for _ in 0..edges.len() / 8 {
            let (a, b) = edges[below(edges.len())];
            edges.push(if below(2) == 0 { (a, b) } else { (b, a) });
            edges.push((a, a));
        }
        (edges, n)
    }

    /// Adjacency of `edges` on `n` vertices, one `BTreeSet` per vertex.
    fn reference(edges: &[(u32, u32)], n: usize) -> Vec<BTreeSet<u32>> {
        let mut lists = vec![BTreeSet::new(); n];
        for &(a, b) in edges {
            if a != b {
                lists[a as usize].insert(b);
                lists[b as usize].insert(a);
            }
        }
        lists
    }

    #[test]
    fn multi_block_graphs_build_like_a_btreeset_adjacency_on_any_lanes() {
        let mut rng = TestRng::for_test("multi_block_graphs_build_like_a_btreeset_adjacency");
        for case in 0..MULTI_BLOCK_CASES {
            let (edges, n) = multi_block_edges(&mut rng, case % 3 == 0, case % 2 == 0);
            assert!(4 * (n + 2 * edges.len()) > ONE_BLOCK_BYTES, "case {case}");
            let lists = reference(&edges, n);
            let matches = |g: &Graph, how: &str| {
                assert_eq!(g.num_vertices(), n, "case {case}, {how}");
                let entries: usize = lists.iter().map(BTreeSet::len).sum();
                assert_eq!(g.num_edges(), entries / 2, "case {case}, {how}");
                for (v, list) in lists.iter().enumerate() {
                    let built = g.neighbors(VertexId::new(v as u32)).iter();
                    assert!(
                        built.map(|w| w.raw()).eq(list.iter().copied()),
                        "case {case}, {how}: vertex {v} of {n}"
                    );
                }
            };
            let mut builder = GraphBuilder::with_capacity(n, edges.len());
            for &(a, b) in &edges {
                builder.add_edge_raw(a, b);
            }
            for lanes in 1..=5 {
                matches(&builder.clone().build_on(lanes), &format!("{lanes} lanes"));
                let ranked = GraphBuilder::from_ranked(edges.clone(), n).build_on(lanes);
                matches(&ranked, &format!("ranked, {lanes} lanes"));
            }
        }
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
