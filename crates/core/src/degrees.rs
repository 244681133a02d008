//! Degree bookkeeping for a candidate `⟨S, ext(S)⟩`.
//!
//! The pruning rules of the paper use four kinds of degrees (topic T2,
//! Section 4):
//!
//! * **SS-degrees** `d_S(v)` for `v ∈ S`;
//! * **ES-degrees** `d_ext(S)(v)` for `v ∈ S`;
//! * **SE-degrees** `d_S(u)` for `u ∈ ext(S)`;
//! * **EE-degrees** `d_ext(S)(u)` for `u ∈ ext(S)`.
//!
//! The first three are needed to compute the upper/lower bounds `U_S`, `L_S`;
//! the EE-degrees are only needed by the Type-I rules and are therefore
//! computed lazily (see [`compute_ee_degrees_into`]), exactly as the paper
//! recommends.

use qcm_graph::bitset::VertexBitSet;
use qcm_graph::neighborhoods::perf;
use qcm_graph::LocalGraph;

/// Which side of the candidate a local vertex currently belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Membership {
    /// Not in `S` nor in `ext(S)`.
    Neither,
    /// In the candidate set `S`.
    InS,
    /// In the extension set `ext(S)`.
    InExt,
}

/// A membership table over the local index space of a task subgraph.
///
/// Backed by two [`VertexBitSet`]s so the degree kernels can intersect a hub
/// vertex's dense neighbor row against either side with word-parallel ANDs
/// instead of walking the adjacency list.
#[derive(Clone, Debug)]
pub struct MembershipTable {
    in_s: VertexBitSet,
    in_ext: VertexBitSet,
}

impl MembershipTable {
    /// Builds the table for the given `S` and `ext(S)` (local indices).
    pub fn new(g: &LocalGraph, s: &[u32], ext: &[u32]) -> Self {
        let mut table = MembershipTable::with_capacity(g.capacity());
        table.fill(s, ext);
        table
    }

    /// An empty table able to address ids `0..capacity` (pool construction).
    pub fn with_capacity(capacity: usize) -> Self {
        MembershipTable {
            in_s: VertexBitSet::new(capacity),
            in_ext: VertexBitSet::new(capacity),
        }
    }

    /// Clears the table and re-targets it to a (possibly different) id
    /// capacity, reusing the existing bitset buffers (scratch-pool reuse
    /// across task subgraphs).
    pub fn reset(&mut self, capacity: usize) {
        self.in_s.reset(capacity);
        self.in_ext.reset(capacity);
    }

    /// Populates a cleared table with the candidate sides.
    pub fn fill(&mut self, s: &[u32], ext: &[u32]) {
        for &v in s {
            self.in_s.insert(v);
        }
        for &u in ext {
            debug_assert!(!self.in_s.contains(u), "S and ext overlap");
            self.in_ext.insert(u);
        }
    }

    /// Marks `v` as a member of `S` (test/scratch helper).
    pub fn insert_s(&mut self, v: u32) {
        self.in_s.insert(v);
    }

    /// Heap footprint of the two bitsets in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.in_s.memory_bytes() + self.in_ext.memory_bytes()
    }

    /// Membership of local vertex `v`.
    #[inline]
    pub fn get(&self, v: u32) -> Membership {
        if self.in_s.contains(v) {
            Membership::InS
        } else if self.in_ext.contains(v) {
            Membership::InExt
        } else {
            Membership::Neither
        }
    }

    /// The `S`-side members as a bitset (for word-parallel hub counting).
    #[inline]
    pub fn s_bits(&self) -> &VertexBitSet {
        &self.in_s
    }

    /// The `ext(S)`-side members as a bitset.
    #[inline]
    pub fn ext_bits(&self) -> &VertexBitSet {
        &self.in_ext
    }
}

/// The SS/ES/SE degree vectors of a candidate (EE computed separately).
///
/// Entries are positionally aligned with the `s` and `ext` slices passed to
/// [`compute_degrees`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Degrees {
    /// `d_S(v)` for every `v ∈ S` (aligned with `s`).
    pub s_in_s: Vec<u32>,
    /// `d_ext(S)(v)` for every `v ∈ S` (aligned with `s`).
    pub s_in_ext: Vec<u32>,
    /// `d_S(u)` for every `u ∈ ext(S)` (aligned with `ext`).
    pub ext_in_s: Vec<u32>,
    /// The SE-degrees counting-sorted: `se_histogram[d]` is the number of
    /// extension vertices with `d_S(u) = d` (an SE-degree is at most `|S|`,
    /// so the histogram has `|S| + 1` entries). Read from the top it is the
    /// non-increasing `u_1, u_2, …` ordering both bounds walk (Lemma 2), so
    /// neither sorts.
    pub se_histogram: Vec<u32>,
}

impl Degrees {
    /// Clears every vector, keeping the buffers.
    pub fn clear(&mut self) {
        self.s_in_s.clear();
        self.s_in_ext.clear();
        self.ext_in_s.clear();
        self.se_histogram.clear();
    }

    /// `d_min = min_{v∈S} (d_S(v) + d_ext(S)(v))` (Eq. 1 of the paper).
    /// Returns `None` for an empty `S`.
    pub fn dmin(&self) -> Option<usize> {
        self.s_in_s
            .iter()
            .zip(&self.s_in_ext)
            .map(|(&a, &b)| (a + b) as usize)
            .min()
    }

    /// `d_min^S = min_{v∈S} d_S(v)` (Eq. 6). `None` for an empty `S`.
    pub fn dmin_s(&self) -> Option<usize> {
        self.s_in_s.iter().map(|&a| a as usize).min()
    }

    /// Sum of SS-degrees `Σ_{v∈S} d_S(v)` (used by Lemma 2).
    pub fn sum_s_in_s(&self) -> usize {
        self.s_in_s.iter().map(|&a| a as usize).sum()
    }
}

/// Computes SS, ES and SE degrees of the candidate `⟨s, ext⟩` over the task
/// subgraph `g`.
///
/// Members with a bit row ([`LocalGraph::build_hub_index`] — every vertex of
/// a task subgraph of at most [`qcm_graph::subgraph::ALL_ROWS_MAX_VERTICES`])
/// are counted by word-parallel AND + popcount of the row against the
/// membership bitsets (`O(capacity / 64)` per member); the rest walk their
/// adjacency list (`O(d)`). Both paths rely on `S`/`ext` members being alive,
/// so a row's stale bits for peeled vertices can never be counted.
pub fn compute_degrees(g: &LocalGraph, s: &[u32], ext: &[u32]) -> (Degrees, MembershipTable) {
    let mut degrees = Degrees::default();
    let mut membership = MembershipTable::with_capacity(g.capacity());
    compute_degrees_into(g, s, ext, &mut degrees, &mut membership);
    (degrees, membership)
}

/// Allocation-free core of [`compute_degrees`]: rebuilds `membership` (any
/// prior contents and capacity are discarded) and refills `degrees` in place.
/// The hot path calls this with scratch-pooled frames, so a bounding round
/// recomputing degrees touches no heap.
pub fn compute_degrees_into(
    g: &LocalGraph,
    s: &[u32],
    ext: &[u32],
    degrees: &mut Degrees,
    membership: &mut MembershipTable,
) {
    membership.reset(g.capacity());
    membership.fill(s, ext);
    degrees.clear();
    let mut row_counts = 0u64;
    for &v in s {
        let (mut in_s, mut in_ext) = (0u32, 0u32);
        if let Some(row) = g.hub_row(v) {
            row_counts += 2;
            in_s = membership.s_bits().intersection_count_row(row) as u32;
            in_ext = membership.ext_bits().intersection_count_row(row) as u32;
        } else {
            // `raw_neighbors` is safe here: peeled vertices are in neither
            // membership set, so they contribute to no counter.
            for &w in g.raw_neighbors(v) {
                match membership.get(w) {
                    Membership::InS => in_s += 1,
                    Membership::InExt => in_ext += 1,
                    Membership::Neither => {}
                }
            }
        }
        degrees.s_in_s.push(in_s);
        degrees.s_in_ext.push(in_ext);
    }
    degrees.se_histogram.resize(s.len() + 1, 0);
    for &u in ext {
        let in_s = if let Some(row) = g.hub_row(u) {
            row_counts += 1;
            membership.s_bits().intersection_count_row(row) as u32
        } else {
            g.raw_neighbors(u)
                .iter()
                .filter(|&&w| membership.s_bits().contains(w))
                .count() as u32
        };
        degrees.ext_in_s.push(in_s);
        degrees.se_histogram[in_s as usize] += 1;
    }
    perf::count_intersections(row_counts);
}

/// Computes the EE-degrees `d_ext(S)(u)` for every `u ∈ ext(S)` (aligned with
/// `ext`) into `ee`, refilled in place. Deferred until Type-I rules actually
/// need them. Row members count by word-parallel AND, exactly like
/// [`compute_degrees`].
pub fn compute_ee_degrees_into(
    g: &LocalGraph,
    ext: &[u32],
    membership: &MembershipTable,
    ee: &mut Vec<u32>,
) {
    ee.clear();
    let mut row_counts = 0u64;
    ee.extend(ext.iter().map(|&u| {
        if let Some(row) = g.hub_row(u) {
            row_counts += 1;
            return membership.ext_bits().intersection_count_row(row) as u32;
        }
        g.raw_neighbors(u)
            .iter()
            .filter(|&&w| membership.ext_bits().contains(w))
            .count() as u32
    }));
    perf::count_intersections(row_counts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_graph::{Graph, VertexId};

    fn compute_ee_degrees(g: &LocalGraph, ext: &[u32], membership: &MembershipTable) -> Vec<u32> {
        let mut ee = Vec::new();
        compute_ee_degrees_into(g, ext, membership, &mut ee);
        ee
    }

    fn figure4_local() -> LocalGraph {
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
        let g = Graph::from_edges(9, edges.iter().copied()).unwrap();
        let all: Vec<VertexId> = g.vertices().collect();
        LocalGraph::from_induced(&g, &all)
    }

    #[test]
    fn degrees_of_figure4_candidate() {
        let g = figure4_local();
        // S = {a, b} = {0, 1}; ext = {c, d, e} = {2, 3, 4}.
        let s = vec![0u32, 1];
        let ext = vec![2u32, 3, 4];
        let (deg, membership) = compute_degrees(&g, &s, &ext);
        // d_S(a) = 1 (b), d_S(b) = 1 (a).
        assert_eq!(deg.s_in_s, vec![1, 1]);
        // d_ext(a) = 3 (c, d, e); d_ext(b) = 2 (c, e).
        assert_eq!(deg.s_in_ext, vec![3, 2]);
        // d_S(c) = 2 (a, b); d_S(d) = 1 (a); d_S(e) = 2 (a, b).
        assert_eq!(deg.ext_in_s, vec![2, 1, 2]);
        // EE: d_ext(c) = 2 (d, e); d_ext(d) = 2 (c, e); d_ext(e) = 2 (c, d).
        let ee = compute_ee_degrees(&g, &ext, &membership);
        assert_eq!(ee, vec![2, 2, 2]);
    }

    #[test]
    fn dmin_and_sums() {
        let g = figure4_local();
        let s = vec![0u32, 1];
        let ext = vec![2u32, 3, 4];
        let (deg, _) = compute_degrees(&g, &s, &ext);
        assert_eq!(deg.dmin(), Some(3)); // min(1+3, 1+2) = 3
        assert_eq!(deg.dmin_s(), Some(1));
        assert_eq!(deg.sum_s_in_s(), 2);
        // SE-degrees are 2, 1, 2 and at most |S| = 2.
        assert_eq!(deg.se_histogram, vec![0, 1, 2]);
    }

    #[test]
    fn empty_candidate_sides() {
        let g = figure4_local();
        let (deg, membership) = compute_degrees(&g, &[], &[0, 1, 2]);
        assert_eq!(deg.dmin(), None);
        assert_eq!(deg.dmin_s(), None);
        assert_eq!(deg.sum_s_in_s(), 0);
        assert_eq!(deg.ext_in_s, vec![0, 0, 0]);
        let ee = compute_ee_degrees(&g, &[0, 1, 2], &membership);
        // Within {a,b,c} all three edges exist.
        assert_eq!(ee, vec![2, 2, 2]);

        let (deg, _) = compute_degrees(&g, &[0, 1], &[]);
        assert_eq!(deg.dmin(), Some(1));
        assert!(deg.ext_in_s.is_empty());
    }

    #[test]
    fn membership_table_reports_sides() {
        let g = figure4_local();
        let (_, membership) = compute_degrees(&g, &[0], &[3, 4]);
        assert_eq!(membership.get(0), Membership::InS);
        assert_eq!(membership.get(3), Membership::InExt);
        assert_eq!(membership.get(7), Membership::Neither);
    }

    #[test]
    fn hub_word_parallel_counting_matches_list_walk() {
        let mut indexed = figure4_local();
        indexed.build_hub_index(qcm_graph::IndexSpec::Threshold(0));
        let plain = figure4_local();
        let cases: &[(&[u32], &[u32])] = &[
            (&[0, 1], &[2, 3, 4]),
            (&[], &[0, 1, 2]),
            (&[0, 1], &[]),
            (&[3], &[7, 8]),
            (&[0, 1, 2, 3, 4], &[5, 6, 7, 8]),
        ];
        for (s, ext) in cases {
            let (a, ma) = compute_degrees(&indexed, s, ext);
            let (b, mb) = compute_degrees(&plain, s, ext);
            assert_eq!(a, b, "degrees for S={s:?}, ext={ext:?}");
            assert_eq!(
                compute_ee_degrees(&indexed, ext, &ma),
                compute_ee_degrees(&plain, ext, &mb),
                "EE degrees for S={s:?}, ext={ext:?}"
            );
        }
        // With a peeled vertex: stale hub-row bits must not be counted.
        let mut peeled_indexed = indexed.clone();
        peeled_indexed.remove_vertex(4);
        let mut peeled_plain = plain.clone();
        peeled_plain.remove_vertex(4);
        let (a, _) = compute_degrees(&peeled_indexed, &[0, 1], &[2, 3]);
        let (b, _) = compute_degrees(&peeled_plain, &[0, 1], &[2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn degrees_ignore_vertices_outside_candidate() {
        let g = figure4_local();
        // S = {d}; ext = {h}. d is adjacent to a, c, e, h, i but only h counts.
        let (deg, _) = compute_degrees(&g, &[3], &[7]);
        assert_eq!(deg.s_in_s, vec![0]);
        assert_eq!(deg.s_in_ext, vec![1]);
        assert_eq!(deg.ext_in_s, vec![1]);
    }
}
