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
//! computed lazily, exactly as the paper recommends, and only for the
//! vertices Theorem 5 leaves open (see [`compute_ee_degrees_into`]). The two
//! S-side kinds are not counted here at all: they follow the search path in
//! a [`PathDegrees`] and [`carried_degrees_into`] reads them.
//!
//! A root's child `S = {root, v}` needs no per-vertex count for the bounds:
//! an SE-degree is 0, 1 or 2, so the histogram comes from four popcounts of
//! `ext(S)` against the two members' rows ([`pair_degrees_into`]).
//!
//! The ext-side counts AND bit rows against `ext(S)` as a bitset, and the
//! search carries that bitset beside the list: `ext` and its bits describe
//! one set at every bounding round. Whoever shrinks the list clears the bits
//! of what it removed, so nothing here inserts `ext` into a set; every round
//! checks the two agree in debug builds.

use crate::path_degrees::PathDegrees;
use qcm_graph::bitset::{row_contains, VertexBitSet};
use qcm_graph::neighborhoods::perf;
use qcm_graph::LocalGraph;

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
/// subgraph `g` from nothing: [`carried_degrees_into`] on a fresh
/// [`PathDegrees`] and a fresh bitset of `ext`. Returns the degrees and that
/// bitset (what [`compute_ee_degrees_into`] takes).
pub fn compute_degrees(g: &LocalGraph, s: &[u32], ext: &[u32]) -> (Degrees, VertexBitSet) {
    let mut degrees = Degrees::default();
    let ext_bits = VertexBitSet::from_members(g.capacity(), ext);
    let mut path = PathDegrees::default();
    carried_degrees_into(g, &mut path, s, ext, &ext_bits, &mut degrees);
    (degrees, ext_bits)
}

/// True if the duplicate-free list `ext` and `bits` hold the same vertices.
pub(crate) fn same_set(ext: &[u32], bits: &VertexBitSet) -> bool {
    bits.len() == ext.len() && ext.iter().all(|&u| bits.contains(u))
}

/// Refills `degrees` with the SS, ES and SE degrees of the candidate
/// `⟨s, ext⟩`, allocating nothing. `ext_bits` is `ext` as a bitset sized to
/// `g` — the bits the search carries beside the list.
///
/// The S-side degrees — `d_S(v)` for `v ∈ S` and `d_S(u)` for `u ∈ ext(S)` —
/// are read from `path` after [`PathDegrees::sync`] has moved it to `s`, so a
/// round costs them nothing unless `S` changed. Only `d_ext(S)(v)` for
/// `v ∈ S` is counted: a member with a bit row
/// ([`LocalGraph::build_hub_index`] — every vertex of a task subgraph of at
/// most [`qcm_graph::subgraph::ALL_ROWS_MAX_VERTICES`]) by one word-parallel
/// AND + popcount of the row against `ext_bits`, the rest by a walk of their
/// adjacency list.
pub fn carried_degrees_into(
    g: &LocalGraph,
    path: &mut PathDegrees,
    s: &[u32],
    ext: &[u32],
    ext_bits: &VertexBitSet,
    degrees: &mut Degrees,
) {
    debug_assert!(ext.iter().all(|u| !s.contains(u)), "S and ext overlap");
    debug_assert_eq!(ext_bits.capacity(), g.capacity());
    debug_assert!(same_set(ext, ext_bits), "ext and its bits differ");
    path.sync(g, s);
    degrees.clear();
    let mut row_counts = 0u64;
    for &v in s {
        degrees.s_in_s.push(path.d_s(v));
        let in_ext = if let Some(row) = g.hub_row(v) {
            row_counts += 1;
            ext_bits.intersection_count_row(row) as u32
        } else {
            g.neighbors(v)
                .iter()
                .filter(|&&w| ext_bits.contains(w))
                .count() as u32
        };
        degrees.s_in_ext.push(in_ext);
    }
    degrees.se_histogram.resize(s.len() + 1, 0);
    for &u in ext {
        let in_s = path.d_s(u);
        degrees.ext_in_s.push(in_s);
        degrees.se_histogram[in_s as usize] += 1;
    }
    perf::count_intersections(row_counts);
}

/// Refills `degrees` with the SS and ES degrees and the SE histogram of a
/// root's child `S = [root, v]` from the bits alone, or returns `false`
/// without touching it when either member has no bit row. `ext_bits` is
/// `ext(S)` with `ext_len` members.
///
/// Four popcounts per word give `d_ext(S)` of both members,
/// `h2 = |ext ∩ Γ(root) ∩ Γ(v)|` and `h1 = |ext ∩ (Γ(root) ⊕ Γ(v))|`, so the
/// histogram is `[|ext| − h1 − h2, h1, h2]`; `d_S` of each member is
/// `[root ~ v]`. `ext_in_s` stays empty: the bounds, the critical-vertex
/// test and the Type-II rules read only the rest, and whoever needs the
/// per-vertex SE-degrees runs [`carried_degrees_into`] on the list.
pub fn pair_degrees_into(
    g: &LocalGraph,
    s: [u32; 2],
    ext_bits: &VertexBitSet,
    ext_len: usize,
    degrees: &mut Degrees,
) -> bool {
    let (Some(root_row), Some(v_row)) = (g.hub_row(s[0]), g.hub_row(s[1])) else {
        return false;
    };
    debug_assert_eq!(ext_bits.len(), ext_len);
    debug_assert!(!ext_bits.contains(s[0]) && !ext_bits.contains(s[1]));
    let [root_ext, v_ext, h2, h1] = ext_bits.pair_counts_rows(root_row, v_row);
    perf::count_intersections(4);
    let adjacent = u32::from(row_contains(root_row, s[1]));
    degrees.clear();
    degrees.s_in_s.extend([adjacent, adjacent]);
    degrees.s_in_ext.extend([root_ext as u32, v_ext as u32]);
    degrees
        .se_histogram
        .extend([(ext_len - h1 - h2) as u32, h1 as u32, h2 as u32]);
    true
}

/// Refills `ee` (aligned with `ext`) with the EE-degrees `d_ext(S)(u)` of
/// the extension vertices whose SE-degree `ext_in_s` is at least `from`; the
/// others get 0 and cost nothing. `ext_bits` is `ext` as a bitset, as
/// [`carried_degrees_into`] takes it; row members count by word-parallel
/// AND, exactly like the ES-degrees there. `from = 0` counts every vertex.
///
/// Type-I passes Theorem 5's cut as `from`: that theorem prunes a vertex
/// with `d_S(u)` below the cut whatever its EE-degree, and in a large task
/// it prunes most of the vertices Type-I examines.
pub fn compute_ee_degrees_into(
    g: &LocalGraph,
    ext: &[u32],
    ext_bits: &VertexBitSet,
    ext_in_s: &[u32],
    from: u32,
    ee: &mut Vec<u32>,
) {
    debug_assert_eq!(ext.len(), ext_in_s.len());
    ee.clear();
    let mut row_counts = 0u64;
    ee.extend(ext.iter().zip(ext_in_s).map(|(&u, &d_s)| {
        if d_s < from {
            return 0;
        }
        if let Some(row) = g.hub_row(u) {
            row_counts += 1;
            return ext_bits.intersection_count_row(row) as u32;
        }
        g.neighbors(u)
            .iter()
            .filter(|&&w| ext_bits.contains(w))
            .count() as u32
    }));
    perf::count_intersections(row_counts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_gen::datasets::figure4_local;

    fn compute_ee_degrees(g: &LocalGraph, ext: &[u32], ext_bits: &VertexBitSet) -> Vec<u32> {
        let mut ee = Vec::new();
        compute_ee_degrees_into(g, ext, ext_bits, &vec![0; ext.len()], 0, &mut ee);
        ee
    }

    #[test]
    fn degrees_of_figure4_candidate() {
        let g = figure4_local();
        // S = {a, b} = {0, 1}; ext = {c, d, e} = {2, 3, 4}.
        let s = vec![0u32, 1];
        let ext = vec![2u32, 3, 4];
        let (deg, ext_bits) = compute_degrees(&g, &s, &ext);
        // d_S(a) = 1 (b), d_S(b) = 1 (a).
        assert_eq!(deg.s_in_s, vec![1, 1]);
        // d_ext(a) = 3 (c, d, e); d_ext(b) = 2 (c, e).
        assert_eq!(deg.s_in_ext, vec![3, 2]);
        // d_S(c) = 2 (a, b); d_S(d) = 1 (a); d_S(e) = 2 (a, b).
        assert_eq!(deg.ext_in_s, vec![2, 1, 2]);
        // EE: d_ext(c) = 2 (d, e); d_ext(d) = 2 (c, e); d_ext(e) = 2 (c, d).
        let ee = compute_ee_degrees(&g, &ext, &ext_bits);
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
        let (deg, ext_bits) = compute_degrees(&g, &[], &[0, 1, 2]);
        assert_eq!(deg.dmin(), None);
        assert_eq!(deg.dmin_s(), None);
        assert_eq!(deg.sum_s_in_s(), 0);
        assert_eq!(deg.ext_in_s, vec![0, 0, 0]);
        let ee = compute_ee_degrees(&g, &[0, 1, 2], &ext_bits);
        // Within {a,b,c} all three edges exist.
        assert_eq!(ee, vec![2, 2, 2]);

        let (deg, _) = compute_degrees(&g, &[0, 1], &[]);
        assert_eq!(deg.dmin(), Some(1));
        assert!(deg.ext_in_s.is_empty());
    }

    #[test]
    fn ext_bits_hold_exactly_the_extension_side() {
        let g = figure4_local();
        let (_, ext_bits) = compute_degrees(&g, &[0], &[3, 4]);
        assert_eq!(ext_bits.capacity(), g.capacity());
        assert_eq!(ext_bits.iter().collect::<Vec<_>>(), vec![3, 4]);
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
