//! S-side degrees that follow the search path.
//!
//! `d_S(w) = |Γ(w) ∩ S|` changes only when a vertex enters or leaves `S`, and
//! along a depth-first search `S` changes by a vertex or two per step. So the
//! mining context keeps one `d_S` entry for every local vertex of its task
//! subgraph together with the `S` those entries describe, and
//! [`PathDegrees::sync`] moves both to the `S` a caller holds at a cost of the
//! adjacency lists of the members that differ — instead of one row popcount
//! per member of `S ∪ ext(S)` on every bounding round.

use qcm_graph::LocalGraph;

/// `d_S(w)` for every local vertex `w` of one task subgraph, and the `S` it
/// currently describes.
#[derive(Debug, Default)]
pub struct PathDegrees {
    /// `d_s[w]` counts the members of `members` adjacent to `w`.
    d_s: Vec<u32>,
    /// The `S` the counts describe, in the order its members entered.
    members: Vec<u32>,
}

impl PathDegrees {
    /// Makes the counts describe `s` (duplicate-free local vertices of
    /// `g`, which must be the same graph on every call): the common prefix of
    /// `s` and the described set stays, the members after it leave and the
    /// rest of `s` enters, each at the cost of one walk of its adjacency
    /// list. A depth-first step or a critical-vertex move pays for the
    /// vertices it adds; an unrelated `s` pays for both sets in full and is
    /// just as correct. The first call sizes the array to the graph.
    pub fn sync(&mut self, g: &LocalGraph, s: &[u32]) {
        if self.d_s.len() != g.capacity() {
            self.members.clear();
            self.d_s.clear();
            self.d_s.resize(g.capacity(), 0);
        }
        let common = self
            .members
            .iter()
            .zip(s)
            .take_while(|(a, b)| a == b)
            .count();
        for &v in &self.members[common..] {
            for &w in g.neighbors(v) {
                self.d_s[w as usize] -= 1;
            }
        }
        self.members.truncate(common);
        for &v in &s[common..] {
            for &w in g.neighbors(v) {
                self.d_s[w as usize] += 1;
            }
        }
        self.members.extend_from_slice(&s[common..]);
    }

    /// `d_S(w)` for the `S` of the last [`PathDegrees::sync`].
    #[inline]
    pub fn d_s(&self, w: u32) -> u32 {
        self.d_s[w as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_graph::{Graph, VertexId};

    fn path_graph() -> LocalGraph {
        // 0 – 1 – 2 – 3 – 4, plus the chord 1 – 3.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]).unwrap();
        let all: Vec<VertexId> = g.vertices().collect();
        LocalGraph::from_induced(&g, &all)
    }

    fn counts(path: &PathDegrees) -> Vec<u32> {
        (0..5).map(|w| path.d_s(w)).collect()
    }

    #[test]
    fn pushes_pops_and_jumps_all_land_on_a_recount() {
        let g = path_graph();
        let mut path = PathDegrees::default();
        path.sync(&g, &[1]);
        assert_eq!(counts(&path), vec![1, 0, 1, 1, 0]);
        // A DFS push, then a two-vertex extension.
        path.sync(&g, &[1, 3]);
        assert_eq!(counts(&path), vec![1, 1, 2, 1, 1]);
        path.sync(&g, &[1, 3, 0, 4]);
        assert_eq!(counts(&path), vec![1, 2, 2, 2, 1]);
        // Back up two levels and take a sibling.
        path.sync(&g, &[1, 2]);
        assert_eq!(counts(&path), vec![1, 1, 1, 2, 0]);
        // An unrelated S sharing no prefix, then the empty set.
        path.sync(&g, &[4, 0]);
        assert_eq!(counts(&path), vec![0, 1, 0, 1, 0]);
        path.sync(&g, &[]);
        assert_eq!(counts(&path), vec![0; 5]);
    }
}
