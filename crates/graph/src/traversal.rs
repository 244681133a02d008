//! Graph traversal primitives.
//!
//! The quasi-clique miner relies on two traversal building blocks:
//!
//! * **Two-hop neighborhoods** `B(v)` / `B̄(v)` (paper Section 3.1): because a
//!   γ-quasi-clique with γ ≥ 0.5 has diameter ≤ 2, the search space of the
//!   task spawned from `v` is contained in `v`'s two-hop ego network.
//! * **Connected components** — quasi-cliques are connected by definition, and
//!   the generators/statistics code uses components for sanity checks.

use crate::graph::Graph;
use crate::vertex::VertexId;

/// Computes the two-hop neighborhood `B̄(v) = N1(v) ∪ N2(v)` of `v`
/// (excluding `v` itself), sorted by vertex id.
pub fn two_hop_neighborhood(g: &Graph, v: VertexId) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut seen = vec![false; n];
    seen[v.index()] = true;
    let mut result: Vec<VertexId> = Vec::new();
    for &u in g.neighbors(v) {
        if !seen[u.index()] {
            seen[u.index()] = true;
            result.push(u);
        }
    }
    let first_hop_len = result.len();
    for i in 0..first_hop_len {
        let u = result[i];
        for &w in g.neighbors(u) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                result.push(w);
            }
        }
    }
    result.sort_unstable();
    result
}

/// Breadth-first search from `start`; returns the distance of every vertex
/// (`u32::MAX` for unreachable ones).
pub fn bfs_distances(g: &Graph, start: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[start.index()] = 0;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        for &w in g.neighbors(v) {
            if dist[w.index()] == u32::MAX {
                dist[w.index()] = d + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Returns the connected components of `g` as vectors of vertex ids (each
/// sorted); components are ordered by their smallest vertex.
pub fn connected_components(g: &Graph) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices();
    let mut comp = vec![usize::MAX; n];
    let mut components: Vec<Vec<VertexId>> = Vec::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = components.len();
        let mut members = Vec::new();
        let mut stack = vec![start as u32];
        comp[start] = id;
        while let Some(v) = stack.pop() {
            members.push(VertexId::new(v));
            for &w in g.neighbors(VertexId::new(v)) {
                if comp[w.index()] == usize::MAX {
                    comp[w.index()] = id;
                    stack.push(w.raw());
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    components
}

/// Returns true if the subgraph of `g` induced by `vertices` is connected.
/// `vertices` must be duplicate-free. An empty set is considered connected.
pub fn is_connected_subset(g: &Graph, vertices: &[VertexId]) -> bool {
    if vertices.len() <= 1 {
        return true;
    }
    let mut sorted = vertices.to_vec();
    sorted.sort_unstable();
    let mut visited = vec![false; sorted.len()];
    let mut stack = vec![0usize];
    visited[0] = true;
    let mut count = 1usize;
    while let Some(i) = stack.pop() {
        let v = sorted[i];
        for &w in g.neighbors(v) {
            if let Ok(j) = sorted.binary_search(&w) {
                if !visited[j] {
                    visited[j] = true;
                    count += 1;
                    stack.push(j);
                }
            }
        }
    }
    count == sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::figure4_graph as figure4;

    #[test]
    fn two_hop_of_e_covers_whole_figure4_graph() {
        // Paper: B̄(e) consists of all vertices; B(e) = {f, g, h, i}.
        let g = figure4();
        let e = VertexId::new(4);
        let bbar = two_hop_neighborhood(&g, e);
        assert_eq!(bbar.len(), 8); // everything except e itself
        let gamma: Vec<u32> = g.neighbors(e).iter().map(|v| v.raw()).collect();
        assert_eq!(gamma, vec![0, 1, 2, 3]);
        let second_hop: Vec<u32> = bbar
            .iter()
            .map(|v| v.raw())
            .filter(|r| !gamma.contains(r))
            .collect();
        assert_eq!(second_hop, vec![5, 6, 7, 8]);
    }

    #[test]
    fn bfs_distances_from_a() {
        let g = figure4();
        let dist = bfs_distances(&g, VertexId::new(0));
        assert_eq!(dist[0], 0);
        assert_eq!(dist[4], 1);
        assert_eq!(dist[5], 2); // a-b-f
        assert_eq!(dist[8], 2); // a-d-i
    }

    #[test]
    fn connected_components_single_component() {
        let g = figure4();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 9);
    }

    #[test]
    fn connected_components_multiple() {
        let g = Graph::from_edges(6, [(0, 1), (2, 3)]).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 4); // {0,1}, {2,3}, {4}, {5}
        assert_eq!(comps[0].len(), 2);
        assert_eq!(comps[2].len(), 1);
    }

    #[test]
    fn is_connected_subset_checks() {
        let g = figure4();
        let subset: Vec<VertexId> = [0u32, 1, 2, 3, 4]
            .iter()
            .map(|&v| VertexId::new(v))
            .collect();
        assert!(is_connected_subset(&g, &subset));
        let disconnected: Vec<VertexId> = [5u32, 8].iter().map(|&v| VertexId::new(v)).collect();
        assert!(!is_connected_subset(&g, &disconnected));
        assert!(is_connected_subset(&g, &[]));
        assert!(is_connected_subset(&g, &[VertexId::new(7)]));
    }
}
