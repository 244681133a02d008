//! Graph summary statistics.
//!
//! The experiment harness uses these statistics to print Table 1 of the paper
//! (dataset sizes) and to characterise the synthetic stand-in datasets
//! (degree skew, core structure) so that the `experiments table1` output shows
//! how close each stand-in is to its real counterpart.

use crate::graph::Graph;
use crate::kcore::core_numbers;
use crate::traversal::connected_components;
use crate::vertex::VertexId;

/// Summary statistics of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Average degree.
    pub avg_degree: f64,
    /// Graph degeneracy (maximum core number).
    pub degeneracy: u32,
    /// Number of connected components.
    pub num_components: usize,
    /// Size of the largest connected component.
    pub largest_component: usize,
}

impl GraphStats {
    /// Computes the statistics of `g`.
    pub fn compute(g: &Graph) -> GraphStats {
        let n = g.num_vertices();
        let degrees: Vec<usize> = (0..n).map(|v| g.degree(VertexId::from(v))).collect();
        let comps = connected_components(g);
        GraphStats {
            num_vertices: n,
            num_edges: g.num_edges(),
            min_degree: degrees.iter().copied().min().unwrap_or(0),
            max_degree: degrees.iter().copied().max().unwrap_or(0),
            avg_degree: g.avg_degree(),
            degeneracy: core_numbers(g).into_iter().max().unwrap_or(0),
            num_components: comps.len(),
            largest_component: comps.iter().map(Vec::len).max().unwrap_or(0),
        }
    }
}

/// Edge density of the whole graph: `2m / (n(n-1))` (0.0 for graphs with
/// fewer than two vertices).
pub fn density(g: &Graph) -> f64 {
    let n = g.num_vertices();
    if n < 2 {
        return 0.0;
    }
    2.0 * g.num_edges() as f64 / (n as f64 * (n as f64 - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn k5_plus_isolated() -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                b.add_edge_raw(i, j);
            }
        }
        b.set_min_vertices(7); // two isolated vertices
        b.build()
    }

    #[test]
    fn stats_of_clique_plus_isolated() {
        let g = k5_plus_isolated();
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 7);
        assert_eq!(s.num_edges, 10);
        assert_eq!(s.min_degree, 0);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.degeneracy, 4);
        assert_eq!(s.num_components, 3);
        assert_eq!(s.largest_component, 5);
        assert!((s.avg_degree - 20.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn density_of_clique_subset_is_high() {
        let g = k5_plus_isolated();
        // 10 edges over 7 vertices: 20 / 42.
        assert!((density(&g) - 20.0 / 42.0).abs() < 1e-12);
        assert_eq!(density(&Graph::empty(1)), 0.0);
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = Graph::empty(0);
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.num_components, 0);
    }
}
