//! Iterations 1 and 2 of the quasi-clique compute UDF (Algorithms 6–7).
//!
//! These two iterations build the task subgraph `t.g`: the k-core of the
//! spawning vertex's two-hop neighborhood restricted to larger vertex ids.
//! Iteration 1 integrates the first-hop adjacency lists and requests the
//! second-hop vertices; iteration 2 integrates those, shrinks to the k-core
//! and forms the candidate `⟨S = {v}, ext(S) = V(t.g) − v⟩` for iteration 3.

use crate::task::{QCTask, TaskPhase};
use qcm_engine::Frontier;
use qcm_graph::VertexId;

/// Algorithm 6: processes the pulled first-hop adjacency lists.
///
/// Returns `false` when the task can terminate (the spawning vertex was
/// peeled away), `true` when the task should proceed to iteration 2 (its
/// `pull_targets` now name the second-hop vertices).
pub fn iteration_1(task: &mut QCTask, frontier: &Frontier, k: usize) -> bool {
    let root = task.root;

    // Line 2: t.N ← V(frontier) ∪ {v}. Only larger-id neighbors were pulled,
    // which is exactly the slice of the graph this task is responsible for.
    let mut one_hop: Vec<VertexId> = frontier.iter().map(|(v, _)| v).collect();
    one_hop.push(root);
    one_hop.sort_unstable();
    task.one_hop = one_hop;

    // Lines 3–4: split the pulled vertices by the degree threshold k.
    let mut low_degree: Vec<VertexId> = Vec::new();
    let mut kept: Vec<(VertexId, Vec<VertexId>)> = Vec::new();
    for (u, adj) in frontier.iter() {
        if adj.len() >= k {
            kept.push((u, adj.to_vec()));
        } else {
            low_degree.push(u);
        }
    }
    low_degree.sort_unstable();

    // Lines 5–9: t.g holds V1 ∪ {v}; adjacency lists keep only destinations
    // w ≥ v that are not in the low-degree set V2. Destinations two hops from
    // v stay (they are counted for the degree check but cannot be peeled yet).
    let root_adj: Vec<VertexId> = task
        .pull_targets
        .iter()
        .copied()
        .filter(|w| low_degree.binary_search(w).is_err())
        .collect();
    task.subgraph.insert(root, root_adj);
    for (u, adj) in kept {
        let filtered: Vec<VertexId> = adj
            .into_iter()
            .filter(|&w| w >= root && low_degree.binary_search(&w).is_err())
            .collect();
        task.subgraph.insert(u, filtered);
    }

    // Line 10: shrink to the k-core (only materialised vertices are peelable).
    task.subgraph.peel(k, |_| true);

    // Line 11: the task is only useful if the spawning vertex survived.
    if !task.subgraph.contains(root) {
        task.pull_targets.clear();
        return false;
    }

    // Lines 12–15: request the second-hop vertices (w > v, not already within
    // one hop).
    let mut second_hop: Vec<VertexId> = Vec::new();
    for (_, nbrs) in &task.subgraph.adj {
        for &w in nbrs {
            if w > root && task.one_hop.binary_search(&w).is_err() {
                second_hop.push(w);
            }
        }
    }
    second_hop.sort_unstable();
    second_hop.dedup();
    task.pull_targets = second_hop;
    task.phase = TaskPhase::SecondHop;
    true
}

/// Algorithm 7: processes the pulled second-hop adjacency lists and finalises
/// the task subgraph.
///
/// Returns `false` when the task can terminate (the spawning vertex was
/// peeled), `true` when the candidate is ready for iteration 3. Iteration 2
/// performs no pulls, so the engine immediately advances to iteration 3.
pub fn iteration_2(task: &mut QCTask, frontier: &Frontier, k: usize) -> bool {
    let root = task.root;

    // Line 2: B ← V(frontier) ∪ t.N — every vertex within two hops of v.
    let mut within_two_hops: Vec<VertexId> = frontier.iter().map(|(v, _)| v).collect();
    within_two_hops.extend_from_slice(&task.one_hop);
    within_two_hops.sort_unstable();
    within_two_hops.dedup();

    // Lines 3–8: add second-hop vertices of degree ≥ k; their adjacency lists
    // keep only destinations w ≥ v within two hops of v.
    for (u, adj) in frontier.iter() {
        if adj.len() >= k {
            let filtered: Vec<VertexId> = adj
                .iter()
                .copied()
                .filter(|&w| w >= root && within_two_hops.binary_search(&w).is_ok())
                .collect();
            task.subgraph.insert(u, filtered);
        }
    }

    // Line 9: exact k-core of the assembled subgraph. Destinations that never
    // became vertices (dropped second-hop vertices, third-hop fringe) are
    // removed from adjacency lists first so the peeling uses true degrees.
    task.subgraph.retain_internal_edges();
    task.subgraph.peel(k, |_| true);

    // Line 10.
    if !task.subgraph.contains(root) {
        task.pull_targets.clear();
        return false;
    }

    // Lines 11–12: the candidate for iteration 3.
    task.s = vec![root];
    task.ext = task
        .subgraph
        .adj
        .iter()
        .map(|(v, _)| *v)
        .filter(|&v| v != root)
        .collect();
    task.pull_targets.clear();
    task.phase = TaskPhase::Mine;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_graph::Graph;
    use qcm_sync::Arc;

    /// Figure 4 graph of the paper.
    fn figure4() -> Graph {
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
        Graph::from_edges(9, edges.iter().copied()).unwrap()
    }

    fn v(id: u32) -> VertexId {
        VertexId::new(id)
    }

    /// Builds a frontier holding Γ(u) for each requested vertex.
    fn frontier_for(g: &Graph, pulls: &[VertexId]) -> Frontier {
        let mut f = Frontier::new();
        for &u in pulls {
            f.insert(u, Arc::new(g.neighbors(u).to_vec()));
        }
        f
    }

    /// Runs iterations 1 and 2 for the task spawned from `root`, returning the
    /// task if it survives.
    fn build_task(g: &Graph, root: u32, k: usize) -> Option<QCTask> {
        let root = v(root);
        let larger: Vec<VertexId> = g
            .neighbors(root)
            .iter()
            .copied()
            .filter(|&u| u > root)
            .collect();
        let mut task = QCTask::spawned(root, larger);
        let f1 = frontier_for(g, &task.pull_targets);
        if !iteration_1(&mut task, &f1, k) {
            return None;
        }
        let f2 = frontier_for(g, &task.pull_targets);
        if !iteration_2(&mut task, &f2, k) {
            return None;
        }
        Some(task)
    }

    #[test]
    fn vertex_a_task_covers_the_dense_region() {
        // γ = 0.6, τ_size = 5 → k = ⌈0.6·4⌉ = 3. The task spawned from a must
        // end with subgraph {a, b, c, d, e} (the only 3-core among larger-id
        // vertices reachable within 2 hops).
        let g = figure4();
        let task = build_task(&g, 0, 3).expect("task for a must survive");
        assert_eq!(task.phase, TaskPhase::Mine);
        let vertices: Vec<u32> = task.subgraph.adj.iter().map(|(u, _)| u.raw()).collect();
        assert_eq!(vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(task.s, vec![v(0)]);
        assert_eq!(task.ext, vec![v(1), v(2), v(3), v(4)]);
    }

    #[test]
    fn peripheral_vertex_task_terminates_early() {
        // Vertex f (5) only reaches g (6) among larger ids; with k = 3 its
        // subgraph peels away entirely.
        let g = figure4();
        assert!(build_task(&g, 5, 3).is_none());
        // Vertex i (8) has no larger neighbor at all: spawn would create a
        // task whose first iteration kills it.
        assert!(build_task(&g, 8, 3).is_none());
    }

    #[test]
    fn later_roots_only_see_larger_vertices() {
        // The task spawned from c (2) must not contain a (0) or b (1) even
        // though they are adjacent — smaller ids belong to other tasks.
        let g = figure4();
        if let Some(task) = build_task(&g, 2, 2) {
            for (u, nbrs) in &task.subgraph.adj {
                assert!(u.raw() >= 2);
                for w in nbrs {
                    assert!(w.raw() >= 2);
                }
            }
        }
    }

    #[test]
    fn root_without_enough_larger_neighbors_terminates() {
        // With k = 3, vertex b (1) has only two larger-id neighbors that could
        // ever support it (c and e — f is filtered by its total degree 2 < 3),
        // so the k-core peel of iteration 1 removes b and the task ends: a
        // quasi-clique whose *smallest* member is b would need b to have ≥ 3
        // larger neighbors.
        let g = figure4();
        assert!(build_task(&g, 1, 3).is_none());
        // With k = 2 the same root survives and keeps f out of ext only if f
        // is peeled; at k = 2 f qualifies, so it may appear — the important
        // invariant is that every kept vertex has id ≥ b.
        if let Some(task) = build_task(&g, 1, 2) {
            assert!(task.subgraph.adj.iter().all(|(u, _)| u.raw() >= 1));
        }
    }

    #[test]
    fn serial_root_task_builder_cuts_the_same_subgraph() {
        // The serial miner's per-root task subgraph and the one iterations 1
        // and 2 assemble from pulled adjacency lists hold the same vertices,
        // for every root of Figure 4. The serial side starts from the global
        // k-core and drops tasks too small to hold a result; the engine does
        // neither, so those roots are expected to end empty-handed there.
        use qcm_core::{MiningParams, PruneConfig, RootTaskBuilder};
        use qcm_graph::kcore::k_core_vertices;
        use qcm_graph::{IndexSpec, LocalGraph};
        let g = figure4();
        for (gamma, min_size) in [(0.6, 5), (0.9, 4), (0.6, 4), (0.5, 3), (1.0, 3)] {
            let params = MiningParams::new(gamma, min_size);
            let k = params.kcore_threshold();
            let survivors = k_core_vertices(&g, k);
            let work = LocalGraph::from_induced(&g, &survivors);
            let mut builder =
                RootTaskBuilder::new(params, PruneConfig::all_enabled(), IndexSpec::Auto);
            for root in 0..9u32 {
                let serial: Option<Vec<VertexId>> = survivors
                    .binary_search(&v(root))
                    .ok()
                    .and_then(|local| builder.build(&work, local as u32))
                    .map(|task| task.alive_global_ids());
                let engine: Option<Vec<VertexId>> = build_task(&g, root, k)
                    .map(|task| task.subgraph.adj.iter().map(|(u, _)| *u).collect())
                    .filter(|vertices: &Vec<VertexId>| vertices.len() >= min_size);
                assert_eq!(serial, engine, "γ={gamma} τ_size={min_size} root {root}");
                if let Some(vertices) = &serial {
                    assert_eq!(vertices[0], v(root), "the root is local 0");
                }
            }
        }
    }

    #[test]
    fn second_hop_pull_targets_exclude_one_hop_vertices() {
        let g = figure4();
        let root = v(0);
        let larger: Vec<VertexId> = g.neighbors(root).to_vec();
        let mut task = QCTask::spawned(root, larger);
        let f1 = frontier_for(&g, &task.pull_targets);
        assert!(iteration_1(&mut task, &f1, 3));
        for w in &task.pull_targets {
            assert!(task.one_hop.binary_search(w).is_err());
            assert!(*w > root);
        }
    }
}
