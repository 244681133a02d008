//! Iterations 1 and 2 of the quasi-clique compute UDF (Algorithms 6–7).
//!
//! These two iterations build the task subgraph `t.g`: the k-core of the
//! spawning vertex's two-hop neighborhood restricted to larger vertex ids.
//! Iteration 1 integrates the first-hop adjacency lists and requests the
//! second-hop vertices; iteration 2 integrates those, shrinks to the k-core
//! and forms the candidate `⟨S = {v}, ext(S) = V(t.g) − v⟩` for iteration 3.
//!
//! Both read the frontier in id order into an `Assembly`: a vertex's
//! position is the rank of its id, all adjacency sits in one flat buffer of
//! positions, and a destination is turned into a position once, through
//! [`IdRanks`] over the task's own sorted ids (a bit and a half per id of
//! their range, dropped with the iteration) — nothing is kept per worker and
//! nothing is allocated per vertex. The peel is the one k-core cascade of
//! the workspace, [`Peel`], over those positions. What leaves an iteration
//! is a checked [`LocalGraph`], written as one flat CSR of the vertices the
//! peel kept; between the two it holds the surviving first-hop vertices only,
//! because an edge from one of them to a second-hop vertex `w` is read back
//! from `Γ(w)` when `w` arrives.

use crate::task::{Frontier, QCTask, TaskPhase};
use qcm_graph::{IdRanks, LocalGraph, Peel, VertexId};

/// `t.g` while it is put together: the vertices in id order and, per vertex,
/// the span of `near` that lists its neighbors inside `t.g` by position.
struct Assembly {
    ids: Vec<VertexId>,
    near: Vec<u32>,
    span: Vec<(usize, usize)>,
}

impl Assembly {
    fn neighbors(&self, p: usize) -> &[u32] {
        &self.near[self.span[p].0..self.span[p].1]
    }

    /// Writes `p` into the next free slot of the span reserved for `to`.
    fn hand(&mut self, p: usize, to: usize) {
        self.near[self.span[to].1] = p as u32;
        self.span[to].1 += 1;
    }

    /// The k-core of `t.g`, in `O(|E|)`: `degree[p]` counts the neighbors of
    /// `p` in `near` and those beyond `t.g`, which no peel removes.
    fn k_core(&self, degree: Vec<u32>, k: usize) -> Peel {
        let mut core = Peel::new(degree, k);
        core.seed(0..self.ids.len() as u32);
        let neighbors = |p: u32| self.neighbors(p as usize).iter().copied();
        while core.pop(neighbors).is_some() {}
        core
    }

    /// The subgraph on the vertices left in `core`, renumbered by rank.
    fn into_graph(self, core: &Peel) -> LocalGraph {
        let n = self.ids.len();
        let alive = |p: usize| core.contains(p as u32);
        let mut rank = vec![0u32; n];
        for p in 1..n {
            rank[p] = rank[p - 1] + u32::from(alive(p - 1));
        }
        let survivors = || (0..n).filter(|&p| alive(p));
        let staying = |p: usize| self.neighbors(p).iter().filter(|&&q| alive(q as usize));
        // Sized exactly: one allocation per buffer.
        let edges: usize = survivors().map(|p| staying(p).count()).sum();
        let mut offsets = Vec::with_capacity(survivors().count() + 1);
        let mut targets = Vec::with_capacity(edges);
        offsets.push(0);
        for p in survivors() {
            targets.extend(staying(p).map(|&q| rank[q as usize]));
            offsets.push(targets.len());
        }
        let ids: Vec<VertexId> = survivors().map(|p| self.ids[p]).collect();
        // Refused only if a pulled list names a neighbor whose own list does
        // not name it back.
        LocalGraph::from_sorted_lists(ids, offsets, targets)
            .expect("the vertex table serves an undirected graph")
    }
}

/// Algorithm 6: processes the pulled first-hop adjacency lists.
///
/// Returns `false` when the task can terminate (the spawning vertex was
/// peeled away), `true` when the task should proceed to iteration 2 (its
/// `pull_targets` now name the second-hop vertices).
pub fn iteration_1(task: &mut QCTask, frontier: &Frontier, k: usize) -> bool {
    /// Position of a pulled vertex below the degree threshold (the set V2).
    const LOW_DEGREE: u32 = u32::MAX;
    let root = task.root;

    // Line 2: t.N ← V(frontier) ∪ {v}. Only larger-id neighbors were pulled,
    // which is exactly the slice of the graph this task is responsible for.
    // Lines 3–4: split them by the degree threshold k. Position 0 is the
    // root, positions 1.. are V1 in id order.
    let pulled: Vec<VertexId> = frontier.iter().map(|(u, _)| u).collect();
    let mut ids = vec![root];
    let position: Vec<u32> = frontier
        .iter()
        .map(|(u, adj)| {
            if u > root && adj.len() >= k {
                ids.push(u);
                ids.len() as u32 - 1
            } else {
                LOW_DEGREE
            }
        })
        .collect();

    // Lines 5–9: t.g holds V1 ∪ {v}; adjacency lists keep only destinations
    // w ≥ v that are not in V2. A destination inside t.g goes to `near`; one
    // two hops from v stays an id in `far` (vertex p's are `far_span[p]`): it
    // counts for the degree check but cannot be peeled yet.
    let one_hop = IdRanks::over(&pulled);
    let mut near: Vec<u32> = (1..ids.len() as u32).collect();
    let mut span = vec![(0, near.len())];
    let (mut far, mut far_span) = (Vec::new(), vec![(0, 0)]);
    for ((_, adj), _) in frontier
        .iter()
        .zip(&position)
        .filter(|(_, &p)| p != LOW_DEGREE)
    {
        let (near_start, far_start) = (near.len(), far.len());
        for &w in &adj[adj.partition_point(|&w| w < root)..] {
            match one_hop.rank(w) {
                _ if w == root => near.push(0),
                None => far.push(w),
                Some(j) if position[j] != LOW_DEGREE => near.push(position[j]),
                Some(_) => {}
            }
        }
        span.push((near_start, near.len()));
        far_span.push((far_start, far.len()));
    }
    let t_g = Assembly { ids, near, span };

    // Line 10: shrink to the k-core (only materialised vertices are peelable).
    let degree = (0..t_g.ids.len())
        .map(|p| (t_g.neighbors(p).len() + far_span[p].1 - far_span[p].0) as u32)
        .collect();
    let core = t_g.k_core(degree, k);

    // Line 11: the task is only useful if the spawning vertex survived.
    task.pull_targets.clear();
    if !core.contains(0) {
        return false;
    }

    // Lines 12–15: request the second-hop vertices (w > v, not already within
    // one hop) — the far destinations of the survivors.
    for (_, &(from, to)) in (0..).zip(&far_span).filter(|(p, _)| core.contains(*p)) {
        task.pull_targets.extend_from_slice(&far[from..to]);
    }
    task.pull_targets.sort_unstable();
    task.pull_targets.dedup();
    task.subgraph = t_g.into_graph(&core);
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
    let (root, half) = (task.root, &task.subgraph);
    let first_hop = half.capacity();

    // Lines 3–5: the second-hop vertices of degree ≥ k join t.g. Merging them
    // into the id table, once, fixes every final position: `moved[i]` is where
    // first-hop vertex `i` goes, `origin[p]` where the vertex at `p` came from
    // (`None`: it arrives with this frontier).
    let mut arrivals = frontier
        .iter()
        .filter(|(u, adj)| *u > root && adj.len() >= k)
        .peekable();
    let (mut ids, mut origin, mut moved) = (Vec::new(), Vec::new(), Vec::new());
    let mut joining: Vec<&[VertexId]> = Vec::new();
    for i in 0..=first_hop as u32 {
        let bound = ((i as usize) < first_hop).then(|| half.global_id(i));
        while let Some((u, adj)) = arrivals.next_if(|(u, _)| bound.map_or(true, |b| *u < b)) {
            ids.push(u);
            origin.push(None);
            joining.push(adj);
        }
        if let Some(b) = bound {
            // A pull of a vertex already in t.g would be a repeat; drop it.
            arrivals.next_if(|(u, _)| *u == b);
            moved.push(ids.len());
            ids.push(b);
            origin.push(Some(i));
        }
    }
    let n = ids.len();

    // Lines 6–8: an arriving vertex keeps the destinations that are vertices
    // of t.g — all of them are ≥ v and within two hops of it. First pass:
    // their lists, and with them the final degree of every first-hop vertex,
    // whose own pulled list ended at the first hop.
    let table = IdRanks::over(&ids);
    let (mut near, mut span) = (Vec::new(), vec![(0, 0); n]);
    let first_hop_degree = |i: u32| half.degree(i) as u32;
    let mut degree: Vec<u32> = origin
        .iter()
        .map(|o| o.map_or(0, first_hop_degree))
        .collect();
    let arriving = (0..n).filter(|&p| origin[p].is_none());
    for (p, adj) in arriving.zip(joining) {
        let start = near.len();
        let tail = &adj[adj.partition_point(|&w| w < root)..];
        for q in tail.iter().filter_map(|&w| table.rank(w)) {
            near.push(q as u32);
            degree[q] += u32::from(origin[q].is_some());
        }
        span[p] = (start, near.len());
        degree[p] = (near.len() - start) as u32;
    }
    let mut t_g = Assembly { ids, near, span };
    // Second pass, in id order so that every first-hop list fills in sorted
    // order: a first-hop vertex hands itself to its first-hop neighbors, an
    // arriving one to its first-hop destinations.
    for p in (0..n).filter(|&p| origin[p].is_some()) {
        let start = t_g.near.len();
        t_g.span[p] = (start, start);
        t_g.near.resize(start + degree[p] as usize, 0);
    }
    for p in 0..n {
        if let Some(i) = origin[p] {
            for &j in half.neighbors(i) {
                t_g.hand(p, moved[j as usize]);
            }
            continue;
        }
        for at in t_g.span[p].0..t_g.span[p].1 {
            let to = t_g.near[at] as usize;
            if origin[to].is_some() {
                t_g.hand(p, to);
            }
        }
    }

    // Line 9: exact k-core of the assembled subgraph. Line 10: the task is
    // only useful if the spawning vertex, position 0, survived.
    let core = t_g.k_core(degree, k);
    task.pull_targets.clear();
    if !core.contains(0) {
        return false;
    }

    // Lines 11–12: the candidate for iteration 3.
    task.subgraph = t_g.into_graph(&core);
    task.s = vec![0];
    task.ext = (1..task.subgraph.capacity() as u32).collect();
    task.phase = TaskPhase::Mine;
    true
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::app::QuasiCliqueApp;
    use crate::reference::{self, RefTask};
    use crate::task::WorkerScratch;
    use proptest::prelude::*;
    use qcm_core::MiningParams;
    use qcm_gen::planted::{plant_quasi_cliques, PlantedGraphSpec};
    use qcm_gen::powerlaw::power_law_graph;
    use qcm_graph::Graph;
    use qcm_sync::Arc;
    use std::time::Duration;

    /// Figure 4 graph of the paper.
    pub(crate) fn figure4() -> Graph {
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

    /// The global ids behind local indices of the task's subgraph.
    pub(crate) fn globals(task: &QCTask, locals: &[u32]) -> Vec<VertexId> {
        locals.iter().map(|&i| task.subgraph.global_id(i)).collect()
    }

    /// The larger-id neighbors `spawn` would pull for `root`.
    fn larger_neighbors(g: &Graph, root: VertexId) -> Vec<VertexId> {
        let adj = g.neighbors(root);
        adj[adj.partition_point(|&u| u <= root)..].to_vec()
    }

    /// Builds a frontier holding Γ(u) for each requested vertex.
    pub(crate) fn frontier_for(g: &Graph, pulls: &[VertexId]) -> Frontier {
        let mut f = Frontier::new();
        for &u in pulls {
            f.insert(u, Arc::new(g.neighbors(u).to_vec()));
        }
        f
    }

    /// Runs iterations 1 and 2 for the task spawned from `root`, returning the
    /// task if it survives.
    pub(crate) fn build_task(g: &Graph, root: u32, k: usize) -> Option<QCTask> {
        let root = v(root);
        let mut task = QCTask::spawned(root, larger_neighbors(g, root));
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
        let vertices: Vec<u32> = task.subgraph.global_ids().iter().map(|u| u.raw()).collect();
        assert_eq!(vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(globals(&task, &task.s), vec![v(0)]);
        assert_eq!(globals(&task, &task.ext), vec![v(1), v(2), v(3), v(4)]);
        assert_eq!(task.subgraph.num_edges(), 9);
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
            assert!(task.subgraph.global_ids().iter().all(|u| u.raw() >= 2));
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
            assert!(task.subgraph.global_ids().iter().all(|u| u.raw() >= 1));
        }
    }

    /// The task `app` spawns from `root` and builds through iterations 1 and
    /// 2, if it survives them.
    fn app_task(app: &QuasiCliqueApp, g: &Graph, root: VertexId) -> Option<QCTask> {
        let mut task = app.spawn(root, g.neighbors(root));
        while task.phase != TaskPhase::Mine {
            let frontier = frontier_for(g, &task.pull_targets);
            let (goes_on, _) = app.compute(&mut task, &frontier, &mut WorkerScratch::default());
            if !goes_on {
                return None;
            }
        }
        Some(task)
    }

    #[test]
    fn serial_root_task_builder_cuts_the_same_subgraph() {
        // The serial miner's per-root task subgraph and the one the engine's
        // spawn and iterations 1 and 2 assemble from pulled adjacency lists
        // hold the same vertices, for every root of Figure 4, with the
        // size-threshold rule on and off. The serial side starts from the
        // global k-core, visits only the roots in their suffix core and drops
        // tasks too small to hold a result; the engine does none of that, so
        // the other roots are expected to end empty-handed there.
        use qcm_core::{PruneConfig, RootTaskBuilder};
        use qcm_graph::kcore::k_core_vertices;
        use qcm_graph::LocalGraph;
        let g = figure4();
        let unpeeled = PruneConfig::all_enabled().without("size_threshold");
        for config in [PruneConfig::all_enabled(), unpeeled] {
            for (gamma, min_size) in [(0.6, 5), (0.9, 4), (0.6, 4), (0.5, 3), (1.0, 3)] {
                let params = MiningParams::new(gamma, min_size);
                let app =
                    QuasiCliqueApp::new(params, 100, Duration::ZERO).with_prune_config(config);
                let survivors = k_core_vertices(&g, config.peel_threshold(&params));
                let work = LocalGraph::from_induced(&g, &survivors);
                let mut builder = RootTaskBuilder::new(&work, params, config);
                let mut serial = vec![None; 9];
                while let Some(local) = builder.next_root() {
                    let task = builder.build(local);
                    serial[survivors[local as usize].index()] =
                        task.map(|t| t.global_ids().to_vec());
                }
                for (root, serial) in g.vertices().zip(serial) {
                    let engine: Option<Vec<VertexId>> = app_task(&app, &g, root)
                        .map(|task| task.subgraph.global_ids().to_vec())
                        .filter(|vertices: &Vec<VertexId>| vertices.len() >= min_size);
                    let case = format!("{config:?} γ={gamma} τ_size={min_size} root {root}");
                    assert_eq!(serial, engine, "{case}");
                    if let Some(vertices) = &serial {
                        assert_eq!(vertices[0], root, "the root is local 0");
                    }
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
        assert!(!task.pull_targets.is_empty());
        for w in &task.pull_targets {
            assert!(f1.get(*w).is_none());
            assert!(*w > root);
        }
    }

    /// Runs the reference and the current iterations side by side on the task
    /// of every root of `g` and compares them after each phase. Returns how
    /// many tasks reached iteration 3.
    fn compare_with_reference(g: &Graph, k: usize) -> Result<usize, String> {
        let mut ready = 0;
        for root in g.vertices() {
            let larger = larger_neighbors(g, root);
            let mut old = RefTask::spawned(root, larger.clone());
            let mut new = QCTask::spawned(root, larger);
            let f1 = frontier_for(g, &new.pull_targets);
            let goes_on = iteration_1(&mut new, &f1, k);
            prop_assert_eq!(
                goes_on,
                reference::iteration_1(&mut old, &f1, k),
                "root {root}"
            );
            if !goes_on {
                continue;
            }
            // Vertex set and edge set at once: the reference's conversion
            // keeps the edges between its vertices, which is all the
            // half-built graph holds.
            prop_assert_eq!(
                &new.subgraph,
                &old.subgraph.to_local_graph().0,
                "root {root}"
            );
            prop_assert_eq!(&new.pull_targets, &old.pull_targets, "root {root}");
            prop_assert_eq!(new.phase, old.phase);

            let f2 = frontier_for(g, &new.pull_targets);
            let goes_on = iteration_2(&mut new, &f2, k);
            prop_assert_eq!(
                goes_on,
                reference::iteration_2(&mut old, &f2, k),
                "root {root}"
            );
            if !goes_on {
                continue;
            }
            prop_assert_eq!(
                &new.subgraph,
                &old.subgraph.to_local_graph().0,
                "root {root}"
            );
            prop_assert_eq!(globals(&new, &new.s), old.s, "root {root}");
            prop_assert_eq!(globals(&new, &new.ext), old.ext, "root {root}");
            prop_assert_eq!(&new.pull_targets, &old.pull_targets);
            prop_assert_eq!(new.phase, old.phase);
            ready += 1;
        }
        Ok(ready)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The flat, rank-indexed assembly and the global-id `TaskGraph` it
        /// replaced agree on every root of planted and power-law graphs, on
        /// the raw input (low-degree first-hop vertices, peels in both
        /// iterations) for every γ and τ_size.
        #[test]
        fn iterations_agree_with_the_task_graph_reference(
            seed in 0u64..1_000,
            n in 120usize..260,
            min_size in 3usize..9,
        ) {
            let planted = plant_quasi_cliques(&PlantedGraphSpec {
                num_vertices: n,
                background_avg_degree: 5.0,
                background_max_degree: 40.0,
                community_sizes: vec![14, 10, 8],
                community_density: 0.9,
                seed,
                ..PlantedGraphSpec::default()
            })
            .0;
            let power_law = power_law_graph(n, 8.0, 2.2, 60.0, seed);
            for g in [&planted, &power_law] {
                let mut ready = 0;
                for gamma in [0.5, 0.8, 0.9, 1.0] {
                    let k = MiningParams::new(gamma, min_size).kcore_threshold();
                    ready += compare_with_reference(g, k)?;
                }
                prop_assert!(ready > 0, "no task of the graph was built to the end");
            }
        }
    }
}
