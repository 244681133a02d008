//! The task-subgraph form this crate used before tasks carried a
//! [`qcm_graph::LocalGraph`]: adjacency keyed by global ids, built by sorted
//! insertion, peeled by binary search, converted for the miner through a hash
//! map. Kept, test-only, as the reference the property tests in
//! [`crate::iterations`] compare the build iterations (Algorithms 6–7)
//! against.

use crate::task::{Frontier, TaskPhase};
use qcm_graph::{LocalGraph, VertexId};
use std::collections::HashMap;

/// Adjacency of the task subgraph keyed by *global* vertex ids, kept sorted by
/// vertex id. Global ids make the structure stable under spilling and under
/// transfer between machines.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskGraph {
    /// `(vertex, neighbors)` pairs, sorted by vertex id; neighbor lists sorted.
    pub adj: Vec<(VertexId, Vec<VertexId>)>,
}

impl TaskGraph {
    /// Creates an empty task graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges, counting only edges whose both endpoints are vertices
    /// of the task graph.
    pub fn num_edges(&self) -> usize {
        let count: usize = self
            .adj
            .iter()
            .map(|(_, nbrs)| nbrs.iter().filter(|w| self.contains(**w)).count())
            .sum();
        count / 2
    }

    /// True if `v` is a vertex of the task graph.
    pub fn contains(&self, v: VertexId) -> bool {
        self.adj.binary_search_by_key(&v, |(u, _)| *u).is_ok()
    }

    /// The adjacency list of `v`, if present.
    pub fn neighbors(&self, v: VertexId) -> Option<&[VertexId]> {
        self.adj
            .binary_search_by_key(&v, |(u, _)| *u)
            .ok()
            .map(|i| self.adj[i].1.as_slice())
    }

    /// Inserts a vertex with the given (sorted) adjacency list, replacing any
    /// existing entry.
    pub fn insert(&mut self, v: VertexId, mut neighbors: Vec<VertexId>) {
        neighbors.sort_unstable();
        neighbors.dedup();
        match self.adj.binary_search_by_key(&v, |(u, _)| *u) {
            Ok(i) => self.adj[i].1 = neighbors,
            Err(i) => self.adj.insert(i, (v, neighbors)),
        }
    }

    /// Removes destinations that are not vertices of the task graph from every
    /// adjacency list (used before an exact k-core pass).
    pub fn retain_internal_edges(&mut self) {
        let vertices: Vec<VertexId> = self.adj.iter().map(|(v, _)| *v).collect();
        for (_, nbrs) in &mut self.adj {
            nbrs.retain(|w| vertices.binary_search(w).is_ok());
        }
    }

    /// Iteratively removes *peelable* vertices whose adjacency list is shorter
    /// than `k`. Destinations that are not vertices of the graph still count
    /// toward the degree (the paper's iteration-1 treatment of two-hop
    /// destinations); vertices for which `peelable` returns false are never
    /// removed. Returns the number of removed vertices.
    ///
    /// Uses the O(|E|) queue-based peeling of Batagelj & Zaversnik rather than
    /// repeated full scans — hub tasks build subgraphs with thousands of
    /// vertices and a quadratic peel would dominate their build time.
    pub fn peel<F: Fn(VertexId) -> bool>(&mut self, k: usize, peelable: F) -> usize {
        let n = self.adj.len();
        if n == 0 {
            return 0;
        }
        let mut degree: Vec<usize> = self.adj.iter().map(|(_, nbrs)| nbrs.len()).collect();
        let mut removed = vec![false; n];
        // The adjacency is sorted by vertex id, so the position of a
        // destination can be found by binary search without an extra map.
        let position = |target: &VertexId, adj: &[(VertexId, Vec<VertexId>)]| {
            adj.binary_search_by_key(target, |(v, _)| *v).ok()
        };
        let mut stack: Vec<usize> = (0..n)
            .filter(|&i| peelable(self.adj[i].0) && degree[i] < k)
            .collect();
        for &i in &stack {
            removed[i] = true;
        }
        let mut removed_total = 0usize;
        while let Some(i) = stack.pop() {
            removed_total += 1;
            for w in &self.adj[i].1 {
                if let Some(j) = position(w, &self.adj) {
                    if !removed[j] {
                        degree[j] -= 1;
                        if degree[j] < k && peelable(self.adj[j].0) {
                            removed[j] = true;
                            stack.push(j);
                        }
                    }
                }
            }
        }
        if removed_total == 0 {
            return 0;
        }
        let removed_ids: Vec<VertexId> = self
            .adj
            .iter()
            .enumerate()
            .filter(|(i, _)| removed[*i])
            .map(|(_, (v, _))| *v)
            .collect();
        let old = std::mem::take(&mut self.adj);
        self.adj = old
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !removed[*i])
            .map(|(_, entry)| entry)
            .collect();
        for (_, nbrs) in &mut self.adj {
            nbrs.retain(|w| removed_ids.binary_search(w).is_err());
        }
        removed_total
    }

    /// Converts the task graph into a [`LocalGraph`] plus a global→local index
    /// map, through the checked constructor. Only edges between present
    /// vertices are materialised; a list that names a present vertex whose
    /// own list does not name it back is refused.
    pub fn to_local_graph(&self) -> (LocalGraph, HashMap<VertexId, u32>) {
        let globals: Vec<VertexId> = self.adj.iter().map(|(v, _)| *v).collect();
        let index: HashMap<VertexId, u32> = globals
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let (mut offsets, mut targets) = (vec![0], Vec::new());
        for (_, nbrs) in &self.adj {
            targets.extend(nbrs.iter().filter_map(|w| index.get(w)));
            offsets.push(targets.len());
        }
        let lg = LocalGraph::from_sorted_lists(globals, offsets, targets)
            .expect("the reference keeps its adjacency symmetric");
        (lg, index)
    }
}

/// The task as the reference iterations see it: every set in global ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefTask {
    pub root: VertexId,
    pub phase: TaskPhase,
    pub pull_targets: Vec<VertexId>,
    /// `t.N`: the spawning vertex plus its pulled first-hop neighbors.
    pub one_hop: Vec<VertexId>,
    pub subgraph: TaskGraph,
    pub s: Vec<VertexId>,
    pub ext: Vec<VertexId>,
}

impl RefTask {
    /// The task spawned from `root` (Algorithm 4).
    pub fn spawned(root: VertexId, larger_neighbors: Vec<VertexId>) -> Self {
        RefTask {
            root,
            phase: TaskPhase::Build(0),
            pull_targets: larger_neighbors,
            one_hop: Vec::new(),
            subgraph: TaskGraph::new(),
            s: vec![root],
            ext: Vec::new(),
        }
    }
}

/// Algorithm 6: processes the pulled first-hop adjacency lists.
///
/// Returns `false` when the task can terminate (the spawning vertex was
/// peeled away), `true` when the task should proceed to iteration 2 (its
/// `pull_targets` now name the second-hop vertices).
pub fn iteration_1(task: &mut RefTask, frontier: &Frontier, k: usize) -> bool {
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
    task.phase = TaskPhase::Build(1);
    true
}

/// Algorithm 7: processes the pulled second-hop adjacency lists and finalises
/// the task subgraph.
///
/// Returns `false` when the task can terminate (the spawning vertex was
/// peeled), `true` when the candidate is ready for iteration 3. Iteration 2
/// performs no pulls, so the engine immediately advances to iteration 3.
pub fn iteration_2(task: &mut RefTask, frontier: &Frontier, k: usize) -> bool {
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
