//! The task subgraph of one root vertex (Algorithms 6–7, serial form).
//!
//! The paper mines each root `v` not on the whole graph but on `t.g`: the
//! k-core of the subgraph induced by `v` and the larger-id vertices within
//! two hops of it. A quasi-clique whose smallest member is `v` lies inside
//! that subgraph — with γ ≥ ½ any two members are within two hops *inside*
//! the quasi-clique (P1), all of whose members have ids ≥ `v`, and every
//! member keeps at least `k = ⌈γ·(τ_size − 1)⌉` neighbors there (P2). The
//! engine's tasks assemble `t.g` from pulled adjacency lists
//! (`qcm_engine::iterations`); [`RootTaskBuilder`] cuts the same subgraph
//! out of the serial miner's working graph, so the recursion runs in a
//! compact index space of a few hundred vertices where every vertex has a
//! bit row, whatever the size of the input.

use crate::config::PruneConfig;
use crate::params::MiningParams;
use qcm_graph::{IndexSpec, LocalGraph, SubgraphScratch, VertexBitSet};

/// Builds root task subgraphs out of one working graph, reusing its marker
/// set, vertex list, peel buffers and induction buffers from root to root: a
/// root costs `O(its ego-net)`, never `O(|work|)`.
#[derive(Debug)]
pub struct RootTaskBuilder {
    params: MiningParams,
    config: PruneConfig,
    index: IndexSpec,
    /// Marks the vertices of `keep` still in the task; all-clear between
    /// roots.
    seen: VertexBitSet,
    /// The root and its candidate vertices, as indices of the working graph.
    keep: Vec<u32>,
    /// Peel state, indexed by working-graph vertex: the number of marked
    /// neighbors of a marked vertex. Only the entries of `keep` are ever
    /// written or read.
    degree: Vec<u32>,
    /// Vertices that fell below `k` and wait to be unmarked.
    stack: Vec<u32>,
    scratch: SubgraphScratch,
}

impl RootTaskBuilder {
    /// A builder of task subgraphs; `index` is their hub-index policy.
    pub fn new(params: MiningParams, config: PruneConfig, index: IndexSpec) -> Self {
        RootTaskBuilder {
            params,
            config,
            index,
            seen: VertexBitSet::default(),
            keep: Vec::new(),
            degree: Vec::new(),
            stack: Vec::new(),
            scratch: SubgraphScratch::default(),
        }
    }

    /// The task subgraph of root `v` of `work`, with `v` at local index 0 and
    /// the other vertices in increasing order of their `work` index, or
    /// `None` when no valid quasi-clique can have `v` as its smallest member.
    ///
    /// The vertices are `v` and every `u > v` reached from `v` in at most two
    /// hops through vertices `> v` — every `u > v` when the diameter rule is
    /// off or γ < ½. When the size-threshold rule is on they are peeled to
    /// their k-core first, on the working graph's own lists; the task is
    /// dropped when that removes `v`, and in any case when fewer than τ_size
    /// vertices remain. Only the survivors are cut out, once.
    pub fn build(&mut self, work: &LocalGraph, v: u32) -> Option<LocalGraph> {
        let survives = self.collect(work, v) && (!self.config.size_threshold || self.peel(work, v));
        self.unmark();
        if !survives {
            return None;
        }
        let mut task = work.induce_from_local(&self.keep, &mut self.scratch);
        task.build_hub_index(self.index);
        Some(task)
    }

    /// Fills `keep` with `v` and its candidate vertices in increasing order
    /// and marks them in `seen`. False when they cannot hold a result: `v`
    /// has too few larger neighbors, or fewer than τ_size were collected.
    fn collect(&mut self, work: &LocalGraph, v: u32) -> bool {
        if self.seen.capacity() != work.capacity() {
            self.seen.reset(work.capacity());
        }
        self.keep.clear();
        self.keep.push(v);
        self.seen.insert(v);
        if self.config.diameter && self.params.gamma.diameter_two_applies() {
            for u in work.neighbors(v) {
                if u > v && self.seen.insert(u) {
                    self.keep.push(u);
                }
            }
            let one_hop = self.keep.len();
            // `v` itself needs k neighbors inside the task, and all of them
            // are first-hop vertices: most roots of a sparse graph end here.
            if self.config.size_threshold && one_hop <= self.params.kcore_threshold() {
                return false;
            }
            for i in 1..one_hop {
                for w in work.neighbors(self.keep[i]) {
                    if w > v && self.seen.insert(w) {
                        self.keep.push(w);
                    }
                }
            }
            self.keep[1..].sort_unstable();
        } else {
            for u in work.vertices().filter(|&u| u > v) {
                self.seen.insert(u);
                self.keep.push(u);
            }
        }
        self.keep.len() >= self.params.min_size
    }

    /// Leaves `seen` all-clear for the next root.
    fn unmark(&mut self) {
        for &u in &self.keep {
            self.seen.remove(u);
        }
    }

    /// Peels the marked vertices to their k-core: unmarks every vertex left
    /// with fewer than `k` marked neighbors and drops it from `keep`. False —
    /// at once, with the marks and `keep` in no particular state — when the
    /// root falls below `k` or fewer than τ_size vertices stay.
    fn peel(&mut self, work: &LocalGraph, v: u32) -> bool {
        let k = u32::try_from(self.params.kcore_threshold()).unwrap_or(u32::MAX);
        let (seen, degree, stack) = (&mut self.seen, &mut self.degree, &mut self.stack);
        if degree.len() < work.capacity() {
            degree.resize(work.capacity(), 0);
        }
        stack.clear();
        // A dead vertex of `work` is never marked, so its list entries count
        // for nothing.
        for &u in &self.keep {
            let marked = work.raw_neighbors(u).iter().filter(|&&w| seen.contains(w));
            degree[u as usize] = marked.count() as u32;
            if degree[u as usize] < k {
                stack.push(u);
            }
        }
        let mut remaining = self.keep.len();
        while let Some(x) = stack.pop() {
            remaining -= 1;
            if x == v || remaining < self.params.min_size {
                return false;
            }
            seen.remove(x);
            for &w in work.raw_neighbors(x) {
                // A vertex is queued exactly once: above if it starts below
                // k, else when this decrement takes it there.
                let d = &mut degree[w as usize];
                if seen.contains(w) && *d >= k {
                    *d -= 1;
                    if *d < k {
                        stack.push(w);
                    }
                }
            }
        }
        self.keep.retain(|&u| seen.contains(u));
        true
    }

    /// The task subgraph as [`RootTaskBuilder::build`] used to cut it: induce
    /// every collected vertex, peel the copy, compact it. The reference the
    /// peel-first build is tested against.
    #[cfg(test)]
    fn build_by_induce_peel_compact(&mut self, work: &LocalGraph, v: u32) -> Option<LocalGraph> {
        let collected = self.collect(work, v);
        self.unmark();
        if !collected {
            return None;
        }
        let k = self.params.kcore_threshold();
        let mut task = work.induce_from_local(&self.keep, &mut self.scratch);
        if self.config.size_threshold && task.shrink_to_k_core(k, &mut self.scratch) > 0 {
            if !task.is_alive(0) || task.num_vertices() < self.params.min_size {
                return None;
            }
            task = task.compact(&mut self.scratch);
        }
        task.build_hub_index(self.index);
        Some(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_graph::{Graph, VertexId};

    fn figure4_work() -> LocalGraph {
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

    fn globals(task: &LocalGraph) -> Vec<u32> {
        (0..task.capacity() as u32)
            .map(|i| task.global_id(i).raw())
            .collect()
    }

    #[test]
    fn root_a_gets_the_dense_region_with_the_root_first() {
        // γ = 0.6, τ_size = 5 → k = 3: the 3-core of a's larger two-hop
        // neighborhood is {a, b, c, d, e}.
        let work = figure4_work();
        let params = MiningParams::new(0.6, 5);
        let mut builder = RootTaskBuilder::new(params, PruneConfig::all_enabled(), IndexSpec::Auto);
        let task = builder.build(&work, 0).expect("root a survives");
        assert_eq!(globals(&task), vec![0, 1, 2, 3, 4]);
        assert_eq!(task.num_vertices(), task.capacity(), "compacted");
        assert_eq!(task.num_edges(), 9);
        assert_eq!(
            task.hub_count(),
            5,
            "a small task graph indexes every vertex"
        );
        // Every later root lacks three larger neighbors or peels away.
        for v in 1..9 {
            assert!(builder.build(&work, v).is_none(), "root {v}");
        }
    }

    #[test]
    fn only_larger_ids_reached_through_larger_ids_are_kept() {
        // k = 1 peels nothing here. d (3) reaches e directly and h, i through
        // each other; a, c are smaller, and nothing else is within two hops
        // through larger ids.
        let work = figure4_work();
        let params = MiningParams::new(0.5, 2);
        let mut builder = RootTaskBuilder::new(params, PruneConfig::all_enabled(), IndexSpec::Auto);
        let task = builder.build(&work, 3).expect("root d survives");
        assert_eq!(globals(&task), vec![3, 4, 7, 8]);
        // f (5) reaches g (6) only; c is smaller.
        let task = builder.build(&work, 5).expect("root f survives");
        assert_eq!(globals(&task), vec![5, 6]);
    }

    #[test]
    fn without_the_diameter_rule_every_larger_vertex_is_kept() {
        let work = figure4_work();
        for (params, config) in [
            // γ < ½: the two-hop property does not hold.
            (MiningParams::new(0.4, 2), PruneConfig::none()),
            (
                MiningParams::new(0.9, 2),
                PruneConfig::all_enabled()
                    .without("diameter")
                    .without("size_threshold"),
            ),
        ] {
            let mut builder = RootTaskBuilder::new(params, config, IndexSpec::Auto);
            let task = builder.build(&work, 4).expect("root e survives");
            assert_eq!(globals(&task), vec![4, 5, 6, 7, 8]);
            // Fewer than τ_size vertices can hold no result.
            assert!(builder.build(&work, 8).is_none());
        }
    }

    #[test]
    fn size_threshold_off_keeps_the_unpeeled_neighborhood() {
        // γ = 0.9, τ_size = 4 → k = 3 would peel f and g away from b's task;
        // without the rule they stay.
        let work = figure4_work();
        let params = MiningParams::new(0.9, 4);
        let config = PruneConfig::all_enabled().without("size_threshold");
        let mut builder = RootTaskBuilder::new(params, config, IndexSpec::Auto);
        let task = builder.build(&work, 1).expect("root b survives");
        assert_eq!(globals(&task), vec![1, 2, 3, 4, 5, 6]);
    }

    /// Peeling the marked vertices on the working graph and cutting out the
    /// survivors gives the graph that inducing everything, peeling the copy
    /// and compacting it gave — and drops exactly the same roots.
    #[test]
    fn peel_first_build_cuts_what_induce_peel_compact_cut() {
        use qcm_gen::planted::{plant_quasi_cliques, PlantedGraphSpec};
        let (mut built, mut dropped, mut shrunk) = (0, 0, 0);
        for seed in 0..4u64 {
            let (graph, _) = plant_quasi_cliques(&PlantedGraphSpec {
                num_vertices: 120,
                background_avg_degree: 5.0,
                background_beta: 2.3,
                background_max_degree: 30.0,
                community_sizes: vec![9, 8, 7],
                community_density: 0.9,
                seed,
            });
            let all: Vec<VertexId> = graph.vertices().collect();
            let work = LocalGraph::from_induced(&graph, &all);
            for gamma in [0.4, 0.6, 0.9] {
                for config in [
                    PruneConfig::all_enabled(),
                    PruneConfig::all_enabled().without("size_threshold"),
                    PruneConfig::all_enabled().without("diameter"),
                    PruneConfig::none(),
                ] {
                    let params = MiningParams::new(gamma, 6);
                    let mut builder = RootTaskBuilder::new(params, config, IndexSpec::Auto);
                    let mut reference = RootTaskBuilder::new(params, config, IndexSpec::Auto);
                    let mut unpeeled = RootTaskBuilder::new(
                        params,
                        config.without("size_threshold"),
                        IndexSpec::Auto,
                    );
                    for v in 0..work.capacity() as u32 {
                        let task = builder.build(&work, v);
                        let expected = reference.build_by_induce_peel_compact(&work, v);
                        assert_eq!(
                            task, expected,
                            "seed {seed}, gamma {gamma}, {config:?}, root {v}"
                        );
                        assert!(builder.seen.is_empty(), "marks left behind by root {v}");
                        match task {
                            Some(task) => {
                                assert_eq!(task.num_vertices(), task.capacity());
                                assert_eq!(task.global_id(0), work.global_id(v));
                                built += 1;
                                let collected = unpeeled.build(&work, v).map(|t| t.capacity());
                                shrunk += usize::from(Some(task.capacity()) < collected);
                            }
                            None => dropped += 1,
                        }
                    }
                }
            }
        }
        // The inputs must exercise every outcome, or the equality is hollow.
        assert!(
            built > 100 && dropped > 100 && shrunk > 20,
            "{built} built, {dropped} dropped, {shrunk} built from a peeled candidate set"
        );
    }
}
