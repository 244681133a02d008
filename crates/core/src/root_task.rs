//! The task subgraph of one root vertex (Algorithms 6–7, serial form).
//!
//! The paper mines each root `v` not on the whole graph but on `t.g`: the
//! k-core of the subgraph induced by `v` and the larger-id vertices within
//! two hops of it. A quasi-clique whose smallest member is `v` lies inside
//! that subgraph — with γ ≥ ½ any two members are within two hops *inside*
//! the quasi-clique (P1), all of whose members have ids ≥ `v`, and every
//! member keeps at least `k = ⌈γ·(τ_size − 1)⌉` neighbors there (P2). The
//! engine's tasks assemble `t.g` from pulled adjacency lists
//! (`qcm_parallel::iterations`); [`RootTaskBuilder`] cuts the same subgraph
//! out of the serial miner's working graph, so the recursion runs in a
//! compact index space of a few hundred vertices where every vertex has a
//! bit row, whatever the size of the input.

use crate::config::PruneConfig;
use crate::params::MiningParams;
use qcm_graph::{IndexSpec, LocalGraph, SubgraphScratch, VertexBitSet};

/// Builds root task subgraphs out of one working graph, reusing its marker
/// set, vertex list and induction buffers from root to root: a root costs
/// `O(its ego-net)`, never `O(|work|)`.
#[derive(Debug)]
pub struct RootTaskBuilder {
    params: MiningParams,
    config: PruneConfig,
    index: IndexSpec,
    /// Marks the vertices collected into `keep`; all-clear between roots.
    seen: VertexBitSet,
    /// The root and its candidate vertices, as indices of the working graph.
    keep: Vec<u32>,
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
            scratch: SubgraphScratch::default(),
        }
    }

    /// The task subgraph of root `v` of `work`, with `v` at local index 0 and
    /// the other vertices in increasing order of their `work` index, or
    /// `None` when no valid quasi-clique can have `v` as its smallest member.
    ///
    /// The vertices are `v` and every `u > v` reached from `v` in at most two
    /// hops through vertices `> v` — every `u > v` when the diameter rule is
    /// off or γ < ½. When the size-threshold rule is on the induced subgraph
    /// is peeled to its k-core; the task is dropped when that removes `v`, and
    /// in any case when fewer than τ_size vertices remain.
    pub fn build(&mut self, work: &LocalGraph, v: u32) -> Option<LocalGraph> {
        let k = self.params.kcore_threshold();
        self.keep.clear();
        self.keep.push(v);
        if self.config.diameter && self.params.gamma.diameter_two_applies() {
            if self.seen.capacity() != work.capacity() {
                self.seen.reset(work.capacity());
            }
            self.seen.insert(v);
            for u in work.neighbors(v) {
                if u > v && self.seen.insert(u) {
                    self.keep.push(u);
                }
            }
            let one_hop = self.keep.len();
            // `v` itself needs k neighbors inside the task, and all of them
            // are first-hop vertices: most roots of a sparse graph end here.
            let root_can_survive = !self.config.size_threshold || one_hop > k;
            if root_can_survive {
                for i in 1..one_hop {
                    for w in work.neighbors(self.keep[i]) {
                        if w > v && self.seen.insert(w) {
                            self.keep.push(w);
                        }
                    }
                }
            }
            for &u in &self.keep {
                self.seen.remove(u);
            }
            if !root_can_survive {
                return None;
            }
            self.keep[1..].sort_unstable();
        } else {
            self.keep.extend(work.vertices().filter(|&u| u > v));
        }
        if self.keep.len() < self.params.min_size {
            return None;
        }
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
}
