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
//!
//! A root costs something only if it can hold a result. The builder walks
//! the working graph's suffix cores ([`SuffixCores`]) and visits only the
//! roots `v` that lie in their own, `C_v`, the k-core of `G[{u ≥ v}]`: any
//! other root's `t.g` peels away. It then collects and peels inside `C_v`,
//! which changes no task, because the k-core of every subgraph of
//! `G[{u ≥ v}]` lies inside `C_v`. The walk and the task peel are both the
//! one k-core cascade of the workspace, [`Peel`].

use crate::config::PruneConfig;
use crate::params::MiningParams;
use qcm_graph::kcore::PEELED;
use qcm_graph::{IndexSpec, LocalGraph, Peel, SubgraphScratch, SuffixCores};

/// Builds the root task subgraphs of one working graph, root by root in id
/// order, reusing its peel, vertex list and induction buffers from root to
/// root: a root costs `O(its ego-net)`, never `O(|work|)`, and a vertex
/// outside its suffix core costs only its share of the `O(V + E)` suffix
/// walk.
#[derive(Debug)]
pub struct RootTaskBuilder<'w> {
    work: &'w LocalGraph,
    params: MiningParams,
    config: PruneConfig,
    /// The suffix core of the current root; every vertex is a root without
    /// the size-threshold rule.
    suffix: SuffixCores,
    /// The peel of the current root's task, over working-graph vertices: in
    /// are the vertices of `keep` still in the task; all out between roots.
    task: Peel,
    /// The root and its candidate vertices, as indices of the working graph.
    keep: Vec<u32>,
    scratch: SubgraphScratch,
}

impl<'w> RootTaskBuilder<'w> {
    /// A builder of the task subgraphs of `work`, the k-core of the input
    /// (every vertex of it without the size-threshold rule). Every task
    /// carries [`IndexSpec::Auto`] rows, the policy [`LocalGraph`] picks from
    /// the task's size.
    pub fn new(work: &'w LocalGraph, params: MiningParams, config: PruneConfig) -> Self {
        let k = config.peel_threshold(&params);
        let degrees = (0..work.capacity() as u32).map(|v| work.degree(v) as u32);
        RootTaskBuilder {
            work,
            params,
            config,
            suffix: SuffixCores::over(Peel::new(degrees.collect(), k)),
            task: Peel::new(vec![PEELED; work.capacity()], k),
            keep: Vec::new(),
            scratch: SubgraphScratch::default(),
        }
    }

    /// Moves on to the next root in id order that lies in its own suffix
    /// core, and returns it; `None` when no root is left.
    pub fn next_root(&mut self) -> Option<u32> {
        let work = self.work;
        self.suffix.next_root(|v| work.neighbors(v).iter().copied())
    }

    /// The task subgraph of the current root `v` (the last
    /// [`RootTaskBuilder::next_root`]), with `v` at local index 0 and the
    /// other vertices in increasing order of their `work` index, or `None`
    /// when no valid quasi-clique can have `v` as its smallest member.
    ///
    /// The vertices are `v` and every `u > v` of `C_v` reached from `v` in at
    /// most two hops through vertices `> v` — every `u > v` of `C_v` when the
    /// diameter rule is off or γ < ½. They are peeled to their k-core first,
    /// on the working graph's own lists; the task is dropped when that
    /// removes `v`, and in any case when fewer than τ_size vertices remain.
    /// Only the survivors are cut out, once.
    pub fn build(&mut self, v: u32) -> Option<LocalGraph> {
        debug_assert!(self.suffix.contains(v), "{v} is outside the suffix core");
        let survives = self.collect(v) && self.shrink(v);
        for &u in &self.keep {
            self.task.set(u, PEELED);
        }
        if !survives {
            return None;
        }
        let mut task = self.work.induce_from_local(&self.keep, &mut self.scratch);
        task.build_hub_index(IndexSpec::Auto);
        Some(task)
    }

    /// Fills `keep` with `v` and its candidate vertices in increasing order
    /// and puts them in the task. False when fewer than τ_size were
    /// collected.
    fn collect(&mut self, v: u32) -> bool {
        let (work, suffix) = (self.work, &self.suffix);
        let (task, keep) = (&mut self.task, &mut self.keep);
        keep.clear();
        keep.push(v);
        task.set(v, 0);
        // `C_v` holds no vertex below `v`, and `v` is in already.
        let mut take = |u: u32| {
            if suffix.contains(u) && !task.contains(u) {
                task.set(u, 0);
                keep.push(u);
            }
        };
        if self.config.diameter && self.params.gamma.diameter_two_applies() {
            let larger = |u: u32| {
                let adj = work.neighbors(u);
                &adj[adj.partition_point(|&w| w <= v)..]
            };
            // A second hop may pass through a first-hop vertex outside
            // `C_v`: the vertex it reaches can still be in the task's core.
            for &u in larger(v) {
                take(u);
                larger(u).iter().for_each(|&w| take(w));
            }
            keep[1..].sort_unstable();
        } else {
            (v + 1..work.capacity() as u32).for_each(take);
        }
        self.keep.len() >= self.params.min_size
    }

    /// Peels the task to its k-core and drops the vertices that fell from
    /// `keep`. False — at once, with the task and `keep` in no particular
    /// state — when the root falls or fewer than τ_size vertices stay.
    fn shrink(&mut self, v: u32) -> bool {
        let (work, task) = (self.work, &mut self.task);
        for &u in &self.keep {
            let inside = work.neighbors(u).iter().filter(|&&w| task.contains(w));
            task.set(u, inside.count() as u32);
        }
        task.seed(self.keep.iter().copied());
        let mut remaining = self.keep.len();
        while let Some(x) = task.pop(|x| work.neighbors(x).iter().copied()) {
            remaining -= 1;
            if x == v || remaining < self.params.min_size {
                return false;
            }
        }
        self.keep.retain(|&u| task.contains(u));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_gen::planted::{plant_quasi_cliques, PlantedGraphSpec};
    use qcm_gen::powerlaw::power_law_graph;
    use qcm_graph::kcore::k_core_vertices;
    use qcm_graph::subgraph::induced_subgraph;
    use qcm_graph::{Graph, VertexId};

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

    /// The working graph `SerialMiner` builds from `g`: its k-core, or all of
    /// it without the size-threshold rule.
    fn work_of(g: &Graph, params: MiningParams, config: PruneConfig) -> LocalGraph {
        let k = config.peel_threshold(&params);
        LocalGraph::from_induced(g, &k_core_vertices(g, k))
    }

    /// Every root the builder visits, as its id in `g`, with what it built.
    fn root_tasks(
        g: &Graph,
        params: MiningParams,
        config: PruneConfig,
    ) -> Vec<(u32, Option<Vec<u32>>)> {
        let work = work_of(g, params, config);
        let mut builder = RootTaskBuilder::new(&work, params, config);
        let mut tasks = Vec::new();
        while let Some(v) = builder.next_root() {
            let task = builder.build(v);
            let marked = (0..work.capacity() as u32).find(|&u| builder.task.contains(u));
            assert_eq!(marked, None, "marks left behind by root {v}");
            let globals = task.map(|t| t.global_ids().iter().map(|u| u.raw()).collect());
            tasks.push((work.global_id(v).raw(), globals));
        }
        tasks
    }

    #[test]
    fn root_a_gets_the_dense_region_with_the_root_first() {
        // γ = 0.6, τ_size = 5 → k = 3: the 3-core of a's larger two-hop
        // neighborhood is {a, b, c, d, e}, and a is the only root whose
        // suffix core is not empty.
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let config = PruneConfig::all_enabled();
        assert_eq!(
            root_tasks(&g, params, config),
            vec![(0, Some(vec![0, 1, 2, 3, 4]))]
        );
        let work = work_of(&g, params, config);
        let mut builder = RootTaskBuilder::new(&work, params, config);
        let task = builder.next_root().and_then(|v| builder.build(v)).unwrap();
        assert_eq!(task.num_edges(), 9);
        assert_eq!(
            task.hub_count(),
            5,
            "a small task graph indexes every vertex"
        );
    }

    #[test]
    fn only_larger_ids_reached_through_larger_ids_are_kept() {
        // k = 1 peels nothing here. d (3) reaches e directly and h, i through
        // each other; a, c are smaller, and nothing else is within two hops
        // through larger ids. f (5) reaches g (6) only; c is smaller. e, g
        // and i have no larger neighbour, so their suffix cores lost them.
        let g = figure4();
        let tasks = root_tasks(&g, MiningParams::new(0.5, 2), PruneConfig::all_enabled());
        let roots: Vec<u32> = tasks.iter().map(|(v, _)| *v).collect();
        assert_eq!(roots, [0, 1, 2, 3, 5, 7]);
        assert_eq!(tasks[3].1, Some(vec![3, 4, 7, 8]));
        assert_eq!(tasks[4].1, Some(vec![5, 6]));
    }

    #[test]
    fn without_the_diameter_rule_every_larger_vertex_is_kept() {
        let g = figure4();
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
            let tasks = root_tasks(&g, params, config);
            // Without the size-threshold rule every vertex is a root.
            assert_eq!(tasks.len(), 9);
            assert_eq!(tasks[4].1, Some(vec![4, 5, 6, 7, 8]));
            // Fewer than τ_size vertices can hold no result.
            assert_eq!(tasks[8].1, None);
        }
    }

    #[test]
    fn size_threshold_off_keeps_the_unpeeled_neighborhood() {
        // γ = 0.9, τ_size = 4 → k = 3 would peel f and g away from b's task;
        // without the rule they stay.
        let g = figure4();
        let params = MiningParams::new(0.9, 4);
        let config = PruneConfig::all_enabled().without("size_threshold");
        let tasks = root_tasks(&g, params, config);
        assert_eq!(tasks[1], (1, Some(vec![1, 2, 3, 4, 5, 6])));
    }

    /// The task the serial miner cut before it walked suffix cores, computed
    /// on a plain [`Graph`]: collect `v` and its larger two-hop neighborhood
    /// (every larger vertex without the diameter rule), induce it, peel the
    /// copy to its k-core, and keep the survivors when `v` is one of them and
    /// there are τ_size of them.
    fn induce_and_peel(
        g: &Graph,
        v: VertexId,
        params: MiningParams,
        config: PruneConfig,
    ) -> Option<LocalGraph> {
        let larger = |u: VertexId| {
            let adj = g.neighbors(u);
            &adj[adj.partition_point(|&w| w <= v)..]
        };
        let mut collected: Vec<VertexId> = if config.diameter && params.gamma.diameter_two_applies()
        {
            let two_hops = larger(v)
                .iter()
                .flat_map(|&u| larger(u).iter().copied().chain([u]));
            two_hops.collect()
        } else {
            g.vertices().filter(|&u| u > v).collect()
        };
        collected.push(v);
        collected.sort_unstable();
        collected.dedup();
        if config.size_threshold {
            let (sub, mapping) = induced_subgraph(g, &collected);
            let core = k_core_vertices(&sub, params.kcore_threshold());
            if core.first() != Some(&VertexId::new(0)) {
                return None;
            }
            collected = core.iter().map(|u| mapping[u.index()]).collect();
        }
        (collected.len() >= params.min_size).then(|| LocalGraph::from_induced(g, &collected))
    }

    /// Walking the suffix cores changes no task: every root the reference
    /// builds a task for is visited, and every visited root gets exactly the
    /// reference's task, on planted and power-law graphs at every γ ≥ ½ and
    /// several τ_size.
    #[test]
    fn suffix_root_builds_equal_the_induce_and_peel_reference() {
        let (mut built, mut skipped) = (0, 0);
        for seed in 0..3u64 {
            let (planted, _) = plant_quasi_cliques(&PlantedGraphSpec {
                num_vertices: 150,
                background_avg_degree: 6.0,
                background_beta: 2.3,
                background_max_degree: 40.0,
                community_sizes: vec![12, 10, 9, 8],
                community_density: 0.9,
                seed,
            });
            let power_law = power_law_graph(200, 8.0, 2.2, 60.0, seed);
            for graph in [&planted, &power_law] {
                for gamma in [0.5, 0.6, 0.8, 0.9, 1.0] {
                    for min_size in [4, 6, 9] {
                        for config in [
                            PruneConfig::all_enabled(),
                            PruneConfig::all_enabled().without("diameter"),
                        ] {
                            let params = MiningParams::new(gamma, min_size);
                            let k = params.kcore_threshold();
                            let core = k_core_vertices(graph, k);
                            let (g, _) = induced_subgraph(graph, &core);
                            let all: Vec<VertexId> = g.vertices().collect();
                            let work = LocalGraph::from_induced(&g, &all);
                            let mut builder = RootTaskBuilder::new(&work, params, config);
                            let mut next = builder.next_root();
                            for v in g.vertices() {
                                let expected = induce_and_peel(&g, v, params, config);
                                let case = format!(
                                    "seed {seed}, γ {gamma}, τ {min_size}, {config:?}, root {v}"
                                );
                                if next != Some(v.raw()) {
                                    assert_eq!(expected, None, "{case}: not a suffix root");
                                    let larger = g.neighbors(v).iter().filter(|&&u| u > v);
                                    skipped += usize::from(larger.count() >= k);
                                    continue;
                                }
                                let task = builder.build(v.raw());
                                assert_eq!(task, expected, "{case}");
                                built += usize::from(task.is_some());
                                next = builder.next_root();
                            }
                            assert_eq!(next, None);
                        }
                    }
                }
            }
        }
        // Both outcomes must be common, or the equality is hollow: roots
        // built, and roots the engine's spawn test alone would have let
        // through (k larger neighbours) that the walk skips.
        assert!(
            built > 100 && skipped > 100,
            "{built} built, {skipped} skipped"
        );
    }
}
