//! The build iterations of the quasi-clique compute UDF (Algorithms 6–7):
//! a task's rounds of [`TaskAssembly`], driven through the engine's pulls.
//!
//! The assembly is `qcm-core`'s, the one the serial miner drives
//! synchronously; what the engine adds is the parking. Between two rounds a
//! task waits in queues, on disk or in a steal grant, so each iteration
//! resumes the worker's assembly from the task — the rounds fed so far, the
//! graph the last one carried, the vertices it named — feeds it the pulled
//! frontier, and either parks the task again with the next pulls or hands it
//! its final `t.g` and the candidate `⟨S = {v}, ext(S) = V(t.g) − v⟩`.

use crate::task::{Frontier, QCTask, TaskPhase};
use qcm_core::{Step, TaskAssembly};

/// One build iteration of `task` over `frontier`, the lists of its
/// `pull_targets`. Returns `false` when the task can terminate (it can hold
/// no result), `true` when it goes on: with new pulls, or in the mine phase,
/// which pulls nothing and runs right away (the paper's "G-thinker will
/// schedule t to run Iteration 3 right away").
pub(crate) fn build_round(
    task: &mut QCTask,
    frontier: &Frontier,
    assembly: &mut TaskAssembly,
) -> bool {
    let TaskPhase::Build(rounds) = task.phase else {
        unreachable!("a task in the mine phase is built already");
    };
    assembly.resume(task.root, rounds, &task.subgraph, &task.pull_targets);
    match assembly.feed(frontier.iter()) {
        Step::Need(pulls) => {
            task.subgraph = assembly.suspend();
            task.pull_targets = pulls;
            task.phase = TaskPhase::Build(rounds + 1);
            true
        }
        Step::Done(Some(subgraph)) => {
            task.s = vec![0];
            task.ext = (1..subgraph.capacity() as u32).collect();
            task.subgraph = subgraph;
            task.pull_targets.clear();
            task.phase = TaskPhase::Mine;
            true
        }
        Step::Done(None) => {
            task.pull_targets.clear();
            false
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::app::QuasiCliqueApp;
    use crate::reference::{self, RefTask};
    use crate::task::{TaskCodec, WorkerScratch};
    use proptest::prelude::*;
    use qcm_core::{CoreNumbering, MiningParams, PruneConfig};
    use qcm_gen::planted::{plant_quasi_cliques, PlantedGraphSpec};
    use qcm_gen::powerlaw::power_law_graph;
    use qcm_graph::kcore::ks_core;
    use qcm_graph::{Graph, VertexId};
    use qcm_sync::Arc;
    use std::time::Duration;

    pub(crate) use qcm_gen::datasets::figure4;

    fn v(id: u32) -> VertexId {
        VertexId::new(id)
    }

    /// The global ids behind local indices of the task's subgraph.
    pub(crate) fn globals(task: &QCTask, locals: &[u32]) -> Vec<VertexId> {
        locals.iter().map(|&i| task.subgraph.global_id(i)).collect()
    }

    /// Builds a frontier holding Γ(u) for each requested vertex.
    pub(crate) fn frontier_for(g: &Graph, pulls: &[VertexId]) -> Frontier {
        let mut f = Frontier::new();
        for &u in pulls {
            f.insert(u, Arc::new(g.neighbors(u).to_vec()));
        }
        f
    }

    /// An assembly for tasks of `params` on `g`, every vertex with a
    /// neighbour numbered, as a run numbers the graph it mines.
    pub(crate) fn assembly_for(g: &Graph, params: MiningParams) -> TaskAssembly {
        let held: Vec<VertexId> = g.vertices().filter(|&u| g.degree(u) > 0).collect();
        let core = Arc::new(CoreNumbering::new(held));
        TaskAssembly::new(params, &PruneConfig::all_enabled(), core)
    }

    /// The task `app` spawns from `root` on `g`, after every build iteration,
    /// each parked task passed through the codec; `None` if it terminates.
    fn drive(
        app: &QuasiCliqueApp,
        scratch: &mut WorkerScratch,
        g: &Graph,
        root: VertexId,
    ) -> Option<QCTask> {
        let mut task = app.spawn(root, g.neighbors(root));
        while task.phase != TaskPhase::Mine {
            let frontier = frontier_for(g, &task.pull_targets);
            let (goes_on, _) = app.compute(&mut task, &frontier, scratch);
            if !goes_on {
                return None;
            }
            let mut bytes = Vec::new();
            task.encode(&mut bytes);
            task = QCTask::decode(&mut bytes.as_slice()).expect("a parked task decodes");
        }
        Some(task)
    }

    /// The task built from `root` through the build iterations, if it
    /// survives them.
    pub(crate) fn build_task(g: &Graph, root: u32, params: MiningParams) -> Option<QCTask> {
        let app = QuasiCliqueApp::new(params, 100, Duration::ZERO);
        let mut scratch = WorkerScratch::building(assembly_for(g, params));
        drive(&app, &mut scratch, g, v(root))
    }

    #[test]
    fn vertex_a_task_covers_the_dense_region() {
        // γ = 0.6, τ_size = 5 → k = ⌈0.6·4⌉ = 3. The task spawned from a must
        // end with subgraph {a, b, c, d, e} (the only 3-core among larger-id
        // vertices reachable within 2 hops).
        let g = figure4();
        let task = build_task(&g, 0, MiningParams::new(0.6, 5)).expect("task for a must survive");
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
        let params = MiningParams::new(0.6, 5);
        assert!(build_task(&g, 5, params).is_none());
        // Vertex i (8) has no larger neighbor at all: spawn would create a
        // task whose first iteration kills it.
        assert!(build_task(&g, 8, params).is_none());
    }

    #[test]
    fn later_roots_only_see_larger_vertices() {
        // The task spawned from c (2) must not contain a (0) or b (1) even
        // though they are adjacent — smaller ids belong to other tasks.
        let g = figure4();
        let task = build_task(&g, 2, MiningParams::new(0.5, 3)).expect("c, d, e and more");
        assert!(task.subgraph.global_ids().iter().all(|u| u.raw() >= 2));
    }

    #[test]
    fn root_without_enough_larger_neighbors_terminates() {
        // With k = 3, vertex b (1) has only two larger-id neighbors that could
        // ever support it (c and e — f has degree 2 < 3), so the k-core peel
        // of the first iteration removes b and the task ends: a quasi-clique
        // whose *smallest* member is b would need b to have ≥ 3 larger
        // neighbors.
        let g = figure4();
        assert!(build_task(&g, 1, MiningParams::new(0.6, 5)).is_none());
        // With k = 2 the same root survives; every kept vertex has id ≥ b.
        let task = build_task(&g, 1, MiningParams::new(0.5, 4)).expect("b, c, e and more");
        assert!(task.subgraph.global_ids().iter().all(|u| u.raw() >= 1));
    }

    #[test]
    fn second_hop_pull_targets_exclude_one_hop_vertices() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let mut task = QCTask::spawned(v(0), g.neighbors(v(0)).to_vec());
        let f1 = frontier_for(&g, &task.pull_targets);
        assert!(build_round(&mut task, &f1, &mut assembly_for(&g, params)));
        assert_eq!(task.phase, TaskPhase::Build(1));
        assert!(!task.pull_targets.is_empty());
        for w in &task.pull_targets {
            assert!(f1.get(*w).is_none());
            assert!(*w > v(0));
        }
    }

    /// Runs the reference and the engine's build iterations side by side on
    /// the task of every vertex of `g` and compares them after each round.
    /// A vertex the k-core's suffix walk does not list as a root must get no
    /// task of τ_size vertices from the reference either. Returns how many tasks
    /// reached the mine phase.
    fn compare_with_reference(g: &Graph, params: MiningParams) -> Result<usize, String> {
        let k = params.kcore_threshold();
        let roots = ks_core(g, k.max(1), 0).roots;
        let mut assembly = assembly_for(g, params);
        let mut ready = 0;
        for root in g.vertices() {
            let larger = &g.neighbors(root)[g.neighbors(root).partition_point(|&u| u <= root)..];
            let mut old = RefTask::spawned(root, larger.to_vec());
            let mut new = QCTask::spawned(root, larger.to_vec());
            let f1 = frontier_for(g, &new.pull_targets);
            let goes_on = reference::iteration_1(&mut old, &f1, k);
            prop_assert_eq!(
                build_round(&mut new, &f1, &mut assembly),
                goes_on,
                "root {}",
                root
            );
            if !goes_on {
                continue;
            }
            // Vertex set and edge set at once: the reference's conversion
            // keeps the edges between its vertices, which is all the carried
            // graph holds.
            prop_assert_eq!(
                &new.subgraph,
                &old.subgraph.to_local_graph().0,
                "root {}",
                root
            );
            prop_assert_eq!(&new.pull_targets, &old.pull_targets, "root {}", root);
            prop_assert_eq!(new.phase, old.phase);

            let f2 = frontier_for(g, &new.pull_targets);
            let built =
                reference::iteration_2(&mut old, &f2, k).then(|| old.subgraph.to_local_graph().0);
            let small = built
                .as_ref()
                .map_or(true, |graph| graph.capacity() < params.min_size);
            let listed = roots.binary_search(&root).is_ok();
            prop_assert!(listed || small, "unlisted root {} has a task", root);
            let goes_on = build_round(&mut new, &f2, &mut assembly);
            prop_assert_eq!(goes_on, built.is_some(), "root {}", root);
            if !goes_on {
                continue;
            }
            prop_assert_eq!(Some(&new.subgraph), built.as_ref(), "root {}", root);
            prop_assert_eq!(globals(&new, &new.s), old.s, "root {}", root);
            prop_assert_eq!(globals(&new, &new.ext), old.ext, "root {}", root);
            prop_assert_eq!(&new.pull_targets, &old.pull_targets);
            prop_assert_eq!(new.phase, old.phase);
            ready += 1;
        }
        Ok(ready)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The engine's build iterations and the global-id `TaskGraph`
        /// reference of Algorithms 6–7 agree on every vertex of planted and
        /// power-law graphs, on the raw input (low-degree first-hop
        /// vertices, peels in both iterations) for every γ ≥ ½ and τ_size.
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
                    ready += compare_with_reference(g, MiningParams::new(gamma, min_size))?;
                }
                prop_assert!(ready > 0, "no task of the graph was built to the end");
            }
        }
    }
}
