//! Engine integration tests with a synthetic application.
//!
//! The app used here ("neighborhood summer") is deliberately trivial so the
//! tests isolate the *engine's* behaviour: spawning, the big/small task
//! routing, pull resolution through the vertex table and cache, recursive
//! task decomposition, disk spilling under tiny queue capacities, multi-machine
//! stealing, and clean termination. The quasi-clique application is tested
//! separately in `qcm-parallel` and the cross-crate suites.

use qcm_engine::codec::{put_u32, put_vertices, take_u32, take_vertices};
use qcm_engine::{
    Cluster, ComputeContext, EngineConfig, Frontier, GThinkerApp, SimCluster, SimConfig, TaskCodec,
    TaskLabel,
};
use qcm_graph::{Graph, VertexId};
use qcm_sync::Arc;
use std::time::Duration;

/// A task that, spawned from vertex `v`, pulls Γ(v), emits one "result" row
/// `[v, |Γ(v)| as id]`, and for hub vertices decomposes into one child task
/// per neighbor (children emit `[v, u]` rows).
#[derive(Clone, Debug, PartialEq)]
struct SumTask {
    root: VertexId,
    /// Vertices still to pull (empty after the first compute call).
    pulls: Vec<VertexId>,
    /// Children decompose from these.
    fanout: Vec<VertexId>,
    /// 0 = root iteration pending, 1 = child task.
    phase: u32,
}

impl TaskCodec for SumTask {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.root.raw());
        put_vertices(buf, &self.pulls);
        put_vertices(buf, &self.fanout);
        put_u32(buf, self.phase);
    }
    fn decode(data: &mut &[u8]) -> Option<Self> {
        Some(SumTask {
            root: VertexId::new(take_u32(data)?),
            pulls: take_vertices(data)?,
            fanout: take_vertices(data)?,
            phase: take_u32(data)?,
        })
    }
}

/// The synthetic application. `hub_threshold` controls which tasks decompose
/// (and count as "big").
struct SummerApp {
    hub_threshold: usize,
}

impl GThinkerApp for SummerApp {
    type Task = SumTask;

    fn spawn(&self, v: VertexId, adj: &[VertexId], ctx: &mut ComputeContext<Self::Task>) {
        ctx.add_task(SumTask {
            root: v,
            pulls: adj.to_vec(),
            fanout: Vec::new(),
            phase: 0,
        });
    }

    fn pending_pulls<'t>(&self, task: &'t Self::Task) -> &'t [VertexId] {
        &task.pulls
    }

    fn compute(
        &self,
        task: &mut Self::Task,
        frontier: &Frontier,
        ctx: &mut ComputeContext<Self::Task>,
    ) -> bool {
        if task.phase == 0 {
            // Root iteration: every pulled vertex must be present.
            assert_eq!(frontier.len(), task.pulls.len());
            for v in &task.pulls {
                assert!(frontier.get(*v).is_some(), "missing pulled vertex {v}");
            }
            ctx.emit(vec![task.root, VertexId::new(task.pulls.len() as u32)]);
            if task.pulls.len() >= self.hub_threshold {
                for &u in &task.pulls {
                    ctx.add_task(SumTask {
                        root: task.root,
                        pulls: Vec::new(),
                        fanout: vec![u],
                        phase: 1,
                    });
                }
            }
            task.pulls.clear();
            false
        } else {
            ctx.emit(vec![task.root, task.fanout[0]]);
            false
        }
    }

    fn is_big(&self, task: &Self::Task) -> bool {
        task.phase == 0 && task.pulls.len() >= self.hub_threshold
    }

    fn task_memory_bytes(&self, task: &Self::Task) -> usize {
        32 + 4 * (task.pulls.len() + task.fanout.len())
    }

    fn task_label(&self, task: &Self::Task) -> TaskLabel {
        TaskLabel {
            root: Some(task.root),
            subgraph_size: task.pulls.len().max(task.fanout.len()),
        }
    }
}

/// A star graph: vertex 0 is a hub adjacent to all others, plus a sparse ring.
fn star_with_ring(n: usize) -> Arc<Graph> {
    let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
    for i in 1..n as u32 {
        let j = if i + 1 < n as u32 { i + 1 } else { 1 };
        edges.push((i, j));
    }
    Arc::new(Graph::from_edges(n, edges).unwrap())
}

fn every_vertex(g: &Graph) -> Vec<VertexId> {
    g.vertices().collect()
}

fn expected_rows(g: &Graph, hub_threshold: usize) -> usize {
    rows_spawned_by(g, &every_vertex(g), hub_threshold)
}

/// One row per spawned vertex plus one per neighbor of every spawned hub.
fn rows_spawned_by(g: &Graph, spawned: &[VertexId], hub_threshold: usize) -> usize {
    spawned
        .iter()
        .map(|&v| {
            let d = g.degree(v);
            1 + if d >= hub_threshold { d } else { 0 }
        })
        .sum()
}

#[test]
fn single_machine_processes_every_vertex() {
    let g = star_with_ring(64);
    let app = Arc::new(SummerApp { hub_threshold: 16 });
    let cluster = Cluster::new(app, EngineConfig::single_machine(4));
    let out = cluster.run(g.clone(), every_vertex(&g));
    assert_eq!(out.results.len(), expected_rows(&g, 16));
    assert_eq!(out.metrics.tasks_spawned, 64);
    assert_eq!(
        out.metrics.tasks_processed,
        64 + g.degree(VertexId::new(0)) as u64
    );
    assert_eq!(
        out.metrics.tasks_decomposed,
        g.degree(VertexId::new(0)) as u64
    );
    assert!(out.metrics.peak_task_bytes > 0);
    assert!(out.metrics.worker_busy.len() == 4);
}

#[test]
fn results_are_identical_across_thread_counts() {
    let g = star_with_ring(80);
    let mut reference: Option<Vec<Vec<VertexId>>> = None;
    for threads in [1, 2, 8] {
        let app = Arc::new(SummerApp { hub_threshold: 10 });
        let cluster = Cluster::new(app, EngineConfig::single_machine(threads));
        let mut rows = cluster.run(g.clone(), every_vertex(&g)).results;
        rows.sort();
        match &reference {
            None => reference = Some(rows),
            Some(r) => assert_eq!(&rows, r, "thread count {threads} changed the results"),
        }
    }
}

#[test]
fn multi_machine_run_steals_and_matches_single_machine() {
    let g = star_with_ring(200);
    let single = {
        let app = Arc::new(SummerApp { hub_threshold: 8 });
        let mut rows = Cluster::new(app, EngineConfig::single_machine(2))
            .run(g.clone(), every_vertex(&g))
            .results;
        rows.sort();
        rows
    };
    let app = Arc::new(SummerApp { hub_threshold: 8 });
    let mut config = EngineConfig::cluster(4, 2);
    config.balance_period = Duration::from_millis(1);
    let out = Cluster::new(app, config).run(g.clone(), every_vertex(&g));
    let mut rows = out.results;
    rows.sort();
    assert_eq!(rows, single);
    // With 4 machines, remote vertices must have been fetched.
    assert!(out.metrics.remote_fetches + out.metrics.cache_hits > 0);
}

#[test]
fn tiny_queues_force_spilling_without_losing_tasks() {
    let g = star_with_ring(300);
    let app = Arc::new(SummerApp { hub_threshold: 4 });
    let mut config = EngineConfig::single_machine(2);
    config.batch_size = 2;
    config.local_capacity = 2;
    config.global_queue_capacity = 2;
    config.spill_dir =
        Some(std::env::temp_dir().join(format!("qcm_engine_spill_test_{}", std::process::id())));
    let out = Cluster::new(app, config.clone()).run(g.clone(), every_vertex(&g));
    assert_eq!(out.results.len(), expected_rows(&g, 4));
    assert!(
        out.metrics.spill_bytes_written > 0,
        "tiny queues must trigger spilling"
    );
    assert_eq!(
        out.metrics.spill_bytes_written, out.metrics.spill_bytes_read,
        "every spilled byte must be read back"
    );
    if let Some(dir) = &config.spill_dir {
        // All spill files cleaned up after the run.
        let leftover = std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(leftover, 0);
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn tiny_vertex_cache_still_produces_correct_results() {
    let g = star_with_ring(150);
    let app = Arc::new(SummerApp { hub_threshold: 6 });
    let mut config = EngineConfig::cluster(3, 2);
    config.vertex_cache_capacity = 1;
    config.balance_period = Duration::from_millis(1);
    let out = Cluster::new(app, config).run(g.clone(), every_vertex(&g));
    assert_eq!(out.results.len(), expected_rows(&g, 6));
    assert!(out.metrics.cache_evictions > 0 || out.metrics.remote_fetches > 0);
}

#[test]
fn empty_graph_terminates_immediately() {
    let g = Arc::new(Graph::empty(0));
    let app = Arc::new(SummerApp { hub_threshold: 4 });
    let out = Cluster::new(app, EngineConfig::single_machine(3)).run(g, Vec::new());
    assert!(out.results.is_empty());
    assert_eq!(out.metrics.tasks_processed, 0);
}

#[test]
fn per_task_time_log_covers_all_tasks() {
    let g = star_with_ring(50);
    let app = Arc::new(SummerApp { hub_threshold: 10 });
    let out = Cluster::new(app, EngineConfig::single_machine(2)).run(g.clone(), every_vertex(&g));
    assert_eq!(
        out.metrics.task_times.len() as u64,
        out.metrics.tasks_processed
    );
    // Every record carries a root label and the per-root aggregation includes
    // the hub.
    let roots = out.metrics.per_root_totals();
    assert!(roots.iter().any(|(v, _, _)| *v == VertexId::new(0)));
    let top = out.metrics.top_k_task_times(5);
    assert!(top.len() <= 5);
}

#[test]
fn cancelled_run_drains_workers_and_labels_the_metrics() {
    use qcm_core::{CancelToken, RunOutcome};

    let g = star_with_ring(50);
    let app = Arc::new(SummerApp { hub_threshold: 10 });
    let token = CancelToken::new();
    token.cancel();
    let config = EngineConfig::single_machine(3).with_cancel(token);
    let out = Cluster::new(app.clone(), config).run(g.clone(), every_vertex(&g));
    assert_eq!(out.metrics.outcome, RunOutcome::Cancelled);
    assert!(out.results.len() <= expected_rows(&g, 10));

    // A zero deadline is labelled DeadlineExceeded; an unfired token completes.
    let token = CancelToken::never().with_deadline(Some(Duration::ZERO));
    let config = EngineConfig::single_machine(3).with_cancel(token);
    let out = Cluster::new(app.clone(), config).run(g.clone(), every_vertex(&g));
    assert_eq!(out.metrics.outcome, RunOutcome::DeadlineExceeded);

    let out = Cluster::new(app, EngineConfig::single_machine(3)).run(g.clone(), every_vertex(&g));
    assert_eq!(out.metrics.outcome, RunOutcome::Complete);
    assert_eq!(out.results.len(), expected_rows(&g, 10));
}

/// The live cluster and the fault simulator drive the same per-machine
/// protocol: with no fault injected they must agree on the result multiset
/// and on how many tasks were spawned, processed and decomposed. The
/// `fault-matrix` CI job runs this next to every scenario cell, so each cell
/// proves the matrix exercises the shipping core.
#[test]
fn live_and_simulated_clusters_agree_without_faults() {
    use qcm_core::RunOutcome;

    let g = star_with_ring(120);
    let app = Arc::new(SummerApp { hub_threshold: 8 });
    // Tiny queues, so both drivers also go through the spill/refill path.
    let mut config = EngineConfig::cluster(3, 1);
    config.batch_size = 2;
    config.local_capacity = 2;
    config.global_queue_capacity = 2;

    let live = Cluster::new(app.clone(), config.clone()).run(g.clone(), every_vertex(&g));
    let sim = SimCluster::new(app, config, SimConfig::new(7)).run(g.clone(), every_vertex(&g));
    assert_eq!(live.metrics.outcome, RunOutcome::Complete);
    assert_eq!(sim.outcome, RunOutcome::Complete);

    let (mut live_rows, mut sim_rows) = (live.results, sim.results);
    live_rows.sort();
    sim_rows.sort();
    assert_eq!(live_rows.len(), expected_rows(&g, 8));
    assert_eq!(live_rows, sim_rows, "result multisets differ");
    for (name, l, s) in [
        (
            "spawned",
            live.metrics.tasks_spawned,
            sim.metrics.tasks_spawned,
        ),
        (
            "processed",
            live.metrics.tasks_processed,
            sim.metrics.tasks_processed,
        ),
        (
            "decomposed",
            live.metrics.tasks_decomposed,
            sim.metrics.tasks_decomposed,
        ),
    ] {
        assert_eq!(l, s, "tasks {name}: live {l} vs simulated {s}");
    }
    assert_eq!(sim.metrics.tasks_spawned, 120);
    assert!(live.metrics.spill_bytes_written > 0 && sim.metrics.spill_bytes_written > 0);
}

/// The engine spawns the vertices its table holds and no others: handed a
/// strict subset of the graph's ids, both drivers spawn one task per listed
/// vertex, emit one root row per listed vertex plus fan-out rows for listed
/// hubs only, and still pull unlisted neighbours.
#[test]
fn both_drivers_spawn_exactly_the_listed_vertices() {
    use qcm_core::RunOutcome;

    let g = star_with_ring(90);
    let listed: Vec<VertexId> = g.vertices().filter(|v| v.raw() % 3 != 1).collect();
    // Every vertex is a hub: degree 3 on the ring, 89 at the centre.
    let hub_threshold = 3;
    let app = Arc::new(SummerApp { hub_threshold });
    let config = EngineConfig::cluster(3, 2);

    let live = Cluster::new(app.clone(), config.clone()).run(g.clone(), listed.clone());
    let sim = SimCluster::new(app.clone(), config.clone(), SimConfig::new(7))
        .run(g.clone(), listed.clone());
    assert_eq!(live.metrics.outcome, RunOutcome::Complete);
    assert_eq!(sim.outcome, RunOutcome::Complete);
    for (driver, rows, spawned) in [
        ("live", live.results, live.metrics.tasks_spawned),
        ("simulated", sim.results, sim.metrics.tasks_spawned),
    ] {
        assert_eq!(spawned, listed.len() as u64, "{driver}: tasks spawned");
        assert_eq!(
            rows.len(),
            rows_spawned_by(&g, &listed, hub_threshold),
            "{driver}: rows"
        );
        let mut roots: Vec<VertexId> = rows.iter().map(|row| row[0]).collect();
        roots.sort_unstable();
        roots.dedup();
        assert_eq!(roots, listed, "{driver}: the rows' roots are not the list");
    }

    // A crash that never heals loses roots; every root it names, spawned or
    // not, is a listed one.
    let crash = SimConfig::crash_scenario(11, 1, 300, None);
    let out = SimCluster::new(app, config, crash).run(g.clone(), listed.clone());
    assert_eq!(out.outcome, RunOutcome::Faulted);
    assert!(!out.lost_roots.is_empty());
    for root in &out.lost_roots {
        assert!(
            listed.binary_search(root).is_ok(),
            "lost unlisted root {root}"
        );
    }
}
