//! A worker's kernel counters are thread-local until flushed, and the engine
//! flushes them at the end of every compute step: what a task counted must be
//! visible to `perf::snapshot()` from another thread as soon as the task's
//! step is over, while the worker is still alive and busy with the next one.
//!
//! One test in a file of its own, because the counters are process-wide.

use qcm_engine::codec::{put_u32, take_u32};
use qcm_engine::{Cluster, ComputeContext, EngineConfig, Frontier, GThinkerApp, TaskCodec};
use qcm_graph::neighborhoods::perf;
use qcm_graph::{Graph, VertexId};
use qcm_sync::atomic::{AtomicU64, Ordering};
use qcm_sync::{thread, Arc, Condvar, Mutex};

#[derive(Clone, Debug, PartialEq)]
struct CountTask(VertexId);

impl TaskCodec for CountTask {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.0.raw());
    }
    fn decode(data: &mut &[u8]) -> Option<Self> {
        Some(CountTask(VertexId::new(take_u32(data)?)))
    }
}

/// The step at which the worker stops inside `compute` until released.
const HELD_STEP: u64 = 5;

/// Every compute step counts one intersection; the [`HELD_STEP`]-th waits
/// inside `compute` (before its own flush) for the test to look.
#[derive(Default)]
struct CountingApp {
    steps: AtomicU64,
    /// 0 → 1 when the held step is reached, 1 → 2 when the test releases it.
    stage: (Mutex<u32>, Condvar),
}

impl CountingApp {
    fn reach(&self, stage: u32) {
        *self.stage.0.lock() = stage;
        self.stage.1.notify_all();
    }

    fn wait_for(&self, stage: u32) {
        let mut current = self.stage.0.lock();
        while *current < stage {
            current = self.stage.1.wait(current);
        }
    }
}

impl GThinkerApp for CountingApp {
    type Task = CountTask;

    fn spawn(&self, v: VertexId, _adj: &[VertexId], ctx: &mut ComputeContext<Self::Task>) {
        ctx.add_task(CountTask(v));
    }

    fn pending_pulls<'t>(&self, _task: &'t Self::Task) -> &'t [VertexId] {
        &[]
    }

    fn compute(
        &self,
        _task: &mut Self::Task,
        _frontier: &Frontier,
        _ctx: &mut ComputeContext<Self::Task>,
    ) -> bool {
        perf::count_intersections(1);
        // ordering: Relaxed — one worker thread; the stage mutex orders the
        // test's reads.
        if self.steps.fetch_add(1, Ordering::Relaxed) + 1 == HELD_STEP {
            self.reach(1);
            self.wait_for(2);
        }
        false
    }

    fn is_big(&self, _task: &Self::Task) -> bool {
        false
    }
}

#[test]
fn a_finished_step_is_counted_while_its_worker_lives_on() {
    let n = 8u32;
    let graph = Arc::new(Graph::from_edges(n as usize, (1..n).map(|i| (0, i))).unwrap());
    let app = Arc::new(CountingApp::default());
    let before = perf::snapshot();
    let run = {
        let app = app.clone();
        let vertices = graph.vertices().collect();
        thread::spawn(move || {
            Cluster::new(app, EngineConfig::single_machine(1)).run(graph, vertices)
        })
    };
    app.wait_for(1);
    // The one worker sits inside its HELD_STEP-th compute: that step's count
    // is still its own, every earlier step's has been published.
    let while_held = perf::snapshot().since(&before);
    assert_eq!(while_held.intersections, HELD_STEP - 1);
    app.reach(2);
    let output = run.join().expect("the engine run panicked");
    assert_eq!(output.metrics.tasks_processed, u64::from(n));
    assert_eq!(perf::snapshot().since(&before).intersections, u64::from(n));
}
