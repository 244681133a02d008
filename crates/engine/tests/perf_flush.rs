//! A worker's kernel counters are thread-local until flushed, and the engine
//! flushes them at the end of every compute step: what a task counted must be
//! visible to `perf::snapshot()` from another thread as soon as the task's
//! step is over, while the thread that ran it lives on.
//!
//! The fault simulator runs every compute step on the thread that calls
//! `mine`, and that thread keeps running after `mine` returns. So a second
//! thread must already read everything the run counted, and the calling
//! thread's own snapshot, which publishes what it still holds, must read the
//! same.
//!
//! One test in a file of its own, because the counters are process-wide.

use qcm_core::{MiningParams, RunOutcome};
use qcm_engine::{EngineConfig, ParallelMiner, SimConfig, TransportFactory};
use qcm_graph::neighborhoods::perf;
use qcm_graph::Graph;
use qcm_sync::{thread, Arc};

/// The paper's Figure 4 graph.
fn figure4() -> Arc<Graph> {
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
    Arc::new(Graph::from_edges(9, edges).unwrap())
}

#[test]
fn a_finished_step_is_counted_while_its_worker_lives_on() {
    let config =
        EngineConfig::cluster(2, 1).with_transport(TransportFactory::Sim(SimConfig::new(1)));
    let miner = ParallelMiner::new(MiningParams::new(0.6, 5), config);
    let before = perf::snapshot();
    let output = miner.mine(figure4());
    assert_eq!(output.outcome(), RunOutcome::Complete);
    assert_eq!(output.maximal.len(), 1);
    let elsewhere = thread::spawn(move || perf::snapshot().since(&before).intersections)
        .join()
        .expect("the reading thread panicked");
    assert!(elsewhere > 0, "the run's counts were not published");
    let here = perf::snapshot().since(&before).intersections;
    assert_eq!(elsewhere, here, "the compute thread held counts back");
}
