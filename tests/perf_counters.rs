//! The kernel counters are thread-local until flushed: a thread's counts must
//! reach `perf::snapshot()` when its task ends, when it exits, and when a run
//! is cancelled mid-search — never be stranded in a worker. (The engine's own
//! flush, once per compute step, is pinned in `crates/engine/tests/perf_flush.rs`.)
//!
//! One test function in a file of its own: the counters are process-wide, so
//! exact assertions need a process nothing else counts in.

use qcm::graph::neighborhoods::perf::{self, PerfSnapshot};
use qcm::prelude::*;
use qcm_core::QuasiCliqueSink;
use qcm_sync::{thread, Arc, Condvar, Mutex};

/// A stage counter two threads hand back and forth.
#[derive(Clone, Default)]
struct Stage(Arc<(Mutex<u32>, Condvar)>);

impl Stage {
    fn reach(&self, stage: u32) {
        *self.0 .0.lock() = stage;
        self.0 .1.notify_all();
    }

    fn wait_for(&self, stage: u32) {
        let mut current = self.0 .0.lock();
        while *current < stage {
            current = self.0 .1.wait(current);
        }
    }
}

/// Cancels the run at the first raw report.
struct CancelOnFirstReport(CancelToken);

impl QuasiCliqueSink for CancelOnFirstReport {
    fn report(&mut self, _members: Vec<VertexId>) {
        self.0.cancel();
    }
}

fn planted() -> (Arc<Graph>, MiningParams) {
    let spec = PlantedGraphSpec {
        num_vertices: 300,
        background_avg_degree: 6.0,
        background_beta: 2.4,
        background_max_degree: 60.0,
        community_sizes: vec![10, 9, 9, 8],
        community_density: 0.95,
        seed: 77,
    };
    let (graph, _) = qcm::gen::plant_quasi_cliques(&spec);
    (Arc::new(graph), MiningParams::new(0.8, 7))
}

/// The counters the mining kernels and the scratch pool bump.
fn kernel_counts(s: &PerfSnapshot) -> [u64; 5] {
    [
        s.edge_queries,
        s.bitset_hits,
        s.intersections,
        s.allocations_avoided,
        s.scratch_fresh_allocs,
    ]
}

#[test]
fn worker_thread_counts_reach_the_snapshot() {
    // A thread's counts are visible once it flushes (the end of a task), and
    // whatever it counted afterwards once it has exited.
    let before = perf::snapshot();
    let stage = Stage::default();
    let worker = {
        let stage = stage.clone();
        thread::spawn(move || {
            perf::count_edge_queries(1000);
            perf::count_bitset_hits(900);
            perf::flush();
            stage.reach(1);
            stage.wait_for(2);
            perf::count_edge_queries(50);
            perf::count_intersections(7);
        })
    };
    stage.wait_for(1);
    let flushed = perf::snapshot().since(&before);
    assert_eq!((flushed.edge_queries, flushed.bitset_hits), (1000, 900));
    stage.reach(2);
    worker.join().expect("the counting thread panicked");
    let exited = perf::snapshot().since(&before);
    assert_eq!(
        (
            exited.edge_queries,
            exited.bitset_hits,
            exited.intersections
        ),
        (1050, 900, 7)
    );

    // A serial run cancelled mid-search leaves nothing behind in its thread:
    // what is visible when `mine` returns is all there is after the thread
    // exits.
    let (graph, params) = planted();
    let before = perf::snapshot();
    let stage = Stage::default();
    let miner = {
        let (stage, graph) = (stage.clone(), graph.clone());
        thread::spawn(move || {
            let token = CancelToken::new();
            let mut observer = CancelOnFirstReport(token.clone());
            let out = SerialMiner::new(params)
                .with_cancel(token)
                .mine_with_observer(&graph, &mut observer);
            stage.reach(1);
            stage.wait_for(2);
            out
        })
    };
    stage.wait_for(1);
    let at_return = perf::snapshot().since(&before);
    stage.reach(2);
    let out = miner.join().expect("the mining thread panicked");
    assert_eq!(out.outcome, RunOutcome::Cancelled);
    assert!(out.stats.nodes_expanded > 0);
    let after_exit = perf::snapshot().since(&before);
    assert!(at_return.intersections > 0 && at_return.allocations_avoided > 0);
    assert_eq!(kernel_counts(&at_return), kernel_counts(&after_exit));
}
