//! Work-stealing equivalence and ordering tests.
//!
//! The per-worker deques + steal protocol are a scheduling change only: the
//! mined result set must stay byte-identical to the serial reference across
//! thread counts, and with the global queue forced through its disk-spill
//! path. The last test pins the ordering contract: the spill-backed global
//! queue stays FIFO through spill→refill cycles even while tasks are
//! simultaneously being pushed to and stolen from worker deques.

use qcm::prelude::*;
use qcm_engine::codec::{put_u32, take_u32};
use qcm_engine::queue::TaskQueue;
use qcm_engine::spill::{SpillMetrics, SpillStore};
use qcm_engine::{TaskCodec, WorkerQueues};
use qcm_sync::Arc;
use std::time::Duration;

fn test_graph() -> (Arc<Graph>, MiningParams) {
    let spec = PlantedGraphSpec {
        num_vertices: 250,
        background_avg_degree: 5.0,
        background_beta: 2.4,
        background_max_degree: 50.0,
        community_sizes: vec![9, 8, 8],
        community_density: 0.95,
        seed: 4242,
    };
    let (graph, _) = qcm::gen::plant_quasi_cliques(&spec);
    (Arc::new(graph), MiningParams::new(0.8, 7))
}

#[test]
fn work_stealing_parallel_matches_serial_across_thread_counts() {
    let (graph, params) = test_graph();
    let serial = SerialMiner::new(params).mine(&graph);
    for threads in [2usize, 4, 8] {
        let mut config = EngineConfig::single_machine(threads);
        // Aggressive decomposition into small subtasks, which land in the
        // decomposing worker's own deque — the steal protocol's diet.
        config.steal_batch = 4;
        let out = ParallelMiner::new(params, config)
            .with_decomposition(30, Duration::ZERO)
            .mine(graph.clone());
        assert_eq!(
            out.maximal, serial.maximal,
            "work-stealing run diverged at {threads} threads"
        );
        assert!(
            out.metrics.steals + out.metrics.steal_failures > 0,
            "multi-worker runs must exercise the steal path"
        );
    }
}

#[test]
fn spilling_stealing_run_matches_serial() {
    let (graph, params) = test_graph();
    let spill_dir = std::env::temp_dir().join(format!("qcm_steal_spill_{}", std::process::id()));
    let mut config = EngineConfig::single_machine(4);
    config.batch_size = 2;
    config.local_capacity = 2; // tiny deques → constant overflow to global
    config.global_queue_capacity = 2; // → constant spilling
    config.spill_dir = Some(spill_dir.clone());

    // τ_split = 10: most decomposed tasks are "big" → global queue.
    let stolen = ParallelMiner::new(params, config)
        .with_decomposition(10, Duration::ZERO)
        .mine(graph.clone());
    assert_eq!(
        stolen.maximal,
        SerialMiner::new(params).mine(&graph).maximal
    );
    assert!(
        stolen.metrics.spill_bytes_written > 0,
        "2-slot queues with full decomposition must spill"
    );
    assert_eq!(
        stolen.metrics.spill_bytes_written, stolen.metrics.spill_bytes_read,
        "every byte spilled under stealing must be refilled"
    );
    let leftover = std::fs::read_dir(&spill_dir)
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(leftover, 0, "spill files must be consumed and removed");
    let _ = std::fs::remove_dir_all(&spill_dir);
}

/// A minimal spillable task for the queue-level ordering test.
#[derive(Clone, Debug, PartialEq)]
struct Seq(u32);

impl TaskCodec for Seq {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.0);
    }
    fn decode(data: &mut &[u8]) -> Option<Self> {
        take_u32(data).map(Seq)
    }
}

#[test]
fn global_queue_stays_fifo_through_spill_while_deques_are_stolen_from() {
    // Global queue of capacity 4 with spill batches of 2: pushing 32 tasks
    // forces most of them through disk-simulating spill storage.
    let store = SpillStore::new(None, "fifo", Arc::new(SpillMetrics::default()));
    let mut global: TaskQueue<Seq> = TaskQueue::new(4, 2, store);
    for i in 0..32 {
        global.push(Seq(i));
    }
    assert!(global.total_pending() == 32 && global.len() <= 4);

    // Drain the global queue exactly like a worker: refill below one batch,
    // then pop. Every drained task is pushed onto worker 0's deque, and a
    // second worker keeps stealing mid-drain.
    let deques: WorkerQueues<Seq> = WorkerQueues::new(2, 64, 2);
    let mut drained = Vec::new();
    let mut stolen = Vec::new();
    let mut step = 0u32;
    loop {
        if global.needs_refill() {
            global.refill_from_spill();
        }
        let Some(task) = global.pop() else { break };
        drained.push(task.0);
        deques.push_local(0, task).unwrap();
        step += 1;
        if step % 3 == 0 {
            if let Some(t) = deques.steal_into(1, 0..2) {
                stolen.push(t.0);
            }
        }
    }
    // No task may be lost or duplicated across the spill→refill cycles.
    let mut sorted = drained.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..32).collect::<Vec<u32>>());
    // Spill→refill ordering: with capacity 4 and batch 2, ids 2..=29 went
    // through spill storage (the tail spills; 0, 1, 30, 31 stay resident).
    // Spilled batches must come back oldest-first, so the drained
    // subsequence of spilled ids must be increasing — stealing active the
    // whole time.
    let spilled: Vec<u32> = drained
        .iter()
        .copied()
        .filter(|&i| (2..=29).contains(&i))
        .collect();
    assert_eq!(spilled, (2..=29).collect::<Vec<u32>>());
    // Steals take the victim's *oldest* tasks, so the stolen ids must form a
    // subsequence of the order in which they entered worker 0's deque.
    assert!(!stolen.is_empty());
    let mut cursor = drained.iter();
    assert!(
        stolen.iter().all(|s| cursor.any(|d| d == s)),
        "stolen ids must respect the victim's FIFO order: {stolen:?} vs {drained:?}"
    );
    assert_eq!(deques.steals(), (stolen.len() * 2) as u64, "batch of 2");
}
