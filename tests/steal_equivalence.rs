//! Work-stealing equivalence and ordering tests.
//!
//! The per-worker deques + steal protocol are a scheduling change only: the
//! mined result set must stay identical to the serial reference across
//! thread counts, and with the global queue forced through its disk-spill
//! path (the differential harness's `shapes` and `spill` surfaces). The last
//! test pins the ordering contract: the spill-backed global queue stays FIFO
//! through spill→refill cycles even while tasks are simultaneously being
//! pushed to and stolen from worker deques.

mod common;

use common::harness::leg;
use qcm_engine::codec::{put_u32, take_u32};
use qcm_engine::queue::TaskQueue;
use qcm_engine::spill::{SpillMetrics, SpillStore};
use qcm_engine::{TaskCodec, WorkerQueues};
use qcm_sync::Arc;

// A 250-vertex planted graph on a heavy-tailed background, mined at γ = 0.8,
// τ_size = 7 with τ_time = 0 (`tests/common/harness.rs`, `legs`).

/// Aggressive decomposition (τ_split 30 and 10) into small subtasks, which
/// land in the decomposing worker's own deque — the steal protocol's diet —
/// on one to eight workers; some of them must be stolen.
#[test]
fn work_stealing_parallel_matches_serial_across_thread_counts() {
    leg("work_stealing_parallel_matches_serial_across_thread_counts");
}

/// 2-slot queues under full decomposition spill constantly; every spilled
/// byte is refilled and no spill file is left.
#[test]
fn spilling_stealing_run_matches_serial() {
    leg("spilling_stealing_run_matches_serial");
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
