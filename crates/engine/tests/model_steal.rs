//! Model-checked schedules of the work-stealing protocol and spill store.
//!
//! Run with `cargo test -p qcm-engine --features model-check --test
//! model_steal`. Each scenario explores at least 1 000 seeded schedules;
//! a failure prints the seed and decision trace, and re-running with
//! `QCM_MC_SEED=<seed>` reproduces it exactly.

#![cfg(feature = "model-check")]

use qcm_engine::spill::{SpillMetrics, SpillStore};
use qcm_engine::steal::WorkerQueues;
use qcm_engine::task::TaskCodec;
use qcm_sync::model::{explore, explore_seeds, extra_seeds, ModelConfig};
use qcm_sync::{thread, Arc, Mutex};

const SCHEDULES: usize = 1_000;

/// Explores the fixed-seed window plus any `QCM_MC_EXTRA_SEED` seeds
/// (CI adds one fresh random seed per run, logged for replay).
fn run(name: &str, f: impl Fn() + Sync) {
    explore(name, SCHEDULES, ModelConfig::default(), &f);
    let extra = extra_seeds();
    if !extra.is_empty() {
        explore_seeds(name, &extra, ModelConfig::default(), &f);
    }
}

/// The core steal-protocol safety property: across any interleaving of a
/// popping owner and a stealing thief, every pushed task is consumed or
/// still enqueued exactly once — nothing lost, nothing duplicated.
#[test]
fn steal_loses_and_duplicates_nothing() {
    run("steal_loses_and_duplicates_nothing", || {
        let queues: Arc<WorkerQueues<u32>> = Arc::new(WorkerQueues::new(2, 8, 2));
        let taken: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        for task in 0..4 {
            queues.push_local(0, task).expect("below capacity");
        }

        let owner = {
            let (queues, taken) = (queues.clone(), taken.clone());
            thread::spawn(move || {
                for _ in 0..4 {
                    if let Some(t) = queues.pop_local(0) {
                        taken.lock().push(t);
                    }
                }
            })
        };
        let thief = {
            let (queues, taken) = (queues.clone(), taken.clone());
            thread::spawn(move || {
                for _ in 0..2 {
                    if let Some(t) = queues.steal_into(1, 0..2) {
                        taken.lock().push(t);
                    }
                }
                // Batch remainders land in the thief's own deque.
                while let Some(t) = queues.pop_local(1) {
                    taken.lock().push(t);
                }
            })
        };
        owner.join().unwrap();
        thief.join().unwrap();

        let mut seen = taken.lock().clone();
        // Anything still enqueued also counts as "not lost".
        while let Some(t) = queues.pop_local(0) {
            seen.push(t);
        }
        while let Some(t) = queues.pop_local(1) {
            seen.push(t);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3], "task lost or duplicated");
    });
}

/// A grant to another machine takes from the cold ends of the deques while
/// the owner pops its hot end and a sibling steals its cold end: every task
/// is still taken exactly once.
#[test]
fn grant_take_races_pop_and_steal_without_loss() {
    run("grant_take_races_pop_and_steal_without_loss", || {
        let queues: Arc<WorkerQueues<u32>> = Arc::new(WorkerQueues::new(2, 8, 2));
        let taken: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        for task in 0..5 {
            queues.push_local(0, task).expect("below capacity");
        }

        let owner = {
            let (queues, taken) = (queues.clone(), taken.clone());
            thread::spawn(move || {
                for _ in 0..2 {
                    if let Some(t) = queues.pop_local(0) {
                        taken.lock().push(t);
                    }
                }
            })
        };
        let thief = {
            let (queues, taken) = (queues.clone(), taken.clone());
            thread::spawn(move || {
                if let Some(t) = queues.steal_into(1, 0..2) {
                    taken.lock().push(t);
                }
            })
        };
        let granter = {
            let (queues, taken) = (queues.clone(), taken.clone());
            thread::spawn(move || {
                let grant = queues.take_cold(2);
                assert!(grant.len() <= 2, "grant past its count: {grant:?}");
                taken.lock().extend(grant);
            })
        };
        owner.join().unwrap();
        thief.join().unwrap();
        granter.join().unwrap();

        let mut seen = taken.lock().clone();
        for worker in 0..2 {
            while let Some(t) = queues.pop_local(worker) {
                seen.push(t);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "task lost or duplicated");
    });
}

/// A racing owner must never let an oversized steal batch push the
/// thief's bounded deque past its capacity.
#[test]
fn steal_never_overflows_the_thief_bound() {
    run("steal_never_overflows_the_thief_bound", || {
        let queues: Arc<WorkerQueues<u32>> = Arc::new(WorkerQueues::new(2, 2, 8));
        queues.push_local(1, 100).expect("below capacity");
        for task in 0..2 {
            queues.push_local(0, task).expect("below capacity");
        }

        let owner = {
            let queues = queues.clone();
            thread::spawn(move || {
                let _ = queues.pop_local(0);
            })
        };
        let thief = {
            let queues = queues.clone();
            thread::spawn(move || {
                let _ = queues.steal_into(1, 0..1);
            })
        };
        owner.join().unwrap();
        thief.join().unwrap();

        let mut thief_len = 0;
        while queues.pop_local(1).is_some() {
            thief_len += 1;
        }
        assert!(
            thief_len <= 2,
            "thief deque exceeded its bound: {thief_len} tasks"
        );
    });
}

#[derive(Clone, Debug, PartialEq)]
struct Tagged(u32);

impl TaskCodec for Tagged {
    fn encode(&self, buf: &mut Vec<u8>) {
        qcm_engine::codec::put_u32(buf, self.0);
    }
    fn decode(data: &mut &[u8]) -> Option<Self> {
        qcm_engine::codec::take_u32(data).map(Tagged)
    }
}

/// Spill FIFO ordering: whatever order concurrent spillers serialise
/// into, refills replay exactly that batch order (oldest first), and no
/// batch is lost or duplicated.
#[test]
fn spill_refill_is_fifo_under_concurrent_spillers() {
    run("spill_refill_is_fifo_under_concurrent_spillers", || {
        let metrics = Arc::new(SpillMetrics::default());
        let store = Arc::new(Mutex::new(SpillStore::new(None, "mc", metrics)));
        // Order in which batches entered the store, recorded inside the
        // same critical section as the spill itself.
        let order: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));

        let spillers: Vec<_> = [0u32, 1]
            .into_iter()
            .map(|who| {
                let (store, order) = (store.clone(), order.clone());
                thread::spawn(move || {
                    for seq in 0..2u32 {
                        let tag = who * 10 + seq;
                        let mut store = store.lock();
                        store.spill(&[Tagged(tag), Tagged(tag + 100)]);
                        order.lock().push(tag);
                    }
                })
            })
            .collect();
        for s in spillers {
            s.join().unwrap();
        }

        let expected = order.lock().clone();
        let mut store = store.lock();
        assert_eq!(store.len(), expected.len());
        for want in expected {
            let batch: Vec<Tagged> = store.refill().expect("batch present");
            assert_eq!(
                batch,
                vec![Tagged(want), Tagged(want + 100)],
                "refill order diverged from spill order"
            );
        }
        assert!(store.refill::<Tagged>().is_none());
    });
}

/// The overflow path end to end: a bounded deque rejects the excess
/// task, the owner spills it, and a refill recovers it — no interleaving
/// of a concurrent thief may lose the task.
#[test]
fn overflow_spills_and_refills_without_loss() {
    run("overflow_spills_and_refills_without_loss", || {
        let queues: Arc<WorkerQueues<u32>> = Arc::new(WorkerQueues::new(2, 2, 1));
        let metrics = Arc::new(SpillMetrics::default());
        let store = Arc::new(Mutex::new(SpillStore::new(None, "ovf", metrics)));

        let owner = {
            let (queues, store) = (queues.clone(), store.clone());
            thread::spawn(move || {
                for task in 0..4u32 {
                    if let Err(overflow) = queues.push_local(0, task) {
                        store.lock().spill(&[Tagged(overflow)]);
                    }
                }
            })
        };
        let thief = {
            let queues = queues.clone();
            thread::spawn(move || queues.steal_into(1, 0..1))
        };
        owner.join().unwrap();
        let stolen = thief.join().unwrap();

        let mut seen: Vec<u32> = stolen.into_iter().collect();
        while let Some(t) = queues.pop_local(0) {
            seen.push(t);
        }
        while let Some(t) = queues.pop_local(1) {
            seen.push(t);
        }
        let mut store = store.lock();
        while let Some(batch) = store.refill::<Tagged>() {
            seen.extend(batch.into_iter().map(|t| t.0));
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3], "overflow path lost a task");
    });
}
