//! Cross-crate model-checked scenarios at the facade level.
//!
//! Run with `cargo test -p qcm --features model-check --test model_check`.
//! The per-crate suites (`model_steal`, `model_cancel`, `model_cache`)
//! pin down one component each; this suite covers the protocols that
//! only exist across layers: the engine's counting-based termination
//! protocol (the `Termination` type the cluster and the simulator share:
//! its publication of every worker's work, and its idle check against a
//! concurrent spawn) and the deque + cancel-token composition used by the
//! worker loops. Each scenario explores at least 1 000 seeded schedules, and
//! `replayable_failure_reproduces_bit_for_bit` demonstrates the
//! seed → identical-trace replay contract end to end.

#![cfg(feature = "model-check")]

use qcm::core::CancelToken;
use qcm::engine::steal::WorkerQueues;
use qcm::engine::Termination;
use qcm_sync::atomic::{AtomicU64, Ordering};
use qcm_sync::model::{check_seed, explore, explore_seeds, extra_seeds, find_failure, ModelConfig};
use qcm_sync::{thread, Arc, Mutex};

const SCHEDULES: usize = 1_000;

fn run_with(name: &str, cfg: ModelConfig, f: impl Fn() + Sync) {
    explore(name, SCHEDULES, cfg.clone(), &f);
    let extra = extra_seeds();
    if !extra.is_empty() {
        explore_seeds(name, &extra, cfg, &f);
    }
}

/// The engine's termination protocol — the [`Termination`] type both
/// drivers run — under the *strict* model config, so any unsynchronised
/// publication fails the schedule outright.
///
/// Shape (mirrors the worker loop of `qcm_engine::cluster`): workers
/// accumulate into a Relaxed statistics sum, then release their pending
/// slot (AcqRel); whoever then reads the counters quiescent publishes
/// `done` (Release). An observer that sees `done` (Acquire) must
/// therefore see every worker's contribution. Weakening the release or
/// the flag to Relaxed in `termination.rs` makes this test fail with a
/// vector-clock diagnostic — it is the regression test for that file's
/// ordering audit.
#[test]
fn termination_protocol_publishes_all_work() {
    run_with(
        "termination_protocol_publishes_all_work",
        ModelConfig::strict(),
        || {
            const WORKERS: u64 = 2;
            let sum = Arc::new(AtomicU64::new(0));
            let term = Arc::new(Termination::new(0));
            term.add_pending(WORKERS as usize);

            let handles: Vec<_> = (1..=WORKERS)
                .map(|contribution| {
                    let (sum, term) = (sum.clone(), term.clone());
                    thread::spawn(move || {
                        // ordering: Relaxed — statistics accumulation; publication
                        // happens via the pending-slot release below.
                        sum.fetch_add(contribution, Ordering::Relaxed);
                        term.release(1);
                        if term.is_quiescent() {
                            term.finish();
                        }
                    })
                })
                .collect();

            let observer = {
                let (sum, term) = (sum.clone(), term.clone());
                thread::spawn(move || {
                    // Bounded poll: the property is conditional on observing
                    // `done`, not on winning the race to see it.
                    for _ in 0..3 {
                        if term.is_done() {
                            // ordering: Relaxed — all adds happen-before via the
                            // Acquire load inside `is_done`.
                            let total = sum.load(Ordering::Relaxed);
                            assert_eq!(
                                total,
                                WORKERS * (WORKERS + 1) / 2,
                                "done visible before all work published"
                            );
                            return;
                        }
                    }
                })
            };

            for h in handles {
                h.join().unwrap();
            }
            observer.join().unwrap();
            // ordering: Relaxed — main joined everyone; the load is for the
            // final assertion only.
            assert!(term.is_done());
            assert_eq!(term.work_dropped(), None);
            assert_eq!(sum.load(Ordering::Relaxed), WORKERS * (WORKERS + 1) / 2);
        },
    );
}

/// A root spawned while another worker runs the idle check — the shape of
/// `spawn_batch` against the quiescence test of the cluster's worker loop.
/// The spawner takes its transient pending slot, takes the last vertex
/// (`mark_spawned`), registers the root's task and drops the transient
/// slot; while it still owns the task, the run must not be over. An idle
/// check that read `pending` before `unspawned` could see both at zero
/// across the spawn and finish the run with the root's task never run.
#[test]
fn idle_check_never_finishes_across_the_last_spawn() {
    run_with(
        "idle_check_never_finishes_across_the_last_spawn",
        ModelConfig::strict(),
        || {
            let term = Arc::new(Termination::new(1));
            let spawner = {
                let term = term.clone();
                thread::spawn(move || {
                    term.add_pending(1);
                    term.mark_spawned();
                    term.add_pending(1);
                    term.release(1);
                    assert!(
                        !term.is_done(),
                        "the run finished while a root task was live"
                    );
                    term.release(1);
                })
            };
            let idle = {
                let term = term.clone();
                thread::spawn(move || {
                    if term.is_quiescent() {
                        term.finish();
                    }
                })
            };
            spawner.join().unwrap();
            idle.join().unwrap();
            assert_eq!(term.work_dropped(), None);
        },
    );
}

/// Deque draining under cancellation: a consumer that stops on a fired
/// token may leave tasks behind, but across every interleaving no task
/// is consumed twice and the leftovers are exactly the complement of
/// what was consumed.
#[test]
fn cancelled_drain_never_double_consumes() {
    run_with(
        "cancelled_drain_never_double_consumes",
        ModelConfig::default(),
        || {
            let queues: Arc<WorkerQueues<u32>> = Arc::new(WorkerQueues::new(2, 8, 1));
            let token = CancelToken::new();
            let consumed: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
            for task in 0..3 {
                queues.push_local(0, task).expect("below capacity");
            }

            let consumer = {
                let (queues, token, consumed) = (queues.clone(), token.clone(), consumed.clone());
                thread::spawn(move || {
                    for _ in 0..3 {
                        if token.is_cancelled() {
                            break;
                        }
                        if let Some(t) = queues.pop_local(0) {
                            consumed.lock().push(t);
                        }
                    }
                })
            };
            let canceller = {
                let token = token.clone();
                thread::spawn(move || token.cancel())
            };
            consumer.join().unwrap();
            canceller.join().unwrap();

            let mut seen = consumed.lock().clone();
            let consumed_count = seen.len();
            while let Some(t) = queues.pop_local(0) {
                seen.push(t);
            }
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(
                seen,
                vec![0, 1, 2],
                "cancelled drain lost or duplicated a task (consumed {consumed_count})"
            );
        },
    );
}

/// The replay contract the whole tool rests on: a schedule that fails
/// under some seed re-runs to the *identical* decision trace, step
/// count and failure message when that seed is replayed — twice.
#[test]
fn replayable_failure_reproduces_bit_for_bit() {
    // A deliberately racy counter: load + store instead of fetch_add.
    let buggy = || {
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = counter.clone();
                thread::spawn(move || {
                    // ordering: SeqCst — the bug is the lost update, not the
                    // memory order; the checked facade runs at SeqCst anyway.
                    let v = counter.load(Ordering::SeqCst);
                    counter.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
    };

    let found = find_failure(SCHEDULES, ModelConfig::default(), buggy)
        .expect("schedule exploration must find the lost update");
    let again = check_seed(found.seed, ModelConfig::default(), buggy);
    let thrice = check_seed(found.seed, ModelConfig::default(), buggy);
    assert_eq!(found.trace, again.trace, "replay diverged from original");
    assert_eq!(again.trace, thrice.trace, "replay is not deterministic");
    assert_eq!(found.steps, again.steps);
    assert_eq!(found.failure, again.failure);
    assert!(again.failure.is_some());
}
