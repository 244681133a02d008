//! The counting-based termination protocol of a run.
//!
//! A run is over when no task exists, is in flight or is still unspawned.
//! [`Termination`] holds the two counters that prove it, the `done` flag the
//! proof publishes, and the flags that label a run whose work was cut short.
//! A pending slot is released only *after* the task's effects are written, so
//! whoever observes `done` observes every worker's contribution —
//! `tests/model_check.rs` runs that claim under the strict model checker.

use qcm_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use qcm_sync::{Condvar, Mutex};
use std::time::Duration;

/// Pending/unspawned counters, the `done` flag and the run's loss labels.
#[derive(Debug, Default)]
pub struct Termination {
    /// Tasks spawned or decomposed but not yet fully processed (plus a
    /// transient +1 held while a spawn call is in flight, which closes the
    /// race between the spawn-cursor pop and the task registration).
    pending: AtomicUsize,
    /// Vertices not yet consumed by any spawn cursor.
    unspawned: AtomicUsize,
    done: AtomicBool,
    /// A fault (pull retry budget exhausted, undecodable stolen task) dropped
    /// part of the workload.
    faulted: AtomicBool,
    /// Some compute call observed the cancellation token and truncated its
    /// own backtracking.
    interrupted: AtomicBool,
    /// Lets a periodic thread wait out its period yet wake the moment `done`
    /// is set, so the worker scope never joins a full period late.
    gate: Mutex<()>,
    wake: Condvar,
}

impl Termination {
    /// A run over `unspawned` vertices with no task yet.
    pub fn new(unspawned: usize) -> Self {
        Termination {
            unspawned: AtomicUsize::new(unspawned),
            ..Termination::default()
        }
    }

    /// Takes `n` pending slots — before the tasks become poppable.
    pub fn add_pending(&self, n: usize) {
        // ordering: AcqRel — counter protocol (see `is_quiescent`): the
        // increment lands before the task becomes poppable.
        self.pending.fetch_add(n, Ordering::AcqRel);
    }

    /// Releases `n` pending slots — after the tasks' effects are written.
    pub fn release(&self, n: usize) {
        // ordering: AcqRel — counter protocol: a decrement publishes the work
        // accounted to the slot and joins prior decrements, so a zero read
        // proves global completion.
        self.pending.fetch_sub(n, Ordering::AcqRel);
    }

    /// Records that one vertex left a spawn cursor. Call while holding a
    /// pending slot, so the two counters never both read zero mid-spawn.
    pub fn mark_spawned(&self) {
        // ordering: AcqRel — decremented only after the vertex's pending slot
        // is taken, keeping pending+unspawned > 0 while work remains.
        self.unspawned.fetch_sub(1, Ordering::AcqRel);
    }

    /// True when no task exists, is in flight, or is still unspawned.
    pub fn is_quiescent(&self) -> bool {
        // ordering: Acquire — pairs with the AcqRel RMWs on both counters.
        // `pending` is incremented before `unspawned` is decremented on the
        // spawn path, so both reading zero proves the pool is empty.
        self.pending.load(Ordering::Acquire) == 0 && self.unspawned.load(Ordering::Acquire) == 0
    }

    /// Ends the run: every poller of [`Termination::is_done`] drains out.
    pub fn finish(&self) {
        // ordering: Release — publishes this thread's writes and, through
        // the decrements it joined, every other worker's; pairs with the
        // Acquire polls of `done`.
        self.done.store(true, Ordering::Release);
        // Passing through the gate orders the notify after a waiter that
        // checked `done` under it and is about to wait.
        drop(self.gate.lock());
        self.wake.notify_all();
    }

    /// True once the run was ended.
    pub fn is_done(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in `finish`, so an
        // observer of the flag also observes the finisher's writes.
        self.done.load(Ordering::Acquire)
    }

    /// Waits up to `period` for the run to end; false when the period
    /// elapsed first.
    pub fn wait_done(&self, period: Duration) -> bool {
        loop {
            let gate = self.gate.lock();
            if self.is_done() {
                return true;
            }
            let (_gate, timed_out) = self.wake.wait_timeout(gate, period);
            if timed_out {
                return false;
            }
        }
    }

    /// Labels the run as having lost work to a fault. Call before releasing
    /// the pending slot the fault excuses.
    pub fn fault(&self) {
        // ordering: Release — the flag must be visible before the pending
        // slot it excuses is released.
        self.faulted.store(true, Ordering::Release);
    }

    /// Labels the run as truncated by its cancellation token.
    pub fn interrupt(&self) {
        // ordering: Release — the truncated task's partial results are
        // published before the interruption becomes visible.
        self.interrupted.store(true, Ordering::Release);
    }

    /// True once [`Termination::fault`] was called.
    pub fn is_faulted(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in `fault`.
        self.faulted.load(Ordering::Acquire)
    }

    /// True once [`Termination::interrupt`] was called.
    pub fn is_interrupted(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in `interrupt`.
        self.interrupted.load(Ordering::Acquire)
    }

    /// True iff work was dropped: a task truncated itself, a task or vertex
    /// was left behind, or a fault lost part of the workload.
    pub fn work_dropped(&self) -> bool {
        self.is_interrupted() || self.is_faulted() || !self.is_quiescent()
    }
}
