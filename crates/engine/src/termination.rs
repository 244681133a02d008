//! The counting-based termination protocol of a run.
//!
//! A run is over when no task exists, is in flight or is still unspawned.
//! [`Termination`] holds the two counters that prove it, the `done` flag the
//! proof publishes, and the flags that label a run whose work was cut short.
//! A pending slot is released only *after* the task's effects are written, so
//! whoever observes `done` observes every worker's contribution —
//! `tests/model_check.rs` runs that claim under the strict model checker.

use qcm_sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Which check found that a run dropped work, in the order
/// [`Termination::work_dropped`] makes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkDropped {
    /// A task observed the cancellation token and truncated itself.
    Interrupted,
    /// A task was abandoned: one of its pulls ran out of retries.
    Abandoned,
    /// Tasks a spill batch or a steal grant carried did not decode.
    Unreadable,
    /// A task or a vertex was still pending when the workers exited.
    NotQuiescent,
}

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
    /// A task was abandoned after its pull retry budget ran out.
    abandoned: AtomicBool,
    /// Spilled or granted tasks did not decode.
    unreadable: AtomicBool,
    /// Some compute call observed the cancellation token and truncated its
    /// own backtracking.
    interrupted: AtomicBool,
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

    /// Pending slots now held (tests only: a driver polls
    /// [`Termination::is_quiescent`]).
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        // ordering: Relaxed — a test reads it with no other thread running.
        self.pending.load(Ordering::Relaxed)
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
        // A spawner takes its pending slot before it decrements `unspawned`,
        // so `unspawned` is read first: a reader that sees it at zero has
        // synchronised with the `mark_spawned` that zeroed it, and so with
        // the slot taken before, and the `pending` read that follows cannot
        // miss that spawn. Read the other way round, `pending` could be read
        // just before the last spawn and `unspawned` just after it, and the
        // run would end with that root's task never run.
        self.unspawned.load(Ordering::Acquire) == 0 && self.pending.load(Ordering::Acquire) == 0
    }

    /// Ends the run: every poller of [`Termination::is_done`] drains out.
    pub fn finish(&self) {
        // ordering: Release — publishes this thread's writes and, through
        // the decrements it joined, every other worker's; pairs with the
        // Acquire polls of `done`.
        self.done.store(true, Ordering::Release);
    }

    /// True once the run was ended.
    pub fn is_done(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in `finish`, so an
        // observer of the flag also observes the finisher's writes.
        self.done.load(Ordering::Acquire)
    }

    /// Labels the run as having lost an abandoned task. Call before
    /// releasing the pending slot the fault excuses.
    pub fn abandon(&self) {
        // ordering: Release — the flag must be visible before the pending
        // slot it excuses is released.
        self.abandoned.store(true, Ordering::Release);
    }

    /// Labels the run as having lost tasks that did not decode. Call before
    /// releasing the pending slots the fault excuses.
    pub fn lose_unreadable(&self) {
        // ordering: Release — as in `abandon`.
        self.unreadable.store(true, Ordering::Release);
    }

    /// Labels the run as truncated by its cancellation token.
    pub fn interrupt(&self) {
        // ordering: Release — the truncated task's partial results are
        // published before the interruption becomes visible.
        self.interrupted.store(true, Ordering::Release);
    }

    /// True once a fault lost part of the workload:
    /// [`Termination::abandon`] or [`Termination::lose_unreadable`] was
    /// called.
    pub fn is_faulted(&self) -> bool {
        // ordering: Acquire — pairs with the Release stores of the two.
        self.abandoned.load(Ordering::Acquire) || self.unreadable.load(Ordering::Acquire)
    }

    /// True once [`Termination::interrupt`] was called.
    pub fn is_interrupted(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in `interrupt`.
        self.interrupted.load(Ordering::Acquire)
    }

    /// Whether work was dropped, and the first check that says so: a task
    /// truncated itself, a fault lost part of the workload, or a task or
    /// vertex was left behind.
    pub fn work_dropped(&self) -> Option<WorkDropped> {
        // ordering: Acquire — as in `is_faulted`.
        if self.is_interrupted() {
            Some(WorkDropped::Interrupted)
        } else if self.abandoned.load(Ordering::Acquire) {
            Some(WorkDropped::Abandoned)
        } else if self.unreadable.load(Ordering::Acquire) {
            Some(WorkDropped::Unreadable)
        } else if !self.is_quiescent() {
            Some(WorkDropped::NotQuiescent)
        } else {
            None
        }
    }
}
