//! `qcm-sync`: the single concurrency facade for the whole workspace.
//!
//! Every crate in this repository imports its locks, condvars, atomics
//! and thread spawns from here instead of `std::sync` / `std::thread`
//! (the `qcm-lint` tool enforces this). The payoff is a build-time
//! switch:
//!
//! * **Default build** — [`pass`-through wrappers](crate::Mutex): thin
//!   newtypes over `std` with a non-poisoning API (`lock()` returns the guard).
//!   Everything is `#[inline]` and `#[repr(transparent)]` where it can
//!   be; there is no runtime cost.
//! * **`model-check` feature** — the same API routed through a
//!   deterministic schedule-exploration scheduler (the `model` module): seeded
//!   pseudo-random interleavings with bounded preemptions, vector-clock
//!   diagnostics for unsynchronised atomic communication, deadlock and
//!   lost-wakeup detection, and replayable failing schedules (a failure
//!   report prints the seed; re-running the seed reproduces the
//!   identical decision trace).
//!
//! Checked types degrade gracefully: on a thread that is not
//! participating in a schedule (`model::check_seed` / `model::explore`
//! not active) they behave exactly like the passthrough build, so a
//! binary accidentally compiled with the feature still works.
//!
//! ```
//! use qcm_sync::{Mutex, thread};
//!
//! let shared = std::sync::Arc::new(Mutex::new(0u64));
//! let worker = {
//!     let shared = shared.clone();
//!     thread::spawn(move || *shared.lock() += 1)
//! };
//! worker.join().unwrap();
//! assert_eq!(*shared.lock(), 1);
//! ```

#[cfg(not(feature = "model-check"))]
mod pass;
#[cfg(not(feature = "model-check"))]
pub use pass::{thread, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(feature = "model-check")]
mod checked;
#[cfg(feature = "model-check")]
pub mod model;
#[cfg(feature = "model-check")]
pub use checked::{thread, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Atomic types routed through the facade — the drop-in replacement for
/// `std::sync::atomic`.
pub mod atomic {
    #[cfg(not(feature = "model-check"))]
    pub use crate::pass::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

    #[cfg(feature = "model-check")]
    pub use crate::checked::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

// Shared-ownership types carry no scheduling decisions, so the std
// types are re-exported as-is; importing them from `qcm-sync` keeps
// call sites on a single `use` line and inside the lint policy.
pub use std::sync::{Arc, OnceLock, Weak};

/// Best-effort rendering of a panic payload for failure reports.
#[cfg(feature = "model-check")]
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use crate::atomic::{AtomicUsize, Ordering};
    use crate::thread;
    use std::time::Duration;

    #[test]
    fn scope_borrows_joins_every_child_and_propagates_panics() {
        // Children borrow `words` and `finished` from this stack frame, and
        // are never joined by hand: `scope` returning is the join.
        let words = ["a", "bb", "ccc"];
        let finished = AtomicUsize::new(0);
        let lengths = AtomicUsize::new(0);
        thread::scope(|s| {
            for word in &words {
                s.spawn(|| {
                    thread::sleep(Duration::from_millis(5));
                    lengths.fetch_add(word.len(), Ordering::SeqCst);
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(finished.load(Ordering::SeqCst), words.len());
        assert_eq!(lengths.load(Ordering::SeqCst), 6);

        // A handle joined inside the scope hands back the child's value.
        let doubled = thread::scope(|s| s.spawn(|| words.len() * 2).join().unwrap());
        assert_eq!(doubled, 6);

        // A child's panic resumes out of `scope`, after its siblings ran.
        let survivors = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            thread::scope(|s| {
                s.spawn(|| panic!("child panicked on purpose"));
                s.spawn(|| survivors.fetch_add(1, Ordering::SeqCst));
            })
        }));
        assert!(outcome.is_err(), "the child's panic must propagate");
        assert_eq!(survivors.load(Ordering::SeqCst), 1);
    }
}
