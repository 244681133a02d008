//! Cooperative cancellation and deadlines.
//!
//! A [`CancelToken`] is a cheap, cloneable handle to a shared stop flag with
//! an optional deadline. The search loop ([`crate::recursive_mine()`], serial
//! or inside an engine task) and the engine's worker pop loop poll the token at
//! the top of their expansion/scheduling loops and unwind cooperatively when
//! it fires, so a cancelled or deadline-hit run returns the results found so
//! far instead of running to completion — the behaviour `qcm::Session`
//! surfaces as a partial, well-labelled `MiningReport`.
//!
//! Tokens form a chain: a child created with [`CancelToken::with_deadline`]
//! observes its parent's flag, which is how a session-held manual token and a
//! per-run deadline compose into one poll.

use qcm_obs::clock::Instant;
use qcm_sync::atomic::{AtomicBool, Ordering};
use qcm_sync::Arc;
use std::time::Duration;

/// Why a run stopped before completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's deadline passed.
    DeadlineExceeded,
}

/// How a mining run ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RunOutcome {
    /// The search space was fully explored; the result set is exact.
    #[default]
    Complete,
    /// The run was cancelled; the result set covers only the explored part
    /// of the search space (and may contain sets a complete run would have
    /// replaced with supersets).
    Cancelled,
    /// The deadline passed; the result set covers only the explored part of
    /// the search space (and may contain sets a complete run would have
    /// replaced with supersets).
    DeadlineExceeded,
    /// A fault (message loss, node crash, pull timeout) dropped part of the
    /// workload and it could not be recovered; the result set covers only the
    /// portion of the search space that completed.
    Faulted,
}

impl RunOutcome {
    /// True if the run explored the full search space.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete)
    }
}

impl From<Option<CancelReason>> for RunOutcome {
    fn from(reason: Option<CancelReason>) -> Self {
        match reason {
            None => RunOutcome::Complete,
            Some(CancelReason::Cancelled) => RunOutcome::Cancelled,
            Some(CancelReason::DeadlineExceeded) => RunOutcome::DeadlineExceeded,
        }
    }
}

#[derive(Debug)]
struct CancelInner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    parent: Option<Arc<CancelInner>>,
}

impl CancelInner {
    fn check(&self) -> Option<CancelReason> {
        // ordering: Relaxed — the cancel flag is a standalone monotonic bool;
        // nothing is published through it, and a late observation only delays
        // cooperative shutdown by one poll.
        if self.flag.load(Ordering::Relaxed) {
            return Some(CancelReason::Cancelled);
        }
        if let Some(parent) = &self.parent {
            if let Some(reason) = parent.check() {
                return Some(reason);
            }
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }
}

/// A cheap, cloneable cancellation handle.
///
/// The default token ([`CancelToken::never`]) carries no state and never
/// fires, so threading tokens through hot paths costs one `Option` check when
/// cancellation is unused.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Option<Arc<CancelInner>>,
}

impl CancelToken {
    /// A token that never fires (the default for all miners).
    pub fn never() -> Self {
        CancelToken { inner: None }
    }

    /// A manually cancellable token with no deadline.
    pub fn new() -> Self {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: None,
                parent: None,
            })),
        }
    }

    /// A child token that fires when this token fires *or* when `deadline`
    /// (measured from now) passes. `None` returns a plain clone.
    pub fn with_deadline(&self, deadline: Option<Duration>) -> Self {
        match deadline {
            None => self.clone(),
            Some(d) => CancelToken {
                inner: Some(Arc::new(CancelInner {
                    flag: AtomicBool::new(false),
                    deadline: Some(Instant::now() + d),
                    parent: self.inner.clone(),
                })),
            },
        }
    }

    /// Requests cancellation. All clones and child tokens observe it; calling
    /// it on a [`CancelToken::never`] token is a no-op.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            // ordering: Relaxed — pairs with the Relaxed poll in `check`; the flag
            // carries no payload, only the monotonic cancelled bit.
            inner.flag.store(true, Ordering::Relaxed);
        }
    }

    /// The reason the token has fired, or `None` while it is still live.
    /// Explicit cancellation takes precedence over an elapsed deadline.
    pub fn check(&self) -> Option<CancelReason> {
        self.inner.as_deref().and_then(CancelInner::check)
    }

    /// True if the token has fired (cancelled or deadline passed).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner.check().is_some(),
        }
    }

    /// The outcome label for a run governed by this token.
    pub fn run_outcome(&self) -> RunOutcome {
        self.check().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_fires() {
        let t = CancelToken::never();
        assert!(!t.is_cancelled());
        t.cancel(); // no-op
        assert!(!t.is_cancelled());
        assert_eq!(t.run_outcome(), RunOutcome::Complete);
        assert_eq!(CancelToken::default().check(), None);
    }

    #[test]
    fn manual_cancel_propagates_to_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.check(), Some(CancelReason::Cancelled));
        assert_eq!(clone.run_outcome(), RunOutcome::Cancelled);
    }

    #[test]
    fn zero_deadline_fires_immediately() {
        let t = CancelToken::never().with_deadline(Some(Duration::ZERO));
        assert!(t.is_cancelled());
        assert_eq!(t.check(), Some(CancelReason::DeadlineExceeded));
        assert_eq!(t.run_outcome(), RunOutcome::DeadlineExceeded);
    }

    #[test]
    fn long_deadline_stays_live() {
        let t = CancelToken::never().with_deadline(Some(Duration::from_secs(3600)));
        assert!(!t.is_cancelled());
        assert_eq!(t.run_outcome(), RunOutcome::Complete);
    }

    #[test]
    fn child_observes_parent_cancellation_and_prefers_it() {
        let parent = CancelToken::new();
        let child = parent.with_deadline(Some(Duration::from_secs(3600)));
        assert!(!child.is_cancelled());
        parent.cancel();
        assert_eq!(child.check(), Some(CancelReason::Cancelled));
        // Cancelling the child does not fire the parent.
        let parent2 = CancelToken::new();
        let child2 = parent2.with_deadline(Some(Duration::from_secs(3600)));
        child2.cancel();
        assert!(child2.is_cancelled());
        assert!(!parent2.is_cancelled());
    }

    #[test]
    fn explicit_cancel_wins_over_elapsed_deadline() {
        let t = CancelToken::never().with_deadline(Some(Duration::ZERO));
        t.cancel();
        assert_eq!(t.check(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn with_deadline_none_is_a_plain_clone() {
        let t = CancelToken::new();
        let clone = t.with_deadline(None);
        t.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn outcome_conversion_covers_all_reasons() {
        assert_eq!(RunOutcome::from(None), RunOutcome::Complete);
        assert!(RunOutcome::Complete.is_complete());
        assert!(!RunOutcome::DeadlineExceeded.is_complete());
        assert!(!RunOutcome::Cancelled.is_complete());
    }
}
