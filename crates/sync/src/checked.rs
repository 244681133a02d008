//! Facade implementations compiled under the `model-check` feature:
//! the same API as [`crate::pass`], but every operation first consults
//! the calling thread's scheduler context ([`crate::model::ctx`]). On a
//! thread that participates in a schedule the operation becomes a
//! schedule point; on any other thread (a regular test, the production
//! binary built with the feature by accident) it degrades to the plain
//! std behaviour.
//!
//! Real `std` primitives still sit underneath everything, so the model
//! layer is a *discipline* on top of genuinely sound synchronisation:
//! even a scheduler bug cannot produce undefined behaviour, only a
//! wrong exploration.

use crate::model::{self, Ctx};
use std::panic::Location;
use std::sync::atomic::AtomicUsize as RawUsize;
use std::sync::atomic::Ordering as RawOrdering;
use std::sync::TryLockError;

/// Lazily assigns and returns the process-global object id stored in
/// `slot` (0 = unassigned).
fn object_id(slot: &RawUsize) -> usize {
    let id = slot.load(RawOrdering::Relaxed);
    if id != 0 {
        return id;
    }
    let fresh = model::fresh_object_id();
    match slot.compare_exchange(0, fresh, RawOrdering::Relaxed, RawOrdering::Relaxed) {
        Ok(_) => fresh,
        Err(existing) => existing,
    }
}

/// A mutual-exclusion primitive with a non-poisoning API (checked).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    id: RawUsize,
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    /// `Some` until `Drop` takes it; the std guard is released *before*
    /// the model unlock so the next model-granted holder can take it
    /// without contention.
    std_guard: Option<std::sync::MutexGuard<'a, T>>,
    mutex: &'a Mutex<T>,
    /// The scheduler participation of the locking thread, when any.
    ctl: Option<Ctx>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            id: RawUsize::new(0),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn raw_lock(&self) -> std::sync::MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match model::ctx() {
            None => MutexGuard {
                std_guard: Some(self.raw_lock()),
                mutex: self,
                ctl: None,
            },
            Some(ctx) => {
                ctx.sched.mutex_lock(ctx.tid, object_id(&self.id));
                MutexGuard {
                    // Model ownership granted: the std lock is free (the
                    // previous holder released it before its model unlock).
                    std_guard: Some(self.raw_lock()),
                    mutex: self,
                    ctl: Some(ctx),
                }
            }
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match model::ctx() {
            None => match self.inner.try_lock() {
                Ok(guard) => Some(MutexGuard {
                    std_guard: Some(guard),
                    mutex: self,
                    ctl: None,
                }),
                Err(TryLockError::Poisoned(poisoned)) => Some(MutexGuard {
                    std_guard: Some(poisoned.into_inner()),
                    mutex: self,
                    ctl: None,
                }),
                Err(TryLockError::WouldBlock) => None,
            },
            Some(ctx) => {
                if ctx.sched.mutex_try_lock(ctx.tid, object_id(&self.id)) {
                    Some(MutexGuard {
                        std_guard: Some(self.raw_lock()),
                        mutex: self,
                        ctl: Some(ctx),
                    })
                } else {
                    None
                }
            }
        }
    }

    /// Returns a mutable reference to the protected value.
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Order matters: free the std lock first, then release model
        // ownership (which may immediately schedule the next holder).
        self.std_guard = None;
        if let Some(ctx) = self.ctl.take() {
            ctx.sched.mutex_unlock(ctx.tid, object_id(&self.mutex.id));
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std_guard.as_ref().expect("guard taken only in Drop")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std_guard.as_mut().expect("guard taken only in Drop")
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A reader–writer lock (checked build).
///
/// The model treats it as a mutex — writer semantics for every guard —
/// which over-serialises readers but preserves soundness and still
/// explores all lock-ordering interleavings. No code in this workspace
/// currently relies on read-parallelism for correctness.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    id: RawUsize,
    inner: std::sync::RwLock<T>,
}

/// RAII read guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    std_guard: Option<std::sync::RwLockReadGuard<'a, T>>,
    lock: &'a RwLock<T>,
    ctl: Option<Ctx>,
}

/// RAII write guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    std_guard: Option<std::sync::RwLockWriteGuard<'a, T>>,
    lock: &'a RwLock<T>,
    ctl: Option<Ctx>,
}

impl<T> RwLock<T> {
    /// Creates a new lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            id: RawUsize::new(0),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access (modelled as exclusive).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let ctl = model::ctx();
        if let Some(ctx) = &ctl {
            ctx.sched.mutex_lock(ctx.tid, object_id(&self.id));
        }
        let std_guard = match self.inner.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        RwLockReadGuard {
            std_guard: Some(std_guard),
            lock: self,
            ctl,
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let ctl = model::ctx();
        if let Some(ctx) = &ctl {
            ctx.sched.mutex_lock(ctx.tid, object_id(&self.id));
        }
        let std_guard = match self.inner.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        RwLockWriteGuard {
            std_guard: Some(std_guard),
            lock: self,
            ctl,
        }
    }

    /// Attempts shared read access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match model::ctx() {
            None => match self.inner.try_read() {
                Ok(g) => Some(RwLockReadGuard {
                    std_guard: Some(g),
                    lock: self,
                    ctl: None,
                }),
                Err(TryLockError::Poisoned(p)) => Some(RwLockReadGuard {
                    std_guard: Some(p.into_inner()),
                    lock: self,
                    ctl: None,
                }),
                Err(TryLockError::WouldBlock) => None,
            },
            Some(ctx) => {
                if ctx.sched.mutex_try_lock(ctx.tid, object_id(&self.id)) {
                    let g = match self.inner.try_read() {
                        Ok(g) => g,
                        Err(TryLockError::Poisoned(p)) => p.into_inner(),
                        Err(TryLockError::WouldBlock) => {
                            unreachable!("model grant implies the std lock is free")
                        }
                    };
                    Some(RwLockReadGuard {
                        std_guard: Some(g),
                        lock: self,
                        ctl: Some(ctx),
                    })
                } else {
                    None
                }
            }
        }
    }

    /// Attempts exclusive write access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match model::ctx() {
            None => match self.inner.try_write() {
                Ok(g) => Some(RwLockWriteGuard {
                    std_guard: Some(g),
                    lock: self,
                    ctl: None,
                }),
                Err(TryLockError::Poisoned(p)) => Some(RwLockWriteGuard {
                    std_guard: Some(p.into_inner()),
                    lock: self,
                    ctl: None,
                }),
                Err(TryLockError::WouldBlock) => None,
            },
            Some(ctx) => {
                if ctx.sched.mutex_try_lock(ctx.tid, object_id(&self.id)) {
                    let g = match self.inner.try_write() {
                        Ok(g) => g,
                        Err(TryLockError::Poisoned(p)) => p.into_inner(),
                        Err(TryLockError::WouldBlock) => {
                            unreachable!("model grant implies the std lock is free")
                        }
                    };
                    Some(RwLockWriteGuard {
                        std_guard: Some(g),
                        lock: self,
                        ctl: Some(ctx),
                    })
                } else {
                    None
                }
            }
        }
    }

    /// Returns a mutable reference to the protected value.
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

macro_rules! rw_guard_common {
    ($guard:ident, $std:ident) => {
        impl<T: ?Sized> Drop for $guard<'_, T> {
            fn drop(&mut self) {
                self.std_guard = None;
                if let Some(ctx) = self.ctl.take() {
                    ctx.sched.mutex_unlock(ctx.tid, object_id(&self.lock.id));
                }
            }
        }

        impl<T: ?Sized> std::ops::Deref for $guard<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                self.std_guard.as_ref().expect("guard taken only in Drop")
            }
        }
    };
}

rw_guard_common!(RwLockReadGuard, RwLockReadGuardStd);
rw_guard_common!(RwLockWriteGuard, RwLockWriteGuardStd);

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std_guard.as_mut().expect("guard taken only in Drop")
    }
}

/// A condition variable paired with [`Mutex`] guards (checked).
#[derive(Debug, Default)]
pub struct Condvar {
    id: RawUsize,
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            id: RawUsize::new(0),
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard and blocks until notified, then
    /// reacquires the lock.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        match guard.ctl.clone() {
            None => {
                let std_guard = guard.std_guard.take().expect("live guard");
                let mutex = guard.mutex;
                std::mem::forget(guard); // std path: nothing model-side to undo
                let inner = match self.inner.wait(std_guard) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                MutexGuard {
                    std_guard: Some(inner),
                    mutex,
                    ctl: None,
                }
            }
            Some(ctx) => {
                let mutex = guard.mutex;
                let mid = object_id(&mutex.id);
                // Release the std lock, then hand the whole
                // park/reacquire dance to the scheduler.
                guard.std_guard = None;
                guard.ctl = None;
                std::mem::forget(guard);
                ctx.sched.condvar_wait(ctx.tid, object_id(&self.id), mid);
                MutexGuard {
                    std_guard: Some(mutex.raw_lock()),
                    mutex,
                    ctl: Some(ctx),
                }
            }
        }
    }

    /// [`Condvar::wait`] with a timeout; the boolean is `true` when the
    /// wait timed out. Under an active schedule the timeout is modelled
    /// as a plain wait (virtual schedules have no wall clock): a
    /// scenario that depends on timeouts firing must model the timeout
    /// as an explicit notify.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        match guard.ctl.clone() {
            None => {
                let mut guard = guard;
                let std_guard = guard.std_guard.take().expect("live guard");
                let mutex = guard.mutex;
                std::mem::forget(guard);
                let (inner, result) = match self.inner.wait_timeout(std_guard, timeout) {
                    Ok(pair) => pair,
                    Err(poisoned) => poisoned.into_inner(),
                };
                (
                    MutexGuard {
                        std_guard: Some(inner),
                        mutex,
                        ctl: None,
                    },
                    result.timed_out(),
                )
            }
            Some(_) => (self.wait(guard), false),
        }
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        if let Some(ctx) = model::ctx() {
            ctx.sched
                .condvar_notify(ctx.tid, object_id(&self.id), false);
        }
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        if let Some(ctx) = model::ctx() {
            ctx.sched.condvar_notify(ctx.tid, object_id(&self.id), true);
        }
        self.inner.notify_all();
    }
}

pub use std::sync::atomic::Ordering;

macro_rules! checked_atomic {
    ($(#[$meta:meta])* $name:ident, $std:ty, $prim:ty) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $name {
            loc: RawUsize,
            inner: $std,
        }

        impl $name {
            /// Creates a new atomic holding `value`.
            pub const fn new(value: $prim) -> Self {
                $name {
                    loc: RawUsize::new(0),
                    inner: <$std>::new(value),
                }
            }

            fn on_load(&self, order: Ordering, site: crate::model::Site) {
                if let Some(ctx) = model::ctx() {
                    ctx.sched.atomic_load(ctx.tid, object_id(&self.loc), order, site);
                }
            }

            fn on_store(&self, order: Ordering, site: crate::model::Site) {
                if let Some(ctx) = model::ctx() {
                    ctx.sched.atomic_store(ctx.tid, object_id(&self.loc), order, site);
                }
            }

            fn on_rmw(&self, order: Ordering, site: crate::model::Site) {
                if let Some(ctx) = model::ctx() {
                    ctx.sched.atomic_rmw(ctx.tid, object_id(&self.loc), order, site);
                }
            }

            /// Loads the value with the given ordering.
            #[track_caller]
            pub fn load(&self, order: Ordering) -> $prim {
                self.on_load(order, Location::caller());
                // The cell always holds the newest value: the model
                // explores interleavings, not store buffers.
                self.inner.load(Ordering::SeqCst)
            }

            /// Stores `value` with the given ordering.
            #[track_caller]
            pub fn store(&self, value: $prim, order: Ordering) {
                self.on_store(order, Location::caller());
                self.inner.store(value, Ordering::SeqCst)
            }

            /// Swaps in `value`, returning the previous value.
            #[track_caller]
            pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                self.on_rmw(order, Location::caller());
                self.inner.swap(value, Ordering::SeqCst)
            }

            /// Compare-and-exchange; on success returns `Ok(previous)`.
            #[track_caller]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                _failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.on_rmw(success, Location::caller());
                self.inner
                    .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            }

            /// Weak compare-and-exchange (may fail spuriously).
            #[track_caller]
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.compare_exchange(current, new, success, failure)
            }

            /// Applies `f` until it succeeds or returns `None` — one
            /// schedule point for the whole RMW.
            #[track_caller]
            pub fn fetch_update<F>(
                &self,
                set_order: Ordering,
                _fetch_order: Ordering,
                f: F,
            ) -> Result<$prim, $prim>
            where
                F: FnMut($prim) -> Option<$prim>,
            {
                self.on_rmw(set_order, Location::caller());
                self.inner
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, f)
            }

            /// Returns a mutable reference to the value.
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }

            /// Consumes the atomic and returns the value.
            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }
        }
    };
}

macro_rules! checked_atomic_int {
    ($name:ident, $prim:ty) => {
        impl $name {
            /// Adds, returning the previous value.
            #[track_caller]
            pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                self.on_rmw(order, Location::caller());
                self.inner.fetch_add(value, Ordering::SeqCst)
            }

            /// Subtracts, returning the previous value.
            #[track_caller]
            pub fn fetch_sub(&self, value: $prim, order: Ordering) -> $prim {
                self.on_rmw(order, Location::caller());
                self.inner.fetch_sub(value, Ordering::SeqCst)
            }

            /// Bitwise-ors, returning the previous value.
            #[track_caller]
            pub fn fetch_or(&self, value: $prim, order: Ordering) -> $prim {
                self.on_rmw(order, Location::caller());
                self.inner.fetch_or(value, Ordering::SeqCst)
            }

            /// Bitwise-ands, returning the previous value.
            #[track_caller]
            pub fn fetch_and(&self, value: $prim, order: Ordering) -> $prim {
                self.on_rmw(order, Location::caller());
                self.inner.fetch_and(value, Ordering::SeqCst)
            }

            /// Stores the maximum, returning the previous value.
            #[track_caller]
            pub fn fetch_max(&self, value: $prim, order: Ordering) -> $prim {
                self.on_rmw(order, Location::caller());
                self.inner.fetch_max(value, Ordering::SeqCst)
            }

            /// Stores the minimum, returning the previous value.
            #[track_caller]
            pub fn fetch_min(&self, value: $prim, order: Ordering) -> $prim {
                self.on_rmw(order, Location::caller());
                self.inner.fetch_min(value, Ordering::SeqCst)
            }
        }
    };
}

checked_atomic!(
    /// Facade over [`std::sync::atomic::AtomicBool`] (checked).
    AtomicBool,
    std::sync::atomic::AtomicBool,
    bool
);
checked_atomic!(
    /// Facade over [`std::sync::atomic::AtomicU32`] (checked).
    AtomicU32,
    std::sync::atomic::AtomicU32,
    u32
);
checked_atomic!(
    /// Facade over [`std::sync::atomic::AtomicU64`] (checked).
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64
);
checked_atomic!(
    /// Facade over [`std::sync::atomic::AtomicUsize`] (checked).
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);

checked_atomic_int!(AtomicU32, u32);
checked_atomic_int!(AtomicU64, u64);
checked_atomic_int!(AtomicUsize, usize);

impl AtomicBool {
    /// Bitwise-ors, returning the previous value.
    #[track_caller]
    pub fn fetch_or(&self, value: bool, order: Ordering) -> bool {
        self.on_rmw(order, Location::caller());
        self.inner.fetch_or(value, Ordering::SeqCst)
    }

    /// Bitwise-ands, returning the previous value.
    #[track_caller]
    pub fn fetch_and(&self, value: bool, order: Ordering) -> bool {
        self.on_rmw(order, Location::caller());
        self.inner.fetch_and(value, Ordering::SeqCst)
    }
}

/// Thread management routed through the facade (checked).
pub mod thread {
    use crate::model::{self, Ctx, ModelAbort};

    /// Scoped threads, re-exported from `std` as-is: children may borrow
    /// from the caller's stack and are all joined before `scope` returns.
    /// They run outside any active schedule (unscheduled, like a thread
    /// that is not participating in the model).
    pub use std::thread::{scope, Scope, ScopedJoinHandle};

    /// Handle to a spawned facade thread.
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<T>,
        model: Option<(std::sync::Arc<crate::model::Scheduler>, usize)>,
    }

    impl<T> std::fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("JoinHandle").finish_non_exhaustive()
        }
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish and returns its result.
        pub fn join(self) -> std::thread::Result<T> {
            if let Some((sched, target)) = &self.model {
                if let Some(ctx) = model::ctx() {
                    sched.thread_join(ctx.tid, *target);
                }
            }
            self.inner.join()
        }

        /// True once the thread has finished executing.
        pub fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }
    }

    fn spawn_inner<F, T>(std_builder: std::thread::Builder, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match model::ctx() {
            None => Ok(JoinHandle {
                inner: std_builder.spawn(f)?,
                model: None,
            }),
            Some(ctx) => {
                let tid = ctx.sched.register_thread(ctx.tid);
                let sched = ctx.sched.clone();
                let spawned = std_builder.spawn(move || {
                    model::enter_thread(Ctx {
                        sched: sched.clone(),
                        tid,
                    });
                    // first_schedule parks until the scheduler grants the
                    // token; it sits inside catch_unwind because it aborts
                    // (ModelAbort) when the schedule has already failed.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        sched.first_schedule(tid);
                        f()
                    }));
                    model::leave_thread();
                    match result {
                        Ok(value) => {
                            sched.thread_finish(tid);
                            value
                        }
                        Err(payload) => {
                            if payload.downcast_ref::<ModelAbort>().is_some() {
                                sched.thread_exit_after_abort(tid);
                            } else {
                                sched.thread_panicked(
                                    tid,
                                    crate::panic_message(payload.as_ref()).to_string(),
                                );
                            }
                            std::panic::resume_unwind(payload);
                        }
                    }
                });
                let inner = match spawned {
                    Ok(handle) => handle,
                    Err(err) => {
                        // The registered slot would otherwise keep the
                        // schedule's live count from draining.
                        ctx.sched.unregister_thread(tid);
                        return Err(err);
                    }
                };
                // Spawn is itself a schedule point: the child may run
                // immediately or the parent may race ahead.
                ctx.sched.yield_point(ctx.tid);
                Ok(JoinHandle {
                    inner,
                    model: Some((ctx.sched, tid)),
                })
            }
        }
    }

    /// Spawns a new thread running `f`.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        spawn_inner(std::thread::Builder::new(), f).expect("failed to spawn thread")
    }

    /// Thread factory with configuration (name, stack size).
    #[derive(Debug)]
    pub struct Builder {
        inner: std::thread::Builder,
    }

    impl Default for Builder {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Builder {
        /// Creates a builder with default configuration.
        pub fn new() -> Self {
            Builder {
                inner: std::thread::Builder::new(),
            }
        }

        /// Names the thread.
        pub fn name(self, name: String) -> Self {
            Builder {
                inner: self.inner.name(name),
            }
        }

        /// Spawns the thread; errors if the OS refuses.
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            spawn_inner(self.inner, f)
        }
    }

    /// Sleeps outside a schedule; inside one it is a pure yield point
    /// (virtual schedules have no wall clock to advance).
    pub fn sleep(dur: std::time::Duration) {
        match model::ctx() {
            None => std::thread::sleep(dur),
            Some(ctx) => ctx.sched.yield_point(ctx.tid),
        }
    }

    /// Cooperatively yields: a schedule point under the model.
    pub fn yield_now() {
        match model::ctx() {
            None => std::thread::yield_now(),
            Some(ctx) => ctx.sched.yield_point(ctx.tid),
        }
    }

    /// An estimate of the parallelism the host offers.
    pub fn available_parallelism() -> std::io::Result<std::num::NonZeroUsize> {
        std::thread::available_parallelism()
    }
}
