//! Zero-cost passthrough implementations: every type is a transparent
//! wrapper over its `std::sync` counterpart with a non-poisoning API
//! (`lock()` returns the guard, never a `LockResult`). This module is
//! compiled when the `model-check` feature is **off** — the normal build of
//! the whole workspace.
//!
//! The non-poisoning contract matters: a panic in one worker already
//! aborts the run at a higher level (the service fails the job, the
//! engine surfaces the panic), so every `lock()` here recovers the
//! inner guard instead of propagating a `PoisonError` that callers
//! would have to `unwrap_or_else` around at every site.

use std::sync::TryLockError;

/// A mutual-exclusion primitive with a non-poisoning API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    #[inline]
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        MutexGuard { inner }
    }

    /// Attempts to acquire the lock without blocking.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(inner) => Some(MutexGuard { inner }),
            Err(TryLockError::Poisoned(poisoned)) => Some(MutexGuard {
                inner: poisoned.into_inner(),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the protected value (no locking
    /// needed: the borrow proves exclusive access).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A reader–writer lock with a non-poisoning API.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// RAII read guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// RAII write guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates a new lock protecting `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock and returns the protected value.
    #[inline]
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.inner.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Acquires exclusive write access, blocking until available.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.inner.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Attempts shared read access without blocking.
    #[inline]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts exclusive write access without blocking.
    #[inline]
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the protected value.
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A condition variable paired with [`Mutex`] guards.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    #[inline]
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard and blocks until notified, then
    /// reacquires the lock.
    #[inline]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let inner = match self.inner.wait(guard.inner) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        MutexGuard { inner }
    }

    /// [`Condvar::wait`] with a timeout; the boolean is `true` when the
    /// wait timed out rather than being notified.
    #[inline]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (inner, result) = match self.inner.wait_timeout(guard.inner, timeout) {
            Ok(pair) => pair,
            Err(poisoned) => poisoned.into_inner(),
        };
        (MutexGuard { inner }, result.timed_out())
    }

    /// Wakes one waiting thread.
    #[inline]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

macro_rules! passthrough_atomic {
    ($(#[$meta:meta])* $name:ident, $std:ty, $prim:ty) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        #[repr(transparent)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Creates a new atomic holding `value`.
            #[inline]
            pub const fn new(value: $prim) -> Self {
                $name { inner: <$std>::new(value) }
            }

            /// Loads the value with the given ordering.
            #[inline]
            pub fn load(&self, order: Ordering) -> $prim {
                self.inner.load(order)
            }

            /// Stores `value` with the given ordering.
            #[inline]
            pub fn store(&self, value: $prim, order: Ordering) {
                self.inner.store(value, order)
            }

            /// Swaps in `value`, returning the previous value.
            #[inline]
            pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                self.inner.swap(value, order)
            }

            /// Compare-and-exchange; on success returns `Ok(previous)`.
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.inner.compare_exchange(current, new, success, failure)
            }

            /// Weak compare-and-exchange (may fail spuriously).
            #[inline]
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.inner.compare_exchange_weak(current, new, success, failure)
            }

            /// Applies `f` until it succeeds or returns `None`.
            #[inline]
            pub fn fetch_update<F>(
                &self,
                set_order: Ordering,
                fetch_order: Ordering,
                f: F,
            ) -> Result<$prim, $prim>
            where
                F: FnMut($prim) -> Option<$prim>,
            {
                self.inner.fetch_update(set_order, fetch_order, f)
            }

            /// Returns a mutable reference to the value.
            #[inline]
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }

            /// Consumes the atomic and returns the value.
            #[inline]
            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }
        }
    };
}

macro_rules! passthrough_atomic_int {
    ($name:ident, $prim:ty) => {
        impl $name {
            /// Adds, returning the previous value.
            #[inline]
            pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                self.inner.fetch_add(value, order)
            }

            /// Subtracts, returning the previous value.
            #[inline]
            pub fn fetch_sub(&self, value: $prim, order: Ordering) -> $prim {
                self.inner.fetch_sub(value, order)
            }

            /// Bitwise-ors, returning the previous value.
            #[inline]
            pub fn fetch_or(&self, value: $prim, order: Ordering) -> $prim {
                self.inner.fetch_or(value, order)
            }

            /// Bitwise-ands, returning the previous value.
            #[inline]
            pub fn fetch_and(&self, value: $prim, order: Ordering) -> $prim {
                self.inner.fetch_and(value, order)
            }

            /// Stores the maximum, returning the previous value.
            #[inline]
            pub fn fetch_max(&self, value: $prim, order: Ordering) -> $prim {
                self.inner.fetch_max(value, order)
            }

            /// Stores the minimum, returning the previous value.
            #[inline]
            pub fn fetch_min(&self, value: $prim, order: Ordering) -> $prim {
                self.inner.fetch_min(value, order)
            }
        }
    };
}

pub use std::sync::atomic::Ordering;

passthrough_atomic!(
    /// Facade over [`std::sync::atomic::AtomicBool`].
    AtomicBool,
    std::sync::atomic::AtomicBool,
    bool
);
passthrough_atomic!(
    /// Facade over [`std::sync::atomic::AtomicU32`].
    AtomicU32,
    std::sync::atomic::AtomicU32,
    u32
);
passthrough_atomic!(
    /// Facade over [`std::sync::atomic::AtomicU64`].
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64
);
passthrough_atomic!(
    /// Facade over [`std::sync::atomic::AtomicUsize`].
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);

passthrough_atomic_int!(AtomicU32, u32);
passthrough_atomic_int!(AtomicU64, u64);
passthrough_atomic_int!(AtomicUsize, usize);

impl AtomicBool {
    /// Bitwise-ors, returning the previous value.
    #[inline]
    pub fn fetch_or(&self, value: bool, order: Ordering) -> bool {
        self.inner.fetch_or(value, order)
    }

    /// Bitwise-ands, returning the previous value.
    #[inline]
    pub fn fetch_and(&self, value: bool, order: Ordering) -> bool {
        self.inner.fetch_and(value, order)
    }
}

/// Thread management routed through the facade.
pub mod thread {
    /// Scoped threads, re-exported from `std` as-is: children may borrow
    /// from the caller's stack and are all joined before `scope` returns.
    pub use std::thread::{scope, Scope, ScopedJoinHandle};

    /// Handle to a spawned facade thread.
    #[derive(Debug)]
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<T>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish and returns its result
        /// (`Err` carries the panic payload, as with `std`).
        pub fn join(self) -> std::thread::Result<T> {
            self.inner.join()
        }

        /// True once the thread has finished executing.
        pub fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }
    }

    /// Spawns a new thread running `f`.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        JoinHandle {
            inner: std::thread::spawn(f),
        }
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
            Ok(JoinHandle {
                inner: self.inner.spawn(f)?,
            })
        }
    }

    /// Puts the current thread to sleep for `dur`.
    pub fn sleep(dur: std::time::Duration) {
        std::thread::sleep(dur)
    }

    /// Cooperatively yields the current thread's timeslice.
    pub fn yield_now() {
        std::thread::yield_now()
    }

    /// An estimate of the parallelism the host offers.
    pub fn available_parallelism() -> std::io::Result<std::num::NonZeroUsize> {
        std::thread::available_parallelism()
    }
}
