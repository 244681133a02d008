//! Per-worker bounded task deques with a work-stealing protocol.
//!
//! Before this module every worker pop went through its machine's single
//! `Mutex<TaskQueue>` — one cache line ping-ponging across every mining
//! thread of the machine. [`WorkerQueues`] gives each worker its own bounded
//! deque behind its own lock:
//!
//! * **local push/pop are LIFO** (`push_back`/`pop_back`) — a worker keeps
//!   working on the subtrees it just decomposed while they are still hot in
//!   cache, and its lock is uncontended in the common case;
//! * **steals are FIFO** (`pop_front`) — a thief takes the victim's *oldest*
//!   tasks, which for the quasi-clique app are the closest to the root and
//!   therefore the largest remaining units of work, in batches of
//!   `steal_batch` to amortise the victim-lock acquisition;
//! * **grants to another machine take cold ends too** —
//!   [`WorkerQueues::take_cold`] drains the oldest tasks of the fullest
//!   deques for a machine that ran dry;
//! * **overflow spills to the machine's global queue** — the deque is
//!   bounded by `local_capacity`; beyond it, tasks take the old path into the
//!   spill-backed global queue, so the paper's bounded-memory spilling
//!   semantics (Figure 8) are preserved, as is the big-task lane: big tasks
//!   never enter a worker deque at all.

use qcm_graph::neighborhoods::perf;
use qcm_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use qcm_sync::Mutex;
use std::collections::VecDeque;

/// One deque per worker thread plus the steal protocol over them.
#[derive(Debug)]
pub struct WorkerQueues<T> {
    slots: Vec<Slot<T>>,
    local_capacity: usize,
    steal_batch: usize,
    steals: AtomicU64,
    steal_failures: AtomicU64,
}

#[derive(Debug)]
struct Slot<T> {
    deque: Mutex<VecDeque<T>>,
    /// Length mirror read lock-free by thieves when picking a victim. Only
    /// advisory: the deque's lock is the source of truth.
    len: AtomicUsize,
}

impl<T> WorkerQueues<T> {
    /// Creates `workers` empty deques bounded at `local_capacity` tasks each.
    /// `steal_batch` (at least 1) is the number of tasks a successful steal
    /// moves.
    pub fn new(workers: usize, local_capacity: usize, steal_batch: usize) -> Self {
        WorkerQueues {
            slots: (0..workers)
                .map(|_| Slot {
                    deque: Mutex::new(VecDeque::new()),
                    len: AtomicUsize::new(0),
                })
                .collect(),
            local_capacity: local_capacity.max(1),
            steal_batch,
            steals: AtomicU64::new(0),
            steal_failures: AtomicU64::new(0),
        }
    }

    /// Pushes to the hot (LIFO) end of `worker`'s own deque. Returns the task
    /// back when the deque is at capacity — the caller overflows it into the
    /// machine's spill-backed global queue.
    pub fn push_local(&self, worker: usize, task: T) -> Result<(), T> {
        let slot = &self.slots[worker];
        let mut deque = slot.deque.lock();
        if deque.len() >= self.local_capacity {
            return Err(task);
        }
        deque.push_back(task);
        // ordering: Relaxed — advisory mirror of the deque length for lock-free
        // victim selection; the deque mutex is the source of truth.
        slot.len.store(deque.len(), Ordering::Relaxed);
        Ok(())
    }

    /// Pops from the hot (LIFO) end of `worker`'s own deque.
    pub fn pop_local(&self, worker: usize) -> Option<T> {
        let slot = &self.slots[worker];
        let mut deque = slot.deque.lock();
        let task = deque.pop_back();
        // ordering: Relaxed — advisory mirror of the deque length for lock-free
        // victim selection; the deque mutex is the source of truth.
        slot.len.store(deque.len(), Ordering::Relaxed);
        task
    }

    /// Advisory length of `worker`'s deque (lock-free).
    pub fn approx_len(&self, worker: usize) -> usize {
        // ordering: Relaxed — advisory read; steal_into re-checks under the lock.
        self.slots[worker].len.load(Ordering::Relaxed)
    }

    /// Tasks across all deques (advisory).
    pub fn total_approx_len(&self) -> usize {
        self.slots
            .iter()
            // ordering: Relaxed — advisory sum; idle/steal heuristics only.
            .map(|s| s.len.load(Ordering::Relaxed))
            .sum()
    }

    /// Attempts to steal up to `steal_batch` tasks from the fullest victim in
    /// `victims` (FIFO end — the victim's oldest work). The first stolen task
    /// is returned for immediate processing, the rest land in the thief's own
    /// deque. Returns `None` when every victim was empty (counted as a steal
    /// failure) or when the range names no victim.
    pub fn steal_into(&self, thief: usize, victims: std::ops::Range<usize>) -> Option<T> {
        let mut candidates = false;
        let mut best = thief;
        let mut best_len = 0usize;
        for v in victims {
            if v == thief || v >= self.slots.len() {
                continue;
            }
            candidates = true;
            let len = self.approx_len(v);
            if len > best_len {
                best = v;
                best_len = len;
            }
        }
        if !candidates {
            return None;
        }
        if best_len == 0 {
            // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
            self.steal_failures.fetch_add(1, Ordering::Relaxed);
            perf::count_steal_failures(1);
            return None;
        }
        // Clamp the batch so the remainder never pushes the thief's deque
        // past its bound (the first task is processed immediately and never
        // enqueued, hence the +1). The advisory length is enough: the thief
        // is the only pusher of its own deque.
        let room = self
            .local_capacity
            .saturating_sub(self.approx_len(thief))
            .saturating_add(1);
        let (first, rest) = {
            let slot = &self.slots[best];
            let mut victim = slot.deque.lock();
            let take = self.steal_batch.min(room).min(victim.len());
            let mut batch = victim.drain(..take);
            let first = batch.next();
            let rest: Vec<T> = batch.by_ref().collect();
            drop(batch);
            // ordering: Relaxed — advisory mirror update under the victim's lock.
            slot.len.store(victim.len(), Ordering::Relaxed);
            (first, rest)
        };
        let first = match first {
            Some(t) => t,
            None => {
                // The victim drained between the advisory read and the lock.
                // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
                self.steal_failures.fetch_add(1, Ordering::Relaxed);
                perf::count_steal_failures(1);
                return None;
            }
        };
        let moved = 1 + rest.len() as u64;
        if !rest.is_empty() {
            let slot = &self.slots[thief];
            let mut own = slot.deque.lock();
            own.extend(rest);
            // ordering: Relaxed — advisory mirror update under the thief's lock.
            slot.len.store(own.len(), Ordering::Relaxed);
        }
        // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
        self.steals.fetch_add(moved, Ordering::Relaxed);
        perf::count_steals(moved);
        Some(first)
    }

    /// Takes up to `n` tasks from the cold (FIFO) ends of the deques, fullest
    /// deque first, for a steal grant to another machine: each deque gives
    /// its oldest tasks, oldest first. Not counted as a steal — the receiving
    /// machine counts what arrives.
    pub fn take_cold(&self, n: usize) -> Vec<T> {
        let mut order: Vec<usize> = (0..self.slots.len()).collect();
        order.sort_by_key(|&w| std::cmp::Reverse(self.approx_len(w)));
        let mut taken = Vec::new();
        for w in order {
            if taken.len() == n {
                break;
            }
            let slot = &self.slots[w];
            let mut deque = slot.deque.lock();
            let take = (n - taken.len()).min(deque.len());
            taken.extend(deque.drain(..take));
            // ordering: Relaxed — advisory mirror update under the deque's lock.
            slot.len.store(deque.len(), Ordering::Relaxed);
        }
        taken
    }

    /// Tasks moved by successful steals so far.
    pub fn steals(&self) -> u64 {
        // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
        self.steals.load(Ordering::Relaxed)
    }

    /// Steal sweeps that found every victim empty.
    pub fn steal_failures(&self) -> u64 {
        // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
        self.steal_failures.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_push_pop_is_lifo() {
        let q: WorkerQueues<u32> = WorkerQueues::new(2, 8, 2);
        for i in 0..4 {
            q.push_local(0, i).unwrap();
        }
        assert_eq!(q.approx_len(0), 4);
        assert_eq!(q.pop_local(0), Some(3));
        assert_eq!(q.pop_local(0), Some(2));
        assert_eq!(q.total_approx_len(), 2);
    }

    #[test]
    fn push_beyond_capacity_returns_the_task() {
        let q: WorkerQueues<u32> = WorkerQueues::new(1, 2, 1);
        q.push_local(0, 1).unwrap();
        q.push_local(0, 2).unwrap();
        assert_eq!(q.push_local(0, 3), Err(3));
        assert_eq!(q.approx_len(0), 2);
    }

    #[test]
    fn steal_takes_the_oldest_batch_from_the_fullest_victim() {
        let q: WorkerQueues<u32> = WorkerQueues::new(3, 16, 2);
        for i in 0..6 {
            q.push_local(1, i).unwrap();
        }
        q.push_local(2, 100).unwrap();
        let got = q.steal_into(0, 0..3);
        // Victim 1 is fullest; FIFO steal takes 0 and 1; 0 comes back for
        // immediate processing, 1 lands in the thief's deque.
        assert_eq!(got, Some(0));
        assert_eq!(q.pop_local(0), Some(1));
        assert_eq!(q.steals(), 2);
        // The victim's own LIFO end is untouched.
        assert_eq!(q.pop_local(1), Some(5));
    }

    #[test]
    fn steals_never_overflow_the_thief_deque_bound() {
        let q: WorkerQueues<u32> = WorkerQueues::new(3, 2, 8);
        q.push_local(0, 100).unwrap();
        q.push_local(0, 101).unwrap();
        for i in 0..2 {
            q.push_local(1, i).unwrap();
            q.push_local(2, i + 10).unwrap();
        }
        // A full thief still gets one task to process but enqueues none,
        // despite steal_batch = 8.
        assert_eq!(q.steal_into(0, 1..2), Some(0));
        assert_eq!(q.approx_len(0), 2);
        assert_eq!(q.steals(), 1);
        // With one free slot, at most one task is enqueued + one returned.
        q.pop_local(0).unwrap();
        assert_eq!(q.steal_into(0, 2..3), Some(10));
        assert_eq!(q.approx_len(0), 2);
        assert_eq!(q.steals(), 3);
    }

    #[test]
    fn take_cold_drains_the_oldest_tasks_of_the_fullest_deques_first() {
        let q: WorkerQueues<u32> = WorkerQueues::new(3, 16, 2);
        q.push_local(0, 100).unwrap();
        for i in 0..4 {
            q.push_local(1, i).unwrap();
        }
        q.push_local(2, 200).unwrap();
        q.push_local(2, 201).unwrap();
        // Deque 1 (four tasks) gives all it has, oldest first, then deque 2.
        assert_eq!(q.take_cold(5), vec![0, 1, 2, 3, 200]);
        assert_eq!(q.approx_len(1), 0);
        assert_eq!(q.pop_local(2), Some(201));
        assert_eq!(q.take_cold(3), vec![100]);
        assert!(q.take_cold(3).is_empty());
        assert_eq!(q.steals(), 0, "a grant is not an intra-machine steal");
    }

    #[test]
    fn failed_and_disabled_steals_are_distinguished() {
        let q: WorkerQueues<u32> = WorkerQueues::new(2, 8, 2);
        assert_eq!(q.steal_into(0, 0..2), None);
        assert_eq!(q.steal_failures(), 1);
        // Single-worker range: no candidate victims, not a failure.
        assert_eq!(q.steal_into(0, 0..1), None);
        assert_eq!(q.steal_failures(), 1);
    }
}
