//! Bounded task queues with disk spilling.
//!
//! Each mining thread owns a local [`TaskQueue`] for small tasks and every
//! machine owns one for big tasks (the yellow global queue added by the
//! paper's reforge, Figure 8). When a queue is full, a batch of `C` tasks from
//! its tail is spilled to the associated [`SpillStore`]; when it runs low it
//! refills from spilled batches first, so the number of partially processed
//! tasks buffered on disk stays small.

use crate::spill::SpillStore;
use crate::task::TaskCodec;
use std::collections::VecDeque;

/// What one refill brought back from the spill store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Refilled {
    /// Tasks decoded back into the queue.
    pub restored: usize,
    /// Tasks the batch held that did not come back: its file could not be
    /// read in full, or a task in it did not decode.
    pub lost: usize,
}

/// A bounded FIFO task queue backed by a spill store.
#[derive(Debug)]
pub struct TaskQueue<T> {
    deque: VecDeque<T>,
    capacity: usize,
    batch: usize,
    spill: SpillStore,
}

impl<T: TaskCodec> TaskQueue<T> {
    /// Creates a queue with the given in-memory capacity, spill batch size and
    /// spill store.
    pub fn new(capacity: usize, batch: usize, spill: SpillStore) -> Self {
        assert!(batch >= 1 && capacity >= batch);
        TaskQueue {
            deque: VecDeque::with_capacity(capacity),
            capacity,
            batch,
            spill,
        }
    }

    /// Number of tasks currently held in memory.
    pub fn len(&self) -> usize {
        self.deque.len()
    }

    /// True if no task is in memory (spilled tasks may still exist; see
    /// [`TaskQueue::total_pending`]).
    pub fn is_empty(&self) -> bool {
        self.deque.is_empty()
    }

    /// Number of tasks in memory plus spilled to disk.
    pub fn total_pending(&self) -> usize {
        self.deque.len() + self.spill.pending_tasks()
    }

    /// Pushes a task to the tail. If the queue is full, a batch of `C` tasks
    /// from the tail is spilled to disk first to make room. Returns the
    /// number of tasks spilled (0 in the common case), so the caller can
    /// raise a spill notice.
    pub fn push(&mut self, task: T) -> usize {
        let mut spilled = 0;
        if self.deque.len() >= self.capacity {
            let spill_count = self.batch.min(self.deque.len());
            let start = self.deque.len() - spill_count;
            let batch: Vec<T> = self.deque.drain(start..).collect();
            self.spill.spill(&batch);
            spilled = spill_count;
        }
        self.deque.push_back(task);
        spilled
    }

    /// Pops a task from the head.
    pub fn pop(&mut self) -> Option<T> {
        self.deque.pop_front()
    }

    /// True if the in-memory queue holds fewer than one batch — the trigger
    /// the paper uses for refilling.
    pub fn needs_refill(&self) -> bool {
        self.deque.len() < self.batch
    }

    /// Loads the oldest spilled batch back into the in-memory queue. Returns
    /// how many of its tasks came back and how many did not; `None` when
    /// nothing is spilled.
    pub fn refill_from_spill(&mut self) -> Option<Refilled> {
        let spilled = self.spill.pending_tasks();
        let batch = self.spill.refill::<T>()?;
        let restored = batch.len();
        self.deque.extend(batch);
        let lost = spilled - self.spill.pending_tasks() - restored;
        Some(Refilled { restored, lost })
    }

    /// Drains up to `n` tasks from the head (used by the load balancer when a
    /// machine gives away big tasks).
    pub fn take_batch(&mut self, n: usize) -> Vec<T> {
        let n = n.min(self.deque.len());
        self.deque.drain(..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::SpillMetrics;
    use qcm_sync::Arc;

    #[derive(Clone, Debug, PartialEq)]
    struct T(u32);

    impl TaskCodec for T {
        fn encode(&self, buf: &mut Vec<u8>) {
            crate::codec::put_u32(buf, self.0);
        }
        fn decode(data: &mut &[u8]) -> Option<Self> {
            crate::codec::take_u32(data).map(T)
        }
    }

    fn queue(capacity: usize, batch: usize) -> TaskQueue<T> {
        let store = SpillStore::new(None, "q", Arc::new(SpillMetrics::default()));
        TaskQueue::new(capacity, batch, store)
    }

    #[test]
    fn fifo_order_without_overflow() {
        let mut q = queue(8, 2);
        for i in 0..5 {
            q.push(T(i));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.total_pending(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(T(i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_spills_tail_batches() {
        let mut q = queue(4, 2);
        for i in 0..10 {
            q.push(T(i));
        }
        // Capacity 4, batch 2: pushes 0..4 fill it; each further push spills 2.
        assert!(q.len() <= 4);
        assert_eq!(q.total_pending(), 10);
        // The head of the queue must still be the oldest unspilled task.
        assert_eq!(q.pop(), Some(T(0)));
    }

    #[test]
    fn refill_restores_spilled_tasks() {
        let mut q = queue(4, 2);
        for i in 0..10 {
            q.push(T(i));
        }
        let mut seen = Vec::new();
        loop {
            while let Some(t) = q.pop() {
                seen.push(t.0);
            }
            if q.refill_from_spill().is_none() {
                break;
            }
        }
        assert_eq!(q.total_pending(), 0);
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn needs_refill_tracks_batch_threshold() {
        let mut q = queue(8, 3);
        assert!(q.needs_refill());
        for i in 0..3 {
            q.push(T(i));
        }
        assert!(!q.needs_refill());
        q.pop();
        assert!(q.needs_refill());
    }

    #[test]
    fn take_batch_removes_from_head() {
        let mut q = queue(8, 2);
        for i in 0..6 {
            q.push(T(i));
        }
        let taken = q.take_batch(4);
        assert_eq!(taken, vec![T(0), T(1), T(2), T(3)]);
        assert_eq!(q.len(), 2);
        let taken = q.take_batch(10);
        assert_eq!(taken.len(), 2);
        assert!(q.take_batch(1).is_empty());
    }
}
