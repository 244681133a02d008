//! Disk spilling of task batches.
//!
//! When a task queue is full but a new task must be inserted, G-thinker spills
//! a batch of `C` tasks from the tail of the queue to local disk; when a queue
//! runs low it refills from the spilled files first, to keep the volume of
//! partially processed tasks on disk small (Section 5). [`SpillStore`] is that
//! file list (`L_small` per thread, `L_big` per machine). For unit tests the
//! store can also run in a memory-backed mode with identical accounting.

use crate::task::TaskCodec;
use qcm_sync::atomic::{AtomicU64, Ordering};
use qcm_sync::Arc;
use std::collections::VecDeque;
use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;

/// Shared counters describing spill activity (the "Disk" column of Table 2).
#[derive(Debug, Default)]
pub struct SpillMetrics {
    /// Total bytes ever written to spill storage.
    pub bytes_written: AtomicU64,
    /// Total bytes read back.
    pub bytes_read: AtomicU64,
    /// Number of spill batches written.
    pub batches_written: AtomicU64,
    /// Largest number of bytes simultaneously resident in spill storage.
    pub peak_bytes: AtomicU64,
}

impl SpillMetrics {
    fn record_write(&self, bytes: u64, resident: u64) {
        // ordering: Relaxed — spill throughput/peak statistics; the final read
        // happens after workers join.
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.batches_written.fetch_add(1, Ordering::Relaxed);
        self.peak_bytes.fetch_max(resident, Ordering::Relaxed);
    }

    fn record_read(&self, bytes: u64) {
        // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// One spilled batch: either a file on disk or an in-memory buffer.
#[derive(Debug)]
enum Batch {
    File {
        path: PathBuf,
        bytes: u64,
        count: usize,
    },
    Memory {
        data: Vec<u8>,
        count: usize,
    },
}

/// A FIFO list of spilled task batches.
#[derive(Debug)]
pub struct SpillStore {
    /// Spill directory; `None` keeps batches in memory.
    dir: Option<PathBuf>,
    /// Unique name prefix for files from this store.
    prefix: String,
    /// Pending batches, oldest first.
    batches: VecDeque<Batch>,
    /// Sequence number for file names.
    next_seq: u64,
    /// Bytes currently resident (on disk or in memory).
    resident_bytes: u64,
    /// Shared metrics sink.
    metrics: Arc<SpillMetrics>,
}

impl SpillStore {
    /// Creates a store that writes files into `dir` (created if missing), or
    /// keeps batches in memory when `dir` is `None`.
    pub fn new(
        dir: Option<PathBuf>,
        prefix: impl Into<String>,
        metrics: Arc<SpillMetrics>,
    ) -> Self {
        if let Some(d) = &dir {
            let _ = fs::create_dir_all(d);
        }
        SpillStore {
            dir,
            prefix: prefix.into(),
            batches: VecDeque::new(),
            next_seq: 0,
            resident_bytes: 0,
            metrics,
        }
    }

    /// Number of pending batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True if no batches are pending.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Number of tasks across all pending batches.
    pub fn pending_tasks(&self) -> usize {
        self.batches
            .iter()
            .map(|b| match b {
                Batch::File { count, .. } | Batch::Memory { count, .. } => *count,
            })
            .sum()
    }

    /// Spills a batch of tasks (encoded back-to-back). The batch is appended
    /// to the tail of the file list.
    pub fn spill<T: TaskCodec>(&mut self, tasks: &[T]) {
        if tasks.is_empty() {
            return;
        }
        let mut data = Vec::new();
        for t in tasks {
            t.encode(&mut data);
        }
        let bytes = data.len() as u64;
        self.resident_bytes += bytes;
        let batch = match &self.dir {
            Some(dir) => {
                let path = dir.join(format!("{}-{:08}.spill", self.prefix, self.next_seq));
                self.next_seq += 1;
                match fs::File::create(&path).and_then(|mut f| f.write_all(&data)) {
                    Ok(()) => Batch::File {
                        path,
                        bytes,
                        count: tasks.len(),
                    },
                    Err(_) => Batch::Memory {
                        data,
                        count: tasks.len(),
                    },
                }
            }
            None => Batch::Memory {
                data,
                count: tasks.len(),
            },
        };
        self.metrics.record_write(bytes, self.resident_bytes);
        self.batches.push_back(batch);
    }

    /// Loads the oldest batch back into memory, removing it from the store.
    /// Returns `None` when the store is empty. A batch comes back short when
    /// its file cannot be opened or read in full, or a task in it does not
    /// decode: the tasks before the first bad one are returned, the rest are
    /// the caller's shortfall, and only the bytes actually read are counted.
    pub fn refill<T: TaskCodec>(&mut self) -> Option<Vec<T>> {
        let batch = self.batches.pop_front()?;
        let (data, stored) = match batch {
            Batch::File { path, bytes, .. } => {
                let mut buf = Vec::new();
                if let Ok(mut f) = fs::File::open(&path) {
                    let _ = f.read_to_end(&mut buf);
                }
                let _ = fs::remove_file(&path);
                (buf, bytes)
            }
            Batch::Memory { data, .. } => {
                let bytes = data.len() as u64;
                (data, bytes)
            }
        };
        self.resident_bytes = self.resident_bytes.saturating_sub(stored);
        self.metrics.record_read(data.len() as u64);
        let mut slice = data.as_slice();
        let mut tasks = Vec::new();
        while !slice.is_empty() {
            match T::decode(&mut slice) {
                Some(t) => tasks.push(t),
                None => break,
            }
        }
        Some(tasks)
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // Best-effort cleanup of leftover spill files.
        for batch in &self.batches {
            if let Batch::File { path, .. } = batch {
                let _ = fs::remove_file(path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct T(u32, Vec<u32>);

    impl TaskCodec for T {
        fn encode(&self, buf: &mut Vec<u8>) {
            crate::codec::put_u32(buf, self.0);
            crate::codec::put_u32_slice(buf, &self.1);
        }
        fn decode(data: &mut &[u8]) -> Option<Self> {
            let id = crate::codec::take_u32(data)?;
            let list = crate::codec::take_u32_vec(data)?;
            Some(T(id, list))
        }
    }

    fn sample_tasks(n: u32) -> Vec<T> {
        (0..n).map(|i| T(i, vec![i, i + 1, i + 2])).collect()
    }

    #[test]
    fn memory_backed_roundtrip() {
        let metrics = Arc::new(SpillMetrics::default());
        let mut store = SpillStore::new(None, "test", metrics.clone());
        assert!(store.is_empty());
        store.spill(&sample_tasks(5));
        store.spill(&sample_tasks(3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.pending_tasks(), 8);
        let first: Vec<T> = store.refill().unwrap();
        assert_eq!(first, sample_tasks(5));
        let second: Vec<T> = store.refill().unwrap();
        assert_eq!(second, sample_tasks(3));
        assert!(store.refill::<T>().is_none());
        assert!(metrics.bytes_written.load(Ordering::Relaxed) > 0);
        assert_eq!(
            metrics.bytes_written.load(Ordering::Relaxed),
            metrics.bytes_read.load(Ordering::Relaxed)
        );
        assert_eq!(metrics.batches_written.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn disk_backed_roundtrip_and_cleanup() {
        let dir = std::env::temp_dir().join(format!("qcm_spill_test_{}", std::process::id()));
        let metrics = Arc::new(SpillMetrics::default());
        {
            let mut store = SpillStore::new(Some(dir.clone()), "w0", metrics.clone());
            store.spill(&sample_tasks(10));
            assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
            let tasks: Vec<T> = store.refill().unwrap();
            assert_eq!(tasks.len(), 10);
            // File deleted after refill.
            assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
            // Leave one batch unspilled to exercise Drop cleanup.
            store.spill(&sample_tasks(2));
            assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        }
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_spill_is_a_noop() {
        let metrics = Arc::new(SpillMetrics::default());
        let mut store = SpillStore::new(None, "noop", metrics.clone());
        store.spill::<T>(&[]);
        assert!(store.is_empty());
        assert_eq!(metrics.batches_written.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn peak_bytes_tracks_high_watermark() {
        let metrics = Arc::new(SpillMetrics::default());
        let mut store = SpillStore::new(None, "peak", metrics.clone());
        store.spill(&sample_tasks(50));
        let peak_after_first = metrics.peak_bytes.load(Ordering::Relaxed);
        store.spill(&sample_tasks(50));
        let peak_after_second = metrics.peak_bytes.load(Ordering::Relaxed);
        assert!(peak_after_second > peak_after_first);
        let _: Vec<T> = store.refill().unwrap();
        let _: Vec<T> = store.refill().unwrap();
        // Peak is a high watermark: unchanged by refills.
        assert_eq!(
            metrics.peak_bytes.load(Ordering::Relaxed),
            peak_after_second
        );
    }
}
