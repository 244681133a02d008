//! Disk-backed `SpillStore` behaviour: spill → refill ordering and
//! `SpillMetrics` accounting, cross-checked against the memory-backed mode
//! (the two modes must be observationally identical apart from where the
//! bytes live), and what a refill reports when its file comes back short.

use qcm_engine::codec;
use qcm_engine::queue::{Refilled, TaskQueue};
use qcm_engine::spill::{SpillMetrics, SpillStore};
use qcm_engine::TaskCodec;
use qcm_sync::atomic::Ordering;
use qcm_sync::Arc;
use std::fs;
use std::path::PathBuf;

#[derive(Clone, Debug, PartialEq)]
struct FakeTask {
    id: u32,
    members: Vec<u32>,
}

impl TaskCodec for FakeTask {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_u32(buf, self.id);
        codec::put_u32_slice(buf, &self.members);
    }

    fn decode(data: &mut &[u8]) -> Option<Self> {
        let id = codec::take_u32(data)?;
        let members = codec::take_u32_vec(data)?;
        Some(FakeTask { id, members })
    }
}

fn batch(base: u32, len: u32) -> Vec<FakeTask> {
    (0..len)
        .map(|i| FakeTask {
            id: base + i,
            members: (base..base + 3 + i % 4).collect(),
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qcm_spill_it_{tag}_{}", std::process::id()))
}

#[test]
fn disk_refill_preserves_fifo_order_and_content() {
    let dir = temp_dir("fifo");
    let metrics = Arc::new(SpillMetrics::default());
    let mut store = SpillStore::new(Some(dir.clone()), "w0", metrics);
    let batches: Vec<Vec<FakeTask>> = (0..5).map(|i| batch(i * 100, 7 + i)).collect();
    for b in &batches {
        store.spill(b);
    }
    assert_eq!(store.len(), 5);
    assert_eq!(
        store.pending_tasks(),
        batches.iter().map(Vec::len).sum::<usize>()
    );
    // Refill returns the *oldest* batch first (G-thinker keeps the volume of
    // partially processed tasks small by draining in spill order), with every
    // task byte-identical after the disk round trip.
    for expected in &batches {
        let got: Vec<FakeTask> = store.refill().expect("batch pending");
        assert_eq!(&got, expected);
    }
    assert!(store.refill::<FakeTask>().is_none());
    assert!(store.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_metrics_match_memory_metrics_for_identical_workload() {
    let dir = temp_dir("metrics");
    let disk_metrics = Arc::new(SpillMetrics::default());
    let mem_metrics = Arc::new(SpillMetrics::default());
    let mut disk = SpillStore::new(Some(dir.clone()), "disk", disk_metrics.clone());
    let mut mem = SpillStore::new(None, "mem", mem_metrics.clone());

    for i in 0..4 {
        let b = batch(i * 50, 10);
        disk.spill(&b);
        mem.spill(&b);
    }
    // Drain two batches, spill one more, drain the rest: interleaving
    // exercises the resident-bytes bookkeeping, not just monotone growth.
    for _ in 0..2 {
        let d: Vec<FakeTask> = disk.refill().unwrap();
        let m: Vec<FakeTask> = mem.refill().unwrap();
        assert_eq!(d, m);
    }
    let extra = batch(900, 3);
    disk.spill(&extra);
    mem.spill(&extra);
    while let Some(d) = disk.refill::<FakeTask>() {
        let m: Vec<FakeTask> = mem.refill().unwrap();
        assert_eq!(d, m);
    }
    assert!(mem.refill::<FakeTask>().is_none());

    // The accounting is defined over encoded bytes, so both backends must
    // agree exactly on every counter.
    for (name, disk_v, mem_v) in [
        (
            "bytes_written",
            disk_metrics.bytes_written.load(Ordering::Relaxed),
            mem_metrics.bytes_written.load(Ordering::Relaxed),
        ),
        (
            "bytes_read",
            disk_metrics.bytes_read.load(Ordering::Relaxed),
            mem_metrics.bytes_read.load(Ordering::Relaxed),
        ),
        (
            "batches_written",
            disk_metrics.batches_written.load(Ordering::Relaxed),
            mem_metrics.batches_written.load(Ordering::Relaxed),
        ),
        (
            "peak_bytes",
            disk_metrics.peak_bytes.load(Ordering::Relaxed),
            mem_metrics.peak_bytes.load(Ordering::Relaxed),
        ),
    ] {
        assert_eq!(disk_v, mem_v, "{name} diverged between disk and memory");
        assert!(disk_v > 0, "{name} must be non-zero after the workload");
    }
    // Everything spilled was read back.
    assert_eq!(
        disk_metrics.bytes_written.load(Ordering::Relaxed),
        disk_metrics.bytes_read.load(Ordering::Relaxed)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_peak_bytes_is_a_high_watermark_under_interleaving() {
    let dir = temp_dir("peak");
    let metrics = Arc::new(SpillMetrics::default());
    let mut store = SpillStore::new(Some(dir.clone()), "peak", metrics.clone());
    store.spill(&batch(0, 20));
    store.spill(&batch(100, 20));
    let peak = metrics.peak_bytes.load(Ordering::Relaxed);
    let written = metrics.bytes_written.load(Ordering::Relaxed);
    assert_eq!(peak, written, "peak equals total while nothing is drained");
    // Drain one, spill a small batch: residency drops below the old peak, so
    // the watermark must not move.
    let _: Vec<FakeTask> = store.refill().unwrap();
    store.spill(&batch(200, 2));
    assert_eq!(metrics.peak_bytes.load(Ordering::Relaxed), peak);
    let _ = std::fs::remove_dir_all(&dir);
}

fn encoded(tasks: &[FakeTask]) -> Vec<u8> {
    let mut buf = Vec::new();
    for task in tasks {
        task.encode(&mut buf);
    }
    buf
}

/// A batch whose file is gone or cut short is a shortfall the caller hears
/// about, not a silent loss: the refill reports how many of the batch's
/// tasks did not come back, and `bytes_read` counts only the bytes read.
#[test]
fn batches_that_come_back_short_report_their_shortfall() {
    let dir = temp_dir("short");
    let metrics = Arc::new(SpillMetrics::default());
    let mut store = SpillStore::new(Some(dir.clone()), "short", metrics.clone());
    let batches: Vec<Vec<FakeTask>> = (0..3).map(|i| batch(i * 100, 6)).collect();
    for b in &batches {
        store.spill(b);
    }
    // File names carry the spill sequence.
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 3);
    // The oldest batch's file is gone; the next one ends two bytes into its
    // fourth task.
    fs::remove_file(&files[0]).unwrap();
    let kept = encoded(&batches[1][..3]).len() + 2;
    let second = fs::read(&files[1]).unwrap();
    fs::write(&files[1], &second[..kept]).unwrap();

    let mut queue = TaskQueue::new(16, 2, store);
    let refilled = |restored, lost| Some(Refilled { restored, lost });
    assert_eq!(queue.refill_from_spill(), refilled(0, 6));
    assert_eq!(queue.refill_from_spill(), refilled(3, 3));
    assert_eq!(queue.refill_from_spill(), refilled(6, 0));
    assert_eq!(queue.refill_from_spill(), None);
    let restored: Vec<FakeTask> = std::iter::from_fn(|| queue.pop()).collect();
    let expected: Vec<FakeTask> = batches[1][..3].iter().chain(&batches[2]).cloned().collect();
    assert_eq!(restored, expected);

    let read = metrics.bytes_read.load(Ordering::Relaxed);
    assert_eq!(read, (kept + encoded(&batches[2]).len()) as u64);
    assert!(read < metrics.bytes_written.load(Ordering::Relaxed));
    let _ = fs::remove_dir_all(&dir);
}
