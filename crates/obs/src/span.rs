//! Hierarchical spans recorded into per-thread single-writer buffers.
//!
//! One process-wide recording can be active at a time
//! ([`start_recording`] / [`finish_recording`]); while it is, RAII
//! [`SpanGuard`]s obtained from [`span`] / [`span_with`] append one
//! [`SpanEvent`] per closed span to the calling thread's buffer. The buffer
//! is written only by its owner thread and never wraps: once
//! [`TraceConfig::capacity_per_thread`] events are stored, further events
//! are *dropped* and counted, so a trace is either complete or says exactly
//! how incomplete it is ([`Trace::dropped`]).
//!
//! With no recording active the entire span machinery costs one relaxed
//! atomic load and a branch per [`span`] call — the mining hot path pays
//! nothing measurable for being instrumented.

use crate::clock::Instant;
use qcm_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use qcm_sync::{Arc, Mutex, OnceLock};
use std::cell::UnsafeCell;
use std::cell::{Cell, RefCell};
use std::mem::MaybeUninit;

/// The span taxonomy, from coarsest to finest:
/// `run → decompose → task → mine_phase → steal/pull/spill`; `kcore` and
/// `finalize` sit directly inside `run`, before and after the search.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One whole `Session` run (serial or parallel).
    Run,
    /// Peeling the input graph to its k-core before the engine partitions it.
    KCore,
    /// Materialising the subtasks of one decomposed big task.
    Decompose,
    /// One engine task being processed by a worker.
    Task,
    /// One bounded mining phase (per root vertex on the serial backend,
    /// per task timeslice on the parallel one).
    MinePhase,
    /// One intra-machine steal sweep that moved at least one task.
    Steal,
    /// One blocking remote-vertex fetch round.
    Pull,
    /// Spilling a big task to (or refilling it from) the spill store.
    Spill,
    /// The post-processing after the search: the maximality filter, and on
    /// the engine the result check against the input graph.
    Finalize,
}

impl SpanKind {
    /// The stable lowercase name used by the exporters and the trace-smoke
    /// CI step.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::KCore => "kcore",
            SpanKind::Decompose => "decompose",
            SpanKind::Task => "task",
            SpanKind::MinePhase => "mine_phase",
            SpanKind::Steal => "steal",
            SpanKind::Pull => "pull",
            SpanKind::Spill => "spill",
            SpanKind::Finalize => "finalize",
        }
    }
}

/// One closed span. Timestamps are microseconds since the process trace
/// epoch (the first recording's start), so events from different threads
/// and machines share one timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// What the span measured.
    pub kind: SpanKind,
    /// Start, µs since the trace epoch.
    pub start_us: u64,
    /// Duration in µs (0 for sub-microsecond spans).
    pub dur_us: u64,
    /// Machine lane (`pid` in the Chrome trace): the simulated machine id
    /// set via [`set_lane`], 0 outside the engine.
    pub lane: u32,
    /// Recording-local thread id (`tid` in the Chrome trace), assigned in
    /// registration order.
    pub tid: u32,
    /// Kind-specific payload (root vertex, task id, batch size, bytes, …).
    pub arg: u64,
    /// Open order on its thread: a span opened later has a larger `seq`.
    /// Spans are recorded when they close, so a child is recorded before its
    /// parent; when the two start and end in the same µs, this is what says
    /// which encloses the other.
    pub seq: u64,
}

impl SpanEvent {
    /// End of the span, µs since the trace epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// The order in which enclosing spans precede the spans they enclose:
    /// earlier start first, then the longer span, then the one opened first.
    pub fn nesting_order(&self) -> (u64, std::cmp::Reverse<u64>, u64) {
        (self.start_us, std::cmp::Reverse(self.dur_us), self.seq)
    }
}

/// Per-`Session` tracing configuration
/// (`Session::builder().tracing(TraceConfig::default())`).
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Bounded capacity of each thread's span buffer. Once a thread has
    /// recorded this many spans the rest are dropped (and counted) instead
    /// of reallocating or overwriting — the bounded-drop policy.
    pub capacity_per_thread: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // 64Ki spans × ~48 B ≈ 3 MiB per thread: ample for the example
        // datasets while keeping a runaway run bounded.
        TraceConfig {
            capacity_per_thread: 65_536,
        }
    }
}

/// A finished recording: every captured span plus the exact number that
/// did not fit.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Captured spans, enclosing spans before those they enclose
    /// ([`SpanEvent::nesting_order`]).
    pub spans: Vec<SpanEvent>,
    /// Spans dropped because a thread buffer was full.
    pub dropped: u64,
}

impl Trace {
    /// Number of captured spans of `kind`.
    pub fn count(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }
}

/// A bounded single-writer span buffer. Only the owning thread writes
/// (append-only, no wraparound); [`finish_recording`] reads it after
/// observing `len` with `Acquire`, which synchronises with the writer's
/// `Release` bump — every slot below the observed length is fully written.
struct ThreadBuf {
    /// Slots below `len` are initialised; the rest were never written.
    slots: Box<[UnsafeCell<MaybeUninit<SpanEvent>>]>,
    len: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: the only mutation is `push` on the owning thread; concurrent
// readers go through `drain_into`, which reads exclusively slots published
// by the Release/Acquire handshake on `len` (write-once, never recycled).
unsafe impl Sync for ThreadBuf {}
unsafe impl Send for ThreadBuf {}

impl ThreadBuf {
    /// Reserves `capacity` slots without writing them, so the pages behind a
    /// large buffer are mapped as spans fill it and a thread that records
    /// little pays for little.
    fn new(capacity: usize) -> ThreadBuf {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        // SAFETY: an uninitialised `MaybeUninit` is a valid value, and the
        // capacity was just reserved.
        unsafe { slots.set_len(capacity) };
        ThreadBuf {
            slots: slots.into_boxed_slice(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends one event, or counts a drop when full. Must only be called
    /// by the buffer's owning thread.
    fn push(&self, event: SpanEvent) {
        // ordering: Relaxed — single writer; only this thread updates len.
        let len = self.len.load(Ordering::Relaxed);
        if len >= self.slots.len() {
            // ordering: Relaxed — a monotone statistic, read after the
            // recording is quiesced.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: slot `len` is unpublished (readers stop at the Acquire-
        // loaded length) and this thread is the only writer.
        unsafe {
            (*self.slots[len].get()).write(event);
        }
        // ordering: Release — publishes the slot write above to any reader
        // that Acquire-loads the new length.
        self.len.store(len + 1, Ordering::Release);
    }

    fn drain_into(&self, out: &mut Vec<SpanEvent>) -> u64 {
        // ordering: Acquire — pairs with the Release store in `push`; all
        // slots below `len` are fully initialised.
        let len = self.len.load(Ordering::Acquire).min(self.slots.len());
        for slot in &self.slots[..len] {
            // SAFETY: published slots are initialised and write-once; no
            // writer touches them again, so a shared read is race-free.
            out.push(unsafe { (*slot.get()).assume_init() });
        }
        // ordering: Relaxed — see `push`; the writer thread has quiesced
        // (or its late drops are an acceptable undercount for one event).
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Whether a recording is active. The *only* state the disabled hot path
/// touches.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Bumped by every [`start_recording`]; threads compare it against their
/// cached generation to re-register their buffer per recording.
static GENERATION: AtomicU64 = AtomicU64::new(0);

struct Recorder {
    bufs: Vec<Arc<ThreadBuf>>,
    capacity: usize,
    generation: u64,
}

static RECORDER: Mutex<Recorder> = Mutex::new(Recorder {
    bufs: Vec::new(),
    capacity: 0,
    generation: 0,
});

/// The process trace epoch: all span timestamps count µs from here.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros().min(u64::MAX as u128) as u64
}

thread_local! {
    /// This thread's buffer for the current recording generation.
    static LOCAL: RefCell<Option<(u64, u32, Arc<ThreadBuf>)>> = const { RefCell::new(None) };
    /// Machine lane for Chrome-trace `pid` grouping (see [`set_lane`]).
    static LANE: Cell<u32> = const { Cell::new(0) };
    /// The `seq` of the next span this thread opens.
    static NEXT_SEQ: Cell<u64> = const { Cell::new(0) };
}

/// Starts the process-wide recording. Returns `false` (and records
/// nothing) when another recording is already active — the caller's run
/// simply proceeds untraced.
pub fn start_recording(config: &TraceConfig) -> bool {
    let mut rec = RECORDER.lock();
    // ordering: Relaxed — the recorder lock already serialises start/finish;
    // the flag is only read lock-free by span sites.
    if ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    epoch(); // Pin the epoch before the first span can observe it.
    rec.bufs.clear();
    rec.capacity = config.capacity_per_thread;
    rec.generation += 1;
    // ordering: Release — a thread that sees the new generation must also
    // see the recorder state written above when it takes the lock.
    GENERATION.store(rec.generation, Ordering::Release);
    // ordering: Release — span sites that observe the flag must observe
    // the generation bump (paired with the Acquire load in `record`).
    ENABLED.store(true, Ordering::Release);
    true
}

/// Stops the recording and returns everything captured. Spans still open
/// on other threads when this is called are lost (not counted as drops);
/// the `Session` integration only finishes after its workers have joined.
pub fn finish_recording() -> Trace {
    let rec = RECORDER.lock();
    // ordering: Release — stops new spans; stragglers that raced past the
    // flag at most write into buffers we are about to drain.
    ENABLED.store(false, Ordering::Release);
    let mut trace = Trace::default();
    for buf in &rec.bufs {
        trace.dropped += buf.drain_into(&mut trace.spans);
    }
    trace.spans.sort_by_key(SpanEvent::nesting_order);
    trace
}

/// True while a recording is active.
pub fn recording_enabled() -> bool {
    // ordering: Relaxed — monitoring hint only.
    ENABLED.load(Ordering::Relaxed)
}

/// Tags the calling thread with a machine lane: its spans render under
/// `pid = machine` in the Chrome trace, so multi-machine runs read as one
/// timeline per machine. Engine workers call this once at startup.
pub fn set_lane(machine: u32) {
    LANE.with(|lane| lane.set(machine));
}

fn record(kind: SpanKind, start_us: u64, arg: u64, seq: u64) {
    let end_us = now_us();
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        // ordering: Acquire — pairs with the Release store in
        // `start_recording`: seeing a new generation implies the recorder
        // state behind the lock is initialised for it.
        let generation = GENERATION.load(Ordering::Acquire);
        if local.as_ref().map(|(g, _, _)| *g) != Some(generation) {
            let mut rec = RECORDER.lock();
            // ordering: Relaxed — double-check under the lock: the
            // recording may have finished while we waited.
            if !ENABLED.load(Ordering::Relaxed) || rec.generation != generation {
                return;
            }
            let buf = Arc::new(ThreadBuf::new(rec.capacity));
            let tid = rec.bufs.len() as u32;
            rec.bufs.push(buf.clone());
            *local = Some((generation, tid, buf));
        }
        let (_, tid, buf) = local.as_ref().expect("registered above");
        buf.push(SpanEvent {
            kind,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            lane: LANE.with(|lane| lane.get()),
            tid: *tid,
            arg,
            seq,
        });
    });
}

/// An open span; records one [`SpanEvent`] when dropped (RAII). Nested
/// guards therefore emit children before their parent, and the exporters
/// recover the hierarchy from interval containment per thread.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    kind: SpanKind,
    start_us: u64,
    arg: u64,
    seq: u64,
    armed: bool,
}

impl SpanGuard {
    /// Replaces the kind-specific payload recorded at close.
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }

    /// Disarms the guard: nothing is recorded at drop. For speculative
    /// spans (e.g. a steal sweep that turns out empty-handed).
    pub fn cancel(&mut self) {
        self.armed = false;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            record(self.kind, self.start_us, self.arg, self.seq);
        }
    }
}

/// Opens a span of `kind`. When no recording is active this is one relaxed
/// load and a branch.
#[inline]
pub fn span(kind: SpanKind) -> SpanGuard {
    span_with(kind, 0)
}

/// Opens a span of `kind` carrying a payload (root vertex, task id, …).
#[inline]
pub fn span_with(kind: SpanKind, arg: u64) -> SpanGuard {
    // ordering: Relaxed — the zero-cost disabled check; enabling mid-span
    // merely loses that span.
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard {
            kind,
            start_us: 0,
            arg,
            seq: 0,
            armed: false,
        };
    }
    SpanGuard {
        kind,
        start_us: now_us(),
        arg,
        seq: NEXT_SEQ.with(|next| next.replace(next.get() + 1)),
        armed: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global, so tests that record must not
    /// overlap; `cargo test` runs them on parallel threads.
    pub(crate) static RECORDING_TESTS: Mutex<()> = Mutex::new(());

    /// Spin until the µs clock advances, so nested spans opened in a row
    /// get strictly increasing start timestamps.
    fn tick() {
        let t0 = now_us();
        while now_us() == t0 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = RECORDING_TESTS.lock();
        assert!(!recording_enabled());
        drop(span(SpanKind::MinePhase));
        assert!(start_recording(&TraceConfig::default()));
        let trace = finish_recording();
        assert!(trace.spans.is_empty(), "span before start must be lost");
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn parent_closes_after_children_and_contains_them() {
        let _serial = RECORDING_TESTS.lock();
        assert!(start_recording(&TraceConfig::default()));
        {
            let _run = span(SpanKind::Run);
            tick();
            {
                let _task = span_with(SpanKind::Task, 7);
                tick();
                let _phase = span(SpanKind::MinePhase);
                tick();
                // Drop order: phase, task, then run.
            }
        }
        let trace = finish_recording();
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.spans.len(), 3);
        // Sorted by start time: run opened first, phase last.
        assert_eq!(trace.spans[0].kind, SpanKind::Run);
        assert_eq!(trace.spans[1].kind, SpanKind::Task);
        assert_eq!(trace.spans[1].arg, 7);
        assert_eq!(trace.spans[2].kind, SpanKind::MinePhase);
        // The parent interval contains each child's.
        let run = trace.spans[0];
        for child in &trace.spans[1..] {
            assert!(run.start_us <= child.start_us);
            assert!(child.end_us() <= run.end_us());
        }
        // RAII: children were *recorded* before the parent (same thread,
        // completion order), which is what makes containment recovery
        // well-defined.
        assert_eq!(trace.spans[1].tid, run.tid);
    }

    #[test]
    fn overflow_is_dropped_and_counted_exactly() {
        let _serial = RECORDING_TESTS.lock();
        assert!(start_recording(&TraceConfig {
            capacity_per_thread: 4,
        }));
        for i in 0..10u64 {
            drop(span_with(SpanKind::Steal, i));
        }
        let trace = finish_recording();
        assert_eq!(trace.spans.len(), 4, "bounded buffer must not grow");
        assert_eq!(trace.dropped, 6, "every overflow event must be counted");
        // The kept spans are the oldest (no wraparound/overwrite). Compared
        // as a set: spans opened in the same microsecond are ordered by
        // duration (parents first), not by push order.
        let mut args: Vec<u64> = trace.spans.iter().map(|s| s.arg).collect();
        args.sort_unstable();
        assert_eq!(args, vec![0, 1, 2, 3]);
    }

    #[test]
    fn concurrent_recordings_are_rejected() {
        let _serial = RECORDING_TESTS.lock();
        assert!(start_recording(&TraceConfig::default()));
        assert!(
            !start_recording(&TraceConfig::default()),
            "second recording must be refused while one is active"
        );
        let _ = finish_recording();
    }

    #[test]
    fn threads_get_distinct_tids_and_lanes() {
        let _serial = RECORDING_TESTS.lock();
        assert!(start_recording(&TraceConfig::default()));
        drop(span(SpanKind::Run));
        let worker = qcm_sync::thread::spawn(|| {
            set_lane(3);
            drop(span(SpanKind::Task));
        });
        worker.join().unwrap();
        let trace = finish_recording();
        assert_eq!(trace.spans.len(), 2);
        let run = trace
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Run)
            .unwrap();
        let task = trace
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Task)
            .unwrap();
        assert_ne!(run.tid, task.tid);
        assert_eq!(task.lane, 3);
    }
}
