//! The task model and application interface of the reforged engine.
//!
//! G-thinker programs are written as two user-defined functions: `spawn(v)`
//! creates a task from a vertex of the local vertex table, and
//! `compute(t, frontier)` advances a task by one iteration, optionally pulling
//! more vertices, emitting results and creating new (sub)tasks. The
//! [`GThinkerApp`] trait captures that contract; the quasi-clique application
//! in `qcm-parallel` is its only non-test implementor, mirroring Algorithms
//! 4–10 of the paper.

use crate::vertex_table::AdjList;
use qcm_core::MiningScratch;
use qcm_graph::{SubgraphScratch, VertexId};
use std::time::Duration;

/// Serialisation hooks used when tasks are spilled to disk (Section 5: task
/// queues spill batches of `C` tasks when full).
pub trait TaskCodec: Sized {
    /// Appends a binary encoding of the task to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes a task from the front of `data`, advancing the slice. Returns
    /// `None` on malformed input.
    fn decode(data: &mut &[u8]) -> Option<Self>;
}

/// Adjacency lists delivered to a task for the vertices it pulled in its
/// previous iteration (the `frontier` argument of `compute`).
///
/// Entries are [`AdjList`]s: locally owned vertices borrow the shared graph
/// in place, lists that crossed the transport are owned. `insert` accepts
/// anything convertible (an `AdjList`, an `Arc<Vec<VertexId>>`, a plain
/// `Vec<VertexId>`), so application code and tests build frontiers the same
/// way they always did.
///
/// Iteration is in increasing vertex-id order: applications fold frontiers
/// into task state, so a seed-and-replay deterministic run — the fault
/// simulator's core promise — needs the iteration order itself to be
/// reproducible. The entries are one vector kept in id order; pulls are
/// resolved in the order of the task's sorted request list, so an insert is
/// an append unless a caller fills the frontier out of order.
#[derive(Clone, Debug, Default)]
pub struct Frontier {
    lists: Vec<(VertexId, AdjList)>,
}

impl Frontier {
    /// Creates an empty frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the adjacency list of `v`, replacing an earlier one.
    pub fn insert(&mut self, v: VertexId, adj: impl Into<AdjList>) {
        let adj = adj.into();
        match self.lists.last() {
            Some((last, _)) if *last >= v => match self.position(v) {
                Ok(i) => self.lists[i].1 = adj,
                Err(i) => self.lists.insert(i, (v, adj)),
            },
            _ => self.lists.push((v, adj)),
        }
    }

    fn position(&self, v: VertexId) -> Result<usize, usize> {
        self.lists.binary_search_by_key(&v, |(u, _)| *u)
    }

    /// The adjacency list of `v`, if it was pulled.
    pub fn get(&self, v: VertexId) -> Option<&[VertexId]> {
        self.position(v).ok().map(|i| self.lists[i].1.as_slice())
    }

    /// Iterates over `(vertex, adjacency list)` pairs in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> {
        self.lists.iter().map(|(v, a)| (*v, a.as_slice()))
    }

    /// Number of pulled vertices.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// True if no vertices were pulled.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }
}

/// Per-task timing the application reports back to the engine, used for
/// Table 6 (mining time vs subgraph-materialisation time) and Figures 1–3
/// (per-task time distributions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskTimings {
    /// Time spent on actual mining (backtracking over the set-enumeration
    /// tree).
    pub mining: Duration,
    /// Time spent materialising subgraphs for decomposed subtasks.
    pub materialization: Duration,
}

impl TaskTimings {
    /// Adds another timing record into this one.
    pub fn merge(&mut self, other: &TaskTimings) {
        self.mining += other.mining;
        self.materialization += other.materialization;
    }
}

/// The buffers a worker keeps from task to task and loans to every compute
/// call: the recursion frames warmed up by one task's search and the rank
/// table one subtask's subgraph was induced through serve every later task on
/// the same worker without reallocating.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// The mining arena (recursion frames, bitsets, degree tables).
    pub mining: MiningScratch,
    /// Buffers of the `LocalGraph` kernels (induction, k-core, compaction).
    pub subgraph: SubgraphScratch,
}

/// Everything a `compute`/`spawn` call can hand back to the engine.
///
/// Vertex pulls are *not* part of this context: a task's outstanding data
/// requests must live inside the task itself (see
/// [`GThinkerApp::pending_pulls`]) so that a task waiting for data can be
/// queued, spilled to disk and stolen without losing its request set — the
/// same reason the original G-thinker serialises requests with suspended
/// tasks.
#[derive(Debug)]
pub struct ComputeContext<T> {
    /// New tasks created by this call (task decomposition / initial spawn).
    pub new_tasks: Vec<T>,
    /// Result rows (quasi-cliques) found by this call.
    pub results: Vec<Vec<VertexId>>,
    /// Timing attribution for this call.
    pub timings: TaskTimings,
    /// Set by the application when this call observed the run's cancellation
    /// token fired and cut its work short; the engine aggregates it so the
    /// run's outcome reflects what was actually truncated.
    pub interrupted: bool,
    /// The worker's scratch buffers, loaned to the application for the
    /// duration of this call. The engine moves one long-lived set from
    /// context to context.
    pub scratch: WorkerScratch,
}

impl<T> Default for ComputeContext<T> {
    fn default() -> Self {
        ComputeContext {
            new_tasks: Vec::new(),
            results: Vec::new(),
            timings: TaskTimings::default(),
            interrupted: false,
            scratch: WorkerScratch::default(),
        }
    }
}

impl<T> ComputeContext<T> {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a new task to be scheduled by the engine.
    pub fn add_task(&mut self, task: T) {
        self.new_tasks.push(task);
    }

    /// Emits a result row.
    pub fn emit(&mut self, members: Vec<VertexId>) {
        self.results.push(members);
    }
}

/// A G-thinker application: the pair of UDFs plus the big-task classifier used
/// by the reforged scheduler.
pub trait GThinkerApp: Send + Sync + 'static {
    /// The task type. Tasks move between threads and may be spilled to disk.
    type Task: TaskCodec + Send + 'static;

    /// UDF `spawn(v)`: optionally creates the initial task for vertex `v` of
    /// the local vertex table (Algorithm 4): the engine calls it for each
    /// vertex the table holds (the list passed to `Cluster::run`) and for no
    /// other. `adj` is Γ(v), sorted.
    fn spawn(&self, v: VertexId, adj: &[VertexId], ctx: &mut ComputeContext<Self::Task>);

    /// The adjacency lists `task` is currently waiting for. The engine
    /// resolves these through the local vertex table / remote-vertex cache and
    /// delivers them as the `frontier` of the next `compute` call. Freshly
    /// spawned tasks typically request Γ(v) here (Algorithm 4 lines 6–7).
    /// Borrowed from the task — the request set lives inside the task (so it
    /// survives queueing/spilling/stealing) and the engine reads it in place
    /// instead of cloning a vector per compute iteration.
    fn pending_pulls<'t>(&self, task: &'t Self::Task) -> &'t [VertexId];

    /// UDF `compute(t, frontier)`: advances `task` by one iteration
    /// (Algorithm 5). `frontier` contains the adjacency lists requested by
    /// [`GThinkerApp::pending_pulls`] before this call. Returns `true` if the
    /// task needs another iteration, `false` when finished.
    fn compute(
        &self,
        task: &mut Self::Task,
        frontier: &Frontier,
        ctx: &mut ComputeContext<Self::Task>,
    ) -> bool;

    /// Classifies a task as *big* (goes to the machine-wide global queue and
    /// participates in inter-machine stealing) or small (stays in the
    /// spawning thread's local queue). The quasi-clique app compares
    /// `|ext(S)|` against τ_split.
    fn is_big(&self, task: &Self::Task) -> bool;

    /// Approximate in-memory size of a task in bytes, used for the engine's
    /// peak-memory accounting (Table 2's RAM column). The default assumes a
    /// small constant.
    fn task_memory_bytes(&self, _task: &Self::Task) -> usize {
        64
    }

    /// A label for the task used in the per-task time log (Figures 1–3); the
    /// quasi-clique app reports the spawning vertex and subgraph size.
    fn task_label(&self, _task: &Self::Task) -> TaskLabel {
        TaskLabel::default()
    }
}

/// Descriptive label attached to per-task timing records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskLabel {
    /// The vertex the root task was spawned from (if known).
    pub root: Option<VertexId>,
    /// Number of vertices in the task's subgraph (|V(t.g)| or |ext(S)|).
    pub subgraph_size: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_sync::Arc;

    #[derive(Clone, Debug, PartialEq)]
    struct DummyTask(u32);

    impl TaskCodec for DummyTask {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode(data: &mut &[u8]) -> Option<Self> {
            if data.len() < 4 {
                return None;
            }
            let (head, rest) = data.split_at(4);
            *data = rest;
            Some(DummyTask(u32::from_le_bytes(head.try_into().unwrap())))
        }
    }

    #[test]
    fn frontier_stores_and_returns_lists() {
        let mut f = Frontier::new();
        assert!(f.is_empty());
        f.insert(
            VertexId::new(3),
            Arc::new(vec![VertexId::new(1), VertexId::new(2)]),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f.get(VertexId::new(3)).unwrap().len(), 2);
        assert!(f.get(VertexId::new(9)).is_none());
        assert_eq!(f.iter().count(), 1);
    }

    #[test]
    fn compute_context_accumulates_outputs() {
        let mut ctx: ComputeContext<DummyTask> = ComputeContext::new();
        ctx.add_task(DummyTask(1));
        ctx.emit(vec![VertexId::new(1), VertexId::new(2)]);
        assert_eq!(ctx.new_tasks.len(), 1);
        assert_eq!(ctx.results.len(), 1);
    }

    #[test]
    fn task_codec_roundtrip() {
        let mut buf = Vec::new();
        DummyTask(42).encode(&mut buf);
        DummyTask(7).encode(&mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(DummyTask::decode(&mut slice), Some(DummyTask(42)));
        assert_eq!(DummyTask::decode(&mut slice), Some(DummyTask(7)));
        assert_eq!(DummyTask::decode(&mut slice), None);
    }

    #[test]
    fn timings_merge_adds_durations() {
        let mut a = TaskTimings {
            mining: Duration::from_millis(5),
            materialization: Duration::from_millis(1),
        };
        let b = TaskTimings {
            mining: Duration::from_millis(3),
            materialization: Duration::from_millis(2),
        };
        a.merge(&b);
        assert_eq!(a.mining, Duration::from_millis(8));
        assert_eq!(a.materialization, Duration::from_millis(3));
    }
}
