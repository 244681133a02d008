//! The quasi-clique mining task (the `t` of Algorithms 4–10) and what the
//! engine hands it.
//!
//! G-thinker programs are written as two user-defined functions: `spawn(v)`
//! creates a task from a vertex of the local vertex table, and
//! `compute(t, frontier)` advances a task by one iteration, optionally pulling
//! more vertices, emitting results and creating new (sub)tasks. Here the pair
//! belongs to [`crate::QuasiCliqueApp`], and a [`QCTask`] goes through two
//! phases, like the paper's UDF `compute(t, frontier)`:
//!
//! 1. **Build** (Algorithms 6–7, [`TaskPhase::Build`]): every iteration feeds
//!    the pulled adjacency lists to the worker's [`TaskAssembly`], which
//!    peels the task subgraph `t.g` and names the vertices to pull next —
//!    two rounds for γ ≥ ½, as many as add something below — until it
//!    hands back `t.g` and the candidate `⟨S = {v}, ext(S) = V(t.g) − v⟩`,
//!    or drops a task that can hold no result.
//! 2. **Mine** (Algorithms 8–10): the subgraph is mined; if the task is big
//!    it is decomposed into subtasks, which re-enter the engine directly in
//!    this phase with a materialised (smaller) subgraph.
//!
//! Tasks must survive queueing, disk spilling and stealing, so everything —
//! including the partially built subgraph, the rounds fed so far and the
//! outstanding pull requests — is stored by value and encodable with
//! [`TaskCodec`], the same reason the original G-thinker serialises requests
//! with suspended tasks.
//!
//! `t.g` is carried in the form the miner consumes: a compact [`LocalGraph`]
//! whose local index is the rank of the global id (the id table travels
//! inside it; no hub rows while the task is queued), with `S` and `ext(S)` as
//! local indices. A decomposed subtask receives the induced subgraph of its
//! parent and never sees a global id again until a result is reported
//! through [`LocalGraph::global_id`]. Every mapping along the way is monotone
//! in the global id, so branching order and tie-breaks are those of the
//! global ids.

use crate::codec::{
    put_u32, put_u32_slice, put_vertices, take_u32, take_u32_vec, take_u32s_into, take_vertices,
};
use crate::vertex_table::AdjList;
use qcm_core::{MiningScratch, TaskAssembly};
use qcm_graph::{LocalGraph, SubgraphScratch, VertexId};
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
/// `Vec<VertexId>`), so the drivers and tests build frontiers the same way.
///
/// Iteration is in increasing vertex-id order: the build rounds fold
/// frontiers into task state, so a seed-and-replay deterministic run — the fault
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

/// Per-task timing of the mine phase, used for Table 6 (mining time vs
/// subgraph-materialisation time) and Figures 1–3 (per-task time
/// distributions).
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
/// call: the recursion frames warmed up by one task's search, the rank table
/// one subtask's subgraph was induced through and the task assembly's arrays
/// serve every later task on the same worker without reallocating.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// The mining arena (recursion frames, bitsets, degree tables).
    pub mining: MiningScratch,
    /// The rank table subtask subgraphs are induced through.
    pub subgraph: SubgraphScratch,
    /// The assembly build-phase tasks are fed to, over the run's core
    /// numbering; a worker that only mines needs none.
    pub assembly: Option<TaskAssembly>,
}

impl WorkerScratch {
    /// The scratch of a worker that builds tasks with `assembly`.
    pub fn building(assembly: TaskAssembly) -> Self {
        WorkerScratch {
            assembly: Some(assembly),
            ..WorkerScratch::default()
        }
    }
}

/// The phase a task is in (mirrors `t.iteration` of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskPhase {
    /// Building `t.g` (Algorithms 6–7): this many rounds of pulled lists were
    /// fed so far, and the pulls of the next one are pending.
    Build(u32),
    /// Subgraph ready; mine / decompose (Algorithms 8–10 next).
    Mine,
}

impl TaskPhase {
    fn as_u32(self) -> u32 {
        match self {
            TaskPhase::Mine => 0,
            TaskPhase::Build(rounds) => rounds + 1,
        }
    }

    fn from_u32(v: u32) -> Self {
        match v {
            0 => TaskPhase::Mine,
            _ => TaskPhase::Build(v - 1),
        }
    }
}

/// A quasi-clique mining task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QCTask {
    /// The spawning vertex `v` (tasks only consider vertices with larger ids).
    /// Every task has one, decomposed subtasks included: the simulator
    /// respawns it when the task is lost.
    pub root: VertexId,
    /// Current phase.
    pub phase: TaskPhase,
    /// Vertices whose adjacency lists this task is waiting for. The engine
    /// resolves them through the vertex table and delivers them as the
    /// frontier of the next compute step.
    pub pull_targets: Vec<VertexId>,
    /// The task subgraph `t.g`, in id order: empty before the first round,
    /// what [`TaskAssembly::suspend`] carries between rounds, final in the
    /// mine phase. The root is local 0.
    pub subgraph: LocalGraph,
    /// The candidate set `S` as local indices of `subgraph`. `{root}` for
    /// root tasks; larger for decomposed subtasks. Empty while building.
    pub s: Vec<u32>,
    /// The extension set `ext(S)` as local indices of `subgraph`, in
    /// branching order. Empty while building.
    pub ext: Vec<u32>,
}

impl QCTask {
    /// Creates the initial task spawned from `root` (Algorithm 4): no round
    /// fed yet, and pull requests for the larger-id neighbors.
    pub fn spawned(root: VertexId, larger_neighbors: Vec<VertexId>) -> Self {
        QCTask {
            root,
            phase: TaskPhase::Build(0),
            pull_targets: larger_neighbors,
            subgraph: LocalGraph::new(Vec::new()),
            s: Vec::new(),
            ext: Vec::new(),
        }
    }

    /// Creates a decomposed subtask that enters directly in the mine phase
    /// (Algorithm 8 lines 12–21 / Algorithm 10 lines 20–22). `s` and `ext`
    /// index `subgraph`, which holds the root at local 0.
    pub fn decomposed(root: VertexId, s: Vec<u32>, ext: Vec<u32>, subgraph: LocalGraph) -> Self {
        QCTask {
            root,
            phase: TaskPhase::Mine,
            pull_targets: Vec::new(),
            subgraph,
            s,
            ext,
        }
    }

    /// Size measure used by the τ_split big-task classification: `|ext(S)|`
    /// for mining-phase tasks, the number of requested vertices for tasks
    /// still building their subgraph.
    pub fn size_measure(&self) -> usize {
        match self.phase {
            TaskPhase::Mine => self.ext.len(),
            _ => self.pull_targets.len(),
        }
    }

    /// The subgraph size the per-task time log records: `|V(t.g)|`, or
    /// `|S| + |ext(S)|` when that is larger.
    pub fn subgraph_size(&self) -> usize {
        let candidate = self.s.len() + self.ext.len();
        self.subgraph.capacity().max(candidate)
    }

    /// True when the parts fit together the way every constructor and
    /// round leaves them: an empty candidate over an empty graph before the
    /// first round, the root at local 0 afterwards, and `S`, `ext(S)`
    /// disjoint, duplicate-free and inside the graph. A round that names
    /// more pulls has added a vertex, so after `r` rounds the graph holds
    /// more than `r`.
    fn is_consistent(&self) -> bool {
        let n = self.subgraph.capacity();
        match self.phase {
            TaskPhase::Build(0) => return n == 0 && self.s.is_empty() && self.ext.is_empty(),
            TaskPhase::Build(rounds) if rounds as usize >= n => return false,
            _ => {}
        }
        if n == 0 || self.subgraph.global_id(0) != self.root {
            return false;
        }
        let mut seen = vec![false; n];
        self.s.iter().chain(&self.ext).all(|&i| {
            let fresh = seen.get_mut(i as usize);
            fresh.is_some_and(|slot| !std::mem::replace(slot, true))
        })
    }
}

impl TaskCodec for QCTask {
    /// The id table, then one local neighbor list per vertex: the bytes a
    /// spill file, a steal grant and a strict transport all carry.
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.root.raw());
        put_u32(buf, self.phase.as_u32());
        put_vertices(buf, &self.pull_targets);
        put_u32_slice(buf, &self.s);
        put_u32_slice(buf, &self.ext);
        // The id table, framed like `put_vertices`.
        let n = self.subgraph.capacity() as u32;
        put_u32(buf, n);
        for i in 0..n {
            put_u32(buf, self.subgraph.global_id(i).raw());
        }
        for i in 0..n {
            put_u32_slice(buf, self.subgraph.neighbors(i));
        }
    }

    /// Total: every count is bounded by the bytes that remain before anything
    /// is allocated for it, and the graph and candidate are checked
    /// ([`LocalGraph::from_sorted_lists`], `QCTask::is_consistent`), so
    /// corrupt input yields `None`, never a panic or an oversized allocation.
    fn decode(data: &mut &[u8]) -> Option<Self> {
        let root = VertexId::new(take_u32(data)?);
        let phase = TaskPhase::from_u32(take_u32(data)?);
        let pull_targets = take_vertices(data)?;
        let s = take_u32_vec(data)?;
        let ext = take_u32_vec(data)?;
        let ids = take_vertices(data)?;
        // Each list is at least its own length prefix.
        if data.len() / 4 < ids.len() {
            return None;
        }
        let (mut offsets, mut targets) = (Vec::with_capacity(ids.len() + 1), Vec::new());
        offsets.push(0);
        for _ in 0..ids.len() {
            take_u32s_into(data, &mut targets)?;
            offsets.push(targets.len());
        }
        let task = QCTask {
            root,
            phase,
            pull_targets,
            subgraph: LocalGraph::from_sorted_lists(ids, offsets, targets)?,
            s,
            ext,
        };
        task.is_consistent().then_some(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::QuasiCliqueApp;
    use crate::iterations::build_round;
    use crate::iterations::tests::{assembly_for, build_task, figure4, frontier_for};
    use crate::mine::run_mine_phase;
    use crate::reference::TaskGraph;
    use proptest::prelude::*;
    use qcm_core::MiningParams;
    use qcm_sync::Arc;

    fn v(id: u32) -> VertexId {
        VertexId::new(id)
    }

    #[test]
    fn frontier_stores_and_returns_lists() {
        let mut f = Frontier::new();
        assert!(f.is_empty());
        f.insert(v(3), Arc::new(vec![v(1), v(2)]));
        assert_eq!(f.len(), 1);
        assert_eq!(f.get(v(3)).unwrap().len(), 2);
        assert!(f.get(v(9)).is_none());
        assert_eq!(f.iter().count(), 1);
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

    #[test]
    fn task_graph_insert_query_and_edges() {
        let mut g = TaskGraph::new();
        g.insert(v(5), vec![v(7), v(9)]);
        g.insert(v(7), vec![v(5)]);
        g.insert(v(9), vec![v(5), v(100)]); // 100 is an external destination
        assert_eq!(g.num_vertices(), 3);
        assert!(g.contains(v(7)));
        assert!(!g.contains(v(100)));
        assert_eq!(g.neighbors(v(5)).unwrap(), &[v(7), v(9)]);
        // 100 is not a vertex, so only edges 5-7 and 5-9 count.
        assert_eq!(g.num_edges(), 2);
        g.retain_internal_edges();
        assert_eq!(g.neighbors(v(9)).unwrap(), &[v(5)]);
    }

    #[test]
    fn peel_respects_unpeelable_vertices() {
        let mut g = TaskGraph::new();
        // Chain 1-2-3 where only 2 and 3 are peelable.
        g.insert(v(1), vec![v(2)]);
        g.insert(v(2), vec![v(1), v(3)]);
        g.insert(v(3), vec![v(2)]);
        let removed = g.peel(2, |u| u != v(1));
        // 3 peels first (degree 1), then 2 (degree drops to 1); 1 survives
        // despite ending with degree 0 because it is not peelable.
        assert_eq!(removed, 2);
        assert!(g.contains(v(1)));
        assert_eq!(g.num_vertices(), 1);
    }

    #[test]
    fn peel_cascades() {
        let mut g = TaskGraph::new();
        // A triangle plus a pendant path.
        g.insert(v(0), vec![v(1), v(2)]);
        g.insert(v(1), vec![v(0), v(2)]);
        g.insert(v(2), vec![v(0), v(1), v(3)]);
        g.insert(v(3), vec![v(2), v(4)]);
        g.insert(v(4), vec![v(3)]);
        let removed = g.peel(2, |_| true);
        assert_eq!(removed, 2);
        assert_eq!(g.num_vertices(), 3);
        assert!(g.contains(v(0)) && g.contains(v(1)) && g.contains(v(2)));
    }

    #[test]
    fn to_local_graph_preserves_structure() {
        let mut g = TaskGraph::new();
        g.insert(v(10), vec![v(20), v(30)]);
        g.insert(v(20), vec![v(10), v(30)]);
        g.insert(v(30), vec![v(10), v(20), v(99)]);
        let (lg, index) = g.to_local_graph();
        assert_eq!(lg.capacity(), 3);
        assert_eq!(lg.num_edges(), 3);
        assert_eq!(lg.global_id(index[&v(20)]), v(20));
        assert!(lg.has_edge(index[&v(10)], index[&v(30)]));
    }

    /// One task per phase, off the Figure 4 graph at k = 3: freshly spawned,
    /// after the first round (a carried graph and second-hop pulls), ready to
    /// mine, and a subtask decomposed from that.
    fn task_of_every_phase() -> Vec<QCTask> {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let spawned = QCTask::spawned(v(0), g.neighbors(v(0)).to_vec());
        let mut second_hop = spawned.clone();
        let f1 = frontier_for(&g, &second_hop.pull_targets);
        assert!(build_round(
            &mut second_hop,
            &f1,
            &mut assembly_for(&g, params)
        ));
        let mine = build_task(&g, 0, params).unwrap();
        // Mined with τ_time = 0, the whole graph as one candidate splits.
        let all: Vec<VertexId> = g.vertices().collect();
        let mut whole = QCTask::decomposed(
            v(0),
            vec![0],
            (1..9).collect(),
            LocalGraph::from_induced(&g, &all),
        );
        let app = QuasiCliqueApp::new(MiningParams::new(0.6, 5), 100, Duration::ZERO);
        let decomposed = run_mine_phase(&mut whole, &app, &mut WorkerScratch::default())
            .subtasks
            .swap_remove(0);
        assert_eq!(
            [
                spawned.phase,
                second_hop.phase,
                mine.phase,
                decomposed.phase
            ],
            [
                TaskPhase::Build(0),
                TaskPhase::Build(1),
                TaskPhase::Mine,
                TaskPhase::Mine
            ]
        );
        assert!(second_hop.subgraph.capacity() > 1 && !second_hop.pull_targets.is_empty());
        assert!(decomposed.s.len() > 1);
        vec![spawned, second_hop, mine, decomposed]
    }

    fn encoded(task: &QCTask) -> Vec<u8> {
        let mut buf = Vec::new();
        task.encode(&mut buf);
        buf
    }

    #[test]
    fn codec_roundtrip_preserves_every_field() {
        for task in task_of_every_phase() {
            let buf = encoded(&task);
            let mut slice = buf.as_slice();
            let decoded = QCTask::decode(&mut slice).unwrap();
            assert_eq!(decoded, task);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn task_codec_roundtrip() {
        // A spill batch is its tasks encoded back to back: each decode stops
        // at its own end, and an exhausted stream decodes to nothing.
        let tasks = task_of_every_phase();
        let mut buf = Vec::new();
        for task in &tasks {
            task.encode(&mut buf);
        }
        let mut slice = buf.as_slice();
        for task in &tasks {
            assert_eq!(QCTask::decode(&mut slice).as_ref(), Some(task));
        }
        assert_eq!(QCTask::decode(&mut slice), None);
    }

    #[test]
    fn spawned_and_decomposed_constructors() {
        let t = QCTask::spawned(v(7), vec![v(8), v(11)]);
        assert_eq!(t.phase, TaskPhase::Build(0));
        assert!(t.s.is_empty() && t.subgraph.capacity() == 0);
        assert_eq!(t.size_measure(), 2);

        let sub = LocalGraph::new(vec![v(7), v(8), v(11), v(12), v(13)]);
        let t = QCTask::decomposed(v(7), vec![0, 1], vec![2, 3, 4], sub);
        assert_eq!(t.phase, TaskPhase::Mine);
        assert_eq!(t.size_measure(), 3);
        assert!(t.is_consistent());
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        let mut slice: &[u8] = &[1, 2, 3];
        assert!(QCTask::decode(&mut slice).is_none());
    }

    #[test]
    fn a_huge_vertex_count_is_refused_before_anything_is_allocated() {
        // root 0, phase Mine, no pulls, empty S and ext, then an id table that
        // claims 2³² − 1 entries: the count the old decoder passed straight to
        // `Vec::with_capacity`, ~137 GB.
        let mut buf = Vec::new();
        for word in [0u32, 0, 0, 0, 0, u32::MAX] {
            put_u32(&mut buf, word);
        }
        assert!(QCTask::decode(&mut buf.as_slice()).is_none());
        // An id table that is there, with no list behind it.
        buf.truncate(20);
        put_vertices(&mut buf, &[v(0), v(1), v(2)]);
        assert!(QCTask::decode(&mut buf.as_slice()).is_none());
    }

    #[test]
    fn decode_refuses_tasks_whose_parts_do_not_fit() {
        let mine = task_of_every_phase().swap_remove(2);
        let refused = |edit: &dyn Fn(&mut QCTask)| {
            let mut task = mine.clone();
            edit(&mut task);
            QCTask::decode(&mut encoded(&task).as_slice()).is_none()
        };
        assert!(!refused(&|_| {}));
        assert!(refused(&|t| t.ext.push(99)), "ext out of range");
        assert!(refused(&|t| t.ext.push(0)), "S and ext overlap");
        assert!(refused(&|t| t.ext.push(1)), "duplicate in ext");
        assert!(refused(&|t| t.root = v(1)), "the root is not local 0");
        assert!(
            refused(&|t| t.phase = TaskPhase::Build(0)),
            "a graph before the first round"
        );
        let n = mine.subgraph.capacity() as u32;
        assert!(!refused(&|t| t.phase = TaskPhase::Build(n - 1)));
        assert!(
            refused(&|t| t.phase = TaskPhase::Build(n)),
            "more rounds than vertices"
        );
        // The largest phase word, whose round count no task reaches.
        let mut bytes = encoded(&mine);
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(QCTask::decode(&mut bytes.as_slice()).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Corrupt spill files and grants: whatever happens to the bytes,
        /// `decode` answers `None` or a task that holds every condition the
        /// constructors check — it never panics.
        #[test]
        fn decode_is_total_under_mutation_and_truncation(
            which in 0usize..4,
            edits in proptest::collection::vec((0usize..4096, 0u32..256), 0..4),
            cut in 0usize..4096,
            truncate in 0u32..3,
        ) {
            let task = task_of_every_phase().swap_remove(which);
            let mut bytes = encoded(&task);
            for (at, byte) in edits {
                let at = at % bytes.len();
                bytes[at] = byte as u8;
            }
            if truncate == 0 {
                bytes.truncate(cut % bytes.len());
            }
            if let Some(decoded) = QCTask::decode(&mut bytes.as_slice()) {
                prop_assert!(decoded.is_consistent());
                let graph = &decoded.subgraph;
                let n = graph.capacity() as u32;
                let mut offsets = vec![0];
                offsets.extend((0..n).map(|i| graph.degree(i)).scan(0, |end, d| {
                    *end += d;
                    Some(*end)
                }));
                let targets = (0..n).flat_map(|i| graph.neighbors(i).iter().copied()).collect();
                let rebuilt =
                    LocalGraph::from_sorted_lists(graph.global_ids().to_vec(), offsets, targets);
                prop_assert_eq!(rebuilt.as_ref(), Some(graph));
            }
        }
    }
}
