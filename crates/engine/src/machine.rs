//! The per-machine protocol of the reforged engine — the one copy both
//! drivers run.
//!
//! A [`Machine`] owns what one machine of the paper's Figure 8 owns: the
//! **big-task lane** (a spill-backed [`TaskQueue`], also the overflow path of
//! the worker deques), one bounded deque per mining thread, the spawn cursor
//! over its vertex partition, and the steal-grant book. A [`Run`] holds the
//! machines plus what they share for one execution (the quasi-clique
//! application, vertex table, transport, [`Termination`] counters, metric
//! counters) and exposes the steps of the reforged Algorithm 3 as plain
//! methods: spawn one batch, route a new task, pop the next task, run one
//! compute step, handle one message, plan and request one balance move.
//!
//! The module owns no thread and no clock: `cluster` calls the steps from
//! worker threads with blocking pulls, `sim` from a discrete-event queue with
//! split-phase pulls and a fault script. What only one driver needs from a
//! step (the rows it emitted, a pull response, a grant awaiting its ack) the
//! step returns.

use crate::app::QuasiCliqueApp;
use crate::codec::EngineMsg;
use crate::config::EngineConfig;
use crate::metrics::{EngineMetrics, TaskTimeRecord};
use crate::queue::TaskQueue;
use crate::spill::{SpillMetrics, SpillStore};
use crate::steal::WorkerQueues;
use crate::task::{Frontier, QCTask, TaskCodec, TaskTimings, WorkerScratch};
use crate::termination::Termination;
use crate::transport::{Envelope, MachineId, PullReply, Transport};
use crate::vertex_table::{FetchMetrics, PartitionedVertexTable};

use qcm_core::{CoreNumbering, RunOutcome, TaskAssembly};
use qcm_graph::neighborhoods::perf;
use qcm_graph::{Graph, VertexId};
use qcm_obs::clock::Instant;
use qcm_obs::SpanKind;
use qcm_sync::atomic::{AtomicU64, Ordering};
use qcm_sync::{Arc, Mutex};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

/// One emitted result row.
pub(crate) type Row = Vec<VertexId>;

/// The queues and bookkeeping of one machine.
pub(crate) struct Machine {
    /// The big-task lane: big tasks plus worker-deque overflow, spilling to
    /// disk when full. The balancer steals from here.
    big: Mutex<TaskQueue<QCTask>>,
    /// One bounded deque per mining thread of this machine (small tasks).
    workers: WorkerQueues<QCTask>,
    threads: usize,
    /// Owned vertices not yet spawned.
    cursor: Mutex<VecDeque<VertexId>>,
    /// The steal-grant book (delivery is at-least-once, processing exactly
    /// once). Grants sent and not yet acked: seq → (receiver, the batch
    /// itself — moved here, not copied), kept so a driver whose network can
    /// lose messages can retransmit.
    unacked: Mutex<BTreeMap<u64, (MachineId, Vec<QCTask>)>>,
    /// Grants already decoded here; a retransmitted duplicate is re-acked,
    /// not re-enqueued. One `u64` per grant received (at most one per balance
    /// period), never pruned: no message tells the receiver that its ack
    /// arrived, so no entry is provably dead while the run lasts.
    seen: Mutex<BTreeSet<u64>>,
}

impl Machine {
    /// Pending tasks of the big-task lane (in memory + spilled) — the load
    /// figure the balancer evens out.
    pub(crate) fn big_pending(&self) -> usize {
        self.big.lock().total_pending()
    }

    /// True while a task is queued or a vertex is still unspawned here.
    pub(crate) fn has_work(&self) -> bool {
        self.workers.total_approx_len() > 0
            || self.big_pending() > 0
            || !self.cursor.lock().is_empty()
    }

    /// Puts tasks (back) into the big-task lane.
    fn requeue(&self, tasks: Vec<QCTask>) {
        let mut big = self.big.lock();
        for task in tasks {
            big.push(task);
        }
    }

    /// The owned vertices not yet spawned.
    pub(crate) fn unspawned(&self) -> Vec<VertexId> {
        self.cursor.lock().iter().copied().collect()
    }

    /// The receiver and encoded batch of grant `seq` while it awaits its ack.
    pub(crate) fn unacked_grant(&self, seq: u64) -> Option<(MachineId, Vec<Vec<u8>>)> {
        let unacked = self.unacked.lock();
        let (to, batch) = unacked.get(&seq)?;
        Some((*to, encode_tasks(batch)))
    }

    /// Gives up on grant `seq`: returns the tasks it carried.
    pub(crate) fn abandon_grant(&self, seq: u64) -> Vec<QCTask> {
        let grant = self.unacked.lock().remove(&seq);
        grant.map(|(_, batch)| batch).unwrap_or_default()
    }
}

/// Adds to a statistics counter.
fn count(counter: &AtomicU64, n: u64) {
    // ordering: Relaxed — statistics; no other memory depends on them and
    // readers tolerate skew until the drivers quiesce.
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Closes a spill/refill span: its payload is the number of tasks that
/// moved, and it records nothing when none did.
fn close_span(mut span: qcm_obs::SpanGuard, moved: usize) {
    if moved > 0 {
        span.set_arg(moved as u64);
    } else {
        span.cancel();
    }
}

/// Encodes a steal batch for the wire.
fn encode_tasks(batch: &[QCTask]) -> Vec<Vec<u8>> {
    let encode = |task: &QCTask| {
        let mut buf = Vec::new();
        task.encode(&mut buf);
        buf
    };
    batch.iter().map(encode).collect()
}

/// Decodes a steal batch; the second value counts undecodable entries.
fn decode_tasks(blobs: &[Vec<u8>]) -> (Vec<QCTask>, usize) {
    let tasks: Vec<QCTask> = blobs
        .iter()
        .filter_map(|blob| QCTask::decode(&mut blob.as_slice()))
        .collect();
    let lost = blobs.len() - tasks.len();
    (tasks, lost)
}

/// The accounting of a task between its pop and its last compute step.
pub(crate) struct InFlight {
    started: Instant,
    mem: u64,
    timings: TaskTimings,
}

/// What [`Run::handle_msg`] leaves for the driver to do.
pub(crate) enum Handled {
    /// Nothing: the step was self-contained.
    Done,
    /// Adjacency lists arrived for an earlier pull request. Only a
    /// split-phase driver has a task waiting for them; the threaded driver
    /// pulls synchronously and drops a stray response.
    PullResponse {
        from: MachineId,
        token: u64,
        lists: PullReply,
    },
    /// This machine sent grant `seq` and holds it until the ack; a driver
    /// with a lossy network arms its retransmit timer.
    Granted { seq: u64 },
}

/// One planned big-task steal: `poor` asks `rich` for `count` tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BalanceMove {
    pub rich: usize,
    pub poor: usize,
    pub count: usize,
}

/// Section 5's stealing plan as a pure function: among the alive machines,
/// the one with the most pending big tasks gives to the one with the fewest,
/// when they differ by more than one and the rich one is above the average;
/// half the gap moves, capped at one batch.
pub(crate) fn plan_balance(
    pending: &[usize],
    alive: &[bool],
    batch_size: usize,
) -> Option<BalanceMove> {
    let candidates = || (0..pending.len()).filter(|&m| alive[m]);
    let rich = candidates().max_by_key(|&m| pending[m])?;
    let poor = candidates().min_by_key(|&m| pending[m])?;
    let total: usize = candidates().map(|m| pending[m]).sum();
    let avg = total / candidates().count();
    let (rich_count, poor_count) = (pending[rich], pending[poor]);
    if rich == poor || rich_count <= poor_count + 1 || rich_count <= avg {
        return None;
    }
    Some(BalanceMove {
        rich,
        poor,
        count: batch_size.min((rich_count - poor_count) / 2).max(1),
    })
}

/// Everything one execution shares, and the protocol steps over it.
pub(crate) struct Run<'a> {
    pub(crate) app: &'a QuasiCliqueApp,
    pub(crate) config: &'a EngineConfig,
    pub(crate) table: PartitionedVertexTable,
    /// The core numbering of the run's task assemblies: every vertex of the
    /// graph with a neighbour, the only vertices a task pulls.
    core: Arc<CoreNumbering>,
    /// All cross-machine interactions (pulls, steal requests/grants/acks,
    /// shutdown) travel through it; same-machine paths stay shared-memory.
    pub(crate) transport: Arc<dyn Transport>,
    pub(crate) machines: Vec<Machine>,
    pub(crate) term: Termination,
    pub(crate) fetch: Arc<FetchMetrics>,
    spill: Arc<SpillMetrics>,
    /// Sequence numbers of steal requests, echoed by grants and acks.
    steal_seq: AtomicU64,
    task_times: Mutex<Vec<TaskTimeRecord>>,
    started: Instant,
    counters: Counters,
}

/// Statistics counters of a run; none of them synchronises anything.
#[derive(Default)]
struct Counters {
    tasks_spawned: AtomicU64,
    tasks_processed: AtomicU64,
    tasks_decomposed: AtomicU64,
    stolen_tasks: AtomicU64,
    pop_contention: AtomicU64,
    active_task_bytes: AtomicU64,
    peak_task_bytes: AtomicU64,
    mining_nanos: AtomicU64,
    materialization_nanos: AtomicU64,
}

impl<'a> Run<'a> {
    /// Sets a run up: partitions the vertex table holding `vertices`, binds
    /// the transport and creates one [`Machine`] per partition with `threads`
    /// worker deques each. Each machine's spawn cursor walks its share of
    /// `vertices`.
    pub(crate) fn new(
        app: &'a QuasiCliqueApp,
        config: &'a EngineConfig,
        graph: Arc<Graph>,
        vertices: Vec<VertexId>,
        transport: Arc<dyn Transport>,
        threads: usize,
    ) -> Self {
        let started = Instant::now();
        let held: Vec<VertexId> = graph.vertices().filter(|&v| graph.degree(v) > 0).collect();
        let core = Arc::new(CoreNumbering::new(held));
        let table = PartitionedVertexTable::new(graph, vertices, config.num_machines);
        transport.bind(&table);
        let spill = Arc::new(SpillMetrics::default());
        let machines = (0..config.num_machines)
            .map(|m| Machine {
                big: Mutex::new(TaskQueue::new(
                    config.global_queue_capacity,
                    config.batch_size,
                    SpillStore::new(
                        config.spill_dir.clone(),
                        format!("m{m}-global"),
                        spill.clone(),
                    ),
                )),
                workers: WorkerQueues::new(threads, config.local_capacity, config.steal_batch),
                threads,
                cursor: Mutex::new(table.owned_vertices(m).into()),
                unacked: Mutex::default(),
                seen: Mutex::default(),
            })
            .collect();
        Run {
            app,
            config,
            term: Termination::new(table.vertices().len()),
            table,
            core,
            transport,
            machines,
            fetch: Arc::new(FetchMetrics::default()),
            spill,
            steal_seq: AtomicU64::new(0),
            task_times: Mutex::new(Vec::new()),
            started,
            counters: Counters::default(),
        }
    }

    /// The scratch of one of the run's workers, with its own task assembly.
    pub(crate) fn worker_scratch(&self) -> WorkerScratch {
        let (params, config) = (self.app.params, &self.app.prune_config);
        WorkerScratch::building(TaskAssembly::new(params, config, self.core.clone()))
    }

    /// Spawns up to one batch of root tasks from machine `m`'s cursor,
    /// stopping early as soon as a spawned task is big (the paper's rule to
    /// avoid flooding the big-task lane from a single refill). True if at
    /// least one vertex left the cursor.
    pub(crate) fn spawn_batch(&self, m: usize, worker: usize) -> bool {
        let mut consumed = false;
        for _ in 0..self.config.batch_size {
            // Hold a transient pending slot across the spawn so that the
            // (unspawned, pending) pair can never both read zero mid-spawn.
            self.term.add_pending(1);
            let vertex = self.machines[m].cursor.lock().pop_front();
            let Some(v) = vertex else {
                self.term.release(1);
                break;
            };
            self.term.mark_spawned();
            consumed = true;
            let spawned_big = self.spawn_root(m, worker, v);
            self.term.release(1);
            if spawned_big {
                break;
            }
        }
        consumed
    }

    /// Calls `spawn(v)` on machine `m` and routes the task it creates; true
    /// if that task is big. Also the entry point for re-spawning a root whose
    /// work a fault lost.
    pub(crate) fn spawn_root(&self, m: usize, worker: usize, v: VertexId) -> bool {
        let task = self.app.spawn(v, self.table.adjacency(v));
        self.term.add_pending(1);
        count(&self.counters.tasks_spawned, 1);
        self.route(m, worker, task)
    }

    /// Routes a freshly created task: big tasks go to the machine's big-task
    /// lane, small tasks to the worker's own deque, overflowing into the lane
    /// — and from there to disk — when the deque is at capacity (the paper's
    /// bounded-memory spilling). Returns whether the task is big.
    pub(crate) fn route(&self, m: usize, worker: usize, task: QCTask) -> bool {
        let machine = &self.machines[m];
        let big = self.app.is_big(&task);
        // Measures the push-with-possible-spill.
        let spill_span = qcm_obs::span(SpanKind::Spill);
        let overflow = if big {
            Some(task)
        } else {
            machine.workers.push_local(worker, task).err()
        };
        let spilled = overflow.map_or(0, |task| machine.big.lock().push(task));
        close_span(spill_span, spilled);
        big
    }

    /// Pops the next task for `worker` of machine `m`:
    ///
    /// 1. the worker's own deque (LIFO — hottest subtree first, own lock,
    ///    contention-free in the common case);
    /// 2. the machine's big-task lane (FIFO; big tasks plus overflow),
    ///    refilled from its spill files when it runs below one batch — a
    ///    try-lock, so a worker never stalls behind a sibling's pop (the miss
    ///    is counted as `pop_contention`); spilled tasks that do not come
    ///    back fault the run;
    /// 3. a FIFO steal from the fullest sibling deque on the same machine
    ///    (Figure 8's stealing, brought inside the machine).
    pub(crate) fn pop_task(&self, m: usize, worker: usize) -> Option<QCTask> {
        let machine = &self.machines[m];
        if let Some(task) = machine.workers.pop_local(worker) {
            return Some(task);
        }
        match machine.big.try_lock() {
            Some(mut big) => {
                if big.needs_refill() {
                    let refill_span = qcm_obs::span(SpanKind::Spill);
                    let refilled = big.refill_from_spill().unwrap_or_default();
                    close_span(refill_span, refilled.restored);
                    self.lose_unreadable(refilled.lost);
                }
                if let Some(task) = big.pop() {
                    return Some(task);
                }
            }
            None => {
                count(&self.counters.pop_contention, 1);
            }
        }
        // Steal span: recorded only when the sweep actually moved a task.
        let mut steal_span = qcm_obs::span(SpanKind::Steal);
        let stolen = machine.workers.steal_into(worker, 0..machine.threads);
        if stolen.is_none() {
            steal_span.cancel();
        }
        stolen
    }

    /// Starts the accounting of a popped task.
    pub(crate) fn begin_task(&self, task: &QCTask) -> InFlight {
        let mem = self.app.task_memory_bytes(task) as u64;
        self.add_active_bytes(mem);
        InFlight {
            started: Instant::now(),
            mem,
            timings: TaskTimings::default(),
        }
    }

    /// Runs one `compute` iteration of `task` over its resolved `frontier`,
    /// loaning the caller's scratch buffers to the application, and routes the
    /// subtasks it decomposed into. Holds no machine-wide lock while the
    /// application computes. Returns whether the task needs another iteration
    /// (resolve its pulls, step again) and the rows this one emitted.
    pub(crate) fn compute_step(
        &self,
        m: usize,
        worker: usize,
        task: &mut QCTask,
        flight: &mut InFlight,
        frontier: &Frontier,
        scratch: &mut WorkerScratch,
    ) -> (bool, Vec<Row>) {
        let (more, mined) = self.app.compute(task, frontier, scratch);
        // Publish what this step's kernels counted: a worker's counters are
        // thread-local until flushed.
        perf::flush();
        flight.timings.merge(&mined.timings);
        if mined.interrupted {
            // The mine phase observed the token and truncated this task.
            self.term.interrupt();
        }
        for subtask in mined.subtasks {
            self.term.add_pending(1);
            count(&self.counters.tasks_decomposed, 1);
            self.route(m, worker, subtask);
        }
        // The task's subgraph may have grown (the build rounds materialise it).
        let mem = self.app.task_memory_bytes(task) as u64;
        if mem > flight.mem {
            self.add_active_bytes(mem - flight.mem);
        } else {
            self.sub_active_bytes(flight.mem - mem);
        }
        flight.mem = mem;
        (more, mined.results)
    }

    /// Closes the accounting of a task whose last step reported it finished,
    /// then releases its pending slot.
    pub(crate) fn finish_task(&self, task: &QCTask, flight: InFlight) {
        self.sub_active_bytes(flight.mem);
        let (timings, c) = (&flight.timings, &self.counters);
        count(&c.tasks_processed, 1);
        count(&c.mining_nanos, timings.mining.as_nanos() as u64);
        count(
            &c.materialization_nanos,
            timings.materialization.as_nanos() as u64,
        );
        self.task_times.lock().push(TaskTimeRecord {
            root: task.root,
            subgraph_size: task.subgraph_size(),
            elapsed: flight.started.elapsed(),
            timings: flight.timings,
        });
        self.term.release(1);
    }

    /// Abandons a task that can never finish (its pull exhausted the retry
    /// budget): labels the run and releases the task's pending slot so the
    /// pool still drains. Rows its earlier iterations emitted are kept.
    pub(crate) fn abandon_task(&self, flight: InFlight) {
        self.term.fault();
        self.drop_flight(flight);
        self.term.release(1);
    }

    /// Closes the accounting of a task the driver lost mid-flight (a crash, an
    /// abandoned pull) without touching the termination counters.
    pub(crate) fn drop_flight(&self, flight: InFlight) {
        self.sub_active_bytes(flight.mem);
    }

    /// `lost` tasks that a spill batch or a steal grant carried did not
    /// decode: they can never run, so their pending slots are released for
    /// the pool to drain, and the run is labelled.
    fn lose_unreadable(&self, lost: usize) {
        if lost > 0 {
            self.term.fault();
            self.term.release(lost);
        }
    }

    /// Machine `m` dies: every task it queued (in memory, spilled, or held in
    /// an unacked grant) is taken out and returned. Spilled tasks that do not
    /// come back are lost with no root to respawn, which faults the run. The
    /// spawn cursor survives — the vertex partition is re-readable state.
    pub(crate) fn crash(&self, m: usize) -> Vec<QCTask> {
        let machine = &self.machines[m];
        let mut lost = Vec::new();
        for worker in 0..machine.threads {
            while let Some(task) = machine.workers.pop_local(worker) {
                lost.push(task);
            }
        }
        let mut big = machine.big.lock();
        loop {
            while let Some(task) = big.pop() {
                lost.push(task);
            }
            let Some(refilled) = big.refill_from_spill() else {
                break;
            };
            self.lose_unreadable(refilled.lost);
        }
        for (_, batch) in std::mem::take(&mut *machine.unacked.lock()).into_values() {
            lost.extend(batch);
        }
        lost
    }

    /// Handles one message addressed to machine `m`: serves a pull from the
    /// local partition, grants a steal batch from the big-task lane, decodes
    /// a granted batch into the lane and acks it, releases an acked grant.
    pub(crate) fn handle_msg(&self, m: usize, env: Envelope) -> Handled {
        let machine = &self.machines[m];
        let from = env.from;
        match env.msg {
            EngineMsg::PullRequest { token, vertices } => {
                let lists = vertices
                    .iter()
                    .map(|&v| (v, Arc::new(self.table.adjacency(v).to_vec())))
                    .collect();
                let reply = EngineMsg::PullResponse { token, lists };
                let _ = self.transport.send(m, from, reply);
            }
            EngineMsg::PullResponse { token, lists } => {
                return Handled::PullResponse { from, token, lists };
            }
            EngineMsg::StealRequest { seq, count } => {
                let batch = machine.big.lock().take_batch(count as usize);
                if batch.is_empty() {
                    return Handled::Done;
                }
                let tasks = encode_tasks(&batch);
                // Booked before the send, so the ack can never overtake it.
                machine.unacked.lock().insert(seq, (from, batch));
                let grant = EngineMsg::StealGrant { seq, tasks };
                if self.transport.send(m, from, grant).is_ok() {
                    return Handled::Granted { seq };
                }
                // Unreachable peer: keep the batch local rather than lose it.
                machine.requeue(machine.abandon_grant(seq));
            }
            EngineMsg::StealGrant { seq, tasks } => {
                if machine.seen.lock().insert(seq) {
                    let (decoded, lost) = decode_tasks(&tasks);
                    self.lose_unreadable(lost);
                    count(&self.counters.stolen_tasks, decoded.len() as u64);
                    machine.requeue(decoded);
                }
                // A duplicate means our ack was lost: ack again.
                let _ = self.transport.send(m, from, EngineMsg::StealAck { seq });
            }
            EngineMsg::StealAck { seq } => {
                machine.unacked.lock().remove(&seq);
            }
            EngineMsg::Shutdown => self.term.finish(),
        }
        Handled::Done
    }

    /// One pass of the master's load balancing (big-task stealing between
    /// machines): reads every alive machine's big-task lane depth and, when
    /// [`plan_balance`] finds a move, sends the [`EngineMsg::StealRequest`]
    /// on the poor machine's behalf. The rich machine answers with a grant
    /// carrying the serialised batch; the poor one decodes it and acks.
    pub(crate) fn balance(&self, alive: &[bool]) {
        let pending: Vec<usize> = self.machines.iter().map(Machine::big_pending).collect();
        let Some(mv) = plan_balance(&pending, alive, self.config.batch_size) else {
            return;
        };
        // ordering: Relaxed — unique sequence numbers only need RMW atomicity.
        let seq = self.steal_seq.fetch_add(1, Ordering::Relaxed);
        let count = mv.count as u32;
        let request = EngineMsg::StealRequest { seq, count };
        let _ = self.transport.send(mv.poor, mv.rich, request);
    }

    /// Assembles the run's metrics once the driver has quiesced.
    pub(crate) fn metrics(
        &self,
        results_emitted: u64,
        worker_busy: Vec<Duration>,
        outcome: RunOutcome,
    ) -> EngineMetrics {
        let transport = self.transport.stats();
        // ordering: Relaxed (every load below) — read after the driver
        // quiesced; its join edge (or single thread) already orders every
        // counter write before these loads.
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let (c, workers) = (&self.counters, || self.machines.iter().map(|m| &m.workers));
        debug_assert_eq!(load(&c.active_task_bytes), 0, "a task's bytes outlived it");
        EngineMetrics {
            elapsed: self.started.elapsed(),
            tasks_spawned: load(&c.tasks_spawned),
            tasks_processed: load(&c.tasks_processed),
            tasks_decomposed: load(&c.tasks_decomposed),
            results_emitted,
            peak_task_bytes: load(&c.peak_task_bytes),
            spill_bytes_written: load(&self.spill.bytes_written),
            spill_bytes_read: load(&self.spill.bytes_read),
            spill_peak_bytes: load(&self.spill.peak_bytes),
            local_reads: load(&self.fetch.local_reads),
            remote_fetches: load(&self.fetch.remote_fetches),
            remote_bytes: load(&self.fetch.remote_bytes),
            cache_hits: load(&self.fetch.cache_hits),
            cache_evictions: load(&self.fetch.cache_evictions),
            pull_retries: load(&self.fetch.pull_retries),
            pull_failures: load(&self.fetch.pull_failures),
            transport_messages: transport.messages_sent,
            transport_dropped: transport.messages_dropped,
            virtual_time: None,
            stolen_tasks: load(&c.stolen_tasks),
            steals: workers().map(WorkerQueues::steals).sum(),
            steal_failures: workers().map(WorkerQueues::steal_failures).sum(),
            pop_contention: load(&c.pop_contention),
            total_mining_time: Duration::from_nanos(load(&c.mining_nanos)),
            total_materialization_time: Duration::from_nanos(load(&c.materialization_nanos)),
            task_times: std::mem::take(&mut *self.task_times.lock()),
            worker_busy,
            outcome,
        }
    }

    fn add_active_bytes(&self, bytes: u64) {
        // ordering: Relaxed — live-bytes gauge and its peak are advisory
        // accounting; no synchronisation piggybacks on them.
        let c = &self.counters;
        let now = c.active_task_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        c.peak_task_bytes.fetch_max(now, Ordering::Relaxed);
    }

    fn sub_active_bytes(&self, bytes: u64) {
        // ordering: Relaxed — see add_active_bytes.
        let gauge = &self.counters.active_task_bytes;
        gauge.fetch_sub(bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterations::tests::figure4;
    use crate::transport::InProcTransport;
    use qcm_core::MiningParams;

    fn plan(pending: &[usize], batch_size: usize) -> Option<BalanceMove> {
        plan_balance(pending, &vec![true; pending.len()], batch_size)
    }

    #[test]
    fn plan_balance_table() {
        let mv = |rich, poor, count| Some(BalanceMove { rich, poor, count });
        // Balanced and off-by-one clusters stay put.
        assert_eq!(plan(&[4, 4, 4], 16), None);
        assert_eq!(plan(&[0, 0], 16), None);
        assert_eq!(plan(&[5, 4, 4], 16), None);
        assert_eq!(plan(&[3], 16), None);
        // One rich machine, many empty: half the gap moves to the first
        // poorest machine.
        assert_eq!(plan(&[0, 10, 0, 0], 16), mv(1, 0, 5));
        assert_eq!(plan(&[2, 0], 16), mv(0, 1, 1));
        // The batch size caps a move.
        assert_eq!(plan(&[100, 0], 16), mv(0, 1, 16));
        assert_eq!(plan(&[100, 0], 1), mv(0, 1, 1));
    }

    #[test]
    fn plan_balance_skips_dead_machines() {
        // A dead richest machine neither gives...
        assert_eq!(
            plan_balance(&[50, 6, 0], &[false, true, true], 16),
            Some(BalanceMove {
                rich: 1,
                poor: 2,
                count: 3
            })
        );
        // ...nor does a dead empty machine receive.
        assert_eq!(plan_balance(&[9, 8, 0], &[true, true, false], 16), None);
        assert_eq!(plan_balance(&[9, 0], &[false, false], 16), None);
    }

    /// A spilled batch whose file is gone can never run: popping past it
    /// faults the run and releases the lost tasks' pending slots, so the pool
    /// drains instead of waiting for them forever.
    #[test]
    fn a_spill_batch_that_comes_back_short_faults_the_run() {
        let dir = std::env::temp_dir().join(format!("qcm_short_spill_{}", std::process::id()));
        let g = Arc::new(figure4());
        // k = 1: the six vertices with a larger neighbour are the suffix
        // roots, and spawn a task each.
        let (g, roots) = qcm_graph::kcore::k_core_masked_with_roots(&g, 1);
        let app = QuasiCliqueApp::new(MiningParams::new(0.5, 3), 100, Duration::ZERO);
        let mut config = EngineConfig::single_machine(1);
        config.batch_size = 2;
        config.local_capacity = 2;
        config.global_queue_capacity = 2;
        config.spill_dir = Some(dir.clone());
        let transport = Arc::new(InProcTransport::new(1, false, 0));
        let run = Run::new(&app, &config, g, roots, transport, 1);
        while run.spawn_batch(0, 0) {}
        assert!(run.spill.bytes_written.load(Ordering::Relaxed) > 0);
        for file in std::fs::read_dir(&dir).unwrap() {
            std::fs::remove_file(file.unwrap().path()).unwrap();
        }
        let mut popped = 0;
        while let Some(task) = run.pop_task(0, 0) {
            let flight = run.begin_task(&task);
            run.finish_task(&task, flight);
            popped += 1;
        }
        assert_eq!(popped, 4, "two deque slots, two lane slots");
        assert!(run.term.is_faulted());
        assert!(
            run.term.is_quiescent(),
            "lost tasks still hold pending slots"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
