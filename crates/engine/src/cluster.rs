//! The simulated cluster: machines, mining threads, the reforged scheduler
//! and big-task stealing.
//!
//! This is the system half of the paper's codesign (Section 5). A
//! [`Cluster`] runs a [`GThinkerApp`] over a shared input graph on
//! `num_machines × threads_per_machine` mining threads. Each *machine* is a
//! thread group owning
//!
//! * a hash partition of the vertex table and a remote-vertex cache,
//! * a **global task queue** for big tasks (the reforge addition) with its own
//!   spill file list `L_big`,
//! * a spawn cursor over its owned vertices,
//!
//! while each *mining thread* owns a local queue (+ `L_small`) for small
//! tasks. The worker loop follows the reforged Algorithm 3: big tasks are
//! popped with priority, queues refill from spill files before spawning new
//! roots, and spawning stops as soon as it produces a big task. A master
//! load-balancer thread periodically evens out pending big tasks across
//! machines (task stealing).

use crate::codec::EngineMsg;
use crate::config::EngineConfig;
use crate::metrics::{EngineMetrics, TaskTimeRecord};
use crate::queue::TaskQueue;
use crate::spill::{SpillMetrics, SpillStore};
use crate::steal::WorkerQueues;
use crate::task::{ComputeContext, Frontier, GThinkerApp, TaskCodec, TaskTimings};
use crate::transport::Transport;
use crate::vertex_table::{DataService, FetchMetrics, PartitionedVertexTable};

use qcm_core::{MiningScratch, RunOutcome};
use qcm_graph::{Graph, VertexId};
use qcm_obs::clock::Instant;
use qcm_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use qcm_sync::{Arc, Condvar, Mutex};
use std::collections::VecDeque;
use std::time::Duration;

/// The output of an engine run: raw result rows (the application's emitted
/// quasi-cliques, before maximality post-processing) and the run metrics.
#[derive(Clone, Debug, Default)]
pub struct EngineOutput {
    /// Emitted result rows (members sorted by the caller if needed).
    pub results: Vec<Vec<VertexId>>,
    /// Metrics of the run.
    pub metrics: EngineMetrics,
    /// The neighborhood index the run's vertex table served edge queries
    /// through — handed back so post-processing (maximality, result
    /// validation) reuses it instead of rebuilding.
    pub index: Option<Arc<qcm_graph::NeighborhoodIndex>>,
}

/// Per-machine shared state.
struct MachineState<T> {
    global_queue: Mutex<TaskQueue<T>>,
    spawn_cursor: Mutex<VecDeque<VertexId>>,
    data: DataService,
}

/// Cluster-wide shared state used by the worker and balancer threads.
struct SharedState<'a, A: GThinkerApp> {
    app: &'a A,
    config: &'a EngineConfig,
    table: PartitionedVertexTable,
    machines: Vec<MachineState<A::Task>>,
    /// Per-worker bounded deques + the intra-machine steal protocol. Small
    /// tasks live here; the machines' global queues keep the big-task lane
    /// and the spill/overflow path.
    worker_queues: WorkerQueues<A::Task>,
    /// The inter-machine message-passing layer. All cross-machine
    /// interactions (pulls, steal requests/grants, spill/refill notices,
    /// shutdown) travel through it; same-machine paths stay shared-memory.
    transport: Arc<dyn Transport>,
    /// Monotonic sequence numbers for steal requests, so grants and acks can
    /// be correlated in event logs.
    steal_seq: AtomicU64,
    /// True once a fault (pull retry budget exhausted, undecodable stolen
    /// task) dropped part of the workload; labels the run
    /// [`RunOutcome::Faulted`] unless cancellation explains the loss.
    faulted: AtomicBool,
    /// Tasks spawned or decomposed but not yet fully processed (plus a
    /// transient +1 held while a spawn call is in flight, which closes the
    /// race between the spawn-cursor decrement and the task registration).
    pending_tasks: AtomicUsize,
    /// Vertices not yet consumed by any spawn cursor.
    unspawned: AtomicUsize,
    done: AtomicBool,
    /// Lets the balancer wait out its period yet wake the moment `done` is
    /// set, so the worker scope never joins a full period late.
    balancer_gate: Mutex<()>,
    balancer_wake: Condvar,
    /// True once any task's compute call observed the cancellation token
    /// fired and truncated its own backtracking. Combined with the
    /// work-remaining check after shutdown to label the run outcome, so a
    /// run that drained everything is never mislabelled as partial when the
    /// deadline passes during metric assembly, and vice versa.
    interrupted: AtomicBool,
    results: Mutex<Vec<Vec<VertexId>>>,
    task_times: Mutex<Vec<TaskTimeRecord>>,
    tasks_spawned: AtomicU64,
    tasks_processed: AtomicU64,
    tasks_decomposed: AtomicU64,
    active_task_bytes: AtomicU64,
    peak_task_bytes: AtomicU64,
    mining_nanos: AtomicU64,
    materialization_nanos: AtomicU64,
    stolen_tasks: AtomicU64,
    pop_contention: AtomicU64,
}

impl<'a, A: GThinkerApp> SharedState<'a, A> {
    /// Ends the run: every worker and the balancer drain out.
    fn finish(&self) {
        // ordering: Release — publishes everything this thread wrote before
        // finishing; pairs with the Acquire polls of `done`.
        self.done.store(true, Ordering::Release);
        // Passing through the gate orders the notify after a balancer that
        // checked `done` under it and is about to wait.
        drop(self.balancer_gate.lock());
        self.balancer_wake.notify_all();
    }

    fn add_active_bytes(&self, bytes: u64) {
        // ordering: Relaxed — live-bytes gauge and its peak are advisory
        // accounting; no synchronisation piggybacks on them.
        let now = self.active_task_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_task_bytes.fetch_max(now, Ordering::Relaxed);
    }

    fn sub_active_bytes(&self, bytes: u64) {
        // ordering: Relaxed — see add_active_bytes.
        self.active_task_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// A simulated G-thinker cluster executing one application.
pub struct Cluster<A: GThinkerApp> {
    app: Arc<A>,
    config: EngineConfig,
}

impl<A: GThinkerApp> Cluster<A> {
    /// Creates a cluster for `app` with the given configuration.
    pub fn new(app: Arc<A>, config: EngineConfig) -> Self {
        config.validate();
        Cluster { app, config }
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs the application over `graph` until every spawned task (and every
    /// task transitively created by decomposition) has completed.
    pub fn run(&self, graph: Arc<Graph>) -> EngineOutput {
        let start = Instant::now();
        let config = &self.config;
        // Reuse the caller's per-graph index when one was threaded through
        // (session/service layers build it once per graph); otherwise build
        // per the configured policy.
        let index = match &config.shared_index {
            Some(shared) if Arc::ptr_eq(shared.graph(), &graph) => shared.clone(),
            _ => Arc::new(qcm_graph::NeighborhoodIndex::build(graph, config.index)),
        };
        let table = PartitionedVertexTable::with_index(index.clone(), config.num_machines);
        let spill_metrics = Arc::new(SpillMetrics::default());
        let fetch_metrics = Arc::new(FetchMetrics::default());
        let transport = config.transport.build(config.num_machines);
        transport.bind(&table);

        let machines: Vec<MachineState<A::Task>> = (0..config.num_machines)
            .map(|m| {
                let owned: VecDeque<VertexId> = table.owned_vertices(m).into();
                MachineState {
                    global_queue: Mutex::new(TaskQueue::new(
                        config.global_queue_capacity,
                        config.batch_size,
                        SpillStore::new(
                            config.spill_dir.clone(),
                            format!("m{m}-global"),
                            spill_metrics.clone(),
                        ),
                    )),
                    spawn_cursor: Mutex::new(owned),
                    data: DataService::new(
                        table.clone(),
                        m,
                        config.vertex_cache_capacity,
                        fetch_metrics.clone(),
                        transport.clone(),
                        config.pull_timeout,
                        config.pull_retries,
                    ),
                }
            })
            .collect();

        let unspawned_total: usize = table.graph().num_vertices();
        let shared = SharedState {
            app: self.app.as_ref(),
            config,
            table,
            machines,
            worker_queues: WorkerQueues::new(
                config.total_threads(),
                config.local_capacity,
                config.steal_batch,
            ),
            transport: transport.clone(),
            steal_seq: AtomicU64::new(0),
            faulted: AtomicBool::new(false),
            pending_tasks: AtomicUsize::new(0),
            unspawned: AtomicUsize::new(unspawned_total),
            done: AtomicBool::new(false),
            balancer_gate: Mutex::new(()),
            balancer_wake: Condvar::new(),
            interrupted: AtomicBool::new(false),
            results: Mutex::new(Vec::new()),
            task_times: Mutex::new(Vec::new()),
            tasks_spawned: AtomicU64::new(0),
            tasks_processed: AtomicU64::new(0),
            tasks_decomposed: AtomicU64::new(0),
            active_task_bytes: AtomicU64::new(0),
            peak_task_bytes: AtomicU64::new(0),
            mining_nanos: AtomicU64::new(0),
            materialization_nanos: AtomicU64::new(0),
            stolen_tasks: AtomicU64::new(0),
            pop_contention: AtomicU64::new(0),
        };

        let total_workers = config.total_threads();
        let worker_busy: Mutex<Vec<Duration>> = Mutex::new(vec![Duration::ZERO; total_workers]);

        // A worker panic resumes out of the scope once every thread joined.
        qcm_sync::thread::scope(|scope| {
            // Master load balancer (big-task stealing between machines).
            if config.num_machines > 1 {
                scope.spawn(|| balancer_loop(&shared));
            }
            for worker in 0..total_workers {
                let machine_id = worker / config.threads_per_machine;
                let shared_ref = &shared;
                let busy_ref = &worker_busy;
                scope.spawn(move || {
                    let busy = worker_loop(shared_ref, machine_id, worker);
                    busy_ref.lock()[worker] = busy;
                });
            }
        });

        let results = shared.results.into_inner();
        let transport_stats = transport.stats();
        let metrics = EngineMetrics {
            elapsed: start.elapsed(),
            // ordering: Relaxed — read after the worker scope joined; the join
            // edge already orders every worker's counter writes before these loads.
            tasks_spawned: shared.tasks_spawned.load(Ordering::Relaxed),
            tasks_processed: shared.tasks_processed.load(Ordering::Relaxed),
            tasks_decomposed: shared.tasks_decomposed.load(Ordering::Relaxed),
            results_emitted: results.len() as u64,
            peak_task_bytes: shared.peak_task_bytes.load(Ordering::Relaxed),
            spill_bytes_written: spill_metrics.bytes_written.load(Ordering::Relaxed),
            spill_bytes_read: spill_metrics.bytes_read.load(Ordering::Relaxed),
            spill_peak_bytes: spill_metrics.peak_bytes.load(Ordering::Relaxed),
            local_reads: fetch_metrics.local_reads.load(Ordering::Relaxed),
            remote_fetches: fetch_metrics.remote_fetches.load(Ordering::Relaxed),
            remote_bytes: fetch_metrics.remote_bytes.load(Ordering::Relaxed),
            cache_hits: fetch_metrics.cache_hits.load(Ordering::Relaxed),
            cache_evictions: fetch_metrics.cache_evictions.load(Ordering::Relaxed),
            pull_retries: fetch_metrics.pull_retries.load(Ordering::Relaxed),
            pull_failures: fetch_metrics.pull_failures.load(Ordering::Relaxed),
            transport_messages: transport_stats.messages_sent,
            transport_dropped: transport_stats.messages_dropped,
            virtual_time: None,
            stolen_tasks: shared.stolen_tasks.load(Ordering::Relaxed),
            steals: shared.worker_queues.steals(),
            steal_failures: shared.worker_queues.steal_failures(),
            pop_contention: shared.pop_contention.load(Ordering::Relaxed),
            total_mining_time: Duration::from_nanos(shared.mining_nanos.load(Ordering::Relaxed)),
            total_materialization_time: Duration::from_nanos(
                shared.materialization_nanos.load(Ordering::Relaxed),
            ),
            task_times: shared.task_times.into_inner(),
            worker_busy: worker_busy.into_inner(),
            // Interrupted iff work was actually dropped: a task truncated its
            // own backtracking, a queued/in-flight task was abandoned, a
            // vertex was never spawned, or a fault lost part of the workload.
            // A cancellation that fires after the pool drained leaves the run
            // Complete; dropped work with no cancellation to blame is a fault.
            // ordering: Acquire — redundant after the join edge, kept to mirror
            // the in-run readers of these control flags.
            outcome: if shared.interrupted.load(Ordering::Acquire)
                || shared.pending_tasks.load(Ordering::Acquire) > 0
                || shared.unspawned.load(Ordering::Acquire) > 0
                || shared.faulted.load(Ordering::Acquire)
            {
                match config.cancel.run_outcome() {
                    RunOutcome::Complete => RunOutcome::Faulted,
                    cancelled => cancelled,
                }
            } else {
                RunOutcome::Complete
            },
        };
        EngineOutput {
            results,
            metrics,
            index: Some(index),
        }
    }
}

/// Main loop of one mining thread (the reforged Algorithm 3, on the
/// work-stealing pop path).
fn worker_loop<A: GThinkerApp>(
    shared: &SharedState<'_, A>,
    machine_id: usize,
    worker_id: usize,
) -> Duration {
    let config = shared.config;
    // Tag this thread's trace lane with its (simulated) machine, so the
    // Chrome export renders one swimlane group per machine.
    qcm_obs::set_lane(machine_id as u32);
    // The worker's mining scratch arena, loaned to every task it processes —
    // the recursion frames warmed up by one task serve all later tasks on
    // this worker without reallocating.
    let mut scratch = MiningScratch::default();
    let mut busy = Duration::ZERO;
    loop {
        // ordering: Acquire — pairs with the Release stores of `done`, so a
        // worker that observes the flag also observes the finisher's writes.
        if shared.done.load(Ordering::Acquire) {
            break;
        }
        // Cooperative cancellation (deadline or explicit): stop popping and
        // tell every other worker to drain out. Results emitted so far are
        // kept; whether the run counts as interrupted is decided after all
        // workers exit, from the work that actually remained.
        if config.cancel.is_cancelled() {
            shared.finish();
            broadcast_shutdown(shared, machine_id);
            break;
        }
        // Drain this machine's transport mailbox first: steal grants refill
        // the global queue and must land before the idle check below, or an
        // in-flight batch could starve behind sleeping workers.
        pump_inbox(shared, machine_id);
        if let Some(task) = pop_task(shared, machine_id, worker_id) {
            let t0 = Instant::now();
            process_task(shared, machine_id, worker_id, &mut scratch, task);
            busy += t0.elapsed();
            continue;
        }
        let t0 = Instant::now();
        if spawn_batch(shared, machine_id, worker_id) {
            busy += t0.elapsed();
            continue;
        }
        // Nothing to pop, nothing to spawn: either the job is finished or
        // other workers still hold pending tasks. Tasks serialised inside an
        // in-flight steal grant still count as pending, so a machine never
        // declares completion while a batch is on the wire.
        // ordering: Acquire — pairs with the AcqRel RMWs on both counters.
        // `pending_tasks` is incremented before `unspawned` is decremented on
        // the spawn path, so both reading zero proves no task exists, is in
        // flight, or is still unspawned.
        if shared.pending_tasks.load(Ordering::Acquire) == 0
            && shared.unspawned.load(Ordering::Acquire) == 0
        {
            shared.finish();
            broadcast_shutdown(shared, machine_id);
            break;
        }
        qcm_sync::thread::sleep(Duration::from_micros(200));
    }
    busy
}

/// Tells every other machine the run is over (`done` is also a shared flag,
/// but the explicit [`EngineMsg::Shutdown`] keeps the protocol complete for
/// transports whose machines do not share memory).
fn broadcast_shutdown<A: GThinkerApp>(shared: &SharedState<'_, A>, machine_id: usize) {
    for peer in 0..shared.config.num_machines {
        if peer != machine_id {
            let _ = shared.transport.send(machine_id, peer, EngineMsg::Shutdown);
        }
    }
}

/// Drains and handles every message currently queued for `machine_id`.
///
/// Any worker of the machine may pump; the mailbox is machine-addressed, not
/// worker-addressed. Pull requests are answered defensively (the in-process
/// transport serves pulls synchronously itself, so none should appear here,
/// but a split-phase transport stays live), steal requests are granted from
/// the machine's big-task lane, grants are decoded into it.
fn pump_inbox<A: GThinkerApp>(shared: &SharedState<'_, A>, machine_id: usize) {
    while let Some(env) = shared.transport.try_recv(machine_id) {
        match env.msg {
            EngineMsg::PullRequest { token, vertices } => {
                let lists = vertices
                    .iter()
                    .map(|&v| (v, Arc::new(shared.table.adjacency(v).to_vec())))
                    .collect();
                let _ = shared.transport.send(
                    machine_id,
                    env.from,
                    EngineMsg::PullResponse { token, lists },
                );
            }
            // Stray pull response (its requester already timed out): ignore.
            EngineMsg::PullResponse { .. } => {}
            EngineMsg::StealRequest { seq, count } => {
                let batch = shared.machines[machine_id]
                    .global_queue
                    .lock()
                    .take_batch(count as usize);
                if batch.is_empty() {
                    continue;
                }
                let tasks: Vec<Vec<u8>> = batch
                    .iter()
                    .map(|t| {
                        let mut buf = Vec::new();
                        t.encode(&mut buf);
                        buf
                    })
                    .collect();
                if shared
                    .transport
                    .send(machine_id, env.from, EngineMsg::StealGrant { seq, tasks })
                    .is_err()
                {
                    // Unreachable peer: keep the batch local rather than lose it.
                    let mut gq = shared.machines[machine_id].global_queue.lock();
                    for t in batch {
                        gq.push(t);
                    }
                }
            }
            EngineMsg::StealGrant { seq, tasks } => {
                let mut decoded = Vec::with_capacity(tasks.len());
                let mut lost = 0usize;
                for buf in &tasks {
                    let mut slice = buf.as_slice();
                    match <A::Task as TaskCodec>::decode(&mut slice) {
                        Some(t) => decoded.push(t),
                        None => lost += 1,
                    }
                }
                if lost > 0 {
                    // An undecodable task can never run: release its pending
                    // slot so the pool still drains, and label the run.
                    // ordering: Release — the fault flag must be visible before the
                    // pending slot it excuses is released.
                    shared.faulted.store(true, Ordering::Release);
                    // ordering: AcqRel — counter protocol: a decrement publishes the work
                    // accounted to the slot and joins prior decrements, so a zero read
                    // proves global completion.
                    shared.pending_tasks.fetch_sub(lost, Ordering::AcqRel);
                }
                let n = decoded.len() as u64;
                if n > 0 {
                    let mut gq = shared.machines[machine_id].global_queue.lock();
                    for t in decoded {
                        gq.push(t);
                    }
                    // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
                    shared.stolen_tasks.fetch_add(n, Ordering::Relaxed);
                }
                let _ = shared
                    .transport
                    .send(machine_id, env.from, EngineMsg::StealAck { seq });
            }
            // The in-process transport is lossless once a grant is enqueued,
            // so the ack closes the loop without retransmit state.
            EngineMsg::StealAck { .. } => {}
            // Load hints from other machines' spill paths; the balancer reads
            // authoritative queue depths directly, so these are informational.
            EngineMsg::SpillNotice { .. } | EngineMsg::RefillNotice { .. } => {}
            EngineMsg::Shutdown => shared.finish(),
        }
    }
}

/// Pops the next task for `worker_id`:
///
/// 1. the worker's own deque (LIFO — hottest subtree first, own lock,
///    contention-free in the common case);
/// 2. the machine's global queue (big tasks with priority, plus overflow),
///    refilled from its spill files when it runs below one batch — a
///    try-lock, so a worker never stalls behind a sibling's pop (the miss is
///    counted as `pop_contention`);
/// 3. a FIFO steal from the fullest sibling deque on the same machine
///    (Figure 8's stealing, brought inside the machine).
fn pop_task<A: GThinkerApp>(
    shared: &SharedState<'_, A>,
    machine_id: usize,
    worker_id: usize,
) -> Option<A::Task> {
    if let Some(task) = shared.worker_queues.pop_local(worker_id) {
        return Some(task);
    }
    match shared.machines[machine_id].global_queue.try_lock() {
        Some(mut gq) => {
            if gq.needs_refill() {
                // Spill span (refill direction): recorded only when tasks
                // actually came back from the spill store.
                let mut refill_span = qcm_obs::span(qcm_obs::SpanKind::Spill);
                let restored = gq.refill_from_spill();
                if restored > 0 {
                    refill_span.set_arg(restored as u64);
                } else {
                    refill_span.cancel();
                }
                if restored > 0 {
                    // Lock order is global-queue → inbox here and inbox →
                    // global-queue in the pump, but the pump releases the
                    // inbox lock before touching the queue, so no cycle.
                    notify_master(
                        shared,
                        machine_id,
                        EngineMsg::RefillNotice {
                            machine: machine_id as u32,
                            restored: restored as u32,
                        },
                    );
                }
            }
            if let Some(task) = gq.pop() {
                return Some(task);
            }
        }
        None => {
            // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
            shared.pop_contention.fetch_add(1, Ordering::Relaxed);
        }
    }
    let tpm = shared.config.threads_per_machine;
    let siblings = machine_id * tpm..(machine_id + 1) * tpm;
    // Steal span: recorded only when the sweep actually moved a task.
    let mut steal_span = qcm_obs::span(qcm_obs::SpanKind::Steal);
    let stolen = shared.worker_queues.steal_into(worker_id, siblings);
    if stolen.is_none() {
        steal_span.cancel();
    }
    stolen
}

/// Routes a freshly created task: big tasks go to the machine's global queue
/// (the big-task lane the balancer steals from), small tasks go to the
/// worker's own deque, overflowing into the global queue — and from there to
/// disk — when the deque is at capacity (the paper's bounded-memory spilling
/// semantics).
fn route_task<A: GThinkerApp>(
    shared: &SharedState<'_, A>,
    machine_id: usize,
    worker_id: usize,
    task: A::Task,
) -> bool {
    let big = shared.app.is_big(&task);
    // Spill span: measures the push-with-possible-spill; cancelled (nothing
    // recorded) when the push stayed in memory.
    let mut spill_span = qcm_obs::span(qcm_obs::SpanKind::Spill);
    let (spilled, pending) = if big {
        let mut gq = shared.machines[machine_id].global_queue.lock();
        (gq.push(task), gq.total_pending())
    } else if let Err(task) = shared.worker_queues.push_local(worker_id, task) {
        let mut gq = shared.machines[machine_id].global_queue.lock();
        (gq.push(task), gq.total_pending())
    } else {
        (0, 0)
    };
    if spilled > 0 {
        spill_span.set_arg(spilled as u64);
    } else {
        spill_span.cancel();
    }
    if spilled > 0 {
        // Tell the master this machine is under memory pressure; the
        // balancer reads authoritative depths itself, so the notice is a
        // protocol-level load hint (and shows up in simulator event logs).
        notify_master(
            shared,
            machine_id,
            EngineMsg::SpillNotice {
                machine: machine_id as u32,
                pending: pending as u64,
            },
        );
    }
    big
}

/// Sends a notice to machine 0, where the master balancer conceptually
/// lives. Self-notices (machine 0's own spills) are observed locally and not
/// sent.
fn notify_master<A: GThinkerApp>(shared: &SharedState<'_, A>, machine_id: usize, msg: EngineMsg) {
    if shared.config.num_machines > 1 && machine_id != 0 {
        let _ = shared.transport.send(machine_id, 0, msg);
    }
}

/// Spawns up to one batch of root tasks from the machine's spawn cursor,
/// stopping early as soon as a spawned task is big (the paper's rule to avoid
/// flooding the global queue from a single refill). Returns true if at least
/// one vertex was consumed.
fn spawn_batch<A: GThinkerApp>(
    shared: &SharedState<'_, A>,
    machine_id: usize,
    worker_id: usize,
) -> bool {
    let mut consumed_any = false;
    for _ in 0..shared.config.batch_size {
        // Hold a transient pending slot across the spawn so that the
        // (unspawned, pending) pair can never both read zero mid-spawn.
        // ordering: AcqRel — counter protocol (see worker_loop's zero check):
        // the increment lands before the task becomes poppable.
        shared.pending_tasks.fetch_add(1, Ordering::AcqRel);
        let vertex = {
            let mut cursor = shared.machines[machine_id].spawn_cursor.lock();
            cursor.pop_front()
        };
        let Some(v) = vertex else {
            // ordering: AcqRel — counter protocol: releases this task's pending
            // slot after its effects are written.
            shared.pending_tasks.fetch_sub(1, Ordering::AcqRel);
            break;
        };
        // ordering: AcqRel — decremented only after the vertex's pending slot
        // (or its skip) is settled, keeping pending+unspawned > 0 while work
        // remains.
        shared.unspawned.fetch_sub(1, Ordering::AcqRel);
        consumed_any = true;

        let adj = shared.table.adjacency(v).to_vec();
        let mut ctx = ComputeContext::new();
        shared.app.spawn(v, &adj, &mut ctx);
        if !ctx.results.is_empty() {
            let mut results = shared.results.lock();
            results.extend(ctx.results);
        }
        let mut spawned_big = false;
        for task in ctx.new_tasks {
            // ordering: AcqRel — counter protocol (see worker_loop's zero check):
            // the increment lands before the task becomes poppable.
            shared.pending_tasks.fetch_add(1, Ordering::AcqRel);
            // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
            shared.tasks_spawned.fetch_add(1, Ordering::Relaxed);
            spawned_big |= route_task(shared, machine_id, worker_id, task);
        }
        // ordering: AcqRel — counter protocol: releases this task's pending
        // slot after its effects are written.
        shared.pending_tasks.fetch_sub(1, Ordering::AcqRel);
        if spawned_big {
            break;
        }
    }
    consumed_any
}

/// Processes one task to completion: repeatedly resolves its pending pulls
/// into a frontier and calls `compute` until the application reports the task
/// finished, routing any decomposed subtasks and results along the way.
fn process_task<A: GThinkerApp>(
    shared: &SharedState<'_, A>,
    machine_id: usize,
    worker_id: usize,
    scratch: &mut MiningScratch,
    mut task: A::Task,
) {
    let start = Instant::now();
    let mut task_span = qcm_obs::span(qcm_obs::SpanKind::Task);
    let mut mem = shared.app.task_memory_bytes(&task) as u64;
    shared.add_active_bytes(mem);
    let mut timings = TaskTimings::default();
    let mut fetch_scratch = crate::vertex_table::FetchScratch::default();
    loop {
        let mut frontier = Frontier::new();
        {
            let pending = shared.app.pending_pulls(&task);
            // Pull span: one fetch round; payload is the number of vertices
            // resolved. Skipped entirely when the task needs nothing, and
            // closed before compute runs so it measures only the fetches.
            let _pull_span = (!pending.is_empty())
                .then(|| qcm_obs::span_with(qcm_obs::SpanKind::Pull, pending.len() as u64));
            for &v in pending {
                match shared.machines[machine_id]
                    .data
                    .fetch_with(v, &mut fetch_scratch)
                {
                    Ok(adj) => frontier.insert(v, adj),
                    Err(_) => {
                        // The pull exhausted its retry budget: abandon the task
                        // and label the run as partial. Results already emitted
                        // by this task's earlier iterations are kept.
                        // ordering: Release — the fault flag must be visible before the
                        // pending slot it excuses is released.
                        shared.faulted.store(true, Ordering::Release);
                        shared.machines[machine_id].data.flush(&mut fetch_scratch);
                        shared.sub_active_bytes(mem);
                        // ordering: AcqRel — counter protocol: releases this task's pending
                        // slot after its effects are written.
                        shared.pending_tasks.fetch_sub(1, Ordering::AcqRel);
                        return;
                    }
                }
            }
        }
        let mut ctx = ComputeContext::new();
        // Loan the worker's arena to the application for this call.
        ctx.scratch = std::mem::take(scratch);
        let more = shared.app.compute(&mut task, &frontier, &mut ctx);
        *scratch = std::mem::take(&mut ctx.scratch);
        timings.merge(&ctx.timings);
        if ctx.interrupted {
            // The application observed the token and truncated this task.
            // ordering: Release — the truncated task's partial results are
            // published before the interruption becomes visible to the outcome
            // check.
            shared.interrupted.store(true, Ordering::Release);
        }
        if !ctx.results.is_empty() {
            shared.results.lock().extend(ctx.results);
        }
        for subtask in ctx.new_tasks {
            // ordering: AcqRel — counter protocol (see worker_loop's zero check):
            // the increment lands before the task becomes poppable.
            shared.pending_tasks.fetch_add(1, Ordering::AcqRel);
            // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
            shared.tasks_decomposed.fetch_add(1, Ordering::Relaxed);
            route_task(shared, machine_id, worker_id, subtask);
        }
        // The task's subgraph may have grown (iterations 1–2 materialise it).
        let new_mem = shared.app.task_memory_bytes(&task) as u64;
        if new_mem > mem {
            shared.add_active_bytes(new_mem - mem);
        } else {
            shared.sub_active_bytes(mem - new_mem);
        }
        mem = new_mem;
        if !more {
            break;
        }
    }
    let label = shared.app.task_label(&task);
    task_span.set_arg(label.root.map_or(0, |v| u64::from(v.raw())));
    shared.machines[machine_id].data.flush(&mut fetch_scratch);
    shared.sub_active_bytes(mem);
    // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
    shared.tasks_processed.fetch_add(1, Ordering::Relaxed);
    shared
        .mining_nanos
        // ordering: Relaxed — timing statistics, read after join.
        .fetch_add(timings.mining.as_nanos() as u64, Ordering::Relaxed);
    shared
        .materialization_nanos
        // ordering: Relaxed — timing statistics, read after join.
        .fetch_add(timings.materialization.as_nanos() as u64, Ordering::Relaxed);
    shared.task_times.lock().push(TaskTimeRecord {
        root: label.root,
        subgraph_size: label.subgraph_size,
        elapsed: start.elapsed(),
        timings,
    });
    // ordering: AcqRel — counter protocol: releases this task's pending
    // slot after its effects are written.
    shared.pending_tasks.fetch_sub(1, Ordering::AcqRel);
}

/// Master load-balancing loop: every `balance_period`, even out pending big
/// tasks across machines by asking the richest machine to grant a batch to
/// the poorest (Section 5's stealing plan). The move itself is
/// message-passing: the master sends an [`EngineMsg::StealRequest`] on the
/// poor machine's behalf, the rich machine's workers answer with an
/// [`EngineMsg::StealGrant`] carrying the serialised batch, and the poor
/// machine decodes it into its big-task lane and acks. Queue depths are read
/// through the shared locks — a control-plane read the master performs
/// directly, the way G-thinker's master aggregates load reports.
fn balancer_loop<A: GThinkerApp>(shared: &SharedState<'_, A>) {
    let config = shared.config;
    loop {
        // Wait out one period; `finish` cuts the wait short to end the run.
        let gate = shared.balancer_gate.lock();
        // ordering: Acquire — same pairing as the worker-loop `done` poll.
        if shared.done.load(Ordering::Acquire) {
            return;
        }
        let (gate, timed_out) = shared
            .balancer_wake
            .wait_timeout(gate, config.balance_period);
        drop(gate);
        if !timed_out {
            continue;
        }
        let counts: Vec<usize> = shared
            .machines
            .iter()
            .map(|m| m.global_queue.lock().total_pending())
            .collect();
        let total: usize = counts.iter().sum();
        if total == 0 {
            continue;
        }
        let avg = total / counts.len();
        let Some((rich, &rich_count)) = counts.iter().enumerate().max_by_key(|(_, &c)| c) else {
            continue;
        };
        let Some((poor, &poor_count)) = counts.iter().enumerate().min_by_key(|(_, &c)| c) else {
            continue;
        };
        if rich == poor || rich_count <= poor_count + 1 || rich_count <= avg {
            continue;
        }
        let to_move = config.batch_size.min((rich_count - poor_count) / 2).max(1);
        // ordering: Relaxed — unique sequence numbers only need RMW atomicity.
        let seq = shared.steal_seq.fetch_add(1, Ordering::Relaxed);
        let _ = shared.transport.send(
            poor,
            rich,
            EngineMsg::StealRequest {
                seq,
                count: to_move as u32,
            },
        );
    }
}
