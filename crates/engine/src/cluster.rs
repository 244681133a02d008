//! The engine's entry point and its threaded driver.
//!
//! This is the system half of the paper's codesign (Section 5). [`run`]
//! runs the quasi-clique application over a shared input graph for
//! [`crate::ParallelMiner`]. The per-machine protocol — queues, spawn
//! cursor, routing, message handling, asks for work — lives in the
//! `machine` module, and the configured [`TransportFactory`] picks the
//! driver that runs it: the discrete-event driver of [`crate::sim`] for
//! `Sim`, and for `InProc` the threaded driver in this module, on
//! `num_machines × threads_per_machine` mining threads. What the threaded
//! driver adds is particular to running on real threads:
//!
//! * the **worker loop** (the reforged Algorithm 3): pump the machine's
//!   mailbox, pop a task (big tasks and refills first), else spawn a batch,
//!   else check the termination counters and, with work left elsewhere, ask
//!   the machine with the most queued tasks for some (receiver-initiated
//!   stealing, the one balancer between machines; at most one ask per
//!   machine on the wire, and an idle worker asks again every 200 µs once
//!   the reply has come — these transports lose no steal message);
//! * **blocking pulls** through each machine's [`DataService`] (remote-vertex
//!   cache, zero-copy in-process fetch, per-attempt timeout and retries);
//! * cooperative **cancellation** and the run's outcome label.

use crate::app::QuasiCliqueApp;
use crate::codec::EngineMsg;
use crate::config::EngineConfig;
use crate::machine::{Row, Run};
use crate::metrics::EngineMetrics;
use crate::sim::Replay;
use crate::task::{Frontier, QCTask, WorkerScratch};
use crate::transport::{InProcTransport, TransportFactory};
use crate::vertex_table::{DataService, FetchScratch};

use qcm_core::RunOutcome;
use qcm_graph::{Graph, VertexId};
use qcm_obs::clock::Instant;
use qcm_sync::{Arc, Mutex};
use std::time::Duration;

/// The output of an engine run: raw result rows (the reported quasi-cliques,
/// before maximality post-processing) and the run metrics.
#[derive(Debug)]
pub(crate) struct EngineOutput {
    /// Emitted result rows.
    pub results: Vec<Row>,
    /// The roots of the work lost for good, sorted and distinct — empty
    /// unless `metrics.outcome` is [`RunOutcome::Faulted`]: a task abandoned
    /// after its pulls ran out of retries, or, on the simulator, a root that
    /// could not be respawned. The simulator withholds such a root's rows;
    /// the threaded driver has emitted the rows its other tasks found.
    pub lost_roots: Vec<VertexId>,
    /// Metrics of the run.
    pub metrics: EngineMetrics,
    /// The simulator's event log; `None` on the threaded driver.
    pub replay: Option<Replay>,
}

/// What the worker threads share on top of the protocol state.
struct Live<'a> {
    run: Run<'a>,
    /// Per-machine blocking data access (cache + transport pulls).
    data: Vec<DataService>,
    results: Mutex<Vec<Row>>,
    /// Roots of abandoned tasks, in abandonment order.
    lost: Mutex<Vec<VertexId>>,
}

/// Runs `app` over `graph` until every spawned task (and every task
/// transitively created by decomposition) has completed. The vertex table
/// holds `vertices` (sorted, distinct ids of `graph`): `spawn` is called once
/// for each of them and for no other vertex, while every vertex of `graph`
/// can be pulled. The configured transport picks the driver: live worker
/// threads for `InProc`, virtual time for `Sim`. `config` must be valid.
pub(crate) fn run(
    app: &QuasiCliqueApp,
    config: &EngineConfig,
    graph: Arc<Graph>,
    vertices: Vec<VertexId>,
) -> EngineOutput {
    let transport = match &config.transport {
        &TransportFactory::InProc {
            strict,
            drop_first_pulls,
        } => Arc::new(InProcTransport::new(
            config.num_machines,
            strict,
            drop_first_pulls,
        )),
        TransportFactory::Sim(sim) => return crate::sim::run(app, config, sim, graph, vertices),
    };
    let run = Run::new(
        app,
        config,
        graph,
        vertices,
        transport.clone(),
        config.threads_per_machine,
    );
    let data = (0..config.num_machines)
        .map(|m| {
            DataService::new(
                run.table.clone(),
                m,
                config.vertex_cache_capacity,
                run.fetch.clone(),
                transport.clone(),
                config.pull_timeout,
                config.pull_retries,
            )
        })
        .collect();
    let live = Live {
        run,
        data,
        results: Mutex::new(Vec::new()),
        lost: Mutex::new(Vec::new()),
    };

    let total_workers = config.total_threads();
    let worker_busy: Mutex<Vec<Duration>> = Mutex::new(vec![Duration::ZERO; total_workers]);

    // A worker panic resumes out of the scope once every thread joined.
    qcm_sync::thread::scope(|scope| {
        for worker in 0..total_workers {
            let (live, busy) = (&live, &worker_busy);
            scope.spawn(move || {
                let spent = worker_loop(live, worker);
                busy.lock()[worker] = spent;
            });
        }
    });

    let results = live.results.into_inner();
    // Interrupted iff work was actually dropped. A cancellation that fires
    // after the pool drained leaves the run Complete; dropped work with no
    // cancellation to blame is a fault.
    let dropped = live.run.term.work_dropped();
    let outcome = match (dropped, config.cancel.run_outcome()) {
        (None, _) => RunOutcome::Complete,
        (Some(_), RunOutcome::Complete) => RunOutcome::Faulted,
        (Some(_), cancelled) => cancelled,
    };
    let worker_busy = worker_busy.into_inner();
    let mut metrics = live.run.metrics(results.len() as u64, worker_busy, outcome);
    metrics.work_dropped = dropped;
    let mut lost_roots = live.lost.into_inner();
    lost_roots.sort_unstable();
    lost_roots.dedup();
    EngineOutput {
        results,
        lost_roots,
        metrics,
        replay: None,
    }
}

/// Main loop of one mining thread (the reforged Algorithm 3, on the
/// work-stealing pop path). Returns the time spent on tasks and spawning.
fn worker_loop(live: &Live<'_>, worker: usize) -> Duration {
    let run = &live.run;
    let tpm = run.config.threads_per_machine;
    let (m, local) = (worker / tpm, worker % tpm);
    // Tag this thread's trace lane with its (simulated) machine, so the
    // Chrome export renders one swimlane group per machine.
    qcm_obs::set_lane(m as u32);
    // The worker's scratch buffers, loaned to every task it processes.
    let mut scratch = run.worker_scratch();
    let mut busy = Duration::ZERO;
    while !run.term.is_done() {
        // Cooperative cancellation (deadline or explicit): stop popping and
        // tell every other worker to drain out. Results emitted so far are
        // kept; whether the run counts as interrupted is decided after all
        // workers exit, from the work that actually remained.
        if run.config.cancel.is_cancelled() {
            shut_down(live, m);
            break;
        }
        // Drain this machine's transport mailbox first: steal grants refill
        // the big-task lane and must land before the idle check below, or an
        // in-flight batch could starve behind sleeping workers. Any worker of
        // the machine may pump; the mailbox is machine-addressed. What a
        // message leaves to the driver concerns lossy, split-phase networks
        // only; here grants need no retransmit and pulls are synchronous.
        while let Some(env) = run.transport.try_recv(m) {
            run.handle_msg(m, env);
        }
        let t0 = Instant::now();
        if let Some(task) = run.pop_task(m, local) {
            process_task(live, m, local, &mut scratch, task);
            busy += t0.elapsed();
            continue;
        }
        if run.spawn_batch(m, local) {
            busy += t0.elapsed();
            continue;
        }
        // Nothing to pop, nothing to spawn: either the job is finished or
        // other workers still hold pending tasks. Tasks serialised inside an
        // in-flight steal grant still count as pending, so a machine never
        // declares completion while a batch is on the wire.
        if run.term.is_quiescent() {
            shut_down(live, m);
            break;
        }
        // This machine ran dry while another may still queue tasks: ask the
        // fullest for some; the grant lands in the mailbox pumped above.
        run.ask_for_work(m);
        qcm_sync::thread::sleep(Duration::from_micros(200));
    }
    busy
}

/// Ends the run and tells every other machine (`done` is also a shared flag,
/// but the explicit [`EngineMsg::Shutdown`] keeps the protocol complete for
/// transports whose machines do not share memory).
fn shut_down(live: &Live<'_>, m: usize) {
    live.run.term.finish();
    for peer in (0..live.run.config.num_machines).filter(|&peer| peer != m) {
        let _ = live.run.transport.send(m, peer, EngineMsg::Shutdown);
    }
}

/// Processes one task to completion: repeatedly resolves its pending pulls
/// into a frontier (blocking) and runs a compute step until the application
/// reports the task finished.
fn process_task(
    live: &Live<'_>,
    m: usize,
    local: usize,
    scratch: &mut WorkerScratch,
    mut task: QCTask,
) {
    let run = &live.run;
    let data = &live.data[m];
    let mut task_span = qcm_obs::span(qcm_obs::SpanKind::Task);
    let mut flight = run.begin_task(&task);
    let mut fetch_scratch = FetchScratch::default();
    loop {
        let mut frontier = Frontier::new();
        {
            let pending = &task.pull_targets;
            // Pull span: one fetch round; payload is the number of vertices
            // resolved. Skipped entirely when the task needs nothing, and
            // closed before compute runs so it measures only the fetches.
            let _pull_span = (!pending.is_empty())
                .then(|| qcm_obs::span_with(qcm_obs::SpanKind::Pull, pending.len() as u64));
            for &v in pending {
                match data.fetch_with(v, &mut fetch_scratch) {
                    Ok(adj) => frontier.insert(v, adj),
                    Err(_) => {
                        // The pull exhausted its retry budget: the task's
                        // root can no longer prove its results complete.
                        data.flush(&mut fetch_scratch);
                        live.lost.lock().push(task.root);
                        run.abandon_task(flight);
                        return;
                    }
                }
            }
        }
        let (more, rows) = run.compute_step(m, local, &mut task, &mut flight, &frontier, scratch);
        if !rows.is_empty() {
            live.results.lock().extend(rows);
        }
        if !more {
            break;
        }
    }
    data.flush(&mut fetch_scratch);
    run.finish_task(&task, flight);
    task_span.set_arg(u64::from(task.root.raw()));
}
