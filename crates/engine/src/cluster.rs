//! The threaded driver: machines as thread groups over live worker threads.
//!
//! This is the system half of the paper's codesign (Section 5). A
//! [`Cluster`] runs a [`GThinkerApp`] over a shared input graph on
//! `num_machines × threads_per_machine` mining threads. The per-machine
//! protocol — queues, spawn cursor, routing, message handling, the balance
//! plan — lives in the `machine` module; this module adds what is particular to
//! running it on real threads:
//!
//! * the **worker loop** (the reforged Algorithm 3): pump the machine's
//!   mailbox, pop a task (big tasks and refills first), else spawn a batch,
//!   else check the termination counters;
//! * **blocking pulls** through each machine's [`DataService`] (remote-vertex
//!   cache, zero-copy in-process fetch, per-attempt timeout and retries);
//! * the **master balancer thread**, which every `balance_period` asks the
//!   protocol for one big-task steal and wakes early when the run ends;
//! * cooperative **cancellation** and the run's outcome label.

use crate::codec::EngineMsg;
use crate::config::EngineConfig;
use crate::machine::{Row, Run};
use crate::metrics::EngineMetrics;
use crate::task::{Frontier, GThinkerApp, WorkerScratch};
use crate::vertex_table::{DataService, FetchScratch};

use qcm_core::RunOutcome;
use qcm_graph::{Graph, VertexId};
use qcm_obs::clock::Instant;
use qcm_sync::{Arc, Mutex};
use std::time::Duration;

/// The output of an engine run: raw result rows (the application's emitted
/// quasi-cliques, before maximality post-processing) and the run metrics.
#[derive(Clone, Debug, Default)]
pub struct EngineOutput {
    /// Emitted result rows (members sorted by the caller if needed).
    pub results: Vec<Row>,
    /// Metrics of the run.
    pub metrics: EngineMetrics,
}

/// What the worker and balancer threads share on top of the protocol state.
struct Live<'a, A: GThinkerApp> {
    run: Run<'a, A>,
    /// Per-machine blocking data access (cache + transport pulls).
    data: Vec<DataService>,
    results: Mutex<Vec<Row>>,
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
    /// task transitively created by decomposition) has completed. The vertex
    /// table holds `vertices` (sorted, distinct ids of `graph`): `spawn` is
    /// called once for each of them and for no other vertex, while every
    /// vertex of `graph` can be pulled.
    pub fn run(&self, graph: Arc<Graph>, vertices: Vec<VertexId>) -> EngineOutput {
        let config = &self.config;
        let transport = config.transport.build(config.num_machines);
        let run = Run::new(
            self.app.as_ref(),
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
        };

        let total_workers = config.total_threads();
        let worker_busy: Mutex<Vec<Duration>> = Mutex::new(vec![Duration::ZERO; total_workers]);

        // A worker panic resumes out of the scope once every thread joined.
        qcm_sync::thread::scope(|scope| {
            // Master load balancer (big-task stealing between machines).
            if config.num_machines > 1 {
                scope.spawn(|| balancer_loop(&live));
            }
            for worker in 0..total_workers {
                let (live, busy) = (&live, &worker_busy);
                scope.spawn(move || {
                    let spent = worker_loop(live, worker);
                    busy.lock()[worker] = spent;
                });
            }
        });

        let results = live.results.into_inner();
        // Interrupted iff work was actually dropped. A cancellation that
        // fires after the pool drained leaves the run Complete; dropped work
        // with no cancellation to blame is a fault.
        let outcome = if live.run.term.work_dropped() {
            match config.cancel.run_outcome() {
                RunOutcome::Complete => RunOutcome::Faulted,
                cancelled => cancelled,
            }
        } else {
            RunOutcome::Complete
        };
        let worker_busy = worker_busy.into_inner();
        let metrics = live.run.metrics(results.len() as u64, worker_busy, outcome);
        EngineOutput { results, metrics }
    }
}

/// Main loop of one mining thread (the reforged Algorithm 3, on the
/// work-stealing pop path). Returns the time spent on tasks and spawning.
fn worker_loop<A: GThinkerApp>(live: &Live<'_, A>, worker: usize) -> Duration {
    let run = &live.run;
    let tpm = run.config.threads_per_machine;
    let (m, local) = (worker / tpm, worker % tpm);
    // Tag this thread's trace lane with its (simulated) machine, so the
    // Chrome export renders one swimlane group per machine.
    qcm_obs::set_lane(m as u32);
    // The worker's scratch buffers, loaned to every task it processes.
    let mut scratch = WorkerScratch::default();
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
        let mut rows = Vec::new();
        if run.spawn_batch(m, local, &mut rows) {
            if !rows.is_empty() {
                let mut results = live.results.lock();
                results.extend(rows.into_iter().flat_map(|(_, rows)| rows));
            }
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
        qcm_sync::thread::sleep(Duration::from_micros(200));
    }
    busy
}

/// Ends the run and tells every other machine (`done` is also a shared flag,
/// but the explicit [`EngineMsg::Shutdown`] keeps the protocol complete for
/// transports whose machines do not share memory).
fn shut_down<A: GThinkerApp>(live: &Live<'_, A>, m: usize) {
    live.run.term.finish();
    for peer in (0..live.run.config.num_machines).filter(|&peer| peer != m) {
        let _ = live.run.transport.send(m, peer, EngineMsg::Shutdown);
    }
}

/// Processes one task to completion: repeatedly resolves its pending pulls
/// into a frontier (blocking) and runs a compute step until the application
/// reports the task finished.
fn process_task<A: GThinkerApp>(
    live: &Live<'_, A>,
    m: usize,
    local: usize,
    scratch: &mut WorkerScratch,
    mut task: A::Task,
) {
    let run = &live.run;
    let data = &live.data[m];
    let mut task_span = qcm_obs::span(qcm_obs::SpanKind::Task);
    let mut flight = run.begin_task(&task);
    let mut fetch_scratch = FetchScratch::default();
    loop {
        let mut frontier = Frontier::new();
        {
            let pending = run.app.pending_pulls(&task);
            // Pull span: one fetch round; payload is the number of vertices
            // resolved. Skipped entirely when the task needs nothing, and
            // closed before compute runs so it measures only the fetches.
            let _pull_span = (!pending.is_empty())
                .then(|| qcm_obs::span_with(qcm_obs::SpanKind::Pull, pending.len() as u64));
            for &v in pending {
                match data.fetch_with(v, &mut fetch_scratch) {
                    Ok(adj) => frontier.insert(v, adj),
                    Err(_) => {
                        // The pull exhausted its retry budget.
                        data.flush(&mut fetch_scratch);
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
    let root = run.finish_task(&task, flight);
    task_span.set_arg(root.map_or(0, |v| u64::from(v.raw())));
}

/// Master load-balancing loop: every `balance_period`, one balancing pass;
/// the end of the run cuts the wait short.
fn balancer_loop<A: GThinkerApp>(live: &Live<'_, A>) {
    let config = live.run.config;
    let alive = vec![true; config.num_machines];
    while !live.run.term.wait_done(config.balance_period) {
        live.run.balance(&alive);
    }
}
