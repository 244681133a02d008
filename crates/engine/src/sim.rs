//! The virtual-time driver: deterministic discrete-event fault simulation.
//!
//! A [`crate::ParallelMiner`] whose transport is
//! [`crate::TransportFactory::Sim`] runs here: through the same per-machine
//! protocol as the threaded driver — the queues, spill path,
//! spawn/route/pop/compute steps, message handlers and balance plan of
//! `crate::machine` — but on one thread in *virtual time*. Machines take turns on a seeded event queue, every
//! cross-machine message goes through [`SimTransport`] with per-link latency
//! and drop probability, and a scenario script can crash, restart, slow down
//! or partition machines mid-run. Everything random derives from one seed, so
//! a 64-machine fault scenario replays byte-identically: the event log (and
//! its FNV-1a hash, both in [`crate::ParallelMiningOutput::replay`]) is the
//! determinism witness the test suite asserts on.
//!
//! What this driver adds to the shared protocol:
//!
//! * **Split-phase pulls.** One thread cannot block on a pull, so a popped
//!   task parks with its outstanding request set and resumes when the
//!   responses arrive (G-thinker's suspended-task model);
//!   [`SimTransport::pull`] returns [`TransportError::Unsupported`].
//! * **Retransmission.** A steal grant whose ack does not arrive in time is
//!   sent again from the granting machine's book, a bounded number of times.
//! * **Exactly-once results per root.** Lost work — a crashed machine's
//!   queues, an abandoned pull, a grant never acked — marks the task's
//!   spawning root ([`crate::QCTask::root`]) *dirty*. Once the event
//!   queue drains, dirty roots are respawned at their owner (up to
//!   [`SimConfig::respawn_limit`] times), their earlier rows discarded first.
//!   A root that cannot be respawned labels the run [`RunOutcome::Faulted`],
//!   contributes no row and is listed in
//!   [`crate::ParallelMiningOutput::lost_roots`].
//! * **Virtual deadline.** Wall-clock cancellation is ignored; the run is
//!   bounded by [`SimConfig::max_virtual_us`], which also guarantees
//!   termination under adversarial drop/latency schedules.
//! * **One worker per machine**: `threads_per_machine` is not modelled.

use crate::app::QuasiCliqueApp;
use crate::cluster::EngineOutput;
use crate::codec::EngineMsg;
use crate::config::EngineConfig;
use crate::machine::{Handled, InFlight, Row, Run};
use crate::task::{Frontier, QCTask, WorkerScratch};
use crate::transport::{Envelope, MachineId, PullReply, Transport, TransportError, TransportStats};
use crate::vertex_table::{AdjList, FetchScratch};
use qcm_core::RunOutcome;
use qcm_graph::{Fnv1a64, Graph, VertexId};
use qcm_sync::{Arc, Mutex};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

/// A scripted fault applied to one machine at a virtual instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The machine dies: its queued (also spilled) and parked tasks, inbox and
    /// held steal grants are lost. Its vertex-table partition survives (re-readable
    /// state), so a later [`Fault::Restart`] resumes spawning where the
    /// cursor stopped.
    Crash,
    /// The machine comes back up (no-op if alive).
    Restart,
    /// Every subsequent compute/spawn step on the machine costs `factor`
    /// times as much virtual time (a straggler).
    SlowDown {
        /// Cost multiplier (clamped to at least 1).
        factor: u32,
    },
    /// The link between this machine and `peer` is severed in both
    /// directions; messages on it are dropped.
    Partition {
        /// The other end of the severed link.
        peer: usize,
    },
    /// Heals every severed link involving this machine.
    Heal,
}

/// One scenario entry: apply `fault` to `machine` at `at_us`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time of the fault, in microseconds.
    pub at_us: u64,
    /// The machine the fault applies to.
    pub machine: usize,
    /// The fault.
    pub fault: Fault,
}

/// Configuration of the deterministic fault simulator.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Seed of the single RNG behind latency jitter and message drops. Same
    /// seed + same scenario ⇒ byte-identical event log.
    pub seed: u64,
    /// Base one-way link latency in virtual microseconds.
    pub link_latency_us: u64,
    /// Uniform jitter added on top of the base latency (`0..=jitter`).
    pub latency_jitter_us: u64,
    /// Probability that a message is dropped in flight (0.0 disables loss).
    pub drop_probability: f64,
    /// Per-attempt timeout of a split-phase pull, in virtual microseconds.
    pub pull_timeout_us: u64,
    /// Additional pull attempts after the first times out; exhaustion
    /// abandons the task and dirties its root.
    pub pull_retries: u32,
    /// Steal-grant retransmissions before the granting machine declares the
    /// batch lost and dirties the affected roots.
    pub grant_retries: u32,
    /// Virtual cost of one compute step.
    pub compute_cost_us: u64,
    /// Virtual cost of spawning one batch of root tasks.
    pub spawn_cost_us: u64,
    /// Period of the master's balancing pass (inter-machine big-task steal).
    pub balance_period_us: u64,
    /// How many times a dirty root may be respawned before its loss becomes
    /// a permanent fault.
    pub respawn_limit: u32,
    /// Hard virtual-time horizon; exceeding it labels the run
    /// [`RunOutcome::Faulted`] (the simulator's termination guarantee).
    pub max_virtual_us: u64,
    /// The scripted faults.
    pub scenario: Vec<FaultEvent>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            link_latency_us: 500,
            latency_jitter_us: 200,
            drop_probability: 0.0,
            pull_timeout_us: 10_000,
            pull_retries: 3,
            grant_retries: 3,
            compute_cost_us: 100,
            spawn_cost_us: 50,
            balance_period_us: 5_000,
            respawn_limit: 3,
            max_virtual_us: 60_000_000,
            scenario: Vec::new(),
        }
    }
}

impl SimConfig {
    /// A fault-free simulation with the given seed.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Mid-mine crash: `machine` dies at `crash_at_us` and, when
    /// `restart_at_us` is `Some`, comes back up then (permitting a complete
    /// run via root respawn); `None` leaves it down for good.
    pub fn crash_scenario(
        seed: u64,
        machine: usize,
        crash_at_us: u64,
        restart_at_us: Option<u64>,
    ) -> Self {
        let restart = restart_at_us.map(|at_us| (at_us, Fault::Restart));
        Self::scripted(seed, machine, [Some((crash_at_us, Fault::Crash)), restart])
    }

    /// Slow straggler: `machine` runs `factor`× slower from `at_us` on.
    pub fn straggler_scenario(seed: u64, machine: usize, at_us: u64, factor: u32) -> Self {
        Self::scripted(seed, machine, [Some((at_us, Fault::SlowDown { factor }))])
    }

    /// Partitioned steal victim: the link `a`–`b` is severed at `at_us` and
    /// healed at `heal_at_us` (if given).
    pub fn partition_scenario(
        seed: u64,
        a: usize,
        b: usize,
        at_us: u64,
        heal_at_us: Option<u64>,
    ) -> Self {
        let heal = heal_at_us.map(|at_us| (at_us, Fault::Heal));
        Self::scripted(seed, a, [Some((at_us, Fault::Partition { peer: b })), heal])
    }

    /// Default settings plus a script of `(instant, fault)` pairs on `machine`.
    fn scripted<const N: usize>(
        seed: u64,
        machine: usize,
        script: [Option<(u64, Fault)>; N],
    ) -> Self {
        let scenario = script
            .into_iter()
            .flatten()
            .map(|(at_us, fault)| FaultEvent {
                at_us,
                machine,
                fault,
            })
            .collect();
        SimConfig {
            seed,
            scenario,
            ..SimConfig::default()
        }
    }

    /// Overrides the drop probability.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Overrides the link latency and jitter.
    pub fn with_latency(mut self, base_us: u64, jitter_us: u64) -> Self {
        self.link_latency_us = base_us;
        self.latency_jitter_us = jitter_us;
        self
    }
}

/// SplitMix64: a tiny, well-distributed, seedable PRNG. Chosen over the
/// vendored `rand` stand-in because the sequence is documented and fixed —
/// the event log must replay byte-identically across releases.
#[derive(Default)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..=bound`.
    fn up_to(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % (bound + 1)
        }
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        ((self.next() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// The discrete events driving the simulation.
enum Event {
    /// One scheduling step on a machine (process a task or spawn a batch).
    Wake(usize),
    /// A message arrives at the machine.
    Deliver(usize, Envelope),
    /// The current pull attempt of a machine's parked task (by park id)
    /// expires.
    PullTimeout(usize, u64),
    /// The ack of a machine's steal grant `seq` did not arrive in time, for
    /// the `attempt`-th time.
    AckTimeout(usize, u64, u32),
    /// Apply the scenario entry with this index.
    Fault(usize),
    /// The master's balancing pass.
    Balance,
}

/// Shared network state: virtual clock, event queue, link faults and the
/// seeded event log.
#[derive(Default)]
struct NetInner {
    clock: u64,
    next_seq: u64,
    /// Pending events keyed by (instant, scheduling order): the first entry
    /// is the next event, and ties replay in the order they were scheduled.
    events: BTreeMap<(u64, u64), Event>,
    alive: Vec<bool>,
    severed: BTreeSet<(usize, usize)>,
    rng: SplitMix64,
    link_latency_us: u64,
    latency_jitter_us: u64,
    drop_probability: f64,
    /// The event log: human-readable lines plus a running FNV-1a hash — the
    /// replay-determinism witness.
    log_lines: Vec<String>,
    log_hash: Fnv1a64,
    stats: TransportStats,
}

fn link_key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

impl NetInner {
    fn new(machines: usize, sim: &SimConfig) -> Self {
        NetInner {
            alive: vec![true; machines],
            rng: SplitMix64 { state: sim.seed },
            link_latency_us: sim.link_latency_us,
            latency_jitter_us: sim.latency_jitter_us,
            drop_probability: sim.drop_probability,
            ..NetInner::default()
        }
    }

    fn log(&mut self, line: String) {
        let full = format!("t={:>10} {line}", self.clock);
        self.log_hash.write(full.as_bytes());
        self.log_hash.write(b"\n");
        self.log_lines.push(full);
    }

    fn schedule(&mut self, delay_us: u64, ev: Event) {
        let at = self.clock + delay_us.max(1);
        self.events.insert((at, self.next_seq), ev);
        self.next_seq += 1;
    }

    fn send(&mut self, from: usize, to: usize, msg: EngineMsg) -> Result<(), TransportError> {
        if to >= self.alive.len() {
            return Err(TransportError::Closed);
        }
        let kind = msg.kind();
        let bytes = msg.to_wire().len() as u64;
        self.stats.messages_sent += 1;
        self.stats.wire_bytes += bytes;
        let lost = if self.severed.contains(&link_key(from, to)) {
            Some("partitioned")
        } else if self.rng.chance(self.drop_probability) {
            Some("loss")
        } else {
            None
        };
        if let Some(why) = lost {
            self.stats.messages_dropped += 1;
            self.log(format!("drop m{from}->m{to} {kind} ({why})"));
            return Ok(());
        }
        let latency = self.link_latency_us + self.rng.up_to(self.latency_jitter_us);
        self.log(format!("send m{from}->m{to} {kind} {bytes}B +{latency}us"));
        self.schedule(latency, Event::Deliver(to, Envelope { from, msg }));
        Ok(())
    }
}

/// The simulator's [`Transport`]: messages go through the seeded
/// discrete-event network. Blocking pulls are unsupported (the simulation is
/// single-threaded); the driver uses split-phase pulls instead.
pub struct SimTransport {
    net: Arc<Mutex<NetInner>>,
}

impl Transport for SimTransport {
    fn machines(&self) -> usize {
        self.net.lock().alive.len()
    }

    fn send(&self, from: MachineId, to: MachineId, msg: EngineMsg) -> Result<(), TransportError> {
        self.net.lock().send(from, to, msg)
    }

    /// Deliveries are events: the driver hands a message to its machine the
    /// instant its `Deliver` event fires, so no mailbox ever holds one.
    fn try_recv(&self, _machine: MachineId) -> Option<Envelope> {
        None
    }

    fn pull(
        &self,
        _from: MachineId,
        _owner: MachineId,
        _vertices: &[VertexId],
        _timeout: Duration,
    ) -> Result<PullReply, TransportError> {
        Err(TransportError::Unsupported)
    }

    fn stats(&self) -> TransportStats {
        self.net.lock().stats
    }
}

/// A popped task between two steps: parked while its pulls are on the wire,
/// then ready for the machine's next step.
struct Parked {
    task: QCTask,
    flight: InFlight,
    frontier: Frontier,
    /// Owner machine → vertices still awaited from it; empty once ready.
    outstanding: BTreeMap<usize, Vec<VertexId>>,
    attempt: u32,
}

/// What this driver keeps per machine beside the protocol's own
/// [`crate::machine::Machine`].
struct SimMachine {
    /// Tasks whose frontier is resolved, waiting for the machine's next step.
    ready: VecDeque<Parked>,
    /// Tasks waiting for pull responses, by park id.
    parked: BTreeMap<u64, Parked>,
    /// A Wake event is in the queue. It survives a crash: a wake that finds
    /// the machine down is a no-op, one that finds it restarted is its wake.
    wake_scheduled: bool,
    /// Step-cost multiplier (stragglers run slower).
    speed: u64,
}

/// The determinism witness of a simulated run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Replay {
    /// The seeded event log (sends, drops, faults, respawns).
    pub event_log: Vec<String>,
    /// FNV-1a hash over the event-log lines.
    pub log_hash: u64,
}

/// Runs `app` over `graph` in virtual time under `sim`'s scenario, spawning
/// from `vertices` as the threaded driver does. The cluster shape (machines),
/// queue capacities, batch size and spill directory come from `engine`;
/// thread counts are not modelled — each machine performs one scheduling step
/// per wake. Rows come back flattened in root-id order, exactly once per
/// root; `metrics.virtual_time` holds the final virtual clock.
pub(crate) fn run(
    app: &QuasiCliqueApp,
    engine: &EngineConfig,
    sim: &SimConfig,
    graph: Arc<Graph>,
    vertices: Vec<VertexId>,
) -> EngineOutput {
    let machines = engine.num_machines;
    let net = Arc::new(Mutex::new(NetInner::new(machines, sim)));
    let transport = Arc::new(SimTransport { net: net.clone() });
    let run = Run::new(app, engine, graph, vertices, transport, 1);
    let mut driver = Driver {
        scratch: run.worker_scratch(),
        run,
        sim,
        net,
        machines: (0..machines)
            .map(|_| SimMachine {
                ready: VecDeque::new(),
                parked: BTreeMap::new(),
                wake_scheduled: false,
                speed: 1,
            })
            .collect(),
        dirty: BTreeSet::new(),
        lost: BTreeSet::new(),
        respawns: BTreeMap::new(),
        results: BTreeMap::new(),
        next_park: 0,
        balance_scheduled: false,
        fetched: FetchScratch::default(),
        faulted: false,
    };
    let outcome = driver.run();

    let rows = std::mem::take(&mut driver.results);
    let results: Vec<Row> = rows.into_values().flatten().collect();
    driver.run.fetch.absorb(&mut driver.fetched);
    let emitted = results.len() as u64;
    let mut metrics = driver.run.metrics(emitted, Vec::new(), outcome);
    driver.log(format!(
        "end outcome={outcome:?} spawned={} processed={} stolen={}",
        metrics.tasks_spawned, metrics.tasks_processed, metrics.stolen_tasks
    ));
    let mut net = driver.net.lock();
    metrics.remote_bytes = net.stats.wire_bytes;
    metrics.virtual_time = Some(Duration::from_micros(net.clock));
    EngineOutput {
        results,
        lost_roots: driver
            .lost
            .iter()
            .map(|&root| VertexId::new(root))
            .collect(),
        metrics,
        replay: Some(Replay {
            event_log: std::mem::take(&mut net.log_lines),
            log_hash: net.log_hash.finish(),
        }),
    }
}

struct Driver<'a> {
    /// The shared protocol state: machines, termination counters, metrics.
    run: Run<'a>,
    sim: &'a SimConfig,
    net: Arc<Mutex<NetInner>>,
    machines: Vec<SimMachine>,
    /// Roots that lost work and must be respawned.
    dirty: BTreeSet<u32>,
    /// Roots that can never be respawned: the run is faulted.
    lost: BTreeSet<u32>,
    respawns: BTreeMap<u32, u32>,
    /// Result rows keyed by root — discarded wholesale on respawn, so every
    /// root contributes exactly once.
    results: BTreeMap<u32, Vec<Row>>,
    /// Next park id; it doubles as the token of the parked task's pulls.
    next_park: u64,
    balance_scheduled: bool,
    /// Pull accounting, folded into the run's fetch metrics at the end.
    fetched: FetchScratch,
    /// The scratch buffers loaned to every compute step (one thread, one set).
    scratch: WorkerScratch,
    faulted: bool,
}

impl Driver<'_> {
    fn net(&self) -> qcm_sync::MutexGuard<'_, NetInner> {
        self.net.lock()
    }

    fn log(&self, line: String) {
        self.net().log(line);
    }

    fn schedule(&self, delay_us: u64, ev: Event) {
        self.net().schedule(delay_us, ev);
    }

    fn has_work(&self, m: usize) -> bool {
        !self.machines[m].ready.is_empty() || self.run.machines[m].has_work()
    }

    fn ensure_wake(&mut self, m: usize) {
        let alive = self.net().alive[m];
        if alive && !self.machines[m].wake_scheduled && self.has_work(m) {
            self.machines[m].wake_scheduled = true;
            self.schedule(1, Event::Wake(m));
        }
    }

    fn ensure_balance(&mut self) {
        if self.machines.len() > 1 && !self.balance_scheduled {
            self.balance_scheduled = true;
            self.schedule(self.sim.balance_period_us, Event::Balance);
        }
    }

    fn run(&mut self) -> RunOutcome {
        for m in 0..self.machines.len() {
            self.ensure_wake(m);
        }
        for idx in 0..self.sim.scenario.len() {
            let at = self.sim.scenario[idx].at_us;
            self.schedule(at, Event::Fault(idx));
        }
        self.ensure_balance();

        loop {
            let next = self.net().events.pop_first();
            match next {
                Some(((at, _), ev)) => {
                    if at > self.sim.max_virtual_us {
                        self.faulted = true;
                        self.log(format!(
                            "horizon exceeded at {at}us (max {})",
                            self.sim.max_virtual_us
                        ));
                        break;
                    }
                    self.net().clock = at;
                    match ev {
                        Event::Wake(m) => self.on_wake(m),
                        Event::Deliver(to, env) => self.on_deliver(to, env),
                        Event::PullTimeout(m, park_id) => self.on_pull_timeout(m, park_id),
                        Event::AckTimeout(m, seq, attempt) => self.on_ack_timeout(m, seq, attempt),
                        Event::Fault(idx) => self.on_fault(idx),
                        Event::Balance => self.on_balance(),
                    }
                }
                None => {
                    if !self.respawn_round() {
                        break;
                    }
                }
            }
        }
        self.finalize()
    }

    /// One scheduling step of machine `m`, in the worker loop's order: a
    /// resumed task, else the next queued task, else one spawn batch.
    fn on_wake(&mut self, m: usize) {
        self.machines[m].wake_scheduled = false;
        if !self.net().alive[m] {
            return;
        }
        let cost = if let Some(resumed) = self.machines[m].ready.pop_front() {
            self.compute(m, resumed)
        } else if let Some(task) = self.run.pop_task(m, 0) {
            let flight = self.run.begin_task(&task);
            self.advance(m, task, flight, true)
        } else {
            if !self.run.spawn_batch(m, 0) {
                return; // idle: a delivery or restart re-wakes the machine
            }
            self.sim.spawn_cost_us
        };
        if self.has_work(m) {
            self.machines[m].wake_scheduled = true;
            let cost = cost * self.machines[m].speed;
            self.schedule(cost, Event::Wake(m));
        }
    }

    fn record_results(&mut self, root: u32, rows: Vec<Row>) {
        if !rows.is_empty() {
            self.results.entry(root).or_default().extend(rows);
        }
    }

    /// Resolves the pulls `task` waits for. Local lists are read in place;
    /// if any are remote the task parks and one pull request per owner goes
    /// on the wire. With nothing remote the task computes right away
    /// (`compute_now`) or queues for the machine's next step. Returns the
    /// virtual cost.
    fn advance(&mut self, m: usize, task: QCTask, flight: InFlight, compute_now: bool) -> u64 {
        let mut frontier = Frontier::new();
        let mut remote: BTreeMap<usize, Vec<VertexId>> = BTreeMap::new();
        for &v in &task.pull_targets {
            let owner = self.run.table.owner(v);
            if owner == m {
                self.fetched.local_reads += 1;
                frontier.insert(v, AdjList::Shared(self.run.table.graph().clone(), v));
            } else {
                self.fetched.remote_fetches += 1;
                remote.entry(owner).or_default().push(v);
            }
        }
        let task = Parked {
            task,
            flight,
            frontier,
            outstanding: remote,
            attempt: 0,
        };
        if task.outstanding.is_empty() {
            if compute_now {
                return self.compute(m, task);
            }
            self.machines[m].ready.push_back(task);
            return 0;
        }
        let park_id = self.next_park;
        self.next_park += 1;
        self.send_pulls(m, park_id, &task.outstanding);
        self.machines[m].parked.insert(park_id, task);
        self.sim.spawn_cost_us
    }

    /// Sends one pull request per owner on behalf of parked task `park_id`
    /// and arms the attempt's timeout.
    fn send_pulls(&self, m: usize, park_id: u64, wanted: &BTreeMap<usize, Vec<VertexId>>) {
        for (&owner, vertices) in wanted {
            let request = EngineMsg::PullRequest {
                token: park_id,
                vertices: vertices.clone(),
            };
            let _ = self.run.transport.send(m, owner, request);
        }
        self.schedule(self.sim.pull_timeout_us, Event::PullTimeout(m, park_id));
    }

    /// One compute step of `task` on machine `m`; returns its virtual cost.
    fn compute(&mut self, m: usize, resumed: Parked) -> u64 {
        let (mut task, mut flight, frontier) = (resumed.task, resumed.flight, resumed.frontier);
        let root = task.root.raw();
        let (more, rows) =
            self.run
                .compute_step(m, 0, &mut task, &mut flight, &frontier, &mut self.scratch);
        self.record_results(root, rows);
        if more {
            self.advance(m, task, flight, false);
        } else {
            self.run.finish_task(&task, flight);
        }
        self.sim.compute_cost_us
    }

    fn on_deliver(&mut self, to: usize, env: Envelope) {
        if !self.net().alive[to] {
            let mut net = self.net();
            net.stats.messages_dropped += 1;
            let (from, kind) = (env.from, env.msg.kind());
            net.log(format!("lost m{from}->m{to} {kind} (down)"));
            return;
        }
        match self.run.handle_msg(to, env) {
            Handled::Done => {}
            Handled::PullResponse { from, token, lists } => {
                self.on_pull_response(to, from, token, lists)
            }
            Handled::Granted { seq } => {
                self.schedule(self.sim.pull_timeout_us, Event::AckTimeout(to, seq, 0));
            }
        }
        // A grant may have refilled the big-task lane, a response may have
        // resumed a task.
        self.ensure_wake(to);
    }

    fn on_pull_response(&mut self, m: usize, from: MachineId, park_id: u64, lists: PullReply) {
        let mach = &mut self.machines[m];
        let Some(parked) = mach.parked.get_mut(&park_id) else {
            return; // a late duplicate: the task resumed, was abandoned or lost
        };
        for (v, adj) in lists {
            parked.frontier.insert(v, AdjList::Owned(adj));
        }
        parked.outstanding.remove(&from);
        if parked.outstanding.is_empty() {
            let resumed = mach.parked.remove(&park_id).expect("just seen");
            mach.ready.push_back(resumed);
        }
    }

    fn on_pull_timeout(&mut self, m: usize, park_id: u64) {
        let Some(parked) = self.machines[m].parked.get_mut(&park_id) else {
            return; // resumed, or lost in a crash
        };
        if parked.attempt < self.sim.pull_retries {
            parked.attempt += 1;
            let resend = parked.outstanding.clone();
            self.fetched.pull_retries += resend.len() as u64;
            self.send_pulls(m, park_id, &resend);
        } else {
            // Retry budget exhausted: abandon the task, dirty its root.
            let parked = self.machines[m].parked.remove(&park_id).expect("just seen");
            let root = parked.task.root.raw();
            self.run.drop_flight(parked.flight);
            self.fetched.pull_failures += 1;
            self.dirty.insert(root);
            self.log(format!(
                "abandon task={park_id} root={root} (pull timeout) at m{m}"
            ));
        }
    }

    /// Retransmits grant `seq` from machine `m`'s book, or — retries
    /// exhausted — declares the batch lost and dirties its roots.
    fn on_ack_timeout(&mut self, m: usize, seq: u64, attempt: u32) {
        let Some((to, tasks)) = self.run.machines[m].unacked_grant(seq) else {
            return; // acked, or the granter crashed (which dirtied the roots)
        };
        if attempt < self.sim.grant_retries {
            let grant = EngineMsg::StealGrant { seq, tasks };
            let _ = self.run.transport.send(m, to, grant);
            let again = Event::AckTimeout(m, seq, attempt + 1);
            self.schedule(self.sim.pull_timeout_us, again);
        } else {
            self.log(format!(
                "steal-grant seq={seq} m{m}->m{to} lost after retries"
            ));
            for task in self.run.machines[m].abandon_grant(seq) {
                self.dirty.insert(task.root.raw());
            }
        }
    }

    fn on_fault(&mut self, idx: usize) {
        let FaultEvent {
            machine: m, fault, ..
        } = self.sim.scenario[idx];
        match fault {
            // Crashing a dead machine or restarting a live one is a no-op.
            Fault::Crash if std::mem::replace(&mut self.net().alive[m], false) => {
                self.log(format!("fault crash m{m}"));
                self.strand(m);
            }
            Fault::Restart if !std::mem::replace(&mut self.net().alive[m], true) => {
                self.log(format!("fault restart m{m}"));
                self.ensure_wake(m);
                self.ensure_balance();
            }
            Fault::Crash | Fault::Restart => {}
            Fault::SlowDown { factor } => {
                self.machines[m].speed = factor.max(1) as u64;
                self.log(format!("fault slowdown m{m} x{factor}"));
            }
            Fault::Partition { peer } => {
                self.net().severed.insert(link_key(m, peer));
                self.log(format!("fault partition m{m}--m{peer}"));
            }
            Fault::Heal => {
                self.net().severed.retain(|&(a, b)| a != m && b != m);
                self.log(format!("fault heal m{m}"));
            }
        }
    }

    /// Machine `m` loses every task it holds — queued, spilled, granted and
    /// unacked, resumed or parked: their roots turn dirty.
    fn strand(&mut self, m: usize) {
        let mut lost = self.run.crash(m);
        let mach = &mut self.machines[m];
        let parked = std::mem::take(&mut mach.parked).into_values();
        for held in mach.ready.drain(..).chain(parked) {
            self.run.drop_flight(held.flight);
            lost.push(held.task);
        }
        for task in lost {
            self.dirty.insert(task.root.raw());
        }
    }

    /// The master's balancing pass over the alive machines. Rearmed while
    /// any other event is still scheduled: a machine with work has a wake, a
    /// parked task a pull timeout, an unacked grant an ack timeout.
    fn on_balance(&mut self) {
        self.balance_scheduled = false;
        let alive = self.net().alive.clone();
        self.run.balance(&alive);
        if !self.net().events.is_empty() {
            self.ensure_balance();
        }
    }

    /// Called when the event heap drains: respawn dirty roots if possible.
    /// Returns true when new work was scheduled.
    fn respawn_round(&mut self) -> bool {
        let mut progress = false;
        for root in std::mem::take(&mut self.dirty) {
            let v = VertexId::new(root);
            let owner = self.run.table.owner(v);
            let attempts = self.respawns.entry(root).or_insert(0);
            let why = if !self.net.lock().alive[owner] {
                // No events remain, so the owner can never come back.
                Some(format!("root={root} owner m{owner} down"))
            } else if *attempts >= self.sim.respawn_limit {
                Some(format!("root={root} respawn limit"))
            } else {
                None
            };
            if let Some(why) = why {
                self.lost.insert(root);
                self.log(format!("permanent loss: {why}"));
                continue;
            }
            *attempts += 1;
            // Discard the root's partial results and re-mine from scratch —
            // exactly-once results per root.
            self.results.remove(&root);
            self.log(format!("respawn root={root} at m{owner}"));
            self.run.spawn_root(owner, 0, v);
            self.ensure_wake(owner);
            progress = true;
        }
        if progress {
            self.ensure_balance();
        }
        progress
    }

    fn finalize(&mut self) -> RunOutcome {
        // Anything still held or unspawned at exit is lost for good, and an
        // incomplete root contributes nothing.
        for m in 0..self.machines.len() {
            self.strand(m);
            let unspawned = self.run.machines[m].unspawned();
            self.lost.extend(unspawned.iter().map(|v| v.raw()));
        }
        self.lost.append(&mut self.dirty);
        for root in &self.lost {
            self.results.remove(root);
        }
        self.faulted |= !self.lost.is_empty() || self.run.term.is_faulted();
        // A run that lost nothing must leave the shipping termination
        // counters at zero.
        debug_assert!(
            self.faulted || !self.respawns.is_empty() || self.run.term.is_quiescent(),
            "lossless simulated run ended with pending work on the counters"
        );
        if self.faulted {
            RunOutcome::Faulted
        } else if self.run.term.is_interrupted() {
            RunOutcome::Cancelled
        } else {
            RunOutcome::Complete
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ParallelMiner, ParallelMiningOutput};
    use crate::transport::TransportFactory;
    use qcm_core::{MiningParams, QuasiCliqueSet, SerialMiner};

    /// About a hundred core vertices in nine planted communities, so every
    /// machine of a small cluster owns work and a fault lands mid-mine.
    fn planted() -> Arc<Graph> {
        let spec = qcm_gen::PlantedGraphSpec {
            num_vertices: 400,
            background_avg_degree: 5.0,
            background_beta: 2.5,
            background_max_degree: 40.0,
            community_sizes: vec![10, 9, 8, 10, 9, 8, 10, 9, 8],
            community_density: 0.95,
            seed: 99,
        };
        Arc::new(qcm_gen::plant_quasi_cliques(&spec).0)
    }

    fn params() -> MiningParams {
        MiningParams::new(0.8, 8)
    }

    fn serial_maximal(g: &Graph) -> QuasiCliqueSet {
        SerialMiner::new(params()).mine(g).maximal
    }

    fn run(engine: EngineConfig, sim: SimConfig, g: &Arc<Graph>) -> ParallelMiningOutput {
        let engine = engine.with_transport(TransportFactory::Sim(sim));
        ParallelMiner::new(params(), engine).mine(g.clone())
    }

    fn replay(out: &ParallelMiningOutput) -> &Replay {
        out.replay
            .as_ref()
            .expect("a simulated run has an event log")
    }

    #[test]
    fn fault_free_sim_completes_with_all_results() {
        let g = planted();
        let out = run(EngineConfig::cluster(4, 1), SimConfig::new(7), &g);
        assert_eq!(out.metrics.outcome, RunOutcome::Complete);
        assert_eq!(out.maximal, serial_maximal(&g));
        assert!(out.metrics.virtual_time > Some(Duration::ZERO));
        assert!(out.metrics.transport_messages > 0);
    }

    #[test]
    fn sixty_four_machine_crash_scenario_replays_byte_identically() {
        let g = planted();
        let engine = EngineConfig::cluster(64, 1);
        let sim = SimConfig::crash_scenario(42, 5, 3_000, Some(40_000));
        let a = run(engine.clone(), sim.clone(), &g);
        let b = run(engine, sim, &g);
        assert!(replay(&a)
            .event_log
            .iter()
            .any(|line| line.contains("crash m5")));
        assert_eq!(
            replay(&a).log_hash,
            replay(&b).log_hash,
            "same seed must replay identically"
        );
        assert_eq!(replay(&a).event_log, replay(&b).event_log);
        assert_eq!(a.maximal, b.maximal);
        assert_eq!(a.metrics.outcome, b.metrics.outcome);
    }

    #[test]
    fn crash_without_restart_is_faulted_and_partial() {
        let g = planted();
        let out = run(
            EngineConfig::cluster(3, 1),
            SimConfig::crash_scenario(11, 1, 1_500, None),
            &g,
        );
        assert_eq!(out.metrics.outcome, RunOutcome::Faulted);
        // An incomplete root is listed and contributes nothing; what is left
        // the serial miner proves maximal too.
        assert!(!out.lost_roots.is_empty());
        let serial = serial_maximal(&g);
        for set in out.maximal.iter() {
            assert!(!out.lost_roots.contains(&set[0]), "{set:?}");
            assert!(serial.contains(set), "{set:?}");
        }
    }

    #[test]
    fn total_loss_terminates_via_retry_exhaustion() {
        let g = planted();
        let out = run(
            EngineConfig::cluster(2, 1),
            SimConfig::new(3).with_drop_probability(1.0),
            &g,
        );
        assert_eq!(out.metrics.outcome, RunOutcome::Faulted);
        assert!(out.metrics.transport_dropped > 0);
        assert!(out.metrics.pull_failures > 0);
    }

    #[test]
    fn straggler_completes_slower_than_baseline() {
        let g = planted();
        let engine = EngineConfig::cluster(3, 1);
        let fast = run(engine.clone(), SimConfig::new(5), &g);
        let slow = run(engine, SimConfig::straggler_scenario(5, 0, 0, 50), &g);
        assert_eq!(slow.metrics.outcome, RunOutcome::Complete);
        let (slow_us, fast_us) = (slow.metrics.virtual_time, fast.metrics.virtual_time);
        assert!(
            slow_us > fast_us,
            "a 50x straggler must stretch virtual time ({slow_us:?} vs {fast_us:?})"
        );
        assert_eq!(slow.maximal, fast.maximal);
        assert_eq!(slow.maximal, serial_maximal(&g));
    }

    #[test]
    fn sim_transport_rejects_blocking_pulls() {
        let sim = SimConfig::new(0).with_latency(1, 0);
        let net = Arc::new(Mutex::new(NetInner::new(2, &sim)));
        let t = SimTransport { net };
        assert_eq!(
            t.pull(0, 1, &[VertexId::new(1)], Duration::from_millis(1)),
            Err(TransportError::Unsupported)
        );
        assert_eq!(t.machines(), 2);
        t.send(0, 1, EngineMsg::Shutdown).unwrap();
        assert_eq!(t.stats().messages_sent, 1);
    }
}
