//! One round of a workload, from both sides of the process boundary.
//!
//! Every round runs the program under test in a fresh child process (this
//! binary re-executed with `--child`): caches start empty, and `VmHWM` is
//! the peak memory of that round's program alone. A mining child does one
//! read → prepare → run → write; a serve child is one HTTP server that the
//! parent loads over two keep-alive connections.

use crate::loadgen::{self, Job, JobDone};
use crate::metrics::{ratio, Layers};
use crate::spans::{self, Recorder, Span};
use crate::stats::{percentile, sorted};
use crate::workloads::{self, Prepared, Workload, CONNECTIONS};
use qcm::graph::io;
use qcm::graph::neighborhoods::perf;
use qcm::prelude::{BackendStats, EngineMetrics};
use qcm_http::{Api, AuthConfig, Server, ServerConfig};
use qcm_obs::json::{object, Json};
use qcm_obs::TraceConfig;
use qcm_service::ServiceConfig;
use qcm_sync::Arc;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Serve rounds record harness spans for this many jobs per connection; a
/// hot round's 40 000 jobs would otherwise make a 20 MB trace of identical
/// rows.
const TRACED_JOBS_PER_CONNECTION: usize = 500;

/// `qcm-obs` span buffer for traced children: the sparse workload spawns one
/// task per surviving vertex, far past the default 65 536 per thread.
const TRACE_CAPACITY: usize = 1 << 18;

const RESULT_FILE: &str = "result.txt";

/// What the parent keeps of one round.
pub struct Round {
    /// Wall time of the timed part, seconds.
    pub wall_s: f64,
    /// Latency of every job that completed correctly, ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// `VmHWM` of the child, kB.
    pub peak_rss_kb: f64,
    /// Per-layer values the child (or the load generator) derived.
    pub layers: Layers,
    /// Harness spans of the round, on the child's own clock.
    pub spans: Vec<Span>,
}

impl Round {
    fn new(attempted: usize) -> Round {
        Round {
            wall_s: 0.0,
            latencies_ms: Vec::new(),
            attempted,
            failures: Vec::new(),
            peak_rss_kb: 0.0,
            layers: Layers::default(),
            spans: Vec::new(),
        }
    }

    pub fn correct(&self) -> usize {
        self.attempted - self.failures.len().min(self.attempted)
    }

    /// `(p50, p90)` of the round's correct jobs; 0 when none completed.
    pub fn latency_percentiles(&self) -> (f64, f64) {
        let s = sorted(self.latencies_ms.clone());
        (percentile(&s, 50.0), percentile(&s, 90.0))
    }

    pub fn jobs_per_s(&self) -> f64 {
        ratio(self.correct() as f64, self.wall_s)
    }
}

/// How to launch a child of this binary.
pub struct Launch<'a> {
    pub exe: &'a Path,
    pub quick: bool,
    pub traced: bool,
}

impl Launch<'_> {
    fn command(&self, mode: &str, workload: &Workload, dir: &Path) -> Command {
        let mut command = Command::new(self.exe);
        command
            .args(["--child", mode, "--workload", workload.name, "--dir"])
            .arg(dir)
            .args(["--trace", if self.traced { "1" } else { "0" }]);
        if self.quick {
            command.arg("--quick");
        }
        command.stdout(Stdio::piped());
        command
    }
}

// ---------------------------------------------------------------- mining

/// Child side of a mining round. Prints one JSON line.
pub fn child_mine(workload: &Workload, dir: &Path, quick: bool, traced: bool, single_worker: bool) {
    let spec = workload.spec(0, quick, 0);
    let session = workload.session(&spec, single_worker);
    let recording = traced
        && qcm_obs::start_recording(&TraceConfig {
            capacity_per_thread: TRACE_CAPACITY,
        });
    let before = perf::snapshot();
    let mut spans = Recorder::default();
    let started = Instant::now();
    let round = spans.begin("round", 0);

    let graph = spans.scope("graph.load", 0, || {
        Arc::new(
            io::read_edge_list_file(dir.join(workloads::graph_file(0)))
                .expect("reading the edge list"),
        )
    });
    let prepared = spans.scope("session.prepare", 0, || session.prepare(graph));
    let report = spans.scope("session.run", 0, || {
        session
            .run_prepared(&prepared)
            .expect("a session without a deadline runs to completion")
    });
    let sets = workloads::plain(report.maximal.iter().cloned().collect());
    spans.scope("results.write", 0, || {
        workloads::write_results(&sets, &dir.join(RESULT_FILE)).expect("writing the result file")
    });

    spans.end(round);
    let wall_s = started.elapsed().as_secs_f64();
    let counters = perf::snapshot().since(&before);
    let trace = recording.then(qcm_obs::finish_recording);

    let mut layers: Vec<(&str, f64)> = vec![
        ("session.prepare_s", spans.total_s("session.prepare")),
        ("session.run_s", spans.total_s("session.run")),
        (
            "parallel.duplicate_share",
            1.0 - ratio(report.maximal.len() as f64, report.raw_reported as f64),
        ),
    ];
    layers.extend(perf_layers(&counters));
    match &report.stats {
        BackendStats::Serial { .. } => layers.push(("core.mine_s", report.elapsed.as_secs_f64())),
        BackendStats::Parallel { metrics } => engine_layers(metrics, &mut layers),
    }
    if let Some(trace) = &trace {
        let self_us = qcm_obs::self_time_by_kind(trace);
        for (kind, name) in [
            ("mine_phase", "core.mine_phase_self_s"),
            ("pull", "engine.pull_self_s"),
            ("steal", "engine.steal_self_s"),
            ("decompose", "engine.decompose_self_s"),
            ("task", "engine.task_self_s"),
            ("spill", "engine.spill_self_s"),
        ] {
            layers.push((name, self_us.get(kind).copied().unwrap_or(0) as f64 / 1e6));
        }
        // The in-program spans, for Perfetto, beside the harness's own.
        let path = dir.join("obs-trace.json");
        std::fs::write(path, qcm_obs::chrome::render(trace)).expect("writing the qcm-obs trace");
    }
    let reply = object(vec![
        ("wall_s", Json::from(wall_s)),
        ("outcome", Json::from(format!("{:?}", report.outcome))),
        ("complete", Json::from(report.is_complete())),
        (
            "vm_hwm_kb",
            Json::from(qcm_bench::suite::peak_rss_bytes() / 1024),
        ),
        ("spans", spans.to_json()),
        (
            "layers",
            object(
                layers
                    .into_iter()
                    .map(|(k, v)| (k, Json::from(v)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", reply.render());
}

/// The kernel and scratch counters of `qcm-graph`'s `perf` module as layer
/// metrics.
fn perf_layers(c: &perf::PerfSnapshot) -> [(&'static str, f64); 7] {
    [
        ("graph.edge_queries", c.edge_queries as f64),
        ("graph.bitset_hits", c.bitset_hits as f64),
        (
            "graph.bitset_hit_ratio",
            ratio(c.bitset_hits as f64, c.edge_queries as f64),
        ),
        ("graph.intersections", c.intersections as f64),
        ("core.scratch_pool_hits", c.allocations_avoided as f64),
        ("core.scratch_fresh_allocs", c.scratch_fresh_allocs as f64),
        ("core.scratch_bytes_peak", c.scratch_bytes_peak as f64),
    ]
}

/// The `engine.*` metrics of one engine run, from its public
/// [`EngineMetrics`].
fn engine_layers(m: &EngineMetrics, out: &mut Vec<(&str, f64)>) {
    let secs = |d: Duration| d.as_secs_f64();
    let busy: Vec<f64> = m.worker_busy.iter().copied().map(secs).collect();
    let busy_sum: f64 = busy.iter().sum();
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    let tasks = m.tasks_processed as f64;
    let task_ms = |p: f64| m.task_time_percentile(p).map_or(0.0, |d| secs(d) * 1e3);
    out.extend([
        ("core.mine_s", secs(m.total_mining_time)),
        ("engine.run_s", secs(m.elapsed)),
        ("engine.tasks_spawned", m.tasks_spawned as f64),
        ("engine.tasks_processed", tasks),
        ("engine.tasks_decomposed", m.tasks_decomposed as f64),
        (
            "engine.task_overhead_us",
            ratio(
                (busy_sum - secs(m.total_mining_time) - secs(m.total_materialization_time)) * 1e6,
                tasks,
            ),
        ),
        ("engine.worker_utilisation", m.worker_utilisation()),
        (
            "engine.busy_imbalance",
            ratio(busy_max * busy.len() as f64, busy_sum),
        ),
        ("engine.steals", m.steals as f64),
        ("engine.stolen_tasks", m.stolen_tasks as f64),
        ("engine.steal_failures", m.steal_failures as f64),
        (
            "engine.steal_success_ratio",
            ratio(m.steals as f64, (m.steals + m.steal_failures) as f64),
        ),
        ("engine.pop_contention", m.pop_contention as f64),
        ("engine.task_time_p50_ms", task_ms(0.50)),
        ("engine.task_time_p99_ms", task_ms(0.99)),
        ("engine.task_time_max_ms", task_ms(1.0)),
        ("engine.peak_task_bytes", m.peak_task_bytes as f64),
        ("engine.spill_bytes_written", m.spill_bytes_written as f64),
        ("engine.remote_fetches", m.remote_fetches as f64),
        ("engine.remote_bytes", m.remote_bytes as f64),
        (
            "engine.vertex_cache_hit_ratio",
            ratio(
                m.cache_hits as f64,
                (m.cache_hits + m.remote_fetches) as f64,
            ),
        ),
        ("engine.pull_retries", m.pull_retries as f64),
        ("engine.transport_messages", m.transport_messages as f64),
    ]);
}

/// Parent side of a mining round: runs the child, then checks its result
/// file against the reference. `single_worker` runs the engine on one worker.
pub fn mine_round(
    launch: &Launch,
    workload: &Workload,
    prepared: &Prepared,
    single_worker: bool,
) -> Round {
    let mut command = launch.command("mine", workload, &prepared.dir);
    if single_worker {
        command.arg("--single-worker");
    }
    std::fs::remove_file(prepared.dir.join(RESULT_FILE)).ok();
    let output = command
        .stdin(Stdio::null())
        .output()
        .expect("launching a mining child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let reply = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    let mut round = Round::new(1);
    let Some(reply) = reply.filter(|_| output.status.success()) else {
        round
            .failures
            .push(format!("mining child failed: {}", output.status));
        return round;
    };
    let number = |key: &str| reply.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    round.wall_s = number("wall_s");
    round.peak_rss_kb = number("vm_hwm_kb");
    round.spans = reply
        .get("spans")
        .map(Recorder::spans_from_json)
        .unwrap_or_default();
    if let Some(Json::Object(map)) = reply.get("layers") {
        for (name, value) in map {
            round.layers.set(name, value.as_f64().unwrap_or(0.0));
        }
    }
    let covered: f64 = [
        "graph.load",
        "session.prepare",
        "session.run",
        "results.write",
    ]
    .iter()
    .map(|name| spans::total_s(&round.spans, name))
    .sum();
    round.layers.set(
        "budget.residual_share",
        ratio(round.wall_s - covered, round.wall_s),
    );

    let reference = &prepared.graphs[0].reference;
    if reply.get("complete").and_then(Json::as_bool) != Some(true) {
        let outcome = reply.get("outcome").and_then(Json::as_str).unwrap_or("?");
        round
            .failures
            .push(format!("outcome {outcome}, not complete"));
    } else {
        match workloads::read_results(&prepared.dir.join(RESULT_FILE)) {
            Some(mut sets) => {
                sets.sort();
                if &sets != reference {
                    round.failures.push(format!(
                        "result file holds {} sets that differ from the reference's {}",
                        sets.len(),
                        reference.len()
                    ));
                }
            }
            None => round.failures.push("unreadable result file".to_string()),
        }
    }
    if round.failures.is_empty() {
        round.latencies_ms.push(round.wall_s * 1e3);
    }
    round
}

// --------------------------------------------------------------- serving

/// Child side of a serve round: one server over `dir`, alive until stdin
/// closes. Prints its address, then one metrics line per `metrics` command,
/// then (traced) the folded `qcm-obs` self times.
pub fn child_serve(dir: &Path, traced: bool) {
    let recording = traced
        && qcm_obs::start_recording(&TraceConfig {
            capacity_per_thread: TRACE_CAPACITY,
        });
    let api = Api::start(ServiceConfig::default(), AuthConfig::open()).with_graph_root(dir);
    let server =
        Server::start(Arc::new(api), ServerConfig::default()).expect("binding a loopback port");
    println!(
        "{}",
        object(vec![("addr", Json::from(server.local_addr()))]).render()
    );
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        if line.trim() != "metrics" {
            break;
        }
        let m = server.api().metrics();
        let counters = perf::snapshot();
        let snapshot = object(vec![
            ("cache_hits", Json::from(m.cache_hits)),
            ("cache_misses", Json::from(m.cache_misses)),
            ("jobs_mined", Json::from(m.jobs_mined)),
            ("rejected", Json::from(m.rejected)),
            (
                "p50_latency_ms",
                Json::from(m.p50_latency.as_secs_f64() * 1e3),
            ),
            (
                "p99_latency_ms",
                Json::from(m.p99_latency.as_secs_f64() * 1e3),
            ),
            ("graph_loads", Json::from(server.api().graph_loads())),
            ("edge_queries", Json::from(counters.edge_queries)),
            ("bitset_hits", Json::from(counters.bitset_hits)),
            ("intersections", Json::from(counters.intersections)),
            (
                "allocations_avoided",
                Json::from(counters.allocations_avoided),
            ),
            (
                "scratch_fresh_allocs",
                Json::from(counters.scratch_fresh_allocs),
            ),
            (
                "scratch_bytes_peak",
                Json::from(counters.scratch_bytes_peak),
            ),
            (
                "vm_hwm_kb",
                Json::from(qcm_bench::suite::peak_rss_bytes() / 1024),
            ),
        ]);
        println!("{}", snapshot.render());
    }
    if recording {
        let trace = qcm_obs::finish_recording();
        let self_us = qcm_obs::self_time_by_kind(&trace);
        let mine_phase = self_us.get("mine_phase").copied().unwrap_or(0);
        println!(
            "{}",
            object(vec![("mine_phase_self_us", Json::from(mine_phase))]).render()
        );
        std::fs::write(dir.join("obs-trace.json"), qcm_obs::chrome::render(&trace))
            .expect("writing the qcm-obs trace");
    }
    server.shutdown();
}

/// A running serve child and its pipes.
struct ServeChild {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
}

impl ServeChild {
    fn start(launch: &Launch, workload: &Workload, dir: &Path) -> Result<ServeChild, String> {
        let mut child = launch
            .command("serve", workload, dir)
            .stdin(Stdio::piped())
            .spawn()
            .map_err(|e| format!("launching a serve child: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        let addr = Json::parse(line.trim())
            .ok()
            .and_then(|j| j.get("addr").and_then(Json::as_str).map(str::to_string));
        match addr {
            Some(addr) => Ok(ServeChild {
                child,
                stdout,
                addr,
            }),
            None => {
                child.kill().ok();
                child.wait().ok();
                Err(format!("serve child did not report an address: {line:?}"))
            }
        }
    }

    /// Asks the server for its counters as of now.
    fn metrics(&mut self) -> Json {
        let stdin = self.child.stdin.as_mut().expect("stdin is piped");
        let mut line = String::new();
        if writeln!(stdin, "metrics").is_ok() {
            self.stdout.read_line(&mut line).ok();
        }
        Json::parse(line.trim()).unwrap_or(Json::Null)
    }

    /// Closes stdin (the shutdown signal), drains stdout and reaps the child.
    fn finish(mut self) -> Vec<String> {
        drop(self.child.stdin.take());
        let rest: Vec<String> = self.stdout.lines().map_while(Result::ok).collect();
        self.child.wait().ok();
        rest
    }
}

/// Parent side of a serve round: fresh server, (hot) prime the cache,
/// then the timed closed loop over two connections.
pub fn serve_round(
    launch: &Launch,
    workload: &Workload,
    prepared: &Prepared,
    seed: u64,
    round_index: usize,
) -> Round {
    let hot = workload.kind == workloads::Kind::ServeHot;
    let per_connection = workload.jobs_per_connection(launch.quick);
    let mut round = Round::new(per_connection * CONNECTIONS);
    let mut server = match ServeChild::start(launch, workload, &prepared.dir) {
        Ok(server) => server,
        Err(e) => {
            round.failures = vec![e; round.attempted];
            return round;
        }
    };
    let queries: Vec<Job> = prepared
        .graphs
        .iter()
        .map(|g| Job {
            graph: g.file.clone(),
            gamma: g.gamma,
            min_size: g.min_size,
            expected_maximal: g.reference.len(),
        })
        .collect();

    if hot {
        // Untimed: mine each query once so the timed part only reads caches.
        let each = queries.len().div_ceil(CONNECTIONS);
        for primed in loadgen::run_connections(&server.addr, &queries, each, 0) {
            for failure in &primed.failures {
                round.failures.push(format!("while priming: {failure:?}"));
            }
        }
    }
    // The seed fixes the order in which jobs arrive; the job set is pinned.
    let mut rng = StdRng::seed_from_u64(seed ^ ((round_index as u64) << 48));
    let mut order: Vec<Job> = if hot {
        (0..round.attempted)
            .map(|i| queries[i % queries.len()].clone())
            .collect()
    } else {
        queries
    };
    order.shuffle(&mut rng);
    order.truncate(round.attempted);

    let before = server.metrics();
    let traced_jobs = if launch.traced {
        TRACED_JOBS_PER_CONNECTION
    } else {
        0
    };
    let started = Instant::now();
    let tallies = loadgen::run_connections(&server.addr, &order, per_connection, traced_jobs);
    round.wall_s = started.elapsed().as_secs_f64();
    let after = server.metrics();
    let tail = server.finish();

    let mut done: Vec<JobDone> = Vec::new();
    for tally in tallies {
        done.extend(tally.done);
        round
            .failures
            .extend(tally.failures.iter().map(|f| format!("{f:?}")));
        round.spans.extend(tally.spans.spans().iter().cloned());
    }
    round.latencies_ms = done.iter().map(|d| d.latency_ms).collect();

    let delta = |key: &str| {
        let read = |j: &Json| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        read(&after) - read(&before)
    };
    let last = |key: &str| after.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    round.peak_rss_kb = last("vm_hwm_kb");
    let layers = &mut round.layers;
    layers.set(
        "service.cache_hit_ratio",
        ratio(
            delta("cache_hits"),
            delta("cache_hits") + delta("cache_misses"),
        ),
    );
    layers.set("service.jobs_mined", delta("jobs_mined"));
    layers.set("service.rejected", delta("rejected"));
    layers.set("service.p50_latency_ms", last("p50_latency_ms"));
    layers.set("service.p99_latency_ms", last("p99_latency_ms"));
    layers.set("http.graph_loads", delta("graph_loads"));
    let counters = |doc: &Json| {
        let read = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        perf::PerfSnapshot {
            edge_queries: read("edge_queries"),
            bitset_hits: read("bitset_hits"),
            intersections: read("intersections"),
            allocations_avoided: read("allocations_avoided"),
            scratch_fresh_allocs: read("scratch_fresh_allocs"),
            scratch_bytes_peak: read("scratch_bytes_peak"),
            ..Default::default()
        }
    };
    for (name, value) in perf_layers(&counters(&after).since(&counters(&before))) {
        layers.set(name, value);
    }
    layers.set(
        "core.mine_s",
        done.iter().map(|d| d.mining_ms).sum::<f64>() / 1e3,
    );
    let s = sorted(round.latencies_ms.clone());
    layers.set("http.job_p99_ms", percentile(&s, 99.0));
    if let Some(us) = tail
        .iter()
        .filter_map(|l| Json::parse(l).ok())
        .find_map(|j| j.get("mine_phase_self_us").and_then(Json::as_f64))
    {
        layers.set("core.mine_phase_self_s", us / 1e6);
    }
    round
}
