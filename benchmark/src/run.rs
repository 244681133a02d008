//! The run protocol: set up, interleaved untraced rounds, then the traced
//! pass, the same rule for every workload.

use crate::layers::{self, Effort};
use crate::metrics::{ratio, Layers, END_TO_END};
use crate::rounds::{self, Launch, Round};
use crate::spans::Recorder;
use crate::stats::{summarize, Pick, Summary};
use crate::workloads::{self, Kind, Prepared, Workload};
use qcm::prelude::MiningParams;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which passes a run makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Passes {
    /// Untraced rounds only: the end-to-end metrics (`--trace 0`).
    EndToEnd,
    /// The traced pass only: the per-layer metrics (`--trace 1`).
    PerLayer,
    /// Both, for a full report.
    Both,
}

pub struct Options {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    pub structure_seed: u64,
    /// Seconds of untraced rounds per workload.
    pub seconds: f64,
    pub passes: Passes,
    /// Tiny inputs, one round: the smoke test's mode.
    pub quick: bool,
    /// Plant a wrong set in every reference, to show that a wrong answer
    /// fails the run.
    pub corrupt_reference: bool,
}

/// Everything measured for one workload.
pub struct WorkloadReport {
    pub name: &'static str,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// One summary per [`END_TO_END`] entry; empty after a per-layer-only run.
    pub end_to_end: Vec<Summary>,
    /// Present after a traced pass.
    pub per_layer: Option<Layers>,
    /// Where the traced pass wrote its Chrome traces.
    pub trace_files: Vec<PathBuf>,
}

/// A scratch directory beside the executable (inside the checkout's build
/// directory), removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(exe: &Path) -> WorkDir {
        let dir = exe
            .parent()
            .expect("an executable has a directory")
            .join("qcm-benchmark-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("creating the work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// One timed set-up into `dir` (emptied first).
fn timed_set_up(workload: &Workload, dir: &Path, options: &Options) -> (Prepared, f64) {
    std::fs::remove_dir_all(dir).ok();
    let started = Instant::now();
    let prepared = workloads::set_up(
        workload,
        dir,
        options.seed,
        options.structure_seed,
        options.quick,
    );
    (prepared, started.elapsed().as_secs_f64())
}

/// Set-up runs three times in all, and a cheap set-up until three seconds
/// have been spent on it, at most nine times.
fn set_up_enough(samples: &[f64]) -> bool {
    let spent: f64 = samples.iter().sum();
    samples.len() >= 3 && (spent >= 3.0 || samples.len() >= 9)
}

fn one_round(
    launch: &Launch,
    workload: &Workload,
    prepared: &Prepared,
    seed: u64,
    index: usize,
) -> Round {
    if workload.is_serve() {
        rounds::serve_round(launch, workload, prepared, seed, index)
    } else {
        rounds::mine_round(launch, workload, prepared, false)
    }
}

struct InFlight {
    workload: &'static Workload,
    prepared: Prepared,
    setup_s: Vec<f64>,
    rounds: Vec<Round>,
    /// Seconds of round time spent, and what the last round cost.
    spent: f64,
    last_cost: f64,
}

impl InFlight {
    fn wants_another(&self, options: &Options) -> bool {
        if self.rounds.is_empty() {
            return true;
        }
        !options.quick && self.spent + self.last_cost <= options.seconds
    }
}

pub fn run(options: &Options) -> Vec<WorkloadReport> {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let work = WorkDir::create(&exe);
    let mut flights: Vec<InFlight> = options
        .workloads
        .iter()
        .map(|&workload| {
            let dir = work.0.join(workload.name);
            let (mut prepared, setup_s) = timed_set_up(workload, &dir, options);
            if options.corrupt_reference {
                for graph in &mut prepared.graphs {
                    graph.reference.push(vec![0, 1]);
                    graph.reference.sort();
                }
            }
            InFlight {
                workload,
                prepared,
                setup_s: vec![setup_s],
                rounds: Vec::new(),
                spent: 0.0,
                last_cost: 0.0,
            }
        })
        .collect();

    if options.passes != Passes::PerLayer {
        // Sweeps: every workload runs one round, then every workload runs
        // its next, so each samples the whole run and not one window of it
        // (this host's slow phases last about ten seconds).
        let launch = Launch {
            exe: &exe,
            quick: options.quick,
            traced: false,
        };
        while flights.iter().any(|f| f.wants_another(options)) {
            for flight in flights.iter_mut().filter(|f| f.wants_another(options)) {
                let started = Instant::now();
                let round = one_round(
                    &launch,
                    flight.workload,
                    &flight.prepared,
                    options.seed,
                    flight.rounds.len(),
                );
                flight.last_cost = started.elapsed().as_secs_f64();
                flight.spent += flight.last_cost;
                flight.rounds.push(round);
            }
        }
    }

    if options.passes != Passes::PerLayer && !options.quick {
        // The remaining set-ups run after the rounds, so that `setup_s`
        // samples both ends of the run. They rewrite the same files.
        for flight in &mut flights {
            while !set_up_enough(&flight.setup_s) {
                let (_, setup_s) = timed_set_up(flight.workload, &flight.prepared.dir, options);
                flight.setup_s.push(setup_s);
            }
        }
    }

    flights
        .into_iter()
        .map(|flight| {
            let mut report = WorkloadReport {
                name: flight.workload.name,
                attempted: flight.rounds.iter().map(|r| r.attempted).sum(),
                failures: flight
                    .rounds
                    .iter()
                    .flat_map(|r| r.failures.iter().cloned())
                    .collect(),
                end_to_end: Vec::new(),
                per_layer: None,
                trace_files: Vec::new(),
            };
            if options.passes != Passes::PerLayer {
                report.end_to_end = end_to_end(&flight);
            }
            if options.passes != Passes::EndToEnd {
                traced_pass(&exe, options, &flight, &mut report);
            }
            report
        })
        .collect()
}

/// The value of each end-to-end metric: the best round of a time or a rate,
/// the best set-up, the median round of memory.
fn end_to_end(flight: &InFlight) -> Vec<Summary> {
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> {
        flight
            .rounds
            .iter()
            .filter(|r| !r.latencies_ms.is_empty())
            .map(f)
            .collect()
    };
    END_TO_END
        .iter()
        .map(|&(name, _, pick)| {
            let samples = match name {
                "setup_s" => flight.setup_s.clone(),
                "job_p50_ms" => per_round(&|r| r.latency_percentiles().0),
                "job_p90_ms" => per_round(&|r| r.latency_percentiles().1),
                "jobs_per_s" => per_round(&|r| r.jobs_per_s()),
                "peak_rss_mb" => per_round(&|r| r.peak_rss_kb / 1024.0),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            summarize(&samples, pick)
        })
        .collect()
}

/// The traced pass of one workload: alternating untraced and traced rounds
/// for the tracing overhead, the one-worker scaling point, then the probes.
fn traced_pass(exe: &Path, options: &Options, flight: &InFlight, report: &mut WorkloadReport) {
    let (workload, prepared) = (flight.workload, &flight.prepared);
    let mut spans = Recorder::default();
    let mut layers = Layers::default();
    let plain = Launch {
        exe,
        quick: options.quick,
        traced: false,
    };
    let traced = Launch {
        exe,
        quick: options.quick,
        traced: true,
    };

    let started = Instant::now();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut index = flight.rounds.len();
    let (untraced_round, traced_round, offset_us) = loop {
        let untraced_round = one_round(&plain, workload, prepared, options.seed, index);
        let offset_us = spans.elapsed_us();
        let id = spans.begin("round.traced", index as u64);
        let traced_round = one_round(&traced, workload, prepared, options.seed, index);
        spans.end(id);
        index += 1;
        for round in [&untraced_round, &traced_round] {
            report.attempted += round.attempted;
            report.failures.extend(round.failures.iter().cloned());
        }
        plain_s.push(untraced_round.wall_s);
        traced_s.push(traced_round.wall_s);
        if options.quick || started.elapsed().as_secs_f64() * 2.0 >= options.seconds {
            break (untraced_round, traced_round, offset_us);
        }
    };
    spans.absorb(&traced_round.spans, offset_us, 1);
    layers.extend(&traced_round.layers);
    let best = |walls: &[f64]| summarize(walls, Pick::Min).value;
    layers.set(
        "obs.trace_overhead_ratio",
        ratio(best(&traced_s), best(&plain_s)),
    );

    if let Kind::Engine { threads, machines } = workload.kind {
        // The scaling point: the same engine on one worker.
        let single = rounds::mine_round(&plain, workload, prepared, true);
        report.attempted += single.attempted;
        report.failures.extend(single.failures.iter().cloned());
        let t1 = single.layers.get("engine.run_s");
        let tn = untraced_round.layers.get("engine.run_s");
        layers.set("engine.run_1t_s", t1);
        layers.set(
            "engine.scaling_efficiency",
            ratio(t1, (threads * machines) as f64 * tn),
        );
    }

    let effort = Effort::new(options.quick);
    let first = &prepared.graphs[0];
    let params = MiningParams::new(first.gamma, first.min_size);
    let graph = layers::graph(
        &mut layers,
        &mut spans,
        &prepared.dir.join(&first.file),
        params,
        effort,
        options.seed,
    );
    layers::core(
        &mut layers,
        &mut spans,
        &graph,
        params,
        prepared,
        effort,
        options.seed,
    );
    if workload.kind == Kind::Serial {
        layers::quick_baseline(&mut layers, &mut spans, options.quick);
    }
    if workload.is_serve() {
        layers::service(&mut layers, &mut spans, prepared, effort);
        let in_process_p50_us = layers::http(&mut layers, &mut spans, workload, prepared, effort);
        // What the socket adds to a job the router serves in-process; on a
        // serve workload that is the part of the wall no layer span covers.
        let client_p50_us = traced_round.latency_percentiles().0 * 1e3;
        let overhead_us = (client_p50_us - in_process_p50_us).max(0.0);
        layers.set("http.socket_overhead_us", overhead_us);
        layers.set("budget.residual_share", ratio(overhead_us, client_p50_us));
    }

    report.trace_files = write_traces(exe, workload, prepared, &spans);
    report.per_layer = Some(layers);
}

/// Writes the harness spans, and moves the child's `qcm-obs` trace beside
/// them, under `qcm-benchmark-traces/` next to the executable.
fn write_traces(
    exe: &Path,
    workload: &Workload,
    prepared: &Prepared,
    spans: &Recorder,
) -> Vec<PathBuf> {
    let dir = exe
        .parent()
        .expect("an executable has a directory")
        .join("qcm-benchmark-traces");
    std::fs::create_dir_all(&dir).expect("creating the trace directory");
    let harness = dir.join(format!("{}.trace.json", workload.name));
    std::fs::write(&harness, spans.render_chrome()).expect("writing the harness trace");
    let mut files = vec![harness];
    let obs = dir.join(format!("{}.obs-trace.json", workload.name));
    if std::fs::copy(prepared.dir.join("obs-trace.json"), &obs).is_ok() {
        files.push(obs);
    }
    files
}
