//! The fault-scenario suite: mid-mine crash, slow straggler and partitioned
//! steal victim, driven through the deterministic discrete-event simulator
//! (`TransportFactory::Sim`) on a 4-machine cluster.
//!
//! Every scenario is run from fixed seeds and asserts
//!
//! * **result equivalence** with the serial miner wherever the scenario
//!   permits completion,
//! * **seeded replay** — the same seed and scenario reproduce a
//!   byte-identical event log (compared via its FNV-1a hash *and* the full
//!   log lines),
//! * **termination** — a proptest over random drop/latency schedules shows
//!   the pull protocol never deadlocks: each run ends with a labelled
//!   outcome before the virtual-time horizon.
//!
//! Event logs are written to `$CARGO_TARGET_TMPDIR/fault-logs/` so CI can
//! upload them as artifacts when a scenario fails. The `fault-matrix` CI job
//! pins one cell per invocation through two env vars:
//!
//! * `QCM_FAULT_SCENARIO` — `crash`, `straggler` or `partition`; empty/unset
//!   runs all three.
//! * `QCM_FAULT_SEED` — one of the fixed seeds; empty/unset runs all.

use proptest::prelude::*;
use qcm::core::{MiningParams, SerialMiner};
use qcm::engine::{EngineConfig, ParallelMiner, ParallelMiningOutput, Replay};
use qcm::graph::Graph;
use qcm::{RunOutcome, SimConfig, TransportFactory};
use qcm_sync::Arc;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

const SEEDS: [u64; 3] = [11, 42, 1337];
const MACHINES: usize = 4;

/// A planted graph big enough that all four machines own work and the
/// mid-mine fault injections land while tasks are still in flight. The
/// engine mines the (k, s)-core, so only its suffix roots become tasks: at
/// γ = 0.7, τ_size = 8 nine communities leave about forty, which split.
/// Three communities, or γ = 0.8 — where the edge rule needs four common
/// neighbours and leaves each community one task, mined whole at its root —
/// end the job before the crash scenario's 3 ms, too small to spill.
fn planted() -> (Arc<Graph>, MiningParams) {
    let spec = qcm::gen::PlantedGraphSpec {
        num_vertices: 400,
        background_avg_degree: 5.0,
        background_beta: 2.5,
        background_max_degree: 40.0,
        community_sizes: vec![10, 9, 8, 10, 9, 8, 10, 9, 8],
        community_density: 0.95,
        seed: 99,
    };
    let (graph, _) = qcm::gen::plant_quasi_cliques(&spec);
    (Arc::new(graph), MiningParams::new(0.7, 8))
}

fn scenario(name: &str, seed: u64) -> SimConfig {
    match name {
        // Machine 1 dies mid-mine and comes back later.
        "crash" => SimConfig::crash_scenario(seed, 1, 3_000, Some(30_000)),
        // Machine 2 runs 8x slower from early on — the balancer must route
        // around it without losing results.
        "straggler" => SimConfig::straggler_scenario(seed, 2, 1_000, 8),
        // The link between machine 0 and steal victim 2 is severed, then
        // heals; in-flight grants must survive via retransmission.
        "partition" => SimConfig::partition_scenario(seed, 0, 2, 2_000, Some(25_000)),
        other => panic!("unknown scenario {other:?}"),
    }
}

/// True when the (scenario, seed) cell is selected by the CI env vars (or no
/// filter is set).
fn selected(name: &str, seed: u64) -> bool {
    let scenario_ok = match std::env::var("QCM_FAULT_SCENARIO") {
        Ok(s) if !s.is_empty() => s == name,
        _ => true,
    };
    let seed_ok = match std::env::var("QCM_FAULT_SEED") {
        Ok(s) if !s.is_empty() => s.parse::<u64>() == Ok(seed),
        _ => true,
    };
    scenario_ok && seed_ok
}

/// A miner on the fault simulator with τ_split 30, on the cluster `config`
/// describes.
fn sim_miner(params: MiningParams, config: EngineConfig, sim: SimConfig) -> ParallelMiner {
    let mut miner = ParallelMiner::new(params, config.with_transport(TransportFactory::Sim(sim)));
    miner.app.tau_split = 30;
    miner
}

fn run_sim(graph: &Arc<Graph>, params: MiningParams, sim: SimConfig) -> ParallelMiningOutput {
    sim_miner(params, EngineConfig::cluster(MACHINES, 1), sim).mine(graph.clone())
}

fn replay(out: &ParallelMiningOutput) -> &Replay {
    out.replay
        .as_ref()
        .expect("a simulated run has an event log")
}

/// Writes the run's event log under `$CARGO_TARGET_TMPDIR/fault-logs/` so a
/// failing CI cell can upload it for offline replay analysis.
fn dump_log(name: &str, seed: u64, out: &ParallelMiningOutput) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fault-logs");
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let header = format!(
        "# scenario={name} seed={seed} outcome={:?} hash={:016x} virtual={}us\n",
        out.outcome(),
        replay(out).log_hash,
        out.metrics.virtual_time.unwrap_or_default().as_micros()
    );
    let body = replay(out).event_log.join("\n");
    let _ = fs::write(
        dir.join(format!("{name}-seed{seed}.log")),
        header + &body + "\n",
    );
}

#[test]
fn recoverable_scenarios_match_the_serial_miner() {
    let (graph, params) = planted();
    let serial = SerialMiner::new(params).mine(&graph);
    assert!(!serial.maximal.is_empty(), "planted communities must exist");
    for name in ["crash", "straggler", "partition"] {
        for seed in SEEDS {
            if !selected(name, seed) {
                continue;
            }
            let out = run_sim(&graph, params, scenario(name, seed));
            dump_log(name, seed, &out);
            assert_eq!(
                out.outcome(),
                RunOutcome::Complete,
                "{name} seed {seed} must recover to completion"
            );
            assert_eq!(
                out.maximal, serial.maximal,
                "{name} seed {seed}: sim results diverge from serial"
            );
            assert_eq!(
                out.invalid_sets_dropped, 0,
                "{name} seed {seed}: the validity net swallowed an engine bug"
            );
        }
    }
}

#[test]
fn every_scenario_replays_byte_identically_from_its_seed() {
    let (graph, params) = planted();
    for name in ["crash", "straggler", "partition"] {
        for seed in SEEDS {
            if !selected(name, seed) {
                continue;
            }
            let first = run_sim(&graph, params, scenario(name, seed));
            let again = run_sim(&graph, params, scenario(name, seed));
            assert_eq!(
                replay(&first).log_hash,
                replay(&again).log_hash,
                "{name} seed {seed}: event-log hash diverged across replays"
            );
            assert_eq!(
                replay(&first).event_log,
                replay(&again).event_log,
                "{name} seed {seed}: event logs diverged with equal hashes"
            );
            assert_eq!(first.maximal, again.maximal);
            assert_eq!(first.outcome(), again.outcome());
            assert_eq!(first.metrics.virtual_time, again.metrics.virtual_time);
        }
    }
}

#[test]
fn distinct_seeds_schedule_distinct_histories() {
    let (graph, params) = planted();
    let hashes: Vec<u64> = SEEDS
        .iter()
        .map(|&seed| replay(&run_sim(&graph, params, scenario("crash", seed))).log_hash)
        .collect();
    assert_ne!(hashes[0], hashes[1]);
    assert_ne!(hashes[1], hashes[2]);
}

/// A run's virtual time is the instant of its last event that acted, not
/// of a stale timer. In `straggler` seed 42 an ask's timeout fires at
/// 42,835 µs, long after its reply came; the run ends when its last
/// message, a grant sent at 33,468 µs, lands 630 µs later.
#[test]
fn virtual_time_ends_when_the_last_message_lands() {
    if !selected("straggler", 42) {
        return;
    }
    let (graph, params) = planted();
    let out = run_sim(&graph, params, scenario("straggler", 42));
    let last_send = replay(&out)
        .event_log
        .iter()
        .rev()
        .find(|line| line.contains(" send "))
        .expect("the run sends messages");
    // `t=<sent at> send <from>-><to> <kind> <bytes>B +<latency>us`
    let sent_us: u64 = last_send[2..]
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let latency = last_send.rsplit('+').next().unwrap();
    let latency_us: u64 = latency.trim_end_matches("us").parse().unwrap();
    assert_eq!(
        out.metrics.virtual_time,
        Some(Duration::from_micros(sent_us + latency_us)),
        "{last_send}"
    );
    assert_eq!(
        out.metrics.virtual_time,
        Some(Duration::from_micros(34_098))
    );
}

#[test]
fn unrecoverable_crash_reports_labelled_partial_results() {
    let (graph, params) = planted();
    let serial = SerialMiner::new(params).mine(&graph);
    // Machine 1 dies early and never restarts: its vertex partition becomes
    // unreachable, so the run must either finish whatever work survives or
    // label itself faulted — never hang, never report an invalid set.
    let out = run_sim(
        &graph,
        params,
        SimConfig::crash_scenario(42, 1, 2_000, None),
    );
    dump_log("crash-norestart", 42, &out);
    match out.outcome() {
        RunOutcome::Complete => {
            assert_eq!(out.maximal, serial.maximal);
            assert_eq!(out.invalid_sets_dropped, 0);
        }
        RunOutcome::Faulted => {
            // Partial-result contract: everything reported is a valid
            // quasi-clique the serial miner also proves maximal.
            for members in out.maximal.iter() {
                assert!(
                    serial.maximal.iter().any(|s| s == members),
                    "faulted run reported a set the serial miner never proves: {members:?}"
                );
            }
        }
        other => panic!("unexpected outcome {other:?}"),
    }
}

/// The partial-result contract does not depend on where the crash lands. A
/// completed root's set is non-maximal when the smaller root that holds its
/// superset is lost; whether that pair straddles the crash is a matter of pop
/// order and timing, so sweep the crash instant across the whole job.
#[test]
fn faulted_runs_report_only_serial_maximal_sets_at_every_crash_instant() {
    let (graph, params) = planted();
    let serial = SerialMiner::new(params).mine(&graph);
    let mut partial_sets = 0;
    for seed in SEEDS {
        for crash_at_us in (500..=12_000).step_by(500) {
            let sim = SimConfig::crash_scenario(seed, 1, crash_at_us, None);
            let out = run_sim(&graph, params, sim);
            assert_eq!(out.invalid_sets_dropped, 0);
            for members in out.maximal.iter() {
                assert!(
                    serial.maximal.iter().any(|s| s == members),
                    "seed {seed}, crash at {crash_at_us}us ({:?}): {members:?} is not maximal",
                    out.outcome()
                );
            }
            if out.outcome() == RunOutcome::Faulted {
                partial_sets += out.maximal.len();
            }
        }
    }
    assert!(
        partial_sets > 0,
        "faulted runs must keep what they can prove"
    );
}

/// The simulator runs the machines' real spill-backed queues: a crashed and
/// restarted cluster whose queues hold two tasks must spill, lose the crashed
/// machine's spilled batches with it, and still recover the serial answer.
#[test]
fn tiny_queues_spill_and_recover_under_a_crash() {
    let (graph, params) = planted();
    let serial = SerialMiner::new(params).mine(&graph);
    let mut config = EngineConfig::cluster(MACHINES, 1);
    config.batch_size = 2;
    config.local_capacity = 2;
    config.global_queue_capacity = 2;
    let out = sim_miner(params, config, scenario("crash", 42)).mine(graph.clone());
    dump_log("crash-tiny-queues", 42, &out);
    assert!(
        out.metrics.spill_bytes_written > 0,
        "two-slot queues must spill in the simulator too"
    );
    assert_eq!(out.outcome(), RunOutcome::Complete);
    assert_eq!(out.maximal, serial.maximal);
    assert_eq!(out.invalid_sets_dropped, 0);
}

/// A 9-vertex graph (the paper's Figure 4) — small enough that the proptest
/// sweep over random fault schedules stays fast.
fn figure4() -> Arc<Graph> {
    let edges = [
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 4),
        (1, 2),
        (1, 4),
        (2, 3),
        (2, 4),
        (3, 4),
        (1, 5),
        (5, 6),
        (2, 6),
        (3, 7),
        (7, 8),
        (3, 8),
    ];
    Arc::new(Graph::from_edges(9, edges.iter().copied()).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random drop/latency schedules must never deadlock the pull protocol:
    /// every run terminates (this test returning at all is the witness — a
    /// hung virtual clock would spin the heap until the horizon aborts it)
    /// with a labelled outcome, and a run that does complete agrees with the
    /// serial miner.
    #[test]
    fn random_drop_and_latency_schedules_never_deadlock(
        seed in 0u64..1_000_000,
        drop_millis in 0u32..250,        // 0%..25% message drop
        latency_us in 100u64..2_000,
        jitter_us in 0u64..500,
    ) {
        let graph = figure4();
        let params = MiningParams::new(0.6, 5);
        let sim = SimConfig::new(seed)
            .with_drop_probability(f64::from(drop_millis) / 1_000.0)
            .with_latency(latency_us, jitter_us);
        let config = EngineConfig::cluster(3, 1).with_transport(TransportFactory::Sim(sim));
        let out = ParallelMiner::new(params, config).mine(graph.clone());
        prop_assert!(
            matches!(out.outcome(), RunOutcome::Complete | RunOutcome::Faulted),
            "unexpected outcome {:?}", out.outcome()
        );
        if out.outcome() == RunOutcome::Complete {
            let serial = SerialMiner::new(params).mine(&graph);
            prop_assert_eq!(out.maximal, serial.maximal);
            prop_assert_eq!(out.invalid_sets_dropped, 0);
        }
    }
}
