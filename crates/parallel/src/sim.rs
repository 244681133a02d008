//! Deterministic fault-simulated quasi-clique mining.
//!
//! [`SimMiner`] is the fault-testing twin of [`crate::ParallelMiner`]: the
//! same [`QuasiCliqueApp`] and the same maximality/validity post-processing,
//! but executed on [`qcm_engine::SimCluster`] — the seeded discrete-event
//! simulator — instead of the live thread-per-worker cluster. One seed plus
//! one fault scenario replays byte-identically, so crash, straggler and
//! partition behaviour is testable in CI without flaky timing.
//!
//! Determinism requires two deviations from the live miner's defaults, both
//! applied automatically:
//!
//! * the decomposition strategy is forced to
//!   [`DecompositionStrategy::SizeThreshold`] — time-delayed decomposition
//!   consults the wall clock, which would make task shapes differ between
//!   replays;
//! * wall-clock cancellation/deadlines are ignored; the run is bounded by
//!   [`SimConfig::max_virtual_us`] virtual microseconds instead.

use crate::app::QuasiCliqueApp;
use crate::mine::DecompositionStrategy;
use crate::runner::finalize_results;
use qcm_core::{MiningParams, PruneConfig, QuasiCliqueSet, RunOutcome};
use qcm_engine::{EngineConfig, EngineMetrics, SimCluster, SimConfig};
use qcm_graph::Graph;
use qcm_sync::Arc;
use std::time::Duration;

/// Output of a simulated mining run.
#[derive(Clone, Debug)]
pub struct SimMiningOutput {
    /// The final maximal quasi-cliques. When the scenario did not permit
    /// completion (`outcome != Complete`) this is a *partial* result: every
    /// set in it is a valid quasi-clique, but roots whose work was lost
    /// contribute nothing.
    pub maximal: QuasiCliqueSet,
    /// Number of raw (pre-post-processing) reports emitted by tasks.
    pub raw_reported: u64,
    /// Sets the post-mining validity check dropped before publication.
    /// Anything but 0 is an engine bug the check swallowed.
    pub invalid_sets_dropped: u64,
    /// Engine metrics; `virtual_time` is set, wall `elapsed` measures only
    /// the simulation itself (excluded from the bench wall-time gate).
    pub metrics: EngineMetrics,
    /// Whether the simulated cluster drained every task
    /// ([`RunOutcome::Complete`]) or lost work permanently
    /// ([`RunOutcome::Faulted`]).
    pub outcome: RunOutcome,
    /// The seeded event log (sends, drops, faults, respawns).
    pub event_log: Vec<String>,
    /// FNV-1a hash over the event log — the replay-determinism witness.
    pub log_hash: u64,
    /// Virtual duration of the run.
    pub virtual_time: Duration,
}

/// Parallel maximal quasi-clique miner on the deterministic fault simulator.
#[derive(Clone, Debug)]
pub struct SimMiner {
    /// Mining parameters (γ, τ_size).
    pub params: MiningParams,
    /// Pruning-rule configuration.
    pub prune_config: PruneConfig,
    /// Engine configuration (machines, τ_split, batch size, …). Thread
    /// counts are not modelled — each machine performs one scheduling step
    /// per virtual wake.
    pub engine_config: EngineConfig,
    /// Simulator configuration (seed, latency, drops, fault scenario).
    pub sim_config: SimConfig,
}

impl SimMiner {
    /// Creates a simulated miner with the paper's pruning defaults.
    pub fn new(params: MiningParams, engine_config: EngineConfig, sim_config: SimConfig) -> Self {
        SimMiner {
            params,
            prune_config: PruneConfig::all_enabled(),
            engine_config,
            sim_config,
        }
    }

    /// Overrides the pruning configuration.
    pub fn with_prune_config(mut self, config: PruneConfig) -> Self {
        self.prune_config = config;
        self
    }

    /// Mines `graph` in virtual time under the configured fault scenario.
    pub fn mine(&self, graph: Arc<Graph>) -> SimMiningOutput {
        let app = Arc::new(
            QuasiCliqueApp::new(
                self.params,
                self.engine_config.tau_split,
                self.engine_config.tau_time,
            )
            // Size-threshold splitting is the only wall-clock-free strategy;
            // see the module docs.
            .with_strategy(DecompositionStrategy::SizeThreshold)
            .with_prune_config(self.prune_config)
            .with_index(self.engine_config.index),
        );
        let cluster = SimCluster::new(app, self.engine_config.clone(), self.sim_config.clone());
        let output = cluster.run(graph);
        let raw_reported = output.metrics.results_emitted;
        let (maximal, invalid_sets_dropped) =
            finalize_results(output.results, output.index.as_deref(), &self.params, None);
        SimMiningOutput {
            maximal,
            raw_reported,
            invalid_sets_dropped,
            outcome: output.outcome,
            virtual_time: Duration::from_micros(output.virtual_us),
            event_log: output.event_log,
            log_hash: output.log_hash,
            metrics: output.metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_core::SerialMiner;

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

    #[test]
    fn fault_free_sim_matches_serial() {
        let g = figure4();
        for (gamma, min_size) in [(0.6, 5), (0.9, 4)] {
            let params = MiningParams::new(gamma, min_size);
            let serial = SerialMiner::new(params).mine(&g);
            let sim = SimMiner::new(params, EngineConfig::cluster(3, 1), SimConfig::new(17))
                .mine(g.clone());
            assert_eq!(sim.outcome, RunOutcome::Complete);
            assert_eq!(
                sim.maximal, serial.maximal,
                "sim/serial mismatch at gamma={gamma} min_size={min_size}"
            );
        }
    }

    #[test]
    fn mining_replays_byte_identically() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let mk = || {
            SimMiner::new(
                params,
                EngineConfig::cluster(4, 1),
                SimConfig::crash_scenario(99, 2, 2_000, Some(25_000)),
            )
            .mine(g.clone())
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.log_hash, b.log_hash);
        assert_eq!(a.event_log, b.event_log);
        assert_eq!(a.maximal, b.maximal);
        assert_eq!(a.outcome, b.outcome);
    }

    #[test]
    fn crash_with_restart_still_matches_serial() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let serial = SerialMiner::new(params).mine(&g);
        let sim = SimMiner::new(
            params,
            EngineConfig::cluster(3, 1),
            SimConfig::crash_scenario(5, 1, 1_000, Some(30_000)),
        )
        .mine(g.clone());
        assert_eq!(sim.outcome, RunOutcome::Complete);
        assert_eq!(sim.maximal, serial.maximal);
    }

    #[test]
    fn results_are_valid_even_under_faults() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let sim = SimMiner::new(
            params,
            EngineConfig::cluster(3, 1),
            SimConfig::crash_scenario(7, 1, 1_000, None),
        )
        .mine(g.clone());
        // Completion is not guaranteed, but every surviving answer must be a
        // valid quasi-clique (partial-result contract).
        let serial = SerialMiner::new(params).mine(&g);
        for members in sim.maximal.iter() {
            assert!(serial.maximal.iter().any(|s| s == members));
        }
    }
}
