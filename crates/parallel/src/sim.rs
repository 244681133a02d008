//! Deterministic fault-simulated quasi-clique mining.
//!
//! [`SimMiner`] is [`crate::ParallelMiner`] under fault injection: the same
//! [`QuasiCliqueApp`], the same per-machine engine protocol (queues, spill
//! path, message handlers) and the same maximality/validity post-processing,
//! but driven by [`qcm_engine::SimCluster`] — the seeded discrete-event
//! scheduler — instead of live worker threads. One seed plus one fault
//! scenario replays byte-identically, so crash, straggler and partition
//! behaviour is testable in CI without flaky timing.
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
use crate::runner::{finalize_results, peel_to_core};
use qcm_core::{MiningParams, PruneConfig, QuasiCliqueSet, RunOutcome};
use qcm_engine::{EngineConfig, EngineMetrics, SimCluster, SimConfig};
use qcm_graph::{Graph, IndexSpec, VertexId};
use qcm_sync::Arc;
use std::collections::HashSet;
use std::time::Duration;

/// Output of a simulated mining run.
#[derive(Clone, Debug)]
pub struct SimMiningOutput {
    /// The final maximal quasi-cliques. When the scenario did not permit
    /// completion (`outcome != Complete`) this is a *partial* result: roots
    /// whose work was lost contribute nothing, and every set in it is one the
    /// complete run reports too — a set that a lost root's superset could
    /// have removed is withheld.
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
    /// The application the engine runs: γ, τ_size, the pruning rules, τ_split
    /// and the task row policy. Every run forces its strategy to
    /// size-threshold, which reads no τ_time; see the module docs.
    pub app: QuasiCliqueApp,
    /// Engine configuration (machines, batch size, …). Thread counts are not
    /// modelled — each machine performs one scheduling step per virtual wake.
    pub engine_config: EngineConfig,
    /// Simulator configuration (seed, latency, drops, fault scenario).
    pub sim_config: SimConfig,
}

impl SimMiner {
    /// Creates a simulated miner with the paper's pruning defaults.
    pub fn new(params: MiningParams, engine_config: EngineConfig, sim_config: SimConfig) -> Self {
        SimMiner {
            app: QuasiCliqueApp::new(
                params,
                QuasiCliqueApp::DEFAULT_TAU_SPLIT,
                QuasiCliqueApp::DEFAULT_TAU_TIME,
            ),
            engine_config,
            sim_config,
        }
    }

    /// Sets the big-task threshold τ_split.
    pub fn with_tau_split(mut self, tau_split: usize) -> Self {
        self.app.tau_split = tau_split;
        self
    }

    /// Chooses the row policy of task subgraphs (default [`IndexSpec::Auto`]).
    pub fn with_index(mut self, index: IndexSpec) -> Self {
        self.app.index = index;
        self
    }

    /// Overrides the pruning configuration.
    pub fn with_prune_config(mut self, config: PruneConfig) -> Self {
        self.app.prune_config = config;
        self
    }

    /// Mines `graph` in virtual time under the configured fault scenario.
    pub fn mine(&self, graph: Arc<Graph>) -> SimMiningOutput {
        // Size-threshold splitting is the only wall-clock-free strategy; see
        // the module docs. No cancel token: the virtual horizon bounds the run.
        let app = self
            .app
            .clone()
            .with_strategy(DecompositionStrategy::SizeThreshold);
        let (params, prune) = (&self.app.params, &self.app.prune_config);
        let cluster = SimCluster::new(
            Arc::new(app),
            self.engine_config.clone(),
            self.sim_config.clone(),
        );
        let (core, vertices, peel_time) = peel_to_core(&graph, params, prune);
        let mut output = cluster.run(core.clone(), vertices);
        output.metrics.elapsed += peel_time;
        let raw_reported = output.metrics.results_emitted;
        let (mut maximal, invalid_sets_dropped) =
            finalize_results(output.results, &graph, params, None);
        // A root with no neighbour in the mined graph never spawns a task:
        // losing it loses nothing.
        output.lost_roots.retain(|&root| core.degree(root) > 0);
        retain_provably_maximal(&mut maximal, &output.lost_roots, &graph, params);
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

/// The partial-result contract of a faulted run: keeps the sets that are
/// maximal whatever the `lost` roots would have reported. A root mines exactly
/// the quasi-cliques whose smallest member it is, so the superset that would
/// remove a reported set can only be missing if a lost root is smaller than
/// all the set's members — and, for γ ≥ 1/2 (diameter ≤ 2), within two hops of
/// each of them.
fn retain_provably_maximal(
    maximal: &mut QuasiCliqueSet,
    lost: &[VertexId],
    graph: &Graph,
    params: &MiningParams,
) {
    let two_hops = params.gamma.diameter_two_applies();
    for &root in lost {
        let near = graph.neighbors(root);
        let two_away = near.iter().flat_map(|&u| graph.neighbors(u));
        let reach: HashSet<&VertexId> = two_away.chain(near).collect();
        let in_reach = |set: &[VertexId]| set.iter().all(|v| reach.contains(v));
        maximal.retain_sets(|set| set[0] < root || (two_hops && !in_reach(set)));
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
    fn only_sets_a_lost_root_cannot_extend_are_kept() {
        // A path 0–1–2–3–4: vertex 0 reaches {1, 2} within two hops.
        let path = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let ids = |raw: &[u32]| raw.iter().map(|&v| VertexId::new(v)).collect::<Vec<_>>();
        let reported = || {
            let mut set = QuasiCliqueSet::new();
            for members in [&[1, 2][..], &[2, 3], &[3, 4]] {
                set.insert(ids(members));
            }
            set
        };
        let kept = |lost: &[u32], gamma: f64| {
            let mut set = reported();
            let params = MiningParams::new(gamma, 2);
            retain_provably_maximal(&mut set, &ids(lost), &path, &params);
            set.into_sorted_vec()
        };
        assert_eq!(kept(&[], 0.8), reported().into_sorted_vec());
        // Lost root 0 could head a superset of {1, 2} only.
        assert_eq!(kept(&[0], 0.8), vec![ids(&[2, 3]), ids(&[3, 4])]);
        // A lost root never extends a set with a smaller member; its own
        // set {2, 3} and {3, 4}, which it reaches, go.
        assert_eq!(kept(&[2], 0.8), vec![ids(&[1, 2])]);
        // Below γ = 1/2 distance proves nothing: every later set goes.
        assert_eq!(kept(&[0], 0.4), Vec::<Vec<VertexId>>::new());
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
