//! The serial mining driver.
//!
//! [`SerialMiner`] is the single-threaded reference implementation of the
//! paper's algorithm: peel the input graph to its k-core (P2 / topic T1) and
//! list its suffix roots, the vertices `v` that lie in the k-core of the
//! vertices `≥ v`, without which `v` can head no result — the peel and the
//! root list the parallel miner hands its engine. For every root it builds
//! the task subgraph `t.g` with the [`TaskAssembly`] the engine's tasks run
//! too, fed synchronously from the core, which is copied once per run with
//! its own numbering as the index, and runs the recursive miner
//! (Algorithm 2) on `S = {v}`, `ext(S) = V(t.g) − v` in that subgraph's own
//! compact index space, where every vertex has a bit row. Roots whose task
//! cannot hold a result — the root fell, or fewer than τ_size vertices are
//! left — are skipped. Finally the non-maximal results are removed. The
//! parallel miner in `qcm-engine` mines the same task subgraphs and produces
//! exactly the same result set; tests assert that equivalence.

use qcm_obs::clock::Instant;
use std::time::Duration;

use crate::cancel::{CancelToken, RunOutcome};
use crate::config::PruneConfig;
use crate::context::MiningContext;
use crate::maximality::remove_non_maximal;
use crate::params::MiningParams;
use crate::recursive_mine::{recursive_mine, NoHandOff};
use crate::results::{QuasiCliqueSet, QuasiCliqueSink};
use crate::root_task::{CoreNumbering, TaskAssembly};
use crate::scratch::MiningScratch;
use crate::stats::MiningStats;
use qcm_graph::kcore::k_core_with_roots;
use qcm_graph::neighborhoods::perf;
use qcm_graph::{Graph, IndexSpec, LocalGraph, VertexId};
use qcm_sync::Arc;

/// Everything a mining run produces.
#[derive(Clone, Debug)]
pub struct MiningOutput {
    /// The final, maximal quasi-cliques (global vertex ids of the input graph).
    pub maximal: QuasiCliqueSet,
    /// Number of raw (possibly non-maximal, possibly duplicate) reports before
    /// post-processing.
    pub raw_reported: u64,
    /// Aggregated pruning/search statistics.
    pub stats: MiningStats,
    /// Wall-clock time of the mining phase (excludes graph loading).
    pub elapsed: Duration,
    /// Number of vertices in the k-core at [`PruneConfig::peel_threshold`]
    /// (the input size when the size-threshold rule is disabled).
    pub kcore_vertices: usize,
    /// Whether the run completed or was interrupted (cancellation/deadline).
    /// An interrupted run's `maximal` holds the valid quasi-cliques found
    /// before the interruption; some may be non-maximal in the full graph (a
    /// completed run could replace them with supersets).
    pub outcome: RunOutcome,
}

/// Single-threaded maximal quasi-clique miner.
#[derive(Clone, Debug)]
pub struct SerialMiner {
    params: MiningParams,
    config: PruneConfig,
    emulate_quick_omissions: bool,
    cancel: CancelToken,
}

impl SerialMiner {
    /// Creates a miner with the default (fully enabled) pruning configuration.
    pub fn new(params: MiningParams) -> Self {
        Self::with_config(params, PruneConfig::default())
    }

    /// Creates a miner with an explicit pruning configuration (used by the
    /// ablation benchmarks).
    pub fn with_config(params: MiningParams, config: PruneConfig) -> Self {
        SerialMiner {
            params,
            config,
            emulate_quick_omissions: false,
            cancel: CancelToken::never(),
        }
    }

    /// Enables emulation of the original Quick algorithm's result-missing
    /// omissions (used only by the Quick baseline).
    pub fn emulating_quick_omissions(mut self, enabled: bool) -> Self {
        self.emulate_quick_omissions = enabled;
        self
    }

    /// Attaches a cancellation token. The miner polls it between roots and at
    /// every expansion step; when it fires the run stops and the output is
    /// labelled with the firing reason.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The mining parameters this miner was built with.
    pub fn params(&self) -> &MiningParams {
        &self.params
    }

    /// Mines all maximal γ-quasi-cliques of `graph` with at least τ_size
    /// vertices.
    pub fn mine(&self, graph: &Graph) -> MiningOutput {
        self.mine_impl(graph, None)
    }

    /// Like [`SerialMiner::mine`], but additionally forwards every raw
    /// candidate report to `observer` live, as the search finds it. This is
    /// the streaming seam `qcm::Session::run_streaming` builds on.
    pub fn mine_with_observer(
        &self,
        graph: &Graph,
        observer: &mut dyn QuasiCliqueSink,
    ) -> MiningOutput {
        self.mine_impl(graph, Some(observer))
    }

    fn mine_impl(
        &self,
        graph: &Graph,
        mut observer: Option<&mut dyn QuasiCliqueSink>,
    ) -> MiningOutput {
        let start = Instant::now();
        let mut stats = MiningStats::new();

        // (T1) Size-threshold preprocessing: the k-core and its suffix roots.
        // The roots are listed at `k ≥ 1`, as the parallel miner lists them:
        // without the rule `k` is 0, and `k = 1` drops only the roots with no
        // larger neighbour, which head no set of τ_size ≥ 2 vertices. The
        // count stays the k-core's at `k`.
        let k = self.config.peel_threshold(&self.params);
        let (core, roots) = k_core_with_roots(graph, k.max(1));
        let kcore_vertices = if k == 0 {
            graph.num_vertices()
        } else {
            core.len()
        };
        stats.kcore_removed += (graph.num_vertices() - kcore_vertices) as u64;

        let mut sink = QuasiCliqueSet::new();
        let mut interrupted = false;
        // The core indexed by its numbering: the lists every task is fed.
        let lists = LocalGraph::from_induced(graph, &core);
        let mut tasks = TaskAssembly::new(
            self.params,
            &self.config,
            Arc::new(CoreNumbering::new(core)),
        );
        // One scratch arena for the whole run: the frames warmed up by the
        // first roots serve every later root without reallocating.
        let mut scratch = MiningScratch::default();
        let mut ext: Vec<u32> = Vec::new();
        for &v in &roots {
            if self.cancel.is_cancelled() {
                interrupted = true;
                break;
            }
            // One mine_phase span per root vertex, task build included.
            let _phase = qcm_obs::span_with(qcm_obs::SpanKind::MinePhase, v.raw() as u64);
            let task = tasks.build(&lists, v);
            let Some(mut task) = task.filter(|t| t.capacity() >= self.params.min_size) else {
                continue;
            };
            task.build_hub_index(IndexSpec::Auto);
            let mut tee = TeeSink {
                set: &mut sink,
                observer: observer.as_deref_mut(),
            };
            let mut ctx = MiningContext::with_config(&task, self.params, self.config, &mut tee);
            ctx.emulate_quick_omissions = self.emulate_quick_omissions;
            ctx.cancel = self.cancel.clone();
            ctx.scratch = std::mem::take(&mut scratch);
            ctx.stats.tasks_processed += 1;
            // S = {v} (local 0), ext(S) = V(t.g) − v.
            ext.clear();
            ext.extend(1..task.capacity() as u32);
            recursive_mine(&mut ctx, &[0], &mut ext, &mut NoHandOff);
            scratch = std::mem::take(&mut ctx.scratch);
            stats.merge(&ctx.stats);
            interrupted |= ctx.interrupted;
            // Publish this root's kernel counters.
            perf::flush();
        }

        let raw_reported = stats.results_reported;
        let maximal = remove_non_maximal(sink);
        MiningOutput {
            maximal,
            raw_reported,
            stats,
            elapsed: start.elapsed(),
            kcore_vertices,
            // Label from what the search actually observed: a run that
            // explored everything stays Complete even if the deadline happens
            // to pass during post-processing. (A token never un-fires, so an
            // observed interruption always yields a non-Complete outcome
            // here.)
            outcome: if interrupted {
                self.cancel.run_outcome()
            } else {
                RunOutcome::Complete
            },
        }
    }
}

/// Feeds every raw report into the canonical result set and, when present, an
/// external observer.
struct TeeSink<'a, 'b> {
    set: &'a mut QuasiCliqueSet,
    observer: Option<&'a mut (dyn QuasiCliqueSink + 'b)>,
}

impl QuasiCliqueSink for TeeSink<'_, '_> {
    fn report(&mut self, members: Vec<VertexId>) {
        if let Some(observer) = self.observer.as_deref_mut() {
            observer.report(members.clone());
        }
        self.set.insert(members);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use qcm_gen::datasets::figure4;

    #[test]
    fn serial_miner_matches_oracle_on_figure4() {
        let g = figure4();
        for (gamma, min_size) in [(0.6, 5), (0.9, 4), (0.7, 3), (0.5, 4), (1.0, 3)] {
            let params = MiningParams::new(gamma, min_size);
            let mined = SerialMiner::new(params).mine(&g);
            let oracle = naive::maximal_quasi_cliques(&g, &params);
            assert_eq!(
                mined.maximal, oracle,
                "mismatch at gamma={gamma}, min_size={min_size}"
            );
        }
    }

    #[test]
    fn kcore_preprocessing_shrinks_the_graph() {
        let g = figure4();
        // γ = 0.9, τ_size = 4 → k = 3; the periphery (f, g, h, i) is peeled.
        let params = MiningParams::new(0.9, 4);
        let out = SerialMiner::new(params).mine(&g);
        assert_eq!(out.kcore_vertices, 5);
        assert_eq!(out.stats.kcore_removed, 4);
        assert!(out.raw_reported >= out.maximal.len() as u64);
    }

    #[test]
    fn disabling_size_threshold_keeps_all_vertices() {
        // Figure 4 and an isolated vertex 9, which the root list (at k = 1)
        // leaves out and the 0-core keeps.
        let edges = figure4()
            .edges()
            .map(|(a, b)| (a.raw(), b.raw()))
            .collect::<Vec<_>>();
        let g = Graph::from_edges(10, edges).unwrap();
        let params = MiningParams::new(0.9, 4);
        let miner =
            SerialMiner::with_config(params, PruneConfig::all_enabled().without("size_threshold"));
        let out = miner.mine(&g);
        assert_eq!(out.kcore_vertices, 10);
        assert_eq!(out.stats.kcore_removed, 0);
        // Result set unchanged.
        let default_out = SerialMiner::new(params).mine(&g);
        assert_eq!(out.maximal, default_out.maximal);
    }

    #[test]
    fn no_results_when_thresholds_are_too_strict() {
        let g = figure4();
        let params = MiningParams::new(0.95, 6);
        let out = SerialMiner::new(params).mine(&g);
        assert!(out.maximal.is_empty());
        assert_eq!(out.elapsed.as_secs(), 0);
    }

    #[test]
    fn quick_emulation_is_a_subset_of_the_fixed_algorithm() {
        let g = figure4();
        let params = MiningParams::new(0.9, 4);
        let fixed = SerialMiner::new(params).mine(&g);
        let quick = SerialMiner::new(params)
            .emulating_quick_omissions(true)
            .mine(&g);
        for r in quick.maximal.iter() {
            assert!(fixed.maximal.contains(r));
        }
    }

    #[test]
    fn pre_cancelled_token_yields_empty_partial_output() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let token = CancelToken::new();
        token.cancel();
        let out = SerialMiner::new(params).with_cancel(token).mine(&g);
        assert_eq!(out.outcome, RunOutcome::Cancelled);
        assert!(out.maximal.is_empty());
        assert_eq!(out.stats.nodes_expanded, 0);
    }

    #[test]
    fn zero_deadline_is_labelled_deadline_exceeded() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let token = CancelToken::never().with_deadline(Some(Duration::ZERO));
        let out = SerialMiner::new(params).with_cancel(token).mine(&g);
        assert_eq!(out.outcome, RunOutcome::DeadlineExceeded);
        // A zero deadline deterministically explores nothing, so the partial
        // set is empty here. (In general an interrupted run may report sets a
        // complete run would have replaced with supersets.)
        assert!(out.maximal.is_empty());
        let full = SerialMiner::new(params).mine(&g);
        assert_eq!(full.outcome, RunOutcome::Complete);
    }

    #[test]
    fn fired_token_never_observed_by_the_search_stays_complete() {
        // γ = 0.95, τ_size = 6 → k = 5 peels the whole Figure 4 graph, so the
        // mining loop never runs and never observes the (already fired)
        // deadline token. The exploration is trivially exhaustive, so the
        // outcome must stay Complete — the label reflects what the search
        // observed, not the token's state at report-assembly time.
        let g = figure4();
        let params = MiningParams::new(0.95, 6);
        let token = CancelToken::never().with_deadline(Some(Duration::ZERO));
        let out = SerialMiner::new(params).with_cancel(token).mine(&g);
        assert_eq!(out.kcore_vertices, 0);
        assert_eq!(out.outcome, RunOutcome::Complete);
    }

    #[test]
    fn observer_sees_every_raw_report_live() {
        let g = figure4();
        let params = MiningParams::new(0.9, 4);
        let mut observed: Vec<Vec<VertexId>> = Vec::new();
        let out = SerialMiner::new(params).mine_with_observer(&g, &mut observed);
        assert_eq!(observed.len() as u64, out.raw_reported);
        assert!(out.raw_reported >= out.maximal.len() as u64);
        // Every maximal result was seen by the observer as a candidate.
        for r in out.maximal.iter() {
            assert!(observed.iter().any(|c| c == r));
        }
    }

    #[test]
    fn stats_accumulate_across_spawned_roots() {
        let g = figure4();
        let params = MiningParams::new(0.6, 4);
        let out = SerialMiner::new(params).mine(&g);
        assert!(out.stats.tasks_processed >= 1);
        assert!(out.stats.nodes_expanded > 0);
    }
}
