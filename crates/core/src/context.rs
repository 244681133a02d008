//! Shared mining context.
//!
//! A [`MiningContext`] bundles everything the recursive algorithms need while
//! walking one task subgraph: the subgraph itself, the mining parameters, the
//! pruning configuration, the result sink and the statistics counters. The
//! serial miner (Algorithm 2) and an engine task's mine phase (Algorithms 8
//! and 10 in `qcm-engine`) run the same loop over this context, which is
//! what makes the "algorithm-system codesign" reuse possible.

use crate::cancel::CancelToken;
use crate::config::PruneConfig;
use crate::params::MiningParams;
use crate::path_degrees::PathDegrees;
use crate::quasiclique::is_quasi_clique_local;
use crate::recursive_mine::TwoHopRows;
use crate::results::QuasiCliqueSink;
use crate::scratch::MiningScratch;
use crate::stats::MiningStats;
use qcm_graph::LocalGraph;

/// Mutable state shared by one mining invocation over a single task subgraph.
pub struct MiningContext<'a> {
    /// The task subgraph being mined (local index space).
    pub graph: &'a LocalGraph,
    /// Mining parameters (γ, τ_size).
    pub params: MiningParams,
    /// Which pruning rules are enabled.
    pub config: PruneConfig,
    /// Where reported quasi-cliques go (global vertex ids).
    pub sink: &'a mut dyn QuasiCliqueSink,
    /// Counters updated while mining.
    pub stats: MiningStats,
    /// When true, reproduce the two result-missing omissions of the original
    /// Quick algorithm that the paper fixes (skipping the `G(S')` check when
    /// `ext(S')` becomes empty, and skipping the `G(S)` check before a
    /// critical-vertex expansion). Only the Quick baseline sets this.
    pub emulate_quick_omissions: bool,
    /// Cooperative cancellation: the recursive miners poll this at the top of
    /// their expansion loops and unwind early when it fires. Defaults to a
    /// never-firing token.
    pub cancel: CancelToken,
    /// True once a poll of `cancel` actually observed the token fired and cut
    /// the search short. Drivers use this — not a fresh token sample — to
    /// label the run, so a run that explored everything is never mislabelled
    /// as partial just because the deadline passed during post-processing.
    pub interrupted: bool,
    /// Reusable frame pool for the recursion hot path. Defaults to an empty
    /// pooled arena; drivers that process many roots/tasks move one arena
    /// from context to context (`std::mem::take`) so the frames warmed up by
    /// one task serve the next without reallocating.
    pub scratch: MiningScratch,
    /// The S-side degrees of the `S` the search last bounded, over `graph`.
    /// State of this task, not of the arena: it lives and dies with the
    /// context and is sized on first use.
    pub(crate) path: PathDegrees,
    /// The two-hop rows of `graph` built so far; per task like `path`.
    pub(crate) two_hop: TwoHopRows,
}

impl<'a> MiningContext<'a> {
    /// Creates a context with the default configuration.
    pub fn new(
        graph: &'a LocalGraph,
        params: MiningParams,
        sink: &'a mut dyn QuasiCliqueSink,
    ) -> Self {
        Self::with_config(graph, params, PruneConfig::default(), sink)
    }

    /// Creates a context with an explicit pruning configuration.
    pub fn with_config(
        graph: &'a LocalGraph,
        params: MiningParams,
        config: PruneConfig,
        sink: &'a mut dyn QuasiCliqueSink,
    ) -> Self {
        MiningContext {
            graph,
            params,
            config,
            sink,
            stats: MiningStats::new(),
            emulate_quick_omissions: false,
            cancel: CancelToken::never(),
            interrupted: false,
            scratch: MiningScratch::default(),
            path: PathDegrees::default(),
            two_hop: TwoHopRows::default(),
        }
    }

    /// True if this mining invocation should unwind early. Records the
    /// observation in [`MiningContext::interrupted`] so the driver can label
    /// the output as partial.
    #[inline]
    pub fn is_cancelled(&mut self) -> bool {
        if self.interrupted {
            return true;
        }
        if self.cancel.is_cancelled() {
            self.interrupted = true;
        }
        self.interrupted
    }

    /// Reports the candidate `s` (local indices) to the sink as global ids.
    pub fn report(&mut self, s: &[u32]) {
        let members = s.iter().map(|&v| self.graph.global_id(v)).collect();
        self.sink.report(members);
        self.stats.results_reported += 1;
    }

    /// Checks whether `G(S)` is a valid quasi-clique (size threshold + degree
    /// + connectivity) and reports it if so. Returns true if it was reported.
    ///
    /// This is the "examine G(S)" action of Algorithm 1 lines 14–16 / 23–24
    /// and Algorithm 2 lines 14–16.
    pub fn report_if_valid(&mut self, s: &[u32]) -> bool {
        if s.len() >= self.params.min_size
            && is_quasi_clique_local(self.graph, s, &self.params, &mut self.scratch)
        {
            self.report(s);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::QuasiCliqueSet;
    use qcm_graph::{Graph, VertexId};

    fn triangle_local() -> LocalGraph {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let all: Vec<VertexId> = g.vertices().collect();
        LocalGraph::from_induced(&g, &all)
    }

    #[test]
    fn report_translates_local_to_global_ids() {
        let g = Graph::from_edges(6, [(3, 4), (4, 5), (5, 3)]).unwrap();
        // Induce only on {3, 4, 5} so local ids 0..3 map to globals 3..6.
        let vs: Vec<VertexId> = [3u32, 4, 5].iter().map(|&v| VertexId::new(v)).collect();
        let lg = LocalGraph::from_induced(&g, &vs);
        let mut sink = QuasiCliqueSet::new();
        let params = MiningParams::new(0.9, 2);
        let mut ctx = MiningContext::new(&lg, params, &mut sink);
        ctx.report(&[0, 2]);
        assert_eq!(ctx.stats.results_reported, 1);
        assert!(sink.contains(&[VertexId::new(3), VertexId::new(5)]));
    }

    #[test]
    fn report_if_valid_enforces_size_and_density() {
        let lg = triangle_local();
        let mut sink = QuasiCliqueSet::new();
        let params = MiningParams::new(0.9, 3);
        let mut ctx = MiningContext::new(&lg, params, &mut sink);
        assert!(!ctx.report_if_valid(&[0, 1])); // too small
        assert!(ctx.report_if_valid(&[0, 1, 2])); // triangle passes
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn with_config_uses_supplied_rules() {
        let lg = triangle_local();
        let mut sink = QuasiCliqueSet::new();
        let params = MiningParams::new(0.9, 2);
        let ctx = MiningContext::with_config(&lg, params, PruneConfig::none(), &mut sink);
        assert_eq!(ctx.config, PruneConfig::none());
        assert!(!ctx.emulate_quick_omissions);
    }
}
