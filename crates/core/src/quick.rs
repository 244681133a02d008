//! Quick-style baseline miner.
//!
//! The paper's Section 1/4 identifies two weaknesses of the state-of-the-art
//! Quick algorithm [Liu & Wong, 2008] that the proposed algorithm fixes:
//!
//! 1. Quick does **not** apply the size-threshold (k-core) preprocessing of
//!    Theorem 2, which the paper finds to be "a dominating factor to scale
//!    beyond a small graph" (topic T1);
//! 2. Quick can **miss results**: it does not examine `G(S')` when the
//!    diameter shrink empties `ext(S')` (Algorithm 2 lines 13–16), and it does
//!    not examine `G(S)` before a critical-vertex expansion (topic T5).
//!
//! This module provides that baseline so the benchmarks can reproduce both the
//! performance gap and the missed-result behaviour. It deliberately reuses the
//! same code paths with the omissions toggled on, so any difference observed
//! is attributable to exactly those two design decisions.

use crate::config::PruneConfig;
use crate::params::MiningParams;
use crate::serial::{MiningOutput, SerialMiner};
use qcm_graph::Graph;

/// Mines with the Quick-style baseline: no k-core preprocessing and with
/// Quick's result-missing omissions enabled.
pub fn quick_mine(graph: &Graph, params: MiningParams) -> MiningOutput {
    SerialMiner::with_config(params, PruneConfig::all_enabled().without("size_threshold"))
        .emulating_quick_omissions(true)
        .mine(graph)
}

/// Mines with Quick's pruning behaviour but *with* the k-core preprocessing —
/// useful for isolating how much of the improvement comes from Theorem 2
/// alone (the paper's T1 discussion).
pub fn quick_mine_with_kcore(graph: &Graph, params: MiningParams) -> MiningOutput {
    SerialMiner::new(params)
        .emulating_quick_omissions(true)
        .mine(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialMiner;
    use qcm_gen::datasets::figure4;

    #[test]
    fn quick_never_reports_results_the_fixed_algorithm_lacks() {
        let g = figure4();
        for (gamma, min_size) in [(0.6, 4), (0.9, 4), (0.8, 3)] {
            let params = MiningParams::new(gamma, min_size);
            let fixed = SerialMiner::new(params).mine(&g);
            let quick = quick_mine(&g, params);
            for r in quick.maximal.iter() {
                assert!(
                    fixed.maximal.contains(r),
                    "quick reported {r:?} missing from the fixed algorithm (γ={gamma})"
                );
            }
            assert!(quick.maximal.len() <= fixed.maximal.len());
        }
    }

    #[test]
    fn quick_skips_kcore_preprocessing() {
        let g = figure4();
        let params = MiningParams::new(0.9, 4);
        let quick = quick_mine(&g, params);
        assert_eq!(quick.kcore_vertices, g.num_vertices());
        assert_eq!(quick.stats.kcore_removed, 0);
        let with_kcore = quick_mine_with_kcore(&g, params);
        assert!(with_kcore.kcore_vertices < g.num_vertices());
    }

    #[test]
    fn quick_explores_at_least_as_many_nodes_without_kcore() {
        // Without the k-core shrink Quick spawns roots from peeled-away
        // vertices too, so its search is never smaller.
        let g = figure4();
        let params = MiningParams::new(0.9, 4);
        let quick = quick_mine(&g, params);
        let fixed = SerialMiner::new(params).mine(&g);
        assert!(quick.stats.nodes_expanded >= fixed.stats.nodes_expanded);
    }
}
