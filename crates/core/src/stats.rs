//! Mining statistics and pruning-rule counters.
//!
//! The counters are used by tests (to assert that a rule actually fired), by
//! the ablation benchmark, and by the experiment harness to report workload
//! characteristics (e.g. the number of set-enumeration nodes expanded, which
//! is the machine-independent proxy for "mining workload" used when comparing
//! against the paper's shapes).

/// Counters accumulated while mining. All counters are plain `u64`s so a
/// stats object can be cheaply merged across tasks and threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MiningStats {
    /// Number of set-enumeration tree nodes expanded (calls considering some
    /// `S' = S ∪ {v}`).
    pub nodes_expanded: u64,
    /// Number of candidate sets reported to the sink (before the maximality
    /// post-processing).
    pub results_reported: u64,
    /// Vertices removed from `ext(S)` by Type-I rules (Theorems 3, 5, 7).
    pub type1_pruned: u64,
    /// Subtrees pruned by Type-II rules (Theorems 4, 6, 8 and bound failures).
    pub type2_pruned: u64,
    /// Successful lookahead shortcuts (Algorithm 2, lines 8–10).
    pub lookahead_hits: u64,
    /// Vertices moved from `ext(S)` into `S` by critical-vertex pruning.
    pub critical_moves: u64,
    /// Vertices skipped thanks to cover-vertex pruning (the tail `C_S(u)` that
    /// the extension loop never visits).
    pub cover_skipped: u64,
    /// Vertices removed by the global (k, s)-core peel (P2 applied to
    /// vertices and edges, `PruneConfig::core_of`).
    pub kcore_removed: u64,
    /// Iterations of the iterative-bounding loop (Algorithm 1 repeat rounds).
    pub bounding_rounds: u64,
    /// Number of mining tasks processed (1 for a purely serial run; one per
    /// spawned/decomposed task in the parallel engine).
    pub tasks_processed: u64,
}

impl MiningStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every counter of `other` into `self` (used when merging per-task
    /// or per-thread statistics).
    pub fn merge(&mut self, other: &MiningStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.results_reported += other.results_reported;
        self.type1_pruned += other.type1_pruned;
        self.type2_pruned += other.type2_pruned;
        self.lookahead_hits += other.lookahead_hits;
        self.critical_moves += other.critical_moves;
        self.cover_skipped += other.cover_skipped;
        self.kcore_removed += other.kcore_removed;
        self.bounding_rounds += other.bounding_rounds;
        self.tasks_processed += other.tasks_processed;
    }

    /// Total number of pruning events across all rules — a coarse measure of
    /// how much work the rules saved.
    pub fn total_pruning_events(&self) -> u64 {
        self.type1_pruned
            + self.type2_pruned
            + self.lookahead_hits
            + self.critical_moves
            + self.cover_skipped
            + self.kcore_removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_stats_are_zeroed() {
        let s = MiningStats::new();
        assert_eq!(s, MiningStats::default());
        assert_eq!(s.total_pruning_events(), 0);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = MiningStats {
            nodes_expanded: 5,
            type1_pruned: 2,
            tasks_processed: 1,
            ..Default::default()
        };
        let b = MiningStats {
            nodes_expanded: 3,
            type2_pruned: 7,
            tasks_processed: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.nodes_expanded, 8);
        assert_eq!(a.type1_pruned, 2);
        assert_eq!(a.type2_pruned, 7);
        assert_eq!(a.tasks_processed, 3);
    }

    #[test]
    fn total_pruning_events_sums_rule_counters() {
        let s = MiningStats {
            type1_pruned: 1,
            type2_pruned: 2,
            lookahead_hits: 3,
            critical_moves: 4,
            cover_skipped: 5,
            kcore_removed: 6,
            nodes_expanded: 100, // not a pruning event
            ..Default::default()
        };
        assert_eq!(s.total_pruning_events(), 21);
    }
}
