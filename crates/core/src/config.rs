//! Pruning-rule configuration.
//!
//! Every pruning family of the paper (P1–P7 plus the lookahead of Algorithm 2)
//! can be toggled independently. The default enables everything — that is the
//! paper's proposed algorithm — while the ablation benchmark
//! (`ablation_pruning_rules`) switches rules off one at a time to reproduce
//! the paper's claims about their effectiveness (e.g. the lower-bound pruning
//! that Quick's authors report speeds mining up by 192×, and the k-core
//! preprocessing the paper identifies as "a dominating factor to scale beyond
//! a small graph").

use crate::params::MiningParams;

/// Which pruning rules the miner applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PruneConfig {
    /// P1: diameter-based restriction of `ext(S)` to two-hop neighborhoods
    /// (only applied when γ ≥ 0.5).
    pub diameter: bool,
    /// P2: size-threshold (k-core) peels of the input graph and of every
    /// task, at [`PruneConfig::peel_threshold`].
    pub size_threshold: bool,
    /// P3: degree-based Type-I/Type-II pruning (Theorems 3–4).
    pub degree: bool,
    /// P4: upper-bound based pruning (Theorems 5–6 and Eq. 4).
    pub upper_bound: bool,
    /// P5: lower-bound based pruning (Theorems 7–8 and Eqs. 7–8).
    pub lower_bound: bool,
    /// P6: critical-vertex pruning (Theorem 9).
    pub critical_vertex: bool,
    /// P7: cover-vertex pruning (Eq. 9).
    pub cover_vertex: bool,
    /// The lookahead of Algorithm 2 lines 8–10 (output `S ∪ ext(S)` directly
    /// when it already is a quasi-clique).
    pub lookahead: bool,
}

impl Default for PruneConfig {
    fn default() -> Self {
        Self::all_enabled()
    }
}

impl PruneConfig {
    /// The paper's full algorithm: every rule on.
    pub const fn all_enabled() -> Self {
        PruneConfig {
            diameter: true,
            size_threshold: true,
            degree: true,
            upper_bound: true,
            lower_bound: true,
            critical_vertex: true,
            cover_vertex: true,
            lookahead: true,
        }
    }

    /// Baseline with every optional rule off (only the definition checks
    /// remain). Exponentially slower; used by tests on tiny graphs to confirm
    /// that pruning does not change the result set.
    pub const fn none() -> Self {
        PruneConfig {
            diameter: false,
            size_threshold: false,
            degree: false,
            upper_bound: false,
            lower_bound: false,
            critical_vertex: false,
            cover_vertex: false,
            lookahead: false,
        }
    }

    /// Returns a copy with the named rule disabled. Rule names match the
    /// field names; unknown names panic (they indicate a typo in a benchmark).
    pub fn without(mut self, rule: &str) -> Self {
        match rule {
            "diameter" => self.diameter = false,
            "size_threshold" => self.size_threshold = false,
            "degree" => self.degree = false,
            "upper_bound" => self.upper_bound = false,
            "lower_bound" => self.lower_bound = false,
            "critical_vertex" => self.critical_vertex = false,
            "cover_vertex" => self.cover_vertex = false,
            "lookahead" => self.lookahead = false,
            other => panic!("unknown pruning rule name: {other}"),
        }
        self
    }

    /// The `k` of every k-core peel of a run, global or per task:
    /// [`MiningParams::kcore_threshold`] under the size-threshold rule, else
    /// 0, which peels nothing.
    pub fn peel_threshold(&self, params: &MiningParams) -> usize {
        if self.size_threshold {
            params.kcore_threshold()
        } else {
            0
        }
    }

    /// Names of all toggleable rules (used by the ablation benchmark to sweep).
    pub fn rule_names() -> &'static [&'static str] {
        &[
            "diameter",
            "size_threshold",
            "degree",
            "upper_bound",
            "lower_bound",
            "critical_vertex",
            "cover_vertex",
            "lookahead",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_everything() {
        let c = PruneConfig::default();
        assert_eq!(c, PruneConfig::all_enabled());
        assert!(c.diameter && c.size_threshold && c.degree && c.upper_bound);
        assert!(c.lower_bound && c.critical_vertex && c.cover_vertex && c.lookahead);
    }

    #[test]
    fn none_disables_everything() {
        let c = PruneConfig::none();
        assert!(!c.diameter && !c.size_threshold && !c.degree && !c.upper_bound);
        assert!(!c.lower_bound && !c.critical_vertex && !c.cover_vertex && !c.lookahead);
    }

    #[test]
    fn without_disables_single_rule() {
        for &name in PruneConfig::rule_names() {
            let c = PruneConfig::all_enabled().without(name);
            assert_ne!(
                c,
                PruneConfig::all_enabled(),
                "rule {name} was not disabled"
            );
        }
        let c = PruneConfig::all_enabled().without("lower_bound");
        assert!(!c.lower_bound);
        assert!(c.upper_bound);
    }

    #[test]
    #[should_panic(expected = "unknown pruning rule")]
    fn without_rejects_typos() {
        PruneConfig::all_enabled().without("lowerbound");
    }
}
