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
use qcm_graph::kcore::{ks_core, Core};
use qcm_graph::Graph;

/// Which pruning rules the miner applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PruneConfig {
    /// P1: diameter-based restriction of `ext(S)` to two-hop neighborhoods
    /// (only applied when γ ≥ 0.5).
    pub diameter: bool,
    /// P2: size-threshold (k-core) peels of the input graph and of every
    /// task, at [`PruneConfig::peel_threshold`]; the input's also drops the
    /// edges below [`PruneConfig::support_threshold`].
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

    /// The `s` of the global peel's edge rule: the fewest common neighbours
    /// two adjacent members of a valid quasi-clique of `n ≥ τ_size` vertices
    /// can have, `min_n 2⌈γ(n − 1)⌉ − n`. Each of the two has `⌈γ(n − 1)⌉ − 1`
    /// neighbours among the other `n − 2` members at least, so at least
    /// `2⌈γ(n − 1)⌉ − n` of them are shared. It is 0, no edge rule, without
    /// the size-threshold rule and at γ ≤ ½, where the bound reaches 0.
    ///
    /// The ceiling makes the bound non-monotone in `n`, but it is at least
    /// `(2γ − 1)n − 2γ`, so once that exceeds the least value seen no larger
    /// `n` can go below it: the minimum lies in `τ_size ≤ n ≤ (s + 2γ) /
    /// (2γ − 1)`, `s` the least value so far, counted exactly.
    pub fn support_threshold(&self, params: &MiningParams) -> usize {
        let (p, q) = params.gamma.as_ratio();
        if !self.size_threshold || 2 * p <= q {
            return 0;
        }
        let bound = |n: usize| (2 * params.required_degree(n)).saturating_sub(n);
        // (2γ − 1)n − 2γ ≤ s  ⇔  n ≤ (q·s + 2p) / (2p − q)
        let window = |s: usize| (q as u128 * s as u128 + 2 * p as u128) / (2 * p - q) as u128;
        let mut least = bound(params.min_size);
        let mut n = params.min_size + 1;
        while least > 0 && n as u128 <= window(least) {
            least = least.min(bound(n));
            n += 1;
        }
        least
    }

    /// The global peel of a run over `graph`, the one both miners start from:
    /// its (k, s)-core at [`PruneConfig::peel_threshold`] and
    /// [`PruneConfig::support_threshold`], with its suffix roots. The
    /// vertices peel at `k ≥ 1`: without the size-threshold rule `k` is 0,
    /// and `k = 1` drops only the isolated vertices and the roots with no
    /// larger neighbour, which head no set of τ_size ≥ 2 vertices.
    pub fn core_of(&self, graph: &Graph, params: &MiningParams) -> Core {
        let k = self.peel_threshold(params).max(1);
        ks_core(graph, k, self.support_threshold(params))
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
    use crate::params::Gamma;

    /// `support_threshold` against the minimum over `τ_size ≤ n ≤ τ_size +
    /// 500`, taken directly, on a grid of exact ratios γ and every
    /// `2 ≤ τ_size ≤ 20`.
    #[test]
    fn the_support_window_holds_the_brute_force_minimum() {
        let ratios = [
            (1, 2),
            (51, 100),
            (3, 5),
            (2, 3),
            (7, 10),
            (3, 4),
            (4, 5),
            (5, 6),
            (17, 20),
            (9, 10),
            (19, 20),
            (99, 100),
            (1, 1),
        ];
        let on = PruneConfig::all_enabled();
        for (num, den) in ratios {
            let gamma = Gamma::from_ratio(num, den);
            for min_size in 2..=20 {
                let params = MiningParams { gamma, min_size };
                let direct = (min_size..=min_size + 500)
                    .map(|n| 2 * gamma.ceil_mul(n - 1) as i64 - n as i64)
                    .min()
                    .unwrap();
                let expected = if 2 * num <= den { 0 } else { direct.max(0) };
                let case = format!("γ = {num}/{den}, τ_size = {min_size}");
                assert_eq!(on.support_threshold(&params) as i64, expected, "{case}");
            }
        }
    }

    #[test]
    fn the_support_threshold_of_the_worked_examples() {
        let on = PruneConfig::all_enabled();
        assert_eq!(on.support_threshold(&MiningParams::new(0.9, 10)), 7);
        assert_eq!(on.support_threshold(&MiningParams::new(0.8, 14)), 8);
        // At γ ≤ ½ the bound reaches 0, and without the size-threshold rule
        // there is no edge rule either.
        for gamma in [0.3, 0.5] {
            assert_eq!(on.support_threshold(&MiningParams::new(gamma, 20)), 0);
        }
        let off = on.without("size_threshold");
        assert_eq!(off.support_threshold(&MiningParams::new(0.9, 10)), 0);
        assert_eq!(off.peel_threshold(&MiningParams::new(0.9, 10)), 0);
    }

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
