//! Type-I and Type-II pruning rules (P3–P5 of the paper).
//!
//! * **Type I** rules prune a vertex `u` from `ext(S)` — Theorems 3 (degree),
//!   5 (upper bound) and 7 (lower bound).
//! * **Type II** rules prune the candidate `S` together with (some of) its
//!   extensions — Theorems 4 (degree), 6 (upper bound) and 8 (lower bound).
//!
//! The one subtlety the paper stresses (topic T3) is Theorem 4 Condition (i):
//! it prunes every *strict* extension of `S` but not `S` itself, so the caller
//! must still examine `G(S)` before abandoning the subtree. Every other
//! Type-II rule prunes `S` as well.

use crate::config::PruneConfig;
use crate::degrees::Degrees;
use crate::params::MiningParams;

/// Result of evaluating the Type-II rules on a candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Type2Outcome {
    /// No Type-II rule fired.
    None,
    /// Theorem 4 Condition (i) fired: strict extensions of `S` are pruned, but
    /// `G(S)` itself must still be checked as a potential result.
    PruneExtensionsKeepS,
    /// A rule covering `S' = S` fired (Theorem 4 Condition (ii), Theorem 6, or
    /// Theorem 8): `S` and all extensions are pruned.
    PruneAll,
}

/// Evaluates the Type-II rules (Theorems 4, 6, 8) over every vertex of `S`.
///
/// `us`/`ls` are the bounds computed by [`crate::bounds`] (pass `None` when
/// the corresponding rule family is disabled or the bound was not computed).
pub fn check_type2(
    params: &MiningParams,
    config: &PruneConfig,
    degrees: &Degrees,
    us: Option<usize>,
    ls: Option<usize>,
) -> Type2Outcome {
    let s_len = degrees.s_in_s.len();
    if s_len == 0 {
        return Type2Outcome::None;
    }
    let gamma = &params.gamma;
    let mut extensions_only = false;
    for i in 0..s_len {
        let ds = degrees.s_in_s[i] as usize;
        let dext = degrees.s_in_ext[i] as usize;
        if config.degree {
            // Theorem 4 Condition (ii): d_S(v) + d_ext(v) < ⌈γ(|S| − 1 + d_ext(v))⌉
            // prunes S and every extension.
            if ds + dext < gamma.ceil_mul(s_len - 1 + dext) {
                return Type2Outcome::PruneAll;
            }
            // Theorem 4 Condition (i): d_S(v) < ⌈γ·|S|⌉ while v has no more
            // extension neighbors to gain — strict extensions cannot fix v's
            // degree, but S itself may still be a quasi-clique.
            if dext == 0 && ds < gamma.ceil_mul(s_len) {
                extensions_only = true;
            }
        }
        if config.upper_bound {
            if let Some(us) = us {
                // Theorem 6: d_S(v) + U_S < ⌈γ(|S| + U_S − 1)⌉.
                if ds + us < gamma.ceil_mul(s_len + us - 1) {
                    return Type2Outcome::PruneAll;
                }
            }
        }
        if config.lower_bound {
            if let Some(ls) = ls {
                // Theorem 8: d_S(v) + d_ext(v) < ⌈γ(|S| + L_S − 1)⌉.
                if ds + dext < gamma.ceil_mul(s_len + ls - 1) {
                    return Type2Outcome::PruneAll;
                }
            }
        }
    }
    if extensions_only {
        Type2Outcome::PruneExtensionsKeepS
    } else {
        Type2Outcome::None
    }
}

/// The Type-I rules (Theorems 3, 5, 7) of one bounding round: everything
/// that does not depend on the extension vertex is evaluated once, when the
/// round builds the value, and [`Type1Rule::prunes`] tests a vertex with no
/// branch and no division.
///
/// * Theorem 5, `d_S(u) + U_S − 1 < ⌈γ(|S| + U_S − 1)⌉`, is
///   `d_S(u) < ⌈γ(|S| + U_S − 1)⌉ − U_S + 1`.
/// * Theorem 7, `d_S(u) + d_ext(u) < ⌈γ(|S| + L_S − 1)⌉`, has a right-hand
///   side that is constant for the round.
/// * Theorem 3, `d_S(u) + d_ext(u) < ⌈γ(|S| + d_ext(u))⌉`, stays per vertex.
///   An integer is below `⌈x⌉` exactly when it is below `x`, so the test is
///   `den·(d_S(u) + d_ext(u)) < num·(|S| + d_ext(u))` for `γ = num/den`.
///
/// A disabled family, or a bound that was not computed, has a cut of 0,
/// which prunes nothing.
#[derive(Debug)]
pub(crate) struct Type1Rule {
    /// Theorem 3 is enabled.
    degree: bool,
    /// `γ = num/den`.
    num: u128,
    den: u128,
    /// `num·|S|`.
    num_s: u128,
    /// Theorem 5 prunes `d_S(u)` below this.
    upper_cut: u64,
    /// Theorem 7 prunes `d_S(u) + d_ext(u)` below this.
    lower_cut: u64,
}

impl Type1Rule {
    /// The rules of a round on a candidate with `|S| = s_len` and the bounds
    /// `us`/`ls` of [`crate::bounds`] (`None` when disabled or not computed).
    pub(crate) fn new(
        params: &MiningParams,
        config: &PruneConfig,
        s_len: usize,
        us: Option<usize>,
        ls: Option<usize>,
    ) -> Self {
        let gamma = &params.gamma;
        let (num, den) = gamma.as_ratio();
        let upper_cut = match us {
            Some(us) if config.upper_bound => {
                (gamma.ceil_mul((s_len + us).saturating_sub(1)) + 1).saturating_sub(us)
            }
            _ => 0,
        };
        let lower_cut = match ls {
            Some(ls) if config.lower_bound => gamma.ceil_mul((s_len + ls).saturating_sub(1)),
            _ => 0,
        };
        Type1Rule {
            degree: config.degree,
            num: num.into(),
            den: den.into(),
            num_s: u128::from(num) * s_len as u128,
            upper_cut: upper_cut as u64,
            lower_cut: lower_cut as u64,
        }
    }

    /// The SE-degree from which [`Type1Rule::prunes`] reads its EE-degree
    /// argument. Below it Theorem 5 prunes the vertex, whatever `d_ext` is.
    #[inline]
    pub(crate) fn ee_from(&self) -> u32 {
        u32::try_from(self.upper_cut).unwrap_or(u32::MAX)
    }

    /// True if the extension vertex with SE-degree `d_s` and EE-degree
    /// `d_ext` can be pruned from `ext(S)`.
    #[inline]
    pub(crate) fn prunes(&self, d_s: u32, d_ext: u32) -> bool {
        let (d_s, d_ext) = (u64::from(d_s), u64::from(d_ext));
        let total = d_s + d_ext;
        let theorem3 = self.den * u128::from(total) < self.num_s + self.num * u128::from(d_ext);
        (self.degree & theorem3) | (d_s < self.upper_cut) | (total < self.lower_cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrees::compute_degrees;
    use crate::params::Gamma;
    use qcm_gen::datasets::figure4_local;

    fn all_rules() -> PruneConfig {
        PruneConfig::all_enabled()
    }

    #[test]
    fn theorem4_condition_ii_prunes_everything() {
        let g = figure4_local();
        // S = {f, i}: f and i are not adjacent and share no candidate help
        // (ext empty). With γ = 0.9: d_S + d_ext = 0 < ⌈0.9·(1 + 0)⌉ = 1.
        let params = MiningParams::new(0.9, 2);
        let (deg, _) = compute_degrees(&g, &[5, 8], &[]);
        assert_eq!(
            check_type2(&params, &all_rules(), &deg, None, None),
            Type2Outcome::PruneAll
        );
    }

    #[test]
    fn theorem4_condition_i_keeps_s_itself() {
        // S = {a, b, c, e} in Figure 4 with γ = 0.9 and ext = {}: every member
        // has d_S ≥ 2 but needs ⌈0.9·3⌉ = 3... b has d_S = 3 (a, c, e),
        // a has 3, c has 3, e has 3 → actually a valid quasi-clique.
        // Use S = {a, b, d} instead: b–d is not an edge. d_S(b) = 1,
        // d_ext(b) = 0. Condition (ii): 1 < ⌈0.9·2⌉ = 2 → PruneAll.
        // To hit Condition (i) without (ii) we need d_S(v) ≥ ⌈γ(|S|−1)⌉ but
        // d_S(v) < ⌈γ|S|⌉ and d_ext(v) = 0: take S = {a, b, c, e} with
        // γ = 0.95: required-in-S is ⌈0.95·3⌉ = 3 (satisfied, all have 3) but
        // ⌈0.95·4⌉ = 4 > 3, so extensions are pruned while S itself survives.
        let g = figure4_local();
        let params = MiningParams::new(0.95, 2);
        let (deg, _) = compute_degrees(&g, &[0, 1, 2, 4], &[]);
        assert_eq!(
            check_type2(&params, &all_rules(), &deg, None, None),
            Type2Outcome::PruneExtensionsKeepS
        );
    }

    #[test]
    fn healthy_candidate_is_not_type2_pruned() {
        let g = figure4_local();
        // S = {a, b} with ext = {c, d, e} and γ = 0.6 is perfectly viable.
        let params = MiningParams::new(0.6, 2);
        let (deg, _) = compute_degrees(&g, &[0, 1], &[2, 3, 4]);
        assert_eq!(
            check_type2(&params, &all_rules(), &deg, Some(3), Some(0)),
            Type2Outcome::None
        );
    }

    #[test]
    fn theorem6_upper_bound_rule_fires() {
        let g = figure4_local();
        // S = {b, d} (non-adjacent), ext = {a, c, e}. With γ = 0.9 and a small
        // U_S, b and d can never reach the required degree.
        let params = MiningParams::new(0.9, 2);
        let (deg, _) = compute_degrees(&g, &[1, 3], &[0, 2, 4]);
        // With U_S = 1: d_S(b) + 1 = 1 < ⌈0.9·2⌉ = 2 → PruneAll.
        assert_eq!(
            check_type2(&params, &all_rules(), &deg, Some(1), None),
            Type2Outcome::PruneAll
        );
    }

    #[test]
    fn theorem8_lower_bound_rule_fires() {
        let g = figure4_local();
        // S = {f, g} (an edge) with ext = {} won't trigger Thm 4(ii) for
        // γ = 0.5 (1 ≥ ⌈0.5·1⌉ = 1), but if a lower bound L_S = 3 is imposed
        // the needed degree ⌈0.5·4⌉ = 2 exceeds d_S + d_ext = 1.
        let params = MiningParams::new(0.5, 2);
        let (deg, _) = compute_degrees(&g, &[5, 6], &[]);
        assert_eq!(
            check_type2(&params, &all_rules(), &deg, None, Some(3)),
            Type2Outcome::PruneAll
        );
        // Without the lower bound the candidate survives.
        assert_eq!(
            check_type2(&params, &all_rules(), &deg, None, None),
            Type2Outcome::None
        );
    }

    #[test]
    fn disabled_rules_do_not_fire() {
        let g = figure4_local();
        let params = MiningParams::new(0.9, 2);
        let (deg, _) = compute_degrees(&g, &[5, 8], &[]);
        let config = PruneConfig::none();
        assert_eq!(
            check_type2(&params, &config, &deg, Some(1), Some(5)),
            Type2Outcome::None
        );
        assert!(!Type1Rule::new(&params, &config, 2, Some(1), Some(5)).prunes(0, 0));
    }

    #[test]
    fn theorem3_type1_degree_pruning() {
        // |S| = 3, γ = 0.9: a candidate u with d_S(u) = 1 and d_ext(u) = 2
        // has 3 < ⌈0.9·5⌉ = 5 → prunable.
        let params = MiningParams::new(0.9, 2);
        let rule = Type1Rule::new(&params, &all_rules(), 3, None, None);
        assert!(rule.prunes(1, 2));
        // A fully connected u is not prunable: d_S = 3, d_ext = 2 → 5 ≥ 5.
        assert!(!rule.prunes(3, 2));
    }

    #[test]
    fn theorem5_and_7_type1_rules() {
        let params = MiningParams::new(0.8, 2);
        // Theorem 5 with |S| = 4, U_S = 2: u needs d_S(u) + 1 ≥ ⌈0.8·5⌉ = 4,
        // so d_S(u) = 2 is prunable even if its EE-degree is huge.
        let upper = Type1Rule::new(&params, &all_rules(), 4, Some(2), None);
        assert!(upper.prunes(2, 10));
        assert!(!upper.prunes(4, 10));
        // Theorem 7 with L_S = 4: u needs d_S + d_ext ≥ ⌈0.8·7⌉ = 6.
        let lower = Type1Rule::new(&params, &all_rules(), 4, None, Some(4));
        assert!(lower.prunes(3, 2));
        assert!(!lower.prunes(3, 3));
    }

    /// Every γ, `|S|`, `d_S`, `d_ext`, `U_S`, `L_S` and rule family of the
    /// grid: the round's rule value prunes a vertex exactly when one of the
    /// enabled theorems, as the paper states them, does. A bound of 0 makes
    /// Theorem 5's left-hand side `d_S(u) − 1`, so the statements are
    /// evaluated over the signed integers.
    #[test]
    fn the_round_rule_prunes_exactly_what_theorems_3_5_and_7_prune() {
        const MAX_S: usize = 20;
        const EXT: usize = 30;
        const BOUND: usize = 25;
        let gammas = [
            Gamma::new(0.5),
            Gamma::new(0.6),
            Gamma::from_ratio(2, 3),
            Gamma::new(0.9),
            Gamma::new(1.0),
        ];
        let bounds: Vec<Option<usize>> =
            std::iter::once(None).chain((0..BOUND).map(Some)).collect();
        let mut checked = 0u64;
        for gamma in gammas {
            let params = MiningParams { gamma, min_size: 2 };
            for s_len in 1..=MAX_S {
                // ⌈γ·x⌉ for every x the three statements use at this |S|.
                let ceil: Vec<i64> = (0..s_len + EXT + BOUND)
                    .map(|x| gamma.ceil_mul(x) as i64)
                    .collect();
                let s = s_len as i64;
                for family in 0..8u8 {
                    let mut config = PruneConfig::none();
                    config.degree = family & 1 != 0;
                    config.upper_bound = family & 2 != 0;
                    config.lower_bound = family & 4 != 0;
                    for &us in &bounds {
                        for &ls in &bounds {
                            let rule = Type1Rule::new(&params, &config, s_len, us, ls);
                            for d_s in 0..=s {
                                // Theorem 5: d_S(u) + U_S − 1 < ⌈γ(|S| + U_S − 1)⌉.
                                let theorem5 = config.upper_bound
                                    && us.is_some_and(|u| d_s + u as i64 - 1 < ceil[s_len + u - 1]);
                                for d_ext in 0..EXT as i64 {
                                    let total = d_s + d_ext;
                                    // Theorem 3: d_S(u) + d_ext(u) < ⌈γ(|S| + d_ext(u))⌉.
                                    let theorem3 =
                                        config.degree && total < ceil[s_len + d_ext as usize];
                                    // Theorem 7: d_S(u) + d_ext(u) < ⌈γ(|S| + L_S − 1)⌉.
                                    let theorem7 = config.lower_bound
                                        && ls.is_some_and(|l| total < ceil[s_len + l - 1]);
                                    // Below `ee_from` the EE-degree is never read.
                                    assert!(
                                        (d_s as u32) >= rule.ee_from()
                                            || rule.prunes(d_s as u32, d_ext as u32)
                                    );
                                    assert_eq!(
                                        rule.prunes(d_s as u32, d_ext as u32),
                                        theorem3 || theorem5 || theorem7,
                                        "γ = {gamma}, {config:?}, |S| = {s_len}, U_S = {us:?}, \
                                         L_S = {ls:?}, d_S = {d_s}, d_ext = {d_ext}"
                                    );
                                    checked += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        let per_family = (1..=MAX_S as u64).map(|s| s + 1).sum::<u64>() * EXT as u64;
        assert_eq!(checked, 5 * 8 * per_family * (BOUND as u64 + 1).pow(2));
    }

    #[test]
    fn empty_s_is_never_type2_pruned() {
        let g = figure4_local();
        let params = MiningParams::new(0.9, 2);
        let (deg, _) = compute_degrees(&g, &[], &[0, 1]);
        assert_eq!(
            check_type2(&params, &all_rules(), &deg, None, None),
            Type2Outcome::None
        );
    }
}
