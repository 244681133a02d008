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

/// Evaluates the Type-I rules (Theorems 3, 5, 7) for a single extension vertex
/// with SE-degree `d_s_u` and EE-degree `d_ext_u`. Returns true if the vertex
/// can be pruned from `ext(S)`.
pub fn type1_prunable(
    params: &MiningParams,
    config: &PruneConfig,
    s_len: usize,
    d_s_u: usize,
    d_ext_u: usize,
    us: Option<usize>,
    ls: Option<usize>,
) -> bool {
    let gamma = &params.gamma;
    if config.degree {
        // Theorem 3: d_S(u) + d_ext(u) < ⌈γ(|S| + d_ext(u))⌉.
        if d_s_u + d_ext_u < gamma.ceil_mul(s_len + d_ext_u) {
            return true;
        }
    }
    if config.upper_bound {
        if let Some(us) = us {
            // Theorem 5: d_S(u) + U_S − 1 < ⌈γ(|S| + U_S − 1)⌉.
            if d_s_u + us - 1 < gamma.ceil_mul(s_len + us - 1) {
                return true;
            }
        }
    }
    if config.lower_bound {
        if let Some(ls) = ls {
            // Theorem 7: d_S(u) + d_ext(u) < ⌈γ(|S| + L_S − 1)⌉.
            if d_s_u + d_ext_u < gamma.ceil_mul(s_len + ls - 1) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrees::compute_degrees;
    use qcm_graph::{Graph, LocalGraph, VertexId};

    fn figure4_local() -> LocalGraph {
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
        let g = Graph::from_edges(9, edges.iter().copied()).unwrap();
        let all: Vec<VertexId> = g.vertices().collect();
        LocalGraph::from_induced(&g, &all)
    }

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
        assert!(!type1_prunable(&params, &config, 2, 0, 0, Some(1), Some(5)));
    }

    #[test]
    fn theorem3_type1_degree_pruning() {
        // |S| = 3, γ = 0.9: a candidate u with d_S(u) = 1 and d_ext(u) = 2
        // has 3 < ⌈0.9·5⌉ = 5 → prunable.
        let params = MiningParams::new(0.9, 2);
        assert!(type1_prunable(&params, &all_rules(), 3, 1, 2, None, None));
        // A fully connected u is not prunable: d_S = 3, d_ext = 2 → 5 ≥ 5.
        assert!(!type1_prunable(&params, &all_rules(), 3, 3, 2, None, None));
    }

    #[test]
    fn theorem5_and_7_type1_rules() {
        let params = MiningParams::new(0.8, 2);
        // Theorem 5 with |S| = 4, U_S = 2: u needs d_S(u) + 1 ≥ ⌈0.8·5⌉ = 4,
        // so d_S(u) = 2 is prunable even if its EE-degree is huge.
        assert!(type1_prunable(
            &params,
            &all_rules(),
            4,
            2,
            10,
            Some(2),
            None
        ));
        assert!(!type1_prunable(
            &params,
            &all_rules(),
            4,
            4,
            10,
            Some(2),
            None
        ));
        // Theorem 7 with L_S = 4: u needs d_S + d_ext ≥ ⌈0.8·7⌉ = 6.
        assert!(type1_prunable(
            &params,
            &all_rules(),
            4,
            3,
            2,
            None,
            Some(4)
        ));
        assert!(!type1_prunable(
            &params,
            &all_rules(),
            4,
            3,
            3,
            None,
            Some(4)
        ));
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
