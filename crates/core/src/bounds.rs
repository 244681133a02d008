//! Upper and lower bounds on the number of extension vertices (P4, P5).
//!
//! Given a candidate `⟨S, ext(S)⟩`, the paper derives:
//!
//! * an **upper bound** `U_S` on how many vertices of `ext(S)` can be added to
//!   `S` simultaneously while still possibly forming a γ-quasi-clique
//!   (Eqs. 1–4, Figure 6), and
//! * a **lower bound** `L_S` on how many vertices *must* be added before every
//!   member of `S` can reach the required degree (Eqs. 6–8, Figure 7).
//!
//! Both bounds are tightened with Lemma 2, which compares the total degree
//! mass available from the top-`t` extension vertices against the mass a
//! γ-quasi-clique of size `|S| + t` would need. Failure to find a feasible
//! `t` is itself a pruning signal (Type II).

use crate::degrees::Degrees;
use crate::params::MiningParams;

/// Outcome of the upper-bound computation (Eq. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpperBound {
    /// No feasible `t ∈ [1, U_min]` exists: every *strict* extension of `S` is
    /// pruned. `G(S)` itself remains a candidate and must still be examined
    /// (paper, discussion below Eq. 4).
    ExtensionsPruned,
    /// The tightened bound `U_S ≥ 1`.
    Bound(usize),
}

/// Outcome of the lower-bound computation (Eqs. 7–8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LowerBound {
    /// No feasible `t` exists: `S` *and* all its extensions are pruned
    /// (paper, discussion below Eqs. 7 and 8 — note this prunes `S` itself,
    /// unlike the upper-bound failure).
    AllPruned,
    /// The tightened bound `L_S ≥ 0`.
    Bound(usize),
}

/// Lemma 2 feasibility test: returns true if adding some `t`-subset of
/// `ext(S)` could still yield a γ-quasi-clique, judged by total degree mass.
///
/// `prefix_se_sum` must be `Σ_{i=1..t} d_S(u_i)` over the `t` largest
/// SE-degrees.
#[inline]
fn lemma2_feasible(
    params: &MiningParams,
    s_len: usize,
    sum_ss: usize,
    prefix_se_sum: usize,
    t: usize,
) -> bool {
    // Σ_{v∈S} d_S(v) + Σ_{i≤t} d_S(u_i) ≥ |S| · ⌈γ(|S| + t − 1)⌉
    sum_ss + prefix_se_sum >= s_len * params.gamma.ceil_mul(s_len + t - 1)
}

/// The SE-degrees in non-increasing order (`d_S(u_1) ≥ d_S(u_2) ≥ …`, the
/// ordering of Lemma 2 and Figures 6–7), read off their histogram.
fn se_degrees_desc(degrees: &Degrees) -> impl Iterator<Item = usize> + '_ {
    degrees
        .se_histogram
        .iter()
        .enumerate()
        .rev()
        .flat_map(|(d, &count)| std::iter::repeat(d).take(count as usize))
}

/// Computes the tightened upper bound `U_S` (Eqs. 1–4).
///
/// Returns [`UpperBound::ExtensionsPruned`] when no feasible `t` exists.
/// For an empty `S` the bound degenerates to `|ext(S)|` (no constraint yet).
pub fn upper_bound(params: &MiningParams, degrees: &Degrees, ext_len: usize) -> UpperBound {
    let s_len = degrees.s_in_s.len();
    if s_len == 0 {
        return if ext_len == 0 {
            UpperBound::ExtensionsPruned
        } else {
            UpperBound::Bound(ext_len)
        };
    }
    let Some(dmin) = degrees.dmin() else {
        return UpperBound::ExtensionsPruned;
    };
    // Eq. 3: U_min = ⌊d_min / γ⌋ + 1 − |S|, capped by |ext(S)|.
    let budget = params.gamma.floor_div(dmin) + 1;
    if budget <= s_len {
        // Not even one extension vertex fits.
        return UpperBound::ExtensionsPruned;
    }
    let u_min = (budget - s_len).min(ext_len);
    if u_min == 0 {
        return UpperBound::ExtensionsPruned;
    }
    // Eq. 4: largest t ∈ [1, U_min] passing the Lemma 2 mass test.
    let sum_ss = degrees.sum_s_in_s();
    let mut prefix = 0usize;
    let mut best: Option<usize> = None;
    for (t, d) in (1..=u_min).zip(se_degrees_desc(degrees)) {
        prefix += d;
        if lemma2_feasible(params, s_len, sum_ss, prefix, t) {
            best = Some(t);
        }
    }
    match best {
        Some(t) => UpperBound::Bound(t),
        None => UpperBound::ExtensionsPruned,
    }
}

/// Computes the tightened lower bound `L_S` (Eqs. 6–8).
///
/// Returns [`LowerBound::AllPruned`] when no feasible `t` exists (then neither
/// `S` nor any extension can be a γ-quasi-clique). For an empty `S` the bound
/// is trivially 0.
pub fn lower_bound(params: &MiningParams, degrees: &Degrees, ext_len: usize) -> LowerBound {
    let s_len = degrees.s_in_s.len();
    if s_len == 0 {
        return LowerBound::Bound(0);
    }
    let Some(dmin_s) = degrees.dmin_s() else {
        return LowerBound::Bound(0);
    };
    // Eq. 7: smallest t with d_min^S + t ≥ ⌈γ(|S| + t − 1)⌉, t ∈ [0, |ext|].
    let mut l_min: Option<usize> = None;
    for t in 0..=ext_len {
        if dmin_s + t >= params.gamma.ceil_mul(s_len + t - 1) {
            l_min = Some(t);
            break;
        }
    }
    let Some(l_min) = l_min else {
        return LowerBound::AllPruned;
    };
    if l_min == 0 {
        // S already satisfies every member's degree requirement; the Lemma 2
        // refinement can only ask for ≥ 0 extra vertices, and t = 0 trivially
        // passes the mass test when every d_S(v) ≥ ⌈γ(|S|−1)⌉.
        return LowerBound::Bound(0);
    }
    // Eq. 8: smallest t ∈ [L_min, |ext|] passing the Lemma 2 mass test.
    let sum_ss = degrees.sum_s_in_s();
    let mut sorted_se = se_degrees_desc(degrees);
    let mut prefix: usize = sorted_se.by_ref().take(l_min - 1).sum();
    for (t, d) in (l_min..=ext_len).zip(sorted_se) {
        prefix += d;
        if lemma2_feasible(params, s_len, sum_ss, prefix, t) {
            return LowerBound::Bound(t);
        }
    }
    LowerBound::AllPruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrees::compute_degrees;
    use qcm_gen::datasets::figure4_local;
    use qcm_graph::{Graph, LocalGraph, VertexId};

    #[test]
    fn upper_bound_on_dense_candidate() {
        let g = figure4_local();
        // S = {a} with ext = {b, c, d, e}: a is adjacent to all of them.
        let params = MiningParams::new(0.6, 2);
        let (deg, _) = compute_degrees(&g, &[0], &[1, 2, 3, 4]);
        // d_min = 0 + 4 = 4; U_min = ⌊4/0.6⌋ + 1 − 1 = 6 → capped at 4.
        // Mass test passes for t up to 4 (the subgraph is nearly complete).
        assert_eq!(upper_bound(&params, &deg, 4), UpperBound::Bound(4));
    }

    #[test]
    fn upper_bound_prunes_when_budget_exhausted() {
        let g = figure4_local();
        // S = {f, g} (an edge) with ext = {}: d_min = 1, γ = 0.9.
        // U_min = ⌊1/0.9⌋ + 1 − 2 = 0 → extensions pruned.
        let params = MiningParams::new(0.9, 2);
        let (deg, _) = compute_degrees(&g, &[5, 6], &[]);
        assert_eq!(upper_bound(&params, &deg, 0), UpperBound::ExtensionsPruned);
    }

    #[test]
    fn upper_bound_allows_full_extension_of_a_triangle_seed() {
        // S = {d} and ext = {h, i} in Figure 4: {d, h, i} is a triangle, so
        // with γ = 1.0 both extension vertices can be added simultaneously:
        // d_min = 2, U_min = ⌊2/1⌋ + 1 − 1 = 2, and the Lemma 2 mass test
        // passes for t = 1 and t = 2.
        let g = figure4_local();
        let params = MiningParams::new(1.0, 2);
        let (deg, _) = compute_degrees(&g, &[3], &[7, 8]);
        assert_eq!(upper_bound(&params, &deg, 2), UpperBound::Bound(2));
    }

    #[test]
    fn upper_bound_mass_test_tightens_below_umin() {
        // A star: center 0 adjacent to 1..4, leaves not adjacent to each
        // other. S = {0}, ext = {1, 2, 3, 4}, γ = 0.8.
        // d_min = 4 → U_min = ⌊4/0.8⌋ + 1 − 1 = 5 → capped at 4.
        // Every SE-degree is 1, so the mass test needs
        // t ≥ ⌈0.8·t⌉ … which holds only while ⌈0.8·t⌉ ≤ t, i.e. all t; but
        // the required mass is |S|·⌈γ(|S|+t−1)⌉ = ⌈0.8·t⌉ and the available
        // mass is exactly t, so t = 4 requires ⌈3.2⌉ = 4 ≤ 4 → passes, while a
        // sparser star (γ = 1.0) fails beyond t = 1.
        let star = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let all: Vec<VertexId> = star.vertices().collect();
        let lg = LocalGraph::from_induced(&star, &all);
        let strict = MiningParams::new(1.0, 2);
        let (deg, _) = compute_degrees(&lg, &[0], &[1, 2, 3, 4]);
        // With γ = 1.0: U_min = 4 but the mass test only passes t = 1
        // (t = 2 would need mass 2·1 = 2 from S-degrees of leaves, available 2;
        //  wait — available is exactly t, required is ⌈1.0·t⌉ = t, so every t
        //  passes the mass test; the *Type-I/II* rules are what kill the star.
        //  The tightening shows up with sum over |S| > 1 below.)
        assert_eq!(upper_bound(&strict, &deg, 4), UpperBound::Bound(4));

        // Two-vertex S inside the star: S = {0, 1} (an edge), ext = {2, 3, 4}.
        // d_S(0) = 1, d_S(1) = 1, sum_ss = 2; SE-degrees of 2, 3, 4 are 1 each
        // (adjacent to 0 only). γ = 1.0: required mass for t is
        // 2·⌈1.0·(t+1)⌉ = 2t + 2; available is 2 + t → only t ≤ 0 works, so no
        // t ∈ [1, U_min] passes and extensions are pruned.
        let (deg, _) = compute_degrees(&lg, &[0, 1], &[2, 3, 4]);
        assert_eq!(upper_bound(&strict, &deg, 3), UpperBound::ExtensionsPruned);
    }

    #[test]
    fn upper_bound_empty_s_is_unconstrained() {
        let g = figure4_local();
        let params = MiningParams::new(0.9, 2);
        let (deg, _) = compute_degrees(&g, &[], &[0, 1, 2]);
        assert_eq!(upper_bound(&params, &deg, 3), UpperBound::Bound(3));
        let (deg, _) = compute_degrees(&g, &[], &[]);
        assert_eq!(upper_bound(&params, &deg, 0), UpperBound::ExtensionsPruned);
    }

    #[test]
    fn lower_bound_zero_when_s_already_feasible() {
        let g = figure4_local();
        // S = {a, b, c} is a triangle; γ = 0.5 requires degree ⌈0.5·2⌉ = 1,
        // which every member already has → L_S = 0.
        let params = MiningParams::new(0.5, 2);
        let (deg, _) = compute_degrees(&g, &[0, 1, 2], &[3, 4]);
        assert_eq!(lower_bound(&params, &deg, 2), LowerBound::Bound(0));
    }

    #[test]
    fn lower_bound_requires_additions_for_sparse_s() {
        let g = figure4_local();
        // S = {b, d}: not adjacent (d_S = 0 for both). γ = 0.5.
        // L_min: smallest t with 0 + t ≥ ⌈0.5(2 + t − 1)⌉ → t = 1.
        // Mass test at t=1: sum_ss=0, best SE-degree is 2 (a or c or e adjacent
        // to both b and d? a is adjacent to b and d → d_S(a)=2). Need
        // 0 + 2 ≥ 2·⌈0.5·2⌉ = 2 → holds, so L_S = 1.
        let params = MiningParams::new(0.5, 2);
        let (deg, _) = compute_degrees(&g, &[1, 3], &[0, 2, 4]);
        assert_eq!(lower_bound(&params, &deg, 3), LowerBound::Bound(1));
    }

    #[test]
    fn lower_bound_prunes_when_infeasible() {
        let g = figure4_local();
        // S = {f, i}: far apart, no common neighborhood inside a tiny ext.
        // With γ = 1.0 every member of a quasi-clique of size 2 + t needs
        // degree 1 + t; f and i are not adjacent and ext = {} so no t works.
        let params = MiningParams::new(1.0, 2);
        let (deg, _) = compute_degrees(&g, &[5, 8], &[]);
        assert_eq!(lower_bound(&params, &deg, 0), LowerBound::AllPruned);
    }

    #[test]
    fn lower_bound_mass_test_can_fail_after_lmin() {
        // S = {b, d} with γ = 1.0: L_min needs t with 0 + t ≥ 1 + t, which
        // never holds → AllPruned straight from Eq. 7.
        let g = figure4_local();
        let params = MiningParams::new(1.0, 2);
        let (deg, _) = compute_degrees(&g, &[1, 3], &[0, 2, 4]);
        assert_eq!(lower_bound(&params, &deg, 3), LowerBound::AllPruned);
    }

    #[test]
    fn lower_bound_empty_s() {
        let g = figure4_local();
        let params = MiningParams::new(0.9, 2);
        let (deg, _) = compute_degrees(&g, &[], &[0, 1]);
        assert_eq!(lower_bound(&params, &deg, 2), LowerBound::Bound(0));
    }
}
