//! Algorithm 1's arithmetic as the paper states it, kept as test oracles:
//! the literal scans of Eqs. 4, 7 and 8 with one `⌈γ·x⌉` per step, and the
//! Type-II and critical-vertex rules theorem by theorem. The search runs the
//! closed forms and stepped ceilings of [`crate::bounds`] and the per-round
//! cuts of [`crate::rules::RoundCuts`]; the property below holds the two to
//! the same answers.

use crate::bounds::{se_degrees_desc, LowerBound, UpperBound};
use crate::config::PruneConfig;
use crate::degrees::Degrees;
use crate::params::MiningParams;
use crate::rules::Type2Outcome;

/// Lemma 2's mass test at `t`: `Σ_{v∈S} d_S(v) + Σ_{i≤t} d_S(u_i) ≥
/// |S|·⌈γ(|S| + t − 1)⌉`, with `prefix` the sum over the top `t` SE-degrees.
fn mass_reaches(params: &MiningParams, degrees: &Degrees, prefix: usize, t: usize) -> bool {
    let s_len = degrees.s_in_s.len();
    degrees.sum_s_in_s() + prefix >= s_len * params.gamma.ceil_mul(s_len + t - 1)
}

/// Eq. 4: the largest `t ∈ [1, U_min]` passing the mass test.
pub(crate) fn upper_bound(params: &MiningParams, degrees: &Degrees, ext_len: usize) -> UpperBound {
    let s_len = degrees.s_in_s.len();
    if s_len == 0 {
        return match ext_len {
            0 => UpperBound::ExtensionsPruned,
            _ => UpperBound::Bound(ext_len),
        };
    }
    let dmin = degrees.dmin().unwrap();
    let budget = params.gamma.floor_div(dmin) + 1;
    if budget <= s_len {
        return UpperBound::ExtensionsPruned;
    }
    let u_min = (budget - s_len).min(ext_len);
    let mut prefix = 0;
    let mut best = UpperBound::ExtensionsPruned;
    for (t, d) in (1..=u_min).zip(se_degrees_desc(degrees)) {
        prefix += d;
        if mass_reaches(params, degrees, prefix, t) {
            best = UpperBound::Bound(t);
        }
    }
    best
}

/// Eq. 7 by trying every `t`, then Eq. 8's scan from `L_min`.
pub(crate) fn lower_bound(params: &MiningParams, degrees: &Degrees, ext_len: usize) -> LowerBound {
    let s_len = degrees.s_in_s.len();
    let Some(dmin_s) = degrees.dmin_s() else {
        return LowerBound::Bound(0);
    };
    let Some(l_min) = (0..=ext_len).find(|&t| dmin_s + t >= params.gamma.ceil_mul(s_len + t - 1))
    else {
        return LowerBound::AllPruned;
    };
    if l_min == 0 {
        return LowerBound::Bound(0);
    }
    let mut sorted_se = se_degrees_desc(degrees);
    let mut prefix: usize = sorted_se.by_ref().take(l_min - 1).sum();
    for (t, d) in (l_min..=ext_len).zip(sorted_se) {
        prefix += d;
        if mass_reaches(params, degrees, prefix, t) {
            return LowerBound::Bound(t);
        }
    }
    LowerBound::AllPruned
}

/// Theorems 4, 6 and 8 over every member of `S`, each with its own ceiling.
pub(crate) fn check_type2(
    params: &MiningParams,
    config: &PruneConfig,
    degrees: &Degrees,
    us: Option<usize>,
    ls: Option<usize>,
) -> Type2Outcome {
    let s_len = degrees.s_in_s.len();
    let gamma = &params.gamma;
    let mut extensions_only = false;
    for (&ds, &dext) in degrees.s_in_s.iter().zip(&degrees.s_in_ext) {
        let (ds, dext) = (ds as usize, dext as usize);
        if config.degree {
            // Theorem 4 Condition (ii).
            if ds + dext < gamma.ceil_mul(s_len - 1 + dext) {
                return Type2Outcome::PruneAll;
            }
            // Theorem 4 Condition (i).
            if dext == 0 && ds < gamma.ceil_mul(s_len) {
                extensions_only = true;
            }
        }
        // Theorem 6.
        if let Some(us) = us.filter(|_| config.upper_bound) {
            if ds + us < gamma.ceil_mul(s_len + us - 1) {
                return Type2Outcome::PruneAll;
            }
        }
        // Theorem 8.
        if let Some(ls) = ls.filter(|_| config.lower_bound) {
            if ds + dext < gamma.ceil_mul(s_len + ls - 1) {
                return Type2Outcome::PruneAll;
            }
        }
    }
    match extensions_only {
        true => Type2Outcome::PruneExtensionsKeepS,
        false => Type2Outcome::None,
    }
}

/// Theorem 9: the first member of `S` whose total degree is exactly
/// `⌈γ(|S| + L_S − 1)⌉`.
pub(crate) fn find_critical_vertex(
    params: &MiningParams,
    degrees: &Degrees,
    ls: usize,
) -> Option<usize> {
    let s_len = degrees.s_in_s.len();
    (0..s_len).find(|&i| {
        let total = degrees.s_in_s[i] as usize + degrees.s_in_ext[i] as usize;
        total == params.gamma.ceil_mul(s_len + ls - 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::critical;
    use crate::params::Gamma;
    use crate::rules::RoundCuts;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The degrees of a random candidate with `|S| < 14` and `|ext| < 40`:
    /// every pair of `S` is an edge with one probability, every pair of
    /// `S × ext` with another, so the SS-, ES- and SE-degrees agree with one
    /// graph and the histogram with the SE-degrees.
    fn arb_degrees() -> impl Strategy<Value = (Degrees, usize)> {
        let sizes = (0usize..14, 0usize..40);
        (sizes, (0u64..=10, 0u64..=10), 0u64..u64::MAX).prop_map(
            |((s_len, ext_len), (p_ss, p_se), seed)| {
                let mut state = seed | 1;
                let mut edge = |tenths: u64| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % 10 < tenths
                };
                let mut d = Degrees {
                    s_in_s: vec![0; s_len],
                    s_in_ext: vec![0; s_len],
                    ext_in_s: vec![0; ext_len],
                    se_histogram: vec![0; s_len + 1],
                };
                for a in 0..s_len {
                    for b in a + 1..s_len {
                        if edge(p_ss) {
                            d.s_in_s[a] += 1;
                            d.s_in_s[b] += 1;
                        }
                    }
                    for u in 0..ext_len {
                        if edge(p_se) {
                            d.s_in_ext[a] += 1;
                            d.ext_in_s[u] += 1;
                        }
                    }
                }
                for &se in &d.ext_in_s {
                    d.se_histogram[se as usize] += 1;
                }
                (d, ext_len)
            },
        )
    }

    /// Candidates per γ: a release build, which CI also runs under further
    /// `PROPTEST_SEED`s, checks fifty times as many.
    const CASES: u32 = if cfg!(debug_assertions) { 400 } else { 20_000 };

    /// How often each outcome of the bounds and the Type-II rules came up.
    #[derive(Debug, Default)]
    struct Reached {
        upper: [u64; 2],
        lower: [u64; 2],
        type2: [u64; 3],
    }

    /// At every γ: the bounds equal the literal scans; the round's cuts give
    /// the per-theorem Type-II outcome and critical vertex under all eight
    /// subsets of the degree, upper- and lower-bound rules, with the bounds
    /// the scans found and with arbitrary ones.
    fn bounds_and_rules_match_the_paper(gammas: &[Gamma], cases: u32, test: &str) -> Reached {
        let mut rng = TestRng::for_test(test);
        let mut reached = Reached::default();
        let other = || (0usize..=41, 0usize..=41);
        for &gamma in gammas {
            let params = MiningParams { gamma, min_size: 2 };
            for _ in 0..cases {
                let (d, ext_len) = arb_degrees().generate(&mut rng);
                let s_len = d.s_in_s.len();
                let us = bounds::upper_bound(&params, &d, ext_len);
                let ls = bounds::lower_bound(&params, &d, ext_len);
                let context = format!("γ = {gamma:?}, ext {ext_len}, {d:?}");
                assert_eq!(us, upper_bound(&params, &d, ext_len), "{context}");
                assert_eq!(ls, lower_bound(&params, &d, ext_len), "{context}");
                reached.upper[usize::from(us == UpperBound::ExtensionsPruned)] += 1;
                reached.lower[usize::from(ls == LowerBound::AllPruned)] += 1;
                let us = match us {
                    UpperBound::Bound(b) => Some(b),
                    UpperBound::ExtensionsPruned => None,
                };
                let ls = match ls {
                    LowerBound::Bound(b) => Some(b),
                    LowerBound::AllPruned => None,
                };
                let (any_us, any_ls) = other().generate(&mut rng);
                for (us, ls) in [(us, ls), (Some(any_us), Some(any_ls)), (None, Some(any_ls))] {
                    for family in 0..8u8 {
                        let mut config = PruneConfig::all_enabled();
                        config.degree = family & 1 != 0;
                        config.upper_bound = family & 2 != 0;
                        config.lower_bound = family & 4 != 0;
                        let cuts = RoundCuts::new(&params, &config, s_len, us, ls);
                        let outcome = cuts.type2(&d);
                        assert_eq!(
                            outcome,
                            check_type2(&params, &config, &d, us, ls),
                            "{context}, {config:?}, U_S {us:?}, L_S {ls:?}"
                        );
                        reached.type2[outcome as usize] += 1;
                        let critical = cuts
                            .critical_degree()
                            .and_then(|needed| critical::find_critical_vertex(&d, needed));
                        let expected = ls.and_then(|ls| find_critical_vertex(&params, &d, ls));
                        assert_eq!(critical, expected, "{context}, L_S {ls:?}");
                    }
                }
            }
        }
        reached
    }

    fn assert_every_outcome(reached: &Reached) {
        let counts = reached
            .upper
            .iter()
            .chain(&reached.lower)
            .chain(&reached.type2);
        assert!(counts.into_iter().all(|&n| n > 0), "{reached:?}");
    }

    #[test]
    fn bounds_and_round_cuts_match_the_literal_scans_and_theorems() {
        let gammas = [
            Gamma::from_ratio(1, 2),
            Gamma::from_ratio(51, 100),
            Gamma::from_ratio(2, 3),
            Gamma::from_ratio(4, 5),
            Gamma::from_ratio(9, 10),
            Gamma::from_ratio(1, 1),
        ];
        let reached = bounds_and_rules_match_the_paper(&gammas, CASES, "paper_gammas");
        assert_every_outcome(&reached);
    }

    /// γ with numerator and denominator near 2^40, where `num·den` needs
    /// `u128`, and near 2^62, where `num·x` does from `x = 4`.
    #[test]
    fn bounds_and_round_cuts_match_at_wide_ratios() {
        let near = |bits: u32, k: u64| (1u64 << bits) - k;
        let gammas = [
            Gamma::from_ratio(near(40, 59), near(40, 1)),
            Gamma::from_ratio(near(40, 1) / 4 * 3, near(40, 1)),
            Gamma::from_ratio(near(62, 57), near(62, 1)),
            Gamma::from_ratio(near(62, 3) / 10 * 9, near(62, 3)),
        ];
        let reached = bounds_and_rules_match_the_paper(&gammas, CASES, "wide_ratios");
        assert_every_outcome(&reached);
    }
}
