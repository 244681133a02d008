//! Mining parameters and exact threshold arithmetic.
//!
//! Every pruning rule in the paper compares an integer degree against a
//! threshold of the form `⌈γ·x⌉` or `⌊d/γ⌋`. Computing those with `f64`
//! directly is dangerous: `0.9 * 10` is not exactly `9.0` in binary floating
//! point and a mis-rounded ceiling silently drops valid results or fails to
//! prune. [`Gamma`] therefore stores γ as an exact rational `num/den` and the
//! thresholds are computed with integer arithmetic only.

use std::fmt;

/// The minimum-degree ratio γ of the quasi-clique definition, stored as an
/// exact rational number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Gamma {
    num: u64,
    den: u64,
}

impl Gamma {
    /// Creates γ = `num/den`. Panics if `den == 0`, if the fraction is not in
    /// (0, 1], or if it cannot be reduced to fit.
    pub fn from_ratio(num: u64, den: u64) -> Self {
        assert!(den != 0, "gamma denominator must be non-zero");
        assert!(num != 0, "gamma must be > 0");
        assert!(num <= den, "gamma must be <= 1 (got {num}/{den})");
        let g = gcd(num, den);
        Gamma {
            num: num / g,
            den: den / g,
        }
    }

    /// Creates γ from a floating point value by rounding to the nearest
    /// 1/1,000,000. Values like `0.9`, `0.85`, `2.0/3.0` are represented
    /// exactly enough for any realistic graph size.
    pub fn new(value: f64) -> Self {
        assert!(
            value > 0.0 && value <= 1.0,
            "gamma must be in (0, 1], got {value}"
        );
        const DEN: u64 = 1_000_000;
        let num = (value * DEN as f64).round() as u64;
        Self::from_ratio(num.max(1), DEN)
    }

    /// γ as `f64` (for display and statistics only — never for thresholds).
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The exact reduced rational `(numerator, denominator)`. Because the
    /// fraction is always stored reduced, equal γ values return identical
    /// ratios — which makes this the canonical representation for cache keys
    /// and fingerprints.
    pub fn as_ratio(&self) -> (u64, u64) {
        (self.num, self.den)
    }

    /// Exact `⌈γ · x⌉`.
    #[inline]
    pub fn ceil_mul(&self, x: usize) -> usize {
        let prod = self.num as u128 * x as u128;
        prod.div_ceil(self.den as u128) as usize
    }

    /// `⌈γ·x⌉` from `x` upwards, one [`CeilSteps::step`] per increment of
    /// `x`: one division here, none per step.
    #[inline]
    pub(crate) fn ceil_steps(&self, x: usize) -> CeilSteps {
        let prod = self.num as u128 * x as u128;
        let ceil = prod.div_ceil(self.den as u128);
        CeilSteps {
            ceil: ceil as usize,
            rem: (ceil * self.den as u128 - prod) as u64,
            num: self.num,
            gap: self.den - self.num,
        }
    }

    /// [`Gamma::ceil_steps`] from an `x` whose ceiling `⌈γ·x⌉` is known to
    /// be `ceil`: no division.
    #[inline]
    pub(crate) fn ceil_steps_at(&self, x: usize, ceil: usize) -> CeilSteps {
        let rem = ceil as u128 * self.den as u128 - self.num as u128 * x as u128;
        debug_assert!(rem < self.den as u128, "⌈γ·{x}⌉ is not {ceil}");
        CeilSteps {
            ceil,
            rem: rem as u64,
            num: self.num,
            gap: self.den - self.num,
        }
    }

    /// Exact `⌊d / γ⌋` (used by the upper bound U_min, Eq. 2–3 of the paper).
    #[inline]
    pub fn floor_div(&self, d: usize) -> usize {
        let prod = d as u128 * self.den as u128;
        (prod / self.num as u128) as usize
    }

    /// True if γ ≥ 1/2, i.e. the diameter of any γ-quasi-clique is at most 2
    /// (Theorem 1 of [Pei et al. 2005], used by pruning rule P1). Below 1/2
    /// the two-hop restriction of the search space must be disabled.
    #[inline]
    pub fn diameter_two_applies(&self) -> bool {
        2 * self.num >= self.den
    }
}

impl fmt::Display for Gamma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_f64())
    }
}

/// `⌈γ·x⌉` for `x = x₀, x₀ + 1, …`, stepped without a division: the ceiling
/// `q` and its remainder `q·den − num·x ∈ [0, den)`. Raising `x` by one
/// takes `num` off the remainder; since `num ≤ den`, the ceiling then grows
/// by 1 if the remainder would go negative and by 0 otherwise.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CeilSteps {
    /// `⌈γ·x⌉` at the current `x`.
    pub(crate) ceil: usize,
    rem: u64,
    num: u64,
    /// `den − num`.
    gap: u64,
}

impl CeilSteps {
    /// Moves `x` to `x + 1`.
    #[inline]
    pub(crate) fn step(&mut self) {
        if self.rem >= self.num {
            self.rem -= self.num;
        } else {
            self.rem += self.gap;
            self.ceil += 1;
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The user-facing mining parameters: the degree threshold γ and the minimum
/// result size τ_size (Definition 3 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MiningParams {
    /// Minimum degree ratio γ ∈ (0, 1].
    pub gamma: Gamma,
    /// Minimum number of vertices τ_size of a reported quasi-clique.
    pub min_size: usize,
}

impl MiningParams {
    /// Creates parameters from a floating-point γ and τ_size.
    ///
    /// # Panics
    /// Panics if γ ∉ (0, 1] or `min_size < 2` (single vertices and below are
    /// trivially quasi-cliques and never interesting, per Section 3.1).
    pub fn new(gamma: f64, min_size: usize) -> Self {
        assert!(min_size >= 2, "min_size must be at least 2, got {min_size}");
        MiningParams {
            gamma: Gamma::new(gamma),
            min_size,
        }
    }

    /// The degree threshold `k = ⌈γ·(τ_size − 1)⌉` of the size-threshold
    /// pruning rule (P2, Theorem 2): vertices of degree below `k` cannot be in
    /// any valid quasi-clique, so the graph can be shrunk to its k-core.
    #[inline]
    pub fn kcore_threshold(&self) -> usize {
        self.gamma.ceil_mul(self.min_size - 1)
    }

    /// Minimum degree required of every vertex inside a quasi-clique with `n`
    /// vertices: `⌈γ·(n − 1)⌉`.
    #[inline]
    pub fn required_degree(&self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.gamma.ceil_mul(n - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_exact_ceiling_for_common_values() {
        let g = Gamma::new(0.9);
        // ⌈0.9 * 10⌉ = 9 exactly (a classic f64 trap: 0.9*10 = 9.000000000000002).
        assert_eq!(g.ceil_mul(10), 9);
        assert_eq!(g.ceil_mul(0), 0);
        assert_eq!(g.ceil_mul(1), 1);
        assert_eq!(g.ceil_mul(17), 16); // 15.3 -> 16
        let g = Gamma::new(0.5);
        assert_eq!(g.ceil_mul(7), 4);
        assert_eq!(g.ceil_mul(8), 4);
        let g = Gamma::new(1.0);
        assert_eq!(g.ceil_mul(9), 9);
    }

    #[test]
    fn stepped_ceilings_equal_the_divided_ones() {
        let near = |bits: u32| (1u64 << bits) - 57;
        for gamma in [
            Gamma::new(0.5),
            Gamma::from_ratio(51, 100),
            Gamma::from_ratio(2, 3),
            Gamma::new(0.9),
            Gamma::new(1.0),
            Gamma::from_ratio(near(40), near(40) + 58),
            Gamma::from_ratio(3 << 60, near(63)),
        ] {
            for start in [0, 1, 7, 1000] {
                let mut steps = gamma.ceil_steps(start);
                for x in start..start + 300 {
                    assert_eq!(steps.ceil, gamma.ceil_mul(x), "γ = {gamma:?}, x = {x}");
                    steps.step();
                }
            }
        }
    }

    #[test]
    fn gamma_floor_division() {
        let g = Gamma::new(0.9);
        // ⌊9 / 0.9⌋ = 10.
        assert_eq!(g.floor_div(9), 10);
        assert_eq!(g.floor_div(8), 8); // 8.888.. -> 8
        let g = Gamma::from_ratio(2, 3);
        assert_eq!(g.floor_div(4), 6);
        assert_eq!(g.floor_div(5), 7); // 7.5 -> 7
    }

    #[test]
    fn gamma_from_ratio_reduces() {
        let g = Gamma::from_ratio(3, 6);
        assert_eq!(g, Gamma::from_ratio(1, 2));
        assert!((g.as_f64() - 0.5).abs() < 1e-12);
        assert_eq!(format!("{g}"), "0.5");
    }

    #[test]
    fn diameter_two_threshold() {
        assert!(Gamma::new(0.5).diameter_two_applies());
        assert!(Gamma::new(0.9).diameter_two_applies());
        assert!(Gamma::new(1.0).diameter_two_applies());
        assert!(!Gamma::new(0.49).diameter_two_applies());
        assert!(!Gamma::from_ratio(1, 3).diameter_two_applies());
    }

    #[test]
    #[should_panic(expected = "gamma must be in")]
    fn gamma_rejects_zero() {
        Gamma::new(0.0);
    }

    #[test]
    #[should_panic(expected = "gamma must be in")]
    fn gamma_rejects_above_one() {
        Gamma::new(1.2);
    }

    #[test]
    #[should_panic(expected = "<= 1")]
    fn gamma_ratio_rejects_above_one() {
        Gamma::from_ratio(5, 4);
    }

    #[test]
    fn mining_params_kcore_threshold_matches_paper() {
        // YouTube run in the paper: γ=0.9, τ_size=18 → k = ⌈0.9·17⌉ = 16.
        let p = MiningParams::new(0.9, 18);
        assert_eq!(p.kcore_threshold(), 16);
        // Amazon: γ=0.5, τ_size=12 → k = ⌈0.5·11⌉ = 6.
        let p = MiningParams::new(0.5, 12);
        assert_eq!(p.kcore_threshold(), 6);
    }

    #[test]
    fn required_degree_grows_with_size() {
        let p = MiningParams::new(0.8, 5);
        assert_eq!(p.required_degree(0), 0);
        assert_eq!(p.required_degree(1), 0);
        assert_eq!(p.required_degree(5), 4); // ⌈0.8·4⌉
        assert_eq!(p.required_degree(6), 4);
        assert_eq!(p.required_degree(11), 8);
    }

    #[test]
    #[should_panic(expected = "min_size")]
    fn mining_params_rejects_tiny_min_size() {
        MiningParams::new(0.9, 1);
    }
}
