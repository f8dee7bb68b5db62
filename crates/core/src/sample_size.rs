//! Sample-size theory: Hoeffding tail bounds and the paper's Equations 3
//! and 4.

use crate::config::ApproxParams;

/// Hoeffding tail for the mean of `t` i.i.d. variables with range width 2
/// (the pairwise estimator `p_u − p_v` of Theorem 3):
/// `Pr[estimate − truth ≥ ε] ≤ exp(−t ε² / 2)`.
fn pairwise_tail(t: u64, epsilon: f64) -> f64 {
    (-(t as f64) * epsilon * epsilon / 2.0).exp()
}

/// Hoeffding tail for a single `[0, 1]` mean (range width 1):
/// `Pr[|estimate − truth| ≥ ε] ≤ 2 exp(−2 t ε²)`.
pub fn single_mean_tail(t: u64, epsilon: f64) -> f64 {
    2.0 * (-2.0 * t as f64 * epsilon * epsilon).exp()
}

/// Equation 3: sample size for the basic sampling algorithm,
/// `t = (2/ε²) · ln(k (n − k) / δ)`, bounding the order of the
/// `k (n − k)` node pairs straddling the top-k boundary.
///
/// Degenerate inputs (`k = 0` or `k ≥ n`) need no pairwise ordering at
/// all and return 0.
pub fn basic_sample_size(n: usize, k: usize, approx: ApproxParams) -> u64 {
    pair_bound_sample_size(k as u64, (n.saturating_sub(k)) as u64, approx)
}

/// Equation 4: sample size after pruning,
/// `t = (2/ε²) · ln((k − k') (|B| − k + k') / δ)`.
///
/// `k_rem = k − k'` is the number of result slots still open and
/// `b = |B|` the surviving candidate count.
pub fn reduced_sample_size(b: usize, k_rem: usize, approx: ApproxParams) -> u64 {
    pair_bound_sample_size(k_rem as u64, (b.saturating_sub(k_rem)) as u64, approx)
}

/// Shared form: `t = (2/ε²) · ln(pairs / δ)` with `pairs = a · b`,
/// rounded up. Zero when there are no pairs to order.
fn pair_bound_sample_size(a: u64, b: u64, approx: ApproxParams) -> u64 {
    let pairs = (a as f64) * (b as f64);
    if pairs < 1.0 {
        return 0;
    }
    let eps = approx.epsilon();
    let t = 2.0 / (eps * eps) * (pairs / approx.delta()).ln();
    if t <= 0.0 {
        0
    } else {
        t.ceil() as u64
    }
}

/// Inverse view used in tests and docs: with `t` samples, the per-pair
/// failure probability is `exp(−t ε² / 2)`; with `pairs` pairs the union
/// bound gives the overall failure probability.
pub fn failure_probability(t: u64, pairs: u64, epsilon: f64) -> f64 {
    (pairs as f64 * pairwise_tail(t, epsilon)).min(1.0)
}

/// Inverts the Eq. 3/4 bound at the samples actually drawn: the `ε` the
/// same `δ` guarantee still holds at after `t_used` of the budgeted
/// samples. A degraded (cancelled mid-pass) Monte-Carlo answer is a
/// valid answer at this wider `ε`, which is what makes deadline-driven
/// degradation principled rather than lossy.
///
/// `a · b` is the pair count of the bound (`k (n − k)` for Eq. 3,
/// `(k − k') (|B| − k + k')` for Eq. 4). Returns 0 when there are no
/// pairs to order (the answer is exact regardless of samples) and
/// `+∞` when `t_used` is 0 (no samples, no guarantee — the engine
/// reports such queries as cancelled, not degraded).
pub fn achieved_epsilon(a: u64, b: u64, delta: f64, t_used: u64) -> f64 {
    let pairs = (a as f64) * (b as f64);
    if pairs < 1.0 {
        return 0.0;
    }
    if t_used == 0 {
        return f64::INFINITY;
    }
    (2.0 * (pairs / delta).ln() / t_used as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> ApproxParams {
        ApproxParams::paper_defaults()
    }

    #[test]
    fn eq3_matches_formula() {
        // n = 1000, k = 10, eps = 0.3, delta = 0.1:
        // t = 2/0.09 · ln(10·990/0.1) = 22.22… · ln(99000) ≈ 255.7 → 256.
        let t = basic_sample_size(1000, 10, paper());
        let expected = (2.0 / 0.09 * (9_900.0f64 / 0.1f64).ln()).ceil() as u64;
        assert_eq!(t, expected);
        assert_eq!(t, 256);
    }

    #[test]
    fn eq4_shrinks_with_pruning() {
        let full = basic_sample_size(10_000, 100, paper());
        // After pruning: 150 candidates, 40 slots already verified.
        let reduced = reduced_sample_size(150, 60, paper());
        assert!(reduced < full, "reduced {reduced} !< full {full}");
    }

    #[test]
    fn degenerate_cases_are_zero() {
        assert_eq!(basic_sample_size(10, 0, paper()), 0);
        assert_eq!(basic_sample_size(10, 10, paper()), 0);
        assert_eq!(basic_sample_size(10, 12, paper()), 0);
        assert_eq!(reduced_sample_size(5, 0, paper()), 0);
        assert_eq!(reduced_sample_size(5, 5, paper()), 0);
    }

    #[test]
    fn sample_size_monotone_in_accuracy() {
        let loose = basic_sample_size(1000, 10, ApproxParams::new(0.3, 0.1).unwrap());
        let tight_eps = basic_sample_size(1000, 10, ApproxParams::new(0.1, 0.1).unwrap());
        let tight_delta = basic_sample_size(1000, 10, ApproxParams::new(0.3, 0.01).unwrap());
        assert!(tight_eps > loose);
        assert!(tight_delta > loose);
    }

    #[test]
    fn tails_decrease_with_samples() {
        assert!(pairwise_tail(100, 0.3) > pairwise_tail(1000, 0.3));
        assert!(single_mean_tail(100, 0.3) > single_mean_tail(1000, 0.3));
        assert!(pairwise_tail(0, 0.3) == 1.0);
    }

    #[test]
    fn eq3_sample_size_achieves_delta() {
        // Plugging Eq. 3's t back into the union bound must give ≤ δ.
        let n = 5000;
        let k = 50;
        let t = basic_sample_size(n, k, paper());
        let fail = failure_probability(t, (k * (n - k)) as u64, 0.3);
        assert!(fail <= 0.1 + 1e-9, "fail = {fail}");
    }

    #[test]
    fn pair_count_below_one_rounds_to_zero() {
        // a·b = 0 ⇒ no ordering constraints.
        assert_eq!(reduced_sample_size(0, 0, paper()), 0);
    }

    #[test]
    fn tiny_pair_counts_still_positive() {
        // Even a single pair needs samples under the paper's parameters.
        let t = pair_bound_sample_size_public(1, 1);
        assert!(t > 0);
    }

    fn pair_bound_sample_size_public(a: u64, b: u64) -> u64 {
        super::pair_bound_sample_size(a, b, paper())
    }

    #[test]
    fn achieved_epsilon_inverts_the_budget() {
        // Running the full Eq. 3 budget achieves (about) the requested ε;
        // the ceil() in the budget makes the achieved value slightly
        // tighter, never looser.
        let t = basic_sample_size(1000, 10, paper());
        let eps = achieved_epsilon(10, 990, 0.1, t);
        assert!(eps <= 0.3 + 1e-12, "achieved {eps} looser than requested");
        assert!(eps > 0.29, "achieved {eps} implausibly tight");
        // Fewer samples → wider ε, monotonically.
        assert!(achieved_epsilon(10, 990, 0.1, t / 2) > eps);
        assert!(achieved_epsilon(10, 990, 0.1, t / 10) > achieved_epsilon(10, 990, 0.1, t / 2));
    }

    #[test]
    fn achieved_epsilon_degenerate_cases() {
        assert_eq!(achieved_epsilon(0, 990, 0.1, 100), 0.0, "no pairs → exact");
        assert_eq!(achieved_epsilon(10, 0, 0.1, 100), 0.0);
        assert!(achieved_epsilon(10, 990, 0.1, 0).is_infinite(), "no samples → no guarantee");
    }
}
