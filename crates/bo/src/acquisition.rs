//! Acquisition functions over a GP posterior.
//!
//! Ribbon uses **Expected Improvement** (EI): "For each unexplored configuration, EI uses its
//! GP mean and variance as input and calculates the expected improvement over the best
//! explored configuration." Probability of Improvement and Upper Confidence Bound are also
//! provided for the ablation benchmarks.

use ribbon_gp::Posterior;
use ribbon_linalg::stats::{normal_cdf, normal_pdf};

/// Which acquisition function the optimizer should maximize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Expected improvement over the incumbent (Ribbon's default). The field is the
    /// exploration jitter ξ ≥ 0 subtracted from the improvement.
    ExpectedImprovement {
        /// Exploration jitter ξ.
        xi: f64,
    },
    /// Probability of improving on the incumbent by at least ξ.
    ProbabilityOfImprovement {
        /// Exploration jitter ξ.
        xi: f64,
    },
    /// Upper confidence bound μ + κσ.
    UpperConfidenceBound {
        /// Exploration weight κ ≥ 0.
        kappa: f64,
    },
}

impl Default for Acquisition {
    fn default() -> Self {
        Acquisition::ExpectedImprovement { xi: 0.01 }
    }
}

impl Acquisition {
    /// Evaluates the acquisition value of a posterior given the incumbent best objective
    /// value (for maximization).
    pub fn score(&self, posterior: &Posterior, best: f64) -> f64 {
        match *self {
            Acquisition::ExpectedImprovement { xi } => expected_improvement(posterior, best, xi),
            Acquisition::ProbabilityOfImprovement { xi } => {
                probability_of_improvement(posterior, best, xi)
            }
            Acquisition::UpperConfidenceBound { kappa } => upper_confidence_bound(posterior, kappa),
        }
    }

    /// A mean cutoff for skipping points in a scan: every posterior with a finite mean
    /// `μ ≤ cutoff` and a variance at most `prior_variance` (the kernel's `k(x, x)`,
    /// which no posterior variance exceeds) scores strictly below `threshold`, as
    /// [`Acquisition::score`] computes it with incumbent `best`. Returns −∞ when no
    /// cutoff qualifies or a parameter (ξ, κ, `best`, `prior_variance`) is not finite.
    ///
    /// The cutoff is the `c` a bisection over the `f64` order finds with `B(c) <
    /// threshold`, where `B(c)` bounds the score of every such posterior: the largest
    /// such `c` where `B` is monotone, and sound wherever it is not, since any `c` with
    /// `B(c) < threshold` is. Write `S = √prior_variance`, `I(μ) = μ − best − ξ` as
    /// `score` computes it (monotone in `μ`), `s(c, v)` for `score` at mean `c` and
    /// variance `v`, and `Φ̃` for the computed [`normal_cdf`]. A posterior's computed σ
    /// is at most `S` (the square root is monotone), so every bound below takes σ ≤ S
    /// and `I ≤ I(c)`.
    ///
    /// * **UCB** `μ + κσ` is computed with monotone roundings only, so its computed
    ///   value is monotone in `μ` and, with the sign of κ, in σ:
    ///   `B(c) = max(s(c, 0), s(c, S²))`.
    /// * **EI**: the true `EI(I, σ) = I Φ(I/σ) + σ φ(I/σ)` grows with `I` (∂ = Φ) and
    ///   with σ (∂ = φ), and `EI ≥ max(I, 0)` covers the `σ < 1e-12` branch. The
    ///   computed value differs from it by `I (Φ̃ − Φ)` plus roundings. With
    ///   `z = I/σ`, A&S 7.1.26 gives `|Φ̃ − Φ| ≤ δ = 1e-7` (the `erf` error 1.5e-7,
    ///   halved, plus evaluation slack), and since both `Φ̃` and `Φ` lie in
    ///   `[0, ½e^{−z²/2}]` below zero (mirrored above it), `|I (Φ̃ − Φ)| ≤ σ|z| ·
    ///   min(δ, ½e^{−z²/2}) ≤ 5.6e-7 σ`; the roundings add at most 1e-15 σ plus a
    ///   relative 1e-15 of the value. So with `E = 1e-6`, `|computed − true| ≤ E σ`
    ///   up to the relative term, and for `μ ≤ c`:
    ///   `computed ≤ EI(I(c), S) + E S ≤ s(c, S²) + 2 E S`, so
    ///   `B(c) = s(c, S²) (1 + 1e-12) + 2 E S`.
    /// * **PI**: the true `Φ(I/σ)` grows with σ only while `I ≤ 0`; above that a small
    ///   σ pushes it towards 1, so no cutoff with `I(c) > 0` is sound
    ///   (`B(c) = +∞`). For `I ≤ I(c) ≤ 0` the computed quotient `I/σ` is at most
    ///   `I(c)/S` (monotone roundings), so `Φ̃(I/σ) ≤ Φ(I(c)/S) + δ ≤ s(c, S²) + 2δ`,
    ///   and the `σ < 1e-12` branch scores 0: `B(c) = s(c, S²) + 2e-7`.
    ///
    /// Scoring at the prior variance alone is not a bound: computed EI is not exactly
    /// monotone in σ, and PI falls with σ above the improvement threshold.
    pub fn mean_cutoff(&self, best: f64, prior_variance: f64, threshold: f64) -> f64 {
        /// `E` above: EI's uniform error bound in units of σ.
        const EI_ERROR: f64 = 1e-6;
        /// `2δ` above: twice the bound on `|Φ̃ − Φ|`.
        const PI_MARGIN: f64 = 2e-7;
        let param = match *self {
            Acquisition::ExpectedImprovement { xi }
            | Acquisition::ProbabilityOfImprovement { xi } => xi,
            Acquisition::UpperConfidenceBound { kappa } => kappa,
        };
        if !(param.is_finite() && best.is_finite() && prior_variance.is_finite())
            || prior_variance < 0.0
        {
            return f64::NEG_INFINITY;
        }
        let at = |mean: f64, variance: f64| self.score(&Posterior { mean, variance }, best);
        let sigma = prior_variance.sqrt();
        let bound = |c: f64| match *self {
            Acquisition::ExpectedImprovement { .. } => {
                at(c, prior_variance) * (1.0 + 1e-12) + 2.0 * EI_ERROR * sigma
            }
            Acquisition::ProbabilityOfImprovement { xi } => {
                if c - best - xi > 0.0 {
                    f64::INFINITY
                } else {
                    at(c, prior_variance) + PI_MARGIN
                }
            }
            Acquisition::UpperConfidenceBound { .. } => at(c, 0.0).max(at(c, prior_variance)),
        };
        // Keys order the non-NaN `f64`s numerically; the map is its own inverse.
        let key = |bits: i64| if bits < 0 { bits ^ i64::MAX } else { bits };
        let below = |k: i64| bound(f64::from_bits(key(k) as u64)) < threshold;
        // Invariant: `below(lo)` and `!below(hi)`.
        let (mut lo, mut hi) = (
            key((-f64::MAX).to_bits() as i64),
            key(f64::MAX.to_bits() as i64),
        );
        if !below(lo) {
            return f64::NEG_INFINITY;
        }
        if below(hi) {
            return f64::MAX;
        }
        while hi.abs_diff(lo) > 1 {
            let mid = ((i128::from(lo) + i128::from(hi)) / 2) as i64;
            if below(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        f64::from_bits(key(lo) as u64)
    }
}

/// Expected improvement of a Gaussian posterior over incumbent `best` (maximization form):
///
/// `EI = (μ − best − ξ) Φ(z) + σ φ(z)` with `z = (μ − best − ξ)/σ`.
///
/// Returns `max(μ − best − ξ, 0)` when the posterior variance is (numerically) zero.
pub fn expected_improvement(posterior: &Posterior, best: f64, xi: f64) -> f64 {
    let sigma = posterior.std_dev();
    let improvement = posterior.mean - best - xi;
    if sigma < 1e-12 {
        return improvement.max(0.0);
    }
    let z = improvement / sigma;
    (improvement * normal_cdf(z) + sigma * normal_pdf(z)).max(0.0)
}

/// Probability that the point improves on `best` by at least `xi`.
pub fn probability_of_improvement(posterior: &Posterior, best: f64, xi: f64) -> f64 {
    let sigma = posterior.std_dev();
    let improvement = posterior.mean - best - xi;
    if sigma < 1e-12 {
        return if improvement > 0.0 { 1.0 } else { 0.0 };
    }
    normal_cdf(improvement / sigma)
}

/// Upper confidence bound `μ + κσ`.
pub fn upper_confidence_bound(posterior: &Posterior, kappa: f64) -> f64 {
    posterior.mean + kappa * posterior.std_dev()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn post(mean: f64, variance: f64) -> Posterior {
        Posterior { mean, variance }
    }

    #[test]
    fn ei_is_nonnegative() {
        assert!(expected_improvement(&post(-10.0, 0.01), 0.0, 0.0) >= 0.0);
        assert!(expected_improvement(&post(0.0, 0.0), 5.0, 0.0) >= 0.0);
    }

    #[test]
    fn ei_zero_variance_reduces_to_plain_improvement() {
        assert_eq!(expected_improvement(&post(1.5, 0.0), 1.0, 0.0), 0.5);
        assert_eq!(expected_improvement(&post(0.5, 0.0), 1.0, 0.0), 0.0);
    }

    #[test]
    fn ei_increases_with_mean() {
        let best = 0.5;
        let lo = expected_improvement(&post(0.4, 0.04), best, 0.0);
        let hi = expected_improvement(&post(0.9, 0.04), best, 0.0);
        assert!(hi > lo);
    }

    #[test]
    fn ei_increases_with_variance_when_mean_below_best() {
        // Exploration: when the mean is below the incumbent, more uncertainty means more EI.
        let best = 1.0;
        let lo = expected_improvement(&post(0.5, 0.01), best, 0.0);
        let hi = expected_improvement(&post(0.5, 1.0), best, 0.0);
        assert!(hi > lo);
    }

    #[test]
    fn ei_known_value_at_z_zero() {
        // When μ = best and ξ = 0, EI = σ φ(0) = σ * 0.39894...
        let sigma = 2.0;
        let ei = expected_improvement(&post(1.0, sigma * sigma), 1.0, 0.0);
        assert!((ei - sigma * 0.3989422804014327).abs() < 1e-9);
    }

    #[test]
    fn xi_reduces_ei() {
        let p = post(1.0, 0.25);
        assert!(expected_improvement(&p, 0.5, 0.2) < expected_improvement(&p, 0.5, 0.0));
    }

    #[test]
    fn poi_bounds() {
        let p = post(0.7, 0.09);
        let v = probability_of_improvement(&p, 0.5, 0.0);
        assert!(v > 0.0 && v < 1.0);
        assert_eq!(probability_of_improvement(&post(2.0, 0.0), 1.0, 0.0), 1.0);
        assert_eq!(probability_of_improvement(&post(0.0, 0.0), 1.0, 0.0), 0.0);
    }

    #[test]
    fn poi_half_when_mean_equals_best() {
        let v = probability_of_improvement(&post(1.0, 0.5), 1.0, 0.0);
        assert!((v - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ucb_is_mean_plus_scaled_std() {
        let p = post(2.0, 4.0);
        assert_eq!(upper_confidence_bound(&p, 0.0), 2.0);
        assert_eq!(upper_confidence_bound(&p, 1.5), 2.0 + 3.0);
    }

    #[test]
    fn acquisition_enum_dispatch_matches_functions() {
        let p = post(0.8, 0.2);
        let best = 0.6;
        assert_eq!(
            Acquisition::ExpectedImprovement { xi: 0.01 }.score(&p, best),
            expected_improvement(&p, best, 0.01)
        );
        assert_eq!(
            Acquisition::ProbabilityOfImprovement { xi: 0.0 }.score(&p, best),
            probability_of_improvement(&p, best, 0.0)
        );
        assert_eq!(
            Acquisition::UpperConfidenceBound { kappa: 2.0 }.score(&p, best),
            upper_confidence_bound(&p, 2.0)
        );
    }

    #[test]
    fn default_acquisition_is_ei() {
        assert!(matches!(
            Acquisition::default(),
            Acquisition::ExpectedImprovement { .. }
        ));
    }

    #[test]
    fn mean_cutoff_is_finite_and_near_the_threshold_mean() {
        let (best, var) = (1.0, 0.25);
        for acq in [
            Acquisition::ExpectedImprovement { xi: 0.01 },
            Acquisition::ProbabilityOfImprovement { xi: 0.01 },
            Acquisition::UpperConfidenceBound { kappa: 2.0 },
        ] {
            // The threshold is the score of a posterior at the prior variance and
            // slightly below the incumbent, so the cutoff lies a little below that mean.
            let threshold = acq.score(&post(0.8, var), best);
            let cutoff = acq.mean_cutoff(best, var, threshold);
            assert!(cutoff < 0.8 && cutoff > 0.79, "{acq:?}: cutoff {cutoff}");
        }
    }

    #[test]
    fn pi_cutoff_never_exceeds_the_improvement_threshold() {
        // Above best + ξ a smaller variance scores higher, so a threshold above one half
        // cannot push the cutoff past the improvement threshold.
        let acq = Acquisition::ProbabilityOfImprovement { xi: 0.0 };
        let cutoff = acq.mean_cutoff(1.0, 1.0, 0.9);
        assert!(cutoff <= 1.0, "cutoff {cutoff}");
        // Scoring at the prior variance alone would have skipped this point.
        assert!(acq.score(&post(1.01, 1.0), 1.0) < 0.9);
        assert!(acq.score(&post(1.01, 1e-6), 1.0) > 0.9);
    }

    #[test]
    fn mean_cutoff_is_minus_infinity_when_nothing_qualifies() {
        let ei = Acquisition::ExpectedImprovement { xi: 0.01 };
        // EI is never negative, so nothing scores strictly below 0.
        assert_eq!(ei.mean_cutoff(1.0, 1.0, 0.0), f64::NEG_INFINITY);
        assert_eq!(
            ei.mean_cutoff(1.0, 1.0, f64::NEG_INFINITY),
            f64::NEG_INFINITY
        );
        assert_eq!(ei.mean_cutoff(1.0, 1.0, f64::NAN), f64::NEG_INFINITY);
        let bad = Acquisition::UpperConfidenceBound { kappa: f64::NAN };
        assert_eq!(bad.mean_cutoff(1.0, 1.0, 5.0), f64::NEG_INFINITY);
        assert_eq!(ei.mean_cutoff(f64::INFINITY, 1.0, 5.0), f64::NEG_INFINITY);
    }

    proptest! {
        #[test]
        fn prop_mean_cutoff_is_sound(
            kind in 0u32..3,
            param in 0.0f64..1.0,
            best in -5.0f64..5.0,
            log_var in -30.0f64..2.0,
            ref_z in -6.0f64..6.0,
            slack in -0.5f64..0.5,
            seed in 0u64..u64::MAX
        ) {
            let acq = match kind {
                0 => Acquisition::ExpectedImprovement { xi: param * 0.1 },
                1 => Acquisition::ProbabilityOfImprovement { xi: param * 0.1 - 0.05 },
                _ => Acquisition::UpperConfidenceBound { kappa: param * 4.0 },
            };
            // Prior variances from 1e-30 (σ far below the 1e-12 branch) to 100.
            let prior = 10f64.powf(log_var);
            let s = prior.sqrt();
            // Thresholds: the score of a posterior at the prior variance, nudged.
            let threshold = acq.score(&post(best + ref_z * s, prior), best) * (1.0 + slack);
            let cutoff = acq.mean_cutoff(best, prior, threshold);
            prop_assume!(cutoff > f64::NEG_INFINITY);
            let mut state = seed | 1;
            let mut unit = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            for probe in 0..64 {
                // Means at the cutoff and up to 40 prior standard deviations below it.
                let mean = if probe == 0 { cutoff } else { cutoff - 40.0 * s * unit() };
                // Variances at the prior, tending to 0, exactly 0, and in the σ < 1e-12
                // branch.
                let variance = match probe % 4 {
                    0 => prior,
                    1 => prior * unit().powi(8),
                    2 => 0.0,
                    _ => prior.min(1e-25 * unit()),
                };
                let score = acq.score(&post(mean, variance), best);
                prop_assert!(
                    score < threshold,
                    "{acq:?}: best {best}, prior {prior}, threshold {threshold}, cutoff {cutoff}: \
                     mean {mean}, variance {variance} scores {score}"
                );
            }
        }

        #[test]
        fn prop_ei_nonnegative_and_finite(mean in -10.0f64..10.0, var in 0.0f64..25.0, best in -10.0f64..10.0) {
            let v = expected_improvement(&post(mean, var), best, 0.01);
            prop_assert!(v >= 0.0);
            prop_assert!(v.is_finite());
        }

        #[test]
        fn prop_poi_in_unit_interval(mean in -10.0f64..10.0, var in 0.0f64..25.0, best in -10.0f64..10.0) {
            let v = probability_of_improvement(&post(mean, var), best, 0.0);
            prop_assert!((0.0..=1.0).contains(&v));
        }

        #[test]
        fn prop_ei_monotone_in_best(mean in -5.0f64..5.0, var in 0.01f64..4.0, b1 in -5.0f64..5.0, b2 in -5.0f64..5.0) {
            // A higher incumbent can only reduce the expected improvement.
            let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
            let p = post(mean, var);
            prop_assert!(expected_improvement(&p, hi, 0.0) <= expected_improvement(&p, lo, 0.0) + 1e-9);
        }
    }
}
