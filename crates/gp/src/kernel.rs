//! Covariance kernels for the GP surrogate.
//!
//! The paper selects **Matérn 5/2** "for ensuring smoothness" and because "similar
//! configurations will result in similar objective values"; it explicitly rejects
//! Dot Product and Rational Quadratic for assuming monotonic / particular polynomial
//! structure. All four are provided here so the ablation benchmarks can compare them,
//! together with the integer **rounding kernel** of Eq. 3:
//!
//! ```text
//! k'(x_i, x_j) = k(R(x_i), R(x_j))
//! ```
//!
//! where `R` rounds every coordinate to the nearest integer.

use ribbon_linalg::{dot, sq_dist};

/// A positive semi-definite covariance function over `R^d`.
pub trait Kernel: Send + Sync {
    /// Covariance between two points.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// Prior variance at a point, `k(x, x)`. Defaults to calling [`Kernel::eval`].
    fn diag(&self, a: &[f64]) -> f64 {
        self.eval(a, a)
    }

    /// Pre-transforms an input point so that repeated covariance evaluations against it can
    /// skip per-pair preprocessing. The contract every implementation must uphold is
    ///
    /// ```text
    /// eval(a, b) == eval_prepared(&prepare(a), &prepare(b))   (bit-identical)
    /// ```
    ///
    /// Most kernels are identity here; [`Rounded`] rounds the coordinates once, which lets
    /// batched GP prediction amortize the rounding (and its allocations) across the whole
    /// training set instead of paying it on every kernel evaluation.
    fn prepare(&self, x: &[f64]) -> Vec<f64> {
        x.to_vec()
    }

    /// Covariance between two points already transformed by [`Kernel::prepare`].
    fn eval_prepared(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval(a, b)
    }

    /// Prior variance at a point already transformed by [`Kernel::prepare`].
    fn diag_prepared(&self, a: &[f64]) -> f64 {
        self.diag(a)
    }

    /// [`Kernel::prepare`] without the allocation: overwrites `x` with `prepare(x)`
    /// (bit-identical). The default calls `prepare`, so it requires `prepare` to keep the
    /// dimension, as every kernel here does; kernels with an identity or element-wise
    /// `prepare` override it to skip the allocation.
    fn prepare_in_place(&self, x: &mut [f64]) {
        let prepared = self.prepare(x);
        x.copy_from_slice(&prepared);
    }

    /// Covariances indexed by exact integer squared distance, for kernels whose value
    /// between two prepared points depends on nothing else: entry `d2` for every
    /// `d2` in `0..=max_sq_dist`. `None` (the default) when the kernel has no such table.
    ///
    /// Bit-identity contract: when this returns `Some(t)`, then for every pair of
    /// prepared points `a`, `b` whose coordinates are all integers and whose squared
    /// distance `d2 = Σ (aᵢ − bᵢ)²` is at most `max_sq_dist`,
    ///
    /// ```text
    /// eval_prepared(a, b) == t[d2]   (bit-identical)
    /// ```
    ///
    /// Integer coordinates make `d2` an exact integer, so a batched caller may replace
    /// the kernel evaluation by a table lookup without changing one bit of a posterior.
    /// The caller checks integrality; the table engages for no other inputs.
    fn sq_dist_table(&self, max_sq_dist: usize) -> Option<Vec<f64>> {
        let _ = max_sq_dist;
        None
    }

    /// Human-readable name used in logs and benchmark output.
    fn name(&self) -> &'static str;
}

/// Matérn 5/2 kernel — Ribbon's surrogate covariance.
///
/// `k(r) = σ² (1 + √5 r/ℓ + 5r²/(3ℓ²)) exp(-√5 r/ℓ)` with `r = ‖a − b‖`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matern52 {
    /// Signal variance σ².
    pub variance: f64,
    /// Isotropic length scale ℓ > 0.
    pub length_scale: f64,
}

impl Matern52 {
    /// Creates a Matérn 5/2 kernel; panics on non-positive hyperparameters.
    pub fn new(variance: f64, length_scale: f64) -> Self {
        assert!(variance > 0.0, "variance must be positive, got {variance}");
        assert!(
            length_scale > 0.0,
            "length_scale must be positive, got {length_scale}"
        );
        Matern52 {
            variance,
            length_scale,
        }
    }

    /// Unit-variance, unit-length-scale kernel.
    pub fn default_unit() -> Self {
        Matern52::new(1.0, 1.0)
    }

    /// The covariance at squared distance `d2`: the one formula behind both
    /// [`Kernel::eval`] and [`Kernel::sq_dist_table`].
    fn at_sq_dist(&self, d2: f64) -> f64 {
        let r = d2.sqrt() / self.length_scale;
        let sqrt5_r = 5.0_f64.sqrt() * r;
        self.variance * (1.0 + sqrt5_r + 5.0 * r * r / 3.0) * (-sqrt5_r).exp()
    }
}

impl Kernel for Matern52 {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.at_sq_dist(sq_dist(a, b))
    }

    fn diag(&self, _a: &[f64]) -> f64 {
        self.variance
    }

    fn prepare_in_place(&self, _x: &mut [f64]) {}

    fn sq_dist_table(&self, max_sq_dist: usize) -> Option<Vec<f64>> {
        // An integer below 2^53 converts to f64 exactly, and `sq_dist` of integer
        // coordinates is that exact integer, so entry and evaluation share every input.
        Some(
            (0..=max_sq_dist)
                .map(|d2| self.at_sq_dist(d2 as f64))
                .collect(),
        )
    }

    fn name(&self) -> &'static str {
        "matern52"
    }
}

/// Squared-exponential (RBF) kernel: `k(r) = σ² exp(-r² / (2ℓ²))`.
#[derive(Debug, Clone, PartialEq)]
pub struct SquaredExponential {
    /// Signal variance σ².
    pub variance: f64,
    /// Isotropic length scale ℓ > 0.
    pub length_scale: f64,
}

impl SquaredExponential {
    /// Creates an RBF kernel; panics on non-positive hyperparameters.
    pub fn new(variance: f64, length_scale: f64) -> Self {
        assert!(variance > 0.0, "variance must be positive");
        assert!(length_scale > 0.0, "length_scale must be positive");
        SquaredExponential {
            variance,
            length_scale,
        }
    }
}

impl Kernel for SquaredExponential {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r2 = ribbon_linalg::sq_dist(a, b) / (self.length_scale * self.length_scale);
        self.variance * (-0.5 * r2).exp()
    }

    fn diag(&self, _a: &[f64]) -> f64 {
        self.variance
    }

    fn name(&self) -> &'static str {
        "squared_exponential"
    }
}

/// Rational quadratic kernel: `k(r) = σ² (1 + r²/(2αℓ²))^{-α}`.
///
/// Included as one of the alternative surrogates the paper considered and rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct RationalQuadratic {
    /// Signal variance σ².
    pub variance: f64,
    /// Isotropic length scale ℓ > 0.
    pub length_scale: f64,
    /// Scale-mixture parameter α > 0.
    pub alpha: f64,
}

impl RationalQuadratic {
    /// Creates a rational-quadratic kernel; panics on non-positive hyperparameters.
    pub fn new(variance: f64, length_scale: f64, alpha: f64) -> Self {
        assert!(variance > 0.0 && length_scale > 0.0 && alpha > 0.0);
        RationalQuadratic {
            variance,
            length_scale,
            alpha,
        }
    }
}

impl Kernel for RationalQuadratic {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r2 = ribbon_linalg::sq_dist(a, b);
        self.variance
            * (1.0 + r2 / (2.0 * self.alpha * self.length_scale * self.length_scale))
                .powf(-self.alpha)
    }

    fn diag(&self, _a: &[f64]) -> f64 {
        self.variance
    }

    fn name(&self) -> &'static str {
        "rational_quadratic"
    }
}

/// Dot-product (linear) kernel: `k(a, b) = σ0² + σ² ⟨a, b⟩`.
///
/// Included as one of the alternative surrogates the paper considered and rejected
/// (it assumes a monotonic objective).
#[derive(Debug, Clone, PartialEq)]
pub struct DotProduct {
    /// Constant offset σ0² ≥ 0.
    pub sigma0: f64,
    /// Linear coefficient σ² > 0.
    pub variance: f64,
}

impl DotProduct {
    /// Creates a dot-product kernel; panics on invalid hyperparameters.
    pub fn new(sigma0: f64, variance: f64) -> Self {
        assert!(sigma0 >= 0.0 && variance > 0.0);
        DotProduct { sigma0, variance }
    }
}

impl Kernel for DotProduct {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.sigma0 + self.variance * dot(a, b)
    }

    fn name(&self) -> &'static str {
        "dot_product"
    }
}

/// The integer rounding kernel of Ribbon (Eq. 3): `k'(x, y) = k(R(x), R(y))` where `R`
/// rounds every coordinate to the nearest integer.
///
/// This makes the GP constant within each unit hyper-cube of the configuration lattice, so
/// the surrogate's shape matches the step-like true objective over integer instance counts
/// (see the paper's Fig. 7 and the `fig07` experiment binary).
#[derive(Debug, Clone)]
pub struct Rounded<K: Kernel> {
    inner: K,
}

impl<K: Kernel> Rounded<K> {
    /// Wraps a base kernel with coordinate rounding.
    pub fn new(inner: K) -> Self {
        Rounded { inner }
    }

    /// Access to the wrapped kernel.
    pub fn inner(&self) -> &K {
        &self.inner
    }

    fn round(x: &[f64]) -> Vec<f64> {
        x.iter().map(|v| v.round()).collect()
    }
}

impl<K: Kernel> Kernel for Rounded<K> {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.inner.eval(&Self::round(a), &Self::round(b))
    }

    fn diag(&self, a: &[f64]) -> f64 {
        let r = Self::round(a);
        self.inner.diag(&r)
    }

    fn prepare(&self, x: &[f64]) -> Vec<f64> {
        // Rounding commutes with itself, so preparing via the inner kernel's prepare on the
        // rounded point keeps the contract for nested wrappers too.
        self.inner.prepare(&Self::round(x))
    }

    fn eval_prepared(&self, a: &[f64], b: &[f64]) -> f64 {
        self.inner.eval_prepared(a, b)
    }

    fn diag_prepared(&self, a: &[f64]) -> f64 {
        self.inner.diag_prepared(a)
    }

    fn prepare_in_place(&self, x: &mut [f64]) {
        // From 2^52 on every `f64` is an integer; below it, adding and removing 2^52
        // rounds to an integer, so the pair is exact only for integers. Integers round to
        // themselves: skip the `round` call (a library call on baseline x86-64) for them.
        const TWO_POW_52: f64 = (1u64 << 52) as f64;
        for v in x.iter_mut() {
            let a = v.abs();
            if a < TWO_POW_52 && (a + TWO_POW_52) - TWO_POW_52 != a {
                *v = v.round();
            }
        }
        self.inner.prepare_in_place(x);
    }

    fn sq_dist_table(&self, max_sq_dist: usize) -> Option<Vec<f64>> {
        // Prepared points are inner-prepared points, so the inner contract carries over.
        self.inner.sq_dist_table(max_sq_dist)
    }

    fn name(&self) -> &'static str {
        "rounded"
    }
}

/// A boxed, dynamically dispatched kernel — convenient for configuration-driven selection.
pub type BoxedKernel = Box<dyn Kernel>;

impl Kernel for BoxedKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.as_ref().eval(a, b)
    }

    fn diag(&self, a: &[f64]) -> f64 {
        self.as_ref().diag(a)
    }

    fn prepare(&self, x: &[f64]) -> Vec<f64> {
        self.as_ref().prepare(x)
    }

    fn eval_prepared(&self, a: &[f64], b: &[f64]) -> f64 {
        self.as_ref().eval_prepared(a, b)
    }

    fn diag_prepared(&self, a: &[f64]) -> f64 {
        self.as_ref().diag_prepared(a)
    }

    fn prepare_in_place(&self, x: &mut [f64]) {
        self.as_ref().prepare_in_place(x)
    }

    fn sq_dist_table(&self, max_sq_dist: usize) -> Option<Vec<f64>> {
        self.as_ref().sq_dist_table(max_sq_dist)
    }

    fn name(&self) -> &'static str {
        self.as_ref().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ribbon_linalg::Matrix;

    fn kernels() -> Vec<Box<dyn Kernel>> {
        vec![
            Box::new(Matern52::new(1.3, 2.0)),
            Box::new(SquaredExponential::new(0.7, 1.5)),
            Box::new(RationalQuadratic::new(1.0, 1.0, 2.0)),
        ]
    }

    #[test]
    fn stationary_kernels_peak_at_zero_distance() {
        for k in kernels() {
            let x = [1.0, 2.0, 3.0];
            let y = [4.0, -1.0, 0.5];
            assert!(k.eval(&x, &x) >= k.eval(&x, &y), "kernel {}", k.name());
        }
    }

    #[test]
    fn kernels_are_symmetric() {
        for k in kernels() {
            let x = [0.3, -1.2];
            let y = [2.5, 0.1];
            let d = (k.eval(&x, &y) - k.eval(&y, &x)).abs();
            assert!(d < 1e-14, "kernel {} asymmetric by {d}", k.name());
        }
    }

    #[test]
    fn matern_decays_with_distance() {
        let k = Matern52::default_unit();
        let at = |d: f64| k.eval(&[0.0], &[d]);
        assert!(at(0.0) > at(1.0));
        assert!(at(1.0) > at(2.0));
        assert!(at(2.0) > at(5.0));
        assert!(at(20.0) < 1e-6);
    }

    #[test]
    fn matern_diag_equals_variance() {
        let k = Matern52::new(2.5, 0.7);
        assert_eq!(k.diag(&[1.0, 2.0, 3.0]), 2.5);
        assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn longer_length_scale_means_slower_decay() {
        let short = Matern52::new(1.0, 0.5);
        let long = Matern52::new(1.0, 5.0);
        assert!(long.eval(&[0.0], &[3.0]) > short.eval(&[0.0], &[3.0]));
    }

    #[test]
    fn squared_exponential_known_value() {
        let k = SquaredExponential::new(1.0, 1.0);
        // k(r=1) = exp(-0.5)
        assert!((k.eval(&[0.0], &[1.0]) - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn rational_quadratic_approaches_rbf_for_large_alpha() {
        let rq = RationalQuadratic::new(1.0, 1.0, 1e6);
        let rbf = SquaredExponential::new(1.0, 1.0);
        for d in [0.1, 0.5, 1.0, 2.0] {
            assert!((rq.eval(&[0.0], &[d]) - rbf.eval(&[0.0], &[d])).abs() < 1e-4);
        }
    }

    #[test]
    fn dot_product_is_linear_not_stationary() {
        let k = DotProduct::new(0.5, 2.0);
        assert_eq!(k.eval(&[1.0, 2.0], &[3.0, 4.0]), 0.5 + 2.0 * 11.0);
        // Not translation invariant.
        assert_ne!(k.eval(&[0.0], &[1.0]), k.eval(&[10.0], &[11.0]));
    }

    #[test]
    fn rounded_kernel_is_constant_within_unit_cell() {
        let k = Rounded::new(Matern52::default_unit());
        // 3.2 and 3.4 both round to 3 → identical covariance against any reference.
        let r = [0.0, 0.0];
        assert_eq!(k.eval(&[3.2, 1.1], &r), k.eval(&[3.4, 0.9], &r));
        // But crossing the rounding boundary changes the value.
        assert_ne!(k.eval(&[3.4, 1.1], &r), k.eval(&[3.6, 1.1], &r));
    }

    #[test]
    fn rounded_kernel_agrees_with_inner_on_integers() {
        let inner = Matern52::new(1.0, 2.0);
        let k = Rounded::new(inner.clone());
        let a = [1.0, 4.0, 0.0];
        let b = [2.0, 2.0, 5.0];
        assert_eq!(k.eval(&a, &b), inner.eval(&a, &b));
    }

    #[test]
    fn prepared_evaluation_is_bit_identical_to_eval() {
        let a = [3.2, 1.7, -0.4];
        let b = [0.9, 2.5, 4.1];
        let all: Vec<Box<dyn Kernel>> = vec![
            Box::new(Matern52::new(1.3, 2.0)),
            Box::new(SquaredExponential::new(0.7, 1.5)),
            Box::new(RationalQuadratic::new(1.0, 1.0, 2.0)),
            Box::new(DotProduct::new(0.5, 2.0)),
            Box::new(Rounded::new(Matern52::new(1.1, 0.8))),
            Box::new(Rounded::new(Rounded::new(Matern52::default_unit()))),
        ];
        for k in all {
            let (pa, pb) = (k.prepare(&a), k.prepare(&b));
            assert_eq!(k.eval(&a, &b), k.eval_prepared(&pa, &pb), "{}", k.name());
            assert_eq!(k.diag(&a), k.diag_prepared(&pa), "{}", k.name());
        }
    }

    #[test]
    #[should_panic(expected = "length_scale must be positive")]
    fn matern_rejects_zero_length_scale() {
        let _ = Matern52::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "variance must be positive")]
    fn matern_rejects_negative_variance() {
        let _ = Matern52::new(-1.0, 1.0);
    }

    /// Gram matrices of a valid kernel must be (numerically) positive semi-definite.
    fn gram_is_psd(k: &dyn Kernel, pts: &[Vec<f64>]) -> bool {
        let n = pts.len();
        let mut g = Matrix::from_symmetric_fn(n, |i, j| k.eval(&pts[i], &pts[j]));
        g.add_diagonal(1e-9);
        ribbon_linalg::Cholesky::new(&g).is_ok()
    }

    #[test]
    fn gram_matrices_are_positive_semi_definite() {
        let pts: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![i as f64 * 0.7, (i as f64).sin()])
            .collect();
        for k in kernels() {
            assert!(gram_is_psd(k.as_ref(), &pts), "kernel {}", k.name());
        }
        assert!(gram_is_psd(&Rounded::new(Matern52::default_unit()), &pts));
    }

    proptest! {
        #[test]
        fn prop_matern_bounded_by_variance(d in 0.0f64..100.0, var in 0.1f64..10.0, ls in 0.1f64..10.0) {
            let k = Matern52::new(var, ls);
            let v = k.eval(&[0.0], &[d]);
            prop_assert!(v <= var + 1e-12);
            prop_assert!(v >= 0.0);
        }

        #[test]
        fn prop_rbf_bounded_by_variance(d in 0.0f64..100.0, var in 0.1f64..10.0, ls in 0.1f64..10.0) {
            let k = SquaredExponential::new(var, ls);
            let v = k.eval(&[0.0], &[d]);
            prop_assert!(v <= var + 1e-12);
            prop_assert!(v >= 0.0);
        }

        #[test]
        fn prop_kernels_symmetric(ax in -5.0f64..5.0, ay in -5.0f64..5.0, bx in -5.0f64..5.0, by in -5.0f64..5.0) {
            for k in kernels() {
                let d = (k.eval(&[ax, ay], &[bx, by]) - k.eval(&[bx, by], &[ax, ay])).abs();
                prop_assert!(d < 1e-12);
            }
        }

        #[test]
        fn prop_random_gram_is_psd(seed in 0u64..300, n in 2usize..7) {
            let mut state = seed.wrapping_add(17);
            let pts: Vec<Vec<f64>> = (0..n).map(|_| {
                (0..3).map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 11) as f64 / (1u64 << 53) as f64) * 10.0
                }).collect()
            }).collect();
            prop_assert!(gram_is_psd(&Matern52::new(1.0, 1.5), &pts));
        }
    }
}
