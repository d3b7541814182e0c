//! Exact Gaussian-Process regression with a Cholesky-factored kernel matrix.
//!
//! Given observations `(X, y)`, a kernel `k`, and noise variance `σ_n²`, the posterior at a
//! test point `x*` is
//!
//! ```text
//! μ(x*)  = k*ᵀ (K + σ_n² I)⁻¹ (y − m)          + m
//! σ²(x*) = k(x*, x*) − k*ᵀ (K + σ_n² I)⁻¹ k*
//! ```
//!
//! where `m` is the (constant) prior mean — Ribbon uses the empirical mean of the observed
//! objective values so the GP reverts to "average observed quality" far from data.

use crate::kernel::Kernel;
use ribbon_linalg::{stats, Cholesky, LinalgError, Matrix};
use std::fmt;

/// Errors produced while fitting or querying a GP.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// No training observations were supplied.
    NoData,
    /// Training inputs and targets have different lengths.
    LengthMismatch {
        /// Number of input rows.
        inputs: usize,
        /// Number of target values.
        targets: usize,
    },
    /// Training inputs have inconsistent dimensionality.
    DimensionMismatch {
        /// Dimension of the first input row.
        expected: usize,
        /// Dimension of the offending row.
        got: usize,
    },
    /// A query point's dimensionality does not match the training data.
    QueryDimensionMismatch {
        /// Training input dimension.
        expected: usize,
        /// Query dimension.
        got: usize,
    },
    /// Observed values or kernel evaluations were not finite.
    NonFinite,
    /// The (jittered) kernel matrix could not be factorized.
    Factorization(LinalgError),
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::NoData => write!(f, "gaussian process requires at least one observation"),
            GpError::LengthMismatch { inputs, targets } => {
                write!(
                    f,
                    "inputs ({inputs}) and targets ({targets}) have different lengths"
                )
            }
            GpError::DimensionMismatch { expected, got } => {
                write!(f, "training row has dimension {got}, expected {expected}")
            }
            GpError::QueryDimensionMismatch { expected, got } => {
                write!(f, "query has dimension {got}, expected {expected}")
            }
            GpError::NonFinite => write!(f, "non-finite value in GP data or kernel"),
            GpError::Factorization(e) => write!(f, "kernel matrix factorization failed: {e}"),
        }
    }
}

impl std::error::Error for GpError {}

/// Configuration for GP fitting.
#[derive(Debug, Clone, PartialEq)]
pub struct GpConfig {
    /// Observation noise variance σ_n² added to the kernel diagonal.
    pub noise_variance: f64,
    /// Initial jitter used if the kernel matrix is numerically indefinite.
    pub jitter: f64,
    /// Maximum number of jitter escalations (each multiplies jitter by 10).
    pub max_jitter_tries: usize,
    /// If `true`, use the empirical mean of `y` as the constant prior mean; otherwise 0.
    pub empirical_mean: bool,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            noise_variance: 1e-6,
            jitter: 1e-10,
            max_jitter_tries: 10,
            empirical_mean: true,
        }
    }
}

/// Posterior prediction at a single point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posterior {
    /// Posterior mean μ(x*).
    pub mean: f64,
    /// Posterior variance σ²(x*) (clamped to be non-negative).
    pub variance: f64,
}

impl Posterior {
    /// Posterior standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }
}

/// Points [`GaussianProcess::predict_many`] scores per pass, one lane each.
pub const PREDICT_LANES: usize = 8;

/// Largest coordinate magnitude at which the kernel table engages: squared distances of
/// such integer points are exact in `f64`.
const TABLE_COORD_LIMIT: f64 = (1u64 << 20) as f64;

/// 2^52: the spacing of `f64` values reaches 1 here, so adding it to a non-negative value
/// below it rounds that value to an integer.
const TWO_POW_52: f64 = (1u64 << 52) as f64;

/// `true` for an integer of magnitude at most [`TABLE_COORD_LIMIT`]. Branch-free and
/// call-free (`trunc` is a library call on baseline x86-64).
fn is_table_coord(v: f64) -> bool {
    let a = v.abs();
    (a <= TABLE_COORD_LIMIT) & ((a + TWO_POW_52) - TWO_POW_52 == a)
}

/// The integer value of `d2`, an integer in `0..2^52`: adding 2^52 places it in the low
/// mantissa bits exactly. Cheaper than the saturating `as usize` conversion.
fn exact_index(d2: f64) -> usize {
    ((d2 + TWO_POW_52).to_bits() & ((1u64 << 52) - 1)) as usize
}

/// Kernel values of one GP by exact integer squared distance, from
/// [`GaussianProcess::kernel_table`]; pass it to that GP's
/// [`GaussianProcess::predict_many`].
#[derive(Debug, Clone)]
pub struct KernelTable {
    values: Vec<f64>,
}

/// Exact posterior means of one GP over the rows of an integer lattice, from
/// [`GaussianProcess::row_means`].
///
/// A *row* is the set of lattice points that share every coordinate but the last: its
/// *prefix*. The squared distance from the point `(prefix, v)` to training point `i` is
/// `Pᵢ + (cᵢ − v)²`, where `cᵢ` is the training point's last coordinate and `Pᵢ` its
/// squared distance over the prefix coordinates. The table holds every product
/// `k(Pᵢ + (cᵢ − v)²) · αᵢ`, so the means of a row cost an integer add per training
/// point and changed prefix coordinate and a float add per training point and point, and
/// no kernel value or solve. Rows are read through a [`RowCursor`].
#[derive(Debug, Clone)]
pub struct RowMeans {
    /// Inclusive per-dimension bounds of the lattice.
    bounds: Vec<u32>,
    /// Number of training points.
    n: usize,
    /// `starts[i]`: where training point i's products start, `i · prefix_span · row_len`.
    starts: Vec<usize>,
    /// `shares[share_at[j] + q · n + i] = (tᵢⱼ − q)² · row_len` for prefix dimension j
    /// and coordinate q, so training point i's products for a row start at
    /// `starts[i] + Σⱼ shares[share_at[j] + prefixⱼ · n + i]`.
    shares: Vec<usize>,
    share_at: Vec<usize>,
    /// `products[starts[i] + P · row_len + v]`: the kernel value at squared distance
    /// `P + (cᵢ − v)²` times `αᵢ`.
    products: Vec<f64>,
    prior_mean: f64,
}

/// The most points one register-blocked pass of [`RowCursor::means`] sums; the product
/// table carries this many trailing zeros so a pass may read past its last row.
const ROW_LANES: usize = 16;

impl RowMeans {
    /// A cursor over this table's rows, for [`RowCursor::means`]; one per scan worker.
    pub fn cursor(&self) -> RowCursor<'_> {
        let prefix_dims = self.bounds.len() - 1;
        RowCursor {
            rows: self,
            prefix: vec![0; prefix_dims],
            ready: false,
            partial: vec![0; prefix_dims * self.n],
        }
    }
}

/// A position in a [`RowMeans`] table: every training point's product offset for the last
/// row asked for, kept so that a row recomputes only the prefix coordinates that changed
/// since — for consecutive rows, one integer add per training point.
#[derive(Debug, Clone)]
pub struct RowCursor<'a> {
    rows: &'a RowMeans,
    /// The prefix `partial` holds, once `ready`.
    prefix: Vec<u32>,
    ready: bool,
    /// `partial[j · n + i]`: training point i's product offset over the prefix
    /// coordinates `..=j`, `starts[i] + Σ_{j' ≤ j} shares`.
    partial: Vec<usize>,
}

impl RowCursor<'_> {
    /// Writes into `out[k]` the posterior mean at the lattice point `(prefix, lasts[k])`:
    /// bit for bit the `mean` [`GaussianProcess::predict_many`] returns for that point
    /// with the kernel table the [`RowMeans`] was built from. Each point's sum runs over
    /// the training points in order from `f64`'s `Sum` start value and adds the prior mean
    /// last, as `predict_many` does, and each product is the same kernel-table entry at
    /// the same exact integer squared distance times the same `αᵢ`.
    ///
    /// # Panics
    /// Panics if `prefix` does not hold one coordinate fewer than the lattice, a
    /// coordinate is outside its bound, or `lasts` and `out` differ in length.
    pub fn means(&mut self, prefix: &[u32], lasts: &[u32], out: &mut [f64]) {
        let rows = self.rows;
        let (n, d) = (rows.n, rows.bounds.len());
        assert_eq!(prefix.len() + 1, d, "a row prefix has one coordinate fewer");
        assert!(
            prefix.iter().zip(&rows.bounds).all(|(p, b)| p <= b),
            "row prefix {prefix:?} is outside the lattice"
        );
        assert!(
            lasts.iter().all(|&v| v <= rows.bounds[d - 1]),
            "last coordinates {lasts:?} are outside the lattice"
        );
        assert_eq!(lasts.len(), out.len(), "one mean per last coordinate");
        let unchanged = if self.ready {
            self.prefix
                .iter()
                .zip(prefix)
                .take_while(|(a, b)| a == b)
                .count()
        } else {
            0
        };
        for (j, &q) in prefix.iter().enumerate().skip(unchanged) {
            let (done, rest) = self.partial.split_at_mut(j * n);
            let base = if j == 0 {
                &rows.starts
            } else {
                &done[(j - 1) * n..]
            };
            let shares = &rows.shares[rows.share_at[j] + q as usize * n..][..n];
            for ((p, &b), &s) in rest[..n].iter_mut().zip(base).zip(shares) {
                *p = b + s;
            }
        }
        self.prefix.copy_from_slice(prefix);
        self.ready = true;
        let offsets = if d == 1 {
            &rows.starts[..]
        } else {
            &self.partial[(d - 2) * n..]
        };
        let zero: f64 = std::iter::empty::<f64>().sum();
        out.fill(zero);
        let first = lasts.first().map_or(0, |&v| v as usize);
        if lasts
            .iter()
            .enumerate()
            .all(|(k, &v)| v as usize == first + k)
        {
            // Consecutive points: running sums stay in registers while the training
            // points stream past, in passes of the narrowest width that fits.
            for (pass, sums) in out.chunks_mut(ROW_LANES).enumerate() {
                let v = first + pass * ROW_LANES;
                match sums.len() {
                    1..=4 => accumulate::<4>(&rows.products, offsets, v, sums),
                    5..=8 => accumulate::<8>(&rows.products, offsets, v, sums),
                    _ => accumulate::<ROW_LANES>(&rows.products, offsets, v, sums),
                }
            }
        } else {
            for &o in offsets {
                for (a, &v) in out.iter_mut().zip(lasts) {
                    *a += rows.products[o + v as usize];
                }
            }
        }
        for o in out.iter_mut() {
            *o += rows.prior_mean;
        }
    }
}

/// Adds to `sums[l]`, for every training point in `offsets` in order, its product at
/// last coordinate `v + l`. The `W` running sums stay in registers; lanes past
/// `sums.len()` read the products that follow and are dropped.
fn accumulate<const W: usize>(products: &[f64], offsets: &[usize], v: usize, sums: &mut [f64]) {
    let mut acc = [0.0; W];
    acc[..sums.len()].copy_from_slice(sums);
    for &o in offsets {
        let row: &[f64; W] = products[o + v..][..W]
            .try_into()
            .expect("a slice of W products");
        for (a, &x) in acc.iter_mut().zip(row) {
            *a += x;
        }
    }
    sums.copy_from_slice(&acc[..sums.len()]);
}

/// A fitted exact Gaussian-Process regressor.
pub struct GaussianProcess<K: Kernel> {
    kernel: K,
    config: GpConfig,
    x: Vec<Vec<f64>>,
    /// Training inputs after [`Kernel::prepare`] (e.g. integer-rounded for [`Rounded`]
    /// kernels), cached so predictions skip the per-evaluation preprocessing.
    ///
    /// [`Rounded`]: crate::kernel::Rounded
    x_prepared: Vec<Vec<f64>>,
    /// Raw observed targets, kept so incremental appends can recompute the empirical prior
    /// mean exactly as a full refit would.
    y_raw: Vec<f64>,
    /// Residuals y − prior_mean, kept for diagnostics.
    y_centered: Vec<f64>,
    prior_mean: f64,
    chol: Cholesky,
    /// Jitter that [`Cholesky::with_jitter`] actually applied (0.0 in the common case).
    /// A jittered factor cannot be extended row-by-row (the jitter couples every diagonal
    /// entry), so incremental appends fall back to a full refit when this is non-zero.
    jitter_applied: f64,
    /// α = (K + σ_n² I)⁻¹ (y − m)
    alpha: Vec<f64>,
    dim: usize,
}

impl<K: Kernel> GaussianProcess<K> {
    /// Fits a GP to `(x, y)` with the given kernel and configuration.
    pub fn fit(
        kernel: K,
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        config: GpConfig,
    ) -> Result<Self, GpError> {
        if x.is_empty() {
            return Err(GpError::NoData);
        }
        if x.len() != y.len() {
            return Err(GpError::LengthMismatch {
                inputs: x.len(),
                targets: y.len(),
            });
        }
        let dim = x[0].len();
        for row in &x {
            if row.len() != dim {
                return Err(GpError::DimensionMismatch {
                    expected: dim,
                    got: row.len(),
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(GpError::NonFinite);
            }
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFinite);
        }

        let prior_mean = if config.empirical_mean {
            stats::mean(&y)
        } else {
            0.0
        };
        let y_centered: Vec<f64> = y.iter().map(|v| v - prior_mean).collect();

        let n = x.len();
        let x_prepared: Vec<Vec<f64>> = x.iter().map(|row| kernel.prepare(row)).collect();
        let mut k_mat = Matrix::from_symmetric_fn(n, |i, j| {
            kernel.eval_prepared(&x_prepared[i], &x_prepared[j])
        });
        if !k_mat.all_finite() {
            return Err(GpError::NonFinite);
        }
        k_mat.add_diagonal(config.noise_variance.max(0.0));
        let (chol, jitter_applied) =
            Cholesky::with_jitter(&k_mat, config.jitter, config.max_jitter_tries)
                .map_err(GpError::Factorization)?;
        let alpha = chol.solve(&y_centered).map_err(GpError::Factorization)?;

        Ok(GaussianProcess {
            kernel,
            config,
            x,
            x_prepared,
            y_raw: y,
            y_centered,
            prior_mean,
            chol,
            jitter_applied,
            alpha,
            dim,
        })
    }

    /// Number of training observations.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` if the GP has no training observations (cannot happen for a fitted GP).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Constant prior mean used by this GP.
    pub fn prior_mean(&self) -> f64 {
        self.prior_mean
    }

    /// The kernel this GP was fitted with.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// Training inputs.
    pub fn inputs(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// Incorporates one new observation in O(n²) instead of the O(n³) full refit, leaving
    /// the GP in the state [`GaussianProcess::fit`] would produce for the extended dataset —
    /// **bit-identically** in the common (jitter-free) case:
    ///
    /// * the Cholesky factor grows by one row via [`Cholesky::extend`], which replays the
    ///   exact arithmetic of a from-scratch factorization;
    /// * the empirical prior mean and centered targets are recomputed from the raw target
    ///   history exactly as `fit` computes them;
    /// * `α` is recomputed by the same two triangular solves `fit` runs.
    ///
    /// When the incremental extension is impossible — the existing factor needed jitter, or
    /// the appended row makes the unjittered matrix numerically indefinite — the method
    /// falls back to a full refit (hence `K: Clone`), so the equivalence holds in every
    /// case that returns `Ok`.
    ///
    /// # Errors
    /// Returns the same errors a full refit on the extended data would. On error the GP is
    /// left unusable for further appends and should be discarded (the observation history
    /// may already include the new point).
    pub fn append_observation(&mut self, x_new: Vec<f64>, y_new: f64) -> Result<(), GpError>
    where
        K: Clone,
    {
        if x_new.len() != self.dim {
            return Err(GpError::DimensionMismatch {
                expected: self.dim,
                got: x_new.len(),
            });
        }
        if x_new.iter().any(|v| !v.is_finite()) || !y_new.is_finite() {
            return Err(GpError::NonFinite);
        }

        let prepared = self.kernel.prepare(&x_new);
        let mut row: Vec<f64> = Vec::with_capacity(self.x.len());
        for xp in &self.x_prepared {
            row.push(self.kernel.eval_prepared(&prepared, xp));
        }
        let diag =
            self.kernel.eval_prepared(&prepared, &prepared) + self.config.noise_variance.max(0.0);

        let extended = if self.jitter_applied == 0.0 {
            match self.chol.extend(&row, diag) {
                Ok(()) => true,
                Err(ribbon_linalg::LinalgError::NotPositiveDefinite { .. }) => false,
                Err(ribbon_linalg::LinalgError::NonFinite { .. }) => {
                    return Err(GpError::NonFinite)
                }
                Err(e) => return Err(GpError::Factorization(e)),
            }
        } else {
            false
        };

        self.x.push(x_new);
        self.x_prepared.push(prepared);
        self.y_raw.push(y_new);

        if extended {
            self.prior_mean = if self.config.empirical_mean {
                stats::mean(&self.y_raw)
            } else {
                0.0
            };
            self.y_centered = self.y_raw.iter().map(|v| v - self.prior_mean).collect();
            self.alpha = self
                .chol
                .solve(&self.y_centered)
                .map_err(GpError::Factorization)?;
            Ok(())
        } else {
            // Full refit: the only path that can re-run the whole-diagonal jitter search.
            let refit = GaussianProcess::fit(
                self.kernel.clone(),
                std::mem::take(&mut self.x),
                std::mem::take(&mut self.y_raw),
                self.config.clone(),
            )?;
            *self = refit;
            Ok(())
        }
    }

    /// Posterior mean and variance at a query point.
    pub fn predict(&self, q: &[f64]) -> Result<Posterior, GpError> {
        let n = self.x.len();
        let mut k_star = vec![0.0; n];
        let mut v = vec![0.0; n];
        self.predict_with_buffers(q, &mut k_star, &mut v)
    }

    /// The kernel table ([`Kernel::sq_dist_table`]) for batched predictions against this
    /// GP's training set, covering squared distances up to `max_sq_dist`. `None` when the
    /// kernel has no table or a prepared training coordinate is not an integer of
    /// magnitude at most 2^20 (the range in which every squared distance the table can
    /// index is computed exactly).
    pub fn kernel_table(&self, max_sq_dist: usize) -> Option<KernelTable> {
        if !self.x_prepared.iter().flatten().all(|&v| is_table_coord(v)) {
            return None;
        }
        self.kernel
            .sq_dist_table(max_sq_dist)
            .map(|values| KernelTable { values })
    }

    /// The [`RowMeans`] table of this GP over the lattice `{0..=bounds[0]} × … ×
    /// {0..=bounds[d−1]}`, with kernel values from `table`. `None` when the table would
    /// hold more than `max_entries` products (`len() · (Σ_{j<d−1} bounds[j]² + 1) ·
    /// (bounds[d−1] + 1)`), when `table` does not reach the lattice's largest squared
    /// distance `Σ bounds[j]²`, or when a prepared training coordinate is not an integer
    /// inside its bound.
    ///
    /// The means equal [`GaussianProcess::predict_many`]'s for lattice points the
    /// kernel prepares to themselves, as [`Rounded`](crate::kernel::Rounded) and
    /// [`Matern52`](crate::kernel::Matern52) do every integer point.
    pub fn row_means(
        &self,
        table: &KernelTable,
        bounds: &[u32],
        max_entries: usize,
    ) -> Option<RowMeans> {
        let (&last, prefix_bounds) = bounds.split_last()?;
        if bounds.len() != self.dim {
            return None;
        }
        let square = |b: u32| u64::from(b) * u64::from(b);
        let prefix_span = prefix_bounds.iter().map(|&b| square(b)).sum::<u64>() + 1;
        let row_len = u64::from(last) + 1;
        if prefix_span - 1 + square(last) >= table.values.len() as u64 {
            return None;
        }
        let entries = (self.len() as u64)
            .checked_mul(prefix_span)?
            .checked_mul(row_len)?;
        if entries > max_entries as u64 {
            return None;
        }
        let mut train = Vec::with_capacity(self.len() * self.dim);
        for xp in &self.x_prepared {
            for (&c, &b) in xp.iter().zip(bounds) {
                if !(is_table_coord(c) && (0.0..=f64::from(b)).contains(&c)) {
                    return None;
                }
                train.push(c as u32);
            }
        }
        // Within the table, so both spans fit in `usize`.
        let (prefix_span, row_len) = (prefix_span as usize, row_len as usize);
        let n = self.len();
        let starts: Vec<usize> = (0..n).map(|i| i * prefix_span * row_len).collect();
        let mut share_at = Vec::with_capacity(prefix_bounds.len());
        let mut shares = Vec::new();
        for (j, &b) in prefix_bounds.iter().enumerate() {
            share_at.push(shares.len());
            for q in 0..=b {
                for point in train.chunks_exact(self.dim) {
                    let w = point[j].abs_diff(q) as usize;
                    shares.push(w * w * row_len);
                }
            }
        }
        let mut products = Vec::with_capacity(entries as usize + ROW_LANES);
        for (point, &a) in train.chunks_exact(self.dim).zip(&self.alpha) {
            let c = point[self.dim - 1];
            for p in 0..prefix_span {
                for v in 0..row_len as u32 {
                    let w = c.abs_diff(v) as usize;
                    products.push(table.values[p + w * w] * a);
                }
            }
        }
        products.extend([0.0; ROW_LANES]);
        Some(RowMeans {
            bounds: bounds.to_vec(),
            n,
            starts,
            shares,
            share_at,
            products,
            prior_mean: self.prior_mean,
        })
    }

    /// Batch prediction: writes into `out[j]` the posterior [`GaussianProcess::predict`]
    /// returns for the point `coords[j·d .. (j+1)·d]` (`d` = [`GaussianProcess::dim`]),
    /// bit for bit. This is the acquisition scan's hot path.
    ///
    /// Points are scored [`PREDICT_LANES`] per pass, one lane per point: each lane runs
    /// `predict`'s operations in `predict`'s order (every sum starts from the value
    /// `f64`'s `Sum` starts from, as `dot` does), so the forward solves of the lanes are
    /// independent chains the CPU overlaps instead of one serial chain per point.
    ///
    /// `table` is this GP's [`GaussianProcess::kernel_table`]. A pass looks kernel values
    /// up in it when every prepared coordinate of its points is an integer of magnitude
    /// at most 2^20 and the squared distance is within the table, and evaluates the
    /// kernel otherwise; the [`Kernel::sq_dist_table`] contract makes both give the same
    /// bits.
    ///
    /// # Errors
    /// [`GpError::QueryDimensionMismatch`] when `coords.len() != out.len() · d`, and
    /// [`GpError::NonFinite`] when a posterior is not finite.
    pub fn predict_many(
        &self,
        coords: &[f64],
        table: Option<&KernelTable>,
        out: &mut [Posterior],
    ) -> Result<(), GpError> {
        let d = self.dim;
        if coords.len() != out.len() * d {
            return Err(GpError::QueryDimensionMismatch {
                expected: out.len() * d,
                got: coords.len(),
            });
        }
        if d == 0 {
            // No coordinates to batch: every point is the same empty point.
            for post in out.iter_mut() {
                *post = self.predict(&[])?;
            }
            return Ok(());
        }
        const L: usize = PREDICT_LANES;
        let n = self.x.len();
        let zero: f64 = std::iter::empty::<f64>().sum();
        // Lane-major prepared points and their dims-major copy, then the
        // cross-covariances and the forward solve, each `[lane 0, …, lane L-1]` per
        // coordinate or training point.
        let mut prepared = vec![0.0; L * d];
        let mut by_dim = vec![[0.0; L]; d];
        let mut k_star = vec![[0.0; L]; n];
        let mut v = vec![[0.0; L]; n];
        for (group, posts) in coords.chunks(L * d).zip(out.chunks_mut(L)) {
            let live = posts.len();
            for l in 0..L {
                // Idle tail lanes repeat the group's last point; they are never written.
                let j = l.min(live - 1);
                let lane = &mut prepared[l * d..(l + 1) * d];
                lane.copy_from_slice(&group[j * d..(j + 1) * d]);
                self.kernel.prepare_in_place(lane);
            }
            // A branch-free fold: it vectorizes, where `all` would stop at each element.
            let integral = prepared.iter().fold(true, |ok, &c| ok & is_table_coord(c));
            match table.filter(|_| integral) {
                Some(t) => {
                    for (dim, lanes) in by_dim.iter_mut().enumerate() {
                        for (l, c) in lanes.iter_mut().enumerate() {
                            *c = prepared[l * d + dim];
                        }
                    }
                    let max_sq_dist = (t.values.len() - 1) as f64;
                    for (ks, xp) in k_star.iter_mut().zip(&self.x_prepared) {
                        // Exact: integer coordinates of magnitude ≤ 2^20.
                        let mut d2 = [0.0; L];
                        for (&x, lanes) in xp.iter().zip(&by_dim) {
                            for l in 0..L {
                                let diff = x - lanes[l];
                                d2[l] += diff * diff;
                            }
                        }
                        for (l, k) in ks.iter_mut().enumerate() {
                            *k = if d2[l] <= max_sq_dist {
                                t.values[exact_index(d2[l])]
                            } else {
                                self.kernel.eval_prepared(xp, &prepared[l * d..][..d])
                            };
                        }
                    }
                }
                None => {
                    for (ks, xp) in k_star.iter_mut().zip(&self.x_prepared) {
                        for (l, k) in ks.iter_mut().enumerate() {
                            *k = self.kernel.eval_prepared(xp, &prepared[l * d..][..d]);
                        }
                    }
                }
            }
            // mean = prior + k*·α
            let mut mean = [zero; L];
            for (ks, &a) in k_star.iter().zip(&self.alpha) {
                for l in 0..L {
                    mean[l] += ks[l] * a;
                }
            }
            // v = L⁻¹ k*, row by row as `Cholesky::solve_lower_into` runs it.
            let factor = self.chol.l();
            for i in 0..n {
                let row = factor.row(i);
                let mut sum = k_star[i];
                for (&lik, vk) in row[..i].iter().zip(&v[..i]) {
                    for l in 0..L {
                        sum[l] -= lik * vk[l];
                    }
                }
                for l in 0..L {
                    v[i][l] = sum[l] / row[i];
                }
            }
            let mut vv = [zero; L];
            for vi in &v {
                for l in 0..L {
                    vv[l] += vi[l] * vi[l];
                }
            }
            for (l, post) in posts.iter_mut().enumerate() {
                let diag = self.kernel.diag_prepared(&prepared[l * d..(l + 1) * d]);
                let m = self.prior_mean + mean[l];
                let var = (diag - vv[l]).max(0.0);
                if !m.is_finite() || !var.is_finite() {
                    return Err(GpError::NonFinite);
                }
                *post = Posterior {
                    mean: m,
                    variance: var,
                };
            }
        }
        Ok(())
    }

    /// Shared single-point posterior computation writing intermediates into caller-owned
    /// buffers (each of length `self.len()`).
    fn predict_with_buffers(
        &self,
        q: &[f64],
        k_star: &mut [f64],
        v: &mut [f64],
    ) -> Result<Posterior, GpError> {
        if q.len() != self.dim {
            return Err(GpError::QueryDimensionMismatch {
                expected: self.dim,
                got: q.len(),
            });
        }
        let q_prepared = self.kernel.prepare(q);
        for (ks, xp) in k_star.iter_mut().zip(&self.x_prepared) {
            *ks = self.kernel.eval_prepared(xp, &q_prepared);
        }
        let mean = self.prior_mean + ribbon_linalg::dot(k_star, &self.alpha);
        // v = L⁻¹ k*; var = k(q,q) − vᵀv
        self.chol
            .solve_lower_into(k_star, v)
            .map_err(GpError::Factorization)?;
        let variance = (self.kernel.diag_prepared(&q_prepared) - ribbon_linalg::dot(v, v)).max(0.0);
        if !mean.is_finite() || !variance.is_finite() {
            return Err(GpError::NonFinite);
        }
        Ok(Posterior { mean, variance })
    }

    /// Log marginal likelihood of the training data under this GP:
    /// `−½ yᵀα − ½ log|K + σ_n²I| − n/2 log 2π`.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.x.len() as f64;
        let data_fit = -0.5 * ribbon_linalg::dot(&self.y_centered, &self.alpha);
        let complexity = -0.5 * self.chol.log_det();
        let norm = -0.5 * n * (2.0 * std::f64::consts::PI).ln();
        data_fit + complexity + norm
    }

    /// The configuration used to fit this GP.
    pub fn config(&self) -> &GpConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Matern52, Rounded, SquaredExponential};
    use proptest::prelude::*;

    fn xs_1d(vals: &[f64]) -> Vec<Vec<f64>> {
        vals.iter().map(|&v| vec![v]).collect()
    }

    #[test]
    fn fit_rejects_empty_data() {
        let gp = GaussianProcess::fit(
            Matern52::default_unit(),
            vec![],
            vec![],
            GpConfig::default(),
        );
        assert!(matches!(gp, Err(GpError::NoData)));
    }

    #[test]
    fn fit_rejects_length_mismatch() {
        let gp = GaussianProcess::fit(
            Matern52::default_unit(),
            xs_1d(&[1.0, 2.0]),
            vec![1.0],
            GpConfig::default(),
        );
        assert!(matches!(gp, Err(GpError::LengthMismatch { .. })));
    }

    #[test]
    fn fit_rejects_ragged_inputs() {
        let gp = GaussianProcess::fit(
            Matern52::default_unit(),
            vec![vec![1.0, 2.0], vec![3.0]],
            vec![1.0, 2.0],
            GpConfig::default(),
        );
        assert!(matches!(gp, Err(GpError::DimensionMismatch { .. })));
    }

    #[test]
    fn fit_rejects_nan_targets() {
        let gp = GaussianProcess::fit(
            Matern52::default_unit(),
            xs_1d(&[1.0, 2.0]),
            vec![1.0, f64::NAN],
            GpConfig::default(),
        );
        assert!(matches!(gp, Err(GpError::NonFinite)));
    }

    #[test]
    fn predict_rejects_wrong_dimension() {
        let gp = GaussianProcess::fit(
            Matern52::default_unit(),
            vec![vec![1.0, 2.0]],
            vec![0.5],
            GpConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            gp.predict(&[1.0]),
            Err(GpError::QueryDimensionMismatch { .. })
        ));
    }

    #[test]
    fn gp_interpolates_training_points_with_small_noise() {
        let x = xs_1d(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let y: Vec<f64> = x.iter().map(|v| (v[0] * 0.9).sin()).collect();
        let gp = GaussianProcess::fit(
            Matern52::new(1.0, 1.0),
            x.clone(),
            y.clone(),
            GpConfig {
                noise_variance: 1e-8,
                ..GpConfig::default()
            },
        )
        .unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let p = gp.predict(xi).unwrap();
            assert!(
                (p.mean - yi).abs() < 1e-3,
                "mean {} vs target {}",
                p.mean,
                yi
            );
            assert!(
                p.variance < 1e-3,
                "variance {} too large at training point",
                p.variance
            );
        }
    }

    #[test]
    fn posterior_variance_grows_away_from_data() {
        let x = xs_1d(&[0.0, 1.0, 2.0]);
        let y = vec![0.0, 1.0, 0.0];
        let gp = GaussianProcess::fit(Matern52::new(1.0, 1.0), x, y, GpConfig::default()).unwrap();
        let near = gp.predict(&[1.0]).unwrap().variance;
        let far = gp.predict(&[10.0]).unwrap().variance;
        assert!(far > near);
        // Far from data the variance approaches the prior variance.
        assert!((far - 1.0).abs() < 0.05, "far variance {far}");
    }

    #[test]
    fn posterior_mean_reverts_to_prior_mean_far_from_data() {
        let x = xs_1d(&[0.0, 1.0]);
        let y = vec![4.0, 6.0];
        let gp = GaussianProcess::fit(Matern52::new(1.0, 1.0), x, y, GpConfig::default()).unwrap();
        let far = gp.predict(&[100.0]).unwrap();
        assert!(
            (far.mean - 5.0).abs() < 1e-6,
            "far mean {} should revert to 5.0",
            far.mean
        );
        assert_eq!(gp.prior_mean(), 5.0);
    }

    #[test]
    fn zero_mean_config_reverts_to_zero() {
        let gp = GaussianProcess::fit(
            Matern52::new(1.0, 1.0),
            xs_1d(&[0.0]),
            vec![3.0],
            GpConfig {
                empirical_mean: false,
                ..GpConfig::default()
            },
        )
        .unwrap();
        assert!((gp.predict(&[50.0]).unwrap().mean).abs() < 1e-9);
    }

    #[test]
    fn noisier_gp_has_larger_variance_at_training_points() {
        let x = xs_1d(&[0.0, 1.0, 2.0]);
        let y = vec![1.0, -1.0, 1.0];
        let low = GaussianProcess::fit(
            Matern52::new(1.0, 1.0),
            x.clone(),
            y.clone(),
            GpConfig {
                noise_variance: 1e-8,
                ..GpConfig::default()
            },
        )
        .unwrap();
        let high = GaussianProcess::fit(
            Matern52::new(1.0, 1.0),
            x,
            y,
            GpConfig {
                noise_variance: 0.5,
                ..GpConfig::default()
            },
        )
        .unwrap();
        assert!(high.predict(&[1.0]).unwrap().variance > low.predict(&[1.0]).unwrap().variance);
    }

    #[test]
    fn log_marginal_likelihood_prefers_correct_length_scale() {
        // Smooth, slowly varying data should favour a longer length scale over a tiny one.
        let x = xs_1d(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y: Vec<f64> = x.iter().map(|v| (v[0] * 0.3).sin()).collect();
        let cfg = GpConfig {
            noise_variance: 1e-4,
            ..GpConfig::default()
        };
        let good = GaussianProcess::fit(Matern52::new(1.0, 2.0), x.clone(), y.clone(), cfg.clone())
            .unwrap()
            .log_marginal_likelihood();
        let bad = GaussianProcess::fit(Matern52::new(1.0, 0.05), x, y, cfg)
            .unwrap()
            .log_marginal_likelihood();
        assert!(good > bad, "lml good {good} should beat bad {bad}");
    }

    #[test]
    fn rounded_kernel_gp_is_piecewise_constant() {
        let x = xs_1d(&[1.0, 2.0, 3.0, 4.0]);
        let y = vec![0.2, 0.8, 0.5, 0.9];
        let gp = GaussianProcess::fit(
            Rounded::new(Matern52::new(1.0, 1.0)),
            x,
            y,
            GpConfig::default(),
        )
        .unwrap();
        // All query points within the rounding cell of 2 give the same posterior.
        let a = gp.predict(&[1.6]).unwrap();
        let b = gp.predict(&[2.4]).unwrap();
        assert!((a.mean - b.mean).abs() < 1e-12);
        assert!((a.variance - b.variance).abs() < 1e-12);
        // While crossing to the cell of 3 changes it.
        let c = gp.predict(&[2.6]).unwrap();
        assert!((a.mean - c.mean).abs() > 1e-6);
    }

    #[test]
    fn works_with_single_observation() {
        let gp = GaussianProcess::fit(
            SquaredExponential::new(1.0, 1.0),
            vec![vec![2.0, 2.0]],
            vec![7.0],
            GpConfig::default(),
        )
        .unwrap();
        let p = gp.predict(&[2.0, 2.0]).unwrap();
        assert!((p.mean - 7.0).abs() < 1e-6);
        assert_eq!(gp.len(), 1);
        assert!(!gp.is_empty());
    }

    #[test]
    fn duplicate_inputs_do_not_break_factorization() {
        // Duplicate rows make the kernel matrix singular without noise/jitter.
        let x = vec![vec![1.0], vec![1.0], vec![2.0]];
        let y = vec![0.5, 0.5, 1.0];
        let gp = GaussianProcess::fit(
            Matern52::new(1.0, 1.0),
            x,
            y,
            GpConfig {
                noise_variance: 0.0,
                ..GpConfig::default()
            },
        )
        .unwrap();
        assert!(gp.predict(&[1.5]).unwrap().mean.is_finite());
    }

    /// Asserts two GPs produce bit-identical posteriors over a probe grid.
    fn assert_same_posteriors<K: Kernel>(a: &GaussianProcess<K>, b: &GaussianProcess<K>) {
        for q in [-3.0, -0.4, 0.7, 1.5, 2.49, 2.51, 8.0] {
            let pa = a.predict(&[q]).unwrap();
            let pb = b.predict(&[q]).unwrap();
            assert_eq!(pa, pb, "posteriors diverge at {q}");
        }
        assert_eq!(a.prior_mean(), b.prior_mean());
        assert_eq!(a.log_marginal_likelihood(), b.log_marginal_likelihood());
    }

    #[test]
    fn append_observation_is_bit_identical_to_full_refit() {
        let xs: [f64; 7] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let ys: Vec<f64> = xs.iter().map(|v| (v * 0.8).sin() * 0.4 + 0.5).collect();
        let cfg = GpConfig::default();
        let mut incremental = GaussianProcess::fit(
            Rounded::new(Matern52::new(0.3, 1.5)),
            xs_1d(&xs[..2]),
            ys[..2].to_vec(),
            cfg.clone(),
        )
        .unwrap();
        for i in 2..xs.len() {
            incremental.append_observation(vec![xs[i]], ys[i]).unwrap();
            let full = GaussianProcess::fit(
                Rounded::new(Matern52::new(0.3, 1.5)),
                xs_1d(&xs[..=i]),
                ys[..=i].to_vec(),
                cfg.clone(),
            )
            .unwrap();
            assert_eq!(incremental.len(), i + 1);
            assert_same_posteriors(&incremental, &full);
        }
    }

    #[test]
    fn append_observation_falls_back_to_refit_on_duplicate_inputs() {
        // Zero noise + duplicate rows force the jitter path, which cannot be extended
        // incrementally — the append must fall back to a full refit and still match it.
        let cfg = GpConfig {
            noise_variance: 0.0,
            ..GpConfig::default()
        };
        let mut incremental = GaussianProcess::fit(
            Matern52::new(1.0, 1.0),
            xs_1d(&[1.0, 2.0]),
            vec![0.5, 1.0],
            cfg.clone(),
        )
        .unwrap();
        incremental.append_observation(vec![1.0], 0.5).unwrap();
        let full = GaussianProcess::fit(
            Matern52::new(1.0, 1.0),
            xs_1d(&[1.0, 2.0, 1.0]),
            vec![0.5, 1.0, 0.5],
            cfg,
        )
        .unwrap();
        assert_same_posteriors(&incremental, &full);
        // Appending onto the now-jittered factor must keep falling back correctly.
        incremental.append_observation(vec![3.0], 0.2).unwrap();
        assert_eq!(incremental.len(), 4);
        assert!(incremental.predict(&[1.5]).unwrap().mean.is_finite());
    }

    #[test]
    fn append_observation_rejects_bad_inputs() {
        let mut gp = GaussianProcess::fit(
            Matern52::default_unit(),
            vec![vec![1.0, 2.0]],
            vec![0.5],
            GpConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            gp.append_observation(vec![1.0], 0.5),
            Err(GpError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            gp.append_observation(vec![1.0, f64::NAN], 0.5),
            Err(GpError::NonFinite)
        ));
        assert!(matches!(
            gp.append_observation(vec![1.0, 2.0], f64::INFINITY),
            Err(GpError::NonFinite)
        ));
    }

    #[test]
    fn predict_many_matches_individual_predictions() {
        let x = xs_1d(&[0.0, 1.0, 2.0]);
        let y = vec![0.1, 0.9, 0.4];
        let gp = GaussianProcess::fit(Matern52::new(1.0, 1.5), x, y, GpConfig::default()).unwrap();
        let qs = [0.5, 1.5, 3.0];
        let mut batch = [Posterior {
            mean: 0.0,
            variance: 0.0,
        }; 3];
        gp.predict_many(&qs, None, &mut batch).unwrap();
        for (q, b) in qs.iter().zip(&batch) {
            assert_eq!(*b, gp.predict(&[*q]).unwrap());
        }
    }

    #[test]
    fn error_display_messages() {
        assert!(GpError::NoData.to_string().contains("at least one"));
        assert!(GpError::LengthMismatch {
            inputs: 3,
            targets: 2
        }
        .to_string()
        .contains("3"));
        assert!(GpError::QueryDimensionMismatch {
            expected: 2,
            got: 1
        }
        .to_string()
        .contains("expected 2"));
    }

    proptest! {
        #[test]
        fn prop_posterior_variance_nonnegative_and_bounded(seed in 0u64..200, n in 1usize..10, q in -10.0f64..10.0) {
            let mut state = seed.wrapping_add(3);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let x: Vec<Vec<f64>> = (0..n).map(|_| vec![next() * 10.0]).collect();
            let y: Vec<f64> = (0..n).map(|_| next()).collect();
            let gp = GaussianProcess::fit(Matern52::new(1.0, 1.0), x, y, GpConfig::default()).unwrap();
            let p = gp.predict(&[q]).unwrap();
            prop_assert!(p.variance >= 0.0);
            // Posterior variance never exceeds prior variance (plus numerical slack).
            prop_assert!(p.variance <= 1.0 + 1e-6);
            prop_assert!(p.mean.is_finite());
        }

        #[test]
        fn prop_lml_is_finite(seed in 0u64..100, n in 1usize..8) {
            let mut state = seed.wrapping_add(11);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let x: Vec<Vec<f64>> = (0..n).map(|_| vec![next() * 5.0, next() * 5.0]).collect();
            let y: Vec<f64> = (0..n).map(|_| next() * 2.0 - 1.0).collect();
            let gp = GaussianProcess::fit(Matern52::new(1.0, 2.0), x, y, GpConfig::default()).unwrap();
            prop_assert!(gp.log_marginal_likelihood().is_finite());
        }
    }
}
