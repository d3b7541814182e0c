//! Gaussian-Process regression, written from scratch for Ribbon.
//!
//! Ribbon (Li et al., SC'21) uses a GP surrogate with a **Matérn 5/2** covariance kernel
//! wrapped in an integer **rounding kernel** (Eq. 3 of the paper) so that the surrogate's
//! shape matches the step-like true objective over integer instance counts, and an
//! **Expected Improvement** acquisition function on top of the GP posterior.
//!
//! This crate provides:
//!
//! * the kernel zoo ([`kernel`]) — Matérn 5/2 (Ribbon's choice), squared exponential,
//!   rational quadratic and dot product (the alternatives the paper discusses and rejects),
//!   plus the [`kernel::Rounded`] wrapper implementing Eq. 3;
//! * exact GP regression ([`regression::GaussianProcess`]) with Cholesky-based posterior
//!   mean/variance, log marginal likelihood, and jitter handling;
//! * simple, dependency-free hyperparameter selection ([`fit`]) by grid search over the
//!   log marginal likelihood — adequate for the tiny (≤ a few dozen points) datasets BO sees.

pub mod fit;
pub mod kernel;
pub mod regression;

pub use fit::{fit_gp, FitConfig, GridFit, IncrementalGridGp};
pub use kernel::{DotProduct, Kernel, Matern52, RationalQuadratic, Rounded, SquaredExponential};
pub use regression::{
    GaussianProcess, GpConfig, GpError, KernelTable, Posterior, RowCursor, RowMeans, PREDICT_LANES,
};
