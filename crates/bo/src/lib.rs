//! Bayesian-Optimization engine for Ribbon.
//!
//! Ribbon searches an **integer configuration lattice** — the number of instances of each
//! cloud instance type, `x = [x_1, ..., x_n]` with `0 ≤ x_i ≤ m_i` — for the configuration
//! maximizing the paper's objective (Eq. 2). The search space is small enough (hundreds to a
//! few thousand points) that the acquisition function can be maximized by exhaustive
//! enumeration of the *un-sampled, un-pruned* lattice points, which is exactly how the paper
//! describes Ribbon's behaviour ("whenever the acquisition function has the highest value for
//! a configuration lying inside the \[prune\] set P, Ribbon avoids sampling it and samples the
//! next best configuration").
//!
//! The crate is model-agnostic: it owns the observation history, the candidate lattice, the
//! GP refit, and the acquisition maximization, but knows nothing about QoS, prices, or cloud
//! simulation — those live in the `ribbon` crate, which supplies the objective values.

pub mod acquisition;
pub mod ask_tell;
pub mod optimizer;
pub mod space;
pub mod tpe;

pub use acquisition::{
    expected_improvement, probability_of_improvement, upper_confidence_bound, Acquisition,
};
pub use ask_tell::{Optimizer, Outcome};
pub use optimizer::{BoError, BoOptimizer, BoSettings, Observation, Suggestion};
pub use space::{ConfigLattice, OpenSet, PruneSet, MAX_LATTICE_POINTS};
pub use tpe::{TpeOptimizer, TpeSettings};
