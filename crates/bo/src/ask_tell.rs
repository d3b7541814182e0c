//! The object-safe ask/tell optimizer interface (yamakan-style).
//!
//! [`crate::BoOptimizer::suggest`] couples *choosing* a configuration to *waiting for its
//! evaluation*: the caller must observe each suggestion before asking for the next one, so
//! a parallel evaluation engine sits idle during the search. The [`Optimizer`] trait
//! decouples the two:
//!
//! * [`Optimizer::ask`] returns a **batch** of up to `q` distinct candidates. Asked
//!   candidates are *in flight*: the optimizer will not hand them out again until they are
//!   either told or forgotten.
//! * [`Optimizer::tell`] ingests one completed evaluation (an [`Outcome`]), in any order.
//! * [`Optimizer::forget`] returns an in-flight candidate to the open pool un-evaluated —
//!   the budget hook for callers that ask more than they can afford to evaluate.
//! * [`Optimizer::remaining`] reports how many distinct candidates are still available.
//!
//! The trait is object-safe end to end (`&mut dyn RngCore`, no generic methods), so a
//! heterogeneous portfolio of strategies — the GP engine, TPE, adapted baselines — can sit
//! behind one `Box<dyn Optimizer>` in a search driver.
//!
//! # Ask/tell lifecycle
//!
//! One full search is a loop of *ask a batch → evaluate it (in parallel) → tell each
//! result*. With `q = 1` the GP engine consumes its RNG exactly like a
//! `suggest`/`observe` loop, so traces are bit-identical; larger `q` trades per-candidate
//! model updates for batched acquisition scans:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use ribbon_bo::{BoOptimizer, BoSettings, ConfigLattice, Optimizer, Outcome};
//!
//! // A 6×6 lattice and a toy objective with its optimum at (3, 4).
//! let lattice = ConfigLattice::new(vec![6, 6]);
//! let objective = |cfg: &[u32]| {
//!     let (dx, dy) = (cfg[0] as f64 - 3.0, cfg[1] as f64 - 4.0);
//!     1.0 - 0.05 * (dx * dx + dy * dy)
//! };
//!
//! let mut opt = BoOptimizer::new(lattice, BoSettings::default());
//! let mut rng = StdRng::seed_from_u64(7);
//! let budget = 12;
//! let mut evaluated = 0;
//!
//! while evaluated < budget {
//!     // Ask for a diverse batch of four candidates...
//!     let batch = opt.ask(&mut rng, 4)?;
//!     if batch.is_empty() {
//!         break; // space exhausted
//!     }
//!     for config in batch {
//!         if evaluated == budget {
//!             // ...hand back what the budget cannot cover...
//!             opt.forget(&config);
//!             continue;
//!         }
//!         // ...evaluate the rest (a real driver runs these in parallel) and tell.
//!         let value = objective(&config);
//!         opt.tell(Outcome::new(config, value))?;
//!         evaluated += 1;
//!     }
//! }
//! assert_eq!(evaluated, budget);
//! # Ok::<(), ribbon_bo::BoError>(())
//! ```
//!
//! The one-at-a-time loop is exactly `ask(rng, 1)` + `tell`; the `ribbon` crate's
//! differential suite pins its traces as literals.

use crate::optimizer::BoError;
use crate::space::Config;
use rand::RngCore;

/// One completed evaluation fed back to an optimizer via [`Optimizer::tell`].
///
/// Carries the objective value plus Ribbon's active-pruning verdicts, which the caller
/// (the search driver) derives from the raw evaluation according to the strategy's own
/// pruning rule — the optimizer just applies them.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The evaluated configuration.
    pub config: Config,
    /// The (maximization) objective value.
    pub value: f64,
    /// `true` when the value is an estimate (e.g. a reduced-fidelity prefix evaluation or
    /// a warm-start injection) rather than a full evaluation.
    pub estimated: bool,
    /// Prune everything dominated by this configuration (it violated QoS badly).
    pub prune_below: bool,
    /// Prune everything that component-wise exceeds this configuration (it satisfied QoS,
    /// so strictly larger pools can only cost more).
    pub prune_above: bool,
}

impl Outcome {
    /// A real (full-fidelity) evaluation with no pruning verdicts.
    pub fn new(config: Config, value: f64) -> Self {
        Outcome {
            config,
            value,
            estimated: false,
            prune_below: false,
            prune_above: false,
        }
    }

    /// An estimated (reduced-fidelity or injected) evaluation. Estimates never carry
    /// pruning verdicts: a prefix-stream judgment is not evidence about the full stream.
    pub fn estimate(config: Config, value: f64) -> Self {
        Outcome {
            config,
            value,
            estimated: true,
            prune_below: false,
            prune_above: false,
        }
    }

    /// Attaches pruning verdicts (builder style).
    pub fn with_prunes(mut self, below: bool, above: bool) -> Self {
        self.prune_below = below;
        self.prune_above = above;
        self
    }
}

/// An ask/tell configuration optimizer over an integer lattice (see the module docs for
/// the lifecycle).
///
/// Implementations: [`crate::BoOptimizer`] (incremental-GP Bayesian optimization with
/// local-penalty batch diversification), [`crate::TpeOptimizer`] (tree-structured Parzen
/// estimator), and the baseline-strategy adapters in the `ribbon` crate.
pub trait Optimizer {
    /// Returns up to `q` distinct candidates to evaluate next (fewer when the open space
    /// is smaller; never empty — an exhausted space is [`BoError::SpaceExhausted`]).
    /// Returned candidates are in flight until [`Optimizer::tell`]ed or
    /// [`Optimizer::forget`]ten.
    fn ask(&mut self, rng: &mut dyn RngCore, q: usize) -> Result<Vec<Config>, BoError>;

    /// Ingests one completed evaluation. Returns `true` when the outcome was recorded
    /// into the optimizer's history, `false` when it was discarded (e.g. an adapter
    /// whose pruning rule had already invalidated the candidate mid-batch) — the caller
    /// should only count recorded outcomes against its budget.
    fn tell(&mut self, outcome: Outcome) -> Result<bool, BoError>;

    /// Returns an in-flight candidate to the open pool without an evaluation.
    /// Unknown configurations are ignored.
    fn forget(&mut self, config: &[u32]);

    /// Upper bound on how many further distinct candidates this optimizer can ask
    /// (`None` when unknown). `Some(0)` means the space is exhausted.
    fn remaining(&self) -> Option<usize>;
}
