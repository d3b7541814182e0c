//! The competing search strategies of Sec. 5.3.
//!
//! Every strategy implements [`SearchStrategy`]: given a [`ConfigEvaluator`] it produces a
//! [`SearchTrace`] — the ordered list of configurations it chose to evaluate. The trace is the
//! raw material for every comparison in the paper's evaluation (samples-to-savings, Fig. 10;
//! exploration cost, Fig. 13; QoS-violating samples, Fig. 14).
//!
//! * [`RandomSearch`] — random sampling with the paper's dominance-based skip rule;
//! * [`HillClimbSearch`] — steepest-ascent hill climbing with random restarts;
//! * [`ResponseSurfaceSearch`] — a 3-level face-centered central-composite design followed by
//!   local exploration around the best design point;
//! * [`ExhaustiveSearch`] — evaluates the entire lattice (ground truth / normalization);
//! * [`TpeSearch`] — a tree-structured Parzen estimator;
//! * [`crate::RibbonSearch`] — Ribbon itself (defined in [`crate::search`], re-exported here
//!   through the trait).
//!
//! Every strategy runs through the one search loop, [`crate::search::SearchDriver`]. Each
//! baseline is an ask/tell [`ribbon_bo::Optimizer`] state machine (its adapter) whose
//! decisions run once everything asked before them has been told, so its trace does not
//! depend on how many candidates a round asks for: unless a batch is set, a baseline asks
//! for [`DEFAULT_ASK_CHUNK`] candidates a round and the parallel evaluator runs them
//! together.

mod adapters;
mod exhaustive;
mod hill_climb;
mod random;
mod rsm;
mod tpe;

pub use adapters::{ExhaustiveAdapter, HillClimbAdapter, RandomAdapter, RsmAdapter};
pub use exhaustive::ExhaustiveSearch;
pub use hill_climb::HillClimbSearch;
pub use random::RandomSearch;
pub use rsm::ResponseSurfaceSearch;
pub use tpe::TpeSearch;

use crate::evaluator::{ConfigEvaluator, Evaluation};
use crate::search::{RibbonSearch, SearchDriver, SearchTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ribbon_bo::{Optimizer, Outcome};

/// Candidates a baseline asks per round when no batch is set. A baseline's trace is the
/// same at every ask width (the `ask_tell_differential` suite checks widths 1 to 64 and
/// this one), so the width only caps how many evaluations one parallel
/// [`ConfigEvaluator::evaluate_many`] call runs; the driver also caps each ask at the
/// remaining budget.
pub const DEFAULT_ASK_CHUNK: usize = 256;

/// A configuration-search strategy.
///
/// The trait is object-safe end to end: `name` borrows from `self` (so trait objects can
/// compute or store their names), and blanket implementations cover `&T` and boxed
/// strategies — a heterogeneous `Vec<Box<dyn SearchStrategy>>` can be passed anywhere a
/// concrete strategy can (the CLI's `--planners` list relies on this).
pub trait SearchStrategy {
    /// Short display name used in experiment output ("RIBBON", "Hill-Climb", ...).
    fn name(&self) -> &str;

    /// Runs the strategy against an evaluator with a deterministic seed.
    fn run_search(&self, evaluator: &ConfigEvaluator, seed: u64) -> SearchTrace;
}

impl<T: SearchStrategy + ?Sized> SearchStrategy for &T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn run_search(&self, evaluator: &ConfigEvaluator, seed: u64) -> SearchTrace {
        (**self).run_search(evaluator, seed)
    }
}

impl<T: SearchStrategy + ?Sized> SearchStrategy for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn run_search(&self, evaluator: &ConfigEvaluator, seed: u64) -> SearchTrace {
        (**self).run_search(evaluator, seed)
    }
}

/// Runs `opt` through the [`SearchDriver`] from an empty trace named `name`, with the
/// RNG seeded by `seed`: how every strategy but RIBBON (which can start from a
/// warm-started optimizer) runs its search.
fn drive(
    name: &str,
    driver: SearchDriver<'_>,
    opt: &mut dyn Optimizer,
    seed: u64,
    budget: usize,
    outcome_of: &dyn Fn(&Evaluation) -> Outcome,
) -> SearchTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = SearchTrace::new(name);
    driver.run(opt, &mut rng, budget, outcome_of, &mut trace);
    trace
}

impl SearchStrategy for RibbonSearch {
    fn name(&self) -> &str {
        "RIBBON"
    }

    fn run_search(&self, evaluator: &ConfigEvaluator, seed: u64) -> SearchTrace {
        self.run(evaluator, seed)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::evaluator::{ConfigEvaluator, EvaluatorSettings};
    use ribbon_models::{ModelKind, Workload};

    /// A small MT-WND evaluator shared by the strategy tests: 800 queries, 6x4x6 lattice.
    pub(crate) fn small_evaluator() -> ConfigEvaluator {
        let mut w = Workload::standard(ModelKind::MtWnd);
        w.num_queries = 800;
        ConfigEvaluator::new(
            &w,
            EvaluatorSettings {
                explicit_bounds: Some(vec![6, 4, 6]),
                ..Default::default()
            },
        )
    }

    /// An even smaller lattice for exhaustive comparisons.
    pub(crate) fn tiny_evaluator() -> ConfigEvaluator {
        let mut w = Workload::standard(ModelKind::MtWnd);
        w.num_queries = 600;
        ConfigEvaluator::new(
            &w,
            EvaluatorSettings {
                explicit_bounds: Some(vec![5, 0, 4]),
                ..Default::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::small_evaluator;
    use super::*;
    use crate::search::RibbonSettings;

    #[test]
    fn ribbon_implements_the_strategy_trait() {
        let ev = small_evaluator();
        let strategy = RibbonSearch::new(RibbonSettings {
            max_evaluations: 5,
            ..RibbonSettings::fast()
        });
        assert_eq!(strategy.name(), "RIBBON");
        let trace = strategy.run_search(&ev, 1);
        assert!(!trace.is_empty());
        assert!(trace.len() <= 5);
    }

    #[test]
    fn boxed_and_borrowed_strategies_run_like_concrete_ones() {
        fn run_generic<S: SearchStrategy>(s: S, ev: &ConfigEvaluator, seed: u64) -> SearchTrace {
            s.run_search(ev, seed)
        }
        let ev = super::test_support::tiny_evaluator();
        let concrete = RandomSearch::new(4);
        let direct = run_generic(&concrete, &ev, 9);
        let boxed: Box<dyn SearchStrategy + Send + Sync> = Box::new(RandomSearch::new(4));
        assert_eq!(boxed.name(), concrete.name());
        let via_box = run_generic(boxed, &ev, 9);
        assert_eq!(direct.evaluations(), via_box.evaluations());
        let dyn_ref: &dyn SearchStrategy = &concrete;
        let via_ref = run_generic(dyn_ref, &ev, 9);
        assert_eq!(direct.evaluations(), via_ref.evaluations());
    }

    #[test]
    fn all_strategies_have_distinct_names() {
        let strategies: Vec<Box<dyn SearchStrategy>> = vec![
            Box::new(RibbonSearch::default()),
            Box::new(RandomSearch::new(10)),
            Box::new(HillClimbSearch::new(10)),
            Box::new(ResponseSurfaceSearch::new(10)),
            Box::new(ExhaustiveSearch::default()),
        ];
        let names: Vec<String> = strategies.iter().map(|s| s.name().to_string()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
