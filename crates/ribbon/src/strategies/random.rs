//! The RANDOM baseline of Sec. 5.3.
//!
//! "This is a relatively simple strategy that evaluates different random configurations in
//! the search space. To make it more intelligent, we do not evaluate a randomly picked
//! configuration if a previous configuration with a higher number of instances for each type
//! does not meet the QoS target, or a previous configuration with a lower number of instances
//! for each type meets the QoS at a lower cost."
//!
//! Both skip rules are exactly the dominance boxes of [`ribbon_bo::PruneSet`], so the
//! implementation reuses it: a violator rules out everything with fewer instances of
//! every type, a satisfier everything with more (those are strictly more expensive).
//! The search runs as [`RandomAdapter`]: one seeded shuffle of the lattice ranks,
//! filtered through the prune set as candidates are asked. A round of candidates holds
//! no two comparable configurations, so no member's outcome can rule out another: the
//! round evaluates exactly what sampling one at a time would, and the trace is the same
//! at every ask width.

use super::{drive, RandomAdapter, SearchStrategy, DEFAULT_ASK_CHUNK};
use crate::evaluator::{ConfigEvaluator, Evaluation};
use crate::search::{SearchDriver, SearchTrace};
use ribbon_bo::Outcome;

/// Random configuration sampling with dominance-based skipping.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    /// Maximum number of configurations to evaluate.
    pub max_evaluations: usize,
    /// Candidates asked per round (the trace is the same at every width).
    pub batch: usize,
    /// Optional multi-fidelity fraction in `(0, 1)`.
    pub fidelity: Option<f64>,
}

impl RandomSearch {
    /// Creates a random search with the given evaluation budget.
    pub fn new(max_evaluations: usize) -> Self {
        RandomSearch {
            max_evaluations,
            batch: DEFAULT_ASK_CHUNK,
            fidelity: None,
        }
    }

    /// Sets the ask-batch size (clamped to at least 1).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Sets the multi-fidelity fraction (see [`SearchDriver::with_fidelity`]).
    pub fn with_fidelity(mut self, fidelity: Option<f64>) -> Self {
        self.fidelity = fidelity;
        self
    }
}

impl SearchStrategy for RandomSearch {
    fn name(&self) -> &str {
        "RANDOM"
    }

    fn run_search(&self, evaluator: &ConfigEvaluator, seed: u64) -> SearchTrace {
        let target_rate = evaluator.objective().target_rate();
        let outcome_of = |e: &Evaluation| {
            let below = e.satisfaction_rate < target_rate;
            Outcome::new(e.config.clone(), e.objective).with_prunes(below, !below)
        };
        drive(
            self.name(),
            SearchDriver::new(evaluator)
                .with_batch(self.batch)
                .with_fidelity(self.fidelity),
            &mut RandomAdapter::new(evaluator.lattice()),
            seed,
            self.max_evaluations,
            &outcome_of,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::small_evaluator;
    use super::*;
    use ribbon_bo::space::dominated_by;

    #[test]
    fn respects_the_budget_and_never_repeats() {
        let ev = small_evaluator();
        let trace = RandomSearch::new(12).run_search(&ev, 5);
        assert!(trace.len() <= 12);
        let mut seen = std::collections::HashSet::new();
        for e in trace.evaluations() {
            assert!(seen.insert(e.config.clone()));
        }
    }

    #[test]
    fn skip_rule_never_samples_configs_dominated_by_a_violator() {
        let ev = small_evaluator();
        let trace = RandomSearch::new(40).run_search(&ev, 7);
        // Replay the trace: once a violator is seen, no later sample may be dominated by it.
        for (i, earlier) in trace.evaluations().iter().enumerate() {
            if earlier.meets_qos {
                continue;
            }
            for later in &trace.evaluations()[i + 1..] {
                assert!(
                    !dominated_by(&later.config, &earlier.config),
                    "{:?} dominated by earlier violator {:?}",
                    later.config,
                    earlier.config
                );
            }
        }
    }

    #[test]
    fn skip_rule_never_samples_configs_dominating_a_satisfier() {
        let ev = small_evaluator();
        let trace = RandomSearch::new(40).run_search(&ev, 9);
        for (i, earlier) in trace.evaluations().iter().enumerate() {
            if !earlier.meets_qos {
                continue;
            }
            for later in &trace.evaluations()[i + 1..] {
                assert!(
                    !(dominated_by(&earlier.config, &later.config)
                        && later.config != earlier.config),
                    "{:?} dominates earlier satisfier {:?}",
                    later.config,
                    earlier.config
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_sampling_orders() {
        let ev = small_evaluator();
        let a: Vec<_> = RandomSearch::new(10)
            .run_search(&ev, 1)
            .evaluations()
            .iter()
            .map(|e| e.config.clone())
            .collect();
        let b: Vec<_> = RandomSearch::new(10)
            .run_search(&ev, 2)
            .evaluations()
            .iter()
            .map(|e| e.config.clone())
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_is_reproducible() {
        let ev = small_evaluator();
        let a: Vec<_> = RandomSearch::new(10)
            .run_search(&ev, 3)
            .evaluations()
            .iter()
            .map(|e| e.config.clone())
            .collect();
        let b: Vec<_> = RandomSearch::new(10)
            .run_search(&ev, 3)
            .evaluations()
            .iter()
            .map(|e| e.config.clone())
            .collect();
        assert_eq!(a, b);
    }
}
