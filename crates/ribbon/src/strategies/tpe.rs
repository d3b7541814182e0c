//! The TPE (tree-structured Parzen estimator) strategy.
//!
//! A model-based alternative to the GP engine built on [`ribbon_bo::TpeOptimizer`]:
//! observations are split into a good and a bad set by objective value, per-dimension
//! categorical Parzen densities are fitted over each, and candidates maximizing the
//! density ratio are asked next. TPE runs natively through the ask/tell
//! [`crate::search::SearchDriver`] — batched asks and multi-fidelity successive halving
//! come for free — and applies Ribbon's active-pruning rule to each told outcome, so its
//! traces are directly comparable to the RIBBON planner's.

use super::{drive, SearchStrategy};
use crate::evaluator::{ConfigEvaluator, Evaluation};
use crate::search::{SearchDriver, SearchTrace};
use ribbon_bo::{Outcome, TpeOptimizer, TpeSettings};

/// TPE-driven configuration search with Ribbon's pruning rule.
#[derive(Debug, Clone)]
pub struct TpeSearch {
    /// Maximum number of configurations to evaluate.
    pub max_evaluations: usize,
    /// The Parzen-estimator knobs (good fraction, candidate count, smoothing).
    pub settings: TpeSettings,
    /// Active-pruning threshold θ (same rule as [`crate::search::RibbonSettings`]).
    pub prune_threshold: f64,
    /// Candidates asked per ask/tell round.
    pub batch: usize,
    /// Optional multi-fidelity fraction in `(0, 1)`.
    pub fidelity: Option<f64>,
}

impl TpeSearch {
    /// A TPE search with default Parzen knobs, asking one candidate at a time.
    pub fn new(max_evaluations: usize) -> Self {
        TpeSearch {
            max_evaluations,
            settings: TpeSettings::default(),
            prune_threshold: 0.01,
            batch: 1,
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

    /// The Ribbon outcome rule under this strategy's θ.
    fn outcome_rule(&self, evaluator: &ConfigEvaluator) -> impl Fn(&Evaluation) -> Outcome {
        let target_rate = evaluator.objective().target_rate();
        let threshold = self.prune_threshold;
        move |e: &Evaluation| {
            Outcome::new(e.config.clone(), e.objective)
                .with_prunes(e.satisfaction_rate < target_rate - threshold, e.meets_qos)
        }
    }
}

impl SearchStrategy for TpeSearch {
    fn name(&self) -> &str {
        "TPE"
    }

    fn run_search(&self, evaluator: &ConfigEvaluator, seed: u64) -> SearchTrace {
        drive(
            self.name(),
            SearchDriver::new(evaluator)
                .with_batch(self.batch)
                .with_fidelity(self.fidelity),
            &mut TpeOptimizer::new(evaluator.lattice(), self.settings.clone()),
            seed,
            self.max_evaluations,
            &self.outcome_rule(evaluator),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::small_evaluator;
    use super::*;

    #[test]
    fn tpe_respects_the_budget_and_never_repeats() {
        let ev = small_evaluator();
        let trace = TpeSearch::new(15).run_search(&ev, 3);
        assert!(trace.len() <= 15);
        assert_eq!(trace.strategy, "TPE");
        let mut seen = std::collections::HashSet::new();
        for e in trace.evaluations() {
            assert!(seen.insert(e.config.clone()), "duplicate {:?}", e.config);
        }
    }

    #[test]
    fn tpe_finds_a_satisfying_configuration() {
        let ev = small_evaluator();
        let trace = TpeSearch::new(25).run_search(&ev, 4);
        assert!(trace.best_satisfying().is_some());
    }

    #[test]
    fn tpe_is_reproducible_and_seed_sensitive() {
        let ev = small_evaluator();
        let a = TpeSearch::new(12).run_search(&ev, 8);
        let b = TpeSearch::new(12).run_search(&ev, 8);
        assert_eq!(a.evaluations, b.evaluations);
        let c = TpeSearch::new(12).run_search(&ev, 9);
        assert_ne!(
            a.evaluations()
                .iter()
                .map(|e| e.config.clone())
                .collect::<Vec<_>>(),
            c.evaluations()
                .iter()
                .map(|e| e.config.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn batched_tpe_stays_within_budget() {
        let ev = small_evaluator();
        let trace = TpeSearch::new(16).with_batch(5).run_search(&ev, 5);
        assert!(trace.len() <= 16);
        let mut seen = std::collections::HashSet::new();
        for e in trace.evaluations() {
            assert!(seen.insert(e.config.clone()), "duplicate {:?}", e.config);
        }
    }
}
