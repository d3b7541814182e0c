//! The Hill-Climb baseline of Sec. 5.3.
//!
//! Steepest-ascent hill climbing on the Eq. 2 objective over the ±1 neighbourhood of the
//! current configuration, "customized and optimized ... by intelligently increasing and
//! decreasing the number of instances based on the observed QoS and cost". When every
//! neighbour is worse (a local optimum) the search restarts from a random unexplored
//! configuration, exactly as the paper describes for the Fig. 12 example. The climb runs as
//! [`HillClimbAdapter`]: a neighbourhood's unexplored points are asked together, and the
//! next move is decided once all of them are told.

use super::{drive, HillClimbAdapter, SearchStrategy, DEFAULT_ASK_CHUNK};
use crate::evaluator::{ConfigEvaluator, Evaluation};
use crate::search::{SearchDriver, SearchTrace};
use ribbon_bo::Outcome;

/// Steepest-ascent hill climbing with random restarts.
#[derive(Debug, Clone)]
pub struct HillClimbSearch {
    /// Maximum number of configurations to evaluate.
    pub max_evaluations: usize,
    /// Optional starting configuration (defaults to the lattice midpoint).
    pub start_config: Option<Vec<u32>>,
    /// Candidates asked per round (the trace is the same at every width).
    pub batch: usize,
    /// Optional multi-fidelity fraction in `(0, 1)`.
    pub fidelity: Option<f64>,
}

impl HillClimbSearch {
    /// Creates a hill-climb search with the given evaluation budget, starting at the
    /// lattice midpoint.
    pub fn new(max_evaluations: usize) -> Self {
        HillClimbSearch {
            max_evaluations,
            start_config: None,
            batch: DEFAULT_ASK_CHUNK,
            fidelity: None,
        }
    }

    /// Creates a hill-climb search starting from a specific configuration.
    pub fn from_start(max_evaluations: usize, start: Vec<u32>) -> Self {
        HillClimbSearch {
            start_config: Some(start),
            ..Self::new(max_evaluations)
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

impl SearchStrategy for HillClimbSearch {
    fn name(&self) -> &str {
        "Hill-Climb"
    }

    fn run_search(&self, evaluator: &ConfigEvaluator, seed: u64) -> SearchTrace {
        let outcome_of = |e: &Evaluation| Outcome::new(e.config.clone(), e.objective);
        drive(
            self.name(),
            SearchDriver::new(evaluator)
                .with_batch(self.batch)
                .with_fidelity(self.fidelity),
            &mut HillClimbAdapter::new(evaluator.lattice(), self.start_config.clone()),
            seed,
            self.max_evaluations,
            &outcome_of,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{small_evaluator, tiny_evaluator};
    use super::*;

    #[test]
    fn midpoint_start_is_inside_the_lattice() {
        let ev = small_evaluator();
        let trace = HillClimbSearch::new(10).run_search(&ev, 1);
        assert_eq!(trace.evaluations()[0].config, vec![3, 2, 3]);
    }

    #[test]
    fn explicit_start_config_is_used() {
        let ev = small_evaluator();
        let trace = HillClimbSearch::from_start(10, vec![5, 0, 0]).run_search(&ev, 1);
        assert_eq!(trace.evaluations()[0].config, vec![5, 0, 0]);
    }

    #[test]
    fn invalid_start_falls_back_to_midpoint() {
        let ev = small_evaluator();
        let trace = HillClimbSearch::from_start(5, vec![99, 0, 0]).run_search(&ev, 1);
        assert_eq!(trace.evaluations()[0].config, vec![3, 2, 3]);
    }

    #[test]
    fn respects_budget_and_never_duplicates() {
        let ev = small_evaluator();
        let trace = HillClimbSearch::new(15).run_search(&ev, 2);
        assert!(trace.len() <= 15);
        let mut seen = std::collections::HashSet::new();
        for e in trace.evaluations() {
            assert!(seen.insert(e.config.clone()), "duplicate {:?}", e.config);
        }
    }

    #[test]
    fn consecutive_moves_are_lattice_neighbors_or_restarts() {
        let ev = tiny_evaluator();
        let trace = HillClimbSearch::new(25).run_search(&ev, 3);
        // Every evaluated config is valid.
        let lattice = ev.lattice();
        for e in trace.evaluations() {
            assert!(lattice.contains(&e.config));
        }
    }

    #[test]
    fn eventually_finds_a_satisfying_configuration() {
        let ev = small_evaluator();
        let trace = HillClimbSearch::new(40).run_search(&ev, 4);
        assert!(
            trace.best_satisfying().is_some(),
            "hill climbing from the midpoint should reach a QoS-satisfying pool"
        );
    }

    #[test]
    fn is_reproducible_for_a_fixed_seed() {
        let ev = small_evaluator();
        let a: Vec<_> = HillClimbSearch::new(12)
            .run_search(&ev, 9)
            .evaluations()
            .iter()
            .map(|e| e.config.clone())
            .collect();
        let b: Vec<_> = HillClimbSearch::new(12)
            .run_search(&ev, 9)
            .evaluations()
            .iter()
            .map(|e| e.config.clone())
            .collect();
        assert_eq!(a, b);
    }
}
