//! Exhaustive enumeration of the configuration lattice.
//!
//! Not a practical serving strategy — every configuration has to be deployed and measured —
//! but it provides the ground-truth optimum the paper compares against and the normalization
//! denominator for the exploration-cost figure (Fig. 13). The search runs as
//! [`ExhaustiveAdapter`], a cursor over the lattice ranks, so it holds no list of the
//! lattice's points.

use super::{drive, ExhaustiveAdapter, SearchStrategy, DEFAULT_ASK_CHUNK};
use crate::evaluator::{ConfigEvaluator, Evaluation};
use crate::search::{SearchDriver, SearchTrace};
use ribbon_bo::Outcome;

/// Evaluates every configuration in the lattice, in lexicographic order.
#[derive(Debug, Clone)]
pub struct ExhaustiveSearch {
    /// Optional cap on the number of evaluations (useful for tests); `None` = the full lattice.
    pub limit: Option<usize>,
    /// Candidates asked per round (the trace is the same at every width).
    pub batch: usize,
    /// Optional multi-fidelity fraction in `(0, 1)`.
    pub fidelity: Option<f64>,
}

impl Default for ExhaustiveSearch {
    fn default() -> Self {
        ExhaustiveSearch::full()
    }
}

impl ExhaustiveSearch {
    /// Exhaustive search over the full lattice.
    pub fn full() -> Self {
        ExhaustiveSearch {
            limit: None,
            batch: DEFAULT_ASK_CHUNK,
            fidelity: None,
        }
    }

    /// Exhaustive search capped at `limit` evaluations.
    pub fn capped(limit: usize) -> Self {
        ExhaustiveSearch {
            limit: Some(limit),
            ..Self::full()
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

    /// Finds the ground-truth cheapest QoS-satisfying configuration of an evaluator's lattice.
    pub fn optimum(evaluator: &ConfigEvaluator) -> Option<Evaluation> {
        ExhaustiveSearch::full()
            .run_search(evaluator, 0)
            .best_satisfying()
            .cloned()
    }
}

impl SearchStrategy for ExhaustiveSearch {
    fn name(&self) -> &str {
        "Exhaustive"
    }

    fn run_search(&self, evaluator: &ConfigEvaluator, seed: u64) -> SearchTrace {
        let lattice = evaluator.lattice();
        let budget = self.limit.unwrap_or(lattice.len());
        let outcome_of = |e: &Evaluation| Outcome::new(e.config.clone(), e.objective);
        drive(
            self.name(),
            SearchDriver::new(evaluator)
                .with_batch(self.batch)
                .with_fidelity(self.fidelity),
            &mut ExhaustiveAdapter::new(lattice, self.limit),
            seed,
            budget,
            &outcome_of,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::tiny_evaluator;
    use super::*;
    use crate::evaluator::EvaluatorSettings;
    use ribbon_cloudsim::InstanceType;
    use ribbon_models::{ModelKind, Workload};

    #[test]
    fn covers_the_entire_lattice() {
        let ev = tiny_evaluator();
        let trace = ExhaustiveSearch::full().run_search(&ev, 0);
        assert_eq!(trace.len(), ev.lattice().len());
    }

    #[test]
    fn cap_limits_the_number_of_evaluations() {
        let ev = tiny_evaluator();
        let trace = ExhaustiveSearch::capped(4).run_search(&ev, 0);
        assert_eq!(trace.len(), 4);
    }

    #[test]
    fn optimum_is_the_cheapest_satisfying_configuration() {
        let ev = tiny_evaluator();
        let optimum = ExhaustiveSearch::optimum(&ev);
        let trace = ExhaustiveSearch::full().run_search(&ev, 0);
        match optimum {
            Some(best) => {
                assert!(best.meets_qos);
                for e in trace.evaluations() {
                    if e.meets_qos {
                        assert!(best.hourly_cost <= e.hourly_cost + 1e-9);
                    }
                }
            }
            None => {
                assert!(trace.evaluations().iter().all(|e| !e.meets_qos));
            }
        }
    }

    #[test]
    fn cap_runs_on_a_lattice_of_four_billion_points() {
        // 65536² − 1 points: the search walks ranks and never materializes the lattice.
        let mut w = Workload::standard(ModelKind::MtWnd);
        w.diverse_pool = vec![InstanceType::G4dn, InstanceType::C5];
        w.num_queries = 200;
        let ev = ConfigEvaluator::new(
            &w,
            EvaluatorSettings {
                explicit_bounds: Some(vec![65535, 65535]),
                ..Default::default()
            },
        );
        assert_eq!(ev.lattice().len(), (1usize << 32) - 1);
        let trace = ExhaustiveSearch::capped(3).run_search(&ev, 0);
        let configs: Vec<Vec<u32>> = trace
            .evaluations()
            .iter()
            .map(|e| e.config.clone())
            .collect();
        assert_eq!(configs, vec![vec![0, 1], vec![0, 2], vec![0, 3]]);
    }

    #[test]
    fn exhaustive_ignores_the_seed() {
        let ev = tiny_evaluator();
        let a: Vec<_> = ExhaustiveSearch::full()
            .run_search(&ev, 1)
            .evaluations()
            .iter()
            .map(|e| e.config.clone())
            .collect();
        let b: Vec<_> = ExhaustiveSearch::full()
            .run_search(&ev, 999)
            .evaluations()
            .iter()
            .map(|e| e.config.clone())
            .collect();
        assert_eq!(a, b);
    }
}
