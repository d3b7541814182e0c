//! The Response Surface Methodology (RSM) baseline of Sec. 5.3.
//!
//! "We employ an optimized 3-level 3-factor central composite face-centered design to explore
//! the search space ... The RSM sampled configurations will be evaluated, and the scheme
//! starts exploring around the most promising point."
//!
//! The face-centered central-composite design over n factors with levels {low, mid, high} is:
//! the centre point, the 2n axial points (one factor at low/high, the rest at mid), and the
//! 2^n factorial corners (every factor at low or high). After evaluating the design, the
//! strategy hill-climbs locally around the best design point until the budget is exhausted.
//! The search runs as [`RsmAdapter`]: the design is asked as one queue, then each
//! neighbourhood's unexplored points together, with every move decided once they are told.

use super::{drive, RsmAdapter, SearchStrategy, DEFAULT_ASK_CHUNK};
use crate::evaluator::{ConfigEvaluator, Evaluation};
use crate::search::{SearchDriver, SearchTrace};
use ribbon_bo::{ConfigLattice, Outcome};
use std::collections::BTreeSet;

/// Central-composite-design response-surface exploration.
#[derive(Debug, Clone)]
pub struct ResponseSurfaceSearch {
    /// Maximum number of configurations to evaluate (design points included).
    pub max_evaluations: usize,
    /// Candidates asked per round (the trace is the same at every width).
    pub batch: usize,
    /// Optional multi-fidelity fraction in `(0, 1)`.
    pub fidelity: Option<f64>,
}

impl ResponseSurfaceSearch {
    /// Creates an RSM search with the given evaluation budget.
    pub fn new(max_evaluations: usize) -> Self {
        ResponseSurfaceSearch {
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

    /// The face-centered central-composite design points for a lattice, deduplicated,
    /// with the all-zero configuration removed.
    pub fn design_points(lattice: &ConfigLattice) -> Vec<Vec<u32>> {
        let bounds = lattice.bounds();
        let n = bounds.len();
        let low: Vec<u32> = vec![0; n];
        let mid: Vec<u32> = bounds.iter().map(|&b| b / 2).collect();
        let high: Vec<u32> = bounds.to_vec();

        let mut points: Vec<Vec<u32>> = Vec::new();
        // Centre.
        points.push(mid.clone());
        // Axial (face-centred) points.
        for i in 0..n {
            let mut lo = mid.clone();
            lo[i] = low[i];
            points.push(lo);
            let mut hi = mid.clone();
            hi[i] = high[i];
            points.push(hi);
        }
        // Factorial corners.
        for mask in 0..(1u32 << n) {
            let corner: Vec<u32> = (0..n)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        high[i]
                    } else {
                        low[i]
                    }
                })
                .collect();
            points.push(corner);
        }

        let mut seen = BTreeSet::new();
        points
            .into_iter()
            .filter(|p| lattice.contains(p) && seen.insert(p.clone()))
            .collect()
    }
}

impl SearchStrategy for ResponseSurfaceSearch {
    fn name(&self) -> &str {
        "RSM"
    }

    fn run_search(&self, evaluator: &ConfigEvaluator, seed: u64) -> SearchTrace {
        let outcome_of = |e: &Evaluation| Outcome::new(e.config.clone(), e.objective);
        drive(
            self.name(),
            SearchDriver::new(evaluator)
                .with_batch(self.batch)
                .with_fidelity(self.fidelity),
            &mut RsmAdapter::new(evaluator.lattice()),
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

    #[test]
    fn design_points_for_a_3_factor_lattice() {
        let lattice = ConfigLattice::new(vec![6, 4, 6]);
        let pts = ResponseSurfaceSearch::design_points(&lattice);
        // 1 centre + 6 axial + 8 corners = 15, minus the all-zero corner = 14 (all distinct
        // here because mid != low != high in every dimension).
        assert_eq!(pts.len(), 14);
        assert!(pts.contains(&vec![3, 2, 3]), "centre point");
        assert!(pts.contains(&vec![6, 4, 6]), "all-high corner");
        assert!(!pts.contains(&vec![0, 0, 0]), "all-zero corner excluded");
        // All distinct and valid.
        let set: BTreeSet<_> = pts.iter().cloned().collect();
        assert_eq!(set.len(), pts.len());
        assert!(pts.iter().all(|p| lattice.contains(p)));
    }

    #[test]
    fn design_points_handle_degenerate_dimensions() {
        // A dimension with bound 0 collapses low = mid = high = 0.
        let lattice = ConfigLattice::new(vec![5, 0, 4]);
        let pts = ResponseSurfaceSearch::design_points(&lattice);
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|p| lattice.contains(p)));
        assert!(pts.iter().all(|p| p[1] == 0));
    }

    #[test]
    fn design_is_evaluated_first_then_local_exploration() {
        let ev = small_evaluator();
        let trace = ResponseSurfaceSearch::new(20).run_search(&ev, 0);
        let design = ResponseSurfaceSearch::design_points(&ev.lattice());
        let prefix: Vec<_> = trace
            .evaluations()
            .iter()
            .take(design.len())
            .map(|e| e.config.clone())
            .collect();
        assert_eq!(
            prefix, design,
            "the first evaluations must be the design points in order"
        );
        assert!(trace.len() <= 20);
    }

    #[test]
    fn budget_smaller_than_design_is_respected() {
        let ev = small_evaluator();
        let trace = ResponseSurfaceSearch::new(5).run_search(&ev, 0);
        assert_eq!(trace.len(), 5);
    }

    #[test]
    fn never_evaluates_duplicates() {
        let ev = small_evaluator();
        let trace = ResponseSurfaceSearch::new(40).run_search(&ev, 0);
        let mut seen = BTreeSet::new();
        for e in trace.evaluations() {
            assert!(seen.insert(e.config.clone()), "duplicate {:?}", e.config);
        }
    }

    #[test]
    fn finds_a_satisfying_configuration_with_a_reasonable_budget() {
        let ev = small_evaluator();
        let trace = ResponseSurfaceSearch::new(40).run_search(&ev, 0);
        assert!(trace.best_satisfying().is_some());
    }

    #[test]
    fn is_deterministic() {
        let ev = small_evaluator();
        let a: Vec<_> = ResponseSurfaceSearch::new(25)
            .run_search(&ev, 0)
            .evaluations()
            .iter()
            .map(|e| e.config.clone())
            .collect();
        let b: Vec<_> = ResponseSurfaceSearch::new(25)
            .run_search(&ev, 123)
            .evaluations()
            .iter()
            .map(|e| e.config.clone())
            .collect();
        assert_eq!(a, b, "RSM ignores the seed and is fully deterministic");
    }
}
