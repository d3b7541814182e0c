//! Ribbon's BO-driven search for the optimal diverse-pool configuration.
//!
//! The loop implements Sec. 4 of the paper: a Gaussian-Process surrogate (Matérn 5/2 with the
//! integer rounding kernel) is updated with every evaluation, Expected Improvement picks the
//! next configuration among those not yet explored and not pruned, and *active pruning*
//! removes (a) the entire dominated box under any configuration that violates QoS by more than
//! a threshold θ and (b) the dominating box above any QoS-satisfying configuration (which can
//! only be more expensive).
//!
//! # The ask/tell search driver
//!
//! [`SearchDriver`] is the one search loop: every strategy — the GP engine, TPE and the
//! baselines' adapters — runs its [`ribbon_bo::Optimizer`] through it against a
//! [`ConfigEvaluator`]. It asks for a batch of up to `batch` candidates, pipelines the
//! batch into the parallel [`ConfigEvaluator::evaluate_many`], and tells each completed
//! evaluation back. RIBBON and TPE ask one candidate at a time by default (their traces
//! are pinned by the `ask_tell_differential` suite); larger batches amortize the
//! acquisition scan over several evaluations. The baselines' traces do not depend on
//! the batch size at all, so they ask in chunks.
//!
//! With a `fidelity` fraction set the driver adds **multi-fidelity successive halving**:
//! each asked batch is first scored on a prefix of the query stream (the evaluator's
//! reduced-fidelity cache tier), candidates whose *provable* full-stream objective upper
//! bound falls below the best full evaluation so far are discarded as estimates, and only
//! the survivors are promoted to full simulations. Fidelity spend is accounted exactly in
//! [`SearchTrace::fidelity`].
//!
//! [`ConfigEvaluator`]: crate::evaluator::ConfigEvaluator
//! [`ConfigEvaluator::evaluate_many`]: crate::evaluator::ConfigEvaluator::evaluate_many

use crate::evaluator::{BatchEvaluator, Evaluation};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use ribbon_bo::{Acquisition, BoOptimizer, BoSettings, Optimizer, Outcome};
use ribbon_gp::FitConfig;
use serde::{Deserialize, Serialize};

/// Settings for Ribbon's search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RibbonSettings {
    /// Maximum number of configuration evaluations per search.
    pub max_evaluations: usize,
    /// Random space-filling evaluations before the GP takes over.
    pub initial_samples: usize,
    /// Prune threshold θ: a configuration violating QoS by more than this (i.e. with
    /// `rate < T_qos − θ`) prunes its entire dominated box.
    pub prune_threshold: f64,
    /// Acquisition function (Expected Improvement by default).
    pub acquisition: Acquisition,
    /// GP hyperparameter grid.
    pub fit: FitConfig,
    /// Optional starting configuration evaluated before the BO loop (the paper's search
    /// starts from the currently deployed configuration).
    pub start_config: Option<Vec<u32>>,
    /// Worker threads for the BO acquisition scan (`None` = available parallelism); the
    /// suggested configurations are identical for every thread count.
    pub scan_threads: Option<usize>,
    /// Candidates asked per ask/tell round (`1` = one at a time, the setting the committed
    /// golden traces pin; larger values amortize the acquisition scan over a diverse
    /// batch evaluated in parallel).
    #[serde(default)]
    pub batch: usize,
    /// Optional multi-fidelity fraction in `(0, 1)`: asked batches are first scored on
    /// this fraction of the query stream and only provably-competitive candidates are
    /// promoted to full simulations (`None` = always full fidelity).
    #[serde(default)]
    pub fidelity: Option<f64>,
}

impl Default for RibbonSettings {
    fn default() -> Self {
        RibbonSettings {
            max_evaluations: 40,
            initial_samples: 3,
            prune_threshold: 0.01,
            acquisition: Acquisition::default(),
            fit: FitConfig::default(),
            start_config: None,
            scan_threads: None,
            batch: 1,
            fidelity: None,
        }
    }
}

impl RibbonSettings {
    /// A faster variant using the coarse GP grid (used inside benchmarks and tests).
    pub fn fast() -> Self {
        RibbonSettings {
            fit: FitConfig::coarse(),
            ..Default::default()
        }
    }
}

/// Exact accounting of reduced-fidelity (prefix-stream) work done by a search — the cost
/// side of the multi-fidelity ledger, measured in *simulated queries* so partial streams
/// add up exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FidelitySpend {
    /// Number of prefix simulations run (reduced-fidelity cache misses).
    pub prefix_evaluations: usize,
    /// Total queries simulated across all prefix simulations.
    pub prefix_queries: usize,
    /// Length of the full query stream (the denominator for full-sim equivalents).
    pub full_stream_len: usize,
}

impl FidelitySpend {
    /// Prefix spend expressed in full-simulation equivalents (e.g. two half-stream
    /// prefixes = 1.0).
    pub fn full_equivalents(&self) -> f64 {
        if self.full_stream_len == 0 {
            0.0
        } else {
            self.prefix_queries as f64 / self.full_stream_len as f64
        }
    }

    /// Merges another spend record (same evaluator / stream length).
    pub fn merge(&mut self, other: &FidelitySpend) {
        self.prefix_evaluations += other.prefix_evaluations;
        self.prefix_queries += other.prefix_queries;
        self.full_stream_len = self.full_stream_len.max(other.full_stream_len);
    }
}

/// The ordered record of one search run: every configuration evaluated, in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchTrace {
    /// Name of the strategy that produced the trace.
    pub strategy: String,
    /// Evaluations in the order they were performed.
    pub evaluations: Vec<Evaluation>,
    /// Reduced-fidelity (prefix-stream) measurements of candidates successive halving
    /// discarded without a full simulation, in discard order. Estimates never enter
    /// [`SearchTrace::evaluations`] or the best-of queries below — they are the auditable
    /// record of what the multi-fidelity stage ruled out.
    #[serde(default)]
    pub estimates: Vec<Evaluation>,
    /// Exact reduced-fidelity spend of this run.
    #[serde(default)]
    pub fidelity: FidelitySpend,
}

impl SearchTrace {
    /// Creates an empty trace for a strategy.
    pub fn new(strategy: impl Into<String>) -> Self {
        SearchTrace {
            strategy: strategy.into(),
            evaluations: Vec::new(),
            estimates: Vec::new(),
            fidelity: FidelitySpend::default(),
        }
    }

    /// Number of evaluations in the trace.
    pub fn len(&self) -> usize {
        self.evaluations.len()
    }

    /// `true` if no configuration was evaluated.
    pub fn is_empty(&self) -> bool {
        self.evaluations.is_empty()
    }

    /// The evaluations in order.
    pub fn evaluations(&self) -> &[Evaluation] {
        &self.evaluations
    }

    /// The cheapest QoS-satisfying configuration found.
    pub fn best_satisfying(&self) -> Option<&Evaluation> {
        self.evaluations
            .iter()
            .filter(|e| e.meets_qos)
            .min_by(|a, b| a.hourly_cost.partial_cmp(&b.hourly_cost).unwrap())
    }

    /// The evaluation with the highest Eq. 2 objective value.
    pub fn best_objective(&self) -> Option<&Evaluation> {
        self.evaluations
            .iter()
            .max_by(|a, b| a.objective.partial_cmp(&b.objective).unwrap())
    }

    /// Number of evaluated configurations that violate QoS.
    pub fn num_violations(&self) -> usize {
        self.evaluations.iter().filter(|e| !e.meets_qos).count()
    }

    /// Index (1-based sample count) of the first QoS-satisfying evaluation whose hourly cost
    /// is at most `cost` (with a small tolerance); `None` if never reached.
    pub fn samples_until_cost_at_most(&self, cost: f64) -> Option<usize> {
        self.evaluations
            .iter()
            .position(|e| e.meets_qos && e.hourly_cost <= cost + 1e-9)
            .map(|i| i + 1)
    }

    /// Sum of the hourly costs of every evaluated configuration — the exploration-cost proxy
    /// used by Fig. 13 (every evaluation runs for the same wall-clock time, so cost is
    /// proportional to the evaluated pools' hourly prices).
    pub fn exploration_cost(&self) -> f64 {
        self.evaluations.iter().map(|e| e.hourly_cost).sum()
    }

    /// Appends another trace's evaluations (used to merge a warm-start evaluation with the
    /// subsequent search). Estimates and fidelity spend are carried along.
    pub fn extend_from(&mut self, other: &SearchTrace) {
        self.evaluations.extend(other.evaluations.iter().cloned());
        self.estimates.extend(other.estimates.iter().cloned());
        self.fidelity.merge(&other.fidelity);
    }
}

/// Budget-aware ask/tell search loop over one evaluator: the only search loop (see the
/// module docs).
///
/// The driver owns the three mechanical concerns every strategy shares — batching,
/// parallel evaluation, and multi-fidelity promotion — while the [`Optimizer`] owns *what*
/// to ask and the `outcome_of` rule owns how an [`Evaluation`] maps to the strategy's
/// [`Outcome`] (objective value + pruning verdicts).
pub struct SearchDriver<'a> {
    evaluator: &'a dyn BatchEvaluator,
    batch: usize,
    fidelity: Option<f64>,
}

impl<'a> SearchDriver<'a> {
    /// A driver that asks one candidate at a time at full fidelity.
    pub fn new(evaluator: &'a dyn BatchEvaluator) -> Self {
        SearchDriver {
            evaluator,
            batch: 1,
            fidelity: None,
        }
    }

    /// Sets the ask-batch size (clamped to at least 1).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Sets the multi-fidelity fraction (`None` or `>= 1.0` disables successive halving).
    pub fn with_fidelity(mut self, fidelity: Option<f64>) -> Self {
        self.fidelity = fidelity.filter(|f| *f > 0.0 && *f < 1.0);
        self
    }

    /// Runs the ask → evaluate → tell loop until `budget` evaluations are *spent* or the
    /// optimizer's space is exhausted. Appends to an existing `trace` (so a warm-start
    /// evaluation performed by the caller counts against the budget).
    ///
    /// Budget accounting is **exact-cost**: every full simulation costs 1, and in
    /// multi-fidelity mode each prefix score costs its exact fraction of a full stream
    /// (`prefix_len / full_stream_len`), so a fidelity-0.25 run that prefix-screens 40
    /// candidates and promotes 20 has spent `20 + 40 × 0.25 = 30` evaluations — the same
    /// bill as 30 one-at-a-time full simulations. The spend is charged per asked
    /// candidate (not per cache miss), so identical runs cost the same regardless of
    /// cache state.
    pub fn run(
        &self,
        opt: &mut dyn Optimizer,
        rng: &mut dyn RngCore,
        budget: usize,
        outcome_of: &dyn Fn(&Evaluation) -> Outcome,
        trace: &mut SearchTrace,
    ) {
        let full_len = self.evaluator.num_queries().max(1);
        let mut prefix_evaluations: usize = 0;
        let mut prefix_queries: usize = 0;

        while trace.len() < budget {
            // Exact-cost budget: prefix spend counts at its fraction of a full stream.
            let spent = trace.len() as f64 + prefix_queries as f64 / full_len as f64;
            if spent >= budget as f64 {
                break;
            }
            // In multi-fidelity mode ask the full batch even near the budget edge: the
            // prefix scores decide which few candidates deserve the remaining full
            // simulations, and the rest are handed back via `forget`.
            let q = if self.fidelity.is_some() {
                self.batch
            } else {
                self.batch.min(budget - trace.len())
            };
            let asked = match opt.ask(rng, q) {
                Ok(batch) if !batch.is_empty() => batch,
                _ => break,
            };
            match self.fidelity {
                Some(f) if asked.len() > 1 => {
                    let k = self.evaluator.prefix_len(f);
                    prefix_evaluations += asked.len();
                    prefix_queries += k * asked.len();
                    // Full evaluations still affordable once every prefix score so far
                    // (including this rung's) is billed at its exact cost.
                    let cap = (budget as f64 - prefix_queries as f64 / full_len as f64)
                        .floor()
                        .max(0.0) as usize;
                    self.run_rung(opt, &asked, k, cap, outcome_of, trace);
                }
                _ => {
                    for eval in self.evaluator.evaluate_many(&asked) {
                        if trace.len() >= budget {
                            opt.forget(&eval.config);
                            continue;
                        }
                        let recorded = opt.tell(outcome_of(&eval)).unwrap_or(false);
                        if recorded {
                            trace.evaluations.push(eval);
                        }
                    }
                }
            }
        }

        trace.fidelity.prefix_evaluations += prefix_evaluations;
        trace.fidelity.prefix_queries += prefix_queries;
        trace.fidelity.full_stream_len = full_len;
    }

    /// One successive-halving rung: prefix-score the asked batch (`k` queries each),
    /// discard candidates whose provable objective upper bound cannot beat the best full
    /// evaluation so far, promote the rest (best-bound first) to full parallel
    /// simulations, up to `cap` total full evaluations. The best-bound candidate is
    /// promoted unconditionally — even past `cap` — so every rung grows the trace and
    /// the budget loop terminates in at most `budget` rungs.
    ///
    /// Soundness: a candidate is discarded only when `upper_bound < best_full`, and
    /// `best_full` is the objective of a full evaluation already in the trace — so a
    /// discarded candidate's true full-fidelity objective is *strictly* below something the
    /// trace kept. The `sh_never_discards_the_best` proptest pins this end to end.
    fn run_rung(
        &self,
        opt: &mut dyn Optimizer,
        asked: &[Vec<u32>],
        k: usize,
        cap: usize,
        outcome_of: &dyn Fn(&Evaluation) -> Outcome,
        trace: &mut SearchTrace,
    ) {
        let prefix = self.evaluator.evaluate_many_prefix(asked, k);
        let best_full = trace
            .evaluations
            .iter()
            .map(|e| e.objective)
            .fold(f64::NEG_INFINITY, f64::max);

        // Stable sort: best upper bound first, ask order on ties.
        let mut order: Vec<usize> = (0..asked.len()).collect();
        order.sort_by(|&a, &b| {
            prefix[b]
                .objective_upper_bound
                .partial_cmp(&prefix[a].objective_upper_bound)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut promoted: Vec<Vec<u32>> = Vec::new();
        for &i in &order {
            let pe = &prefix[i];
            if promoted.is_empty() {
                // Every rung promotes at least its best-bound candidate (the classic
                // successive-halving rule). Without this, a streak of all-discard rungs
                // would leave the trace unchanged while the budget loop grinds through
                // the open set one batch-sized full acquisition scan at a time.
                promoted.push(asked[i].clone());
            } else if pe.objective_upper_bound < best_full {
                // Provably cannot be the best: hand the prefix score back as an estimate —
                // the optimizer retires the configuration without counting it as a real
                // observation — and skip the full simulation.
                let _ = opt.tell(Outcome::estimate(asked[i].clone(), pe.evaluation.objective));
                trace.estimates.push(pe.evaluation.clone());
            } else if trace.len() + promoted.len() < cap {
                promoted.push(asked[i].clone());
            } else {
                // The remaining budget cannot cover this survivor: hand it back unasked.
                opt.forget(&asked[i]);
            }
        }

        for eval in self.evaluator.evaluate_many(&promoted) {
            let recorded = opt.tell(outcome_of(&eval)).unwrap_or(false);
            if recorded {
                trace.evaluations.push(eval);
            }
        }
    }
}

/// Ribbon's Bayesian-Optimization search strategy.
#[derive(Debug, Clone, Default)]
pub struct RibbonSearch {
    settings: RibbonSettings,
}

impl RibbonSearch {
    /// Creates a search with the given settings.
    pub fn new(settings: RibbonSettings) -> Self {
        RibbonSearch { settings }
    }

    /// The settings in use.
    pub fn settings(&self) -> &RibbonSettings {
        &self.settings
    }

    /// Runs the search from scratch on an evaluator.
    pub fn run(&self, evaluator: &dyn BatchEvaluator, seed: u64) -> SearchTrace {
        let mut bo = self.make_optimizer(evaluator);
        self.run_with(evaluator, &mut bo, seed)
    }

    /// Builds the BO optimizer for an evaluator's lattice (exposed so the load adapter can
    /// warm-start it with estimates and pruning before running).
    pub fn make_optimizer(&self, evaluator: &dyn BatchEvaluator) -> BoOptimizer {
        BoOptimizer::new(
            evaluator.lattice(),
            BoSettings {
                initial_samples: self.settings.initial_samples,
                acquisition: self.settings.acquisition,
                fit: self.settings.fit.clone(),
                scan_threads: self.settings.scan_threads,
            },
        )
    }

    /// The strategy's rule for turning an [`Evaluation`] into an ask/tell [`Outcome`]:
    /// Eq. 2 objective plus the paper's active-pruning verdicts (prune the dominated box
    /// under a `rate < T_qos − θ` violator, the dominating box above any satisfier).
    pub fn outcome_rule(
        &self,
        evaluator: &dyn BatchEvaluator,
    ) -> impl Fn(&Evaluation) -> Outcome + 'static {
        let target_rate = evaluator.target_rate();
        let threshold = self.settings.prune_threshold;
        move |e: &Evaluation| {
            Outcome::new(e.config.clone(), e.objective)
                .with_prunes(e.satisfaction_rate < target_rate - threshold, e.meets_qos)
        }
    }

    /// Runs the search with an existing (possibly warm-started) optimizer through the
    /// [`SearchDriver`], with the batch size and fidelity of the settings. A start
    /// configuration that is in the lattice and not yet explored is evaluated and told
    /// first, and counts against the budget.
    ///
    /// At most `max_evaluations` *new* evaluations are performed in this call.
    pub fn run_with(
        &self,
        evaluator: &dyn BatchEvaluator,
        bo: &mut BoOptimizer,
        seed: u64,
    ) -> SearchTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trace = SearchTrace::new("RIBBON");
        let outcome_of = self.outcome_rule(evaluator);

        if let Some(start) = &self.settings.start_config {
            if bo.lattice().contains(start) && !bo.is_explored(start) {
                let eval = evaluator.evaluate(start);
                let _ = bo.tell(outcome_of(&eval));
                trace.evaluations.push(eval);
            }
        }

        SearchDriver::new(evaluator)
            .with_batch(self.settings.batch)
            .with_fidelity(self.settings.fidelity)
            .run(
                bo,
                &mut rng,
                self.settings.max_evaluations,
                &outcome_of,
                &mut trace,
            );
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{ConfigEvaluator, EvaluatorSettings};
    use ribbon_models::{ModelKind, Workload};

    fn small_evaluator() -> ConfigEvaluator {
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

    fn fast_settings(max_evals: usize) -> RibbonSettings {
        RibbonSettings {
            max_evaluations: max_evals,
            ..RibbonSettings::fast()
        }
    }

    #[test]
    fn search_respects_the_evaluation_budget() {
        let ev = small_evaluator();
        let trace = RibbonSearch::new(fast_settings(8)).run(&ev, 1);
        assert!(trace.len() <= 8);
        assert!(!trace.is_empty());
        assert_eq!(trace.strategy, "RIBBON");
    }

    #[test]
    fn search_never_evaluates_the_same_configuration_twice() {
        let ev = small_evaluator();
        let trace = RibbonSearch::new(fast_settings(15)).run(&ev, 2);
        let mut seen = std::collections::HashSet::new();
        for e in trace.evaluations() {
            assert!(seen.insert(e.config.clone()), "duplicate {:?}", e.config);
        }
    }

    #[test]
    fn search_finds_a_qos_satisfying_configuration() {
        let ev = small_evaluator();
        let trace = RibbonSearch::new(fast_settings(20)).run(&ev, 3);
        let best = trace.best_satisfying();
        assert!(
            best.is_some(),
            "20 evaluations must find at least one satisfying pool"
        );
        assert!(best.unwrap().meets_qos);
    }

    #[test]
    fn start_config_is_evaluated_first() {
        let ev = small_evaluator();
        let mut settings = fast_settings(6);
        settings.start_config = Some(vec![5, 0, 0]);
        let trace = RibbonSearch::new(settings).run(&ev, 4);
        assert_eq!(trace.evaluations()[0].config, vec![5, 0, 0]);
    }

    #[test]
    fn out_of_lattice_start_config_is_ignored() {
        let ev = small_evaluator();
        let mut settings = fast_settings(4);
        settings.start_config = Some(vec![50, 0, 0]);
        let trace = RibbonSearch::new(settings).run(&ev, 5);
        assert!(trace
            .evaluations()
            .iter()
            .all(|e| e.config != vec![50, 0, 0]));
    }

    #[test]
    fn same_seed_reproduces_the_same_trace() {
        let ev1 = small_evaluator();
        let ev2 = small_evaluator();
        let t1 = RibbonSearch::new(fast_settings(10)).run(&ev1, 77);
        let t2 = RibbonSearch::new(fast_settings(10)).run(&ev2, 77);
        let c1: Vec<_> = t1.evaluations().iter().map(|e| e.config.clone()).collect();
        let c2: Vec<_> = t2.evaluations().iter().map(|e| e.config.clone()).collect();
        assert_eq!(c1, c2);
    }

    #[test]
    fn trace_metrics_are_consistent() {
        let ev = small_evaluator();
        let trace = RibbonSearch::new(fast_settings(12)).run(&ev, 6);
        assert_eq!(
            trace.num_violations(),
            trace.evaluations().iter().filter(|e| !e.meets_qos).count()
        );
        let cost_sum: f64 = trace.evaluations().iter().map(|e| e.hourly_cost).sum();
        assert!((trace.exploration_cost() - cost_sum).abs() < 1e-9);
        if let Some(best) = trace.best_satisfying() {
            assert!(trace.samples_until_cost_at_most(best.hourly_cost).is_some());
            assert!(trace.samples_until_cost_at_most(0.0).is_none());
        }
        if let Some(bo) = trace.best_objective() {
            assert!(trace
                .evaluations()
                .iter()
                .all(|e| e.objective <= bo.objective));
        }
    }

    #[test]
    fn small_lattice_terminates_before_budget_when_exhausted() {
        let mut w = Workload::standard(ModelKind::MtWnd);
        w.num_queries = 400;
        let ev = ConfigEvaluator::new(
            &w,
            EvaluatorSettings {
                explicit_bounds: Some(vec![1, 1, 1]),
                ..Default::default()
            },
        );
        let trace = RibbonSearch::new(fast_settings(100)).run(&ev, 7);
        assert!(
            trace.len() <= 7,
            "only 7 non-empty configs exist in a 2x2x2 lattice"
        );
    }

    #[test]
    fn batched_search_stays_within_budget_and_never_repeats() {
        let ev = small_evaluator();
        let mut settings = fast_settings(16);
        settings.batch = 5;
        let trace = RibbonSearch::new(settings).run(&ev, 11);
        assert!(trace.len() <= 16);
        let mut seen = std::collections::HashSet::new();
        for e in trace.evaluations() {
            assert!(seen.insert(e.config.clone()), "duplicate {:?}", e.config);
        }
        assert!(
            trace.best_satisfying().is_some(),
            "batched search should still find a satisfying pool"
        );
    }

    #[test]
    fn multi_fidelity_discards_are_recorded_as_estimates_with_exact_spend() {
        let ev = small_evaluator();
        let mut settings = fast_settings(12);
        settings.batch = 6;
        settings.fidelity = Some(0.25);
        let trace = RibbonSearch::new(settings).run(&ev, 13);
        assert!(trace.len() <= 12);
        // Whatever was prefix-simulated is accounted exactly.
        let k = ev.prefix_len(0.25);
        assert_eq!(trace.fidelity.full_stream_len, ev.queries().len());
        assert_eq!(
            trace.fidelity.prefix_evaluations,
            ev.num_prefix_simulations()
        );
        assert_eq!(
            trace.fidelity.prefix_queries,
            ev.num_prefix_simulations() * k
        );
        // No estimate's config also appears as a full evaluation.
        for est in &trace.estimates {
            assert!(
                trace.evaluations.iter().all(|e| e.config != est.config),
                "{:?} both estimated and fully evaluated",
                est.config
            );
        }
        // Soundness: no discarded candidate would have beaten the best kept one.
        if let Some(best) = trace.best_objective() {
            for est in &trace.estimates {
                let full = ev.evaluate(&est.config);
                assert!(
                    full.objective < best.objective,
                    "discarded {:?} (full {}) beats kept best {}",
                    est.config,
                    full.objective,
                    best.objective
                );
            }
        }
    }

    #[test]
    fn extend_from_concatenates_traces() {
        let mut a = SearchTrace::new("A");
        let b = SearchTrace::new("B");
        a.extend_from(&b);
        assert!(a.is_empty());
        let ev = small_evaluator();
        let t = RibbonSearch::new(fast_settings(3)).run(&ev, 8);
        let mut merged = SearchTrace::new("merged");
        merged.extend_from(&t);
        merged.extend_from(&t);
        assert_eq!(merged.len(), 2 * t.len());
    }
}
