//! The [`Planner`] abstraction: one interface from a compiled [`Scenario`] to a
//! [`ScenarioReport`], subsuming both the offline [`SearchStrategy`] suite and the
//! online serving path.
//!
//! * [`RibbonPlanner`] — the paper's BO search for `plan`, and the full windowed online
//!   controller (mid-stream reconfiguration) for `serve`;
//! * [`SearchPlanner`] — wraps any [`SearchStrategy`] (RANDOM, Hill-Climb, RSM,
//!   exhaustive); `serve` deploys the planned pool *statically* and streams the traffic
//!   through it without reconfiguration — the honest baseline an adaptive controller is
//!   compared against.

use super::error::ScenarioError;
use super::report::{BaselineReport, PlanReport, ScenarioReport, ServeReport, TierReport};
use super::spec::RunMode;
use super::{check_lattice_size, Scenario};
use crate::accounting::homogeneous_optimum;
use crate::evaluator::ConfigEvaluator;
use crate::online::{serve_from, OnlineController};
use crate::search::{RibbonSearch, SearchTrace};
use crate::strategies::{
    ExhaustiveSearch, HillClimbSearch, RandomSearch, ResponseSurfaceSearch, SearchStrategy,
    TpeSearch, DEFAULT_ASK_CHUNK,
};
use ribbon_cloudsim::streaming::{StreamingSim, StreamingSimConfig};
use ribbon_cloudsim::{CostModel, PhasedQueryStream};

/// Planner names accepted by scenario files and `ribbon compare --planners`.
pub const ALL_PLANNER_NAMES: [&str; 6] =
    ["ribbon", "tpe", "random", "hill-climb", "rsm", "exhaustive"];

/// A scenario-level planner: `plan` searches offline, `serve` runs the online path, and
/// both return the same structured [`ScenarioReport`]. Object-safe — the CLI holds a
/// heterogeneous `Vec<Box<dyn Planner>>`.
pub trait Planner: Send + Sync {
    /// Display name ("RIBBON", "RANDOM", …).
    fn name(&self) -> &str;

    /// Offline search: find the best pool for the scenario's workload.
    fn plan(&self, scenario: &Scenario) -> Result<ScenarioReport, ScenarioError>;

    /// Online serving: deploy and serve the scenario's traffic trace.
    fn serve(&self, scenario: &Scenario) -> Result<ScenarioReport, ScenarioError>;

    /// Dispatches on the scenario's mode.
    fn run(&self, scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
        match scenario.spec.mode {
            RunMode::Plan => self.plan(scenario),
            RunMode::Serve => self.serve(scenario),
        }
    }
}

/// The run-time half of the lattice-size check: bounds the evaluator probed (explicit
/// bounds were checked at compile time) must span a lattice a search can rank.
fn check_probed_bounds(bounds: &[u32]) -> Result<(), ScenarioError> {
    check_lattice_size("evaluator.max_per_type", bounds)
}

/// Builds the plan section shared by every planner: best configuration, optional
/// homogeneous baseline, savings, and the full trace.
fn plan_report(scenario: &Scenario, evaluator: &ConfigEvaluator, trace: SearchTrace) -> PlanReport {
    let best = trace.best_satisfying().cloned();
    let baseline = if scenario.spec.planner.baseline {
        let max_count = scenario.evaluator_settings.max_per_type.max(12);
        homogeneous_optimum(evaluator, max_count).map(|h| BaselineReport {
            count: h.count,
            pool: h.evaluation.pool.describe(),
            hourly_cost: h.hourly_cost,
        })
    } else {
        None
    };
    let saving_percent = match (&baseline, &best) {
        (Some(b), Some(best)) => Some(CostModel::saving_percent(b.hourly_cost, best.hourly_cost)),
        _ => None,
    };
    // Per-tier rows of the chosen plan: the planning evaluation already ran the tiered
    // stream, so the rows are free — they just need the set's names.
    let tiers = match (&scenario.tiers, &best) {
        (Some(set), Some(b)) if !b.tier_totals.is_empty() => TierReport::rows(set, &b.tier_totals),
        _ => Vec::new(),
    };
    PlanReport {
        best_config: best.as_ref().map(|e| e.config.clone()),
        best_pool: best.as_ref().map(|e| e.pool.describe()),
        best_hourly_cost: best.as_ref().map(|e| e.hourly_cost),
        baseline,
        saving_percent,
        violations: trace.num_violations(),
        exploration_cost: trace.exploration_cost(),
        variants: None,
        worst_accuracy: None,
        trace,
        tiers,
    }
}

fn report_shell(scenario: &Scenario, planner: &str, mode: RunMode) -> ScenarioReport {
    ScenarioReport {
        scenario: scenario.spec.name.clone(),
        planner: planner.to_string(),
        mode,
        model: scenario.workload.model.name().to_string(),
        qos: scenario.policy.describe(),
        seed: scenario.spec.seed,
        plan: None,
        serve: None,
    }
}

/// The RIBBON planner: Bayesian-Optimization search offline, the windowed online
/// controller (hysteresis, warm-started replans, make-before-break reconfiguration)
/// online.
#[derive(Debug, Clone, Default)]
pub struct RibbonPlanner;

impl RibbonPlanner {
    /// Plans a scenario whose workload declares a variant palette: the BO search runs on
    /// the joint variant × pool lattice of a
    /// [`VariantEvaluator`](crate::variant::VariantEvaluator), while the homogeneous
    /// baseline stays pool-only at the accuracy-best variant — the deployment a
    /// variant-unaware operator would pick, and thus the honest saving denominator.
    fn plan_variants(&self, scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
        let evaluator = scenario.build_variant_evaluator();
        check_probed_bounds(&evaluator.joint_bounds())?;
        let search = RibbonSearch::new(scenario.search_settings.clone());
        let trace = search.run(&evaluator, scenario.spec.seed);

        // Reuse the probed pool bounds so the baseline evaluator skips its own probe.
        let mut pool_settings = scenario.evaluator_settings.clone();
        pool_settings.explicit_bounds = Some(evaluator.pool_bounds().to_vec());
        let pool_evaluator = ConfigEvaluator::with_policy(
            &scenario.workload,
            pool_settings,
            scenario.policy.clone(),
        );
        let mut plan = plan_report(scenario, &pool_evaluator, trace);
        if let Some(config) = plan.best_config.clone() {
            plan.variants = Some(
                evaluator
                    .assigned_variants(&config)
                    .iter()
                    .map(|v| v.name().to_string())
                    .collect(),
            );
            plan.worst_accuracy = Some(evaluator.worst_accuracy(&config));
        }
        let mut report = report_shell(scenario, self.name(), RunMode::Plan);
        report.plan = Some(plan);
        Ok(report)
    }
}

impl Planner for RibbonPlanner {
    fn name(&self) -> &str {
        "RIBBON"
    }

    fn plan(&self, scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
        if scenario.workload.has_variant_axis() {
            return self.plan_variants(scenario);
        }
        let evaluator = scenario.build_evaluator();
        check_probed_bounds(evaluator.bounds())?;
        let search = RibbonSearch::new(scenario.search_settings.clone());
        let trace = search.run(&evaluator, scenario.spec.seed);
        let mut report = report_shell(scenario, self.name(), RunMode::Plan);
        report.plan = Some(plan_report(scenario, &evaluator, trace));
        Ok(report)
    }

    fn serve(&self, scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
        let traffic = scenario.require_traffic()?;
        let online = &scenario.online_settings;
        let evaluator = OnlineController::planning_evaluator(
            &scenario.workload,
            &online.controller,
            scenario.policy.clone(),
        );
        check_probed_bounds(evaluator.bounds())?;
        let controller = OnlineController::bootstrap_on(
            &evaluator,
            &scenario.workload,
            &online.initial_search,
            online.controller.clone(),
            scenario.spec.seed,
            scenario.policy.clone(),
        )
        .ok_or_else(|| {
            ScenarioError::Run(format!(
                "the initial search found no configuration meeting `{}` within {} evaluations",
                scenario.policy.describe(),
                online.initial_search.max_evaluations
            ))
        })?;
        let outcome = serve_from(
            controller,
            &scenario.workload,
            traffic,
            online,
            scenario.policy.clone(),
            scenario.tiers.clone(),
        );
        let mut report = report_shell(scenario, self.name(), RunMode::Serve);
        report.serve = Some(ServeReport::from_outcome(&outcome));
        Ok(report)
    }
}

/// Adapter giving any offline [`SearchStrategy`] the full planner interface.
pub struct SearchPlanner {
    strategy: Box<dyn SearchStrategy + Send + Sync>,
}

impl SearchPlanner {
    /// Wraps a search strategy.
    pub fn new(strategy: Box<dyn SearchStrategy + Send + Sync>) -> SearchPlanner {
        SearchPlanner { strategy }
    }

    /// The baseline strategies search pool counts only — a variant palette needs the
    /// joint lattice (and the online variant router) that only the `ribbon` planner
    /// drives.
    fn reject_variants(&self, scenario: &Scenario) -> Result<(), ScenarioError> {
        if scenario.workload.has_variant_axis() {
            return Err(ScenarioError::Run(format!(
                "planner `{}` searches pool counts only and cannot plan a variant \
                 palette; use the `ribbon` planner for variant scenarios",
                self.name()
            )));
        }
        Ok(())
    }
}

impl Planner for SearchPlanner {
    fn name(&self) -> &str {
        self.strategy.name()
    }

    fn plan(&self, scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
        self.reject_variants(scenario)?;
        let evaluator = scenario.build_evaluator();
        check_probed_bounds(evaluator.bounds())?;
        let trace = self.strategy.run_search(&evaluator, scenario.spec.seed);
        let mut report = report_shell(scenario, self.name(), RunMode::Plan);
        report.plan = Some(plan_report(scenario, &evaluator, trace));
        Ok(report)
    }

    fn serve(&self, scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
        self.reject_variants(scenario)?;
        let traffic = scenario.require_traffic()?;
        let evaluator = scenario.build_evaluator();
        check_probed_bounds(evaluator.bounds())?;
        let trace = self.strategy.run_search(&evaluator, scenario.spec.seed);
        let plan = plan_report(scenario, &evaluator, trace);
        let config = plan.best_config.clone().ok_or_else(|| {
            ScenarioError::Run(format!(
                "{}: no configuration meeting `{}` to deploy statically",
                self.name(),
                scenario.policy.describe()
            ))
        })?;

        // Static serving: the planned pool, unchanged, for the whole trace.
        let pool = scenario.workload.diverse_pool_spec(&config);
        let profile = scenario.workload.profile();
        let sim_config = StreamingSimConfig {
            target_latency_s: scenario.policy.deadline_s(),
            tail_percentile: scenario.policy.tail_percentile(),
            window: scenario.online_settings.window,
            spin_up_factor: scenario.online_settings.spin_up_factor,
        };
        let mut sim = StreamingSim::new(&pool, &profile, sim_config);
        let mut assigner = scenario.tiers.as_ref().map(|set| {
            sim.enable_tiers(set.clone());
            set.assigner()
        });
        let mut windows = Vec::new();
        let mut closed = Vec::new();
        for q in PhasedQueryStream::new(traffic.clone()) {
            match assigner.as_mut() {
                Some(a) => {
                    sim.push_tiered_into(&q, a.next_tier(), &mut closed);
                }
                None => sim.push_into(&q, &mut closed),
            }
            windows.append(&mut closed);
        }
        windows.extend(sim.finish_windows());
        let stats = sim.stats();
        let duration_s = stats.makespan.max(sim.clock());
        let total_cost_usd = sim.cost_so_far(duration_s);

        let mut report = report_shell(scenario, self.name(), RunMode::Serve);
        report.serve = Some(ServeReport {
            initial_config: config.clone(),
            final_config: config,
            windows: windows.len(),
            queries: stats.num_queries,
            satisfaction_rate: stats.satisfaction_rate(),
            total_cost_usd,
            duration_s,
            mean_hourly_cost: crate::accounting::mean_hourly_cost(total_cost_usd, duration_s),
            final_hourly_cost: pool.hourly_cost(),
            events: Vec::new(),
            variant_events: Vec::new(),
            variant_served: None,
            final_variant: None,
            tiers: scenario
                .tiers
                .as_ref()
                .map(|set| TierReport::rows(set, sim.tier_totals()))
                .unwrap_or_default(),
        });
        report.plan = Some(plan);
        Ok(report)
    }
}

/// Builds the planner a name refers to, sized by the scenario's budget.
///
/// Every planner runs through the ask/tell [`crate::search::SearchDriver`]. `[planner]
/// batch` sets the candidates asked per round; unset, `ribbon` and `tpe` ask one at a
/// time and the baselines ask [`DEFAULT_ASK_CHUNK`] (their traces do not depend on the
/// width). `[planner] fidelity` screens asked batches, so it takes effect only with an
/// explicit `batch`: no trace depends on the core count.
pub fn planner_by_name(name: &str, scenario: &Scenario) -> Result<Box<dyn Planner>, ScenarioError> {
    let budget = scenario.search_settings.max_evaluations;
    let batch = scenario.spec.planner.batch;
    let fidelity = batch.and(scenario.spec.planner.fidelity);
    let chunk = batch.unwrap_or(DEFAULT_ASK_CHUNK);
    let search = |strategy: Box<dyn SearchStrategy + Send + Sync>| -> Box<dyn Planner> {
        Box::new(SearchPlanner::new(strategy))
    };
    match name.to_ascii_lowercase().as_str() {
        "ribbon" => Ok(Box::new(RibbonPlanner)),
        "tpe" => Ok(search(Box::new(
            TpeSearch::new(budget)
                .with_batch(batch.unwrap_or(1))
                .with_fidelity(fidelity),
        ))),
        "random" => Ok(search(Box::new(
            RandomSearch::new(budget)
                .with_batch(chunk)
                .with_fidelity(fidelity),
        ))),
        "hill-climb" => Ok(search(Box::new(
            HillClimbSearch::new(budget)
                .with_batch(chunk)
                .with_fidelity(fidelity),
        ))),
        "rsm" => Ok(search(Box::new(
            ResponseSurfaceSearch::new(budget)
                .with_batch(chunk)
                .with_fidelity(fidelity),
        ))),
        "exhaustive" => Ok(search(Box::new(
            ExhaustiveSearch::full()
                .with_batch(chunk)
                .with_fidelity(fidelity),
        ))),
        other => Err(ScenarioError::invalid(
            "planner.name",
            format!(
                "unknown planner `{other}` (known: {})",
                ALL_PLANNER_NAMES.join(", ")
            ),
        )),
    }
}
