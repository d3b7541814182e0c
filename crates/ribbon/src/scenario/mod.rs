//! The declarative scenario façade: one path from a spec file to a served report.
//!
//! Instead of wiring `Workload` → `ConfigEvaluator` → `RibbonSearch` → `serve_online` by
//! hand for every experiment, a scenario is *described* — instance catalog, workload,
//! QoS policy, traffic trace, planner, budgets — in a TOML/JSON file (or a
//! [`ScenarioSpec`] built in code), compiled once into engine objects, and executed by
//! any [`Planner`]:
//!
//! ```text
//! scenario.toml ── ScenarioSpec::from_toml_str ──> ScenarioSpec   (plain data, round-trips)
//!                                 │ compile
//!                                 v
//!                              Scenario            (catalog, workload, policy, settings)
//!                                 │ run / run_with(planner)
//!                                 v
//!                            ScenarioReport        (best pool, savings, trace, events)
//! ```
//!
//! The façade is a *veneer*: compiling a spec produces exactly the constructor calls the
//! pre-façade code made, so a RIBBON plan run from a spec file reproduces the golden
//! search traces bit for bit (pinned by `perfsnap --check` and the scenario test suite).
//!
//! # Example
//!
//! ```
//! use ribbon::scenario::ScenarioSpec;
//!
//! let toml = r#"
//!     [scenario]
//!     name = "demo"
//!     mode = "plan"
//!     seed = 7
//!
//!     [workload]
//!     model = "MT-WND"
//!     num_queries = 600
//!
//!     [planner]
//!     name = "ribbon"
//!     budget = 5
//!     baseline = false
//!
//!     [evaluator]
//!     bounds = [4, 2, 4]
//! "#;
//! let spec = ScenarioSpec::from_toml_str(toml).expect("valid spec");
//! // Lossless round-trip: serialize and reparse.
//! assert_eq!(ScenarioSpec::from_toml_str(&spec.to_toml_string()).unwrap(), spec);
//!
//! let scenario = spec.compile().expect("compiles against the builtin catalog");
//! let report = scenario.run().expect("the search runs");
//! assert_eq!(report.planner, "RIBBON");
//! assert!(report.plan.unwrap().trace.len() <= 5);
//! ```

mod error;
mod planner;
mod report;
pub(crate) mod spec;

pub use error::ScenarioError;
pub use planner::{planner_by_name, Planner, RibbonPlanner, SearchPlanner, ALL_PLANNER_NAMES};
pub use report::{
    BaselineReport, EventReport, PlanReport, ScenarioReport, ServeReport, TierReport,
};
pub use spec::{
    EvaluatorSpec, OnlineSpec, PhaseSpec, PlannerSpec, QosSpec, RunMode, ScenarioSpec, TierSpecDef,
    TrafficSpec, WorkloadSpec,
};

use crate::evaluator::{ConfigEvaluator, EvaluatorSettings};
use crate::online::{OnlineControllerSettings, OnlineRunSettings};
use crate::search::RibbonSettings;
use ribbon_bo::{ConfigLattice, MAX_LATTICE_POINTS};
use ribbon_cloudsim::{
    AdmissionClass, Catalog, DeadlinePolicy, MeanLatencyPolicy, PhasedArrivalProcess,
    PhasedStreamConfig, QosPolicy, QosTarget, RatePhase, TierSet, TierSpec, WindowConfig,
};
use ribbon_gp::FitConfig;
use ribbon_models::variants::{accuracy, supported_variants};
use ribbon_models::{
    BatchShape, ModelKind, TrafficScenario, VariantKind, Workload, ALL_MODELS, ALL_VARIANT_KINDS,
};
use ribbon_spec::Format;
use std::path::Path;
use std::sync::Arc;

/// A compiled, runnable scenario: the spec plus every engine object it resolved to.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The spec this scenario was compiled from.
    pub spec: ScenarioSpec,
    /// The instance catalog pools were resolved through.
    pub catalog: Catalog,
    /// The compiled workload.
    pub workload: Workload,
    /// The compiled QoS policy.
    pub policy: Arc<dyn QosPolicy>,
    /// Evaluator construction settings.
    pub evaluator_settings: EvaluatorSettings,
    /// RIBBON search settings (budget, pruning, GP grid).
    pub search_settings: RibbonSettings,
    /// Online-serving settings (initial search, controller hysteresis, window).
    pub online_settings: OnlineRunSettings,
    /// The compiled traffic trace, when the spec declares one.
    pub traffic: Option<PhasedStreamConfig>,
    /// The compiled `[[qos.tiers]]` priority classes. `None` for untiered specs *and*
    /// for the degenerate single default-`standard` tier, which is the untiered
    /// semantics exactly — compiling it away keeps such specs byte-identical to
    /// untiered runs.
    pub tiers: Option<TierSet>,
}

fn pos_f64(path: &str, v: f64) -> Result<f64, ScenarioError> {
    let ok = v.is_finite() && v > 0.0;
    if ok {
        Ok(v)
    } else {
        Err(ScenarioError::invalid(path, "must be a positive number"))
    }
}

impl ScenarioSpec {
    /// Compiles the spec against the built-in catalog (or the catalog file it names,
    /// resolved relative to the current directory). [`Scenario::load`] resolves relative
    /// to the spec file instead.
    pub fn compile(&self) -> Result<Scenario, ScenarioError> {
        self.compile_with_base(None)
    }

    /// Compiles the spec, resolving a relative `scenario.catalog` path against
    /// `base_dir`.
    pub fn compile_with_base(&self, base_dir: Option<&Path>) -> Result<Scenario, ScenarioError> {
        let catalog = match &self.catalog {
            None => Catalog::builtin(),
            Some(path) => {
                let resolved = match base_dir {
                    Some(dir) if !Path::new(path).is_absolute() => {
                        dir.join(path).to_string_lossy().into_owned()
                    }
                    _ => path.clone(),
                };
                Catalog::load(&resolved)
                    .map_err(|e| ScenarioError::from_config("scenario.catalog", e))?
            }
        };

        let (workload, policy) = self.compile_workload(&catalog)?;
        let evaluator_settings = self.compile_evaluator(&workload)?;
        let search_settings = self.compile_search(&workload)?;
        let online_settings = self.compile_online(&evaluator_settings, &search_settings)?;
        let traffic = self.compile_traffic(&workload)?;
        let tiers = self.compile_tiers()?;
        if self.mode == RunMode::Serve && traffic.is_none() {
            return Err(ScenarioError::invalid(
                "traffic",
                "serve mode requires a [traffic] section",
            ));
        }

        Ok(Scenario {
            spec: self.clone(),
            catalog,
            workload,
            policy,
            evaluator_settings,
            search_settings,
            online_settings,
            traffic,
            tiers,
        })
    }

    /// Compiles `[[qos.tiers]]` into a validated [`TierSet`]. A single
    /// default-`standard` tier is the untiered semantics exactly and compiles to
    /// `None`, so such specs keep reproducing untiered output byte for byte.
    fn compile_tiers(&self) -> Result<Option<TierSet>, ScenarioError> {
        let Some(defs) = &self.qos_tiers else {
            return Ok(None);
        };
        let mut specs = Vec::with_capacity(defs.len());
        for (i, d) in defs.iter().enumerate() {
            let path = format!("qos.tiers[{i}]");
            let class = AdmissionClass::from_name(&d.class).ok_or_else(|| {
                ScenarioError::invalid(
                    format!("{path}.class"),
                    format!(
                        "unknown admission class `{}` (premium, standard, best_effort)",
                        d.class
                    ),
                )
            })?;
            let mut spec = TierSpec::new(&d.name, class, d.weight.unwrap_or(1.0), d.share);
            spec.target_rate = d.target_rate;
            spec.target_latency_s = match d.latency_ms {
                None => None,
                Some(ms) => Some(pos_f64(&format!("{path}.latency_ms"), ms)? / 1000.0),
            };
            spec.admission_cap_s = match d.admission_cap_ms {
                None => None,
                Some(ms) if ms.is_finite() && ms >= 0.0 => Some(ms / 1000.0),
                Some(_) => {
                    return Err(ScenarioError::invalid(
                        format!("{path}.admission_cap_ms"),
                        "must be a non-negative number",
                    ))
                }
            };
            specs.push(spec);
        }
        let set = TierSet::try_new(specs)
            .map_err(|e| ScenarioError::invalid("qos.tiers", e.message()))?;
        Ok((!set.is_single_standard()).then_some(set))
    }

    fn compile_workload(
        &self,
        catalog: &Catalog,
    ) -> Result<(Workload, Arc<dyn QosPolicy>), ScenarioError> {
        let w = &self.workload;
        let kind = ModelKind::from_name(&w.model).ok_or_else(|| {
            ScenarioError::invalid(
                "workload.model",
                format!(
                    "unknown model `{}` (known: {})",
                    w.model,
                    ALL_MODELS.map(|m| m.name()).join(", ")
                ),
            )
        })?;
        let mut workload = Workload::standard(kind);
        if let Some(qps) = w.qps {
            workload.qps = pos_f64("workload.qps", qps)?;
        }
        if let Some(n) = w.num_queries {
            if n == 0 {
                return Err(ScenarioError::invalid(
                    "workload.num_queries",
                    "must be at least 1",
                ));
            }
            workload.num_queries = n;
        }
        if let Some(m) = w.median_batch {
            workload.median_batch = pos_f64("workload.median_batch", m)?;
        }
        if let Some(m) = w.max_batch {
            if m == 0 {
                return Err(ScenarioError::invalid(
                    "workload.max_batch",
                    "must be at least 1",
                ));
            }
            workload.max_batch = m;
        }
        if let Some(shape) = &w.batch_shape {
            workload.batch_shape = BatchShape::from_name(shape).ok_or_else(|| {
                ScenarioError::invalid(
                    "workload.batch_shape",
                    format!("unknown shape `{shape}` (heavy-tail, gaussian)"),
                )
            })?;
        }
        if let Some(seed) = w.stream_seed {
            workload.seed = seed;
        }
        if let Some(base) = &w.base_type {
            workload.base_type = catalog
                .resolve(base)
                .map_err(|e| ScenarioError::from_config("workload.base_type", e))?;
        }
        if let Some(pool) = &w.diverse_pool {
            if pool.is_empty() {
                return Err(ScenarioError::invalid(
                    "workload.diverse_pool",
                    "a pool needs at least one instance family",
                ));
            }
            workload.diverse_pool = pool
                .iter()
                .map(|family| {
                    catalog
                        .resolve(family)
                        .map_err(|e| ScenarioError::from_config("workload.diverse_pool", e))
                })
                .collect::<Result<Vec<_>, _>>()?;
        } else {
            // Even the model's standard pools must exist in a custom catalog: a catalog
            // restricted to CPU families must reject a GPU-pool scenario loudly.
            for ty in workload.diverse_pool.iter().chain([&workload.base_type]) {
                catalog
                    .resolve(ty.family())
                    .map_err(|e| ScenarioError::from_config("workload.diverse_pool", e))?;
            }
        }
        if let Some(names) = &w.variants {
            if names.is_empty() {
                return Err(ScenarioError::invalid(
                    "workload.variants",
                    "a variant palette needs at least one entry",
                ));
            }
            let supported = supported_variants(kind);
            let mut palette: Vec<VariantKind> = Vec::with_capacity(names.len());
            for (i, name) in names.iter().enumerate() {
                let path = format!("workload.variants[{i}]");
                let v = VariantKind::from_name(name).ok_or_else(|| {
                    ScenarioError::invalid(
                        &path,
                        format!(
                            "unknown variant `{name}` (known: {})",
                            ALL_VARIANT_KINDS.map(|v| v.name()).join(", ")
                        ),
                    )
                })?;
                if !supported.contains(&v) {
                    return Err(ScenarioError::invalid(
                        &path,
                        format!("model {} does not ship a `{name}` variant", kind.name()),
                    ));
                }
                if palette.contains(&v) {
                    return Err(ScenarioError::invalid(
                        &path,
                        format!("duplicate variant `{name}` in the palette"),
                    ));
                }
                // The planner's baseline config and the router's upgrade target are both
                // palette index 0, so the palette must lead with its best accuracy.
                if let Some(&prev) = palette.last() {
                    if accuracy(kind, v) > accuracy(kind, prev) {
                        return Err(ScenarioError::invalid(
                            &path,
                            format!(
                                "palette must be ordered accuracy-best first (`{name}` \
                                 outranks `{}`)",
                                prev.name()
                            ),
                        ));
                    }
                }
                palette.push(v);
            }
            workload.variants = palette;
        }
        if let Some(min) = w.min_accuracy {
            if !min.is_finite() || !(0.0..=1.0).contains(&min) {
                return Err(ScenarioError::invalid(
                    "workload.min_accuracy",
                    "must be a number in [0, 1]",
                ));
            }
            for (i, &v) in workload.variants.iter().enumerate() {
                let acc = accuracy(kind, v);
                if acc < min {
                    return Err(ScenarioError::invalid(
                        format!("workload.variants[{i}]"),
                        format!(
                            "variant `{}` serves accuracy {acc} below min_accuracy {min}",
                            v.name()
                        ),
                    ));
                }
            }
            workload.min_accuracy = Some(min);
        }

        let policy: Arc<dyn QosPolicy> = match &self.qos {
            None => Arc::new(workload.qos),
            Some(QosSpec::TailRate {
                latency_ms,
                target_rate,
            }) => {
                let target = QosTarget::try_new(latency_ms / 1000.0, *target_rate)
                    .map_err(|e| ScenarioError::from_config("qos", e))?;
                workload.qos = target;
                Arc::new(target)
            }
            Some(QosSpec::MeanLatency {
                mean_target_ms,
                latency_ms,
            }) => Arc::new(
                MeanLatencyPolicy::try_new(mean_target_ms / 1000.0, latency_ms / 1000.0)
                    .map_err(|e| ScenarioError::from_config("qos", e))?,
            ),
            Some(QosSpec::Deadline { latency_ms }) => Arc::new(
                DeadlinePolicy::try_new(latency_ms / 1000.0)
                    .map_err(|e| ScenarioError::from_config("qos", e))?,
            ),
        };
        Ok((workload, policy))
    }

    fn compile_evaluator(&self, workload: &Workload) -> Result<EvaluatorSettings, ScenarioError> {
        let e = &self.evaluator;
        let mut settings = EvaluatorSettings::default();
        if let Some(m) = e.max_per_type {
            if m == 0 {
                return Err(ScenarioError::invalid(
                    "evaluator.max_per_type",
                    "must be at least 1",
                ));
            }
            settings.max_per_type = m;
        }
        if let Some(eps) = e.saturation_epsilon {
            settings.saturation_epsilon = pos_f64("evaluator.saturation_epsilon", eps)?;
        }
        if let Some(bounds) = &e.bounds {
            if bounds.len() != workload.diverse_pool.len() {
                return Err(ScenarioError::invalid(
                    "evaluator.bounds",
                    format!(
                        "{} bounds for a {}-type pool",
                        bounds.len(),
                        workload.diverse_pool.len()
                    ),
                ));
            }
            if bounds.iter().all(|&b| b == 0) {
                return Err(ScenarioError::invalid(
                    "evaluator.bounds",
                    "at least one bound must be positive",
                ));
            }
            // A variant palette doubles the lattice's dimensions: one variant index per type.
            let mut joint = bounds.clone();
            if workload.has_variant_axis() {
                joint.extend(std::iter::repeat_n(
                    workload.num_variants() - 1,
                    bounds.len(),
                ));
            }
            check_lattice_size("evaluator.bounds", &joint)?;
            settings.explicit_bounds = Some(bounds.clone());
        }
        settings.threads = e.threads;
        Ok(settings)
    }

    fn compile_search(&self, workload: &Workload) -> Result<RibbonSettings, ScenarioError> {
        let p = &self.planner;
        if p.budget == 0 {
            return Err(ScenarioError::invalid(
                "planner.budget",
                "must be at least 1",
            ));
        }
        let fit = match p.fit.as_deref() {
            None | Some("coarse") => FitConfig::coarse(),
            Some("full") => FitConfig::default(),
            Some(other) => {
                return Err(ScenarioError::invalid(
                    "planner.fit",
                    format!("unknown GP grid `{other}` (coarse, full)"),
                ))
            }
        };
        if let Some(start) = &p.start_config {
            if start.len() != workload.diverse_pool.len() {
                return Err(ScenarioError::invalid(
                    "planner.start_config",
                    format!(
                        "{} entries for a {}-type pool",
                        start.len(),
                        workload.diverse_pool.len()
                    ),
                ));
            }
        }
        if let Some(batch) = p.batch {
            if batch == 0 {
                return Err(ScenarioError::invalid(
                    "planner.batch",
                    "must be at least 1",
                ));
            }
        }
        if let Some(f) = p.fidelity {
            if !(f > 0.0 && f < 1.0) {
                return Err(ScenarioError::invalid(
                    "planner.fidelity",
                    "must lie strictly between 0 and 1",
                ));
            }
        }
        let defaults = RibbonSettings::default();
        Ok(RibbonSettings {
            max_evaluations: p.budget,
            initial_samples: p.initial_samples.unwrap_or(defaults.initial_samples),
            prune_threshold: p.prune_threshold.unwrap_or(defaults.prune_threshold),
            acquisition: defaults.acquisition,
            fit,
            start_config: p.start_config.clone(),
            scan_threads: p.scan_threads,
            batch: p.batch.unwrap_or(defaults.batch),
            fidelity: p.fidelity.or(defaults.fidelity),
        })
    }

    fn compile_online(
        &self,
        evaluator_settings: &EvaluatorSettings,
        search_settings: &RibbonSettings,
    ) -> Result<OnlineRunSettings, ScenarioError> {
        let o = &self.online;
        let defaults = OnlineRunSettings::default();
        let length_s = match o.window_s {
            Some(v) => pos_f64("online.window_s", v)?,
            None => defaults.window.length_s,
        };
        let window = WindowConfig {
            length_s,
            step_s: match o.window_step_s {
                Some(v) => pos_f64("online.window_step_s", v)?,
                None => length_s,
            },
        };
        window
            .try_validate()
            .map_err(|e| ScenarioError::from_config("online.window_step_s", e))?;

        let mut controller = OnlineControllerSettings {
            evaluator: evaluator_settings.clone(),
            ..OnlineControllerSettings::default()
        };
        if let Some(v) = o.planning_queries {
            controller.planning_queries = v;
        }
        if let Some(v) = o.violation_windows {
            if v == 0 {
                return Err(ScenarioError::invalid(
                    "online.violation_windows",
                    "must be at least 1",
                ));
            }
            controller.violation_windows = v;
        }
        if let Some(v) = o.overprovision_windows {
            if v == 0 {
                return Err(ScenarioError::invalid(
                    "online.overprovision_windows",
                    "must be at least 1",
                ));
            }
            controller.overprovision_windows = v;
        }
        if let Some(v) = o.overprovision_headroom {
            controller.overprovision_headroom = pos_f64("online.overprovision_headroom", v)?;
        }
        if let Some(v) = o.cooldown_windows {
            controller.cooldown_windows = v;
        }
        if let Some(v) = o.scale_up_margin {
            controller.scale_up_margin = pos_f64("online.scale_up_margin", v)?;
        }
        if let Some(v) = o.scale_down_margin {
            controller.scale_down_margin = pos_f64("online.scale_down_margin", v)?;
        }
        if let Some(v) = o.replan_budget {
            if v == 0 {
                return Err(ScenarioError::invalid(
                    "online.replan_budget",
                    "must be at least 1",
                ));
            }
            controller.replan.max_evaluations = v;
        }

        if o.initial_budget == Some(0) {
            return Err(ScenarioError::invalid(
                "online.initial_budget",
                "must be at least 1",
            ));
        }
        Ok(OnlineRunSettings {
            initial_search: RibbonSettings {
                max_evaluations: o.initial_budget.unwrap_or(search_settings.max_evaluations),
                ..search_settings.clone()
            },
            controller,
            window,
            spin_up_factor: match o.spin_up_factor {
                Some(v) => pos_f64("online.spin_up_factor", v)?,
                None => defaults.spin_up_factor,
            },
        })
    }

    fn compile_traffic(
        &self,
        workload: &Workload,
    ) -> Result<Option<PhasedStreamConfig>, ScenarioError> {
        let Some(t) = &self.traffic else {
            return Ok(None);
        };
        match (&t.scenario, &t.phases) {
            (Some(name), None) => {
                let sc = TrafficScenario::from_name(name).ok_or_else(|| {
                    ScenarioError::invalid(
                        "traffic.scenario",
                        format!(
                            "unknown traffic scenario `{name}` (known: {})",
                            ribbon_models::ALL_SCENARIOS.map(|s| s.name()).join(", ")
                        ),
                    )
                })?;
                let duration = t.duration_s.ok_or_else(|| {
                    ScenarioError::invalid(
                        "traffic.duration_s",
                        "required for a named traffic scenario",
                    )
                })?;
                let duration = pos_f64("traffic.duration_s", duration)?;
                Ok(Some(sc.stream(workload, duration)))
            }
            (None, Some(phases)) => {
                let rate_phases: Vec<RatePhase> = phases
                    .iter()
                    .map(|p| RatePhase {
                        duration_s: p.duration_s,
                        qps: p.qps,
                    })
                    .collect();
                let arrivals = PhasedArrivalProcess::try_piecewise(rate_phases)
                    .map_err(|e| ScenarioError::from_config("traffic.phases", e))?;
                let total: f64 = phases.iter().map(|p| p.duration_s).sum();
                let duration_s = pos_f64("traffic.duration_s", t.duration_s.unwrap_or(total))?;
                Ok(Some(PhasedStreamConfig {
                    arrivals,
                    batches: workload.batch_distribution(),
                    duration_s,
                    // Deterministic but distinct from the plain evaluation stream.
                    seed: workload.seed ^ 0x7ace_c057,
                }))
            }
            (Some(_), Some(_)) => Err(ScenarioError::invalid(
                "traffic",
                "set either `scenario` or `phases`, not both",
            )),
            (None, None) => Err(ScenarioError::invalid(
                "traffic",
                "a [traffic] section needs a `scenario` name or a `phases` list",
            )),
        }
    }
}

/// Rejects bounds whose search lattice holds more points than a search can rank
/// ([`MAX_LATTICE_POINTS`]), before anything is allocated for it. `path` is the spec
/// field that sets the bounds.
pub(crate) fn check_lattice_size(path: &str, bounds: &[u32]) -> Result<(), ScenarioError> {
    match ConfigLattice::count_points(bounds) {
        Some(n) if n <= MAX_LATTICE_POINTS => Ok(()),
        n => Err(ScenarioError::invalid(
            path,
            format!(
                "bounds {bounds:?} span {} lattice points; a search ranks at most \
                 {MAX_LATTICE_POINTS}",
                n.map_or_else(|| "more than 2^64".to_string(), |n| n.to_string())
            ),
        )),
    }
}

impl Scenario {
    /// Loads and compiles a scenario file (TOML or JSON, by extension). Relative catalog
    /// paths resolve against the spec file's directory.
    pub fn load(path: &str) -> Result<Scenario, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })?;
        let value = Format::from_path(path).parse(&text)?;
        let spec = ScenarioSpec::from_value(&value)?;
        spec.compile_with_base(Path::new(path).parent())
    }

    /// Builds the configuration evaluator this scenario describes. A tiered scenario
    /// gets the tier-weighted objective over the tiered serving engine; untiered
    /// scenarios keep the historical evaluator bit for bit.
    pub fn build_evaluator(&self) -> ConfigEvaluator {
        ConfigEvaluator::with_policy_tiered(
            &self.workload,
            self.evaluator_settings.clone(),
            self.policy.clone(),
            self.tiers.clone(),
        )
    }

    /// Builds the joint variant × pool evaluator of a variant scenario.
    ///
    /// # Panics
    /// Panics when the workload declares no variant palette — callers branch on
    /// [`Workload::has_variant_axis`](ribbon_models::Workload::has_variant_axis) first.
    pub fn build_variant_evaluator(&self) -> crate::variant::VariantEvaluator {
        crate::variant::VariantEvaluator::with_policy(
            &self.workload,
            self.evaluator_settings.clone(),
            self.policy.clone(),
        )
    }

    /// The traffic trace, or a run error explaining that serve mode needs one.
    pub fn require_traffic(&self) -> Result<&PhasedStreamConfig, ScenarioError> {
        self.traffic.as_ref().ok_or_else(|| {
            ScenarioError::invalid("traffic", "this scenario declares no traffic trace")
        })
    }

    /// The planner the spec names.
    pub fn planner(&self) -> Result<Box<dyn Planner>, ScenarioError> {
        planner_by_name(&self.spec.planner.name, self)
    }

    /// Runs the scenario with its spec'd planner in its spec'd mode.
    pub fn run(&self) -> Result<ScenarioReport, ScenarioError> {
        self.planner()?.run(self)
    }

    /// Runs the scenario with an explicit planner (the `ribbon compare` path).
    pub fn run_with(&self, planner: &dyn Planner) -> Result<ScenarioReport, ScenarioError> {
        planner.run(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_toml() -> &'static str {
        r#"
[scenario]
name = "t"
mode = "plan"
seed = 3

[workload]
model = "MT-WND"
num_queries = 600

[planner]
name = "ribbon"
budget = 4
baseline = false

[evaluator]
bounds = [4, 2, 4]
"#
    }

    #[test]
    fn minimal_spec_parses_compiles_and_runs() {
        let spec = ScenarioSpec::from_toml_str(minimal_toml()).unwrap();
        assert_eq!(spec.name, "t");
        assert_eq!(spec.mode, RunMode::Plan);
        let scenario = spec.compile().unwrap();
        assert_eq!(scenario.workload.num_queries, 600);
        assert_eq!(
            scenario.evaluator_settings.explicit_bounds,
            Some(vec![4, 2, 4])
        );
        assert_eq!(scenario.search_settings.max_evaluations, 4);
        let report = scenario.run().unwrap();
        assert_eq!(report.planner, "RIBBON");
        let plan = report.plan.expect("plan mode fills the plan section");
        assert!(plan.trace.len() <= 4);
        assert!(plan.baseline.is_none(), "baseline = false");
    }

    #[test]
    fn spec_round_trips_losslessly_through_toml_and_json() {
        let spec = ScenarioSpec::from_toml_str(minimal_toml()).unwrap();
        let via_toml = ScenarioSpec::from_toml_str(&spec.to_toml_string()).unwrap();
        assert_eq!(spec, via_toml);
        let via_json = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(spec, via_json);
    }

    #[test]
    fn facade_plan_is_bit_identical_to_the_direct_constructor_chain() {
        // The façade must be a veneer: same evaluator, same search, same trace.
        let spec = ScenarioSpec::from_toml_str(minimal_toml()).unwrap();
        let scenario = spec.compile().unwrap();
        let facade = scenario.run().unwrap().plan.unwrap().trace;

        let mut w = ribbon_models::Workload::standard(ModelKind::MtWnd);
        w.num_queries = 600;
        let evaluator = ConfigEvaluator::new(
            &w,
            EvaluatorSettings {
                explicit_bounds: Some(vec![4, 2, 4]),
                ..Default::default()
            },
        );
        let direct = crate::search::RibbonSearch::new(RibbonSettings {
            max_evaluations: 4,
            ..RibbonSettings::fast()
        })
        .run(&evaluator, 3);
        assert_eq!(facade.evaluations(), direct.evaluations());
    }

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        let bad = minimal_toml().replace("budget = 4", "budget = 4\nbugdet = 9");
        let e = ScenarioSpec::from_toml_str(&bad).unwrap_err();
        assert!(e.to_string().contains("planner.bugdet"), "{e}");

        let bad = format!("{}\n[mystery]\nx = 1\n", minimal_toml());
        let e = ScenarioSpec::from_toml_str(&bad).unwrap_err();
        assert!(e.to_string().contains("mystery"), "{e}");
    }

    #[test]
    fn scalar_where_a_section_belongs_is_an_error_not_an_empty_section() {
        // A top-level `planner = "random"` (instead of a [planner] table) must not
        // silently compile to the default planner.
        let without_planner_section = minimal_toml().replace(
            "[planner]\nname = \"ribbon\"\nbudget = 4\nbaseline = false\n",
            "",
        );
        let bad = format!("planner = \"random\"\n{without_planner_section}");
        let e = ScenarioSpec::from_toml_str(&bad).unwrap_err();
        assert!(e.to_string().contains("planner"), "{e}");
        assert!(e.to_string().contains("table"), "{e}");
    }

    #[test]
    fn qos_keys_are_checked_per_policy() {
        // target_rate under a deadline policy is a misunderstanding, not a knob.
        let toml = format!(
            "{}\n[qos]\npolicy = \"deadline\"\nlatency_ms = 20.0\ntarget_rate = 0.5\n",
            minimal_toml()
        );
        let e = ScenarioSpec::from_toml_str(&toml).unwrap_err();
        assert!(e.to_string().contains("qos.target_rate"), "{e}");

        let toml = format!(
            "{}\n[qos]\nlatency_ms = 20.0\nmean_target_ms = 10.0\n",
            minimal_toml()
        );
        let e = ScenarioSpec::from_toml_str(&toml).unwrap_err();
        assert!(e.to_string().contains("qos.mean_target_ms"), "{e}");
    }

    #[test]
    fn crlf_scenario_files_parse() {
        let toml = format!(
            "{}\n[traffic]\nphases = [\n  {{ duration_s = 5.0, qps = 900.0 }},\n]\n",
            minimal_toml()
        )
        .replace('\n', "\r\n");
        let spec = ScenarioSpec::from_toml_str(&toml).expect("CRLF files parse");
        assert_eq!(spec.traffic.unwrap().phases.unwrap().len(), 1);
    }

    #[test]
    fn domain_errors_carry_field_paths() {
        let cases: Vec<(&str, &str, &str)> = vec![
            ("model = \"MT-WND\"", "model = \"GPT-5\"", "workload.model"),
            ("bounds = [4, 2, 4]", "bounds = [4, 2]", "evaluator.bounds"),
            ("budget = 4", "budget = 0", "planner.budget"),
            (
                "num_queries = 600",
                "num_queries = 0",
                "workload.num_queries",
            ),
            (
                "seed = 3",
                "seed = 3\n\n[online]\nviolation_windows = 0",
                "online.violation_windows",
            ),
            (
                "seed = 3",
                "seed = 3\n\n[online]\noverprovision_windows = 0",
                "online.overprovision_windows",
            ),
            (
                "seed = 3",
                "seed = 3\n\n[online]\ninitial_budget = 0",
                "online.initial_budget",
            ),
        ];
        for (from, to, expected_path) in cases {
            let toml = minimal_toml().replace(from, to);
            let spec = ScenarioSpec::from_toml_str(&toml).unwrap();
            let e = spec.compile().unwrap_err();
            assert!(
                e.to_string().contains(expected_path),
                "{to}: {e} (expected path {expected_path})"
            );
        }
    }

    #[test]
    fn oversized_explicit_bounds_fail_validation_at_their_path() {
        // 1001^3 − 1 ≈ 1.0e9 points: within the u32 ranks a search holds.
        let fits = minimal_toml().replace("bounds = [4, 2, 4]", "bounds = [1000, 1000, 1000]");
        assert!(ScenarioSpec::from_toml_str(&fits)
            .unwrap()
            .compile()
            .is_ok());
        let palette = "num_queries = 600\nvariants = [\"fp32-b1\", \"fp16-b8\", \"int8-compiled\"]";
        let cases = [
            // ~1e15 points.
            minimal_toml().replace("bounds = [4, 2, 4]", "bounds = [100000, 100000, 100000]"),
            // (2^32)^3: the count overflows u64.
            minimal_toml().replace(
                "bounds = [4, 2, 4]",
                "bounds = [4294967295, 4294967295, 4294967295]",
            ),
            // The variant half multiplies the fitting pool lattice by 3^3.
            fits.replace("num_queries = 600", palette),
        ];
        for toml in cases {
            let e = ScenarioSpec::from_toml_str(&toml)
                .unwrap()
                .compile()
                .unwrap_err();
            assert!(
                matches!(&e, ScenarioError::Invalid { path, .. } if path == "evaluator.bounds"),
                "{e}"
            );
        }
    }

    #[test]
    fn oversized_probed_bounds_fail_the_run_before_the_search() {
        // Under this load every type keeps improving up to the 40-instance probe cap, so
        // the probed lattice has 41^8 − 1 ≈ 8e12 points. That is only known at run time.
        let toml = r#"
[scenario]
name = "probed-oversized"
mode = "plan"
seed = 3

[workload]
model = "MT-WND"
qps = 60000.0
num_queries = 1000
diverse_pool = ["g4dn", "c5", "c5a", "m5", "m5n", "r5", "r5n", "t3"]

[planner]
name = "ribbon"
budget = 4
baseline = false

[evaluator]
max_per_type = 40
saturation_epsilon = 0.000000001

[traffic]
scenario = "flash-crowd"
duration_s = 10.0

[online]
planning_queries = 1000
"#;
        for mode in ["plan", "serve"] {
            let toml = toml.replace("mode = \"plan\"", &format!("mode = \"{mode}\""));
            let scenario = ScenarioSpec::from_toml_str(&toml)
                .unwrap()
                .compile()
                .expect("derived bounds pass validation");
            for planner in ["ribbon", "random"] {
                let e = planner_by_name(planner, &scenario)
                    .unwrap()
                    .run(&scenario)
                    .unwrap_err();
                assert!(
                    matches!(&e, ScenarioError::Invalid { path, .. } if path == "evaluator.max_per_type"),
                    "{mode}, {planner}: {e}"
                );
            }
        }
    }

    #[test]
    fn qos_policies_compile_to_the_right_types() {
        let toml = format!(
            "{}\n[qos]\npolicy = \"mean-latency\"\nmean_target_ms = 12.0\n",
            minimal_toml()
        );
        let scenario = ScenarioSpec::from_toml_str(&toml)
            .unwrap()
            .compile()
            .unwrap();
        assert!(scenario.policy.describe().contains("mean latency"));
        assert_eq!(scenario.policy.deadline_s(), 0.024, "default 2x deadline");

        let toml = format!(
            "{}\n[qos]\npolicy = \"deadline\"\nlatency_ms = 25.0\n",
            minimal_toml()
        );
        let scenario = ScenarioSpec::from_toml_str(&toml)
            .unwrap()
            .compile()
            .unwrap();
        assert_eq!(scenario.policy.threshold(), 1.0);

        let toml = format!(
            "{}\n[qos]\nlatency_ms = 20.0\ntarget_rate = 0.98\n",
            minimal_toml()
        );
        let scenario = ScenarioSpec::from_toml_str(&toml)
            .unwrap()
            .compile()
            .unwrap();
        assert_eq!(scenario.workload.qos.target_rate, 0.98);

        let toml = format!("{}\n[qos]\nlatency_ms = -4.0\n", minimal_toml());
        let e = ScenarioSpec::from_toml_str(&toml)
            .unwrap()
            .compile()
            .unwrap_err();
        assert!(e.to_string().contains("qos"), "{e}");
    }

    #[test]
    fn serve_mode_requires_traffic() {
        let toml = minimal_toml().replace("mode = \"plan\"", "mode = \"serve\"");
        let e = ScenarioSpec::from_toml_str(&toml)
            .unwrap()
            .compile()
            .unwrap_err();
        assert!(e.to_string().contains("traffic"), "{e}");
    }

    #[test]
    fn inline_phase_traffic_compiles() {
        let toml = format!(
            "{}\n[traffic]\nphases = [{{ duration_s = 5.0, qps = 900.0 }}, \
             {{ duration_s = 5.0, qps = 1400.0 }}]\n",
            minimal_toml()
        );
        let scenario = ScenarioSpec::from_toml_str(&toml)
            .unwrap()
            .compile()
            .unwrap();
        let traffic = scenario.traffic.expect("phases compile to a stream");
        assert_eq!(
            traffic.duration_s, 10.0,
            "duration defaults to the phase sum"
        );
        assert_eq!(traffic.arrivals.phases.len(), 2);

        let bad = format!(
            "{}\n[traffic]\nphases = [{{ duration_s = -1.0, qps = 900.0 }}]\n",
            minimal_toml()
        );
        let e = ScenarioSpec::from_toml_str(&bad)
            .unwrap()
            .compile()
            .unwrap_err();
        assert!(e.to_string().contains("traffic.phases"), "{e}");
    }

    #[test]
    fn named_traffic_and_planner_names_resolve() {
        let toml = format!(
            "{}\n[traffic]\nscenario = \"flash-crowd\"\nduration_s = 20.0\n",
            minimal_toml()
        );
        let scenario = ScenarioSpec::from_toml_str(&toml)
            .unwrap()
            .compile()
            .unwrap();
        assert!(scenario.traffic.is_some());
        for name in ALL_PLANNER_NAMES {
            assert!(planner_by_name(name, &scenario).is_ok(), "{name}");
        }
        assert!(planner_by_name("simulated-annealing", &scenario).is_err());
    }

    #[test]
    fn custom_catalog_restricts_the_pool() {
        // A CPU-only catalog must reject the MT-WND GPU pool.
        let dir = std::env::temp_dir().join("ribbon-scenario-test-catalog");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cpu_only.toml");
        let cpu_only = ribbon_cloudsim::Catalog::from_entries(
            ribbon_cloudsim::Catalog::builtin()
                .entries()
                .iter()
                .filter(|e| e.family != "g4dn")
                .cloned()
                .collect(),
        )
        .unwrap();
        std::fs::write(
            &path,
            ribbon_spec::toml::to_string(&cpu_only.to_value()).unwrap(),
        )
        .unwrap();

        let toml = minimal_toml().replace(
            "seed = 3",
            &format!("seed = 3\ncatalog = \"{}\"", path.display()),
        );
        let e = ScenarioSpec::from_toml_str(&toml)
            .unwrap()
            .compile()
            .unwrap_err();
        assert!(e.to_string().contains("g4dn"), "{e}");
    }
}
