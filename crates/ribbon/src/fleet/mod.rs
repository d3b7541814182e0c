//! Multi-model fleet serving on a shared heterogeneous pool.
//!
//! The scenario façade ([`crate::scenario`]) plans **one** model's pool at a time. A
//! production deployment co-locates many models on shared capacity — the cost/QoS win
//! INFaaS-style systems demonstrate — and this module grows the façade to that shape:
//!
//! * [`FleetSpec`] — a declarative `[fleet]` + `[[model]]` file: every model brings its
//!   own workload, QoS policy, traffic trace, and online knobs (the exact schema of a
//!   single-model scenario file), while the fleet header declares the shared catalog,
//!   the joint search budget, and which instance families are opened for cross-model
//!   **shared slots**;
//! * [`Fleet`] — the compiled form: one [`Catalog`] shared by every member, each member
//!   compiled through the existing scenario machinery (so bounds probing, policy
//!   construction, and traffic compilation behave identically to a single-model run);
//! * [`FleetEvaluator`] — evaluates one *joint allocation* (per-model dedicated slices
//!   plus the shared slice) against every member's QoS at once, by merged-stream
//!   simulation through the [`ribbon_cloudsim::FleetSim`] router when shared slots are
//!   in play, and by the members' own (cached, parallel) [`crate::ConfigEvaluator`]s
//!   when the allocation is fully dedicated;
//! * [`FleetPlanner`] / [`RibbonFleetPlanner`] — the joint Bayesian-Optimization search
//!   over the cross-product allocation space (re-using the incremental GP engine), a
//!   dedicated-pools baseline with per-model savings, and an online serve path that
//!   watches each model's windows and reconfigures **only the violating model's slice**.
//!
//! A fleet with a single model and no shared families degenerates *bit-for-bit* into
//! the single-model [`crate::scenario::RibbonPlanner`] path — plan trace and serve
//! windows alike — pinned by `tests/fleet_serving.rs`.

mod evaluator;
mod planner;
mod spec;

pub use evaluator::{FleetEvaluation, FleetEvaluator};
pub use planner::{
    serve_fleet, FleetMemberReport, FleetMemberServe, FleetPlanner, FleetReport, FleetServeTotals,
    RibbonFleetPlanner, JOINT_BO_LATTICE_CAP,
};
pub use spec::{FleetModelSpec, FleetSpec};

use crate::scenario::{PlannerSpec, RunMode, Scenario, ScenarioError, ScenarioSpec};
use crate::search::RibbonSettings;
use ribbon_cloudsim::{Catalog, InstanceType};
use ribbon_gp::FitConfig;
use std::path::Path;

/// Default per-family search bound of the shared slice.
pub const DEFAULT_SHARED_BOUND: u32 = 4;

/// One compiled fleet member: the scenario machinery's output plus fleet-only knobs.
#[derive(Debug, Clone)]
pub struct FleetMember {
    /// Display name (defaults to the model name).
    pub name: String,
    /// Objective weight in the joint score.
    pub weight: f64,
    /// Shared-slice routing weight (see [`ribbon_cloudsim::FleetModelConfig`]).
    pub share_weight: f64,
    /// The member compiled exactly as a single-model scenario would be.
    pub scenario: Scenario,
}

/// A compiled, runnable fleet.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The spec this fleet was compiled from.
    pub spec: FleetSpec,
    /// The instance catalog shared by every member.
    pub catalog: Catalog,
    /// The members, in spec order.
    pub members: Vec<FleetMember>,
    /// Instance types of the shared slice (may be empty).
    pub shared_types: Vec<InstanceType>,
    /// Per-type search bounds of the shared slice (parallel to `shared_types`).
    pub shared_bounds: Vec<u32>,
    /// Joint-search settings (budget, initial samples, pruning, GP grid).
    pub search: RibbonSettings,
}

impl FleetSpec {
    /// Compiles the fleet against its catalog. Relative catalog paths resolve against
    /// the current directory; [`Fleet::load`] resolves against the spec file instead.
    pub fn compile(&self) -> Result<Fleet, ScenarioError> {
        self.compile_with_base(None)
    }

    /// Compiles the fleet, resolving a relative `fleet.catalog` path against `base_dir`.
    pub fn compile_with_base(&self, base_dir: Option<&Path>) -> Result<Fleet, ScenarioError> {
        // `from_value` enforces this too, but every field is pub and the bench harness
        // builds specs programmatically — an empty fleet must error, not panic below.
        if self.models.is_empty() {
            return Err(ScenarioError::invalid(
                "model",
                "a fleet needs at least one [[model]] entry",
            ));
        }
        let member_budget = self.member_budget.unwrap_or(self.budget);
        let mut members = Vec::with_capacity(self.models.len());
        for (i, m) in self.models.iter().enumerate() {
            let path = format!("model[{i}]");
            let weight = m.weight.unwrap_or(1.0);
            if !(weight.is_finite() && weight > 0.0) {
                return Err(ScenarioError::invalid(
                    format!("{path}.weight"),
                    "must be a positive number",
                ));
            }
            let share_weight = match m.share_weight {
                Some(w) if w.is_finite() && w >= 0.0 => w,
                Some(_) => {
                    return Err(ScenarioError::invalid(
                        format!("{path}.share_weight"),
                        "must be a non-negative number",
                    ))
                }
                None if self.shared_pool.is_empty() => 0.0,
                None => 1.0,
            };
            // Each member compiles through the single-model scenario machinery, so
            // bounds, policies, traffic, and online settings behave identically to a
            // standalone run of the same sections.
            let member_spec = ScenarioSpec {
                name: m
                    .name
                    .clone()
                    .unwrap_or_else(|| m.workload.model.to_ascii_lowercase()),
                description: String::new(),
                mode: self.mode,
                seed: self.seed,
                catalog: self.catalog.clone(),
                workload: m.workload.clone(),
                qos: m.qos.clone(),
                qos_tiers: m.qos_tiers.clone(),
                planner: PlannerSpec {
                    name: "ribbon".to_string(),
                    budget: member_budget,
                    baseline: false,
                    initial_samples: self.initial_samples,
                    prune_threshold: self.prune_threshold,
                    ..PlannerSpec::default()
                },
                evaluator: crate::scenario::EvaluatorSpec {
                    bounds: m.bounds.clone(),
                    threads: self.threads,
                    ..Default::default()
                },
                traffic: m.traffic.clone(),
                online: m.online.clone(),
            };
            let scenario = member_spec
                .compile_with_base(base_dir)
                .map_err(|e| e.prefix_path(&path))?;
            members.push(FleetMember {
                name: member_spec.name.clone(),
                weight,
                share_weight,
                scenario,
            });
        }

        let catalog = members
            .first()
            .map(|m| m.scenario.catalog.clone())
            .expect("checked non-empty above");

        let mut shared_types = Vec::with_capacity(self.shared_pool.len());
        for family in &self.shared_pool {
            shared_types.push(
                catalog
                    .resolve(family)
                    .map_err(|e| ScenarioError::from_config("fleet.shared_pool", e))?,
            );
        }
        let shared_bounds = match &self.shared_bounds {
            Some(b) => {
                if b.iter().all(|&x| x == 0) && !b.is_empty() {
                    return Err(ScenarioError::invalid(
                        "fleet.shared_bounds",
                        "at least one shared bound must be positive",
                    ));
                }
                b.clone()
            }
            None => vec![DEFAULT_SHARED_BOUND; shared_types.len()],
        };
        if !shared_types.is_empty() && members.iter().all(|m| m.share_weight == 0.0) {
            return Err(ScenarioError::invalid(
                "fleet.shared_pool",
                "a shared pool is declared but every model has share_weight = 0",
            ));
        }

        let defaults = RibbonSettings::default();
        let search = RibbonSettings {
            max_evaluations: self.budget,
            initial_samples: self.initial_samples.unwrap_or(defaults.initial_samples),
            prune_threshold: self.prune_threshold.unwrap_or(defaults.prune_threshold),
            acquisition: defaults.acquisition,
            fit: FitConfig::coarse(),
            start_config: None,
            scan_threads: None,
            batch: self.batch.unwrap_or(defaults.batch),
            fidelity: defaults.fidelity,
        };

        Ok(Fleet {
            spec: self.clone(),
            catalog,
            members,
            shared_types,
            shared_bounds,
            search,
        })
    }
}

impl Fleet {
    /// Loads and compiles a fleet file (TOML or JSON, by extension). Relative catalog
    /// paths resolve against the spec file's directory.
    pub fn load(path: &str) -> Result<Fleet, ScenarioError> {
        let spec = FleetSpec::load_file(path)?;
        spec.compile_with_base(Path::new(path).parent())
    }

    /// Number of fleet members.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// `true` when the fleet declares shared slots.
    pub fn has_shared(&self) -> bool {
        !self.shared_types.is_empty()
    }

    /// Runs the fleet with the RIBBON fleet planner in its spec'd mode.
    pub fn run(&self) -> Result<FleetReport, ScenarioError> {
        let planner = RibbonFleetPlanner;
        match self.spec.mode {
            RunMode::Plan => planner.plan(self),
            RunMode::Serve => planner.serve(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn duo_toml() -> String {
        r#"
[fleet]
name = "duo"
mode = "plan"
seed = 5
budget = 10
shared_pool = ["g4dn"]
shared_bounds = [3]

[[model]]
bounds = [4, 2, 4]

[model.workload]
model = "MT-WND"
num_queries = 500

[[model]]
bounds = [4, 2, 4]

[model.workload]
model = "DIEN"
num_queries = 400
"#
        .to_string()
    }

    #[test]
    fn fleet_compiles_members_through_the_scenario_machinery() {
        let fleet = FleetSpec::from_toml_str(&duo_toml())
            .unwrap()
            .compile()
            .unwrap();
        assert_eq!(fleet.num_members(), 2);
        assert_eq!(fleet.members[0].name, "mt-wnd");
        assert_eq!(
            fleet.members[0].scenario.workload.model,
            ribbon_models::ModelKind::MtWnd
        );
        assert_eq!(
            fleet.members[1].scenario.evaluator_settings.explicit_bounds,
            Some(vec![4, 2, 4])
        );
        assert_eq!(fleet.shared_types, vec![InstanceType::G4dn]);
        assert_eq!(fleet.shared_bounds, vec![3]);
        assert_eq!(fleet.search.max_evaluations, 10);
        assert_eq!(
            fleet.members[0].share_weight, 1.0,
            "defaults on with shared"
        );
        assert!(fleet.has_shared());
    }

    #[test]
    fn member_errors_carry_the_member_path() {
        let bad = duo_toml().replace("model = \"DIEN\"", "model = \"GPT-5\"");
        let e = FleetSpec::from_toml_str(&bad)
            .unwrap()
            .compile()
            .unwrap_err();
        assert!(e.to_string().contains("model[1].workload.model"), "{e}");
    }

    #[test]
    fn unknown_shared_family_is_rejected() {
        let bad = duo_toml().replace("shared_pool = [\"g4dn\"]", "shared_pool = [\"quantum9\"]");
        let e = FleetSpec::from_toml_str(&bad)
            .unwrap()
            .compile()
            .unwrap_err();
        assert!(e.to_string().contains("fleet.shared_pool"), "{e}");
    }

    #[test]
    fn all_zero_share_weights_with_a_shared_pool_is_an_error() {
        let bad = duo_toml().replace(
            "bounds = [4, 2, 4]\n\n[model.workload]\nmodel = \"MT-WND\"",
            "bounds = [4, 2, 4]\nshare_weight = 0.0\n\n[model.workload]\nmodel = \"MT-WND\"",
        );
        let bad = bad.replace(
            "bounds = [4, 2, 4]\n\n[model.workload]\nmodel = \"DIEN\"",
            "bounds = [4, 2, 4]\nshare_weight = 0.0\n\n[model.workload]\nmodel = \"DIEN\"",
        );
        let e = FleetSpec::from_toml_str(&bad)
            .unwrap()
            .compile()
            .unwrap_err();
        assert!(e.to_string().contains("share_weight = 0"), "{e}");
    }

    #[test]
    fn serve_mode_requires_traffic_per_member() {
        let bad = duo_toml().replace("mode = \"plan\"", "mode = \"serve\"");
        let e = FleetSpec::from_toml_str(&bad)
            .unwrap()
            .compile()
            .unwrap_err();
        assert!(e.to_string().contains("model[0].traffic"), "{e}");
    }

    #[test]
    fn programmatic_empty_fleet_errors_instead_of_panicking() {
        // Every field is pub; a spec built in code with no models must fail cleanly.
        let spec = FleetSpec {
            models: Vec::new(),
            ..FleetSpec::from_toml_str(&duo_toml()).unwrap()
        };
        let e = spec.compile().unwrap_err();
        assert!(e.to_string().contains("at least one [[model]]"), "{e}");
    }

    #[test]
    fn baseline_false_suppresses_the_comparison_in_the_report() {
        // The per-member optimum searches still run (they seed the warm start), but
        // the report must honour the opt-out: no baseline or saving fields.
        let mut spec = FleetSpec::from_toml_str(&duo_toml()).unwrap();
        spec.baseline = false;
        spec.models[0].workload.num_queries = Some(300);
        spec.models[1].workload.num_queries = Some(300);
        spec.budget = 8;
        let report = spec.compile().unwrap().run().unwrap();
        assert!(report.baseline_total_hourly_cost.is_none());
        assert!(report.saving_percent.is_none());
        for m in &report.models {
            assert!(m.baseline_config.is_none(), "{}", m.name);
            assert!(m.saving_percent.is_none(), "{}", m.name);
        }
    }
}
