//! The typed scenario schema: what a `scenario.toml` (or `.json`) file contains.
//!
//! [`ScenarioSpec`] is a *description* — plain data, fully serializable, comparable —
//! compiled into runnable engine objects by [`super::Scenario`]. Parsing is strict:
//! unknown keys and sections are rejected (a typo must be an error, not a silently
//! ignored knob), every error carries the dotted path of the offending field, and
//! `to_value` emits exactly the fields that were set, so `parse → serialize → parse`
//! reproduces the spec losslessly.

use super::error::ScenarioError;
use ribbon_spec::Value;
use serde::{Deserialize, Serialize};

/// What a planner should do with a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RunMode {
    /// Offline search only: find the best pool configuration.
    #[default]
    Plan,
    /// Online serving: search an initial deployment, then serve the traffic trace with
    /// windowed monitoring (and, for the RIBBON planner, mid-stream reconfiguration).
    Serve,
}

impl RunMode {
    /// The stable name scenario files use.
    pub fn name(&self) -> &'static str {
        match self {
            RunMode::Plan => "plan",
            RunMode::Serve => "serve",
        }
    }

    /// Parses a scenario-file mode name.
    pub fn from_name(name: &str) -> Option<RunMode> {
        [RunMode::Plan, RunMode::Serve]
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }
}

/// `[workload]`: which model is served and optional overrides of its standard shape.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Model name (`"MT-WND"`, `"DIEN"`, `"CANDLE"`, `"ResNet50"`, `"VGG19"`).
    pub model: String,
    /// Mean arrival rate override (queries/second).
    pub qps: Option<f64>,
    /// Queries per configuration evaluation.
    pub num_queries: Option<usize>,
    /// Median batch size.
    pub median_batch: Option<f64>,
    /// Maximum batch size.
    pub max_batch: Option<u32>,
    /// Batch-size distribution shape (`"heavy-tail"` or `"gaussian"`).
    pub batch_shape: Option<String>,
    /// Query-stream RNG seed.
    pub stream_seed: Option<u64>,
    /// Homogeneous-baseline instance family (catalog name, e.g. `"g4dn"`).
    pub base_type: Option<String>,
    /// Diverse-pool instance families in dispatch-preference order.
    pub diverse_pool: Option<Vec<String>>,
    /// Serving-variant palette in preference order (index 0 is the accuracy-best
    /// variant the planner and router fall back to). Unset = no variant axis.
    pub variants: Option<Vec<String>>,
    /// Minimum acceptable serving accuracy; every listed variant must meet it.
    pub min_accuracy: Option<f64>,
}

/// `[qos]`: the acceptance criterion (defaults to the model's standard p99 target).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QosSpec {
    /// `target_rate` of queries within `latency_ms` (the paper's form).
    TailRate {
        /// Per-query deadline in milliseconds.
        latency_ms: f64,
        /// Required in-deadline fraction in `(0, 1]`.
        target_rate: f64,
    },
    /// Mean latency at or below `mean_target_ms`; `latency_ms` classifies individual
    /// queries for reporting.
    MeanLatency {
        /// Mean-latency budget in milliseconds.
        mean_target_ms: f64,
        /// Per-query classification deadline in milliseconds.
        latency_ms: f64,
    },
    /// Every query within `latency_ms`.
    Deadline {
        /// The hard per-query deadline in milliseconds.
        latency_ms: f64,
    },
}

/// One `[[qos.tiers]]` entry: a named priority class sharing the model's pool.
///
/// Tiers split the model's query stream into weighted priority classes served from the
/// same slots: `premium` dispatches on the firm clock (and may preempt queued
/// best-effort work), `standard` keeps the untiered dispatch exactly, and
/// `best_effort` absorbs overflow queueing and may be admission-dropped past
/// `admission_cap_ms`. A single default-`standard` tier compiles away entirely, so
/// such a spec stays byte-identical to an untiered one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierSpecDef {
    /// Tier name, unique within the model (used in reports).
    pub name: String,
    /// Admission class: `"premium"`, `"standard"`, or `"best_effort"`.
    pub class: String,
    /// Objective weight of the tier in the tier-weighted Eq. 2 (default 1.0).
    pub weight: Option<f64>,
    /// Fraction of the model's queries assigned to the tier; shares must sum to 1.
    pub share: f64,
    /// Per-tier in-deadline rate override (defaults to the model's QoS target rate).
    pub target_rate: Option<f64>,
    /// Per-tier deadline override in milliseconds (defaults to the model's deadline).
    pub latency_ms: Option<f64>,
    /// Best-effort only: maximum queueing delay in milliseconds before a query is
    /// admission-dropped instead of served.
    pub admission_cap_ms: Option<f64>,
}

/// `[planner]`: which planner runs the scenario and its search knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerSpec {
    /// Planner name: `ribbon`, `tpe`, `random`, `hill-climb`, `rsm`, or `exhaustive`.
    pub name: String,
    /// Evaluation budget of the (initial) search.
    pub budget: usize,
    /// Whether to compute the homogeneous baseline and savings (plan mode).
    pub baseline: bool,
    /// Random space-filling evaluations before the GP takes over (RIBBON).
    pub initial_samples: Option<usize>,
    /// Active-pruning threshold θ (RIBBON).
    pub prune_threshold: Option<f64>,
    /// GP hyperparameter grid: `"coarse"` (default) or `"full"`.
    pub fit: Option<String>,
    /// Worker threads for the BO acquisition scan (RIBBON).
    pub scan_threads: Option<usize>,
    /// Starting configuration evaluated before the BO loop (RIBBON).
    pub start_config: Option<Vec<u32>>,
    /// Candidates asked per optimizer round (`q`); batches evaluate in parallel. Unset,
    /// `ribbon` and `tpe` ask one at a time and the baselines
    /// [`crate::strategies::DEFAULT_ASK_CHUNK`] (their traces do not depend on it).
    pub batch: Option<usize>,
    /// Successive-halving prefix fraction in `(0, 1)`; unset disables multi-fidelity.
    /// It screens asked batches, so it takes effect only with an explicit `batch` above 1.
    pub fidelity: Option<f64>,
}

impl Default for PlannerSpec {
    fn default() -> Self {
        PlannerSpec {
            name: "ribbon".to_string(),
            budget: 30,
            baseline: true,
            initial_samples: None,
            prune_threshold: None,
            fit: None,
            scan_threads: None,
            start_config: None,
            batch: None,
            fidelity: None,
        }
    }
}

/// `[evaluator]`: how configurations are evaluated.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EvaluatorSpec {
    /// Hard cap on every per-type search bound.
    pub max_per_type: Option<u32>,
    /// Saturation epsilon of the bound probe.
    pub saturation_epsilon: Option<f64>,
    /// Explicit per-type bounds, skipping the probe.
    pub bounds: Option<Vec<u32>>,
    /// Worker threads for batch evaluation.
    pub threads: Option<usize>,
}

/// One phase of an inline traffic schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Phase length in seconds.
    pub duration_s: f64,
    /// Mean arrival rate during the phase (queries/second).
    pub qps: f64,
}

/// `[traffic]`: the time-varying load of a serve-mode run — either a named
/// [`ribbon_models::TrafficScenario`] or an explicit phase list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Named scenario (`"diurnal"`, `"flash-crowd"`, `"slow-ramp"`, `"load-drop"`).
    pub scenario: Option<String>,
    /// Explicit piecewise-constant phases (mutually exclusive with `scenario`).
    pub phases: Option<Vec<PhaseSpec>>,
    /// Run duration in seconds (defaults to the phase sum for inline phases).
    pub duration_s: Option<f64>,
}

/// `[online]`: monitoring-window shape and controller hysteresis for serve mode.
/// Unset fields fall back to [`crate::online::OnlineControllerSettings::default`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineSpec {
    /// Monitoring window length in seconds.
    pub window_s: Option<f64>,
    /// Window stride (defaults to `window_s`: tumbling windows).
    pub window_step_s: Option<f64>,
    /// Multiplier on per-type spin-up delays.
    pub spin_up_factor: Option<f64>,
    /// Evaluation budget of the initial search (defaults to `planner.budget`).
    pub initial_budget: Option<usize>,
    /// Evaluation budget of every mid-stream replan.
    pub replan_budget: Option<usize>,
    /// Queries per planning stream at base load.
    pub planning_queries: Option<usize>,
    /// Consecutive violating windows before a scale-up replan.
    pub violation_windows: Option<usize>,
    /// Consecutive underloaded-but-healthy windows before a scale-down replan.
    pub overprovision_windows: Option<usize>,
    /// Underload threshold as a fraction of the planned load.
    pub overprovision_headroom: Option<f64>,
    /// Windows ignored after a replan.
    pub cooldown_windows: Option<usize>,
    /// Load multiplier when planning a scale-up.
    pub scale_up_margin: Option<f64>,
    /// Load multiplier when planning a scale-down.
    pub scale_down_margin: Option<f64>,
}

/// A complete declarative scenario: everything a planner needs, from the instance
/// catalog to the traffic trace, as plain serializable data.
///
/// See the crate-level docs and the repository's `scenarios/` directory for examples;
/// [`super::Scenario::load`] goes from a file path to a compiled, runnable scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and output files).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// What to do: offline `plan` or online `serve`.
    pub mode: RunMode,
    /// Master seed of the run (search suggestions, replans).
    pub seed: u64,
    /// Path to an instance-catalog data file (default: the built-in Table 2 catalog).
    /// Relative paths resolve against the spec file's directory.
    pub catalog: Option<String>,
    /// The served workload.
    pub workload: WorkloadSpec,
    /// The acceptance criterion (default: the model's standard tail-rate target).
    pub qos: Option<QosSpec>,
    /// `[[qos.tiers]]`: optional priority classes splitting the query stream.
    pub qos_tiers: Option<Vec<TierSpecDef>>,
    /// The planner and its knobs.
    pub planner: PlannerSpec,
    /// Evaluator construction knobs.
    pub evaluator: EvaluatorSpec,
    /// Traffic trace (required for serve mode).
    pub traffic: Option<TrafficSpec>,
    /// Online-serving knobs.
    pub online: OnlineSpec,
}

// ---------------------------------------------------------------------------
// Value-tree reading helpers: every accessor knows its dotted path.
// ---------------------------------------------------------------------------

/// A top-level section: present and a table, present but mistyped (error), or absent.
/// A scalar where a `[section]` belongs must not silently read as "empty section" —
/// every one of its keys would be dropped.
fn section<'a>(root: &'a Value, key: &str) -> Result<Option<&'a Value>, ScenarioError> {
    match root.get(key) {
        None => Ok(None),
        Some(v) if v.as_table().is_some() => Ok(Some(v)),
        Some(v) => Err(ScenarioError::invalid(
            key,
            format!("expected a [{key}] table, found {}", v.type_name()),
        )),
    }
}

fn check_keys(table: &Value, path: &str, allowed: &[&str]) -> Result<(), ScenarioError> {
    for key in table.keys() {
        if !allowed.contains(&key) {
            return Err(ScenarioError::invalid(
                format!("{path}.{key}"),
                format!("unknown key (expected one of: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn field_path(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn opt_str(table: &Value, path: &str, key: &str) -> Result<Option<String>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => v.as_str().map(|s| Some(s.to_string())).ok_or_else(|| {
            ScenarioError::invalid(
                field_path(path, key),
                format!("expected a string, found {}", v.type_name()),
            )
        }),
    }
}

fn opt_f64(table: &Value, path: &str, key: &str) -> Result<Option<f64>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| {
            ScenarioError::invalid(
                field_path(path, key),
                format!("expected a number, found {}", v.type_name()),
            )
        }),
    }
}

fn opt_bool(table: &Value, path: &str, key: &str) -> Result<Option<bool>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => v.as_bool().map(Some).ok_or_else(|| {
            ScenarioError::invalid(
                field_path(path, key),
                format!("expected a boolean, found {}", v.type_name()),
            )
        }),
    }
}

fn opt_unsigned(table: &Value, path: &str, key: &str) -> Result<Option<u64>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_i64()
            .and_then(|i| u64::try_from(i).ok())
            .map(Some)
            .ok_or_else(|| {
                ScenarioError::invalid(
                    field_path(path, key),
                    format!("expected a non-negative integer, found {}", v.type_name()),
                )
            }),
    }
}

fn opt_usize(table: &Value, path: &str, key: &str) -> Result<Option<usize>, ScenarioError> {
    Ok(opt_unsigned(table, path, key)?.map(|v| v as usize))
}

fn opt_u32(table: &Value, path: &str, key: &str) -> Result<Option<u32>, ScenarioError> {
    match opt_unsigned(table, path, key)? {
        None => Ok(None),
        Some(v) => u32::try_from(v).map(Some).map_err(|_| {
            ScenarioError::invalid(field_path(path, key), "value does not fit in 32 bits")
        }),
    }
}

fn opt_u32_list(table: &Value, path: &str, key: &str) -> Result<Option<Vec<u32>>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => {
            let items = v.as_array().ok_or_else(|| {
                ScenarioError::invalid(
                    field_path(path, key),
                    format!("expected an array of integers, found {}", v.type_name()),
                )
            })?;
            items
                .iter()
                .map(|item| {
                    item.as_i64()
                        .and_then(|i| u32::try_from(i).ok())
                        .ok_or_else(|| {
                            ScenarioError::invalid(
                                field_path(path, key),
                                "expected non-negative integers",
                            )
                        })
                })
                .collect::<Result<Vec<u32>, _>>()
                .map(Some)
        }
    }
}

fn opt_str_list(
    table: &Value,
    path: &str,
    key: &str,
) -> Result<Option<Vec<String>>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => {
            let items = v.as_array().ok_or_else(|| {
                ScenarioError::invalid(
                    field_path(path, key),
                    format!("expected an array of strings, found {}", v.type_name()),
                )
            })?;
            items
                .iter()
                .map(|item| {
                    item.as_str().map(str::to_string).ok_or_else(|| {
                        ScenarioError::invalid(field_path(path, key), "expected strings")
                    })
                })
                .collect::<Result<Vec<String>, _>>()
                .map(Some)
        }
    }
}

fn req_str(table: &Value, path: &str, key: &str) -> Result<String, ScenarioError> {
    opt_str(table, path, key)?
        .ok_or_else(|| ScenarioError::invalid(field_path(path, key), "required field is missing"))
}

fn req_f64(table: &Value, path: &str, key: &str) -> Result<f64, ScenarioError> {
    opt_f64(table, path, key)?
        .ok_or_else(|| ScenarioError::invalid(field_path(path, key), "required field is missing"))
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// Builds a spec from a parsed value tree, validating shape and key names.
    pub fn from_value(root: &Value) -> Result<ScenarioSpec, ScenarioError> {
        if root.as_table().is_none() {
            return Err(ScenarioError::invalid("", "a scenario must be a table"));
        }
        check_keys(
            root,
            "",
            &[
                "scenario",
                "workload",
                "qos",
                "planner",
                "evaluator",
                "traffic",
                "online",
            ],
        )?;

        let header = section(root, "scenario")?
            .ok_or_else(|| ScenarioError::invalid("scenario", "missing [scenario] section"))?;
        check_keys(
            header,
            "scenario",
            &["name", "description", "mode", "seed", "catalog"],
        )?;
        let name = req_str(header, "scenario", "name")?;
        let description = opt_str(header, "scenario", "description")?.unwrap_or_default();
        let mode = match opt_str(header, "scenario", "mode")? {
            None => RunMode::default(),
            Some(m) => RunMode::from_name(&m).ok_or_else(|| {
                ScenarioError::invalid("scenario.mode", format!("unknown mode `{m}`"))
            })?,
        };
        let seed = opt_unsigned(header, "scenario", "seed")?.unwrap_or(0);
        let catalog = opt_str(header, "scenario", "catalog")?;

        let workload_table = section(root, "workload")?
            .ok_or_else(|| ScenarioError::invalid("workload", "missing [workload] section"))?;
        let workload = Self::workload_from(workload_table)?;
        let (qos, qos_tiers) = match section(root, "qos")? {
            None => (None, None),
            Some(t) => Self::qos_section_from(t, "qos")?,
        };
        let planner = match section(root, "planner")? {
            None => PlannerSpec::default(),
            Some(t) => Self::planner_from(t)?,
        };
        let evaluator = match section(root, "evaluator")? {
            None => EvaluatorSpec::default(),
            Some(t) => Self::evaluator_from(t)?,
        };
        let traffic = match section(root, "traffic")? {
            None => None,
            Some(t) => Some(Self::traffic_from(t)?),
        };
        let online = match section(root, "online")? {
            None => OnlineSpec::default(),
            Some(t) => Self::online_from(t)?,
        };

        Ok(ScenarioSpec {
            name,
            description,
            mode,
            seed,
            catalog,
            workload,
            qos,
            qos_tiers,
            planner,
            evaluator,
            traffic,
            online,
        })
    }

    /// Parses a full `[qos]` section: the policy (when any policy key is present) plus
    /// the optional `[[qos.tiers]]` priority classes. A section holding *only* tiers
    /// keeps the model's default policy.
    pub(crate) fn qos_section_from(
        t: &Value,
        path: &str,
    ) -> Result<(Option<QosSpec>, Option<Vec<TierSpecDef>>), ScenarioError> {
        let tiers = Self::qos_tiers_from(t, path)?;
        let has_policy_keys = t.keys().iter().any(|&k| k != "tiers");
        let qos = if has_policy_keys {
            Some(Self::qos_from(t)?)
        } else {
            None
        };
        Ok((qos, tiers))
    }

    fn qos_tiers_from(t: &Value, path: &str) -> Result<Option<Vec<TierSpecDef>>, ScenarioError> {
        let tiers_path = field_path(path, "tiers");
        let Some(v) = t.get("tiers") else {
            return Ok(None);
        };
        let items = v.as_array().ok_or_else(|| {
            ScenarioError::invalid(
                tiers_path.clone(),
                format!(
                    "expected an array of [[{tiers_path}]] tables, found {}",
                    v.type_name()
                ),
            )
        })?;
        let mut defs = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let entry_path = format!("{tiers_path}[{i}]");
            if item.as_table().is_none() {
                return Err(ScenarioError::invalid(
                    entry_path,
                    format!("expected a tier table, found {}", item.type_name()),
                ));
            }
            check_keys(
                item,
                &entry_path,
                &[
                    "name",
                    "class",
                    "weight",
                    "share",
                    "target_rate",
                    "latency_ms",
                    "admission_cap_ms",
                ],
            )?;
            defs.push(TierSpecDef {
                name: req_str(item, &entry_path, "name")?,
                class: req_str(item, &entry_path, "class")?,
                weight: opt_f64(item, &entry_path, "weight")?,
                share: req_f64(item, &entry_path, "share")?,
                target_rate: opt_f64(item, &entry_path, "target_rate")?,
                latency_ms: opt_f64(item, &entry_path, "latency_ms")?,
                admission_cap_ms: opt_f64(item, &entry_path, "admission_cap_ms")?,
            });
        }
        Ok(Some(defs))
    }

    pub(crate) fn workload_from(t: &Value) -> Result<WorkloadSpec, ScenarioError> {
        check_keys(
            t,
            "workload",
            &[
                "model",
                "qps",
                "num_queries",
                "median_batch",
                "max_batch",
                "batch_shape",
                "stream_seed",
                "base_type",
                "diverse_pool",
                "variants",
                "min_accuracy",
            ],
        )?;
        Ok(WorkloadSpec {
            model: req_str(t, "workload", "model")?,
            qps: opt_f64(t, "workload", "qps")?,
            num_queries: opt_usize(t, "workload", "num_queries")?,
            median_batch: opt_f64(t, "workload", "median_batch")?,
            max_batch: opt_u32(t, "workload", "max_batch")?,
            batch_shape: opt_str(t, "workload", "batch_shape")?,
            stream_seed: opt_unsigned(t, "workload", "stream_seed")?,
            base_type: opt_str(t, "workload", "base_type")?,
            diverse_pool: opt_str_list(t, "workload", "diverse_pool")?,
            variants: opt_str_list(t, "workload", "variants")?,
            min_accuracy: opt_f64(t, "workload", "min_accuracy")?,
        })
    }

    pub(crate) fn qos_from(t: &Value) -> Result<QosSpec, ScenarioError> {
        let policy = opt_str(t, "qos", "policy")?.unwrap_or_else(|| "tail-rate".to_string());
        // Keys are checked *per policy*: a `target_rate` under a deadline policy is a
        // misunderstanding that must error, not a knob to silently drop.
        match policy.as_str() {
            "tail-rate" => {
                check_keys(t, "qos", &["policy", "latency_ms", "target_rate", "tiers"])?;
                Ok(QosSpec::TailRate {
                    latency_ms: req_f64(t, "qos", "latency_ms")?,
                    target_rate: opt_f64(t, "qos", "target_rate")?.unwrap_or(0.99),
                })
            }
            "mean-latency" => {
                check_keys(
                    t,
                    "qos",
                    &["policy", "mean_target_ms", "latency_ms", "tiers"],
                )?;
                let mean_target_ms = req_f64(t, "qos", "mean_target_ms")?;
                Ok(QosSpec::MeanLatency {
                    mean_target_ms,
                    // Default classification deadline: 2x the mean budget.
                    latency_ms: opt_f64(t, "qos", "latency_ms")?.unwrap_or(mean_target_ms * 2.0),
                })
            }
            "deadline" => {
                check_keys(t, "qos", &["policy", "latency_ms", "tiers"])?;
                Ok(QosSpec::Deadline {
                    latency_ms: req_f64(t, "qos", "latency_ms")?,
                })
            }
            other => Err(ScenarioError::invalid(
                "qos.policy",
                format!("unknown policy `{other}` (tail-rate, mean-latency, deadline)"),
            )),
        }
    }

    fn planner_from(t: &Value) -> Result<PlannerSpec, ScenarioError> {
        check_keys(
            t,
            "planner",
            &[
                "name",
                "budget",
                "baseline",
                "initial_samples",
                "prune_threshold",
                "fit",
                "scan_threads",
                "start_config",
                "batch",
                "fidelity",
            ],
        )?;
        let defaults = PlannerSpec::default();
        Ok(PlannerSpec {
            name: opt_str(t, "planner", "name")?.unwrap_or(defaults.name),
            budget: opt_usize(t, "planner", "budget")?.unwrap_or(defaults.budget),
            baseline: opt_bool(t, "planner", "baseline")?.unwrap_or(defaults.baseline),
            initial_samples: opt_usize(t, "planner", "initial_samples")?,
            prune_threshold: opt_f64(t, "planner", "prune_threshold")?,
            fit: opt_str(t, "planner", "fit")?,
            scan_threads: opt_usize(t, "planner", "scan_threads")?,
            start_config: opt_u32_list(t, "planner", "start_config")?,
            batch: opt_usize(t, "planner", "batch")?,
            fidelity: opt_f64(t, "planner", "fidelity")?,
        })
    }

    fn evaluator_from(t: &Value) -> Result<EvaluatorSpec, ScenarioError> {
        check_keys(
            t,
            "evaluator",
            &["max_per_type", "saturation_epsilon", "bounds", "threads"],
        )?;
        Ok(EvaluatorSpec {
            max_per_type: opt_u32(t, "evaluator", "max_per_type")?,
            saturation_epsilon: opt_f64(t, "evaluator", "saturation_epsilon")?,
            bounds: opt_u32_list(t, "evaluator", "bounds")?,
            threads: opt_usize(t, "evaluator", "threads")?,
        })
    }

    pub(crate) fn traffic_from(t: &Value) -> Result<TrafficSpec, ScenarioError> {
        check_keys(t, "traffic", &["scenario", "phases", "duration_s"])?;
        let phases = match t.get("phases") {
            None => None,
            Some(v) => {
                let items = v.as_array().ok_or_else(|| {
                    ScenarioError::invalid("traffic.phases", "expected an array of phase tables")
                })?;
                let mut out = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let path = format!("traffic.phases[{i}]");
                    check_keys(item, &path, &["duration_s", "qps"])?;
                    out.push(PhaseSpec {
                        duration_s: req_f64(item, &path, "duration_s")?,
                        qps: req_f64(item, &path, "qps")?,
                    });
                }
                Some(out)
            }
        };
        Ok(TrafficSpec {
            scenario: opt_str(t, "traffic", "scenario")?,
            phases,
            duration_s: opt_f64(t, "traffic", "duration_s")?,
        })
    }

    pub(crate) fn online_from(t: &Value) -> Result<OnlineSpec, ScenarioError> {
        check_keys(
            t,
            "online",
            &[
                "window_s",
                "window_step_s",
                "spin_up_factor",
                "initial_budget",
                "replan_budget",
                "planning_queries",
                "violation_windows",
                "overprovision_windows",
                "overprovision_headroom",
                "cooldown_windows",
                "scale_up_margin",
                "scale_down_margin",
            ],
        )?;
        Ok(OnlineSpec {
            window_s: opt_f64(t, "online", "window_s")?,
            window_step_s: opt_f64(t, "online", "window_step_s")?,
            spin_up_factor: opt_f64(t, "online", "spin_up_factor")?,
            initial_budget: opt_usize(t, "online", "initial_budget")?,
            replan_budget: opt_usize(t, "online", "replan_budget")?,
            planning_queries: opt_usize(t, "online", "planning_queries")?,
            violation_windows: opt_usize(t, "online", "violation_windows")?,
            overprovision_windows: opt_usize(t, "online", "overprovision_windows")?,
            overprovision_headroom: opt_f64(t, "online", "overprovision_headroom")?,
            cooldown_windows: opt_usize(t, "online", "cooldown_windows")?,
            scale_up_margin: opt_f64(t, "online", "scale_up_margin")?,
            scale_down_margin: opt_f64(t, "online", "scale_down_margin")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Serialization: emit exactly the fields that are set.
// ---------------------------------------------------------------------------

fn put<T: Into<Value>>(t: &mut Value, key: &str, v: Option<T>) {
    if let Some(v) = v {
        t.insert(key, v.into());
    }
}

/// Serializes a `[workload]` section (shared with the fleet spec's `[[model]]` entries).
pub(crate) fn workload_to_value(w: &WorkloadSpec) -> Value {
    let mut wt = Value::table();
    wt.insert("model", Value::from(w.model.as_str()));
    put(&mut wt, "qps", w.qps);
    put(&mut wt, "num_queries", w.num_queries);
    put(&mut wt, "median_batch", w.median_batch);
    put(&mut wt, "max_batch", w.max_batch);
    put(&mut wt, "batch_shape", w.batch_shape.as_deref());
    put(&mut wt, "stream_seed", w.stream_seed);
    put(&mut wt, "base_type", w.base_type.as_deref());
    put(
        &mut wt,
        "diverse_pool",
        w.diverse_pool.as_ref().map(|p| {
            p.iter()
                .map(|s| Value::from(s.as_str()))
                .collect::<Vec<_>>()
        }),
    );
    put(
        &mut wt,
        "variants",
        w.variants.as_ref().map(|p| {
            p.iter()
                .map(|s| Value::from(s.as_str()))
                .collect::<Vec<_>>()
        }),
    );
    put(&mut wt, "min_accuracy", w.min_accuracy);
    wt
}

/// Serializes a `[qos]` section (shared with the fleet spec's `[[model]]` entries).
pub(crate) fn qos_to_value(qos: &QosSpec) -> Value {
    let mut qt = Value::table();
    match qos {
        QosSpec::TailRate {
            latency_ms,
            target_rate,
        } => {
            qt.insert("policy", Value::from("tail-rate"));
            qt.insert("latency_ms", Value::from(*latency_ms));
            qt.insert("target_rate", Value::from(*target_rate));
        }
        QosSpec::MeanLatency {
            mean_target_ms,
            latency_ms,
        } => {
            qt.insert("policy", Value::from("mean-latency"));
            qt.insert("mean_target_ms", Value::from(*mean_target_ms));
            qt.insert("latency_ms", Value::from(*latency_ms));
        }
        QosSpec::Deadline { latency_ms } => {
            qt.insert("policy", Value::from("deadline"));
            qt.insert("latency_ms", Value::from(*latency_ms));
        }
    }
    qt
}

/// Serializes a `[[qos.tiers]]` list (shared with the fleet spec's `[[model]]`
/// entries).
pub(crate) fn tiers_to_value(tiers: &[TierSpecDef]) -> Value {
    let items: Vec<Value> = tiers
        .iter()
        .map(|tier| {
            let mut t = Value::table();
            t.insert("name", Value::from(tier.name.as_str()));
            t.insert("class", Value::from(tier.class.as_str()));
            put(&mut t, "weight", tier.weight);
            t.insert("share", Value::from(tier.share));
            put(&mut t, "target_rate", tier.target_rate);
            put(&mut t, "latency_ms", tier.latency_ms);
            put(&mut t, "admission_cap_ms", tier.admission_cap_ms);
            t
        })
        .collect();
    Value::Array(items)
}

/// Serializes a full `[qos]` section: the policy plus any `[[qos.tiers]]` entries.
/// Returns `None` when neither is set, so a sparse spec stays sparse.
pub(crate) fn qos_section_to_value(
    qos: Option<&QosSpec>,
    tiers: Option<&[TierSpecDef]>,
) -> Option<Value> {
    let mut qt = match qos {
        Some(q) => qos_to_value(q),
        None => Value::table(),
    };
    if let Some(tiers) = tiers {
        qt.insert("tiers", tiers_to_value(tiers));
    }
    (qos.is_some() || tiers.is_some()).then_some(qt)
}

/// Serializes a `[traffic]` section (shared with the fleet spec's `[[model]]` entries).
pub(crate) fn traffic_to_value(traffic: &TrafficSpec) -> Value {
    let mut tt = Value::table();
    put(&mut tt, "scenario", traffic.scenario.as_deref());
    put(&mut tt, "duration_s", traffic.duration_s);
    if let Some(phases) = &traffic.phases {
        let items: Vec<Value> = phases
            .iter()
            .map(|ph| {
                let mut t = Value::table();
                t.insert("duration_s", Value::from(ph.duration_s));
                t.insert("qps", Value::from(ph.qps));
                t
            })
            .collect();
        tt.insert("phases", Value::Array(items));
    }
    tt
}

/// Serializes an `[online]` section (shared with the fleet spec's `[[model]]` entries).
pub(crate) fn online_to_value(o: &OnlineSpec) -> Value {
    let mut ot = Value::table();
    put(&mut ot, "window_s", o.window_s);
    put(&mut ot, "window_step_s", o.window_step_s);
    put(&mut ot, "spin_up_factor", o.spin_up_factor);
    put(&mut ot, "initial_budget", o.initial_budget);
    put(&mut ot, "replan_budget", o.replan_budget);
    put(&mut ot, "planning_queries", o.planning_queries);
    put(&mut ot, "violation_windows", o.violation_windows);
    put(&mut ot, "overprovision_windows", o.overprovision_windows);
    put(&mut ot, "overprovision_headroom", o.overprovision_headroom);
    put(&mut ot, "cooldown_windows", o.cooldown_windows);
    put(&mut ot, "scale_up_margin", o.scale_up_margin);
    put(&mut ot, "scale_down_margin", o.scale_down_margin);
    ot
}

impl ScenarioSpec {
    /// Serializes the spec to a value tree. Only explicitly-set optional fields are
    /// emitted, so a sparse file round-trips to an identical spec.
    pub fn to_value(&self) -> Value {
        let mut root = Value::table();

        let mut header = Value::table();
        header.insert("name", Value::from(self.name.as_str()));
        if !self.description.is_empty() {
            header.insert("description", Value::from(self.description.as_str()));
        }
        header.insert("mode", Value::from(self.mode.name()));
        header.insert("seed", Value::from(self.seed));
        put(&mut header, "catalog", self.catalog.as_deref());
        root.insert("scenario", header);

        root.insert("workload", workload_to_value(&self.workload));

        if let Some(qt) = qos_section_to_value(self.qos.as_ref(), self.qos_tiers.as_deref()) {
            root.insert("qos", qt);
        }

        let p = &self.planner;
        let mut pt = Value::table();
        pt.insert("name", Value::from(p.name.as_str()));
        pt.insert("budget", Value::from(p.budget));
        pt.insert("baseline", Value::from(p.baseline));
        put(&mut pt, "initial_samples", p.initial_samples);
        put(&mut pt, "prune_threshold", p.prune_threshold);
        put(&mut pt, "fit", p.fit.as_deref());
        put(&mut pt, "scan_threads", p.scan_threads);
        put(
            &mut pt,
            "start_config",
            p.start_config
                .as_ref()
                .map(|c| c.iter().map(|&v| Value::from(v)).collect::<Vec<_>>()),
        );
        put(&mut pt, "batch", p.batch);
        put(&mut pt, "fidelity", p.fidelity);
        root.insert("planner", pt);

        let e = &self.evaluator;
        if *e != EvaluatorSpec::default() {
            let mut et = Value::table();
            put(&mut et, "max_per_type", e.max_per_type);
            put(&mut et, "saturation_epsilon", e.saturation_epsilon);
            put(
                &mut et,
                "bounds",
                e.bounds
                    .as_ref()
                    .map(|b| b.iter().map(|&v| Value::from(v)).collect::<Vec<_>>()),
            );
            put(&mut et, "threads", e.threads);
            root.insert("evaluator", et);
        }

        if let Some(traffic) = &self.traffic {
            root.insert("traffic", traffic_to_value(traffic));
        }

        if self.online != OnlineSpec::default() {
            root.insert("online", online_to_value(&self.online));
        }

        root
    }

    /// Parses a spec from TOML text.
    pub fn from_toml_str(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        Self::from_value(&ribbon_spec::toml::parse(text)?)
    }

    /// Parses a spec from JSON text.
    pub fn from_json_str(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        Self::from_value(&ribbon_spec::json::parse(text)?)
    }

    /// Serializes the spec as TOML.
    pub fn to_toml_string(&self) -> String {
        ribbon_spec::toml::to_string(&self.to_value())
            // lint:allow(no-panic): serialises a tree built by to_value(), not user input;
            // the round-trip test pins that it is always TOML-expressible
            .expect("a spec value tree is always TOML-expressible")
    }

    /// Serializes the spec as JSON.
    pub fn to_json_string(&self) -> String {
        ribbon_spec::json::to_string(&self.to_value())
    }
}
