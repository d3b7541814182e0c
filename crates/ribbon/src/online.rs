//! Online serving: a QoS-watching controller that reconfigures the pool *mid-stream*.
//!
//! The offline pipeline ([`crate::adapt`]) reproduces Fig. 16 as two searches glued
//! together around a one-shot load step. This module closes the loop the way a production
//! system would (INFaaS-style managed serving): queries keep arriving through
//! [`ribbon_cloudsim::StreamingSim`], per-window QoS statistics stream out, and an
//! [`OnlineController`] watches them with **hysteresis**:
//!
//! * **sustained QoS violation** — `violation_windows` consecutive violating windows
//!   trigger a scale-up replan at the load observed during the violation;
//! * **sustained over-provisioning** — `overprovision_windows` consecutive healthy windows
//!   whose offered load sits below `overprovision_headroom ×` the planned load trigger a
//!   scale-down replan;
//! * empty windows advance **neither** counter — no queries means no evidence (see
//!   [`ribbon_cloudsim::WindowStats`]), and a quiet period must not look like either
//!   health or trouble;
//! * a replan starts a `cooldown_windows`-window cooldown so the controller does not
//!   thrash while freshly launched instances are still spinning up.
//!
//! A replan is a short, warm-started Bayesian-Optimization search: the controller keeps
//! the exploration record of its previous planning phase and injects it into the new
//! search via [`crate::adapt::inject_pseudo_observations`] — the same Sec. 4 machinery the
//! offline adapter uses — so mid-stream decisions cost a handful of evaluations, not a
//! from-scratch search. The chosen pool is applied through
//! [`StreamingSim::reconfigure`], whose drain/spin-up overlap is billed exactly by the
//! simulator and attributed per decision via
//! [`crate::accounting::transition_overlap_cost`].

use crate::accounting::transition_overlap_cost;
use crate::adapt::inject_pseudo_observations;
use crate::evaluator::{ConfigEvaluator, Evaluation, EvaluatorSettings};
use crate::search::{RibbonSearch, RibbonSettings};
use ribbon_cloudsim::streaming::{Reconfiguration, StreamingSim, StreamingSimConfig};
use ribbon_cloudsim::{
    AdmissionClass, PhasedStreamConfig, QosPolicy, SimStats, TierSet, TierTotals, WindowConfig,
    WindowStats,
};
use ribbon_models::Workload;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Hysteresis thresholds and replanning budget of the online controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineControllerSettings {
    /// Consecutive violating windows before a scale-up replan.
    pub violation_windows: usize,
    /// Consecutive healthy-but-underloaded windows before a scale-down replan.
    pub overprovision_windows: usize,
    /// A healthy window counts toward over-provisioning only when its offered load is
    /// below this fraction of the load the current configuration was planned for.
    pub overprovision_headroom: f64,
    /// Windows to ignore after a replan (lets spin-up and queue drain settle).
    pub cooldown_windows: usize,
    /// Multiplier on the observed load when planning a scale-up (> 1 over-provisions so
    /// the backlog accumulated during detection and spin-up actually drains).
    pub scale_up_margin: f64,
    /// Multiplier on the observed load when planning a scale-down (> 1 keeps headroom so
    /// the shrunk pool does not land on the QoS cliff edge and immediately re-trigger a
    /// scale-up — the thrash the hysteresis exists to prevent).
    pub scale_down_margin: f64,
    /// Search settings of a replan (short budgets: the warm start does the heavy lifting).
    pub replan: RibbonSettings,
    /// Evaluator settings shared by the initial search and every replan.
    pub evaluator: EvaluatorSettings,
    /// Queries per planning stream at the *base* load (scaled with the replan's load
    /// factor to keep planning-stream durations comparable).
    pub planning_queries: usize,
}

impl Default for OnlineControllerSettings {
    fn default() -> Self {
        OnlineControllerSettings {
            violation_windows: 2,
            overprovision_windows: 4,
            overprovision_headroom: 0.8,
            cooldown_windows: 3,
            scale_up_margin: 1.1,
            scale_down_margin: 1.15,
            replan: RibbonSettings {
                max_evaluations: 12,
                ..RibbonSettings::fast()
            },
            evaluator: EvaluatorSettings::default(),
            planning_queries: 3000,
        }
    }
}

/// Why the controller decided to reconfigure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigTrigger {
    /// Sustained QoS violation: the pool must grow.
    QosViolation,
    /// Sustained over-provisioning: the pool can shrink.
    OverProvisioning,
}

/// A reconfiguration the controller wants applied.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedReconfig {
    /// Per-type counts of the new configuration.
    pub config: Vec<u32>,
    /// The load (queries/second) the new configuration was planned for.
    pub planned_qps: f64,
    /// What tripped the hysteresis.
    pub trigger: ReconfigTrigger,
    /// Index of the monitoring window that made the decision.
    pub window_index: u64,
    /// The planning evaluation backing the choice.
    pub expected: Evaluation,
}

/// A decision of [`OnlineController::observe_action`]: either a pool reconfiguration or
/// a serving-variant switch (the cheaper first resort on workloads with a variant
/// palette — no search, no spin-up, no transition cost).
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerAction {
    /// Reconfigure the pool (make-before-break, billed transition).
    Reconfig(PlannedReconfig),
    /// Switch the serving variant of the deployed pool.
    SwitchVariant {
        /// Palette index served before the switch.
        from: u32,
        /// Palette index to serve from now on.
        to: u32,
        /// What tripped the hysteresis.
        trigger: ReconfigTrigger,
        /// Index of the monitoring window that made the decision.
        window_index: u64,
    },
}

/// One applied serving-variant switch, as reported by [`serve_online`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantSwitchEvent {
    /// What tripped the hysteresis.
    pub trigger: ReconfigTrigger,
    /// Index of the window that tripped the decision.
    pub window_index: u64,
    /// Stream time the switch took effect (the deciding window's end).
    pub at_s: f64,
    /// Palette index served before the switch.
    pub from: u32,
    /// Palette index served after the switch.
    pub to: u32,
}

/// The window-watching controller. Feed it every closed [`WindowStats`] via
/// [`OnlineController::observe`]; apply any returned [`PlannedReconfig`] to the stream.
pub struct OnlineController {
    settings: OnlineControllerSettings,
    base: Workload,
    policy: Arc<dyn QosPolicy>,
    seed: u64,
    current: Vec<u32>,
    planned_qps: f64,
    /// Exploration record of the most recent planning phase (the warm-start source; the
    /// injection ratio is derived from satisfaction rates, not from the record's load).
    record: Vec<Evaluation>,
    consecutive_violations: usize,
    violating_qps_sum: f64,
    consecutive_overprov: usize,
    overprov_qps_sum: f64,
    cooldown: usize,
    replans: usize,
    /// Size of the workload's serving-variant palette (1 when it has none — every
    /// variant branch below is then dead and the controller is bit-identical to the
    /// pre-variant implementation).
    num_variants: u32,
    serving_variant: u32,
    /// The workload's tier set, when it serves differentiated QoS tiers. `None` keeps
    /// every tier branch dead and the controller bit-identical to the untiered one.
    tiers: Option<TierSet>,
    /// Consecutive windows in which a premium tier (with served evidence) missed its
    /// effective rate target. Premium runs on a shorter fuse than the blended policy:
    /// see [`OnlineController::premium_patience`].
    consecutive_premium: usize,
    premium_qps_sum: f64,
}

impl OnlineController {
    /// Runs the initial configuration search for `workload` and builds a controller
    /// deployed at the cheapest QoS-satisfying configuration found. Returns `None` if the
    /// initial search finds no satisfying configuration.
    pub fn bootstrap(
        workload: &Workload,
        initial_search: &RibbonSettings,
        settings: OnlineControllerSettings,
        seed: u64,
    ) -> Option<OnlineController> {
        Self::bootstrap_with_policy(
            workload,
            initial_search,
            settings,
            seed,
            Arc::new(workload.qos),
        )
    }

    /// [`OnlineController::bootstrap`] with an explicit QoS policy: planning evaluations
    /// and window judgments both use `policy` instead of the workload's tail-rate target.
    /// With `Arc::new(workload.qos)` the two constructors are bit-identical.
    pub fn bootstrap_with_policy(
        workload: &Workload,
        initial_search: &RibbonSettings,
        settings: OnlineControllerSettings,
        seed: u64,
        policy: Arc<dyn QosPolicy>,
    ) -> Option<OnlineController> {
        let evaluator = Self::planning_evaluator(workload, &settings, policy.clone());
        Self::bootstrap_on(&evaluator, workload, initial_search, settings, seed, policy)
    }

    /// The evaluator the bootstrap search plans on: `workload` cut to the controller's
    /// planning stream and judged by `policy`. Building it probes the per-type bounds
    /// when `settings.evaluator` gives none, so a caller can check the lattice they span
    /// before [`OnlineController::bootstrap_on`] searches it.
    pub fn planning_evaluator(
        workload: &Workload,
        settings: &OnlineControllerSettings,
        policy: Arc<dyn QosPolicy>,
    ) -> ConfigEvaluator {
        let mut planning = workload.clone();
        planning.num_queries = settings.planning_queries;
        ConfigEvaluator::with_policy(&planning, settings.evaluator.clone(), policy)
    }

    /// [`OnlineController::bootstrap_with_policy`] on the evaluator
    /// [`OnlineController::planning_evaluator`] built for the same arguments.
    pub fn bootstrap_on(
        evaluator: &ConfigEvaluator,
        workload: &Workload,
        initial_search: &RibbonSettings,
        settings: OnlineControllerSettings,
        seed: u64,
        policy: Arc<dyn QosPolicy>,
    ) -> Option<OnlineController> {
        let trace = RibbonSearch::new(initial_search.clone()).run(evaluator, seed);
        let best = trace.best_satisfying()?.clone();
        Some(OnlineController {
            settings,
            base: workload.clone(),
            policy,
            seed,
            current: best.config.clone(),
            planned_qps: workload.qps,
            record: trace.evaluations().to_vec(),
            consecutive_violations: 0,
            violating_qps_sum: 0.0,
            consecutive_overprov: 0,
            overprov_qps_sum: 0.0,
            cooldown: 0,
            replans: 0,
            num_variants: workload.num_variants().max(1),
            serving_variant: 0,
            tiers: None,
            consecutive_premium: 0,
            premium_qps_sum: 0.0,
        })
    }

    /// Builds a controller around an *already-planned* deployment, skipping the
    /// bootstrap search: `record` is the planning exploration record the warm starts
    /// draw from (it should contain an evaluation of `config`; one is appended when
    /// missing so [`OnlineController::current_evaluation`] never comes up empty), and
    /// `config` is the deployed configuration. `planned_qps` is the load `config` was
    /// planned to carry — for a fleet member whose traffic is partly served by shared
    /// slots, that is the *lane's* share of the model load, not the whole stream. The
    /// fleet serve path uses this — the joint fleet planner, not a per-model search,
    /// chose each model's slice.
    #[allow(clippy::too_many_arguments)]
    pub fn from_plan(
        workload: &Workload,
        settings: OnlineControllerSettings,
        seed: u64,
        policy: Arc<dyn QosPolicy>,
        mut record: Vec<Evaluation>,
        config: Vec<u32>,
        expected: Evaluation,
        planned_qps: f64,
    ) -> OnlineController {
        if !record.iter().any(|e| e.config == config) {
            record.push(expected);
        }
        OnlineController {
            settings,
            base: workload.clone(),
            policy,
            seed,
            current: config,
            planned_qps,
            record,
            consecutive_violations: 0,
            violating_qps_sum: 0.0,
            consecutive_overprov: 0,
            overprov_qps_sum: 0.0,
            cooldown: 0,
            replans: 0,
            num_variants: workload.num_variants().max(1),
            serving_variant: 0,
            tiers: None,
            consecutive_premium: 0,
            premium_qps_sum: 0.0,
        }
    }

    /// Attaches the workload's tier set: premium-tier violations then trip the
    /// controller on a shorter fuse than the blended policy (see
    /// [`OnlineController::premium_patience`]). `None` is the untiered behaviour.
    pub fn with_tiers(mut self, tiers: Option<TierSet>) -> Self {
        self.tiers = tiers;
        self
    }

    /// Consecutive premium-violating windows before the controller reacts: half the
    /// blended patience (at least one window), so a premium breach triggers the
    /// variant-degrade/replan ladder *before* a standard one would.
    pub fn premium_patience(&self) -> usize {
        (self.settings.violation_windows / 2).max(1)
    }

    /// The configuration the controller currently believes is deployed.
    pub fn current_config(&self) -> &[u32] {
        &self.current
    }

    /// The planning evaluation of the current configuration (from the latest record).
    pub fn current_evaluation(&self) -> Option<&Evaluation> {
        self.record.iter().find(|e| e.config == self.current)
    }

    /// The load the current configuration was planned for, in queries/second.
    pub fn planned_qps(&self) -> f64 {
        self.planned_qps
    }

    /// Number of replanning searches run so far.
    pub fn replans(&self) -> usize {
        self.replans
    }

    /// The palette index the controller currently serves (always 0 without a palette).
    pub fn serving_variant(&self) -> u32 {
        self.serving_variant
    }

    /// Feeds one closed monitoring window to the hysteresis logic. Returns a
    /// reconfiguration plan when a threshold trips *and* the replan picks a configuration
    /// different from the current one.
    ///
    /// On a workload with a variant palette, a tripped threshold may instead be absorbed
    /// by a serving-variant switch; this legacy entry point reports those as `None`. Use
    /// [`OnlineController::observe_action`] to see both decision kinds.
    pub fn observe(&mut self, window: &WindowStats) -> Option<PlannedReconfig> {
        match self.observe_action(window)? {
            ControllerAction::Reconfig(plan) => Some(plan),
            ControllerAction::SwitchVariant { .. } => None,
        }
    }

    /// Feeds one closed monitoring window to the hysteresis logic and returns the
    /// controller's decision, if any.
    ///
    /// With a variant palette, switching the serving variant is the **cheaper first
    /// resort**: a sustained violation degrades one palette step (no search, no
    /// spin-up) and only replans the pool once the worst variant is already serving;
    /// sustained over-provisioning symmetrically upgrades back toward the accuracy-best
    /// variant before it will shrink the pool. Palette entries below the scenario's
    /// `min_accuracy` floor were rejected at compile time, so every step stays
    /// accuracy-admissible.
    pub fn observe_action(&mut self, window: &WindowStats) -> Option<ControllerAction> {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        // Empty window: no evidence either way — hold every counter where it is.
        let met = window.meets_policy(self.policy.as_ref())?;

        // Premium fast path (tiered serving only): a premium breach escalates on the
        // shorter premium patience, through the same degrade-then-replan ladder, even
        // while the blended policy still reads healthy — the firm contract must not
        // wait for the whole stream to sour.
        match self.premium_window_violated(window) {
            Some(true) => {
                self.consecutive_premium += 1;
                self.premium_qps_sum += window.arrival_qps;
                if self.consecutive_premium >= self.premium_patience() {
                    if self.serving_variant + 1 < self.num_variants {
                        return Some(self.switch_variant(
                            self.serving_variant + 1,
                            ReconfigTrigger::QosViolation,
                            window.index,
                        ));
                    }
                    let observed = self.premium_qps_sum / self.consecutive_premium as f64;
                    let target = (observed * self.settings.scale_up_margin).max(self.planned_qps);
                    return self
                        .replan(target, window.index, ReconfigTrigger::QosViolation)
                        .map(ControllerAction::Reconfig);
                }
            }
            Some(false) => {
                self.consecutive_premium = 0;
                self.premium_qps_sum = 0.0;
            }
            // A silent premium slice is evidence of nothing — hold the streak.
            None => {}
        }

        if !met {
            self.consecutive_violations += 1;
            self.violating_qps_sum += window.arrival_qps;
            self.consecutive_overprov = 0;
            self.overprov_qps_sum = 0.0;
            if self.consecutive_violations >= self.settings.violation_windows {
                if self.serving_variant + 1 < self.num_variants {
                    return Some(self.switch_variant(
                        self.serving_variant + 1,
                        ReconfigTrigger::QosViolation,
                        window.index,
                    ));
                }
                let observed = self.violating_qps_sum / self.consecutive_violations as f64;
                // Plan for the observed load with a safety margin, and never for less
                // than the load already planned for.
                let target = (observed * self.settings.scale_up_margin).max(self.planned_qps);
                return self
                    .replan(target, window.index, ReconfigTrigger::QosViolation)
                    .map(ControllerAction::Reconfig);
            }
        } else {
            self.consecutive_violations = 0;
            self.violating_qps_sum = 0.0;
            if window.arrival_qps < self.settings.overprovision_headroom * self.planned_qps {
                self.consecutive_overprov += 1;
                self.overprov_qps_sum += window.arrival_qps;
                if self.consecutive_overprov >= self.settings.overprovision_windows {
                    if self.serving_variant > 0 {
                        return Some(self.switch_variant(
                            self.serving_variant - 1,
                            ReconfigTrigger::OverProvisioning,
                            window.index,
                        ));
                    }
                    let observed = self.overprov_qps_sum / self.consecutive_overprov as f64;
                    // Plan with headroom, but stay a scale-down.
                    let target = (observed * self.settings.scale_down_margin).min(self.planned_qps);
                    return self
                        .replan(target, window.index, ReconfigTrigger::OverProvisioning)
                        .map(ControllerAction::Reconfig);
                }
            } else {
                self.consecutive_overprov = 0;
                self.overprov_qps_sum = 0.0;
            }
        }
        None
    }

    /// Whether a premium tier with served evidence missed its effective rate target in
    /// `window`: `Some(true)` when any did, `Some(false)` when all premium evidence is
    /// healthy, `None` when there is none (untiered controller, untiered window, or a
    /// window whose premium slices are all empty).
    fn premium_window_violated(&self, window: &WindowStats) -> Option<bool> {
        let set = self.tiers.as_ref()?;
        let mut verdict = None;
        for (t, spec) in set.tiers().iter().enumerate() {
            if spec.class != AdmissionClass::Premium {
                continue;
            }
            let Some(rate) = window.tiers.get(t).and_then(|tw| tw.satisfaction_rate) else {
                continue;
            };
            let target = set.effective_rate(t, self.policy.threshold());
            verdict = Some(verdict.unwrap_or(false) || rate < target);
        }
        verdict
    }

    /// Applies a serving-variant switch: like a replan it resets every hysteresis
    /// counter and starts the cooldown (the switched pool needs fresh evidence), but it
    /// burns no search budget and leaves the planned load untouched.
    fn switch_variant(
        &mut self,
        to: u32,
        trigger: ReconfigTrigger,
        window_index: u64,
    ) -> ControllerAction {
        self.consecutive_violations = 0;
        self.violating_qps_sum = 0.0;
        self.consecutive_overprov = 0;
        self.overprov_qps_sum = 0.0;
        self.consecutive_premium = 0;
        self.premium_qps_sum = 0.0;
        self.cooldown = self.settings.cooldown_windows;
        let from = self.serving_variant;
        self.serving_variant = to;
        ControllerAction::SwitchVariant {
            from,
            to,
            trigger,
            window_index,
        }
    }

    /// Runs a warm-started search for `target_qps` and updates the controller state.
    fn replan(
        &mut self,
        target_qps: f64,
        window_index: u64,
        trigger: ReconfigTrigger,
    ) -> Option<PlannedReconfig> {
        self.consecutive_violations = 0;
        self.violating_qps_sum = 0.0;
        self.consecutive_overprov = 0;
        self.overprov_qps_sum = 0.0;
        self.consecutive_premium = 0;
        self.premium_qps_sum = 0.0;
        self.cooldown = self.settings.cooldown_windows;
        self.replans += 1;

        let mut planning = self.base.clone();
        planning.num_queries = self.settings.planning_queries;
        let planning = planning.scaled_load(target_qps / self.base.qps);
        let evaluator = ConfigEvaluator::with_policy(
            &planning,
            self.settings.evaluator.clone(),
            self.policy.clone(),
        );
        let search = RibbonSearch::new(self.settings.replan.clone());
        let mut bo = search.make_optimizer(&evaluator);
        let lattice = evaluator.lattice();

        // Re-evaluate the deployed configuration on the planning load: the warm-start
        // anchor (and, when it still satisfies, a scale-down upper bound).
        let prev_on_new = evaluator.evaluate(&self.current);
        if lattice.contains(&self.current) {
            let _ = bo.observe(self.current.clone(), prev_on_new.objective);
        }
        if prev_on_new.meets_qos {
            // Everything above the still-satisfying deployment can only cost more.
            bo.prune_above(self.current.clone());
        } else if let Some(old_best) = self.current_evaluation().cloned() {
            // Inject the previous planning record as pseudo-observations, scaled by the
            // observed satisfaction drop (Sec. 4 warm start).
            inject_pseudo_observations(&mut bo, &self.record, &old_best, &prev_on_new, &evaluator);
        }

        let replan_seed = self
            .seed
            .wrapping_add((self.replans as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let trace = search.run_with(&evaluator, &mut bo, replan_seed);

        // Choose: the cheapest satisfying configuration, considering the re-evaluated
        // deployment too.
        let mut best = trace.best_satisfying().cloned();
        if prev_on_new.meets_qos
            && best
                .as_ref()
                .is_none_or(|b| prev_on_new.hourly_cost <= b.hourly_cost)
        {
            best = Some(prev_on_new.clone());
        }
        // A scale-up that found nothing satisfying falls back to the biggest pool the
        // search bounds allow — degraded service beats an unbounded queue.
        let best = best.or_else(|| {
            matches!(trigger, ReconfigTrigger::QosViolation)
                .then(|| evaluator.evaluate(evaluator.bounds()))
        })?;

        // The new planning phase becomes the warm-start record for the next replan. The
        // chosen configuration must be in it — a fallback (max-bounds) deployment is not
        // part of the search trace, and losing it would silently skip the warm start on
        // the *next* replan (`current_evaluation()` would find nothing).
        self.record = trace.evaluations().to_vec();
        self.record.push(prev_on_new);
        if !self.record.iter().any(|e| e.config == best.config) {
            self.record.push(best.clone());
        }
        self.planned_qps = planning.qps;

        if best.config == self.current {
            return None; // the deployed configuration is already the right one
        }
        self.current = best.config.clone();
        Some(PlannedReconfig {
            config: best.config.clone(),
            planned_qps: planning.qps,
            trigger,
            window_index,
            expected: best,
        })
    }
}

/// Shape of one full online serving run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineRunSettings {
    /// Settings of the initial (pre-deployment) configuration search.
    pub initial_search: RibbonSettings,
    /// Controller hysteresis and replanning settings.
    pub controller: OnlineControllerSettings,
    /// Monitoring window shape.
    pub window: WindowConfig,
    /// Multiplier on per-type spin-up delays (see
    /// [`ribbon_cloudsim::InstanceType::spin_up_s`]).
    pub spin_up_factor: f64,
}

impl Default for OnlineRunSettings {
    fn default() -> Self {
        OnlineRunSettings {
            initial_search: RibbonSettings {
                max_evaluations: 20,
                ..RibbonSettings::fast()
            },
            controller: OnlineControllerSettings::default(),
            window: WindowConfig::tumbling(2.5),
            spin_up_factor: 1.0,
        }
    }
}

/// One applied reconfiguration, as reported by [`serve_online`].
///
/// A decision that both launches and retires instances is applied **make-before-break**:
/// the first phase grows the pool to the per-type union of old and new counts (`applied`),
/// and only once the newcomers are ready does the second phase retire the excess
/// (`completed`). Capacity therefore never dips below the old pool mid-transition — the
/// price is the union pool's cost for the spin-up overlap, which is exactly what the
/// simulator bills and [`transition_overlap_cost`] estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigEvent {
    /// The controller's decision.
    pub trigger: ReconfigTrigger,
    /// Index of the window that tripped the decision.
    pub window_index: u64,
    /// The load the new configuration was planned for.
    pub planned_qps: f64,
    /// The final per-type configuration of the decision.
    pub config: Vec<u32>,
    /// The first (possibly union-pool) application.
    pub applied: Reconfiguration,
    /// The deferred retire phase of a make-before-break transition, once applied.
    pub completed: Option<Reconfiguration>,
    /// Closed-form transition-cost estimate (both generations billed for the overlap).
    pub transition_cost_usd: f64,
}

/// Outcome of one [`serve_online`] run.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The configuration deployed at stream start.
    pub initial_config: Vec<u32>,
    /// Every monitoring window, in order (including those flushed at stream end).
    pub windows: Vec<WindowStats>,
    /// Every applied reconfiguration, in order.
    pub events: Vec<ReconfigEvent>,
    /// Every applied serving-variant switch, in order (empty without a palette).
    pub variant_events: Vec<VariantSwitchEvent>,
    /// Queries served per palette index (a single entry without a palette).
    pub variant_served: Vec<u64>,
    /// Palette index serving when the stream ended.
    pub final_variant: u32,
    /// Whole-stream aggregate statistics.
    pub stats: SimStats,
    /// Exact accrued cost in USD over the whole run (per-slot billing).
    pub total_cost_usd: f64,
    /// Run duration in seconds (last completion).
    pub duration_s: f64,
    /// The configuration deployed when the stream ended.
    pub final_config: Vec<u32>,
    /// Hourly cost of the final pool.
    pub final_hourly_cost: f64,
    /// The tier set the run served, when tiered (reporting key for `tier_totals`).
    pub tiers: Option<TierSet>,
    /// Whole-stream per-tier totals, index-aligned with `tiers` (empty when untiered).
    pub tier_totals: Vec<TierTotals>,
}

impl OnlineOutcome {
    /// Index of the first window at or after `from_index` whose satisfaction meets `rate`.
    pub fn first_healthy_window_after(&self, from_index: u64, rate: f64) -> Option<u64> {
        self.windows
            .iter()
            .filter(|w| w.index >= from_index)
            .find(|w| w.meets_rate(rate) == Some(true))
            .map(|w| w.index)
    }
}

/// Runs the full online scenario: search an initial configuration for `workload`, then
/// serve the phased `traffic` through a [`StreamingSim`] while the controller watches the
/// window stream and reconfigures mid-stream. Returns `None` if the initial search finds
/// no QoS-satisfying configuration.
///
/// Fully deterministic given `(workload, traffic, settings, seed)`: planning evaluations
/// are bit-identical across thread counts (the evaluator's invariant), so the decision
/// sequence is reproducible and CI pins it as a golden trace.
pub fn serve_online(
    workload: &Workload,
    traffic: &PhasedStreamConfig,
    settings: &OnlineRunSettings,
    seed: u64,
) -> Option<OnlineOutcome> {
    serve_online_with_policy(workload, traffic, settings, seed, Arc::new(workload.qos))
}

/// [`serve_online`] with an explicit [`QosPolicy`]: the streaming simulator classifies
/// queries against the policy's deadline, and the controller judges windows and plans
/// replans by the policy. With `Arc::new(workload.qos)` this is exactly [`serve_online`].
pub fn serve_online_with_policy(
    workload: &Workload,
    traffic: &PhasedStreamConfig,
    settings: &OnlineRunSettings,
    seed: u64,
    policy: Arc<dyn QosPolicy>,
) -> Option<OnlineOutcome> {
    serve_online_tiered(workload, traffic, settings, seed, policy, None)
}

/// [`serve_online_with_policy`] over a tiered stream: queries are tagged by the set's
/// deterministic [`TierAssigner`](ribbon_cloudsim::TierAssigner), the simulator runs
/// tier-aware dispatch (premium firm-clock preemption, best-effort admission caps), and
/// the controller watches premium windows on its shorter fuse. `tiers: None` is exactly
/// [`serve_online_with_policy`].
pub fn serve_online_tiered(
    workload: &Workload,
    traffic: &PhasedStreamConfig,
    settings: &OnlineRunSettings,
    seed: u64,
    policy: Arc<dyn QosPolicy>,
    tiers: Option<TierSet>,
) -> Option<OnlineOutcome> {
    let controller = OnlineController::bootstrap_with_policy(
        workload,
        &settings.initial_search,
        settings.controller.clone(),
        seed,
        policy.clone(),
    )?;
    Some(serve_from(
        controller, workload, traffic, settings, policy, tiers,
    ))
}

/// The serve loop of [`serve_online_tiered`], from an already bootstrapped controller.
pub fn serve_from(
    controller: OnlineController,
    workload: &Workload,
    traffic: &PhasedStreamConfig,
    settings: &OnlineRunSettings,
    policy: Arc<dyn QosPolicy>,
    tiers: Option<TierSet>,
) -> OnlineOutcome {
    let mut controller = controller.with_tiers(tiers.clone());
    let initial_config = controller.current_config().to_vec();
    // With a variant palette the simulator times dispatches by the palette's latency
    // model (index 0, the initial serving variant, is the accuracy-best entry); without
    // one, the plain profile — the exact pre-variant code path.
    let base_profile = workload.profile();
    let variant_profile = workload
        .has_variant_axis()
        .then(|| workload.variant_profile());
    let model: &dyn ribbon_cloudsim::LatencyModel = match &variant_profile {
        Some(vp) => vp,
        None => &base_profile,
    };
    let pool = workload.diverse_pool_spec(&initial_config);
    let sim_config = StreamingSimConfig {
        target_latency_s: policy.deadline_s(),
        tail_percentile: policy.tail_percentile(),
        window: settings.window,
        spin_up_factor: settings.spin_up_factor,
    };
    let mut sim = StreamingSim::new(&pool, model, sim_config);
    let mut assigner = tiers.as_ref().map(|set| {
        sim.enable_tiers(set.clone());
        set.assigner()
    });

    let mut windows = Vec::new();
    let mut events: Vec<ReconfigEvent> = Vec::new();
    let mut variant_events: Vec<VariantSwitchEvent> = Vec::new();
    // Deferred retire phase of a make-before-break transition: (final pool, apply at,
    // index of the event it completes).
    let mut pending: Option<(ribbon_cloudsim::PoolSpec, f64, usize)> = None;
    // One closed-window buffer reused across every push: the hot loop allocates
    // nothing per query.
    let mut closed = Vec::new();
    for q in ribbon_cloudsim::PhasedQueryStream::new(traffic.clone()) {
        if let Some((final_pool, apply_at, event_idx)) = pending.take() {
            if q.arrival >= apply_at {
                events[event_idx].completed = Some(sim.reconfigure(&final_pool, apply_at));
            } else {
                pending = Some((final_pool, apply_at, event_idx));
            }
        }
        match assigner.as_mut() {
            Some(a) => {
                sim.push_tiered_into(&q, a.next_tier(), &mut closed);
            }
            None => sim.push_into(&q, &mut closed),
        }
        for w in closed.drain(..) {
            let end_s = w.end_s;
            let action = controller.observe_action(&w);
            if let Some(ControllerAction::SwitchVariant {
                from,
                to,
                trigger,
                window_index,
            }) = action
            {
                sim.set_serving_variant(to);
                variant_events.push(VariantSwitchEvent {
                    trigger,
                    window_index,
                    at_s: end_s,
                    from,
                    to,
                });
            } else if let Some(ControllerAction::Reconfig(plan)) = action {
                // A new decision supersedes any not-yet-completed retire phase.
                pending = None;
                let new_pool = workload.diverse_pool_spec(&plan.config);
                // Make-before-break: when the decision both launches and retires, grow to
                // the per-type union first and retire only once the newcomers are ready.
                let old_counts = sim.current_pool().counts.clone();
                let union: Vec<u32> = plan
                    .config
                    .iter()
                    .zip(&old_counts)
                    .map(|(&n, &o)| n.max(o))
                    .collect();
                let two_phase = union != plan.config && union != old_counts;
                let first_pool = if two_phase {
                    workload.diverse_pool_spec(&union)
                } else {
                    new_pool.clone()
                };
                let applied = sim.reconfigure(&first_pool, end_s);
                let transition_cost_usd = transition_overlap_cost(
                    &applied.old_pool,
                    &new_pool,
                    applied.ready_at_s - applied.at_s,
                );
                if two_phase {
                    pending = Some((new_pool, applied.ready_at_s, events.len()));
                }
                events.push(ReconfigEvent {
                    trigger: plan.trigger,
                    window_index: plan.window_index,
                    planned_qps: plan.planned_qps,
                    config: plan.config,
                    applied,
                    completed: None,
                    transition_cost_usd,
                });
            }
            windows.push(w);
        }
    }
    // A pending retire phase the stream ended before: apply it so the final pool matches
    // the controller's deployment.
    if let Some((final_pool, apply_at, event_idx)) = pending.take() {
        events[event_idx].completed = Some(sim.reconfigure(&final_pool, apply_at));
    }
    windows.extend(sim.finish_windows());

    let stats = sim.stats();
    let duration_s = stats.makespan.max(sim.clock());
    OnlineOutcome {
        initial_config,
        windows,
        events,
        variant_events,
        variant_served: sim.variant_served().to_vec(),
        final_variant: sim.serving_variant(),
        total_cost_usd: sim.cost_so_far(duration_s),
        duration_s,
        final_config: controller.current_config().to_vec(),
        final_hourly_cost: sim.current_pool().hourly_cost(),
        tier_totals: sim.tier_totals().to_vec(),
        tiers,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ribbon_cloudsim::{PhasedArrivalProcess, WindowStats};
    use ribbon_models::ModelKind;

    fn settings() -> OnlineRunSettings {
        OnlineRunSettings {
            controller: OnlineControllerSettings {
                evaluator: EvaluatorSettings {
                    explicit_bounds: Some(vec![7, 4, 7]),
                    ..Default::default()
                },
                planning_queries: 800,
                ..Default::default()
            },
            window: WindowConfig::tumbling(2.0),
            ..Default::default()
        }
    }

    fn workload() -> Workload {
        Workload::standard(ModelKind::MtWnd)
    }

    fn synthetic_window(index: u64, rate: Option<f64>, qps: f64) -> WindowStats {
        WindowStats {
            index,
            start_s: index as f64,
            end_s: index as f64 + 1.0,
            num_queries: if rate.is_some() { 100 } else { 0 },
            satisfied: rate.map_or(0, |r| (r * 100.0) as usize),
            satisfaction_rate: rate,
            mean_latency_s: rate.map(|_| 0.01),
            tail_latency_s: rate.map(|_| 0.02),
            arrival_qps: qps,
            throughput_qps: qps,
            pool_hourly_cost: 2.0,
            cost_so_far_usd: 0.1,
            tiers: Vec::new(),
        }
    }

    #[test]
    fn bootstrap_deploys_a_satisfying_configuration() {
        let s = settings();
        let c = OnlineController::bootstrap(&workload(), &s.initial_search, s.controller, 3)
            .expect("initial search converges");
        let eval = c.current_evaluation().expect("record holds the deployment");
        assert!(eval.meets_qos);
        assert_eq!(c.planned_qps(), workload().qps);
        assert_eq!(c.replans(), 0);
    }

    #[test]
    fn single_violating_window_does_not_trip_the_hysteresis() {
        let s = settings();
        let mut c =
            OnlineController::bootstrap(&workload(), &s.initial_search, s.controller, 3).unwrap();
        assert!(c
            .observe(&synthetic_window(0, Some(0.90), 2100.0))
            .is_none());
        // A healthy window resets the streak; the next violation starts from scratch.
        assert!(c
            .observe(&synthetic_window(1, Some(0.999), 1400.0))
            .is_none());
        assert!(c
            .observe(&synthetic_window(2, Some(0.90), 2100.0))
            .is_none());
        assert_eq!(c.replans(), 0);
    }

    #[test]
    fn sustained_violation_replans_for_the_observed_load() {
        let s = settings();
        let mut c =
            OnlineController::bootstrap(&workload(), &s.initial_search, s.controller, 3).unwrap();
        let before = c.current_config().to_vec();
        assert!(c
            .observe(&synthetic_window(0, Some(0.90), 2100.0))
            .is_none());
        let plan = c
            .observe(&synthetic_window(1, Some(0.90), 2100.0))
            .expect("two violating windows trip the default hysteresis");
        assert_eq!(plan.trigger, ReconfigTrigger::QosViolation);
        assert!((plan.planned_qps - 2100.0 * 1.1).abs() < 1e-9);
        assert!(plan.expected.meets_qos, "replan found a satisfying pool");
        assert_ne!(plan.config, before, "scale-up changes the configuration");
        assert_eq!(c.replans(), 1);
        assert_eq!(c.current_config(), plan.config.as_slice());
    }

    #[test]
    fn empty_windows_freeze_the_hysteresis_counters() {
        let s = settings();
        let mut c =
            OnlineController::bootstrap(&workload(), &s.initial_search, s.controller, 3).unwrap();
        assert!(c
            .observe(&synthetic_window(0, Some(0.90), 2100.0))
            .is_none());
        // An empty window must not count as healthy (which would reset the violation
        // streak) nor as violating (which would trip it).
        assert!(c.observe(&synthetic_window(1, None, 0.0)).is_none());
        let plan = c.observe(&synthetic_window(2, Some(0.90), 2100.0));
        assert!(
            plan.is_some(),
            "the violation streak survives the empty window"
        );
    }

    #[test]
    fn cooldown_suppresses_decisions_after_a_replan() {
        let s = settings();
        let cooldown = s.controller.cooldown_windows;
        let mut c =
            OnlineController::bootstrap(&workload(), &s.initial_search, s.controller, 3).unwrap();
        c.observe(&synthetic_window(0, Some(0.90), 2100.0));
        c.observe(&synthetic_window(1, Some(0.90), 2100.0))
            .expect("replan");
        for i in 0..cooldown {
            assert!(
                c.observe(&synthetic_window(2 + i as u64, Some(0.5), 2100.0))
                    .is_none(),
                "window {i} falls in the cooldown"
            );
        }
        assert_eq!(c.replans(), 1);
    }

    #[test]
    fn sustained_overprovisioning_scales_back_down() {
        let s = settings();
        let over_windows = s.controller.overprovision_windows;
        let cooldown = s.controller.cooldown_windows;
        let mut c =
            OnlineController::bootstrap(&workload(), &s.initial_search, s.controller, 3).unwrap();
        // Scale up first.
        c.observe(&synthetic_window(0, Some(0.90), 2100.0));
        let up = c
            .observe(&synthetic_window(1, Some(0.90), 2100.0))
            .expect("scale-up");
        let up_cost = up.expected.hourly_cost;
        let mut idx = 2u64;
        for _ in 0..cooldown {
            c.observe(&synthetic_window(idx, Some(0.999), 1400.0));
            idx += 1;
        }
        // Healthy windows at the old (lower) load: 1400 < 0.8 * 2100.
        let mut down = None;
        for _ in 0..over_windows {
            down = c.observe(&synthetic_window(idx, Some(0.999), 1400.0));
            idx += 1;
        }
        let down = down.expect("sustained over-provisioning trips a scale-down");
        assert_eq!(down.trigger, ReconfigTrigger::OverProvisioning);
        assert!(
            down.expected.hourly_cost < up_cost,
            "scale-down must be cheaper than the spike pool (${} vs ${up_cost})",
            down.expected.hourly_cost
        );
        assert!(down.expected.meets_qos);
    }

    #[test]
    fn serve_online_without_traffic_shift_never_reconfigures() {
        let w = workload();
        let traffic = PhasedStreamConfig {
            arrivals: PhasedArrivalProcess::constant(w.qps, 20.0),
            batches: w.batch_distribution(),
            duration_s: 20.0,
            seed: 77,
        };
        let outcome = serve_online(&w, &traffic, &settings(), 3).expect("bootstrap converges");
        assert!(
            outcome.events.is_empty(),
            "steady traffic at the planned load needs no reconfiguration (events {:?})",
            outcome.events
        );
        assert_eq!(outcome.initial_config, outcome.final_config);
        assert!(!outcome.windows.is_empty());
        // Exact billing of a static pool is hourly cost × duration.
        let expected = outcome.final_hourly_cost * outcome.duration_s / 3600.0;
        assert!((outcome.total_cost_usd - expected).abs() < 1e-9);
    }
}
