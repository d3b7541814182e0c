//! The joint fleet planner: one Bayesian-Optimization search over the cross-product
//! allocation space, a dedicated-pools baseline, and the online fleet serve path.
//!
//! # Plan
//!
//! [`RibbonFleetPlanner::plan`] first finds each member's **dedicated-pool optimum**
//! (the configuration a standalone RIBBON run would deploy — the honest baseline a
//! joint allocation must beat), then runs one BO search over the joint lattice
//! `[member slices… | shared slice]` re-using the incremental-GP engine
//! ([`BoOptimizer`]) and the parallel member evaluators. The search is warm-started
//! with deterministic **pooling candidates** derived from the baselines: move `k`
//! dedicated instances of a shared family into `s ≤ k` shared slots, so the known-good
//! region (and the cost-saving direction) is in the surrogate from the first iteration.
//! Pruning lifts RIBBON's rules to the fleet: an allocation where *some* member
//! violates by more than θ prunes its dominated box (less capacity anywhere cannot fix
//! that member), an allocation satisfying *every* member prunes the dominating box
//! (more capacity anywhere only costs more).
//!
//! # Serve
//!
//! [`RibbonFleetPlanner::serve`] deploys the planned allocation and streams every
//! member's traffic through the [`FleetSim`] router. Each member with a dedicated slice
//! gets its own [`OnlineController`] (the same hysteresis/warm-replan machinery as
//! single-model serving) watching that member's windows; a tripped controller
//! reconfigures **only that member's slice**, make-before-break, while the other lanes
//! and the shared slice keep serving untouched.
//!
//! A single-member fleet with no shared families reproduces the single-model
//! [`RibbonPlanner`](crate::scenario::RibbonPlanner) bit for bit in both modes (pinned
//! by `tests/fleet_serving.rs`).

use crate::accounting::mean_hourly_cost;
use crate::accounting::transition_overlap_cost;
use crate::evaluator::Evaluation;
use crate::fleet::{Fleet, FleetEvaluation, FleetEvaluator};
use crate::online::{OnlineController, ReconfigEvent, ReconfigTrigger};
use crate::scenario::{EventReport, RunMode, ScenarioError, TierReport};
use crate::search::RibbonSearch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ribbon_bo::{BoOptimizer, BoSettings, ConfigLattice, Optimizer, Outcome};
use ribbon_cloudsim::parallel::{default_threads, par_map_vec};
use ribbon_cloudsim::router::{FleetModelConfig, FleetSim, VariantPolicy, VariantSwitch};
use ribbon_cloudsim::{
    cost_from_billing, merge_tagged_slices, partition_groups, tag_tier, tier_assigners, CostModel,
    LatencyModel, PoolSpec, Query, SimStats, SlotBilling, TierTotals, WindowStats,
};
use ribbon_models::{ModelProfile, VariantSetProfile};
use ribbon_spec::Value;

/// A fleet-level planner: `plan` searches the joint allocation space, `serve` deploys
/// and adapts online; both return a [`FleetReport`].
pub trait FleetPlanner: Send + Sync {
    /// Display name.
    fn name(&self) -> &str;

    /// Joint offline search over the fleet's allocation space.
    fn plan(&self, fleet: &Fleet) -> Result<FleetReport, ScenarioError>;

    /// Online fleet serving with per-model monitoring and slice reconfiguration.
    fn serve(&self, fleet: &Fleet) -> Result<FleetReport, ScenarioError>;

    /// Dispatches on the fleet's mode.
    fn run(&self, fleet: &Fleet) -> Result<FleetReport, ScenarioError> {
        match fleet.spec.mode {
            RunMode::Plan => self.plan(fleet),
            RunMode::Serve => self.serve(fleet),
        }
    }
}

/// One member's serve-phase outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMemberServe {
    /// Dedicated slice deployed at stream start.
    pub initial_config: Vec<u32>,
    /// Dedicated slice deployed when the stream ended.
    pub final_config: Vec<u32>,
    /// Number of monitoring windows observed for this member.
    pub windows: usize,
    /// Queries served for this member.
    pub queries: usize,
    /// Of those, how many the shared slice served.
    pub shared_queries: usize,
    /// Whole-stream satisfaction rate (`None` for an empty stream).
    pub satisfaction_rate: Option<f64>,
    /// Every applied reconfiguration of this member's slice, in order.
    pub events: Vec<EventReport>,
    /// Lane queries served per variant palette index (members with a palette only).
    pub variant_served: Option<Vec<u64>>,
    /// Serving-variant switches the lane router applied, in order (members with a
    /// palette only).
    pub variant_switches: Vec<VariantSwitch>,
    /// Every monitoring window observed for this member, in order (kept in memory for
    /// analysis and the single-model differential; not serialized by `to_value`).
    pub window_stats: Vec<WindowStats>,
    /// Whole-stream per-tier outcome of this member (tiered members only).
    pub tiers: Vec<TierReport>,
}

/// Fleet-wide serve totals.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetServeTotals {
    /// Queries served across every member.
    pub queries: usize,
    /// Monitoring windows across every member.
    pub windows: usize,
    /// Run duration in seconds (last completion across the fleet).
    pub duration_s: f64,
    /// Exact accrued fleet cost in USD (per-slot billing, transitions included).
    pub total_cost_usd: f64,
    /// Mean hourly cost over the run.
    pub mean_hourly_cost: f64,
    /// Hourly cost of the final deployment (lanes + shared slice).
    pub final_hourly_cost: f64,
    /// Total applied reconfigurations across the fleet.
    pub reconfigurations: usize,
    /// Total serving-variant switches the lane routers applied across the fleet.
    pub variant_switches: usize,
    /// Best-effort queries dropped at admission across the fleet (tiered members only).
    pub admission_drops: u64,
    /// Premium dispatches that overtook queued best-effort work across the fleet.
    pub preemptions: u64,
}

/// One member's section of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMemberReport {
    /// Member name.
    pub name: String,
    /// Model name.
    pub model: String,
    /// Human description of the member's QoS policy.
    pub qos: String,
    /// Objective weight (reporting only).
    pub weight: f64,
    /// The member's dedicated slice in the chosen allocation.
    pub dedicated_config: Vec<u32>,
    /// Its pool description.
    pub pool: String,
    /// Hourly cost of the dedicated slice alone.
    pub dedicated_hourly_cost: f64,
    /// Dedicated cost plus this member's usage-proportional share of the shared slice.
    pub attributed_hourly_cost: f64,
    /// Plan-time QoS score of the chosen allocation for this member.
    pub satisfaction_rate: f64,
    /// Whether the member meets its QoS under the chosen allocation.
    pub meets_qos: bool,
    /// Plan-time count of this member's queries served by the shared slice.
    pub shared_queries: usize,
    /// The member's dedicated-pool optimum (standalone RIBBON run), when computed.
    pub baseline_config: Option<Vec<u32>>,
    /// Its pool description.
    pub baseline_pool: Option<String>,
    /// Its hourly cost.
    pub baseline_hourly_cost: Option<f64>,
    /// Attributed-cost saving vs the dedicated baseline, in percent.
    pub saving_percent: Option<f64>,
    /// Serve-phase outcome (serve mode only).
    pub serve: Option<FleetMemberServe>,
}

/// The structured result of running a fleet planner.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet name (from the spec).
    pub fleet: String,
    /// Planner that produced this report.
    pub planner: String,
    /// The mode that ran.
    pub mode: RunMode,
    /// The run's master seed.
    pub seed: u64,
    /// Per-member sections, in spec order.
    pub models: Vec<FleetMemberReport>,
    /// The shared slice of the chosen allocation (empty without shared families).
    pub shared_config: Vec<u32>,
    /// Its pool description.
    pub shared_pool: String,
    /// Its hourly cost.
    pub shared_hourly_cost: f64,
    /// Total fleet hourly cost of the chosen allocation.
    pub total_hourly_cost: f64,
    /// Sum of the dedicated-pool optima, when every member has one.
    pub baseline_total_hourly_cost: Option<f64>,
    /// Fleet saving vs that sum, in percent.
    pub saving_percent: Option<f64>,
    /// Whether the joint lattice exceeded the planner's internal cap
    /// (`JOINT_BO_LATTICE_CAP`) so the BO refinement stage was skipped (the warm
    /// candidates and greedy descent carried the search).
    pub bo_refinement_skipped: bool,
    /// Number of joint evaluations performed.
    pub evaluations: usize,
    /// Of those, how many violated some member's QoS.
    pub violations: usize,
    /// The chosen allocation's full evaluation.
    pub best: FleetEvaluation,
    /// The full joint search trace, in evaluation order.
    pub trace: Vec<FleetEvaluation>,
    /// Fleet-wide serve totals (serve mode only).
    pub serve: Option<FleetServeTotals>,
}

/// Joint lattices beyond this many points skip the BO refinement stage; the
/// deterministic pooling candidates and the greedy descent carry the search there. The
/// limit is scan time, not memory: the open set costs 4 bytes per point, but every
/// acquisition ask visits every open point — computing its exact mean, and its full
/// score wherever that can still win — so one ask grows linearly with the lattice.
pub const JOINT_BO_LATTICE_CAP: u64 = 2_000_000;

/// `true` when the joint lattice spanned by `bounds` is too large for BO refinement:
/// more than [`JOINT_BO_LATTICE_CAP`] points, or a count that overflows `u64`.
fn skips_bo_refinement(bounds: &[u32]) -> bool {
    ConfigLattice::count_points(bounds).is_none_or(|n| n > JOINT_BO_LATTICE_CAP)
}

/// The RIBBON fleet planner (the only implementation today; the trait keeps the CLI and
/// tests planner-agnostic the way [`crate::scenario::Planner`] does for scenarios).
#[derive(Debug, Clone, Default)]
pub struct RibbonFleetPlanner;

struct PlanOutcome {
    trace: Vec<FleetEvaluation>,
    best: FleetEvaluation,
    baselines: Vec<Option<Evaluation>>,
    bo_refinement_skipped: bool,
}

impl RibbonFleetPlanner {
    /// Per-member dedicated-pool optima: what a standalone RIBBON plan would deploy.
    fn member_baselines(
        &self,
        fleet: &Fleet,
        evaluator: &FleetEvaluator,
    ) -> Vec<Option<Evaluation>> {
        fleet
            .members
            .iter()
            .enumerate()
            .map(|(m, member)| {
                let search = RibbonSearch::new(member.scenario.search_settings.clone());
                let trace = search.run(evaluator.member_evaluator(m), fleet.spec.seed);
                trace.best_satisfying().cloned()
            })
            .collect()
    }

    /// Deterministic warm-start candidates derived from the dedicated baselines:
    ///
    /// 1. the all-dedicated base (the baselines concatenated, shared slice empty);
    /// 2. a **fully pooled ladder** — every shared-family instance of every sharing
    ///    member moved into the shared slice at once, then `r = 0..=3` instances shaved
    ///    off the largest shared count (the cost-saving direction statistical
    ///    multiplexing of the merged streams is expected to cover);
    /// 3. a **half-pooled** split (each sharing member keeps half its shared-family
    ///    instances) and its one-instance-cheaper variant.
    ///
    /// All deterministic, so the joint search trace is reproducible under a fixed seed.
    fn pooling_candidates(
        &self,
        fleet: &Fleet,
        evaluator: &FleetEvaluator,
        baselines: &[Option<Evaluation>],
        require_dedicated: bool,
    ) -> Vec<Vec<u32>> {
        let base_slices: Vec<Vec<u32>> = baselines
            .iter()
            .enumerate()
            .map(|(m, b)| match b {
                Some(e) => e.config.clone(),
                None => evaluator.member_evaluator(m).bounds().to_vec(),
            })
            .collect();
        let shared_dims = fleet.shared_bounds.len();
        let mut candidates = vec![evaluator.assemble(&base_slices, &vec![0; shared_dims])];
        if shared_dims == 0 {
            return candidates;
        }

        // Per shared family: where each sharing member holds instances of it.
        let positions: Vec<Vec<Option<usize>>> = fleet
            .shared_types
            .iter()
            .map(|&ty| {
                fleet
                    .members
                    .iter()
                    .map(|member| {
                        (member.share_weight > 0.0)
                            .then(|| {
                                member
                                    .scenario
                                    .workload
                                    .diverse_pool
                                    .iter()
                                    .position(|&t| t == ty)
                            })
                            .flatten()
                    })
                    .collect()
            })
            .collect();
        let totals: Vec<u32> = positions
            .iter()
            .map(|pos| {
                pos.iter()
                    .enumerate()
                    .filter_map(|(m, p)| p.map(|j| base_slices[m][j]))
                    .sum()
            })
            .collect();
        if totals.iter().all(|&t| t == 0) {
            return candidates;
        }

        // Removes `count` instances of shared family `sf` from the sharing members,
        // taking from the member with the most left (ties: lowest index).
        let remove_units = |slices: &mut [Vec<u32>], sf: usize, count: u32| {
            for _ in 0..count {
                let victim = positions[sf]
                    .iter()
                    .enumerate()
                    .filter_map(|(m, p)| p.map(|j| (m, j)))
                    .max_by_key(|&(m, j)| (slices[m][j], usize::MAX - m));
                match victim {
                    Some((m, j)) if slices[m][j] > 0 => slices[m][j] -= 1,
                    _ => break,
                }
            }
        };
        // Serve mode keeps a reconfigurable dedicated slice per member: a fully pooled
        // member would leave its controller nothing to resize, so candidates restore
        // one instance of the member's preferred type to an emptied slice.
        let member_bounds: Vec<Vec<u32>> = (0..fleet.members.len())
            .map(|m| evaluator.member_evaluator(m).bounds().to_vec())
            .collect();
        let fix_dedicated = |slices: &mut [Vec<u32>]| {
            if !require_dedicated {
                return;
            }
            for (m, slice) in slices.iter_mut().enumerate() {
                if slice.iter().all(|&c| c == 0) {
                    if let Some(j) = member_bounds[m].iter().position(|&b| b > 0) {
                        slice[j] = 1;
                    }
                }
            }
        };
        let push = |candidates: &mut Vec<Vec<u32>>, cand: Vec<u32>| {
            if !candidates.contains(&cand) {
                candidates.push(cand);
            }
        };

        // Fully pooled ladder.
        let pooled_slices = {
            let mut slices = base_slices.clone();
            for (sf, &total) in totals.iter().enumerate() {
                remove_units(&mut slices, sf, total);
            }
            fix_dedicated(&mut slices);
            slices
        };
        let full_shared: Vec<u32> = totals
            .iter()
            .zip(&fleet.shared_bounds)
            .map(|(&t, &b)| t.min(b))
            .collect();
        for r in 0..=3u32 {
            let mut shared = full_shared.clone();
            for _ in 0..r {
                // Shave from the largest shared count (ties: lowest family index).
                if let Some(i) = (0..shared.len())
                    .filter(|&i| shared[i] > 0)
                    .max_by_key(|&i| (shared[i], usize::MAX - i))
                {
                    shared[i] -= 1;
                } else {
                    break;
                }
            }
            push(&mut candidates, evaluator.assemble(&pooled_slices, &shared));
        }

        // Full consolidation ladder: members whose pools overlap the shared families
        // go entirely shared — their *non-shared* leftovers are dropped too. An idle
        // slow instance in a dedicated lane can be a latency trap (it grabs a heavy
        // batch a premium shared slot would have served faster after a short queue),
        // so "pool and shed the tail" is a distinct candidate family from "pool".
        let consolidated_slices: Vec<Vec<u32>> = {
            let mut slices: Vec<Vec<u32>> = base_slices
                .iter()
                .enumerate()
                .map(|(m, slice)| {
                    let overlaps = positions.iter().any(|pos| pos[m].is_some());
                    if overlaps {
                        vec![0; slice.len()]
                    } else {
                        slice.clone()
                    }
                })
                .collect();
            fix_dedicated(&mut slices);
            slices
        };
        for r in 0..=3u32 {
            let mut shared = full_shared.clone();
            for _ in 0..r {
                if let Some(i) = (0..shared.len())
                    .filter(|&i| shared[i] > 0)
                    .max_by_key(|&i| (shared[i], usize::MAX - i))
                {
                    shared[i] -= 1;
                } else {
                    break;
                }
            }
            push(
                &mut candidates,
                evaluator.assemble(&consolidated_slices, &shared),
            );
        }

        // Half-pooled split (+ one-cheaper variant).
        let mut half_slices = base_slices.clone();
        let mut half_shared = vec![0u32; shared_dims];
        for sf in 0..shared_dims {
            let moved = totals[sf] - totals[sf] / 2;
            remove_units(&mut half_slices, sf, moved);
            half_shared[sf] = moved.min(fleet.shared_bounds[sf]);
        }
        fix_dedicated(&mut half_slices);
        push(
            &mut candidates,
            evaluator.assemble(&half_slices, &half_shared),
        );
        if let Some(i) = (0..half_shared.len())
            .filter(|&i| half_shared[i] > 0)
            .max_by_key(|&i| (half_shared[i], usize::MAX - i))
        {
            half_shared[i] -= 1;
            push(
                &mut candidates,
                evaluator.assemble(&half_slices, &half_shared),
            );
        }
        candidates
    }

    /// The joint search loop: deterministic warm-start candidates, a greedy pooling
    /// descent, then ask/tell Bayesian-Optimization refinement with the remaining
    /// budget (batched by `fleet.search.batch`; the default `batch = 1` performs the
    /// historical suggest/observe sequence bit for bit). For a single-member fleet with
    /// no shared families (no warm candidates, no descent) this performs exactly the
    /// operation sequence of [`RibbonSearch::run`] on the member's evaluator.
    ///
    /// The BO refinement stage visits every open point of the joint lattice on each
    /// ask; past [`JOINT_BO_LATTICE_CAP`] points (or when the count overflows) that scan
    /// time is not tractable, so oversized cross-product spaces skip the BO stage and
    /// the deterministic candidates + descent carry the search alone. The returned flag
    /// records that skip so the report never reads as "refined" when it wasn't.
    fn joint_search(
        &self,
        fleet: &Fleet,
        evaluator: &FleetEvaluator,
        warm: &[Vec<u32>],
        require_dedicated: bool,
    ) -> (Vec<FleetEvaluation>, bool) {
        let settings = &fleet.search;
        let bounds = evaluator.bounds().to_vec();
        let bo_refinement_skipped = skips_bo_refinement(&bounds);
        let mut bo = (!bo_refinement_skipped).then(|| {
            BoOptimizer::new(
                ConfigLattice::new(bounds.clone()),
                BoSettings {
                    initial_samples: settings.initial_samples,
                    acquisition: settings.acquisition,
                    fit: settings.fit.clone(),
                    scan_threads: settings.scan_threads,
                },
            )
        });
        let mut rng = StdRng::seed_from_u64(fleet.spec.seed);
        let mut trace: Vec<FleetEvaluation> = Vec::new();
        let mut explored: std::collections::BTreeSet<Vec<u32>> = std::collections::BTreeSet::new();

        let evaluate_and_record =
            |config: Vec<u32>,
             bo: &mut Option<BoOptimizer>,
             explored: &mut std::collections::BTreeSet<Vec<u32>>,
             trace: &mut Vec<FleetEvaluation>| {
                let eval = evaluator.evaluate(&config);
                explored.insert(config.clone());
                let violates_badly = eval.per_model.iter().enumerate().any(|(m, e)| {
                    e.satisfaction_rate < evaluator.member_target_rate(m) - settings.prune_threshold
                });
                if let Some(bo) = bo {
                    // `tell` mirrors the historical observe + prune sequence exactly,
                    // and also settles the candidate if it is in flight from `ask`.
                    let _ = bo.tell(
                        Outcome::new(config, eval.objective)
                            .with_prunes(violates_badly, eval.meets_qos),
                    );
                }
                trace.push(eval);
            };
        let in_lattice = |cand: &[u32]| {
            cand.len() == bounds.len()
                && cand.iter().zip(&bounds).all(|(&c, &b)| c <= b)
                && cand.iter().any(|&c| c > 0)
        };

        // Warm candidates are independent: prefetch them through the parallel batch
        // evaluator (order-preserving, bit-identical to serial — the contract
        // `tests/parallel_evaluator.rs` pins for the single-model engine), then record
        // serially so the trace and BO observation order are unchanged.
        let eligible: Vec<Vec<u32>> = warm
            .iter()
            .filter(|c| in_lattice(c))
            .take(settings.max_evaluations)
            .cloned()
            .collect();
        evaluator.evaluate_many(&eligible);
        for cand in warm {
            if trace.len() >= settings.max_evaluations {
                break;
            }
            if in_lattice(cand) && !explored.contains(cand) {
                evaluate_and_record(cand.clone(), &mut bo, &mut explored, &mut trace);
            }
        }

        // Greedy pooling descent (multi-model fleets only): from the cheapest
        // satisfying allocation so far, try every single-instance removal, keep the
        // cheapest that still satisfies every member, repeat. This shaves the
        // capacity the pooled streams no longer need (the leftover a static candidate
        // list cannot anticipate); every evaluation also feeds the BO surrogate.
        if !warm.is_empty() {
            // Cost ties (within a float tolerance) break toward the allocation with
            // the most shared capacity: a cost-neutral pooled candidate has downhill
            // room a tight all-dedicated one does not.
            let cheapest_satisfying = |trace: &[FleetEvaluation]| {
                trace
                    .iter()
                    .filter(|e| e.meets_qos)
                    .min_by(|a, b| {
                        if (a.total_hourly_cost - b.total_hourly_cost).abs() <= 1e-9 {
                            let sa: u32 = a.shared_config.iter().sum();
                            let sb: u32 = b.shared_config.iter().sum();
                            sb.cmp(&sa)
                        } else {
                            a.total_hourly_cost
                                .partial_cmp(&b.total_hourly_cost)
                                .unwrap()
                        }
                    })
                    .map(|e| (e.config.clone(), e.total_hourly_cost))
            };
            while trace.len() < settings.max_evaluations {
                let Some((current, current_cost)) = cheapest_satisfying(&trace) else {
                    break;
                };
                // One descent round = up to dim(lattice) independent single-removal
                // candidates: prefetch the round through the parallel batch evaluator,
                // then record serially (same evaluations, same order, same bits).
                let round: Vec<Vec<u32>> = (0..current.len())
                    .filter(|&d| current[d] > 0)
                    .map(|d| {
                        let mut cand = current.clone();
                        cand[d] -= 1;
                        cand
                    })
                    .filter(|cand| !cand.iter().all(|&c| c == 0) && !explored.contains(cand))
                    .filter(|cand| {
                        !require_dedicated
                            || (0..evaluator.num_members())
                                .all(|m| cand[evaluator.member_range(m)].iter().any(|&c| c > 0))
                    })
                    .take(settings.max_evaluations - trace.len())
                    .collect();
                evaluator.evaluate_many(&round);
                for d in 0..current.len() {
                    if trace.len() >= settings.max_evaluations {
                        break;
                    }
                    if current[d] == 0 {
                        continue;
                    }
                    let mut cand = current.clone();
                    cand[d] -= 1;
                    if cand.iter().all(|&c| c == 0) || explored.contains(&cand) {
                        continue;
                    }
                    // Serve mode never descends to an allocation that leaves a member
                    // without a reconfigurable dedicated slice.
                    if require_dedicated
                        && (0..evaluator.num_members())
                            .any(|m| cand[evaluator.member_range(m)].iter().all(|&c| c == 0))
                    {
                        continue;
                    }
                    evaluate_and_record(cand, &mut bo, &mut explored, &mut trace);
                }
                match cheapest_satisfying(&trace) {
                    Some((_, cost)) if cost < current_cost => {}
                    _ => break, // no single removal survives: local optimum reached
                }
            }
        }

        // Ask/tell BO refinement: each round asks a batch of `q` diverse candidates
        // (local-penalty picks), prefetches them through the parallel fleet evaluator,
        // then records serially — so the trace and surrogate order are deterministic.
        let q = settings.batch.max(1);
        while trace.len() < settings.max_evaluations {
            let Some(b) = bo.as_mut() else {
                break; // lattice over the cap: no BO refinement stage (flag recorded)
            };
            let want = q.min(settings.max_evaluations - trace.len());
            let asked = match b.ask(&mut rng, want) {
                Ok(batch) if !batch.is_empty() => batch,
                _ => break,
            };
            evaluator.evaluate_many(&asked);
            for config in asked {
                evaluate_and_record(config, &mut bo, &mut explored, &mut trace);
            }
        }
        (trace, bo_refinement_skipped)
    }

    fn plan_internal(
        &self,
        fleet: &Fleet,
        evaluator: &FleetEvaluator,
        require_dedicated: bool,
    ) -> Result<PlanOutcome, ScenarioError> {
        let multi = fleet.members.len() > 1 || fleet.has_shared();
        // Multi-model fleets always search the per-member optima — they seed the
        // pooling warm start — but `baseline = false` suppresses the comparison in the
        // report (see the field docs on `FleetSpec::baseline`).
        let mut baselines = if fleet.spec.baseline || multi {
            self.member_baselines(fleet, evaluator)
        } else {
            vec![None; fleet.members.len()]
        };
        let warm = if multi {
            self.pooling_candidates(fleet, evaluator, &baselines, require_dedicated)
        } else {
            Vec::new()
        };
        if !fleet.spec.baseline {
            baselines = vec![None; fleet.members.len()];
        }
        let (trace, bo_refinement_skipped) =
            self.joint_search(fleet, evaluator, &warm, require_dedicated);
        let best = trace
            .iter()
            .filter(|e| e.meets_qos)
            .filter(|e| {
                !require_dedicated
                    || e.per_model
                        .iter()
                        .all(|pe| pe.config.iter().any(|&c| c > 0))
            })
            .min_by(|a, b| {
                a.total_hourly_cost
                    .partial_cmp(&b.total_hourly_cost)
                    .unwrap()
            })
            .cloned()
            .ok_or_else(|| {
                ScenarioError::Run(format!(
                    "no allocation meeting every model's QoS within {} joint evaluations",
                    trace.len()
                ))
            })?;
        Ok(PlanOutcome {
            trace,
            best,
            baselines,
            bo_refinement_skipped,
        })
    }

    fn build_report(&self, fleet: &Fleet, outcome: &PlanOutcome) -> FleetReport {
        let best = &outcome.best;
        let total_shared_q: usize = best.shared_queries.iter().sum();
        let shared_pool = if fleet.shared_types.is_empty() {
            "none".to_string()
        } else {
            PoolSpec::from_counts(&fleet.shared_types, &best.shared_config).describe()
        };
        let models: Vec<FleetMemberReport> = fleet
            .members
            .iter()
            .enumerate()
            .map(|(m, member)| {
                let e = &best.per_model[m];
                let shared_share = if total_shared_q > 0 {
                    best.shared_hourly_cost * best.shared_queries[m] as f64 / total_shared_q as f64
                } else {
                    0.0
                };
                let attributed = e.hourly_cost + shared_share;
                let baseline = outcome.baselines[m].as_ref();
                FleetMemberReport {
                    name: member.name.clone(),
                    model: member.scenario.workload.model.name().to_string(),
                    qos: member.scenario.policy.describe(),
                    weight: member.weight,
                    dedicated_config: e.config.clone(),
                    pool: e.pool.describe(),
                    dedicated_hourly_cost: e.hourly_cost,
                    attributed_hourly_cost: attributed,
                    satisfaction_rate: e.satisfaction_rate,
                    meets_qos: e.meets_qos,
                    shared_queries: best.shared_queries[m],
                    baseline_config: baseline.map(|b| b.config.clone()),
                    baseline_pool: baseline.map(|b| b.pool.describe()),
                    baseline_hourly_cost: baseline.map(|b| b.hourly_cost),
                    saving_percent: baseline
                        .map(|b| CostModel::saving_percent(b.hourly_cost, attributed)),
                    serve: None,
                }
            })
            .collect();
        let baseline_total = outcome
            .baselines
            .iter()
            .map(|b| b.as_ref().map(|e| e.hourly_cost))
            .sum::<Option<f64>>();
        // Recompose the total from the same per-member terms the baseline sums, so a
        // best allocation that IS the dedicated baseline compares exactly equal to it.
        let total_hourly_cost =
            best.per_model.iter().map(|e| e.hourly_cost).sum::<f64>() + best.shared_hourly_cost;
        FleetReport {
            fleet: fleet.spec.name.clone(),
            planner: self.name().to_string(),
            mode: fleet.spec.mode,
            seed: fleet.spec.seed,
            models,
            shared_config: best.shared_config.clone(),
            shared_pool,
            shared_hourly_cost: best.shared_hourly_cost,
            total_hourly_cost,
            baseline_total_hourly_cost: baseline_total,
            saving_percent: baseline_total.map(|b| CostModel::saving_percent(b, total_hourly_cost)),
            bo_refinement_skipped: outcome.bo_refinement_skipped,
            evaluations: outcome.trace.len(),
            violations: outcome.trace.iter().filter(|e| !e.meets_qos).count(),
            best: best.clone(),
            trace: outcome.trace.clone(),
            serve: None,
        }
    }
}

impl FleetPlanner for RibbonFleetPlanner {
    fn name(&self) -> &str {
        "RIBBON-FLEET"
    }

    fn plan(&self, fleet: &Fleet) -> Result<FleetReport, ScenarioError> {
        let evaluator = FleetEvaluator::new(fleet)?;
        let outcome = self.plan_internal(fleet, &evaluator, false)?;
        Ok(self.build_report(fleet, &outcome))
    }

    fn serve(&self, fleet: &Fleet) -> Result<FleetReport, ScenarioError> {
        serve_fleet(self, fleet)
    }
}

/// Runs the online fleet scenario for a planner: decide the initial allocation, stream
/// every member's traffic through the router, let per-member controllers reconfigure
/// their slices, and report per-member plus fleet-wide outcomes.
pub fn serve_fleet(
    planner: &RibbonFleetPlanner,
    fleet: &Fleet,
) -> Result<FleetReport, ScenarioError> {
    let evaluator = FleetEvaluator::new(fleet)?;
    let n = fleet.members.len();
    let seed = fleet.spec.seed;

    // --- 1. Initial deployment + one controller per dedicated slice. -----------------
    let mut controllers: Vec<Option<OnlineController>> = Vec::with_capacity(n);
    let outcome = if fleet.has_shared() {
        // The joint plan sizes dedicated slices AND the shared slice (every member
        // keeps a reconfigurable dedicated slice in serve mode); controllers are
        // seeded from the joint trace instead of a per-member bootstrap search.
        let planned = planner.plan_internal(fleet, &evaluator, true)?;
        for (m, member) in fleet.members.iter().enumerate() {
            let slice = planned.best.per_model[m].config.clone();
            let record: Vec<Evaluation> = planned
                .trace
                .iter()
                .map(|e| e.per_model[m].clone())
                .collect();
            let os = &member.scenario.online_settings;
            // The lane is planned to carry its plan-time share of the model's load;
            // the shared slice carries the rest.
            let planning_total = evaluator.member_evaluator(m).queries().len();
            let lane_fraction = if planning_total > 0 {
                (planning_total - planned.best.shared_queries[m].min(planning_total)) as f64
                    / planning_total as f64
            } else {
                1.0
            };
            controllers.push(Some(
                OnlineController::from_plan(
                    &member.scenario.workload,
                    os.controller.clone(),
                    seed,
                    member.scenario.policy.clone(),
                    record,
                    slice,
                    planned.best.per_model[m].clone(),
                    member.scenario.workload.qps * lane_fraction,
                )
                .with_tiers(member.scenario.tiers.clone()),
            ));
        }
        planned
    } else {
        // No shared slice: each member bootstraps exactly like single-model serving.
        for member in &fleet.members {
            let os = &member.scenario.online_settings;
            let controller = OnlineController::bootstrap_with_policy(
                &member.scenario.workload,
                &os.initial_search,
                os.controller.clone(),
                seed,
                member.scenario.policy.clone(),
            )
            .ok_or_else(|| {
                ScenarioError::Run(format!(
                    "{}: the initial search found no configuration meeting `{}` within {} \
                     evaluations",
                    member.name,
                    member.scenario.policy.describe(),
                    os.initial_search.max_evaluations
                ))
            })?;
            controllers.push(Some(controller.with_tiers(member.scenario.tiers.clone())));
        }
        // A joint evaluation of the bootstrapped deployment anchors the plan section of
        // the report (it does not influence serving).
        let slices: Vec<Vec<u32>> = controllers
            .iter()
            .map(|c| {
                c.as_ref()
                    .expect("all bootstrapped")
                    .current_config()
                    .to_vec()
            })
            .collect();
        let joint = evaluator.assemble(&slices, &vec![0u32; fleet.shared_bounds.len()]);
        let best = evaluator.evaluate(&joint);
        let baselines = if fleet.spec.baseline {
            planner.member_baselines(fleet, &evaluator)
        } else {
            vec![None; n]
        };
        PlanOutcome {
            trace: vec![best.clone()],
            best,
            baselines,
            bo_refinement_skipped: false,
        }
    };

    let init_slices: Vec<Vec<u32>> = (0..n)
        .map(|m| match &controllers[m] {
            Some(c) => c.current_config().to_vec(),
            None => outcome.best.per_model[m].config.clone(),
        })
        .collect();

    // --- 2. The fleet simulator over the merged traffic streams. ---------------------
    let profiles: Vec<ModelProfile> = fleet
        .members
        .iter()
        .map(|m| m.scenario.workload.profile())
        .collect();
    // Members with a variant palette time their lane dispatches by the palette's
    // latency model and get the deterministic per-lane variant router; variant-less
    // members keep the plain profile — the exact pre-variant code path.
    let variant_profiles: Vec<Option<VariantSetProfile>> = fleet
        .members
        .iter()
        .map(|m| {
            m.scenario
                .workload
                .has_variant_axis()
                .then(|| m.scenario.workload.variant_profile())
        })
        .collect();
    let model_configs: Vec<FleetModelConfig<'_>> = fleet
        .members
        .iter()
        .enumerate()
        .map(|(m, member)| {
            let os = &member.scenario.online_settings;
            FleetModelConfig {
                pool: member.scenario.workload.diverse_pool_spec(&init_slices[m]),
                profile: match &variant_profiles[m] {
                    Some(vp) => vp as &dyn LatencyModel,
                    None => &profiles[m],
                },
                target_latency_s: member.scenario.policy.deadline_s(),
                tail_percentile: member.scenario.policy.tail_percentile(),
                window: os.window,
                share_weight: if fleet.has_shared() {
                    member.share_weight
                } else {
                    0.0
                },
                spin_up_factor: os.spin_up_factor,
                variant_policy: variant_profiles[m]
                    .as_ref()
                    .map(|vp| VariantPolicy::new(vp.variants().len() as u32)),
                tiers: member.scenario.tiers.clone(),
            }
        })
        .collect();
    // Mirror `FleetSim::new`: an all-zero shared allocation is no shared slice at all.
    let shared_pool = fleet
        .has_shared()
        .then(|| PoolSpec::from_counts(&fleet.shared_types, &outcome.best.shared_config))
        .filter(|p| p.total_instances() > 0);

    let streams: Vec<Vec<Query>> = fleet
        .members
        .iter()
        .map(|member| {
            member
                .scenario
                .traffic
                .as_ref()
                .expect("serve-mode members compiled with traffic")
                .generate()
        })
        .collect();

    // --- 3. Partition into coupling groups, drive each group on its own worker. ------
    // Members only interact through the shared slice (see `ribbon_cloudsim::sharded`):
    // every member with a positive share weight joins one coupling group, everyone
    // else is a singleton, and each group runs its own `FleetSim` over the
    // deterministic merge of just its members' streams. The shard count only caps
    // worker threads — it never changes the partition — so serve results are identical
    // at every shard count, and a single-group fleet (e.g. all members sharing one
    // slice, or a lone member) reproduces the previous global drive bit for bit.
    let weights: Vec<f64> = model_configs.iter().map(|c| c.share_weight).collect();
    let groups = partition_groups(&weights, shared_pool.is_some());
    let t_last = streams
        .iter()
        .filter_map(|s| s.last())
        .map(|q| q.arrival)
        .fold(0.0, f64::max);
    let stream_queries: usize = streams.iter().map(Vec::len).sum();
    let shards = fleet
        .spec
        .shards
        .unwrap_or(if stream_queries >= LARGE_STREAM_QUERIES {
            default_threads()
        } else {
            1
        })
        .max(1);
    let shared_hourly = shared_pool.as_ref().map_or(0.0, |p| p.hourly_cost());

    let mut config_slots: Vec<Option<FleetModelConfig<'_>>> =
        model_configs.into_iter().map(Some).collect();
    let mut controller_slots = controllers;
    let tasks: Vec<GroupServeTask<'_>> = groups
        .iter()
        .map(|g| GroupServeTask {
            members: g.clone(),
            configs: g
                .iter()
                .map(|&m| config_slots[m].take().expect("each member in one group"))
                .collect(),
            // Only the coupled group dispatches to (and is simulated with) the shared
            // slice; its fleet-wide bill is added during recombination.
            shared: if g.len() > 1 || weights[g[0]] > 0.0 {
                shared_pool.clone()
            } else {
                None
            },
            controllers: g.iter().map(|&m| controller_slots[m].take()).collect(),
            streams: g.iter().map(|&m| streams[m].as_slice()).collect(),
        })
        .collect();

    let results = par_map_vec(tasks, shards, |task| drive_group(fleet, task, t_last));

    // Scatter group results back into global model slots.
    let mut member_windows: Vec<Vec<WindowStats>> = vec![Vec::new(); n];
    let mut num_complete = vec![0usize; n];
    let mut member_events: Vec<Vec<ReconfigEvent>> = vec![Vec::new(); n];
    let mut member_stats: Vec<Option<SimStats>> = vec![None; n];
    let mut shared_queries = vec![0usize; n];
    let mut member_variant_served: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut member_variant_switches: Vec<Vec<VariantSwitch>> = vec![Vec::new(); n];
    let mut lane_billing: Vec<Option<Vec<SlotBilling>>> = vec![None; n];
    let mut lane_timeline: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
    let mut member_tier_totals: Vec<Vec<TierTotals>> = vec![Vec::new(); n];
    let mut controllers: Vec<Option<OnlineController>> = (0..n).map(|_| None).collect();
    let mut makespan = 0.0f64;
    let mut end_clock = 0.0f64;
    for (g, mut result) in groups.iter().zip(results) {
        makespan = makespan.max(result.makespan);
        end_clock = end_clock.max(result.end_clock);
        for (gi, &m) in g.iter().enumerate() {
            member_windows[m] = std::mem::take(&mut result.windows[gi]);
            num_complete[m] = result.num_complete[gi];
            member_events[m] = std::mem::take(&mut result.events[gi]);
            member_stats[m] = Some(result.stats[gi]);
            shared_queries[m] = result.shared_queries[gi];
            member_variant_served[m] = std::mem::take(&mut result.variant_served[gi]);
            member_variant_switches[m] = std::mem::take(&mut result.variant_switches[gi]);
            lane_billing[m] = result.lane_billing[gi].take();
            lane_timeline[m] = std::mem::take(&mut result.lane_timeline[gi]);
            member_tier_totals[m] = std::mem::take(&mut result.tier_totals[gi]);
            controllers[m] = result.controllers[gi].take();
        }
    }
    let member_stats: Vec<SimStats> = member_stats
        .into_iter()
        .map(|s| s.expect("every member driven"))
        .collect();

    // Global quantities, folded exactly as the global `FleetSim` computes them: lanes
    // in model order, then the shared slice (billed fleet-wide whether or not any
    // group dispatched to it). `cost_from_billing` replicates each lane's exact
    // mid-reconfiguration cost accounting bit for bit.
    let duration_s = makespan.max(end_clock);
    let cost_at = |t: f64| -> f64 {
        lane_billing
            .iter()
            .flatten()
            .map(|b| cost_from_billing(b, t))
            .sum::<f64>()
            + shared_hourly * t.max(0.0) / 3600.0
    };
    let total_cost_usd = cost_at(duration_s);
    let final_hourly_cost = lane_timeline
        .iter()
        .filter_map(|tl| tl.last())
        .map(|&(_, h)| h)
        .sum::<f64>()
        + shared_hourly;

    // Fleet-wide window cost fields. A single group carries them exactly as the global
    // drive wrote them; with several groups each group only saw its own lanes, so the
    // fields are reconstructed from the per-lane reconfiguration timelines: a window
    // reports the hourly cost of every pool change effective strictly before its end,
    // and samples accrued cost at its end (partial windows clamp to the run horizon) —
    // the same rules the global drive applies at close time.
    if groups.len() > 1 {
        for m in 0..n {
            for (i, w) in member_windows[m].iter_mut().enumerate() {
                let hourly: f64 = lane_timeline
                    .iter()
                    .filter_map(|tl| tl.iter().rev().find(|&&(at, _)| at < w.end_s))
                    .map(|&(_, h)| h)
                    .sum::<f64>()
                    + shared_hourly;
                let horizon = if i < num_complete[m] {
                    w.end_s
                } else {
                    w.end_s.min(duration_s)
                };
                w.pool_hourly_cost = hourly;
                w.cost_so_far_usd = cost_at(horizon);
            }
        }
    }

    // --- 4. Reports. ------------------------------------------------------------------
    let mut report = planner.build_report(fleet, &outcome);
    let mut total_queries = 0usize;
    let mut total_windows = 0usize;
    let mut total_events = 0usize;
    let mut total_variant_switches = 0usize;
    let mut total_admission_drops = 0u64;
    let mut total_preemptions = 0u64;
    for m in 0..n {
        let stats = &member_stats[m];
        total_queries += stats.num_queries;
        total_windows += member_windows[m].len();
        total_events += member_events[m].len();
        let events: Vec<EventReport> = member_events[m]
            .iter()
            .map(|e| EventReport {
                window_index: e.window_index,
                trigger: match e.trigger {
                    ReconfigTrigger::QosViolation => "qos-violation".to_string(),
                    ReconfigTrigger::OverProvisioning => "over-provisioning".to_string(),
                },
                config: e.config.clone(),
                planned_qps: e.planned_qps,
                transition_cost_usd: e.transition_cost_usd,
            })
            .collect();
        total_variant_switches += member_variant_switches[m].len();
        let tier_rows = fleet.members[m]
            .scenario
            .tiers
            .as_ref()
            .map(|set| TierReport::rows(set, &member_tier_totals[m]))
            .unwrap_or_default();
        total_admission_drops += tier_rows.iter().map(|t| t.admission_drops).sum::<u64>();
        total_preemptions += tier_rows.iter().map(|t| t.preemptions).sum::<u64>();
        report.models[m].serve = Some(FleetMemberServe {
            initial_config: init_slices[m].clone(),
            final_config: match &controllers[m] {
                Some(c) => c.current_config().to_vec(),
                None => init_slices[m].clone(),
            },
            windows: member_windows[m].len(),
            queries: stats.num_queries,
            shared_queries: shared_queries[m],
            satisfaction_rate: stats.satisfaction_rate(),
            events,
            variant_served: fleet.members[m]
                .scenario
                .workload
                .has_variant_axis()
                .then(|| std::mem::take(&mut member_variant_served[m])),
            variant_switches: std::mem::take(&mut member_variant_switches[m]),
            window_stats: std::mem::take(&mut member_windows[m]),
            tiers: tier_rows,
        });
    }
    report.serve = Some(FleetServeTotals {
        queries: total_queries,
        windows: total_windows,
        duration_s,
        total_cost_usd,
        mean_hourly_cost: mean_hourly_cost(total_cost_usd, duration_s),
        final_hourly_cost,
        reconfigurations: total_events,
        variant_switches: total_variant_switches,
        admission_drops: total_admission_drops,
        preemptions: total_preemptions,
    });
    Ok(report)
}

/// Streams above this size spread their coupling groups across all cores by default
/// (below it, thread setup outweighs the win); `fleet.shards` overrides either way.
const LARGE_STREAM_QUERIES: usize = 200_000;

/// One coupling group's serve work order: the members' lane configs, traffic slices,
/// and controllers, moved into the worker and returned with its results.
struct GroupServeTask<'a> {
    /// Global member indices, in model order.
    members: Vec<usize>,
    configs: Vec<FleetModelConfig<'a>>,
    /// The shared slice — only the coupled group carries one.
    shared: Option<PoolSpec>,
    controllers: Vec<Option<OnlineController>>,
    streams: Vec<&'a [Query]>,
}

/// One coupling group's serve outcome, indexed in group-member order.
struct GroupServe {
    controllers: Vec<Option<OnlineController>>,
    windows: Vec<Vec<WindowStats>>,
    /// Per member: how many leading windows are complete (the rest are partial).
    num_complete: Vec<usize>,
    events: Vec<Vec<ReconfigEvent>>,
    stats: Vec<SimStats>,
    shared_queries: Vec<usize>,
    variant_served: Vec<Vec<u64>>,
    variant_switches: Vec<Vec<VariantSwitch>>,
    lane_billing: Vec<Option<Vec<SlotBilling>>>,
    /// Per member lane: `(effective time, pool hourly cost after the change)`, seeded
    /// with the initial deployment and appended at every reconfiguration.
    lane_timeline: Vec<Vec<(f64, f64)>>,
    tier_totals: Vec<Vec<TierTotals>>,
    makespan: f64,
    end_clock: f64,
}

/// One member's lane hourly cost as currently deployed (0 when it has no lane).
fn lane_hourly(sim: &FleetSim<'_>, g: usize) -> f64 {
    sim.lane(g).map_or(0.0, |l| l.current_pool().hourly_cost())
}

/// Drives one coupling group through its own `FleetSim`: the same serve loop the
/// global drive ran, restricted to the group's merged stream, with per-query recording
/// off (constant memory — windows, counters, and satisfaction stay exact).
fn drive_group(fleet: &Fleet, task: GroupServeTask<'_>, t_last: f64) -> GroupServe {
    let k = task.members.len();
    let mut controllers = task.controllers;
    // Assigners are built before `FleetSim::new` consumes the configs; tagging the
    // merged stream per member in arrival order replays each member's stream in
    // member-local order — the exact sequence the plan-time assigner produced.
    let mut assigners = tier_assigners(&task.configs);
    let mut sim = FleetSim::new(task.configs, task.shared);
    sim.set_record_per_query(false);
    let mut windows: Vec<Vec<WindowStats>> = vec![Vec::new(); k];
    let mut events: Vec<Vec<ReconfigEvent>> = vec![Vec::new(); k];
    // Deferred retire phase of a make-before-break transition, per member.
    let mut pending: Vec<Option<(PoolSpec, f64, usize)>> = (0..k).map(|_| None).collect();
    let mut lane_cum: Vec<usize> = vec![0; k];
    let mut shared_cum: Vec<usize> = vec![0; k];
    let mut lane_timeline: Vec<Vec<(f64, f64)>> = (0..k)
        .map(|g| {
            sim.lane(g)
                .map(|l| vec![(0.0, l.current_pool().hourly_cost())])
                .unwrap_or_default()
        })
        .collect();

    let merged = merge_tagged_slices(&task.streams);
    let mut closed = Vec::new();
    for tq in &merged {
        for g in 0..k {
            if let Some((final_pool, apply_at, event_idx)) = pending[g].take() {
                if tq.query.arrival >= apply_at {
                    let rec = sim.reconfigure_model(g, &final_pool, apply_at);
                    lane_timeline[g].push((rec.at_s, lane_hourly(&sim, g)));
                    events[g][event_idx].completed = Some(rec);
                } else {
                    pending[g] = Some((final_pool, apply_at, event_idx));
                }
            }
        }
        let tq = tag_tier(tq, &mut assigners);
        sim.push_into(&tq, &mut closed);
        for (g, w) in closed.drain(..) {
            observe_window(
                fleet,
                task.members[g],
                g,
                &w,
                &mut sim,
                &mut controllers,
                &mut pending,
                &mut events,
                &mut lane_cum,
                &mut shared_cum,
                &mut lane_timeline,
            );
            windows[g].push(w);
        }
    }
    // Close the complete windows the global drive would have closed via other groups'
    // arrivals (none for a single-group fleet: its own last push already closed every
    // due window) and run the same controller observation over each. A pending retire
    // phase due by a drained window's end applies first, as the close-triggering
    // arrival would have applied it.
    for (g, w) in sim.drain_windows_until(t_last) {
        if let Some((final_pool, apply_at, event_idx)) = pending[g].take() {
            if apply_at <= w.end_s {
                let rec = sim.reconfigure_model(g, &final_pool, apply_at);
                lane_timeline[g].push((rec.at_s, lane_hourly(&sim, g)));
                events[g][event_idx].completed = Some(rec);
            } else {
                pending[g] = Some((final_pool, apply_at, event_idx));
            }
        }
        observe_window(
            fleet,
            task.members[g],
            g,
            &w,
            &mut sim,
            &mut controllers,
            &mut pending,
            &mut events,
            &mut lane_cum,
            &mut shared_cum,
            &mut lane_timeline,
        );
        windows[g].push(w);
    }
    for g in 0..k {
        if let Some((final_pool, apply_at, event_idx)) = pending[g].take() {
            let rec = sim.reconfigure_model(g, &final_pool, apply_at);
            lane_timeline[g].push((rec.at_s, lane_hourly(&sim, g)));
            events[g][event_idx].completed = Some(rec);
        }
    }
    let num_complete: Vec<usize> = windows.iter().map(Vec::len).collect();
    for (g, w) in sim.finish_windows() {
        windows[g].push(w);
    }
    GroupServe {
        makespan: sim.makespan(),
        end_clock: sim.clock(),
        stats: (0..k).map(|g| sim.stats(g)).collect(),
        shared_queries: (0..k).map(|g| sim.shared_queries(g)).collect(),
        variant_served: (0..k).map(|g| sim.variant_served(g)).collect(),
        variant_switches: (0..k).map(|g| sim.variant_switches(g).to_vec()).collect(),
        lane_billing: (0..k).map(|g| sim.lane_billing(g)).collect(),
        tier_totals: (0..k).map(|g| sim.tier_totals(g).to_vec()).collect(),
        controllers,
        windows,
        num_complete,
        events,
        lane_timeline,
    }
}

/// One closed window's controller step: scale the offered load by the lane's serve
/// share, let the member's controller observe it, and apply any planned slice
/// reconfiguration (make-before-break, with a deferred retire phase when the new and
/// old slices overlap on neither side).
#[allow(clippy::too_many_arguments)]
fn observe_window(
    fleet: &Fleet,
    member: usize,
    g: usize,
    w: &WindowStats,
    sim: &mut FleetSim<'_>,
    controllers: &mut [Option<OnlineController>],
    pending: &mut [Option<(PoolSpec, f64, usize)>],
    events: &mut [Vec<ReconfigEvent>],
    lane_cum: &mut [usize],
    shared_cum: &mut [usize],
    lane_timeline: &mut [Vec<(f64, f64)>],
) {
    let end_s = w.end_s;
    // The lane's share of this window's traffic (1.0 without a shared slice; for a
    // single-member no-shared fleet the scaled window is bit-identical to the
    // original, so the controller behaves exactly like serve_online's).
    let lane_now = sim.lane(g).map_or(0, |l| l.num_queries());
    let shared_now = sim.shared_queries(g);
    let lane_delta = lane_now - lane_cum[g];
    let shared_delta = shared_now - shared_cum[g];
    lane_cum[g] = lane_now;
    shared_cum[g] = shared_now;
    let lane_share = if lane_delta + shared_delta > 0 {
        lane_delta as f64 / (lane_delta + shared_delta) as f64
    } else {
        1.0
    };
    let mut controller_view = w.clone();
    controller_view.arrival_qps = w.arrival_qps * lane_share;
    if let Some(controller) = controllers[g].as_mut() {
        if let Some(plan) = controller.observe(&controller_view) {
            // A new decision supersedes any not-yet-completed retire phase.
            pending[g] = None;
            let workload = &fleet.members[member].scenario.workload;
            let new_pool = workload.diverse_pool_spec(&plan.config);
            let old_counts = sim
                .lane(g)
                .expect("controlled members have a lane")
                .current_pool()
                .counts
                .clone();
            let union: Vec<u32> = plan
                .config
                .iter()
                .zip(&old_counts)
                .map(|(&a, &b)| a.max(b))
                .collect();
            let two_phase = union != plan.config && union != old_counts;
            let first_pool = if two_phase {
                workload.diverse_pool_spec(&union)
            } else {
                new_pool.clone()
            };
            let applied = sim.reconfigure_model(g, &first_pool, end_s);
            lane_timeline[g].push((applied.at_s, lane_hourly(sim, g)));
            let transition_cost_usd = transition_overlap_cost(
                &applied.old_pool,
                &new_pool,
                applied.ready_at_s - applied.at_s,
            );
            if two_phase {
                pending[g] = Some((new_pool, applied.ready_at_s, events[g].len()));
            }
            events[g].push(ReconfigEvent {
                trigger: plan.trigger,
                window_index: plan.window_index,
                planned_qps: plan.planned_qps,
                config: plan.config,
                applied,
                completed: None,
                transition_cost_usd,
            });
        }
    }
}

fn u32s(values: &[u32]) -> Value {
    Value::Array(values.iter().map(|&v| Value::from(v)).collect())
}

impl FleetReport {
    /// Serializes the report to a value tree (for JSON output via the CLI's `--out`).
    pub fn to_value(&self) -> Value {
        let mut root = Value::table();
        root.insert("fleet", Value::from(self.fleet.as_str()));
        root.insert("planner", Value::from(self.planner.as_str()));
        root.insert("mode", Value::from(self.mode.name()));
        root.insert("seed", Value::from(self.seed));
        root.insert("shared_config", u32s(&self.shared_config));
        root.insert("shared_pool", Value::from(self.shared_pool.as_str()));
        root.insert("shared_hourly_cost", Value::from(self.shared_hourly_cost));
        root.insert("total_hourly_cost", Value::from(self.total_hourly_cost));
        if let Some(b) = self.baseline_total_hourly_cost {
            root.insert("baseline_total_hourly_cost", Value::from(b));
        }
        if let Some(s) = self.saving_percent {
            root.insert("saving_percent", Value::from(s));
        }
        root.insert(
            "bo_refinement_skipped",
            Value::from(self.bo_refinement_skipped),
        );
        root.insert("evaluations", Value::from(self.evaluations));
        root.insert("violations", Value::from(self.violations));

        let models: Vec<Value> = self
            .models
            .iter()
            .map(|m| {
                let mut t = Value::table();
                t.insert("name", Value::from(m.name.as_str()));
                t.insert("model", Value::from(m.model.as_str()));
                t.insert("qos", Value::from(m.qos.as_str()));
                t.insert("weight", Value::from(m.weight));
                t.insert("dedicated_config", u32s(&m.dedicated_config));
                t.insert("pool", Value::from(m.pool.as_str()));
                t.insert(
                    "dedicated_hourly_cost",
                    Value::from(m.dedicated_hourly_cost),
                );
                t.insert(
                    "attributed_hourly_cost",
                    Value::from(m.attributed_hourly_cost),
                );
                t.insert("satisfaction_rate", Value::from(m.satisfaction_rate));
                t.insert("meets_qos", Value::from(m.meets_qos));
                t.insert("shared_queries", Value::from(m.shared_queries));
                if let Some(c) = &m.baseline_config {
                    t.insert("baseline_config", u32s(c));
                }
                if let Some(p) = &m.baseline_pool {
                    t.insert("baseline_pool", Value::from(p.as_str()));
                }
                if let Some(c) = m.baseline_hourly_cost {
                    t.insert("baseline_hourly_cost", Value::from(c));
                }
                if let Some(s) = m.saving_percent {
                    t.insert("saving_percent", Value::from(s));
                }
                if let Some(serve) = &m.serve {
                    let mut st = Value::table();
                    st.insert("initial_config", u32s(&serve.initial_config));
                    st.insert("final_config", u32s(&serve.final_config));
                    st.insert("windows", Value::from(serve.windows));
                    st.insert("queries", Value::from(serve.queries));
                    st.insert("shared_queries", Value::from(serve.shared_queries));
                    if let Some(rate) = serve.satisfaction_rate {
                        st.insert("satisfaction_rate", Value::from(rate));
                    }
                    let events: Vec<Value> = serve
                        .events
                        .iter()
                        .map(|e| {
                            let mut et = Value::table();
                            et.insert("window", Value::from(e.window_index));
                            et.insert("trigger", Value::from(e.trigger.as_str()));
                            et.insert("config", u32s(&e.config));
                            et.insert("planned_qps", Value::from(e.planned_qps));
                            et.insert("transition_cost_usd", Value::from(e.transition_cost_usd));
                            et
                        })
                        .collect();
                    st.insert("events", Value::Array(events));
                    if let Some(served) = &serve.variant_served {
                        st.insert(
                            "variant_served",
                            Value::Array(served.iter().map(|&q| Value::from(q)).collect()),
                        );
                    }
                    if !serve.tiers.is_empty() {
                        st.insert(
                            "tiers",
                            Value::Array(serve.tiers.iter().map(TierReport::to_value).collect()),
                        );
                    }
                    if !serve.variant_switches.is_empty() {
                        let switches: Vec<Value> = serve
                            .variant_switches
                            .iter()
                            .map(|s| {
                                let mut vt = Value::table();
                                vt.insert("at_s", Value::from(s.at_s));
                                vt.insert("from", Value::from(s.from));
                                vt.insert("to", Value::from(s.to));
                                vt
                            })
                            .collect();
                        st.insert("variant_switches", Value::Array(switches));
                    }
                    t.insert("serve", st);
                }
                t
            })
            .collect();
        root.insert("models", Value::Array(models));

        if let Some(serve) = &self.serve {
            let mut st = Value::table();
            st.insert("queries", Value::from(serve.queries));
            st.insert("windows", Value::from(serve.windows));
            st.insert("duration_s", Value::from(serve.duration_s));
            st.insert("total_cost_usd", Value::from(serve.total_cost_usd));
            st.insert("mean_hourly_cost", Value::from(serve.mean_hourly_cost));
            st.insert("final_hourly_cost", Value::from(serve.final_hourly_cost));
            st.insert("reconfigurations", Value::from(serve.reconfigurations));
            if serve.variant_switches > 0 {
                st.insert("variant_switches", Value::from(serve.variant_switches));
            }
            if serve.admission_drops > 0 {
                st.insert("admission_drops", Value::from(serve.admission_drops));
            }
            if serve.preemptions > 0 {
                st.insert("preemptions", Value::from(serve.preemptions));
            }
            root.insert("serve", st);
        }
        root
    }

    /// Serializes the report as pretty JSON.
    pub fn to_json_string(&self) -> String {
        ribbon_spec::json::to_string(&self.to_value())
    }

    /// A compact human summary for terminal output.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "fleet {} | planner {} | {} | {} model(s) | seed {}",
            self.fleet,
            self.planner,
            self.mode.name(),
            self.models.len(),
            self.seed
        )];
        let mut plan_line = format!(
            "  plan: total ${:.2}/hr (shared {} at ${:.2}/hr) after {} evaluations ({} violating)",
            self.total_hourly_cost,
            if self.shared_pool == "empty" {
                "none".to_string()
            } else {
                self.shared_pool.clone()
            },
            self.shared_hourly_cost,
            self.evaluations,
            self.violations
        );
        if let (Some(b), Some(s)) = (self.baseline_total_hourly_cost, self.saving_percent) {
            plan_line.push_str(&format!(
                "; dedicated-pools baseline ${b:.2}/hr -> saving {s:.1}%"
            ));
        }
        if self.bo_refinement_skipped {
            plan_line.push_str("; BO refinement SKIPPED (joint lattice over cap)");
        }
        lines.push(plan_line);
        for m in &self.models {
            let mut line = format!(
                "    {}: {} at ${:.2}/hr attributed (qos {} -> rate {:.4}{})",
                m.name,
                if m.pool == "empty" {
                    "shared-only"
                } else {
                    &m.pool
                },
                m.attributed_hourly_cost,
                m.qos,
                m.satisfaction_rate,
                if m.meets_qos { ", met" } else { ", VIOLATED" }
            );
            if let (Some(b), Some(s)) = (m.baseline_hourly_cost, m.saving_percent) {
                line.push_str(&format!("; baseline ${b:.2}/hr -> saving {s:.1}%"));
            }
            lines.push(line);
            if let Some(serve) = &m.serve {
                lines.push(format!(
                    "      serve: {} queries ({} shared) in {} windows, satisfaction {}, \
                     {} reconfiguration(s)",
                    serve.queries,
                    serve.shared_queries,
                    serve.windows,
                    serve
                        .satisfaction_rate
                        .map_or("n/a".to_string(), |r| format!("{r:.4}")),
                    serve.events.len()
                ));
                for t in &serve.tiers {
                    lines.push(format!(
                        "        tier {} ({}): {} served, satisfaction {}, {} dropped, \
                         {} preemption(s)",
                        t.name,
                        t.class,
                        t.served,
                        t.satisfaction_rate
                            .map_or("n/a".to_string(), |r| format!("{r:.4}")),
                        t.admission_drops,
                        t.preemptions
                    ));
                }
                for e in &serve.events {
                    lines.push(format!(
                        "        w{} {} -> {:?} (planned {:.0} qps, transition ~${:.4})",
                        e.window_index, e.trigger, e.config, e.planned_qps, e.transition_cost_usd
                    ));
                }
                if let Some(served) = &serve.variant_served {
                    lines.push(format!(
                        "      variants: served per palette index {:?}, {} switch(es)",
                        served,
                        serve.variant_switches.len()
                    ));
                }
            }
        }
        if let Some(serve) = &self.serve {
            lines.push(format!(
                "  serve totals: {} queries in {} windows over {:.0} s, total ${:.4} \
                 (mean ${:.2}/hr), {} reconfiguration(s)",
                serve.queries,
                serve.windows,
                serve.duration_s,
                serve.total_cost_usd,
                serve.mean_hourly_cost,
                serve.reconfigurations
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_or_overflowing_joint_lattices_skip_bo_refinement() {
        assert!(!skips_bo_refinement(&[10, 10, 10]));
        // Exactly the cap is refined; one point more is not.
        assert!(!skips_bo_refinement(&[2_000_000, 0]));
        assert!(skips_bo_refinement(&[2_000_001, 0]));
        // (2^32)^2 wraps to 0 in unchecked u64 arithmetic, under the cap.
        assert!(skips_bo_refinement(&[u32::MAX, u32::MAX]));
        assert!(skips_bo_refinement(&[u32::MAX; 4]));
    }
}
