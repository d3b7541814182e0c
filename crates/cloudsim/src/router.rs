//! Multi-model query routing over a shared heterogeneous pool.
//!
//! A *fleet* serves several models at once on one jointly-provisioned pool. Each
//! instance slot is either **dedicated** to one model (its "lane": a per-model
//! [`Lane`] slice of the pool) or **shared** (a [`SharedServer`] slot that serves
//! queries of *any* model, using the arriving query's own latency profile). Queries are
//! tagged with their model ([`TaggedQuery`]) and the [`FleetSim`] router dispatches each
//! one:
//!
//! * models without shared access (`share_weight == 0.0`) always use their lane;
//! * otherwise routing is **availability-based and weighted**: each side's *wait* is
//!   the time until some instance there could start the query. With
//!   `share_weight ≥ 1.0` the shared slice wins ties (`shared_wait ≤ w × lane_wait`) —
//!   the configuration where the shared slots hold the premium instance types and the
//!   dedicated lane is the spillover, preserving the paper's fast-types-first dispatch
//!   preference across models. With `share_weight < 1.0` the comparison is strict
//!   (`shared_wait < w × lane_wait`): the lane serves unless the shared side is
//!   decisively sooner — classic overflow pooling;
//! * a model with an empty dedicated slice routes everything to the shared slice.
//!
//! # Per-model monitoring and bit-identity
//!
//! Lanes and the shared slice dispatch through the same FCFS slot queue as every other
//! serving path. Each model has one window accumulator — the one a
//! [`StreamingSim`](crate::StreamingSim) uses — covering *both* its lane and the shared
//! slice, so a fleet controller can watch each model's QoS independently even when its
//! queries are split across slots. Window cost fields report **fleet-wide** accrued
//! cost and hourly cost — the quantity a joint planner optimizes.
//!
//! For a fleet with a **single model and no shared slots**, every dispatch, latency,
//! window statistic, and cost of `FleetSim` is bit-identical to driving that model's
//! [`StreamingSim`](crate::StreamingSim) directly (both pair a [`Lane`] with the same
//! window accumulator, and the fleet-wide sums reduce to the single lane's values). The
//! differential suite in `tests/fleet_serving.rs` pins this.

use crate::dispatch::{Dispatch, SlotQueue};
use crate::instance::{InstanceType, PoolSpec};
use crate::latency::LatencyModel;
use crate::query::Query;
use crate::sim::SimStats;
use crate::streaming::{Lane, Reconfiguration, SlotBilling, WindowConfig, WindowStats};
use crate::tier::{AdmissionClass, TierSet, TierTotals};
use crate::window::WindowAccumulator;

/// A query tagged with the index of the fleet model it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaggedQuery {
    /// Index of the model in the fleet's member order.
    pub model: usize,
    /// The query itself.
    pub query: Query,
    /// Priority-tier index within the model's tier set (`0` for untiered members —
    /// the only valid value when the member has no tiers configured).
    pub tier: u32,
}

impl TaggedQuery {
    /// An untiered tag (tier 0) — the only tier untiered members accept.
    pub fn new(model: usize, query: Query) -> Self {
        TaggedQuery {
            model,
            query,
            tier: 0,
        }
    }
}

/// Merges per-model query streams into one arrival-ordered tagged stream.
///
/// Ties break by model index, so the merge is fully deterministic: the same inputs
/// produce the same interleaving on every run and platform.
pub fn merge_tagged(streams: &[Vec<Query>]) -> Vec<TaggedQuery> {
    let slices: Vec<&[Query]> = streams.iter().map(Vec::as_slice).collect();
    merge_tagged_slices(&slices)
}

/// Slice-based form of [`merge_tagged`], for callers merging borrowed sub-sets of a
/// larger stream collection (the sharded runner's per-group merges) without cloning.
pub fn merge_tagged_slices(streams: &[&[Query]]) -> Vec<TaggedQuery> {
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut merged = Vec::with_capacity(total);
    let mut cursors = vec![0usize; streams.len()];
    for _ in 0..total {
        let mut best: Option<(f64, usize)> = None;
        for (m, stream) in streams.iter().enumerate() {
            if let Some(q) = stream.get(cursors[m]) {
                let better = match best {
                    None => true,
                    Some((arrival, _)) => q.arrival < arrival,
                };
                if better {
                    best = Some((q.arrival, m));
                }
            }
        }
        let (_, m) = best.expect("total counts remaining queries");
        merged.push(TaggedQuery::new(m, streams[m][cursors[m]]));
        cursors[m] += 1;
    }
    merged
}

/// One model's slice of a fleet simulation.
#[derive(Clone)]
pub struct FleetModelConfig<'a> {
    /// The model's dedicated pool slice. May be empty (all counts zero) when the model
    /// relies entirely on the shared slice.
    pub pool: PoolSpec,
    /// The model's latency profile.
    pub profile: &'a dyn LatencyModel,
    /// QoS latency target in seconds (window satisfaction counts).
    pub target_latency_s: f64,
    /// Tail percentile reported in this model's windows and stats.
    pub tail_percentile: f64,
    /// Monitoring-window shape for this model.
    pub window: WindowConfig,
    /// Shared-routing weight: `0.0` never routes to the shared slice; `w > 0` routes a
    /// query to the shared slice iff `shared_wait < w × lane_wait`. `1.0` is plain
    /// earliest-start overflow routing.
    pub share_weight: f64,
    /// Multiplier on per-type spin-up delays of this lane's reconfigurations.
    pub spin_up_factor: f64,
    /// Per-query variant routing policy for the dedicated lane; `None` serves the
    /// accuracy-best baseline for every query (bit-identical to a variant-less run).
    pub variant_policy: Option<VariantPolicy>,
    /// Priority tiers for this model's traffic; `None` (or a single plain standard
    /// tier) serves bit-identically to an untiered run.
    pub tiers: Option<TierSet>,
}

/// Deterministic per-query variant selection for a model's dedicated lane.
///
/// The router prefers the accuracy-best variant (palette index 0). When the rolling
/// mean of the lane's recent latencies approaches the QoS bound it *degrades* one
/// palette step (cheaper, faster variant); when the rolling mean falls well below the
/// bound it *upgrades* one step back. The asymmetric thresholds
/// (`upgrade_ratio < degrade_ratio`) plus a dwell count between switches give the
/// hysteresis that keeps the router from flapping at a threshold. Decisions read only
/// already-observed latencies and query counts, so routing is bit-reproducible.
///
/// The shared slice always serves the baseline variant — it is sized by the joint
/// planner for accuracy-best service and is not under any single member's control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantPolicy {
    /// Palette size (valid serving variants are `0..num_variants`).
    pub num_variants: u32,
    /// Degrade one step when the rolling mean latency exceeds
    /// `degrade_ratio × target_latency_s`.
    pub degrade_ratio: f64,
    /// Upgrade one step when the rolling mean latency falls below
    /// `upgrade_ratio × target_latency_s`. Must be below `degrade_ratio`.
    pub upgrade_ratio: f64,
    /// Rolling-mean window, in dedicated-lane queries.
    pub window: u32,
    /// Minimum dedicated-lane queries between two switches (hysteresis dwell).
    pub dwell: u32,
}

impl VariantPolicy {
    /// The default policy for a palette of `num_variants`: degrade at 70 % of the QoS
    /// bound, upgrade below 35 %, over a 32-query rolling mean with a 64-query dwell.
    ///
    /// # Panics
    /// Panics on an empty palette (`num_variants == 0`) — a policy with nothing to
    /// route over is a configuration error, not something to clamp around. Spec-file
    /// paths use [`VariantPolicy::try_new`] and surface the error instead.
    pub fn new(num_variants: u32) -> Self {
        Self::try_new(num_variants).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating form of [`VariantPolicy::new`] — the spec-file path.
    pub fn try_new(num_variants: u32) -> Result<Self, crate::error::ConfigError> {
        let policy = VariantPolicy {
            num_variants,
            degrade_ratio: 0.70,
            upgrade_ratio: 0.35,
            window: 32,
            dwell: 64,
        };
        policy.validate()?;
        Ok(policy)
    }

    fn validate(&self) -> Result<(), crate::error::ConfigError> {
        use crate::error::ConfigError;
        if self.num_variants == 0 {
            return Err(ConfigError::new(
                "variant policy needs at least one variant",
            ));
        }
        if self.window == 0 || self.dwell == 0 {
            return Err(ConfigError::new(
                "variant policy window and dwell must be positive",
            ));
        }
        let ratios_ok = self.upgrade_ratio.is_finite()
            && self.degrade_ratio.is_finite()
            && 0.0 < self.upgrade_ratio
            && self.upgrade_ratio < self.degrade_ratio;
        if !ratios_ok {
            return Err(ConfigError::new(format!(
                "variant policy needs 0 < upgrade_ratio < degrade_ratio, got {} and {}",
                self.upgrade_ratio, self.degrade_ratio
            )));
        }
        Ok(())
    }
}

/// One serving-variant switch applied by the router or a controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantSwitch {
    /// Stream time of the switch (arrival time of the triggering query).
    pub at_s: f64,
    /// Palette index before the switch.
    pub from: u32,
    /// Palette index after the switch.
    pub to: u32,
}

/// The shared slice of a fleet pool: slots that serve queries of *any* model, each query
/// timed by its own model's latency profile, through the same FCFS dispatcher as a lane.
/// No mid-stream reconfiguration (the shared slice is sized by the joint planner and
/// stays fixed for a run).
pub struct SharedServer<'a> {
    pool: PoolSpec,
    profiles: Vec<&'a dyn LatencyModel>,
    types: Vec<InstanceType>,
    load: Vec<u64>,
    queue: SlotQueue,
}

impl<'a> SharedServer<'a> {
    /// Creates the shared slice. `profiles` is indexed by fleet model index.
    ///
    /// # Panics
    /// Panics if the pool is empty.
    pub fn new(pool: &PoolSpec, profiles: Vec<&'a dyn LatencyModel>) -> Self {
        let types = crate::sim::serving_instances(pool);
        SharedServer {
            pool: pool.clone(),
            profiles,
            load: vec![0; types.len()],
            queue: SlotQueue::new(types.len()),
            types,
        }
    }

    /// The shared pool.
    pub fn pool(&self) -> &PoolSpec {
        &self.pool
    }

    /// Queries served per shared slot.
    pub fn per_slot_load(&self) -> &[u64] {
        &self.load
    }

    /// Earliest time at or after `at` when a shared slot could start a query of `class`
    /// (in a tiered fleet, premium waits only on the firm clocks).
    pub fn next_available_at(&self, at: f64, class: AdmissionClass) -> f64 {
        self.queue.next_available_at(at, class)
    }

    /// Dispatches one query of `model`; `None` when it is dropped at admission.
    fn dispatch(
        &mut self,
        model: usize,
        q: &Query,
        class: AdmissionClass,
        cap: Option<f64>,
    ) -> Option<Dispatch> {
        let (profile, types) = (self.profiles[model], &self.types);
        let served = self.queue.dispatch(q.arrival, class, cap, |slot| {
            profile.service_time(types[slot], q.batch_size).max(0.0)
        });
        if let Some(d) = &served {
            self.load[d.slot] += 1;
        }
        served
    }

    /// Accrued cost of the (static) shared slice up to `t`.
    pub fn cost_so_far(&self, t: f64) -> f64 {
        self.pool.hourly_cost() * t.max(0.0) / 3600.0
    }
}

/// One fleet member's serving side: its dedicated lane, if any, and its routing state.
struct Member<'a> {
    lane: Option<Lane<'a, dyn LatencyModel + 'a>>,
    target_latency_s: f64,
    share_weight: f64,
    shared_queries: usize,
    // Variant routing (None ⇒ always the baseline, zero bookkeeping on the hot path).
    variant_policy: Option<VariantPolicy>,
    variant_recent: Vec<f64>,
    variant_recent_pos: usize,
    variant_since_switch: u32,
    variant_switches: Vec<VariantSwitch>,
}

impl Member<'_> {
    /// Applies the variant policy's degrade/upgrade rule before a dedicated dispatch:
    /// once the rolling window is full and the dwell has elapsed, a rolling mean above
    /// `degrade_ratio × target` steps one variant down the palette (cheaper), a mean
    /// below `upgrade_ratio × target` steps one back up. Each switch resets both the
    /// evidence window and the dwell counter.
    fn maybe_switch_variant(&mut self, at_s: f64) {
        let Some(policy) = self.variant_policy else {
            return;
        };
        let Some(lane) = self.lane.as_mut() else {
            return;
        };
        if policy.num_variants <= 1
            || self.variant_recent.len() < policy.window as usize
            || self.variant_since_switch < policy.dwell
        {
            return;
        }
        let mean = self.variant_recent.iter().sum::<f64>() / self.variant_recent.len() as f64;
        let current = lane.serving_variant();
        let next = if mean > policy.degrade_ratio * self.target_latency_s
            && current + 1 < policy.num_variants
        {
            Some(current + 1)
        } else if mean < policy.upgrade_ratio * self.target_latency_s && current > 0 {
            Some(current - 1)
        } else {
            None
        };
        if let Some(to) = next {
            lane.set_serving_variant(to);
            self.variant_switches.push(VariantSwitch {
                at_s,
                from: current,
                to,
            });
            self.variant_since_switch = 0;
            self.variant_recent.clear();
            self.variant_recent_pos = 0;
        }
    }

    /// Feeds one served latency into the policy's rolling window (ring buffer).
    /// Both routes feed it — a member served mostly through the shared slice must
    /// still accumulate evidence, or it would never degrade under load.
    fn observe_latency(&mut self, latency: f64) {
        let Some(policy) = self.variant_policy else {
            return;
        };
        let window = policy.window as usize;
        if self.variant_recent.len() < window {
            self.variant_recent.push(latency);
        } else {
            self.variant_recent[self.variant_recent_pos] = latency;
            self.variant_recent_pos = (self.variant_recent_pos + 1) % window;
        }
        self.variant_since_switch = self.variant_since_switch.saturating_add(1);
    }
}

/// Fleet-wide hourly cost of the deployed pools (lanes + shared).
fn fleet_hourly_cost(members: &[Member<'_>], shared: Option<&SharedServer<'_>>) -> f64 {
    members
        .iter()
        .filter_map(|m| m.lane.as_ref())
        .map(|l| l.current_pool().hourly_cost())
        .sum::<f64>()
        + shared.map_or(0.0, |s| s.pool().hourly_cost())
}

/// Exact fleet-wide accrued cost up to `t`: every lane's per-slot billing (including
/// reconfiguration drain/spin-up overlap) plus the static shared slice.
fn fleet_cost(members: &[Member<'_>], shared: Option<&SharedServer<'_>>, t: f64) -> f64 {
    members
        .iter()
        .filter_map(|m| m.lane.as_ref())
        .map(|l| l.cost_so_far(t))
        .sum::<f64>()
        + shared.map_or(0.0, |s| s.cost_so_far(t))
}

/// The fleet router/simulator: per-model dedicated lanes plus an optional shared slice,
/// driven one [`TaggedQuery`] at a time. See the module docs for routing semantics and
/// the single-model bit-identity contract.
pub struct FleetSim<'a> {
    members: Vec<Member<'a>>,
    /// Per-model window accounting, covering lane and shared dispatches.
    windows: Vec<WindowAccumulator>,
    shared: Option<SharedServer<'a>>,
    clock: f64,
}

impl<'a> FleetSim<'a> {
    /// Builds a fleet simulation. Each model needs a non-empty dedicated pool or access
    /// to a shared slice (`share_weight > 0` and `shared` present).
    ///
    /// # Panics
    /// Panics if some model has neither dedicated capacity nor shared access, or if a
    /// window config is invalid.
    pub fn new(models: Vec<FleetModelConfig<'a>>, shared: Option<PoolSpec>) -> Self {
        // Any tiered member switches the *shared* slice to tiered dispatch (its slots
        // serve every model, so premium overtaking must see one consistent clock set);
        // untiered members' queries then dispatch there as plain standard, which is
        // bit-identical to untiered dispatch. Dedicated lanes stay per-member.
        let fleet_tiered = models.iter().any(|m| m.tiers.is_some());
        let shared = shared.filter(|p| p.total_instances() > 0).map(|pool| {
            let profiles: Vec<&'a dyn LatencyModel> = models.iter().map(|m| m.profile).collect();
            let mut server = SharedServer::new(&pool, profiles);
            if fleet_tiered {
                server.queue.enable_firm();
            }
            server
        });
        let mut members = Vec::with_capacity(models.len());
        let mut windows = Vec::with_capacity(models.len());
        for (i, m) in models.into_iter().enumerate() {
            let lane = (m.pool.total_instances() > 0).then(|| {
                let mut lane = Lane::new(&m.pool, m.profile, m.spin_up_factor);
                if m.tiers.is_some() {
                    lane.enable_tiers();
                }
                lane
            });
            assert!(
                lane.is_some() || (m.share_weight > 0.0 && shared.is_some()),
                "fleet model {i} has neither dedicated capacity nor shared access"
            );
            m.window.validate();
            if let Some(policy) = m.variant_policy {
                policy
                    .validate()
                    .unwrap_or_else(|e| panic!("fleet model {i}: {e}"));
                let palette = m.profile.num_variants().max(1);
                assert!(
                    policy.num_variants <= palette,
                    "fleet model {i}: variant policy routes over {} variants but the \
                     profile's palette has {palette}",
                    policy.num_variants
                );
            }
            let mut model_windows =
                WindowAccumulator::new(m.target_latency_s, m.tail_percentile, m.window);
            if let Some(set) = m.tiers {
                model_windows.enable_tiers(set);
            }
            windows.push(model_windows);
            members.push(Member {
                lane,
                target_latency_s: m.target_latency_s,
                share_weight: m.share_weight,
                shared_queries: 0,
                variant_policy: m.variant_policy,
                variant_recent: Vec::new(),
                variant_recent_pos: 0,
                variant_since_switch: 0,
                variant_switches: Vec::new(),
            });
        }
        FleetSim {
            members,
            windows,
            shared,
            clock: 0.0,
        }
    }

    /// Number of fleet models.
    pub fn num_models(&self) -> usize {
        self.members.len()
    }

    /// The global stream clock (arrival time of the last pushed query).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// The shared slice, when the fleet has one.
    pub fn shared(&self) -> Option<&SharedServer<'a>> {
        self.shared.as_ref()
    }

    /// A model's dedicated lane, when it has one.
    pub fn lane(&self, model: usize) -> Option<&Lane<'a, dyn LatencyModel + 'a>> {
        self.members[model].lane.as_ref()
    }

    /// How many of a model's queries were served by the shared slice so far.
    pub fn shared_queries(&self, model: usize) -> usize {
        self.members[model].shared_queries
    }

    /// The palette index a model's dedicated lane is currently serving (`0` — the
    /// accuracy-best baseline — when the model has no lane or no variant policy).
    pub fn serving_variant(&self, model: usize) -> u32 {
        self.members[model]
            .lane
            .as_ref()
            .map_or(0, |l| l.serving_variant())
    }

    /// Per-variant serve counts for one model, indexed by palette position. Dedicated
    /// dispatches count under the variant that timed them; shared-slice dispatches
    /// always serve the baseline and fold into index 0.
    pub fn variant_served(&self, model: usize) -> Vec<u64> {
        let m = &self.members[model];
        // A validated policy always has at least one variant, so no clamp is needed.
        let mut counts = match (&m.lane, m.variant_policy) {
            (Some(lane), _) => lane.variant_served().to_vec(),
            (None, Some(policy)) => vec![0; policy.num_variants as usize],
            (None, None) => vec![0],
        };
        counts[0] += m.shared_queries as u64;
        counts
    }

    /// The variant switches the router applied on one model's lane, in stream order.
    pub fn variant_switches(&self, model: usize) -> &[VariantSwitch] {
        &self.members[model].variant_switches
    }

    /// One model's tier set, when the member is tiered.
    pub fn tier_set(&self, model: usize) -> Option<&TierSet> {
        self.windows[model].tier_set()
    }

    /// One model's whole-stream per-tier totals (lane + shared dispatches), in
    /// tier-set order; empty for untiered members.
    pub fn tier_totals(&self, model: usize) -> &[TierTotals] {
        self.windows[model].tier_totals()
    }

    /// Fleet-wide hourly cost of the currently deployed pools (lanes + shared).
    pub fn current_hourly_cost(&self) -> f64 {
        fleet_hourly_cost(&self.members, self.shared.as_ref())
    }

    /// Exact fleet-wide accrued cost up to `t`: every lane's per-slot billing (including
    /// reconfiguration drain/spin-up overlap) plus the static shared slice.
    pub fn cost_so_far(&self, t: f64) -> f64 {
        fleet_cost(&self.members, self.shared.as_ref(), t)
    }

    /// Completion time of the last-finishing query so far, over the whole fleet.
    pub fn makespan(&self) -> f64 {
        self.windows
            .iter()
            .map(WindowAccumulator::makespan)
            .fold(0.0, f64::max)
    }

    /// Advances the fleet by one tagged query: closes every model window the new global
    /// arrival clock proved complete (in model order), then routes and dispatches the
    /// query. Returns the closed windows as `(model, stats)` pairs.
    ///
    /// Queries must be pushed in non-decreasing arrival order (the order
    /// [`merge_tagged`] produces).
    pub fn push(&mut self, tq: &TaggedQuery) -> Vec<(usize, WindowStats)> {
        let mut closed = Vec::new();
        self.push_into(tq, &mut closed);
        closed
    }

    /// Non-allocating form of [`FleetSim::push`]: closed windows are appended to
    /// `closed` (which the caller typically `drain`s and reuses), keeping the hot path
    /// free of per-query heap allocation.
    ///
    /// Returns `false` when the query — a best-effort one over its tier's admission
    /// cap — was dropped at admission instead of served (`true` for every untiered
    /// query).
    pub fn push_into(&mut self, tq: &TaggedQuery, closed: &mut Vec<(usize, WindowStats)>) -> bool {
        let q = &tq.query;
        debug_assert!(
            q.arrival >= self.clock,
            "tagged queries must be pushed in arrival order"
        );
        self.close_until(q.arrival, closed);

        let member = &mut self.members[tq.model];
        let (class, cap) = self.windows[tq.model].class_of(tq.tier);
        let to_shared = match (&member.lane, &self.shared) {
            (None, Some(_)) => true,
            (Some(lane), Some(shared)) if member.share_weight > 0.0 => {
                // A premium query waits only on each side's firm clocks (it may
                // overtake queued best-effort work); every other class waits on the
                // full clocks.
                let lane_wait = lane.next_available_at(q.arrival, class) - q.arrival;
                let shared_wait = shared.next_available_at(q.arrival, class) - q.arrival;
                // Weight ≥ 1 prefers the shared slice on ties (the shared slots hold
                // the premium types and the lane is the spillover); weight < 1 keeps
                // strict overflow semantics (the lane serves unless the shared side is
                // decisively sooner).
                if member.share_weight >= 1.0 {
                    shared_wait <= member.share_weight * lane_wait
                } else {
                    shared_wait < member.share_weight * lane_wait
                }
            }
            (Some(_), _) => false,
            (None, None) => unreachable!("constructor guarantees capacity for every model"),
        };
        // Evaluate the variant policy on every arrival, whichever side serves it: a
        // member routed mostly through the shared slice still accumulates evidence,
        // and the switch must fire from shared completions too. Routing above never
        // looks at the serving variant, so evaluating here keeps the dedicated path's
        // dispatch timing unchanged.
        member.maybe_switch_variant(q.arrival);
        let served = if to_shared {
            let shared = self
                .shared
                .as_mut()
                .expect("shared route has a shared slice");
            let served = shared.dispatch(tq.model, q, class, cap);
            member.shared_queries += usize::from(served.is_some());
            served
        } else {
            let lane = member.lane.as_mut().expect("dedicated route has a lane");
            lane.dispatch(q, class, cap)
        };
        self.clock = q.arrival;
        let windows = &mut self.windows[tq.model];
        match served {
            Some(d) => {
                let latency = windows.record(q.arrival, d.completion, tq.tier, d.preempted);
                member.observe_latency(latency);
                true
            }
            None => {
                windows.record_drop(tq.tier, q.arrival);
                false
            }
        }
    }

    /// Replaces one model's dedicated slice mid-stream (drain/retire + spin-up, exactly
    /// [`Lane::reconfigure`] on that lane). The shared slice is never reconfigured — a
    /// fleet controller adjusts only the violating model's slice.
    ///
    /// # Panics
    /// Panics if the model has no dedicated lane or `new_pool` is empty.
    pub fn reconfigure_model(
        &mut self,
        model: usize,
        new_pool: &PoolSpec,
        at_s: f64,
    ) -> Reconfiguration {
        self.members[model]
            .lane
            .as_mut()
            .unwrap_or_else(|| panic!("fleet model {model} has no dedicated lane to reconfigure"))
            .reconfigure(new_pool, at_s)
    }

    /// Toggles per-query recording for every model — see
    /// [`StreamingSim::set_record_per_query`](crate::StreamingSim::set_record_per_query).
    /// With recording off, a model's memory is bounded by the arrivals of its open
    /// windows instead of growing with the stream; window statistics and counters stay
    /// exact, but per-model [`FleetSim::stats`] reports a `0.0` whole-stream tail.
    pub fn set_record_per_query(&mut self, record: bool) {
        for windows in &mut self.windows {
            windows.record_per_query = record;
        }
    }

    /// One model's lane billing records, when it has a lane — see
    /// [`Lane::billing`] for the post-hoc cost-reconstruction contract.
    pub fn lane_billing(&self, model: usize) -> Option<Vec<SlotBilling>> {
        self.members[model].lane.as_ref().map(|l| l.billing())
    }

    /// Closes every model's windows that end at or before `t`, in model order.
    fn close_until(&mut self, t: f64, closed: &mut Vec<(usize, WindowStats)>) {
        let (members, shared) = (&self.members, self.shared.as_ref());
        for (m, windows) in self.windows.iter_mut().enumerate() {
            windows.close_until(
                t,
                || fleet_hourly_cost(members, shared),
                |t| fleet_cost(members, shared, t),
                |w| closed.push((m, w)),
            );
        }
    }

    /// Closes every window provably complete at stream time `t` — those with
    /// `end_s ≤ t` — for every model in model order, exactly as pushing a query
    /// arriving at `t` would, and advances the global clock to at least `t`.
    ///
    /// The sharded runner calls this with the *fleet-wide* last-arrival time so a
    /// group that went quiet early still closes the complete windows the global merged
    /// stream would have closed for it. A no-op when the group's own stream already
    /// reached `t`.
    pub fn drain_windows_until(&mut self, t: f64) -> Vec<(usize, WindowStats)> {
        debug_assert!(t >= self.clock, "the drain clock must not move backwards");
        let mut closed = Vec::new();
        self.close_until(t, &mut closed);
        if t > self.clock {
            self.clock = t;
        }
        closed
    }

    /// Closes and returns every remaining window with arrivals, per model in model
    /// order. Call once after the stream ends.
    pub fn finish_windows(&mut self) -> Vec<(usize, WindowStats)> {
        let mut out = Vec::new();
        let (members, shared) = (&self.members, self.shared.as_ref());
        let (clock, makespan) = (self.clock, self.makespan());
        for (m, windows) in self.windows.iter_mut().enumerate() {
            windows.finish(
                clock,
                makespan,
                || fleet_hourly_cost(members, shared),
                |t| fleet_cost(members, shared, t),
                |w| out.push((m, w)),
            );
        }
        out
    }

    /// One model's whole-stream aggregate statistics (same accumulation order and tail
    /// selection as the single-model simulator).
    pub fn stats(&self, model: usize) -> SimStats {
        self.windows[model].stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ArrivalProcess, BatchDistribution};
    use crate::instance::InstanceType;
    use crate::latency::FnLatencyModel;
    use crate::query::StreamConfig;
    use crate::streaming::{StreamingSim, StreamingSimConfig};

    fn model() -> FnLatencyModel<impl Fn(InstanceType, u32) -> f64> {
        FnLatencyModel::new("mixed", |ty, b| {
            if ty == InstanceType::G4dn {
                0.004 + 4e-5 * b as f64
            } else {
                0.004 + 45e-5 * b as f64
            }
        })
    }

    fn stream(qps: f64, n: usize, seed: u64) -> Vec<Query> {
        StreamConfig {
            arrivals: ArrivalProcess::Poisson { qps },
            batches: BatchDistribution::default_heavy_tail(32.0, 256),
            num_queries: n,
            seed,
        }
        .generate()
    }

    fn member<'a>(
        pool: PoolSpec,
        profile: &'a dyn LatencyModel,
        share_weight: f64,
    ) -> FleetModelConfig<'a> {
        FleetModelConfig {
            pool,
            profile,
            target_latency_s: 0.020,
            tail_percentile: 99.0,
            window: WindowConfig::tumbling(1.0),
            share_weight,
            spin_up_factor: 1.0,
            variant_policy: None,
            tiers: None,
        }
    }

    #[test]
    fn merge_tagged_orders_by_arrival_with_model_tiebreak() {
        let a = vec![
            Query {
                id: 0,
                arrival: 0.5,
                batch_size: 1,
            },
            Query {
                id: 1,
                arrival: 2.0,
                batch_size: 1,
            },
        ];
        let b = vec![
            Query {
                id: 0,
                arrival: 0.5,
                batch_size: 2,
            },
            Query {
                id: 1,
                arrival: 1.0,
                batch_size: 2,
            },
        ];
        let merged = merge_tagged(&[a, b]);
        let tags: Vec<usize> = merged.iter().map(|t| t.model).collect();
        assert_eq!(tags, vec![0, 1, 1, 0], "tie at 0.5 breaks to model 0");
        for pair in merged.windows(2) {
            assert!(pair[0].query.arrival <= pair[1].query.arrival);
        }
    }

    #[test]
    fn single_model_fleet_is_bit_identical_to_a_streaming_sim() {
        let m = model();
        let pool = PoolSpec::new(
            vec![InstanceType::G4dn, InstanceType::C5, InstanceType::T3],
            vec![2, 3, 4],
        );
        let queries = stream(600.0, 3000, 7);
        let mut direct = StreamingSim::new(
            &pool,
            &m,
            StreamingSimConfig::new(0.020, 99.0, WindowConfig::tumbling(1.0)),
        );
        let mut direct_windows = Vec::new();
        for q in &queries {
            direct_windows.extend(direct.push(q));
        }
        direct_windows.extend(direct.finish_windows());

        let mut fleet = FleetSim::new(vec![member(pool.clone(), &m, 0.0)], None);
        let mut fleet_windows = Vec::new();
        for q in &queries {
            for (mi, w) in fleet.push(&TaggedQuery::new(0, *q)) {
                assert_eq!(mi, 0);
                fleet_windows.push(w);
            }
        }
        fleet_windows.extend(fleet.finish_windows().into_iter().map(|(_, w)| w));

        assert_eq!(
            fleet_windows, direct_windows,
            "windows must be bit-identical"
        );
        assert_eq!(fleet.stats(0), direct.stats());
        assert_eq!(fleet.cost_so_far(30.0), direct.cost_so_far(30.0));
        assert_eq!(
            fleet.windows[0].latencies(),
            direct.latencies(),
            "per-query latencies must be bit-identical"
        );
    }

    #[test]
    fn lane_memory_is_bounded_by_the_open_window() {
        // 200k queries through one lane with 1 s windows and recording off. The lane
        // keeps dispatch, billing, reconfiguration and variant state only; the model's
        // window accumulator is the one buffer, and it holds exactly the arrivals of
        // the open window [floor(t), t].
        let m = model();
        let queries = stream(2000.0, 200_000, 8);
        let lane_pool = PoolSpec::homogeneous(InstanceType::G4dn, 20);
        let mut fleet = FleetSim::new(vec![member(lane_pool, &m, 0.0)], None);
        fleet.set_record_per_query(false);
        let mut closed = Vec::new();
        let mut open_from = 0; // first query of the open window
        for (i, q) in queries.iter().enumerate() {
            fleet.push_into(&TaggedQuery::new(0, *q), &mut closed);
            while queries[open_from].arrival < q.arrival.floor() {
                open_from += 1;
            }
            assert_eq!(fleet.windows[0].buffered(), i + 1 - open_from, "query {i}");
        }
        assert!(closed.len() >= 99, "the stream spans ~100 windows");
        assert!(fleet.windows[0].latencies().is_empty());
        let lane = fleet.lane(0).unwrap();
        assert_eq!(lane.num_queries(), queries.len());
        assert_eq!(
            lane.per_slot_load().iter().sum::<u64>(),
            queries.len() as u64
        );
    }

    #[test]
    fn shared_slice_absorbs_overflow_and_improves_latency() {
        let m = model();
        // One saturated t3 lane; a shared g4dn gives headroom.
        let lane_pool = PoolSpec::homogeneous(InstanceType::T3, 1);
        let queries = stream(150.0, 2000, 3);

        let run = |shared: Option<PoolSpec>| {
            let mut fleet = FleetSim::new(vec![member(lane_pool.clone(), &m, 1.0)], shared);
            for q in &queries {
                fleet.push(&TaggedQuery::new(0, *q));
            }
            (fleet.stats(0), fleet.shared_queries(0))
        };

        let (alone, _) = run(None);
        let (pooled, shared_served) = run(Some(PoolSpec::homogeneous(InstanceType::G4dn, 1)));
        assert!(
            shared_served > 0,
            "overflow routing must use the shared slot"
        );
        assert!(
            pooled.mean_latency_s < alone.mean_latency_s / 2.0,
            "shared capacity must relieve the saturated lane ({} vs {})",
            pooled.mean_latency_s,
            alone.mean_latency_s
        );
    }

    #[test]
    fn zero_share_weight_never_routes_to_shared() {
        let m = model();
        let queries = stream(200.0, 800, 5);
        let mut fleet = FleetSim::new(
            vec![member(PoolSpec::homogeneous(InstanceType::T3, 1), &m, 0.0)],
            Some(PoolSpec::homogeneous(InstanceType::G4dn, 2)),
        );
        for q in &queries {
            fleet.push(&TaggedQuery::new(0, *q));
        }
        assert_eq!(fleet.shared_queries(0), 0);
        assert_eq!(fleet.shared().unwrap().per_slot_load(), &[0, 0]);
    }

    #[test]
    fn laneless_model_serves_entirely_from_the_shared_slice() {
        let m = model();
        let queries = stream(300.0, 1000, 9);
        let mut fleet = FleetSim::new(
            vec![member(
                PoolSpec::new(vec![InstanceType::G4dn], vec![0]),
                &m,
                1.0,
            )],
            Some(PoolSpec::homogeneous(InstanceType::G4dn, 2)),
        );
        for q in &queries {
            fleet.push(&TaggedQuery::new(0, *q));
        }
        assert_eq!(fleet.shared_queries(0), queries.len());
        let stats = fleet.stats(0);
        assert_eq!(stats.num_queries, queries.len());
    }

    #[test]
    fn two_models_keep_separate_windows_and_stats() {
        let fast = FnLatencyModel::new("fast", |_, _| 0.001);
        let slow = FnLatencyModel::new("slow", |_, _| 0.050);
        let qa = stream(200.0, 1000, 1);
        let qb = stream(100.0, 500, 2);
        let merged = merge_tagged(&[qa.clone(), qb.clone()]);
        let mut fleet = FleetSim::new(
            vec![
                member(PoolSpec::homogeneous(InstanceType::G4dn, 2), &fast, 0.0),
                member(PoolSpec::homogeneous(InstanceType::C5, 2), &slow, 0.0),
            ],
            None,
        );
        let mut windows: Vec<(usize, WindowStats)> = Vec::new();
        for tq in &merged {
            windows.extend(fleet.push(tq));
        }
        windows.extend(fleet.finish_windows());
        let a = fleet.stats(0);
        let b = fleet.stats(1);
        assert_eq!(a.num_queries, qa.len());
        assert_eq!(b.num_queries, qb.len());
        assert_eq!(a.satisfied, qa.len(), "1 ms queries all meet 20 ms");
        assert_eq!(b.satisfied, 0, "50 ms queries all miss 20 ms");
        let a_counted: usize = windows
            .iter()
            .filter(|(m, _)| *m == 0)
            .map(|(_, w)| w.num_queries)
            .sum();
        assert_eq!(a_counted, qa.len(), "model 0 windows cover its queries");
    }

    #[test]
    fn fleet_cost_sums_lanes_and_shared() {
        let m = model();
        let fleet = FleetSim::new(
            vec![
                member(PoolSpec::homogeneous(InstanceType::G4dn, 2), &m, 1.0),
                member(PoolSpec::homogeneous(InstanceType::C5, 1), &m, 1.0),
            ],
            Some(PoolSpec::homogeneous(InstanceType::T3, 3)),
        );
        let hourly = 2.0 * InstanceType::G4dn.hourly_price()
            + InstanceType::C5.hourly_price()
            + 3.0 * InstanceType::T3.hourly_price();
        assert!((fleet.current_hourly_cost() - hourly).abs() < 1e-12);
        assert!((fleet.cost_so_far(3600.0) - hourly).abs() < 1e-9);
    }

    #[test]
    fn reconfigure_model_touches_only_that_lane() {
        let m = model();
        let queries = stream(300.0, 1500, 4);
        let merged = merge_tagged(&[queries.clone(), queries.clone()]);
        let mut fleet = FleetSim::new(
            vec![
                member(PoolSpec::homogeneous(InstanceType::G4dn, 1), &m, 0.0),
                member(PoolSpec::homogeneous(InstanceType::G4dn, 1), &m, 0.0),
            ],
            None,
        );
        let mid = merged[merged.len() / 2].query.arrival;
        let mut done = false;
        for tq in &merged {
            if !done && tq.query.arrival >= mid {
                let ev = fleet.reconfigure_model(
                    0,
                    &PoolSpec::homogeneous(InstanceType::G4dn, 3),
                    tq.query.arrival,
                );
                assert_eq!(ev.launched, 2);
                done = true;
            }
            fleet.push(tq);
        }
        assert_eq!(fleet.lane(0).unwrap().current_pool().total_instances(), 3);
        assert_eq!(fleet.lane(1).unwrap().current_pool().total_instances(), 1);
        assert_eq!(fleet.lane(1).unwrap().reconfigurations().len(), 0);
    }

    #[test]
    #[should_panic(expected = "neither dedicated capacity nor shared access")]
    fn capacityless_model_is_rejected() {
        let m = model();
        let _ = FleetSim::new(
            vec![member(
                PoolSpec::new(vec![InstanceType::G4dn], vec![0]),
                &m,
                0.0,
            )],
            None,
        );
    }

    /// A two-variant profile with flat, batch-independent service times: the baseline
    /// at `slow` seconds, the degraded variant at `fast`.
    struct StepVariantModel {
        slow: f64,
        fast: f64,
    }
    impl LatencyModel for StepVariantModel {
        fn service_time(&self, _: InstanceType, _: u32) -> f64 {
            self.slow
        }
        fn service_time_variant(&self, variant: u32, _: InstanceType, _: u32) -> f64 {
            if variant == 0 {
                self.slow
            } else {
                self.fast
            }
        }
        fn num_variants(&self) -> u32 {
            2
        }
    }

    fn spaced_queries(spacings: &[(usize, f64)]) -> Vec<Query> {
        let mut queries = Vec::new();
        let mut t = 0.0;
        for &(n, gap) in spacings {
            for _ in 0..n {
                queries.push(Query {
                    id: queries.len() as u64,
                    arrival: t,
                    batch_size: 1,
                });
                t += gap;
            }
        }
        queries
    }

    #[test]
    fn single_variant_policy_is_bit_identical_to_no_policy() {
        let m = model();
        let pool = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::C5], vec![1, 2]);
        let queries = stream(500.0, 2000, 11);

        let mut plain = FleetSim::new(vec![member(pool.clone(), &m, 0.0)], None);
        let mut routed_cfg = member(pool, &m, 0.0);
        routed_cfg.variant_policy = Some(VariantPolicy::new(1));
        let mut routed = FleetSim::new(vec![routed_cfg], None);

        let (mut pw, mut rw) = (Vec::new(), Vec::new());
        for q in &queries {
            let tq = TaggedQuery::new(0, *q);
            plain.push_into(&tq, &mut pw);
            routed.push_into(&tq, &mut rw);
        }
        pw.extend(plain.finish_windows());
        rw.extend(routed.finish_windows());
        assert_eq!(pw, rw, "a one-variant palette must never change a dispatch");

        let ps = plain.stats(0);
        let rs = routed.stats(0);
        assert_eq!(ps.mean_latency_s.to_bits(), rs.mean_latency_s.to_bits());
        assert_eq!(ps.tail_latency_s.to_bits(), rs.tail_latency_s.to_bits());
        assert_eq!(routed.serving_variant(0), 0);
        assert_eq!(routed.variant_served(0), vec![queries.len() as u64]);
        assert!(routed.variant_switches(0).is_empty());
    }

    #[test]
    fn router_degrades_under_load_and_upgrades_back() {
        // Baseline service 10 ms vs a 20 ms QoS bound: a 5 ms arrival gap overloads the
        // single slot (queue grows without bound) until the router degrades to the 1 ms
        // variant; the closing 50 ms-gap phase leaves the lane idle so the rolling mean
        // falls below the upgrade threshold and the router steps back to the baseline.
        let m = StepVariantModel {
            slow: 0.010,
            fast: 0.001,
        };
        let mut cfg = member(PoolSpec::homogeneous(InstanceType::T3, 1), &m, 0.0);
        cfg.variant_policy = Some(VariantPolicy::new(2));
        let mut fleet = FleetSim::new(vec![cfg], None);

        let queries = spaced_queries(&[(400, 0.005), (200, 0.05)]);
        for q in &queries {
            fleet.push(&TaggedQuery::new(0, *q));
        }

        let switches = fleet.variant_switches(0);
        assert!(
            !switches.is_empty(),
            "the overload phase must trigger a degradation"
        );
        assert_eq!((switches[0].from, switches[0].to), (0, 1));
        for pair in switches.windows(2) {
            assert!(pair[0].at_s <= pair[1].at_s);
            assert_eq!(
                pair[1].from, pair[0].to,
                "switches step through the palette"
            );
        }
        let served = fleet.variant_served(0);
        assert!(
            served[0] > 0 && served[1] > 0,
            "both variants served: {served:?}"
        );
        assert_eq!(served.iter().sum::<u64>(), queries.len() as u64);
        assert_eq!(
            fleet.serving_variant(0),
            0,
            "the quiet tail must upgrade back to the accuracy-best baseline"
        );
    }

    #[test]
    #[should_panic(expected = "palette has 1")]
    fn policy_wider_than_the_palette_is_rejected() {
        let m = model();
        let mut cfg = member(PoolSpec::homogeneous(InstanceType::C5, 1), &m, 0.0);
        cfg.variant_policy = Some(VariantPolicy::new(2));
        let _ = FleetSim::new(vec![cfg], None);
    }

    #[test]
    fn shared_slice_completions_feed_the_variant_policy() {
        // Regression: the rolling variant window used to be fed by dedicated-lane
        // completions only, so a member served mostly through the shared slice never
        // accumulated evidence and never degraded. Here share_weight = 1 prefers the
        // shared slice on ties and arrivals are spaced far enough apart that both
        // sides are always idle — every query is served shared at 30 ms against a
        // 20 ms bound, the lane serves nothing, and the degradation must still fire.
        let m = StepVariantModel {
            slow: 0.030,
            fast: 0.001,
        };
        let mut cfg = member(PoolSpec::homogeneous(InstanceType::T3, 1), &m, 1.0);
        cfg.variant_policy = Some(VariantPolicy::new(2));
        let mut fleet = FleetSim::new(vec![cfg], Some(PoolSpec::homogeneous(InstanceType::T3, 1)));

        let queries = spaced_queries(&[(200, 0.04)]);
        for q in &queries {
            fleet.push(&TaggedQuery::new(0, *q));
        }

        assert_eq!(
            fleet.shared_queries(0),
            queries.len(),
            "ties must route every query through the shared slice"
        );
        let switches = fleet.variant_switches(0);
        assert!(
            !switches.is_empty(),
            "shared-slice completions must fill the policy window and degrade"
        );
        assert_eq!((switches[0].from, switches[0].to), (0, 1));
    }

    #[test]
    fn zero_variant_palette_is_a_typed_spec_error() {
        let err = VariantPolicy::try_new(0).unwrap_err();
        assert!(
            err.to_string().contains("at least one variant"),
            "the error names the problem: {err}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one variant")]
    fn zero_variant_palette_panics_in_the_infallible_constructor() {
        let _ = VariantPolicy::new(0);
    }
}
