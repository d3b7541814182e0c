//! The online serving runtime: a resumable, query-by-query simulator with windowed QoS
//! monitoring and mid-stream pool reconfiguration.
//!
//! [`crate::simulate`] answers "what would this pool have done with this whole stream" —
//! the right question for offline configuration search, the wrong one for a serving system
//! that must react *while queries keep arriving*. [`StreamingSim`] runs the same FCFS
//! dispatcher as [`crate::sim`] but is driven one query at a time, and adds what an
//! online runtime needs:
//!
//! * **windowed monitoring** — per-window [`WindowStats`] (satisfaction, mean, tail,
//!   throughput, cost-so-far) over a configurable sliding window, emitted as soon as the
//!   arrival clock proves a window complete;
//! * **reconfiguration** — [`StreamingSim::reconfigure`] retires instances (they drain
//!   their in-flight query, then never serve again, billed until drained) and launches new
//!   ones that only become available after a per-type spin-up delay
//!   ([`InstanceType::spin_up_s`]);
//! * **cost accounting** — every instance is billed for its own active span, so the
//!   accrued cost of a reconfigured stream (including the drain/spin-up overlap where both
//!   generations are billed) is exact, not `hourly_cost × duration`.
//!
//! A [`StreamingSim`] is a [`Lane`] (dispatch, billing, reconfiguration and the serving
//! variant) plus one model's window accounting; the fleet router composes the same two
//! parts.
//!
//! # Bit-identity with the batch simulator
//!
//! With **zero** reconfigurations, pushing a stream through [`StreamingSim`] is
//! bit-identical to [`crate::simulate`] / [`crate::simulate_stats`] on the same inputs:
//! both dispatch through the same slot queue with ranks equal to slot indices, and the
//! whole-stream counters accumulate in the same order. The differential suite in
//! `tests/online_serving.rs` enforces this.
//!
//! A reconfiguration re-ranks the slots to follow the new pool's type order (surviving
//! instances keep their relative order within a type, new instances queue behind them)
//! and rebuilds the queue — an O(N) step that only runs on the rare reconfiguration
//! event, never per query.

use crate::dispatch::{Dispatch, SlotQueue};
use crate::instance::{InstanceType, PoolSpec};
use crate::latency::LatencyModel;
use crate::query::Query;
use crate::sim::SimStats;
use crate::tier::{AdmissionClass, TierSet, TierTotals, TierWindowStats};
use crate::window::WindowAccumulator;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The monitoring window shape: statistics are emitted for windows
/// `[k·step_s, k·step_s + length_s)` for `k = 0, 1, 2, …` — tumbling when
/// `step_s == length_s`, overlapping (sliding) when `step_s < length_s`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowConfig {
    /// Window length in seconds.
    pub length_s: f64,
    /// Stride between consecutive window starts, in seconds (`0 < step_s ≤ length_s`).
    pub step_s: f64,
}

impl WindowConfig {
    /// A tumbling (non-overlapping) window of the given length.
    pub fn tumbling(length_s: f64) -> Self {
        WindowConfig {
            length_s,
            step_s: length_s,
        }
    }

    /// A sliding window: `length_s` long, emitted every `step_s` seconds.
    pub fn sliding(length_s: f64, step_s: f64) -> Self {
        WindowConfig { length_s, step_s }
    }

    /// Validating form of the invariants `validate` asserts — the spec-file path.
    pub fn try_validate(&self) -> Result<(), crate::error::ConfigError> {
        let length_ok = self.length_s.is_finite() && self.length_s > 0.0;
        if !length_ok {
            return Err(crate::error::ConfigError::new(
                "window length must be positive",
            ));
        }
        let step_ok = self.step_s > 0.0 && self.step_s <= self.length_s;
        if !step_ok {
            return Err(crate::error::ConfigError::new(format!(
                "window step must be in (0, length], got step {} for length {}",
                self.step_s, self.length_s
            )));
        }
        Ok(())
    }

    pub(crate) fn validate(&self) {
        self.try_validate().unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Per-window serving statistics — what an online controller watches.
///
/// Queries are attributed to a window by **arrival time**. An empty window reports `None`
/// for satisfaction/mean/tail: no queries means no QoS evidence (see
/// [`crate::sim::SimResult::satisfaction_rate`] for why `1.0` would be a bug), and
/// consumers must handle the empty case deliberately.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Window sequence number (0-based).
    pub index: u64,
    /// Window start time in seconds.
    pub start_s: f64,
    /// Window end time in seconds. The final window flushed by
    /// [`StreamingSim::finish_windows`] may extend past the last arrival.
    pub end_s: f64,
    /// Queries that arrived within the window.
    pub num_queries: usize,
    /// Of those, how many finished within the latency target.
    pub satisfied: usize,
    /// `satisfied / num_queries`, or `None` for an empty window.
    pub satisfaction_rate: Option<f64>,
    /// Mean end-to-end latency of the window's queries, or `None` for an empty window.
    pub mean_latency_s: Option<f64>,
    /// Nearest-rank tail latency of the window's queries at the configured percentile, or
    /// `None` for an empty window.
    pub tail_latency_s: Option<f64>,
    /// Offered load: arrivals per second over the window's *observed* span (the full
    /// window length for windows closed mid-stream; the span up to the last arrival for a
    /// partial final window flushed by [`StreamingSim::finish_windows`]).
    pub arrival_qps: f64,
    /// Served rate over the same observed span: of the window's arrivals, how many
    /// *completed* within the window, per second. Falls below `arrival_qps` when the pool
    /// is falling behind.
    pub throughput_qps: f64,
    /// Hourly cost of the pool configuration at window close.
    pub pool_hourly_cost: f64,
    /// Exact accrued cost in USD from stream start to `end_s` (clamped to the run's end
    /// for a partial final window), including drain/spin-up overlap billing of any
    /// reconfigurations.
    pub cost_so_far_usd: f64,
    /// Per-tier breakdown of the window, in tier-set order. Empty for untiered runs
    /// (the field never perturbs untiered comparisons or serialized output). Per-tier
    /// `num_queries` sum to the window's `num_queries`; admission drops are extra.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub tiers: Vec<TierWindowStats>,
}

impl WindowStats {
    /// `true` when no queries arrived in the window.
    pub fn is_empty(&self) -> bool {
        self.num_queries == 0
    }

    /// Whether the window's satisfaction meets `target_rate`; `None` for an empty window
    /// (no evidence either way — don't let silence look like health).
    pub fn meets_rate(&self, target_rate: f64) -> Option<bool> {
        self.satisfaction_rate.map(|r| r >= target_rate)
    }

    /// The window's aggregate statistics as policy-judgeable [`QosEvidence`](crate::metrics::QosEvidence).
    pub fn evidence(&self) -> crate::metrics::QosEvidence {
        crate::metrics::QosEvidence {
            num_queries: self.num_queries,
            satisfaction_rate: self.satisfaction_rate,
            mean_latency_s: self.mean_latency_s,
            tail_latency_s: self.tail_latency_s,
        }
    }

    /// Whether the window meets a [`crate::metrics::QosPolicy`]; `None` for an empty
    /// window (silence is evidence of nothing).
    pub fn meets_policy(&self, policy: &dyn crate::metrics::QosPolicy) -> Option<bool> {
        policy.is_met(&self.evidence())
    }
}

/// Outcome of one [`StreamingSim::reconfigure`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reconfiguration {
    /// When the reconfiguration was applied (clamped to the current stream clock).
    pub at_s: f64,
    /// The pool before the change.
    pub old_pool: PoolSpec,
    /// The pool after the change.
    pub new_pool: PoolSpec,
    /// Instances retired (they drain their in-flight query and never serve again).
    pub retired: usize,
    /// Instances launched (billed from `at_s`, serving from `ready_at_s` at the latest).
    pub launched: usize,
    /// When the last launched instance becomes available (`at_s` if none were launched).
    pub ready_at_s: f64,
}

/// Settings of a streaming simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingSimConfig {
    /// QoS latency target in seconds (for window satisfaction counts).
    pub target_latency_s: f64,
    /// Tail percentile reported per window and in the final stats (e.g. 99.0).
    pub tail_percentile: f64,
    /// Monitoring window shape.
    pub window: WindowConfig,
    /// Multiplier on [`InstanceType::spin_up_s`] for launched instances (`0.0` makes
    /// reconfigurations instantaneous, useful in tests).
    pub spin_up_factor: f64,
}

impl StreamingSimConfig {
    /// Standard config: per-type spin-up delays at face value.
    pub fn new(target_latency_s: f64, tail_percentile: f64, window: WindowConfig) -> Self {
        StreamingSimConfig {
            target_latency_s,
            tail_percentile,
            window,
            spin_up_factor: 1.0,
        }
    }
}

/// Outcome of one tiered push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierPush {
    /// The query was dispatched. `preempted` marks a premium dispatch that overtook
    /// queued best-effort work (the displaced backlog is delayed, never revised).
    Served {
        /// Whether this dispatch overtook queued best-effort work.
        preempted: bool,
    },
    /// A best-effort query dropped at admission: its queueing wait exceeded the
    /// tier's cap. Dropped queries advance the stream clock but are never served.
    Dropped,
}

impl TierPush {
    /// `true` unless the query was dropped at admission.
    pub fn served(&self) -> bool {
        matches!(self, TierPush::Served { .. })
    }
}

/// One slot's billing span, extracted by [`Lane::billing`]: everything needed to
/// re-evaluate [`Lane::cost_so_far`] after the run without the simulator.
///
/// `cost_from_billing` over the full record set is **bit-identical** to calling
/// `cost_so_far(t)` on the live simulator at any earlier stream time `t`: a slot
/// launched after `t` clamps to an empty span and contributes an exact `+0.0` at the
/// tail of the same left-to-right sum. The sharded fleet runner leans on this to
/// reconstruct mid-run window cost fields post-hoc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotBilling {
    /// Hourly price of the slot's instance type in USD.
    pub hourly_price: f64,
    /// Billing starts here (launch time; spin-up is billed).
    pub cost_from: f64,
    /// Billing ends here once retired and drained; `None` while active.
    pub cost_until: Option<f64>,
}

impl SlotBilling {
    /// The record of an instance of `ty` launched at `at`.
    fn launch(ty: InstanceType, at: f64) -> Self {
        SlotBilling {
            hourly_price: ty.hourly_price(),
            cost_from: at,
            cost_until: None,
        }
    }
}

/// Accrued cost in USD at time `t` from billing records, summed in slot order;
/// [`Lane::cost_so_far`] is this fold over the lane's own records.
pub fn cost_from_billing(slots: &[SlotBilling], t: f64) -> f64 {
    slots
        .iter()
        .map(|s| {
            let end = s.cost_until.unwrap_or(t).min(t);
            let span = (end - s.cost_from).max(0.0);
            s.hourly_price * span / 3600.0
        })
        .sum()
}

/// One reconfigurable pool serving one model: dispatch, per-slot billing,
/// reconfiguration and the serving variant. It keeps no window state; a
/// [`StreamingSim`] or a fleet member pairs it with its window accounting.
///
/// Slots are every instance ever launched, retired ones included, in launch order.
pub struct Lane<'a, M: LatencyModel + ?Sized> {
    model: &'a M,
    pool: PoolSpec,
    types: Vec<InstanceType>,
    bills: Vec<SlotBilling>,
    load: Vec<u64>,
    queue: SlotQueue,
    spin_up_factor: f64,
    /// Arrival of the last query dispatched or dropped here.
    clock: f64,
    // Variant serving: which palette index of `model` times new dispatches, plus how
    // many queries each variant served. Index 0 (the accuracy-best baseline) keeps the
    // timing math bit-identical to the variant-less simulator.
    serving_variant: u32,
    variant_served: Vec<u64>,
    reconfigurations: Vec<Reconfiguration>,
}

impl<'a, M: LatencyModel + ?Sized> Lane<'a, M> {
    /// A lane serving `pool` under `model`.
    ///
    /// # Panics
    /// Panics if the pool is empty.
    pub(crate) fn new(pool: &PoolSpec, model: &'a M, spin_up_factor: f64) -> Self {
        let types = crate::sim::serving_instances(pool);
        let n = types.len();
        Lane {
            model,
            pool: pool.clone(),
            bills: types
                .iter()
                .map(|ty| SlotBilling::launch(*ty, 0.0))
                .collect(),
            types,
            load: vec![0; n],
            queue: SlotQueue::new(n),
            spin_up_factor,
            clock: 0.0,
            serving_variant: 0,
            variant_served: vec![0; model.num_variants().max(1) as usize],
            reconfigurations: Vec::new(),
        }
    }

    /// Switches dispatch to tiered mode (firm clocks for premium overtaking).
    pub(crate) fn enable_tiers(&mut self) {
        self.queue.enable_firm();
    }

    /// Arrival time of the last query dispatched (or dropped) on this lane.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Queries this lane served.
    pub fn num_queries(&self) -> usize {
        self.variant_served.iter().sum::<u64>() as usize
    }

    /// The current pool configuration.
    pub fn current_pool(&self) -> &PoolSpec {
        &self.pool
    }

    /// Reconfigurations applied so far, in order.
    pub fn reconfigurations(&self) -> &[Reconfiguration] {
        &self.reconfigurations
    }

    /// Queries served per slot, over every slot ever launched (including retired ones).
    pub fn per_slot_load(&self) -> Vec<u64> {
        self.load.clone()
    }

    /// The palette index of the variant currently timing new dispatches.
    pub fn serving_variant(&self) -> u32 {
        self.serving_variant
    }

    /// Switches the serving variant for every *subsequent* dispatch (in-flight queries
    /// keep the timing they were dispatched with). Index 0 is the accuracy-best
    /// baseline; while it is selected the simulation is bit-identical to a variant-less
    /// run.
    ///
    /// # Panics
    /// Panics when `variant` is outside the model's palette.
    pub fn set_serving_variant(&mut self, variant: u32) {
        assert!(
            variant < self.model.num_variants().max(1),
            "variant {variant} is outside the model's palette of {}",
            self.model.num_variants()
        );
        self.serving_variant = variant;
    }

    /// Queries served per variant palette index, over the whole stream so far.
    pub fn variant_served(&self) -> &[u64] {
        &self.variant_served
    }

    /// Earliest time at or after `at` when some instance could start a query of `class`
    /// (premium waits only on the firm clocks). Spin-up delays are respected.
    pub(crate) fn next_available_at(&self, at: f64, class: AdmissionClass) -> f64 {
        self.queue.next_available_at(at, class)
    }

    /// Dispatches one query of `class` (see [`SlotQueue`]); `None` when it is dropped
    /// at admission. Either way the lane clock advances to its arrival.
    pub(crate) fn dispatch(
        &mut self,
        q: &Query,
        class: AdmissionClass,
        cap: Option<f64>,
    ) -> Option<Dispatch> {
        let (model, types, variant) = (self.model, &self.types, self.serving_variant);
        // Variant 0 takes the plain entry point so a variant-less run never depends on
        // a model's `service_time_variant` override being baseline-exact at index 0.
        let served = self.queue.dispatch(q.arrival, class, cap, |slot| {
            if variant == 0 {
                model.service_time(types[slot], q.batch_size).max(0.0)
            } else {
                model
                    .service_time_variant(variant, types[slot], q.batch_size)
                    .max(0.0)
            }
        });
        self.clock = q.arrival;
        if let Some(d) = &served {
            self.load[d.slot] += 1;
            self.variant_served[variant as usize] += 1;
        }
        served
    }

    /// Replaces the serving pool mid-stream.
    ///
    /// Effective at `max(at_s, clock)`. Instances of each type beyond the new count are
    /// **retired**: they finish their in-flight query (draining), never serve another, and
    /// are billed until drained. Missing instances are **launched**: billed from the
    /// reconfiguration instant but only available after their type's spin-up delay scaled
    /// by [`StreamingSimConfig::spin_up_factor`]. Surviving instances keep their queue
    /// state; dispatch-preference ranks are reassigned to follow `new_pool`'s type order.
    ///
    /// # Panics
    /// Panics if `new_pool` has no instances.
    pub fn reconfigure(&mut self, new_pool: &PoolSpec, at_s: f64) -> Reconfiguration {
        assert!(
            new_pool.total_instances() > 0,
            "cannot reconfigure to an empty pool ({})",
            new_pool.describe()
        );
        let at = at_s.max(self.clock);
        let old_pool = std::mem::replace(&mut self.pool, new_pool.clone());
        let launched_before = self.types.len();

        // Active slots per type, in current rank order (deterministic survivor choice:
        // the highest-preference instances of a type survive, the tail retires).
        let mut active_by_type: BTreeMap<InstanceType, Vec<usize>> = BTreeMap::new();
        for &i in self.queue.ranked() {
            active_by_type.entry(self.types[i]).or_default().push(i);
        }
        let mut order: Vec<usize> = Vec::with_capacity(new_pool.total_instances() as usize);
        let mut retiring: Vec<usize> = Vec::new();
        for (&ty, &count) in new_pool.types.iter().zip(&new_pool.counts) {
            let avail = active_by_type.remove(&ty).unwrap_or_default();
            let keep = avail.len().min(count as usize);
            order.extend_from_slice(&avail[..keep]);
            retiring.extend_from_slice(&avail[keep..]);
            for _ in keep..count as usize {
                order.push(self.types.len());
                self.types.push(ty);
                self.bills.push(SlotBilling::launch(ty, at));
                self.load.push(0);
            }
        }
        // Types absent from the new pool retire entirely.
        retiring.extend(active_by_type.into_values().flatten());
        for &i in &retiring {
            // Busy slots bill until their in-flight query drains; idle ones stop now.
            self.bills[i].cost_until = Some(self.queue.clock(i).max(at));
        }
        let (types, factor) = (&self.types, self.spin_up_factor);
        let ready = |i: usize| at + types[i].spin_up_s() * factor;
        self.queue.reorder(&order, ready);

        let event = Reconfiguration {
            at_s: at,
            old_pool,
            new_pool: new_pool.clone(),
            retired: retiring.len(),
            launched: self.types.len() - launched_before,
            ready_at_s: (launched_before..self.types.len())
                .map(ready)
                .fold(at, f64::max),
        };
        self.reconfigurations.push(event.clone());
        event
    }

    /// Exact accrued cost in USD from stream start to time `t`, summing every slot's own
    /// active span (launch → retirement drain). During a transition both the draining old
    /// instances and the spinning-up new ones are billed — the real price of a
    /// reconfiguration.
    pub fn cost_so_far(&self, t: f64) -> f64 {
        cost_from_billing(&self.bills, t)
    }

    /// Billing record of every slot ever launched, in slot order. See [`SlotBilling`]
    /// for the post-hoc cost-reconstruction contract.
    pub fn billing(&self) -> Vec<SlotBilling> {
        self.bills.clone()
    }
}

/// The resumable streaming simulator: one [`Lane`] plus its window accounting. See the
/// module docs for semantics.
pub struct StreamingSim<'a, M: LatencyModel + ?Sized> {
    lane: Lane<'a, M>,
    windows: WindowAccumulator,
    /// Which slot served each query, while per-query recording is on.
    assigned: Vec<usize>,
}

impl<'a, M: LatencyModel + ?Sized> StreamingSim<'a, M> {
    /// Creates a streaming simulation of `pool` under `model`.
    ///
    /// # Panics
    /// Panics if the pool is empty or the window config is invalid.
    pub fn new(pool: &PoolSpec, model: &'a M, config: StreamingSimConfig) -> Self {
        config.window.validate();
        StreamingSim {
            lane: Lane::new(pool, model, config.spin_up_factor),
            windows: WindowAccumulator::new(
                config.target_latency_s,
                config.tail_percentile,
                config.window,
            ),
            assigned: Vec::new(),
        }
    }

    /// Switches the simulator into tiered mode. Must be called before the first push;
    /// from then on queries are pushed with [`StreamingSim::push_tiered_into`] and
    /// every closed window carries a per-tier breakdown. A set consisting of a single
    /// plain standard tier serves bit-identically to the untiered simulator.
    ///
    /// # Panics
    /// Panics if queries were already pushed.
    pub fn enable_tiers(&mut self, set: TierSet) {
        self.windows.enable_tiers(set);
        self.lane.enable_tiers();
    }

    /// The tier set, when tiered mode is enabled.
    pub fn tier_set(&self) -> Option<&TierSet> {
        self.windows.tier_set()
    }

    /// Whole-stream per-tier totals, in tier-set order; empty when untiered.
    pub fn tier_totals(&self) -> &[TierTotals] {
        self.windows.tier_totals()
    }

    /// Toggles per-query recording (the O(stream) `latencies`/`assigned` vectors).
    ///
    /// With recording off the simulator's memory is bounded by the arrivals of its open
    /// windows: counters (`num_queries`, `satisfied`, `latency_sum`, `makespan`) and
    /// every window statistic stay exact, but [`StreamingSim::latencies`] /
    /// [`StreamingSim::assigned_slots`] stay empty and [`StreamingSim::stats`] reports a
    /// `0.0` whole-stream tail (no samples to rank). Intended for the
    /// multi-million-query scale runs.
    pub fn set_record_per_query(&mut self, record: bool) {
        self.windows.record_per_query = record;
    }

    /// The stream clock: arrival time of the last pushed query.
    pub fn clock(&self) -> f64 {
        self.lane.clock()
    }

    /// The palette index of the variant currently timing new dispatches.
    pub fn serving_variant(&self) -> u32 {
        self.lane.serving_variant()
    }

    /// See [`Lane::set_serving_variant`].
    pub fn set_serving_variant(&mut self, variant: u32) {
        self.lane.set_serving_variant(variant);
    }

    /// Queries served per variant palette index, over the whole stream so far.
    pub fn variant_served(&self) -> &[u64] {
        self.lane.variant_served()
    }

    /// The current pool configuration.
    pub fn current_pool(&self) -> &PoolSpec {
        self.lane.current_pool()
    }

    /// Reconfigurations applied so far, in order.
    pub fn reconfigurations(&self) -> &[Reconfiguration] {
        self.lane.reconfigurations()
    }

    /// Per-query latencies in arrival order (identical to
    /// [`crate::SimResult::latencies`] while no reconfiguration has occurred).
    pub fn latencies(&self) -> &[f64] {
        self.windows.latencies()
    }

    /// Queries served so far. Unlike `latencies().len()` this counter stays exact when
    /// per-query recording is off.
    pub fn num_queries(&self) -> usize {
        self.windows.num_queries()
    }

    /// Which slot served each query, in arrival order (slot indices coincide with
    /// `pool.expand()` indices until the first reconfiguration).
    pub fn assigned_slots(&self) -> &[usize] {
        &self.assigned
    }

    /// Queries served per slot, over every slot ever launched (including retired ones).
    pub fn per_slot_load(&self) -> Vec<u64> {
        self.lane.per_slot_load()
    }

    /// Completion time of the last-finishing query so far.
    pub fn makespan(&self) -> f64 {
        self.windows.makespan()
    }

    /// Advances the simulation by one query and returns every monitoring window the new
    /// arrival clock proved complete (usually none, one when the clock crosses a window
    /// boundary).
    ///
    /// Queries must be pushed in non-decreasing arrival order (debug-asserted), exactly as
    /// the batch simulator requires of its input slice.
    pub fn push(&mut self, q: &Query) -> Vec<WindowStats> {
        let mut closed = Vec::new();
        self.push_into(q, &mut closed);
        closed
    }

    /// Non-allocating form of [`StreamingSim::push`]: closed windows are appended to
    /// `closed` (which the caller typically `drain`s and reuses), keeping the hot path
    /// free of per-query heap allocation.
    pub fn push_into(&mut self, q: &Query, closed: &mut Vec<WindowStats>) {
        self.push_as(q, 0, AdmissionClass::Standard, None, closed);
    }

    /// Advances a **tiered** simulation by one query of the given tier (see
    /// [`StreamingSim::enable_tiers`]); closed windows are appended to `closed`.
    ///
    /// Dispatch follows the tier's [`AdmissionClass`] (see the tier module docs): standard
    /// replicates the untiered FCFS rule float-for-float; premium may overtake queued
    /// best-effort work; best-effort is dropped at admission when its queueing wait
    /// would exceed the tier's cap. A dropped query advances the stream clock but is not
    /// served (it appears in drop counts, never in `num_queries`).
    ///
    /// # Panics
    /// Panics when tiers are not enabled or `tier` is outside the set.
    pub fn push_tiered_into(
        &mut self,
        q: &Query,
        tier: u32,
        closed: &mut Vec<WindowStats>,
    ) -> TierPush {
        assert!(
            self.windows.tier_set().is_some(),
            "push_tiered_into requires enable_tiers"
        );
        let (class, cap) = self.windows.class_of(tier);
        self.push_as(q, tier, class, cap, closed)
    }

    fn push_as(
        &mut self,
        q: &Query,
        tier: u32,
        class: AdmissionClass,
        cap: Option<f64>,
        closed: &mut Vec<WindowStats>,
    ) -> TierPush {
        debug_assert!(
            q.arrival >= self.lane.clock(),
            "queries must be pushed in arrival order"
        );
        // Close every window that ends at or before this arrival: no earlier arrival can
        // come later, so those windows are complete.
        let lane = &self.lane;
        self.windows.close_until(
            q.arrival,
            || lane.current_pool().hourly_cost(),
            |t| lane.cost_so_far(t),
            |w| closed.push(w),
        );
        let Some(d) = self.lane.dispatch(q, class, cap) else {
            self.windows.record_drop(tier, q.arrival);
            return TierPush::Dropped;
        };
        self.windows
            .record(q.arrival, d.completion, tier, d.preempted);
        if self.windows.record_per_query {
            self.assigned.push(d.slot);
        }
        TierPush::Served {
            preempted: d.preempted,
        }
    }

    /// See [`Lane::reconfigure`].
    pub fn reconfigure(&mut self, new_pool: &PoolSpec, at_s: f64) -> Reconfiguration {
        self.lane.reconfigure(new_pool, at_s)
    }

    /// See [`Lane::cost_so_far`].
    pub fn cost_so_far(&self, t: f64) -> f64 {
        self.lane.cost_so_far(t)
    }

    /// See [`Lane::billing`].
    pub fn billing(&self) -> Vec<SlotBilling> {
        self.lane.billing()
    }

    /// Closes and returns every remaining window with arrivals (the last may be partial:
    /// its `end_s` can extend past the final arrival). Call once after the stream ends.
    pub fn finish_windows(&mut self) -> Vec<WindowStats> {
        let mut out = Vec::new();
        let (lane, makespan) = (&self.lane, self.windows.makespan());
        self.windows.finish(
            lane.clock(),
            makespan,
            || lane.current_pool().hourly_cost(),
            |t| lane.cost_so_far(t),
            |w| out.push(w),
        );
        out
    }

    /// Whole-stream aggregate statistics — bit-identical to
    /// [`crate::simulate_stats`] on the same inputs while no reconfiguration has occurred
    /// (same accumulation order, same selection algorithm for the tail).
    pub fn stats(&self) -> SimStats {
        self.windows.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ArrivalProcess, BatchDistribution};
    use crate::latency::FnLatencyModel;
    use crate::query::StreamConfig;
    use crate::sim::{simulate, simulate_stats};

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

    fn cfg(window_s: f64) -> StreamingSimConfig {
        StreamingSimConfig::new(0.020, 99.0, WindowConfig::tumbling(window_s))
    }

    #[test]
    fn zero_reconfig_streaming_is_bit_identical_to_batch() {
        let pool = PoolSpec::new(
            vec![InstanceType::G4dn, InstanceType::C5, InstanceType::T3],
            vec![2, 3, 4],
        );
        let m = model();
        for seed in [1u64, 7, 42] {
            let queries = stream(600.0, 3000, seed);
            let mut s = StreamingSim::new(&pool, &m, cfg(1.0));
            for q in &queries {
                s.push(q);
            }
            let full = simulate(&pool, &queries, &m);
            assert_eq!(s.latencies(), full.latencies.as_slice(), "seed {seed}");
            assert_eq!(s.assigned_slots(), full.assigned_instance.as_slice());
            assert_eq!(s.per_slot_load(), full.per_instance_load);
            assert_eq!(s.makespan(), full.makespan);
            let stats = s.stats();
            let batch_stats = simulate_stats(&pool, &queries, &m, 0.020, 99.0);
            assert_eq!(stats, batch_stats, "seed {seed}");
        }
    }

    #[test]
    fn tumbling_windows_partition_the_stream() {
        let pool = PoolSpec::homogeneous(InstanceType::G4dn, 3);
        let m = model();
        let queries = stream(500.0, 4000, 9);
        let mut s = StreamingSim::new(&pool, &m, cfg(0.5));
        let mut windows: Vec<WindowStats> = Vec::new();
        for q in &queries {
            windows.extend(s.push(q));
        }
        windows.extend(s.finish_windows());
        let total: usize = windows.iter().map(|w| w.num_queries).sum();
        assert_eq!(total, queries.len(), "tumbling windows cover every query");
        let sat: usize = windows.iter().map(|w| w.satisfied).sum();
        assert_eq!(sat, s.stats().satisfied);
        // Window indices are consecutive from zero.
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
            assert!((w.end_s - w.start_s - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_windows_report_no_evidence() {
        let pool = PoolSpec::homogeneous(InstanceType::G4dn, 1);
        let m = model();
        let mut s = StreamingSim::new(&pool, &m, cfg(1.0));
        // Arrivals at 0.5 and 5.5: windows 1..=4 are empty.
        let q0 = Query {
            id: 0,
            arrival: 0.5,
            batch_size: 8,
        };
        let q1 = Query {
            id: 1,
            arrival: 5.5,
            batch_size: 8,
        };
        s.push(&q0);
        let closed = s.push(&q1);
        assert_eq!(closed.len(), 5, "windows [0,1) .. [4,5) close at t=5.5");
        assert_eq!(closed[0].num_queries, 1);
        for w in &closed[1..] {
            assert!(w.is_empty());
            assert_eq!(w.satisfaction_rate, None);
            assert_eq!(w.mean_latency_s, None);
            assert_eq!(w.tail_latency_s, None);
            assert_eq!(w.meets_rate(0.99), None, "silence must not look healthy");
        }
    }

    #[test]
    fn sliding_windows_overlap() {
        let pool = PoolSpec::homogeneous(InstanceType::G4dn, 2);
        let m = model();
        let queries = stream(200.0, 1000, 3);
        let mut s = StreamingSim::new(
            &pool,
            &m,
            StreamingSimConfig::new(0.020, 99.0, WindowConfig::sliding(1.0, 0.25)),
        );
        let mut windows = Vec::new();
        for q in &queries {
            windows.extend(s.push(q));
        }
        windows.extend(s.finish_windows());
        // Overlapping windows each count ~1 s of a ~200 qps stream; with 4x overlap the
        // sum of counts is ~4x the stream length.
        let total: usize = windows.iter().map(|w| w.num_queries).sum();
        assert!(
            total > 3 * queries.len(),
            "sliding windows must overlap (sum {total} vs {})",
            queries.len()
        );
        for w in windows.windows(2) {
            assert!((w[1].start_s - w[0].start_s - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn reconfigure_scale_up_adds_capacity_and_restores_latency() {
        // One g4dn saturates under this load; adding two more clears the queue.
        let pool = PoolSpec::homogeneous(InstanceType::G4dn, 1);
        let m = model();
        let queries = stream(220.0, 4000, 5);
        let mid = queries[queries.len() / 2].arrival;
        let mut s = StreamingSim::new(&pool, &m, cfg(1.0));
        let bigger = PoolSpec::homogeneous(InstanceType::G4dn, 3);
        let mut reconfigured = false;
        for q in &queries {
            if !reconfigured && q.arrival >= mid {
                let ev = s.reconfigure(&bigger, q.arrival);
                assert_eq!(ev.launched, 2);
                assert_eq!(ev.retired, 0);
                assert!(ev.ready_at_s > ev.at_s, "spin-up delays availability");
                reconfigured = true;
            }
            s.push(q);
        }
        assert_eq!(s.reconfigurations().len(), 1);
        assert_eq!(s.current_pool().total_instances(), 3);
        // Mean latency over the post-spin-up tail is far below the saturated first half.
        let ready = s.reconfigurations()[0].ready_at_s;
        let half: Vec<f64> = queries
            .iter()
            .zip(s.latencies())
            .filter(|(q, _)| q.arrival < mid)
            .map(|(_, &l)| l)
            .collect();
        let tail: Vec<f64> = queries
            .iter()
            .zip(s.latencies())
            .filter(|(q, _)| q.arrival > ready + 1.0)
            .map(|(_, &l)| l)
            .collect();
        assert!(!tail.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&tail) < mean(&half) / 2.0,
            "post-reconfig mean {} vs saturated {}",
            mean(&tail),
            mean(&half)
        );
    }

    #[test]
    fn retired_instances_drain_but_never_serve_again() {
        let pool = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![1, 2]);
        let m = model();
        let queries = stream(150.0, 2000, 11);
        let mid = queries[queries.len() / 2].arrival;
        let mut s = StreamingSim::new(&pool, &m, cfg(1.0));
        let smaller = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![1, 0]);
        let mut cut_at = None;
        let mut served_after_cut = 0u64;
        for (i, q) in queries.iter().enumerate() {
            if cut_at.is_none() && q.arrival >= mid {
                let ev = s.reconfigure(&smaller, q.arrival);
                assert_eq!(ev.retired, 2);
                assert_eq!(ev.launched, 0);
                cut_at = Some(i);
            }
            s.push(q);
            if let Some(c) = cut_at {
                if i >= c && s.assigned_slots()[i] != 0 {
                    served_after_cut += 1;
                }
            }
        }
        assert_eq!(
            served_after_cut, 0,
            "retired t3 slots must not serve post-retirement queries"
        );
        assert_eq!(s.current_pool().describe(), "1xg4dn");
    }

    #[test]
    fn partial_final_window_reports_rates_over_the_observed_span() {
        let pool = PoolSpec::homogeneous(InstanceType::G4dn, 2);
        let m = FnLatencyModel::new("const", |_, _| 0.001);
        // 10 qps deterministic arrivals, 4 s windows: the stream ends 1 s into window 1.
        let mut s = StreamingSim::new(
            &pool,
            &m,
            StreamingSimConfig::new(0.020, 99.0, WindowConfig::tumbling(4.0)),
        );
        let mut windows = Vec::new();
        for i in 0..50u64 {
            let q = Query {
                id: i,
                arrival: 0.1 + i as f64 * 0.1,
                batch_size: 8,
            };
            windows.extend(s.push(&q));
        }
        windows.extend(s.finish_windows());
        assert_eq!(windows.len(), 2);
        // Window 0 closed mid-stream: full-length span.
        assert!((windows[0].arrival_qps - 10.0).abs() < 0.26, "{windows:?}");
        // Window 1 is partial ([4, 8) but arrivals stop at 5.0): dividing by the full
        // 4 s length would report ~2.75 qps — a fake load drop. Over the observed 1 s
        // span the rate stays ~10 (11 with the fencepost arrival at exactly 5.0).
        assert!(
            (windows[1].arrival_qps - 10.0).abs() <= 1.5,
            "partial window must use its observed span: {:?}",
            windows[1]
        );
    }

    #[test]
    fn cost_accounting_matches_hourly_cost_without_reconfiguration() {
        let pool = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![2, 1]);
        let m = model();
        let s = StreamingSim::new(&pool, &m, cfg(1.0));
        let expected = pool.hourly_cost() * 7200.0 / 3600.0;
        assert!((s.cost_so_far(7200.0) - expected).abs() < 1e-9);
        assert_eq!(s.cost_so_far(0.0), 0.0);
    }

    #[test]
    fn transition_bills_drain_and_spin_up_overlap() {
        // Retire an idle t3 and launch a g4dn at t=100: the t3 bills 100 s, the g4dn
        // bills from t=100 onward (including its spin-up).
        let pool = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![1, 1]);
        let m = model();
        let mut s = StreamingSim::new(&pool, &m, cfg(1.0));
        let new_pool = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![2, 0]);
        let ev = s.reconfigure(&new_pool, 100.0);
        assert_eq!((ev.retired, ev.launched), (1, 1));
        let g = InstanceType::G4dn.hourly_price();
        let t = InstanceType::T3.hourly_price();
        // At t=200: first g4dn billed 200 s, t3 billed 100 s, new g4dn billed 100 s.
        let expected = (g * 200.0 + t * 100.0 + g * 100.0) / 3600.0;
        assert!(
            (s.cost_so_far(200.0) - expected).abs() < 1e-9,
            "cost {} vs expected {expected}",
            s.cost_so_far(200.0)
        );
    }

    #[test]
    fn spun_up_instance_is_unavailable_until_ready() {
        // A single slow t3 plus a reconfiguration that adds a g4dn with a long spin-up:
        // queries arriving before readiness must still be served by the t3.
        let pool = PoolSpec::homogeneous(InstanceType::T3, 1);
        let m = FnLatencyModel::new("const", |_, _| 0.001);
        let mut config = cfg(10.0);
        config.spin_up_factor = 1.0; // g4dn: 4 s
        let mut s = StreamingSim::new(&pool, &m, config);
        let q0 = Query {
            id: 0,
            arrival: 0.0,
            batch_size: 8,
        };
        s.push(&q0);
        s.reconfigure(
            &PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![1, 1]),
            1.0,
        );
        // Arrives at t=2 < ready(5.0): only the t3 is available.
        let q1 = Query {
            id: 1,
            arrival: 2.0,
            batch_size: 8,
        };
        s.push(&q1);
        assert_eq!(s.assigned_slots()[1], 0, "t3 serves while g4dn spins up");
        // Arrives at t=6 > ready: the g4dn now has dispatch preference (rank 0).
        let q2 = Query {
            id: 2,
            arrival: 6.0,
            batch_size: 8,
        };
        s.push(&q2);
        assert_eq!(s.assigned_slots()[2], 1, "ready g4dn takes preference");
    }

    #[test]
    fn recording_off_keeps_counters_and_windows_exact() {
        let pool = PoolSpec::homogeneous(InstanceType::G4dn, 3);
        let m = model();
        let queries = stream(400.0, 3000, 21);
        let mut full = StreamingSim::new(&pool, &m, cfg(1.0));
        let mut lean = StreamingSim::new(&pool, &m, cfg(1.0));
        lean.set_record_per_query(false);
        let mut wf = Vec::new();
        let mut wl = Vec::new();
        for q in &queries {
            full.push_into(q, &mut wf);
            lean.push_into(q, &mut wl);
        }
        wf.extend(full.finish_windows());
        wl.extend(lean.finish_windows());
        assert_eq!(wf, wl, "window stats never depend on per-query recording");
        assert!(lean.latencies().is_empty());
        let (fs, ls) = (full.stats(), lean.stats());
        assert_eq!(fs.num_queries, ls.num_queries);
        assert_eq!(fs.satisfied, ls.satisfied);
        assert_eq!(fs.mean_latency_s, ls.mean_latency_s);
        assert_eq!(fs.makespan, ls.makespan);
        assert_eq!(
            ls.tail_latency_s, 0.0,
            "no samples to rank without recording"
        );
    }

    #[test]
    fn billing_records_replicate_cost_so_far_bit_exactly() {
        let pool = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![1, 2]);
        let m = model();
        let queries = stream(150.0, 2000, 17);
        let mid = queries[queries.len() / 2].arrival;
        let mut s = StreamingSim::new(&pool, &m, cfg(1.0));
        let mut reconfigured = false;
        // Mid-run samples, taken while the slot vector is still growing.
        let mut samples: Vec<(f64, f64)> = Vec::new();
        for q in &queries {
            if !reconfigured && q.arrival >= mid {
                s.reconfigure(
                    &PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![2, 0]),
                    q.arrival,
                );
                reconfigured = true;
            }
            samples.push((q.arrival, s.cost_so_far(q.arrival)));
            s.push(q);
        }
        // The post-hoc fold over the *final* records must replicate every mid-run
        // sample bit for bit: slots launched after a sample's instant clamp to an
        // exact +0.0 tail term.
        let records = s.billing();
        for (t, sampled) in samples {
            assert_eq!(
                sampled.to_bits(),
                cost_from_billing(&records, t).to_bits(),
                "post-hoc billing must replicate the mid-run sample at t={t}"
            );
        }
    }

    struct VariantModel;
    impl LatencyModel for VariantModel {
        fn service_time(&self, _: InstanceType, b: u32) -> f64 {
            0.004 + 45e-5 * b as f64
        }
        fn service_time_variant(&self, variant: u32, ty: InstanceType, b: u32) -> f64 {
            let f = if variant == 1 { 0.5 } else { 1.0 };
            self.service_time(ty, b) * f
        }
        fn num_variants(&self) -> u32 {
            2
        }
    }

    #[test]
    fn serving_variant_times_subsequent_dispatches_and_counts_queries() {
        let pool = PoolSpec::homogeneous(InstanceType::T3, 2);
        let queries = stream(100.0, 1000, 19);
        let mid = queries.len() / 2;

        // Staying at variant 0 is bit-identical to a model without variants.
        let plain = FnLatencyModel::new("plain", |_, b| 0.004 + 45e-5 * b as f64);
        let mut base = StreamingSim::new(&pool, &plain, cfg(1.0));
        let vm = VariantModel;
        let mut same = StreamingSim::new(&pool, &vm, cfg(1.0));
        for q in &queries {
            base.push(q);
            same.push(q);
        }
        assert_eq!(base.latencies(), same.latencies());
        assert_eq!(same.variant_served(), &[queries.len() as u64, 0]);

        // Degrading mid-stream speeds up every subsequent dispatch and splits counts.
        let mut degraded = StreamingSim::new(&pool, &vm, cfg(1.0));
        for (i, q) in queries.iter().enumerate() {
            if i == mid {
                degraded.set_serving_variant(1);
            }
            degraded.push(q);
        }
        assert_eq!(degraded.serving_variant(), 1);
        assert_eq!(
            degraded.variant_served(),
            &[mid as u64, (queries.len() - mid) as u64]
        );
        // The first half is untouched; the degraded half is never slower.
        assert_eq!(&degraded.latencies()[..mid], &base.latencies()[..mid]);
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        assert!(sum(&degraded.latencies()[mid..]) < sum(&base.latencies()[mid..]));
    }

    #[test]
    #[should_panic(expected = "outside the model's palette")]
    fn out_of_palette_variant_is_rejected() {
        let pool = PoolSpec::homogeneous(InstanceType::T3, 1);
        let m = model();
        let mut s = StreamingSim::new(&pool, &m, cfg(1.0));
        s.set_serving_variant(1);
    }

    #[test]
    #[should_panic(expected = "empty pool")]
    fn reconfiguring_to_an_empty_pool_panics() {
        let pool = PoolSpec::homogeneous(InstanceType::T3, 1);
        let m = model();
        let mut s = StreamingSim::new(&pool, &m, cfg(1.0));
        let _ = s.reconfigure(&PoolSpec::new(vec![InstanceType::T3], vec![0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "window step must be in")]
    fn invalid_window_step_is_rejected() {
        let pool = PoolSpec::homogeneous(InstanceType::T3, 1);
        let m = model();
        let _ = StreamingSim::new(
            &pool,
            &m,
            StreamingSimConfig::new(0.02, 99.0, WindowConfig::sliding(1.0, 2.0)),
        );
    }
}
