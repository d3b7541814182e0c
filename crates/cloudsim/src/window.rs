//! Window accounting shared by every serving path: the per-model monitoring windows,
//! the per-tier ledger and the whole-stream counters.

use crate::sim::SimStats;
use crate::streaming::{WindowConfig, WindowStats};
use crate::tier::{AdmissionClass, TierSet, TierTotals, TierWindowStats};
use ribbon_linalg::stats::percentile_in_place;
use std::collections::VecDeque;

/// Tag bits above the tier index of a buffered entry: a premium dispatch that overtook
/// queued best-effort work, or an admission drop (which has no completion or latency).
const PREEMPTED: u32 = 1 << 31;
const DROPPED: u32 = 1 << 30;

/// One tier's row of the window being closed.
#[derive(Default)]
struct TierWindow {
    num: usize,
    satisfied: usize,
    sum: f64,
    lats: Vec<f64>,
    drops: usize,
    preemptions: usize,
}

/// Per-tier bookkeeping: the tier set, whole-stream totals and the rows of the window
/// being closed.
struct TierLedger {
    set: TierSet,
    totals: Vec<TierTotals>,
    window: Vec<TierWindow>,
}

impl TierLedger {
    /// Counts one buffered entry into its tier's row; `false` for an admission drop,
    /// which the window's served counts skip.
    fn count(&mut self, tag: u32, latency: f64, model_target_s: f64) -> bool {
        let t = (tag & !(PREEMPTED | DROPPED)) as usize;
        let row = &mut self.window[t];
        if tag & DROPPED != 0 {
            row.drops += 1;
            return false;
        }
        row.preemptions += usize::from(tag & PREEMPTED != 0);
        row.num += 1;
        row.sum += latency;
        if latency <= self.set.effective_latency(t, model_target_s) {
            row.satisfied += 1;
        }
        row.lats.push(latency);
        true
    }

    /// The rows of the window just counted, in tier-set order; resets them.
    fn close_window(&mut self, tail_percentile: f64) -> Vec<TierWindowStats> {
        let rows = self.set.tiers().iter().zip(&mut self.window);
        rows.map(|(spec, row)| {
            let mut row = std::mem::take(row);
            TierWindowStats {
                name: spec.name.clone(),
                class: spec.class,
                num_queries: row.num,
                satisfied: row.satisfied,
                satisfaction_rate: (row.num > 0).then(|| row.satisfied as f64 / row.num as f64),
                mean_latency_s: (row.num > 0).then(|| row.sum / row.num as f64),
                tail_latency_s: percentile_in_place(&mut row.lats, tail_percentile),
                admission_drops: row.drops,
                preemptions: row.preemptions,
            }
        })
        .collect()
    }
}

/// One model's accounting over its stream: the column buffer of the open windows,
/// window close, the tier ledger and the whole-stream counters.
///
/// Queries are attributed to windows by arrival. The serving side owns dispatch and
/// billing; it hands each served query to [`WindowAccumulator::record`] (or a drop to
/// [`WindowAccumulator::record_drop`]) and supplies its prices when a window closes.
/// The whole-stream counters accumulate in serve order, so they are bit-identical to
/// [`crate::simulate_stats`] over the same dispatches.
pub(crate) struct WindowAccumulator {
    target_latency_s: f64,
    tail_percentile: f64,
    window: WindowConfig,
    // Struct-of-arrays buffer of the open windows' entries, arrival-ordered, so the
    // per-window scan touches dense columns. Entries are evicted as soon as no later
    // window can need them, which bounds the buffer by the open windows' arrivals.
    arrival: VecDeque<f64>,
    completion: VecDeque<f64>,
    latency: VecDeque<f64>,
    /// Tier index plus tag bits, per entry — tiered mode only, so it is either empty
    /// (untiered runs pay nothing) or exactly as long as the other columns.
    tag: VecDeque<u32>,
    win_lats: Vec<f64>,
    next_window: u64,
    /// Per-tier accounting (`None` ⇒ untiered).
    tiers: Option<TierLedger>,
    /// Whether served latencies are kept one by one (see `latencies`).
    pub(crate) record_per_query: bool,
    latencies: Vec<f64>,
    latency_sum: f64,
    satisfied: usize,
    num_queries: usize,
    makespan: f64,
}

impl WindowAccumulator {
    pub(crate) fn new(target_latency_s: f64, tail_percentile: f64, window: WindowConfig) -> Self {
        WindowAccumulator {
            target_latency_s,
            tail_percentile,
            window,
            arrival: VecDeque::new(),
            completion: VecDeque::new(),
            latency: VecDeque::new(),
            tag: VecDeque::new(),
            win_lats: Vec::new(),
            next_window: 0,
            tiers: None,
            record_per_query: true,
            latencies: Vec::new(),
            latency_sum: 0.0,
            satisfied: 0,
            num_queries: 0,
            makespan: 0.0,
        }
    }

    /// Switches to tiered accounting.
    ///
    /// # Panics
    /// Panics if a query was already recorded.
    pub(crate) fn enable_tiers(&mut self, set: TierSet) {
        assert!(
            self.arrival.is_empty() && self.num_queries == 0,
            "tiers must be enabled before the first query"
        );
        let n = set.len();
        self.tiers = Some(TierLedger {
            set,
            totals: vec![TierTotals::default(); n],
            window: (0..n).map(|_| TierWindow::default()).collect(),
        });
    }

    pub(crate) fn tier_set(&self) -> Option<&TierSet> {
        self.tiers.as_ref().map(|ledger| &ledger.set)
    }

    pub(crate) fn tier_totals(&self) -> &[TierTotals] {
        self.tiers.as_ref().map_or(&[], |ledger| &ledger.totals)
    }

    /// Served latencies in serve order; empty while `record_per_query` is off.
    pub(crate) fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    pub(crate) fn num_queries(&self) -> usize {
        self.num_queries
    }

    /// Completion time of the last-finishing served query.
    pub(crate) fn makespan(&self) -> f64 {
        self.makespan
    }

    /// The admission class and cap of `tier` (plain standard when untiered).
    pub(crate) fn class_of(&self, tier: u32) -> (AdmissionClass, Option<f64>) {
        match &self.tiers {
            Some(ledger) => {
                let spec = &ledger.set.tiers()[tier as usize];
                (spec.class, spec.admission_cap_s)
            }
            None => {
                debug_assert_eq!(tier, 0, "untiered streams only carry tier 0");
                (AdmissionClass::Standard, None)
            }
        }
    }

    /// Accounts one served query and returns its latency.
    pub(crate) fn record(
        &mut self,
        arrival: f64,
        completion: f64,
        tier: u32,
        preempted: bool,
    ) -> f64 {
        let latency = completion - arrival;
        self.latency_sum += latency;
        if latency <= self.target_latency_s {
            self.satisfied += 1;
        }
        self.num_queries += 1;
        if self.record_per_query {
            self.latencies.push(latency);
        }
        if completion > self.makespan {
            self.makespan = completion;
        }
        self.arrival.push_back(arrival);
        self.completion.push_back(completion);
        self.latency.push_back(latency);
        if let Some(ledger) = self.tiers.as_mut() {
            self.tag
                .push_back(if preempted { tier | PREEMPTED } else { tier });
            let t = &mut ledger.totals[tier as usize];
            t.served += 1;
            if latency
                <= ledger
                    .set
                    .effective_latency(tier as usize, self.target_latency_s)
            {
                t.satisfied += 1;
            }
            t.latency_sum += latency;
            t.preemptions += u64::from(preempted);
        }
        latency
    }

    /// Accounts one admission drop.
    pub(crate) fn record_drop(&mut self, tier: u32, arrival: f64) {
        let ledger = self
            .tiers
            .as_mut()
            .expect("only tiered streams drop at admission");
        ledger.totals[tier as usize].admission_drops += 1;
        self.arrival.push_back(arrival);
        self.completion.push_back(arrival);
        self.latency.push_back(0.0);
        self.tag.push_back(tier | DROPPED);
    }

    /// Closes every window that ends at or before `t`: no later arrival can fall in it.
    /// `hourly` and `cost` price the serving side (read only when a window closes).
    pub(crate) fn close_until(
        &mut self,
        t: f64,
        hourly: impl Fn() -> f64,
        cost: impl Fn(f64) -> f64,
        mut emit: impl FnMut(WindowStats),
    ) {
        while t >= self.window_end(self.next_window) {
            emit(self.close_next(None, hourly(), &cost));
        }
    }

    /// Closes every remaining window with arrivals once the stream has ended at `clock`
    /// (its last arrival) and `makespan` (its last completion). The last window may be
    /// partial: its `end_s` can extend past the final arrival.
    pub(crate) fn finish(
        &mut self,
        clock: f64,
        makespan: f64,
        hourly: impl Fn() -> f64,
        cost: impl Fn(f64) -> f64,
        mut emit: impl FnMut(WindowStats),
    ) {
        // `<=` so an arrival landing exactly on a window boundary still gets its
        // window; a final window may hold admission drops alone.
        while self.window_start(self.next_window) <= clock && !self.arrival.is_empty() {
            emit(self.close_next(Some((clock, makespan)), hourly(), &cost));
        }
    }

    /// Whole-stream aggregate statistics (same accumulation order and tail selection
    /// as [`crate::simulate_stats`]).
    pub(crate) fn stats(&self) -> SimStats {
        let n = self.num_queries;
        let mean_latency_s = if n == 0 {
            0.0
        } else {
            self.latency_sum / n as f64
        };
        let mut buf = self.latencies.clone();
        SimStats {
            num_queries: n,
            satisfied: self.satisfied,
            mean_latency_s,
            tail_latency_s: percentile_in_place(&mut buf, self.tail_percentile).unwrap_or(0.0),
            makespan: self.makespan,
        }
    }

    fn window_start(&self, index: u64) -> f64 {
        index as f64 * self.window.step_s
    }

    fn window_end(&self, index: u64) -> f64 {
        self.window_start(index) + self.window.length_s
    }

    /// Computes stats for window `next_window`, evicts entries no later window needs, and
    /// advances the window counter. `partial` is `None` for a window closed because an
    /// arrival crossed its end (full-length span), and the run's `(clock, makespan)` for
    /// a partial window flushed after the stream ended.
    fn close_next(
        &mut self,
        partial: Option<(f64, f64)>,
        hourly: f64,
        cost: impl Fn(f64) -> f64,
    ) -> WindowStats {
        let index = self.next_window;
        let start = self.window_start(index);
        let end = self.window_end(index);

        let mut num = 0usize;
        let mut satisfied = 0usize;
        let mut completed_in_window = 0usize;
        let mut sum = 0.0f64;
        self.win_lats.clear();
        for i in 0..self.arrival.len() {
            let arrival = self.arrival[i];
            if arrival >= end {
                break; // buffer is arrival-ordered
            }
            if arrival < start {
                continue;
            }
            let latency = self.latency[i];
            // The per-tier rows accumulate beside, never into, the shared fields.
            if let Some(ledger) = self.tiers.as_mut() {
                if !ledger.count(self.tag[i], latency, self.target_latency_s) {
                    continue;
                }
            }
            num += 1;
            sum += latency;
            if latency <= self.target_latency_s {
                satisfied += 1;
            }
            if self.completion[i] < end {
                completed_in_window += 1;
            }
            self.win_lats.push(latency);
        }
        let tail = percentile_in_place(&mut self.win_lats, self.tail_percentile);
        // Rates divide by the *observed* span: a window closed mid-stream spans its full
        // length, but a partial window flushed after the stream ends only saw
        // `clock − start` seconds of traffic — dividing that by the full length would
        // fake a load drop in the last window. Its cost must not bill past the end of
        // the run either: it is clamped to the later of the last arrival and the last
        // completion.
        let (span, cost_horizon) = match partial {
            None => (self.window.length_s, end),
            Some((clock, makespan)) => {
                let observed = clock.min(end) - start;
                let span = if observed <= 0.0 {
                    self.window.length_s
                } else {
                    observed
                };
                (span, end.min(makespan.max(clock)))
            }
        };
        let tiers = self
            .tiers
            .as_mut()
            .map_or_else(Vec::new, |ledger| ledger.close_window(self.tail_percentile));
        // Entries arriving before the next window's start are never needed again.
        self.next_window += 1;
        let horizon = self.window_start(self.next_window);
        while self.arrival.front().is_some_and(|&a| a < horizon) {
            self.arrival.pop_front();
            self.completion.pop_front();
            self.latency.pop_front();
            self.tag.pop_front();
        }
        WindowStats {
            index,
            start_s: start,
            end_s: end,
            num_queries: num,
            satisfied,
            satisfaction_rate: (num > 0).then(|| satisfied as f64 / num as f64),
            mean_latency_s: (num > 0).then(|| sum / num as f64),
            tail_latency_s: tail,
            arrival_qps: num as f64 / span,
            throughput_qps: completed_in_window as f64 / span,
            pool_hourly_cost: hourly,
            cost_so_far_usd: cost(cost_horizon),
            tiers,
        }
    }
}

#[cfg(test)]
impl WindowAccumulator {
    /// Entries buffered for the open windows.
    pub(crate) fn buffered(&self) -> usize {
        self.arrival.len()
    }
}
