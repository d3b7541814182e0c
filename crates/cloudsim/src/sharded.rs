//! Sharded fleet simulation: per-model lanes partitioned across worker threads, with
//! results recombined **bit-identically** to the single-threaded [`FleetSim`] drive.
//!
//! # Why sharding is exact here
//!
//! Fleet members only interact through the *shared slice*: a member with
//! `share_weight == 0.0` (or a fleet without shared slots) dispatches exclusively on
//! its own lane, and its window accounting depends only on its own arrivals. The fleet
//! therefore factors into independent **coupling groups**:
//!
//! * with a non-empty shared pool, every member with `share_weight > 0.0` forms *one*
//!   group (they contend for the same shared slots — their merged order matters);
//! * every other member is a singleton group.
//!
//! Each group is driven as its own [`FleetSim`] over the deterministic
//! [`merge_tagged_slices`] interleaving of just its members' streams — which is exactly
//! the
//! subsequence of the global merged stream belonging to the group, so every dispatch
//! and floating-point accumulation happens in the global drive's order. Groups run
//! concurrently via [`par_map_vec`]; the shard count only caps worker threads and
//! **never** changes the partition, so results are identical at every shard count by
//! construction.
//!
//! Three global effects need recombination care:
//!
//! 1. **window close triggers** — in the global drive, *any* model's arrival closes
//!    due windows for *all* models. A group that goes quiet early would miss trailing
//!    closes; [`FleetSim::drain_windows_until`] the fleet-wide last arrival restores
//!    exactly the set of complete windows the global drive closes (a complete window's
//!    content depends only on the owning model's arrivals, never on who triggered the
//!    close).
//! 2. **fleet-wide cost fields** — each window's `pool_hourly_cost`/`cost_so_far_usd`
//!    report fleet totals a group cannot see. They are reconstructed post-hoc from
//!    per-lane [`SlotBilling`] records, replicating [`FleetSim::cost_so_far`]'s exact
//!    fold (lanes in model order, then the shared slice); see
//!    [`cost_from_billing`] for the bit-identity argument.
//! 3. **the shared slice's bill** — charged even when no group holds the shared
//!    server (all weights zero): the slice is provisioned regardless of use, exactly
//!    as [`FleetSim::new`] keeps it.

use crate::instance::PoolSpec;
use crate::parallel::par_map_vec;
use crate::query::Query;
use crate::router::{merge_tagged_slices, FleetModelConfig, FleetSim, TaggedQuery};
use crate::sim::SimStats;
use crate::streaming::{cost_from_billing, SlotBilling, WindowStats};
use crate::tier::{TierAssigner, TierTotals};

/// Per-member tier assigners for a drive: tier tags depend only on the member and the
/// member-local query index (largest-remainder rotation), so the serial and sharded
/// drives — where each member's stream is replayed in order inside exactly one group —
/// assign identical tiers at every shard count.
pub fn tier_assigners(models: &[FleetModelConfig<'_>]) -> Vec<Option<TierAssigner>> {
    models
        .iter()
        .map(|m| m.tiers.as_ref().map(|set| set.assigner()))
        .collect()
}

/// Stamps a merged-stream query with its member's next tier (untiered members keep
/// tier 0).
pub fn tag_tier(tq: &TaggedQuery, assigners: &mut [Option<TierAssigner>]) -> TaggedQuery {
    let mut tq = *tq;
    if let Some(assigner) = assigners[tq.model].as_mut() {
        tq.tier = assigner.next_tier();
    }
    tq
}

/// Partitions fleet members into coupling groups (see the module docs): with
/// `has_shared`, all members with positive share weight form one group, everyone else
/// a singleton. Groups are ordered by their first member's index, members within a
/// group stay in model order — the determinism the recombination relies on.
pub fn partition_groups(share_weights: &[f64], has_shared: bool) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    if has_shared {
        let coupled: Vec<usize> = (0..share_weights.len())
            .filter(|&m| share_weights[m] > 0.0)
            .collect();
        if !coupled.is_empty() {
            groups.push(coupled);
        }
    }
    for (m, &w) in share_weights.iter().enumerate() {
        if !(has_shared && w > 0.0) {
            groups.push(vec![m]);
        }
    }
    groups.sort_by_key(|g| g[0]);
    groups
}

/// Outcome of a fleet run (serial or sharded): per-model windows in close order,
/// whole-stream stats, and the fleet-wide totals the serving reports quote.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRunOutcome {
    /// Per model: every monitoring window in close order (complete, then partial).
    pub windows: Vec<Vec<WindowStats>>,
    /// Per model: whole-stream aggregate statistics.
    pub stats: Vec<SimStats>,
    /// Per model: queries served by the shared slice.
    pub shared_queries: Vec<usize>,
    /// Per model: whole-stream per-tier totals, in tier-set order (empty for
    /// untiered members).
    pub tier_totals: Vec<Vec<TierTotals>>,
    /// Fleet-wide hourly cost of the deployed pools at the end of the run.
    pub hourly_cost: f64,
    /// Run horizon: the later of the fleet makespan and the last arrival.
    pub duration_s: f64,
    /// Exact fleet-wide accrued cost at `duration_s`.
    pub total_cost_usd: f64,
}

/// Drives one [`FleetSim`] over the globally merged stream — the single-threaded
/// reference the sharded runner must match bit for bit.
pub fn simulate_fleet_serial(
    models: Vec<FleetModelConfig<'_>>,
    shared: Option<PoolSpec>,
    streams: &[Vec<Query>],
    record_per_query: bool,
) -> FleetRunOutcome {
    let n = models.len();
    assert_eq!(streams.len(), n, "one stream per fleet member");
    let mut assigners = tier_assigners(&models);
    let mut sim = FleetSim::new(models, shared);
    sim.set_record_per_query(record_per_query);
    let slices: Vec<&[Query]> = streams.iter().map(Vec::as_slice).collect();
    let merged = merge_tagged_slices(&slices);
    let mut windows: Vec<Vec<WindowStats>> = vec![Vec::new(); n];
    let mut closed = Vec::new();
    for tq in &merged {
        let tq = tag_tier(tq, &mut assigners);
        sim.push_into(&tq, &mut closed);
        for (m, w) in closed.drain(..) {
            windows[m].push(w);
        }
    }
    for (m, w) in sim.finish_windows() {
        windows[m].push(w);
    }
    let duration_s = sim.makespan().max(sim.clock());
    FleetRunOutcome {
        stats: (0..n).map(|m| sim.stats(m)).collect(),
        shared_queries: (0..n).map(|m| sim.shared_queries(m)).collect(),
        tier_totals: (0..n).map(|m| sim.tier_totals(m).to_vec()).collect(),
        hourly_cost: sim.current_hourly_cost(),
        total_cost_usd: sim.cost_so_far(duration_s),
        duration_s,
        windows,
    }
}

/// One coupling group's work order.
struct GroupTask<'a> {
    members: Vec<usize>,
    configs: Vec<FleetModelConfig<'a>>,
    shared: Option<PoolSpec>,
    streams: Vec<&'a [Query]>,
    record_per_query: bool,
}

/// One coupling group's results, indexed in group-member order.
struct GroupResult {
    windows: Vec<Vec<WindowStats>>,
    /// Per member: how many leading windows are complete (the rest are partial).
    num_complete: Vec<usize>,
    stats: Vec<SimStats>,
    shared_queries: Vec<usize>,
    tier_totals: Vec<Vec<TierTotals>>,
    lane_billing: Vec<Option<Vec<SlotBilling>>>,
    lane_hourly: Vec<Option<f64>>,
}

fn run_group(task: GroupTask<'_>, t_last: f64) -> GroupResult {
    let k = task.members.len();
    let mut assigners = tier_assigners(&task.configs);
    let mut sim = FleetSim::new(task.configs, task.shared);
    sim.set_record_per_query(task.record_per_query);
    let mut windows: Vec<Vec<WindowStats>> = vec![Vec::new(); k];
    let mut closed = Vec::new();
    if k == 1 {
        // Singleton fast path: no merge materialization, the lane sees its own stream.
        for query in task.streams[0] {
            let tq = tag_tier(&TaggedQuery::new(0, *query), &mut assigners);
            sim.push_into(&tq, &mut closed);
            for (m, w) in closed.drain(..) {
                windows[m].push(w);
            }
        }
    } else {
        for tq in &merge_tagged_slices(&task.streams) {
            let tq = tag_tier(tq, &mut assigners);
            sim.push_into(&tq, &mut closed);
            for (m, w) in closed.drain(..) {
                windows[m].push(w);
            }
        }
    }
    // Close the complete windows the global drive would have closed via other groups'
    // arrivals, and advance the clock to the fleet-wide last arrival.
    for (m, w) in sim.drain_windows_until(t_last) {
        windows[m].push(w);
    }
    let num_complete: Vec<usize> = windows.iter().map(Vec::len).collect();
    for (m, w) in sim.finish_windows() {
        windows[m].push(w);
    }
    GroupResult {
        num_complete,
        stats: (0..k).map(|m| sim.stats(m)).collect(),
        shared_queries: (0..k).map(|m| sim.shared_queries(m)).collect(),
        tier_totals: (0..k).map(|m| sim.tier_totals(m).to_vec()).collect(),
        lane_billing: (0..k).map(|m| sim.lane_billing(m)).collect(),
        lane_hourly: (0..k)
            .map(|m| sim.lane(m).map(|l| l.current_pool().hourly_cost()))
            .collect(),
        windows,
    }
}

/// Drives the fleet sharded across up to `shards` worker threads and recombines the
/// group results into exactly [`simulate_fleet_serial`]'s outcome — bit for bit, at
/// every shard count (`shards` only caps concurrency; the group partition is fixed by
/// the fleet's coupling structure). `shards == 1` still exercises the group path.
pub fn simulate_fleet_sharded(
    models: Vec<FleetModelConfig<'_>>,
    shared: Option<PoolSpec>,
    streams: &[Vec<Query>],
    shards: usize,
    record_per_query: bool,
) -> FleetRunOutcome {
    let n = models.len();
    assert_eq!(streams.len(), n, "one stream per fleet member");
    // Mirror FleetSim::new: an all-zero shared pool is no shared slice at all.
    let shared = shared.filter(|p| p.total_instances() > 0);
    let weights: Vec<f64> = models.iter().map(|m| m.share_weight).collect();
    let groups = partition_groups(&weights, shared.is_some());

    // Fleet-wide last arrival: the global drive's final clock.
    let t_last = streams
        .iter()
        .filter_map(|s| s.last())
        .map(|q| q.arrival)
        .fold(0.0, f64::max);

    // The shared slice bills fleet-wide whether or not any group dispatches to it.
    let shared_hourly = shared.as_ref().map_or(0.0, |p| p.hourly_cost());

    let mut config_slots: Vec<Option<FleetModelConfig<'_>>> =
        models.into_iter().map(Some).collect();
    let tasks: Vec<GroupTask<'_>> = groups
        .iter()
        .map(|g| GroupTask {
            members: g.clone(),
            configs: g
                .iter()
                .map(|&m| config_slots[m].take().expect("each member in one group"))
                .collect(),
            // Only the coupled group dispatches to the shared slice.
            shared: if g.len() > 1 || weights[g[0]] > 0.0 {
                shared.clone()
            } else {
                None
            },
            streams: g.iter().map(|&m| streams[m].as_slice()).collect(),
            record_per_query,
        })
        .collect();

    let results = par_map_vec(tasks, shards.max(1), |task| run_group(task, t_last));

    // Scatter group results back into global model slots.
    let mut windows: Vec<Vec<WindowStats>> = vec![Vec::new(); n];
    let mut num_complete = vec![0usize; n];
    let mut stats: Vec<Option<SimStats>> = vec![None; n];
    let mut shared_queries = vec![0usize; n];
    let mut tier_totals: Vec<Vec<TierTotals>> = vec![Vec::new(); n];
    let mut lane_billing: Vec<Option<Vec<SlotBilling>>> = vec![None; n];
    let mut lane_hourly: Vec<Option<f64>> = vec![None; n];
    for (g, mut result) in groups.iter().zip(results) {
        for (gi, &m) in g.iter().enumerate() {
            windows[m] = std::mem::take(&mut result.windows[gi]);
            num_complete[m] = result.num_complete[gi];
            stats[m] = Some(result.stats[gi]);
            shared_queries[m] = result.shared_queries[gi];
            tier_totals[m] = std::mem::take(&mut result.tier_totals[gi]);
            lane_billing[m] = result.lane_billing[gi].take();
            lane_hourly[m] = result.lane_hourly[gi];
        }
    }
    let stats: Vec<SimStats> = stats.into_iter().map(|s| s.expect("covered")).collect();

    // Global quantities, folded exactly as FleetSim computes them.
    let makespan = stats.iter().map(|s| s.makespan).fold(0.0, f64::max);
    let duration_s = makespan.max(t_last);
    let hourly_cost = lane_hourly.iter().flatten().copied().sum::<f64>() + shared_hourly;
    let cost_at = |t: f64| -> f64 {
        lane_billing
            .iter()
            .flatten()
            .map(|b| cost_from_billing(b, t))
            .sum::<f64>()
            + shared_hourly * t.max(0.0) / 3600.0
    };

    // Fleet-wide window cost fields, reconstructed post-hoc. Complete windows sample
    // cost at their end; partial windows clamp to the run horizon — the same rules
    // the window accumulator applies mid-run. Hourly cost is the (constant,
    // reconfiguration-free) deployed total.
    for m in 0..n {
        for (i, w) in windows[m].iter_mut().enumerate() {
            let horizon = if i < num_complete[m] {
                w.end_s
            } else {
                w.end_s.min(makespan.max(t_last))
            };
            w.pool_hourly_cost = hourly_cost;
            w.cost_so_far_usd = cost_at(horizon);
        }
    }

    FleetRunOutcome {
        windows,
        stats,
        shared_queries,
        tier_totals,
        hourly_cost,
        duration_s,
        total_cost_usd: cost_at(duration_s),
    }
}
