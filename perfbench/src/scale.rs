//! `serve-scale`: the `streaming_scale` inputs of `ribbon_bench::perf` — eight dedicated
//! untiered lanes of 1.25 M Poisson queries each (heavy-tail batches, 5 s tumbling
//! windows, per-query recording off) through `simulate_fleet_sharded`, no search at all.
//!
//! Set-up generates the streams; the timed call is `perf::run_streaming_scale` with one
//! shard per available core. The traced run drives every lane through its own `FleetSim`
//! from here (`push_into`, `drain_windows_until`, `finish_windows`) on the same worker
//! count, then replays the merge and the serial drive in isolation.

use crate::{nproc, stream_seed, timed, Bench, BenchResult};
use ribbon_bench::perf::{
    run_streaming_scale, streaming_scale_profile, ScaleProfile, STREAMING_SCALE_MODELS,
    STREAMING_SCALE_QUERIES, STREAMING_SCALE_SEED,
};
use ribbon_cloudsim::dist::{ArrivalProcess, BatchDistribution};
use ribbon_cloudsim::parallel::par_map_vec;
use ribbon_cloudsim::router::{merge_tagged_slices, FleetModelConfig, FleetSim, TaggedQuery};
use ribbon_cloudsim::{
    partition_groups, simulate_fleet_serial, FleetRunOutcome, InstanceType, PoolSpec, Query,
    SimStats, StreamConfig, WindowConfig,
};

pub(crate) const DEFAULT_SEED: u64 = STREAMING_SCALE_SEED;

/// `perf::streaming_scale_streams` with the seed as a parameter: lane `m` is a Poisson
/// stream at `2000 + 250 m` q/s, seeded `STREAMING_SCALE_SEED + m` at the default seed
/// and through [`stream_seed`] otherwise, so no two benchmark seeds share a lane stream.
fn streams(seed: u64) -> Vec<Vec<Query>> {
    (0..STREAMING_SCALE_MODELS)
        .map(|m| {
            StreamConfig {
                arrivals: ArrivalProcess::Poisson {
                    qps: 2_000.0 + 250.0 * m as f64,
                },
                batches: BatchDistribution::default_heavy_tail(32.0, 256),
                num_queries: STREAMING_SCALE_QUERIES,
                seed: stream_seed(seed, DEFAULT_SEED, m as u64)
                    .unwrap_or(STREAMING_SCALE_SEED + m as u64),
            }
            .generate()
        })
        .collect()
}

/// Lane `m`'s configuration, as `perf::run_streaming_scale` builds it (the traced run's
/// equality check against the timed call guards this mirror).
fn lane_config(profile: &ScaleProfile, m: usize) -> FleetModelConfig<'_> {
    FleetModelConfig {
        pool: PoolSpec::new(
            vec![InstanceType::G4dn, InstanceType::C5],
            vec![10 + (m as u32 % 3), 6],
        ),
        profile,
        target_latency_s: 0.060,
        tail_percentile: 99.0,
        window: WindowConfig::tumbling(5.0),
        share_weight: 0.0,
        spin_up_factor: 1.0,
        variant_policy: None,
        tiers: None,
    }
}

fn fingerprint(o: &FleetRunOutcome) -> String {
    let lanes: Vec<String> = o
        .stats
        .iter()
        .zip(&o.windows)
        .map(|(s, w)| format!("{}/{}/{}", s.num_queries, s.satisfied, w.len()))
        .collect();
    format!(
        "lanes {} cost {:#018x} hourly {:#018x}",
        lanes.join(","),
        o.total_cost_usd.to_bits(),
        o.hourly_cost.to_bits()
    )
}

pub(crate) fn run(b: &mut Bench, seed: u64) -> BenchResult<()> {
    let profile = streaming_scale_profile();
    let shards = nproc().min(STREAMING_SCALE_MODELS);
    let (streams, outcome) = b.measure(
        || Ok(streams(seed)),
        |streams| Ok(run_streaming_scale(&profile, streams, shards)),
        fingerprint,
    )?;

    let arrivals: usize = streams.iter().map(Vec::len).sum();
    let satisfied: usize = outcome.stats.iter().map(|s| s.satisfied).sum();
    b.plan_cost_usd_hr = outcome.hourly_cost;
    b.serve_cost_usd = outcome.total_cost_usd;
    b.qos_satisfaction = satisfied as f64 / arrivals as f64;
    b.queries_per_run = arrivals as f64;
    b.operations_per_run = arrivals as u64;
    let conserved = outcome
        .stats
        .iter()
        .zip(&streams)
        .all(|(s, q)| s.num_queries == q.len());
    b.check(
        "arrivals = served + dropped per lane",
        conserved,
        format!(
            "{arrivals} arrivals over {} untiered lanes, 0 drops",
            streams.len()
        ),
    );
    if b.trace {
        traced(b, &profile, &streams, shards, &outcome)?;
    }
    Ok(())
}

/// One lane's traced drive: its served stats, windows closed, and push / close times.
struct LaneTrace {
    stats: SimStats,
    windows: usize,
    push_s: f64,
    close_s: f64,
}

fn drive_lane(profile: &ScaleProfile, m: usize, stream: &[Query], t_last: f64) -> LaneTrace {
    let mut sim = FleetSim::new(vec![lane_config(profile, m)], None);
    sim.set_record_per_query(false);
    let mut closed = Vec::new();
    let mut windows = 0;
    let (_, push_s) = timed(|| {
        for q in stream {
            sim.push_into(&TaggedQuery::new(0, *q), &mut closed);
            windows += closed.len();
            closed.clear();
        }
    });
    let (tail, close_s) =
        timed(|| sim.drain_windows_until(t_last).len() + sim.finish_windows().len());
    LaneTrace {
        stats: sim.stats(0),
        windows: windows + tail,
        push_s,
        close_s,
    }
}

fn traced(
    b: &mut Bench,
    profile: &ScaleProfile,
    streams: &[Vec<Query>],
    shards: usize,
    untraced: &FleetRunOutcome,
) -> BenchResult<()> {
    let groups = partition_groups(&[0.0; STREAMING_SCALE_MODELS], false).len();
    let t_last = streams
        .iter()
        .filter_map(|s| s.last())
        .map(|q| q.arrival)
        .fold(0.0, f64::max);
    let (lanes, traced_s) = timed(|| {
        par_map_vec((0..streams.len()).collect(), shards, |m| {
            drive_lane(profile, m, &streams[m], t_last)
        })
    });
    let same = lanes
        .iter()
        .zip(&untraced.stats)
        .zip(&untraced.windows)
        .all(|((l, s), w)| l.stats == *s && l.windows == w.len());
    b.check(
        "traced lanes equal the untraced run",
        same,
        format!("{} lanes", lanes.len()),
    );

    // Isolation replays: the router's k-way merge of all lanes, and the serial drive.
    let slices: Vec<&[Query]> = streams.iter().map(Vec::as_slice).collect();
    let (merged, merge_s) = timed(|| merge_tagged_slices(&slices).len());
    let models = (0..streams.len())
        .map(|m| lane_config(profile, m))
        .collect();
    let (serial, serial_s) = timed(|| simulate_fleet_serial(models, None, streams, false));
    b.check(
        "sharded outcome equals the serial drive",
        serial == *untraced,
        format!("{merged} merged queries"),
    );

    let ms = 1e3;
    let queries: usize = lanes.iter().map(|l| l.stats.num_queries).sum();
    let push_s: f64 = lanes.iter().map(|l| l.push_s).sum();
    let close_s: f64 = lanes.iter().map(|l| l.close_s).sum();
    let sharded_s = b.untraced_run_s();
    b.layer("gen.queries", queries as f64);
    b.layer("gen.ms", b.setup_median_s() * ms);
    b.layer("streaming.queries", queries as f64);
    b.layer("streaming.push_ms", push_s * ms);
    b.layer("streaming.ns_per_query", push_s * 1e9 / queries as f64);
    b.layer(
        "streaming.windows_closed",
        lanes.iter().map(|l| l.windows).sum::<usize>() as f64,
    );
    b.layer("router.merge_ms", merge_s * ms);
    b.layer("sharded.groups", groups as f64);
    b.layer("sharded.ms", sharded_s * ms);
    b.layer("sharded.serial_ms", serial_s * ms);
    b.layer("sharded.speedup", serial_s / sharded_s);
    b.trace_totals(traced_s, push_s + close_s, shards.min(groups));
    Ok(())
}
