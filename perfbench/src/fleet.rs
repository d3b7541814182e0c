//! `fleet-tiered-mix`: `scenarios/fleet_tiered_mix.toml`, a joint plan plus serve of
//! MT-WND (premium/standard/bulk tiers) and untiered DIEN with a shared g4dn/r5n slice.
//!
//! The timed call is `Fleet::run`. The joint planner's internals are private, so the
//! traced run times the whole serve through the public `serve_fleet` and breaks it down
//! with isolation replays on the fleet's own inputs: `FleetPlanner::plan`, the member
//! baselines plus the joint trace on a fresh `FleetEvaluator`, and the served traffic
//! through a static `FleetSim` at the initial allocation.

use crate::{conserved, tier_arrivals, tier_lines, timed, Bench, BenchResult};
use ribbon::fleet::{
    serve_fleet, Fleet, FleetEvaluator, FleetPlanner, FleetReport, FleetSpec, RibbonFleetPlanner,
};
use ribbon::search::RibbonSearch;
use ribbon_bench::perf::fleet_trace_lines;
use ribbon_cloudsim::router::{FleetModelConfig, FleetSim};
use ribbon_cloudsim::{merge_tagged, tag_tier, tier_assigners, PoolSpec, Query};
use ribbon_models::ModelProfile;
use std::path::Path;

const SPEC: &str = "scenarios/fleet_tiered_mix.toml";

/// The fleet file's own seed.
pub(crate) const DEFAULT_SEED: u64 = 7;

fn load(seed: u64) -> BenchResult<Fleet> {
    let mut spec = FleetSpec::load_file(SPEC).map_err(|e| format!("{SPEC}: {e}"))?;
    for (m, model) in spec.models.iter_mut().enumerate() {
        if let Some(s) = crate::stream_seed(seed, DEFAULT_SEED, m as u64) {
            model.workload.stream_seed = Some(s);
        }
    }
    spec.compile_with_base(Path::new(SPEC).parent())
        .map_err(|e| format!("{SPEC}: {e}"))
}

fn fingerprint(r: &FleetReport) -> String {
    let mut lines = fleet_trace_lines(r);
    for m in &r.models {
        if let Some(s) = &m.serve {
            lines.push(format!("model {} shared {}", m.name, s.shared_queries));
            lines.extend(tier_lines(&s.tiers));
        }
    }
    lines.join("\n")
}

/// Each member's serve-phase traffic, as the serve generates it.
fn member_streams(fleet: &Fleet) -> BenchResult<Vec<Vec<Query>>> {
    fleet
        .members
        .iter()
        .map(|m| {
            m.scenario
                .require_traffic()
                .map(|t| t.generate())
                .map_err(|e| e.to_string())
        })
        .collect()
}

pub(crate) fn run(b: &mut Bench, seed: u64) -> BenchResult<()> {
    let (fleet, report) = b.measure(
        || load(seed),
        |fleet| fleet.run().map_err(|e| e.to_string()),
        fingerprint,
    )?;
    let totals = report
        .serve
        .as_ref()
        .ok_or("serve mode filled no fleet totals")?;

    let streams = member_streams(&fleet)?;
    let mut arrivals = 0usize;
    let mut satisfied = 0u64;
    for ((member, section), stream) in fleet.members.iter().zip(&report.models).zip(&streams) {
        let serve = section
            .serve
            .as_ref()
            .ok_or("serve mode filled no member section")?;
        arrivals += stream.len();
        let (ok, detail) = match &member.scenario.tiers {
            Some(set) => {
                satisfied += serve.tiers.iter().map(|t| t.satisfied).sum::<u64>();
                conserved(&tier_arrivals(set, stream.len()), &serve.tiers)
            }
            None => {
                let rate = serve.satisfaction_rate.unwrap_or(0.0);
                satisfied += (rate * serve.queries as f64).round() as u64;
                (
                    stream.len() == serve.queries,
                    format!("{} = {} + 0", stream.len(), serve.queries),
                )
            }
        };
        b.check(
            &format!("arrivals = served + dropped for {}", member.name),
            ok,
            detail,
        );
    }
    b.plan_cost_usd_hr = report.total_hourly_cost;
    b.serve_cost_usd = totals.total_cost_usd;
    b.qos_satisfaction = satisfied as f64 / arrivals as f64;
    b.queries_per_run = arrivals as f64;
    b.operations_per_run = arrivals as u64;
    if b.trace {
        traced(b, &fleet, &report, &streams)?;
    }
    Ok(())
}

fn traced(
    b: &mut Bench,
    fleet: &Fleet,
    untraced: &FleetReport,
    streams: &[Vec<Query>],
) -> BenchResult<()> {
    let (report, serve_s) = timed(|| serve_fleet(&RibbonFleetPlanner, fleet));
    let report = report.map_err(|e| e.to_string())?;
    b.check(
        "traced serve equals the untraced one",
        report == *untraced,
        format!("{} joint evaluations", report.evaluations),
    );
    let totals = report
        .serve
        .as_ref()
        .ok_or("serve mode filled no fleet totals")?;

    // Isolation replays.
    let (planned, plan_s) = timed(|| RibbonFleetPlanner.plan(fleet));
    planned.map_err(|e| e.to_string())?;

    let evaluator = FleetEvaluator::new(fleet).map_err(|e| e.to_string())?;
    let (baseline_evaluations, baselines_s) = timed(|| {
        fleet
            .members
            .iter()
            .enumerate()
            .map(|(m, member)| {
                RibbonSearch::new(member.scenario.search_settings.clone())
                    .run(evaluator.member_evaluator(m), fleet.spec.seed)
                    .len()
            })
            .sum::<usize>()
    });
    let configs: Vec<Vec<u32>> = report.trace.iter().map(|e| e.config.clone()).collect();
    let (joint, joint_s) = timed(|| evaluator.evaluate_many(&configs));
    b.check(
        "joint trace replays bit for bit",
        joint == report.trace,
        format!("{} joint configurations", configs.len()),
    );
    // A fully dedicated joint allocation delegates one request to every member's
    // evaluator; one with shared slots in play is one merged-stream simulation.
    let shared = evaluator.shared_range();
    let dedicated = |c: &[u32]| c[shared.clone()].iter().all(|&x| x == 0);
    let n = fleet.members.len();
    let requests = baseline_evaluations
        + configs
            .iter()
            .map(|c| if dedicated(c) { n } else { 1 })
            .sum::<usize>();
    let simulations = (0..n)
        .map(|m| evaluator.member_evaluator(m).num_simulations())
        .sum::<usize>()
        + configs.iter().filter(|c| !dedicated(c)).count();

    let push_s = replay_router(fleet, &report, streams)?;

    let ms = 1e3;
    b.layer("scenario.compile_ms", b.setup_median_s() * ms);
    b.layer("evaluator.configs", requests as f64);
    b.layer("evaluator.simulations", simulations as f64);
    b.layer(
        "evaluator.cache_hit_ratio",
        1.0 - simulations as f64 / requests as f64,
    );
    b.layer("evaluator.ms", (baselines_s + joint_s) * ms);
    b.layer("streaming.reconfigurations", totals.reconfigurations as f64);
    b.layer("tier.preemptions", totals.preemptions as f64);
    b.layer("tier.admission_drops", totals.admission_drops as f64);
    b.layer("online.windows", totals.windows as f64);
    b.layer(
        "router.shared_queries",
        report
            .models
            .iter()
            .filter_map(|m| m.serve.as_ref())
            .map(|s| s.shared_queries)
            .sum::<usize>() as f64,
    );
    b.layer("router.fleet_push_ms", push_s * ms);
    b.layer("fleet.plan_ms", plan_s * ms);
    b.layer("fleet.serve_ms", serve_s * ms);
    b.layer("fleet.joint_evaluations", report.evaluations as f64);
    b.layer("fleet.simulations", evaluator.num_simulations() as f64);
    b.layer("fleet.evaluate_ms", joint_s * ms);
    b.trace_totals(serve_s, serve_s, 1);
    Ok(())
}

/// The served traffic, merged and tier-tagged, pushed through one static `FleetSim` at
/// the serve's initial allocation (no controllers): the router's dispatch on the
/// workload's own streams. Returns the push time.
fn replay_router(fleet: &Fleet, report: &FleetReport, streams: &[Vec<Query>]) -> BenchResult<f64> {
    let profiles: Vec<ModelProfile> = fleet
        .members
        .iter()
        .map(|m| m.scenario.workload.profile())
        .collect();
    let mut configs = Vec::with_capacity(fleet.members.len());
    for ((member, section), profile) in fleet.members.iter().zip(&report.models).zip(&profiles) {
        let serve = section
            .serve
            .as_ref()
            .ok_or("serve mode filled no member section")?;
        let scenario = &member.scenario;
        configs.push(FleetModelConfig {
            pool: scenario.workload.diverse_pool_spec(&serve.initial_config),
            profile,
            target_latency_s: scenario.policy.deadline_s(),
            tail_percentile: scenario.policy.tail_percentile(),
            window: scenario.online_settings.window,
            share_weight: member.share_weight,
            spin_up_factor: scenario.online_settings.spin_up_factor,
            variant_policy: None,
            tiers: scenario.tiers.clone(),
        });
    }
    let shared = PoolSpec::from_counts(&fleet.shared_types, &report.shared_config);
    let merged = merge_tagged(streams);
    let mut assigners = tier_assigners(&configs);
    let mut sim = FleetSim::new(configs, Some(shared));
    sim.set_record_per_query(false);
    let mut closed = Vec::new();
    let (_, push_s) = timed(|| {
        for tq in &merged {
            sim.push_into(&tag_tier(tq, &mut assigners), &mut closed);
            closed.clear();
        }
    });
    Ok(push_s)
}
