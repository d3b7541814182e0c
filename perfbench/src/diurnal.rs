//! `serve-tiered-diurnal`: the MT-WND tiered serve of `scenarios/mtwnd_tiered_flash.toml`
//! (same tiers, bounds `[7, 4, 7]`, 2 s windows and planning queries) driven by the
//! `diurnal` traffic scenario over one simulated hour instead of the 60 s flash crowd.
//!
//! The timed call is `Scenario::run`, which generates the stream inside the serve. The
//! traced run drives the same serve from here — `OnlineController::bootstrap_with_policy`,
//! `PhasedQueryStream`, `StreamingSim::push_tiered_into` / `reconfigure` and
//! `OnlineController::observe_action` — timing stream generation in chunks so the clock
//! is read per chunk, not per query.

use crate::{conserved, load_scenario, tier_arrivals, tier_lines, timed, Bench, BenchResult};
use ribbon::accounting::transition_overlap_cost;
use ribbon::online::{ControllerAction, OnlineController, OnlineOutcome, ReconfigEvent};
use ribbon::scenario::{Scenario, ServeReport, TrafficSpec};
use ribbon_bench::perf::online_trace_lines;
use ribbon_cloudsim::streaming::{StreamingSim, StreamingSimConfig};
use ribbon_cloudsim::{LatencyModel, PhasedQueryStream, PoolSpec, Query};
use std::time::Instant;

const SPEC: &str = "scenarios/mtwnd_tiered_flash.toml";

/// The scenario file's own seed.
pub(crate) const DEFAULT_SEED: u64 = 7;

/// Simulated horizon of the diurnal trace, in seconds.
const DURATION_S: f64 = 3600.0;

/// Queries generated per timed chunk in the traced run.
const CHUNK: usize = 4096;

fn load(seed: u64) -> BenchResult<Scenario> {
    load_scenario(SPEC, seed, DEFAULT_SEED, |spec| {
        spec.name = "mtwnd-tiered-diurnal".to_string();
        spec.traffic = Some(TrafficSpec {
            scenario: Some("diurnal".to_string()),
            phases: None,
            duration_s: Some(DURATION_S),
        });
    })
}

fn serve(scenario: &Scenario) -> BenchResult<ServeReport> {
    let report = scenario.run().map_err(|e| e.to_string())?;
    report
        .serve
        .ok_or_else(|| "serve mode filled no serve section".to_string())
}

fn fingerprint(s: &ServeReport) -> String {
    let mut lines = online_trace_lines(s);
    lines.extend(tier_lines(&s.tiers));
    lines.join("\n")
}

pub(crate) fn run(b: &mut Bench, seed: u64) -> BenchResult<()> {
    let (scenario, report) = b.measure(|| load(seed), serve, fingerprint)?;

    let traffic = scenario.require_traffic().map_err(|e| e.to_string())?;
    let set = scenario
        .tiers
        .as_ref()
        .ok_or("the scenario declares no tiers")?;
    let arrivals = PhasedQueryStream::new(traffic.clone()).count();
    let per_tier = tier_arrivals(set, arrivals);
    let (ok, detail) = conserved(&per_tier, &report.tiers);
    b.check("arrivals = served + dropped per tier", ok, detail);
    let satisfied: u64 = report.tiers.iter().map(|t| t.satisfied).sum();
    b.plan_cost_usd_hr = report.mean_hourly_cost;
    b.serve_cost_usd = report.total_cost_usd;
    b.qos_satisfaction = satisfied as f64 / arrivals as f64;
    b.queries_per_run = arrivals as f64;
    b.operations_per_run = arrivals as u64;
    if b.trace {
        traced(b, &scenario, &report)?;
    }
    Ok(())
}

/// Wall-time split of the traced serve, and the controller's replan count (a replan
/// that keeps the deployed pool is no event, so events alone would undercount).
#[derive(Default)]
struct Spans {
    bootstrap_s: f64,
    gen_s: f64,
    push_s: f64,
    observe_s: f64,
    replan_s: f64,
    replans: usize,
}

fn traced(b: &mut Bench, scenario: &Scenario, untraced: &ServeReport) -> BenchResult<()> {
    let wall = Instant::now();
    let (outcome, spans) = drive(scenario)?;
    let traced_s = wall.elapsed().as_secs_f64();
    let report = ServeReport::from_outcome(&outcome);
    b.check(
        "traced serve equals the untraced one",
        report == *untraced,
        format!(
            "{} windows, {} reconfigurations",
            report.windows,
            report.events.len()
        ),
    );

    let ms = 1e3;
    let queries = outcome.stats.num_queries
        + outcome
            .tier_totals
            .iter()
            .map(|t| t.admission_drops as usize)
            .sum::<usize>();
    let push_ns_per_query = spans.push_s * 1e9 / queries as f64;
    b.layer("scenario.compile_ms", b.setup_median_s() * ms);
    b.layer("gen.queries", queries as f64);
    b.layer("gen.ms", spans.gen_s * ms);
    b.layer("streaming.queries", queries as f64);
    b.layer("streaming.push_ms", spans.push_s * ms);
    b.layer("streaming.ns_per_query", push_ns_per_query);
    b.layer("streaming.tiered_ns_per_query", push_ns_per_query);
    b.layer("streaming.windows_closed", outcome.windows.len() as f64);
    b.layer("streaming.reconfigurations", outcome.events.len() as f64);
    b.layer(
        "tier.preemptions",
        outcome
            .tier_totals
            .iter()
            .map(|t| t.preemptions)
            .sum::<u64>() as f64,
    );
    b.layer(
        "tier.admission_drops",
        outcome
            .tier_totals
            .iter()
            .map(|t| t.admission_drops)
            .sum::<u64>() as f64,
    );
    b.layer("online.bootstrap_ms", spans.bootstrap_s * ms);
    b.layer("online.windows", outcome.windows.len() as f64);
    b.layer("online.observe_ms", spans.observe_s * ms);
    b.layer("online.replans", spans.replans as f64);
    b.layer("online.replan_ms", spans.replan_s * ms);
    let busy = spans.bootstrap_s + spans.gen_s + spans.push_s + spans.observe_s + spans.replan_s;
    b.trace_totals(traced_s, busy, 1);
    Ok(())
}

/// `ribbon::online::serve_online_tiered`, driven step by step from here with every
/// layer call timed. The scenario must be tiered and variant-free (this workload is).
fn drive(scenario: &Scenario) -> BenchResult<(OnlineOutcome, Spans)> {
    let mut spans = Spans::default();
    let workload = &scenario.workload;
    let settings = &scenario.online_settings;
    let policy = scenario.policy.clone();
    let traffic = scenario.require_traffic().map_err(|e| e.to_string())?;
    let tiers = scenario
        .tiers
        .clone()
        .ok_or("the scenario declares no tiers")?;
    if workload.has_variant_axis() {
        return Err("the traced serve drives variant-free workloads only".to_string());
    }

    let (controller, bootstrap_s) = timed(|| {
        OnlineController::bootstrap_with_policy(
            workload,
            &settings.initial_search,
            settings.controller.clone(),
            scenario.spec.seed,
            policy.clone(),
        )
    });
    spans.bootstrap_s = bootstrap_s;
    let mut controller = controller
        .ok_or("the initial search found no QoS-satisfying configuration")?
        .with_tiers(Some(tiers.clone()));
    let initial_config = controller.current_config().to_vec();
    let profile = workload.profile();
    let model: &dyn LatencyModel = &profile;
    let pool = workload.diverse_pool_spec(&initial_config);
    let mut sim = StreamingSim::new(
        &pool,
        model,
        StreamingSimConfig {
            target_latency_s: policy.deadline_s(),
            tail_percentile: policy.tail_percentile(),
            window: settings.window,
            spin_up_factor: settings.spin_up_factor,
        },
    );
    sim.enable_tiers(tiers.clone());
    let mut assigner = tiers.assigner();

    let mut windows = Vec::new();
    let mut events: Vec<ReconfigEvent> = Vec::new();
    let mut pending: Option<(PoolSpec, f64, usize)> = None;
    let mut closed = Vec::new();
    let mut stream = PhasedQueryStream::new(traffic.clone());
    let mut chunk: Vec<Query> = Vec::with_capacity(CHUNK);
    loop {
        let t = Instant::now();
        chunk.clear();
        chunk.extend(stream.by_ref().take(CHUNK));
        spans.gen_s += t.elapsed().as_secs_f64();
        if chunk.is_empty() {
            break;
        }
        let t = Instant::now();
        let mut control_s = 0.0;
        for q in &chunk {
            if let Some((final_pool, apply_at, idx)) = pending.take() {
                if q.arrival >= apply_at {
                    events[idx].completed = Some(sim.reconfigure(&final_pool, apply_at));
                } else {
                    pending = Some((final_pool, apply_at, idx));
                }
            }
            sim.push_tiered_into(q, assigner.next_tier(), &mut closed);
            for w in closed.drain(..) {
                let end_s = w.end_s;
                let replans_before = controller.replans();
                let (action, s) = timed(|| controller.observe_action(&w));
                control_s += s;
                if controller.replans() > replans_before {
                    spans.replan_s += s;
                } else {
                    spans.observe_s += s;
                }
                match action {
                    Some(ControllerAction::Reconfig(plan)) => {
                        // Make-before-break, exactly as the serve loop applies it.
                        pending = None;
                        let new_pool = workload.diverse_pool_spec(&plan.config);
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
                    Some(ControllerAction::SwitchVariant { .. }) => {
                        return Err("variant switch on a variant-free workload".to_string());
                    }
                    None => {}
                }
                windows.push(w);
            }
        }
        spans.push_s += t.elapsed().as_secs_f64() - control_s;
    }
    let t = Instant::now();
    if let Some((final_pool, apply_at, idx)) = pending.take() {
        events[idx].completed = Some(sim.reconfigure(&final_pool, apply_at));
    }
    windows.extend(sim.finish_windows());
    spans.push_s += t.elapsed().as_secs_f64();
    spans.replans = controller.replans();

    let stats = sim.stats();
    let duration_s = stats.makespan.max(sim.clock());
    let outcome = OnlineOutcome {
        initial_config,
        windows,
        events,
        variant_events: Vec::new(),
        variant_served: sim.variant_served().to_vec(),
        final_variant: sim.serving_variant(),
        total_cost_usd: sim.cost_so_far(duration_s),
        duration_s,
        final_config: controller.current_config().to_vec(),
        final_hourly_cost: sim.current_pool().hourly_cost(),
        tier_totals: sim.tier_totals().to_vec(),
        tiers: Some(tiers),
        stats,
    };
    Ok((outcome, spans))
}
