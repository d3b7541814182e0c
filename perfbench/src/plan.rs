//! `plan-hotpath`: the 30-evaluation, one-at-a-time RIBBON search of
//! `scenarios/mtwnd_hotpath_search.toml` (six types, bound 10: a 1.77 M-point lattice,
//! 20 000-query streams). At its default seed it reproduces the golden search trace.
//!
//! The timed call is `Scenario::run`. The traced run drives the same search from here:
//! `BoOptimizer::ask_batch` → `ConfigEvaluator::evaluate_many` → `BoOptimizer::tell`
//! with `RibbonSearch::outcome_rule`, then replays the GP updates and the simulations in
//! isolation on the search's own inputs.

use crate::{load_scenario, timed, Bench, BenchResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ribbon::scenario::Scenario;
use ribbon::search::{RibbonSearch, SearchTrace};
use ribbon_bench::perf::trace_lines;
use ribbon_bo::ConfigLattice;
use ribbon_cloudsim::{simulate_stats, QosEvidence};
use ribbon_gp::IncrementalGridGp;

const SPEC: &str = "scenarios/mtwnd_hotpath_search.toml";

/// The scenario file's own seed: the golden trace is pinned at this seed.
pub(crate) const DEFAULT_SEED: u64 = 2;

const GOLDEN: &str = include_str!("../../crates/bench/golden/search_trace.txt");

fn search(scenario: &Scenario) -> BenchResult<SearchTrace> {
    let report = scenario.run().map_err(|e| e.to_string())?;
    report
        .plan
        .map(|p| p.trace)
        .ok_or_else(|| "plan mode filled no plan section".to_string())
}

pub(crate) fn run(b: &mut Bench, seed: u64) -> BenchResult<()> {
    let (scenario, trace) = b.measure(
        || load_scenario(SPEC, seed, DEFAULT_SEED, |_| {}),
        search,
        |t| trace_lines(t).join("\n"),
    )?;

    let best = trace
        .best_satisfying()
        .ok_or("the search found no QoS-satisfying pool")?;
    // The search's evaluation traffic is the stream every configuration is judged on;
    // serving it once per evaluation is what the exploration bills.
    let stream = scenario.workload.stream_config().generate();
    let span_s = stream.last().map_or(0.0, |q| q.arrival);
    b.plan_cost_usd_hr = best.hourly_cost;
    b.serve_cost_usd = trace.exploration_cost() * span_s / 3600.0;
    b.qos_satisfaction = best.satisfaction_rate;
    b.queries_per_run = (trace.len() * stream.len()) as f64;
    b.operations_per_run = trace.len() as u64;

    if seed == DEFAULT_SEED {
        let got = trace_lines(&trace);
        let golden: Vec<&str> = GOLDEN.lines().collect();
        let first_diff = golden
            .iter()
            .zip(&got)
            .position(|(g, l)| g != l)
            .map_or(String::new(), |i| format!("; first divergence at line {i}"));
        b.check(
            "golden search trace",
            golden == got.iter().map(String::as_str).collect::<Vec<_>>(),
            format!("{} of {} lines{first_diff}", got.len(), golden.len()),
        );
    }
    if b.trace {
        traced(b, &scenario, &trace, stream.len())?;
    }
    Ok(())
}

/// The outside-driven search loop: one ask, one evaluation and one tell per step, each
/// timed, with the BO counters read between calls.
fn traced(
    b: &mut Bench,
    scenario: &Scenario,
    untraced: &SearchTrace,
    stream_len: usize,
) -> BenchResult<()> {
    let settings = &scenario.search_settings;
    let wall = std::time::Instant::now();
    let (evaluator, build_s) = timed(|| scenario.build_evaluator());
    let search = RibbonSearch::new(settings.clone());
    let mut bo = search.make_optimizer(&evaluator);
    let outcome_of = search.outcome_rule(&evaluator);
    let mut rng = StdRng::seed_from_u64(scenario.spec.seed);
    let mut trace = SearchTrace::new("RIBBON");
    let (mut ask_s, mut random_ask_s, mut eval_s, mut tell_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut asks, mut points_scored, mut pruned, mut configs) = (0usize, 0usize, 0usize, 0usize);
    // Observations folded into the surrogate at the first and the last acquisition ask.
    let (mut first_fit, mut folded) = (None, 0usize);
    while trace.len() < settings.max_evaluations {
        let random =
            bo.num_evaluations() < settings.initial_samples || bo.observations().is_empty();
        let open = bo.open_candidates().len();
        if !random {
            first_fit.get_or_insert(bo.observations().len());
            folded = bo.observations().len();
        }
        let (asked, s) = timed(|| bo.ask_batch(&mut rng, 1));
        let asked = match asked {
            Ok(batch) if !batch.is_empty() => batch,
            _ => break,
        };
        asks += 1;
        ask_s += s;
        if random {
            random_ask_s += s;
        } else {
            points_scored += open;
        }
        configs += asked.len();
        let (evals, s) = timed(|| evaluator.evaluate_many(&asked));
        eval_s += s;
        for eval in evals {
            let before = bo.open_candidates().len();
            let (recorded, s) = timed(|| bo.tell(outcome_of(&eval)).unwrap_or(false));
            tell_s += s;
            pruned += before - bo.open_candidates().len();
            if recorded {
                trace.evaluations.push(eval);
            }
        }
    }
    let traced_s = wall.elapsed().as_secs_f64();
    b.check(
        "traced search equals the untraced one",
        trace.evaluations == untraced.evaluations,
        format!("{} evaluations", trace.len()),
    );

    // GP: the same fit-then-append sequence the optimizer's surrogate went through.
    let obs = bo.observations();
    let x: Vec<Vec<f64>> = obs
        .iter()
        .map(|o| ConfigLattice::to_coords(&o.config))
        .collect();
    let y: Vec<f64> = obs.iter().map(|o| o.value).collect();
    let mut gp_s = 0.0;
    if let Some(first) = first_fit {
        let (gp, s) = timed(|| -> BenchResult<IncrementalGridGp> {
            let mut gp = IncrementalGridGp::fit(&x[..first], &y[..first], &settings.fit)
                .map_err(|e| e.to_string())?;
            for i in first..folded {
                gp.append(x[i].clone(), y[i]).map_err(|e| e.to_string())?;
            }
            Ok(gp)
        });
        gp?;
        gp_s = s;
    }

    // Simulation: every evaluated pool on the evaluator's own stream.
    let profile = scenario.workload.profile();
    let policy = &scenario.policy;
    let queries = evaluator.queries();
    let (replays, sim_s) = timed(|| {
        trace
            .evaluations
            .iter()
            .map(|e| {
                simulate_stats(
                    &e.pool,
                    queries,
                    &profile,
                    policy.deadline_s(),
                    policy.tail_percentile(),
                )
            })
            .collect::<Vec<_>>()
    });
    let conserved = replays.iter().all(|s| s.num_queries == stream_len);
    let same_rates = replays.iter().zip(&trace.evaluations).all(|(s, e)| {
        policy
            .score(&QosEvidence::from_stats(s))
            .unwrap_or(1.0)
            .to_bits()
            == e.satisfaction_rate.to_bits()
    });
    b.check(
        "arrivals = served + dropped per evaluation",
        conserved,
        format!(
            "{} simulations of {stream_len} queries, 0 drops",
            replays.len()
        ),
    );
    b.check(
        "simulation replay reproduces every satisfaction rate",
        same_rates,
        "",
    );

    let ms = 1e3;
    let simulations = evaluator.num_simulations();
    b.layer("scenario.compile_ms", b.setup_median_s() * ms);
    b.layer("bo.asks", asks as f64);
    b.layer("bo.ask_ms", ask_s * ms);
    b.layer("bo.random_ask_ms", random_ask_s * ms);
    b.layer("bo.points_scored", points_scored as f64);
    b.layer(
        "bo.points_per_s",
        points_scored as f64 / (ask_s - random_ask_s),
    );
    b.layer("bo.tell_ms", tell_s * ms);
    b.layer("bo.pruned_points", pruned as f64);
    b.layer("bo.scan_ms", (ask_s - gp_s - random_ask_s) * ms);
    b.layer("gp.appends", folded as f64);
    b.layer("gp.append_ms", gp_s * ms);
    b.layer("evaluator.configs", configs as f64);
    b.layer("evaluator.simulations", simulations as f64);
    b.layer(
        "evaluator.cache_hit_ratio",
        1.0 - simulations as f64 / configs as f64,
    );
    b.layer("evaluator.ms", (build_s + eval_s) * ms);
    b.layer("sim.queries", (replays.len() * stream_len) as f64);
    b.layer("sim.ms", sim_s * ms);
    b.trace_totals(traced_s, build_s + ask_s + eval_s + tell_s, 1);
    Ok(())
}
