//! `perfsnap` — the perf-trajectory snapshot harness.
//!
//! Runs the fixed hot-path scenario suite of [`ribbon_bench::perf`] and writes
//! `BENCH_PR10.json` with wall times for the instrumented hot paths:
//!
//! 1. **simulate** — one 20 000-query stream on a 40-instance six-type pool: reference
//!    linear scan vs. event-driven heap vs. the lean stats path;
//! 2. **evaluate_many** — a 16-configuration batch through the parallel evaluator;
//! 3. **bo_search** — the 30-evaluation RIBBON search on the ~1.77 M-point lattice;
//! 4. **online_serving** — the flash-crowd online scenario: streaming simulation with
//!    windowed monitoring and mid-stream controller reconfigurations. The controller's
//!    decision sequence is pinned as a second golden trace
//!    (`crates/bench/golden/online_trace.txt`);
//! 5. **fleet_serving** — the two-model fleet scenario (PR 5): joint plan, then both
//!    models served through the sharded fleet drive. The plan's allocation and every
//!    member's decision sequence are pinned as a third golden trace
//!    (`crates/bench/golden/fleet_trace.txt`), re-verified at **shard counts 1, 2,
//!    and 4** — the serve drive must be bit-identical at every count;
//! 6. **streaming_scale** — the PR 6 tentpole scenario: ten million queries (eight
//!    lanes × 1.25 M) through the sharded constant-memory streaming engine, reporting
//!    end-to-end queries/s and queries/min;
//! 7. **batched_search** — the PR 7 tentpole scenario: the same 30-evaluation hot-path
//!    search driven through the ask/tell `SearchDriver` with `batch = 8` parallel asks
//!    and `fidelity = 0.25` successive halving, timed unconditionally every run and
//!    reported with its exact reduced-fidelity spend;
//! 8. **variant_search** — the PR 9 tentpole scenario: the joint variant × pool search
//!    over MT-WND's three-entry precision palette (a six-dimensional
//!    `[c_0..c_2, v_0..v_2]` lattice), reporting the mixed-precision plan's cost,
//!    chosen per-type variants, and worst served accuracy;
//! 9. **tiered_serving** — the PR 10 tentpole scenario: the flash-crowd trace split into
//!    premium / standard / best-effort QoS tiers, served with tier-aware dispatch
//!    (premium firm-clock preemption, best-effort admission caps), reporting per-tier
//!    satisfaction, admission drops, and preemptions.
//!
//! The search, online, and fleet scenarios all run **through the declarative façades**
//! (`ribbon::scenario` / `ribbon::fleet`), so the pinned goldens cover spec compilation
//! and the planner layers in addition to the engines underneath.
//!
//! Usage:
//!
//! ```text
//! perfsnap                    # timing suite, writes BENCH_PR10.json
//! perfsnap --check            # also verify the three golden traces (CI mode) and the
//!                             # fleet trace's shard invariance
//! perfsnap --bless            # rewrite all three golden trace files
//! perfsnap --compare F.json   # diff this run against a prior snapshot; exit 1 when a
//!                             # hot-path metric regressed by more than 25%
//! ```
//!
//! Timings are machine-dependent and informational; the **traces** are deterministic and
//! are what `--check` pins. The `--compare` gate and the snapshot schema are documented
//! in `crates/bench/README.md`; subsequent PRs diff their own snapshot against the
//! committed `BENCH_PR9.json` (and its predecessors) to keep the perf trajectory
//! visible.

use ribbon_bench::perf::{
    fleet_trace_lines, hotpath_evaluator, hotpath_workload, online_trace_lines,
    run_batched_hotpath_search, run_fleet_scenario_with_shards, run_hotpath_search,
    run_online_scenario, run_streaming_scale, run_tiered_scenario, run_variant_search,
    streaming_scale_profile, streaming_scale_streams, trace_lines, BATCHED_SEARCH_BATCH,
    BATCHED_SEARCH_FIDELITY, FLEET_SEED, HOTPATH_BOUND, HOTPATH_EVALUATIONS, HOTPATH_QUERIES,
    HOTPATH_SEED, ONLINE_DURATION_S, ONLINE_SEED, STREAMING_SCALE_MODELS, STREAMING_SCALE_QUERIES,
    TIERED_DURATION_S, TIERED_SEED, VARIANT_SEARCH_EVALUATIONS, VARIANT_SEARCH_SEED,
};
use ribbon_cloudsim::parallel::default_threads;
use ribbon_cloudsim::{sim, simulate_stats, PoolSpec};
use std::time::Instant;

const GOLDEN_PATH: &str = "crates/bench/golden/search_trace.txt";
const ONLINE_GOLDEN_PATH: &str = "crates/bench/golden/online_trace.txt";
const FLEET_GOLDEN_PATH: &str = "crates/bench/golden/fleet_trace.txt";
const OUT_PATH: &str = "BENCH_PR10.json";

/// A hot-path metric regresses when it is worse than the prior snapshot by more than
/// this factor (times for lower-is-better, throughput for higher-is-better).
const REGRESSION_FACTOR: f64 = 1.25;

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

/// Median-of-`runs` wall time in milliseconds of `f`.
fn time_ms<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t)
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Blesses and/or checks one golden trace file: on `--bless` rewrites it, on `--check`
/// compares line by line and exits non-zero at the first divergence.
fn golden_gate(path: &str, what: &str, lines: &[String], bless: bool, check: bool) {
    if bless {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create golden dir");
        }
        std::fs::write(path, lines.join("\n") + "\n").expect("write golden trace");
        println!("blessed {what} -> {path}");
    }
    if check {
        let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perfsnap --check: cannot read {path}: {e}");
            std::process::exit(1);
        });
        let golden_lines: Vec<&str> = golden.lines().collect();
        if golden_lines != lines.iter().map(String::as_str).collect::<Vec<_>>() {
            eprintln!("perfsnap --check: {what} diverged from {path}");
            for (i, (g, got)) in golden_lines.iter().zip(lines).enumerate() {
                if g != got {
                    eprintln!(
                        "  first divergence at line {i}:\n    golden: {g}\n    got:    {got}"
                    );
                    break;
                }
            }
            if golden_lines.len() != lines.len() {
                eprintln!(
                    "  length mismatch: golden {} vs got {}",
                    golden_lines.len(),
                    lines.len()
                );
            }
            std::process::exit(1);
        }
        println!("golden {what} verified ({} lines)", lines.len());
    }
}

struct SimulateScenario {
    instances: usize,
    reference_ms: f64,
    heap_ms: f64,
    stats_ms: f64,
}

fn run_simulate_scenario() -> SimulateScenario {
    let workload = hotpath_workload();
    let profile = workload.profile();
    let queries = workload.stream_config().generate();
    // A "hundreds of instances" pool — the scale where the O(Q·N) scan visibly loses to
    // the O(Q·log N) event queue.
    let pool = PoolSpec::from_counts(&workload.diverse_pool, &[30, 35, 30, 40, 35, 30]);
    let instances = pool.total_instances() as usize;
    let target = workload.qos.latency_target_s;

    // Correctness gate before timing: heap and scan must agree bit for bit.
    let fast = sim::simulate(&pool, &queries, &profile);
    let slow = sim::reference::simulate(&pool, &queries, &profile);
    assert_eq!(fast.latencies, slow.latencies, "heap/scan divergence");
    assert_eq!(fast.assigned_instance, slow.assigned_instance);

    let reference_ms = time_ms(5, || {
        std::hint::black_box(sim::reference::simulate(&pool, &queries, &profile));
    });
    let heap_ms = time_ms(5, || {
        std::hint::black_box(sim::simulate(&pool, &queries, &profile));
    });
    let stats_ms = time_ms(5, || {
        std::hint::black_box(simulate_stats(&pool, &queries, &profile, target, 99.0));
    });
    SimulateScenario {
        instances,
        reference_ms,
        heap_ms,
        stats_ms,
    }
}

fn run_evaluate_many_scenario() -> (usize, f64) {
    let configs: Vec<Vec<u32>> = (0..16u32)
        .map(|i| vec![1 + i % 5, i % 4, (i * 3) % 5, i % 3, (i * 7) % 4, 1 + i % 6])
        .collect();
    // One pre-built evaluator per timing run: a fresh one keeps the shared cache from
    // hiding the simulations, and building it outside the timed region keeps query-stream
    // generation out of the metric.
    let mut evaluators: Vec<_> = (0..3).map(|_| hotpath_evaluator()).collect();
    let wall = time_ms(3, || {
        let evaluator = evaluators.pop().expect("one evaluator per timing run");
        std::hint::black_box(evaluator.evaluate_many(&configs));
    });
    (configs.len(), wall)
}

/// One hot-path metric of the snapshot, for the `--compare` regression gate.
struct Metric {
    /// JSON path in the snapshot, `section.key`.
    path: &'static str,
    current: f64,
    /// `false` for wall times (lower is better), `true` for throughput.
    higher_better: bool,
}

/// Reads `section.key` as a number from a parsed snapshot.
fn snapshot_f64(root: &ribbon_spec::Value, path: &str) -> Option<f64> {
    let (section, key) = path.split_once('.')?;
    root.get(section)?.get(key)?.as_f64()
}

/// Renders one comparison row and says whether the metric regressed.
///
/// A prior value that is absent (older schema) is "new"; one that is non-positive or
/// non-finite is "skipped" — the JSON writer maps non-finite floats to `null` and the
/// parser reads `null` back as NaN, and every NaN comparison is false, so without the
/// finiteness guard a null-keyed prior would silently disable the gate for that row
/// *and* render a NaN change column.
fn metric_row(prior_v: Option<f64>, m: &Metric) -> (String, bool) {
    match prior_v {
        None => (
            format!("| `{}` | — | {:.2} | — | new |", m.path, m.current),
            false,
        ),
        Some(prior_v) if !prior_v.is_finite() || prior_v <= 0.0 => (
            format!(
                "| `{}` | {prior_v:.2} | {:.2} | — | skipped |",
                m.path, m.current
            ),
            false,
        ),
        Some(prior_v) => {
            let ratio = m.current / prior_v;
            let regressed = if m.higher_better {
                m.current * REGRESSION_FACTOR < prior_v
            } else {
                m.current > prior_v * REGRESSION_FACTOR
            };
            let change = format!("{:+.1}%", (ratio - 1.0) * 100.0);
            let status = if regressed { "**REGRESSED**" } else { "ok" };
            (
                format!(
                    "| `{}` | {prior_v:.2} | {:.2} | {change} | {status} |",
                    m.path, m.current
                ),
                regressed,
            )
        }
    }
}

/// Diffs this run's hot-path metrics against a prior snapshot: prints a markdown table
/// (appended to `$GITHUB_STEP_SUMMARY` when set) and returns `false` when any metric
/// regressed by more than [`REGRESSION_FACTOR`]. Metrics the prior snapshot lacks
/// (older schema) are reported as new and never fail the gate.
fn compare_snapshots(prior_path: &str, metrics: &[Metric]) -> bool {
    let text = std::fs::read_to_string(prior_path).unwrap_or_else(|e| {
        eprintln!("perfsnap --compare: cannot read {prior_path}: {e}");
        std::process::exit(1);
    });
    let prior = ribbon_spec::Format::from_path(prior_path)
        .parse(&text)
        .unwrap_or_else(|e| {
            eprintln!("perfsnap --compare: cannot parse {prior_path}: {e}");
            std::process::exit(1);
        });
    let prior_pr = prior.get("pr").and_then(|v| v.as_f64());

    let mut table = vec![
        format!(
            "### perfsnap: this run vs {prior_path}{}",
            prior_pr.map_or(String::new(), |pr| format!(" (PR {pr:.0})"))
        ),
        String::new(),
        "| metric | prior | current | change | status |".to_string(),
        "|---|---:|---:|---:|---|".to_string(),
    ];
    let mut ok = true;
    for m in metrics {
        let (row, regressed) = metric_row(snapshot_f64(&prior, m.path), m);
        ok &= !regressed;
        table.push(row);
    }
    table.push(String::new());
    table.push(format!(
        "Gate: a wall-time metric more than {:.0}% slower (or throughput more than \
         {:.0}% lower) than the prior snapshot fails the run.",
        (REGRESSION_FACTOR - 1.0) * 100.0,
        (1.0 - 1.0 / REGRESSION_FACTOR) * 100.0,
    ));
    let rendered = table.join("\n");
    println!("{rendered}");
    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(summary)
        {
            let _ = writeln!(f, "{rendered}");
        }
    }
    ok
}

fn main() {
    let mut check = false;
    let mut bless = false;
    let mut compare: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--bless" => bless = true,
            "--compare" => match it.next() {
                Some(path) => compare = Some(path.clone()),
                None => {
                    eprintln!("perfsnap: --compare needs a snapshot path");
                    std::process::exit(2);
                }
            },
            unknown => {
                eprintln!(
                    "perfsnap: unknown argument {unknown} (expected --check, --bless \
                     and/or --compare <snapshot.json>)"
                );
                std::process::exit(2);
            }
        }
    }

    println!(
        "perfsnap: hot-path scenario = 6 types, bounds {HOTPATH_BOUND}, \
         {HOTPATH_QUERIES} queries, {HOTPATH_EVALUATIONS} evaluations, seed {HOTPATH_SEED}"
    );

    println!("[1/9] simulate: reference scan vs event-driven heap vs lean stats ...");
    let simu = run_simulate_scenario();
    println!(
        "      reference {:.2} ms | heap {:.2} ms ({:.2}x) | stats {:.2} ms ({:.2}x)",
        simu.reference_ms,
        simu.heap_ms,
        simu.reference_ms / simu.heap_ms,
        simu.stats_ms,
        simu.reference_ms / simu.stats_ms,
    );

    println!("[2/9] evaluate_many: 16-configuration parallel batch ...");
    let (batch, evaluate_many_ms) = run_evaluate_many_scenario();
    println!("      {evaluate_many_ms:.2} ms for {batch} configurations");

    println!("[3/9] bo_search: {HOTPATH_EVALUATIONS}-evaluation RIBBON search ...");
    let t = Instant::now();
    let incremental_trace = run_hotpath_search();
    let incremental_ms = ms(t);
    println!(
        "      incremental surrogate: {incremental_ms:.2} ms, {} evaluations",
        incremental_trace.len()
    );

    println!(
        "[4/9] online_serving: flash-crowd trace, {ONLINE_DURATION_S:.0} s, seed {ONLINE_SEED} ..."
    );
    let t = Instant::now();
    let online = run_online_scenario();
    let online_ms = ms(t);
    println!(
        "      {online_ms:.2} ms end-to-end: {} queries, {} windows, {} reconfigurations, \
         satisfaction {:.4}, total ${:.4}",
        online.queries,
        online.windows,
        online.events.len(),
        online.satisfaction_rate.unwrap_or(f64::NAN),
        online.total_cost_usd,
    );
    for e in &online.events {
        println!(
            "      w{} {} -> {:?} (planned {:.0} qps)",
            e.window_index, e.trigger, e.config, e.planned_qps
        );
    }

    println!("[5/9] fleet_serving: two-model joint plan + sharded serve, seed {FLEET_SEED} ...");
    let t = Instant::now();
    let fleet = run_fleet_scenario_with_shards(None);
    let fleet_ms = ms(t);
    let fleet_totals = fleet.serve.as_ref().expect("serve mode fills fleet totals");
    println!(
        "      {fleet_ms:.2} ms end-to-end: {} joint evaluations, shared {:?}, \
         total ${:.2}/hr vs dedicated ${:.2}/hr, {} queries served, {} reconfiguration(s)",
        fleet.evaluations,
        fleet.shared_config,
        fleet.total_hourly_cost,
        fleet.baseline_total_hourly_cost.unwrap_or(f64::NAN),
        fleet_totals.queries,
        fleet_totals.reconfigurations,
    );
    for m in &fleet.models {
        let serve = m.serve.as_ref().expect("member serve section");
        println!(
            "      {}: {} queries ({} shared), satisfaction {:.4}, {} event(s)",
            m.name,
            serve.queries,
            serve.shared_queries,
            serve.satisfaction_rate.unwrap_or(f64::NAN),
            serve.events.len(),
        );
    }
    let fleet_lines = fleet_trace_lines(&fleet);
    if check {
        // The serve drive must be bit-identical at every shard count: re-run the fleet
        // scenario pinned to 1, 2, and 4 worker shards and require the same trace.
        for shards in [1usize, 2, 4] {
            let rerun = fleet_trace_lines(&run_fleet_scenario_with_shards(Some(shards)));
            assert_eq!(
                rerun, fleet_lines,
                "fleet serve trace diverged at shards={shards}"
            );
        }
        println!("      fleet trace shard-invariant at shards 1, 2, 4");
    }

    let scale_shards = default_threads();
    println!(
        "[6/9] streaming_scale: {STREAMING_SCALE_MODELS} lanes x {STREAMING_SCALE_QUERIES} \
         queries through the sharded engine, {scale_shards} shard(s) ..."
    );
    let scale_profile = streaming_scale_profile();
    let scale_streams = streaming_scale_streams();
    let scale_queries: usize = scale_streams.iter().map(Vec::len).sum();
    let t = Instant::now();
    let scale = run_streaming_scale(&scale_profile, &scale_streams, scale_shards);
    let scale_ms = ms(t);
    let scale_windows: usize = scale.windows.iter().map(Vec::len).sum();
    let scale_qps = scale_queries as f64 / (scale_ms / 1e3);
    println!(
        "      {scale_ms:.2} ms for {scale_queries} queries ({scale_windows} windows): \
         {:.2} M queries/s, {:.0} M queries/min",
        scale_qps / 1e6,
        scale_qps * 60.0 / 1e6,
    );
    drop(scale);

    println!(
        "[7/9] batched_search: {HOTPATH_EVALUATIONS}-evaluation search, batch \
         {BATCHED_SEARCH_BATCH}, fidelity {BATCHED_SEARCH_FIDELITY} ..."
    );
    let t = Instant::now();
    let batched_trace = run_batched_hotpath_search();
    let batched_ms = ms(t);
    let batched_best = batched_trace
        .best_satisfying()
        .expect("the batched search finds a satisfying configuration");
    println!(
        "      {batched_ms:.2} ms: {} full evaluations + {} prefix-discarded estimates \
         ({:.2} full-sim equivalents of prefix spend), best ${:.4}/hr; \
         speedup vs one-at-a-time bo_search {:.2}x",
        batched_trace.len(),
        batched_trace.estimates.len(),
        batched_trace.fidelity.full_equivalents(),
        batched_best.hourly_cost,
        incremental_ms / batched_ms,
    );

    println!(
        "[8/9] variant_search: {VARIANT_SEARCH_EVALUATIONS}-evaluation joint variant x pool \
         search, seed {VARIANT_SEARCH_SEED} ..."
    );
    let t = Instant::now();
    let variant_plan = run_variant_search();
    let variant_ms = ms(t);
    let variant_names = variant_plan
        .variants
        .clone()
        .expect("the variant scenario fills per-type variants");
    println!(
        "      {variant_ms:.2} ms: {} evaluations, best ${:.4}/hr serving {} \
         (worst accuracy {:.4})",
        variant_plan.trace.len(),
        variant_plan
            .best_hourly_cost
            .expect("the variant search finds a satisfying plan"),
        variant_names.join(" / "),
        variant_plan
            .worst_accuracy
            .expect("the variant scenario fills worst accuracy"),
    );

    println!(
        "[9/9] tiered_serving: flash-crowd trace split into QoS tiers, \
         {TIERED_DURATION_S:.0} s, seed {TIERED_SEED} ..."
    );
    let t = Instant::now();
    let tiered = run_tiered_scenario();
    let tiered_ms = ms(t);
    assert!(
        !tiered.tiers.is_empty(),
        "the tiered scenario reports per-tier rows"
    );
    for row in &tiered.tiers {
        println!(
            "      tier {} ({}): {} served, satisfaction {}, {} dropped, {} preemption(s)",
            row.name,
            row.class,
            row.served,
            row.satisfaction_rate
                .map_or("n/a".to_string(), |r| format!("{r:.4}")),
            row.admission_drops,
            row.preemptions,
        );
    }
    println!(
        "      {tiered_ms:.2} ms: {} queries, {} windows, {} reconfigurations",
        tiered.queries,
        tiered.windows,
        tiered.events.len(),
    );

    let lines = trace_lines(&incremental_trace);
    let online_lines = online_trace_lines(&online);
    golden_gate(GOLDEN_PATH, "search trace", &lines, bless, check);
    golden_gate(
        ONLINE_GOLDEN_PATH,
        "online decision trace",
        &online_lines,
        bless,
        check,
    );
    golden_gate(
        FLEET_GOLDEN_PATH,
        "fleet decision trace",
        &fleet_lines,
        bless,
        check,
    );

    // Hand-rolled JSON (the workspace deliberately vendors no serde_json).
    let online_json: Vec<String> = online
        .events
        .iter()
        .map(|e| {
            let cfg: Vec<String> = e.config.iter().map(|c| c.to_string()).collect();
            format!(
                "      {{\"window\": {}, \"trigger\": \"{}\", \"config\": [{}], \"planned_qps\": {:.2}, \"transition_cost_usd\": {:.6}}}",
                e.window_index,
                e.trigger,
                cfg.join(", "),
                e.planned_qps,
                e.transition_cost_usd
            )
        })
        .collect();
    let trace_json: Vec<String> = incremental_trace
        .evaluations()
        .iter()
        .map(|e| {
            let cfg: Vec<String> = e.config.iter().map(|c| c.to_string()).collect();
            format!(
                "      {{\"config\": [{}], \"objective\": {:.17}, \"objective_bits\": \"{:#018x}\", \"hourly_cost\": {:.4}, \"meets_qos\": {}}}",
                cfg.join(", "),
                e.objective,
                e.objective.to_bits(),
                e.hourly_cost,
                e.meets_qos
            )
        })
        .collect();
    let fleet_models_json: Vec<String> = fleet
        .models
        .iter()
        .map(|m| {
            let serve = m.serve.as_ref().expect("member serve section");
            format!(
                "      {{\"name\": \"{}\", \"queries\": {}, \"shared_queries\": {}, \"satisfaction_bits\": \"{:#018x}\", \"events\": {}}}",
                m.name,
                serve.queries,
                serve.shared_queries,
                serve.satisfaction_rate.unwrap_or(f64::NAN).to_bits(),
                serve.events.len()
            )
        })
        .collect();
    let variant_names_json: Vec<String> =
        variant_names.iter().map(|n| format!("\"{n}\"")).collect();
    let tiered_rows_json: Vec<String> = tiered
        .tiers
        .iter()
        .map(|row| {
            format!(
                "      {{\"name\": \"{}\", \"class\": \"{}\", \"served\": {}, \"satisfaction_bits\": \"{:#018x}\", \"admission_drops\": {}, \"preemptions\": {}}}",
                row.name,
                row.class,
                row.served,
                row.satisfaction_rate.unwrap_or(f64::NAN).to_bits(),
                row.admission_drops,
                row.preemptions
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "pr": 10,
  "scenario": {{
    "types": 6,
    "per_type_bound": {HOTPATH_BOUND},
    "queries": {HOTPATH_QUERIES},
    "evaluations": {HOTPATH_EVALUATIONS},
    "seed": {HOTPATH_SEED}
  }},
  "simulate": {{
    "instances": {},
    "reference_scan_ms": {:.2},
    "event_driven_ms": {:.2},
    "lean_stats_ms": {:.2},
    "speedup_vs_reference": {:.2}
  }},
  "evaluate_many": {{
    "batch": {batch},
    "wall_ms": {:.2}
  }},
  "online_serving": {{
    "scenario": "flash-crowd",
    "duration_s": {ONLINE_DURATION_S:.1},
    "seed": {ONLINE_SEED},
    "queries": {},
    "windows": {},
    "reconfigurations": {},
    "satisfaction_bits": "{:#018x}",
    "total_cost_usd": {:.6},
    "wall_ms": {:.2},
    "decisions": [
{}
    ]
  }},
  "fleet_serving": {{
    "scenario": "rec-duo-serve",
    "seed": {FLEET_SEED},
    "joint_evaluations": {},
    "total_hourly_cost": {:.6},
    "baseline_total_hourly_cost": {},
    "total_cost_usd_bits": "{:#018x}",
    "wall_ms": {:.2},
    "models": [
{}
    ]
  }},
  "streaming_scale": {{
    "models": {STREAMING_SCALE_MODELS},
    "queries": {scale_queries},
    "shards": {scale_shards},
    "windows": {scale_windows},
    "wall_ms": {scale_ms:.2},
    "queries_per_s": {:.0},
    "queries_per_min": {:.0}
  }},
  "batched_search": {{
    "batch": {BATCHED_SEARCH_BATCH},
    "fidelity": {BATCHED_SEARCH_FIDELITY},
    "evaluations": {},
    "estimates": {},
    "prefix_full_equivalents": {:.4},
    "best_hourly_cost": {:.4},
    "wall_ms": {:.2},
    "speedup_vs_incremental": {:.2}
  }},
  "variant_search": {{
    "scenario": "mtwnd-variant-plan",
    "seed": {VARIANT_SEARCH_SEED},
    "evaluations": {},
    "best_hourly_cost": {:.4},
    "best_hourly_cost_bits": "{:#018x}",
    "variants": [{}],
    "worst_accuracy": {:.4},
    "wall_ms": {:.2}
  }},
  "tiered_serving": {{
    "scenario": "mtwnd-tiered-flash",
    "seed": {TIERED_SEED},
    "duration_s": {TIERED_DURATION_S:.1},
    "queries": {},
    "windows": {},
    "reconfigurations": {},
    "satisfaction_bits": "{:#018x}",
    "total_cost_usd": {:.6},
    "wall_ms": {:.2},
    "tiers": [
{}
    ]
  }},
  "bo_search": {{
    "incremental_ms": {:.2},
    "pre_pr_baseline": {{
      "commit": "00a9fdb",
      "wall_ms": 125551.0,
      "measured": "2026-07-29, reference machine, worktree build of the pre-PR commit",
      "note": "true pre-PR code (per-suggest lattice re-enumeration, full GP grid refit, allocating per-candidate prediction with per-eval rounding) on this exact scenario; its 30-evaluation trace is bit-identical to this PR's golden trace"
    }},
    "trace": [
{}
    ]
  }}
}}
"#,
        simu.instances,
        simu.reference_ms,
        simu.heap_ms,
        simu.stats_ms,
        simu.reference_ms / simu.stats_ms,
        evaluate_many_ms,
        online.queries,
        online.windows,
        online.events.len(),
        online.satisfaction_rate.unwrap_or(f64::NAN).to_bits(),
        online.total_cost_usd,
        online_ms,
        online_json.join(",\n"),
        fleet.evaluations,
        fleet.total_hourly_cost,
        fleet
            .baseline_total_hourly_cost
            .map_or("null".to_string(), |b| format!("{b:.6}")),
        fleet_totals.total_cost_usd.to_bits(),
        fleet_ms,
        fleet_models_json.join(",\n"),
        scale_qps,
        scale_qps * 60.0,
        batched_trace.len(),
        batched_trace.estimates.len(),
        batched_trace.fidelity.full_equivalents(),
        batched_best.hourly_cost,
        batched_ms,
        incremental_ms / batched_ms,
        variant_plan.trace.len(),
        variant_plan.best_hourly_cost.unwrap(),
        variant_plan.best_hourly_cost.unwrap().to_bits(),
        variant_names_json.join(", "),
        variant_plan.worst_accuracy.unwrap(),
        variant_ms,
        tiered.queries,
        tiered.windows,
        tiered.events.len(),
        tiered.satisfaction_rate.unwrap_or(f64::NAN).to_bits(),
        tiered.total_cost_usd,
        tiered_ms,
        tiered_rows_json.join(",\n"),
        incremental_ms,
        trace_json.join(",\n"),
    );
    std::fs::write(OUT_PATH, json).expect("write snapshot json");
    println!("wrote {OUT_PATH}");

    if let Some(prior) = compare {
        let metrics = [
            Metric {
                path: "simulate.event_driven_ms",
                current: simu.heap_ms,
                higher_better: false,
            },
            Metric {
                path: "simulate.lean_stats_ms",
                current: simu.stats_ms,
                higher_better: false,
            },
            Metric {
                path: "evaluate_many.wall_ms",
                current: evaluate_many_ms,
                higher_better: false,
            },
            Metric {
                path: "online_serving.wall_ms",
                current: online_ms,
                higher_better: false,
            },
            Metric {
                path: "streaming_scale.queries_per_s",
                current: scale_qps,
                higher_better: true,
            },
            Metric {
                path: "batched_search.wall_ms",
                current: batched_ms,
                higher_better: false,
            },
            Metric {
                path: "variant_search.wall_ms",
                current: variant_ms,
                higher_better: false,
            },
            Metric {
                path: "tiered_serving.wall_ms",
                current: tiered_ms,
                higher_better: false,
            },
        ];
        if !compare_snapshots(&prior, &metrics) {
            eprintln!("perfsnap --compare: hot-path regression beyond 25% — failing");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(path: &'static str, current: f64, higher_better: bool) -> Metric {
        Metric {
            path,
            current,
            higher_better,
        }
    }

    /// A prior snapshot written by an older run can hold `null` where a metric was
    /// non-finite (the JSON writer maps NaN/inf there); the parser reads it back as
    /// NaN. Such rows must be skipped, not silently compared (every NaN comparison is
    /// false, which would render a NaN change column and disable the gate unnoticed).
    #[test]
    fn null_keyed_prior_rows_are_skipped() {
        let prior = ribbon_spec::Format::Json
            .parse(r#"{"pr": 9, "online_serving": {"wall_ms": null}}"#)
            .unwrap();
        let m = metric("online_serving.wall_ms", 120.0, false);
        let prior_v = snapshot_f64(&prior, m.path).expect("the key is present");
        assert!(prior_v.is_nan(), "null parses to NaN by contract");
        let (row, regressed) = metric_row(Some(prior_v), &m);
        assert!(!regressed, "a skipped row never fails the gate");
        assert!(row.contains("skipped"), "row: {row}");
        assert!(!row.contains("NaN%"), "no NaN change column: {row}");
    }

    #[test]
    fn missing_and_nonpositive_priors_never_gate() {
        let m = metric("simulate.heap_ms", 50.0, false);
        let (row, regressed) = metric_row(None, &m);
        assert!(row.contains("new") && !regressed);
        let (row, regressed) = metric_row(Some(0.0), &m);
        assert!(row.contains("skipped") && !regressed);
    }

    #[test]
    fn finite_priors_gate_in_the_right_direction() {
        // Wall time: 25% slower than prior fails, faster never does.
        let slow = metric("simulate.heap_ms", 130.0, false);
        assert!(metric_row(Some(100.0), &slow).1, "30% slower regresses");
        let fast = metric("simulate.heap_ms", 80.0, false);
        assert!(!metric_row(Some(100.0), &fast).1);
        // Throughput: lower is the regression.
        let dropped = metric("streaming_scale.queries_per_s", 70.0, true);
        assert!(metric_row(Some(100.0), &dropped).1, "30% lower regresses");
        let raised = metric("streaming_scale.queries_per_s", 130.0, true);
        assert!(!metric_row(Some(100.0), &raised).1);
    }
}
