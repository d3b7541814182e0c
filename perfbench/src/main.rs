//! Measurement side of the repository benchmark: runs one named workload in this process
//! and prints its raw samples, deterministic outputs, output checks and (with
//! `--trace 1`) per-layer numbers as one JSON document on stdout.
//!
//! `perfbench/run.py` builds this binary, runs it from the repository root and reduces
//! the raw samples to the metrics `BENCHMARK.json` names.
//!
//! ```text
//! perfbench --workload plan-hotpath --seed 2 --seconds 20 --trace 0
//! ```
//!
//! Every workload is open loop in simulated time: arrivals come from a seeded schedule
//! and no wall-clock generator exists, so generator lateness is zero by construction.
//! The untraced reps time only the workload's single public entry call; the traced run
//! drives the same work through the layers' public calls from here, timing each call.

mod diurnal;
mod fleet;
mod plan;
mod scale;

use ribbon::scenario::{Scenario, ScenarioSpec, TierReport};
use ribbon_cloudsim::TierSet;
use ribbon_spec::Value;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One `setup_s` sample is a batch of back-to-back set-ups lasting at least this long,
/// divided by the batch's size: a sub-millisecond set-up timed alone reads timer and
/// cache noise rather than its own cost.
const SETUP_SAMPLE_S: f64 = 0.02;

/// Set-up is sampled for this long before the first timed rep, and for
/// [`SETUP_PER_REP_S`] (at least one sample) before every later rep, so the median
/// spans the whole run; `setup_s` is the median sample.
const SETUP_FIRST_S: f64 = 0.25;
const SETUP_PER_REP_S: f64 = 0.1;

/// The workloads, with their default seeds (the bundled inputs at that seed).
const WORKLOADS: [(&str, u64); 4] = [
    ("plan-hotpath", plan::DEFAULT_SEED),
    ("serve-scale", scale::DEFAULT_SEED),
    ("serve-tiered-diurnal", diurnal::DEFAULT_SEED),
    ("fleet-tiered-mix", fleet::DEFAULT_SEED),
];

/// Result type of the workload modules: errors are reported and end the run.
pub(crate) type BenchResult<T> = Result<T, String>;

/// Times one call.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// Median of a non-empty sample.
fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The stream seed a workload uses under benchmark seed `seed`: `None` (the bundled
/// scenario's own stream) at the workload's default seed, a derived seed otherwise.
/// `salt` keeps the streams of different fleet members apart.
pub(crate) fn stream_seed(seed: u64, default_seed: u64, salt: u64) -> Option<u64> {
    (seed != default_seed).then(|| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
}

/// Loads and compiles a scenario file whose query streams (off the default seed) derive
/// from the benchmark seed. The benchmark seed makes the inputs only: the planner's own
/// seed stays the file's, so a seed changes the traffic, not the algorithm.
pub(crate) fn load_scenario(
    path: &str,
    seed: u64,
    default_seed: u64,
    edit: impl FnOnce(&mut ScenarioSpec),
) -> BenchResult<Scenario> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value = ribbon_spec::Format::from_path(path)
        .parse(&text)
        .map_err(|e| format!("{path}: {e}"))?;
    let mut spec = ScenarioSpec::from_value(&value).map_err(|e| format!("{path}: {e}"))?;
    if let Some(s) = stream_seed(seed, default_seed, 0) {
        spec.workload.stream_seed = Some(s);
    }
    edit(&mut spec);
    spec.compile_with_base(Path::new(path).parent())
        .map_err(|e| format!("{path}: {e}"))
}

/// Per-tier outcome lines of a report, for the deterministic-output fingerprints.
pub(crate) fn tier_lines(tiers: &[TierReport]) -> Vec<String> {
    tiers
        .iter()
        .map(|t| {
            format!(
                "tier {} served {} satisfied {} drops {} preemptions {}",
                t.name, t.served, t.satisfied, t.admission_drops, t.preemptions
            )
        })
        .collect()
}

/// Per-tier arrivals of a tiered stream of `n` queries: the set's deterministic
/// assignment, replayed.
pub(crate) fn tier_arrivals(set: &TierSet, n: usize) -> Vec<u64> {
    let mut assigner = set.assigner();
    for _ in 0..n {
        assigner.next_tier();
    }
    assigner.counts().to_vec()
}

/// Checks arrivals = served + dropped for every tier; returns `(ok, detail)`.
pub(crate) fn conserved(arrivals: &[u64], tiers: &[TierReport]) -> (bool, String) {
    let ok = arrivals.len() == tiers.len()
        && arrivals
            .iter()
            .zip(tiers)
            .all(|(&a, t)| a == t.served + t.admission_drops);
    let detail = arrivals
        .iter()
        .zip(tiers)
        .map(|(a, t)| format!("{} {a} = {} + {}", t.name, t.served, t.admission_drops))
        .collect::<Vec<_>>()
        .join("; ");
    (ok, detail)
}

/// Everything one workload run measures.
pub(crate) struct Bench {
    seconds: f64,
    /// `--trace 1`: one untraced rep, then the traced run and the isolation replays.
    pub(crate) trace: bool,
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    fingerprint: String,
    /// Simulated queries per timed call (the `sim_qps` numerator).
    pub(crate) queries_per_run: f64,
    /// Operations attempted per timed call (simulated queries; evaluations for a plan).
    pub(crate) operations_per_run: u64,
    pub(crate) plan_cost_usd_hr: f64,
    pub(crate) serve_cost_usd: f64,
    pub(crate) qos_satisfaction: f64,
    checks: Vec<Value>,
    layers: Vec<(&'static str, f64)>,
}

impl Bench {
    fn new(seconds: f64, trace: bool) -> Bench {
        Bench {
            seconds,
            trace,
            setup_s: Vec::new(),
            run_s: Vec::new(),
            fingerprint: String::new(),
            queries_per_run: 0.0,
            operations_per_run: 0,
            plan_cost_usd_hr: f64::NAN,
            serve_cost_usd: f64::NAN,
            qos_satisfaction: f64::NAN,
            checks: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Takes batched set-up samples (see [`SETUP_SAMPLE_S`]) until `budget_s` has passed,
    /// at least one, and returns the last set-up's result.
    fn sample_setup<S>(
        &mut self,
        setup: &mut impl FnMut() -> BenchResult<S>,
        budget_s: f64,
    ) -> BenchResult<S> {
        let start = Instant::now();
        let mut value = None;
        loop {
            let t = Instant::now();
            let mut batch = 0;
            while batch == 0 || t.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
                // Release the previous copy first, so large inputs are never held twice.
                drop(value.take());
                value = Some(black_box(setup()?));
                batch += 1;
            }
            self.setup_s.push(t.elapsed().as_secs_f64() / batch as f64);
            if start.elapsed().as_secs_f64() >= budget_s {
                break;
            }
        }
        Ok(value.expect("set-up ran at least once"))
    }

    /// Repeats set-up (sampled as [`SETUP_FIRST_S`] and [`SETUP_PER_REP_S`] say) and the
    /// timed call on its fresh inputs while the next rep fits in `--seconds` (at least
    /// once; exactly once in a traced run). Every rep's deterministic outputs, summarised
    /// by `fingerprint`, must be identical. Returns the last inputs and the first rep's
    /// result.
    pub(crate) fn measure<S, T>(
        &mut self,
        mut setup: impl FnMut() -> BenchResult<S>,
        mut call: impl FnMut(&S) -> BenchResult<T>,
        fingerprint: impl Fn(&T) -> String,
    ) -> BenchResult<(S, T)> {
        let start = Instant::now();
        let mut input = None;
        let mut first: Option<T> = None;
        let mut identical = true;
        loop {
            // Release the previous inputs first, so large inputs are never held twice.
            drop(input.take());
            let budget = if first.is_none() {
                SETUP_FIRST_S
            } else {
                SETUP_PER_REP_S
            };
            let fresh = input.insert(self.sample_setup(&mut setup, budget)?);
            let t = Instant::now();
            let out = black_box(call(fresh)?);
            self.run_s.push(t.elapsed().as_secs_f64());
            let fp = fingerprint(&out);
            if first.is_none() {
                self.fingerprint = fp;
                first = Some(out);
            } else {
                identical &= fp == self.fingerprint;
            }
            let elapsed = start.elapsed().as_secs_f64();
            let per_rep = elapsed / self.run_s.len() as f64;
            if self.trace || elapsed + per_rep > self.seconds {
                break;
            }
        }
        self.check(
            "outputs identical across reps",
            identical,
            format!("{} reps", self.run_s.len()),
        );
        let input = input.expect("at least one rep ran");
        Ok((input, first.expect("at least one rep ran")))
    }

    /// Wall time of the untraced rep a traced run is compared against.
    pub(crate) fn untraced_run_s(&self) -> f64 {
        median(&self.run_s)
    }

    /// Median set-up time in seconds.
    pub(crate) fn setup_median_s(&self) -> f64 {
        median(&self.setup_s)
    }

    /// Records an output check; a failed check marks the whole run incorrect.
    pub(crate) fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let mut c = Value::table();
        c.insert("name", Value::from(name));
        c.insert("ok", Value::from(ok));
        c.insert("detail", Value::from(detail.into()));
        self.checks.push(c);
    }

    /// Records one per-layer metric of the traced run.
    pub(crate) fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Records the traced run's wall time, its overhead over the untraced rep, and the
    /// share of it the layer self times cover (`busy_s` summed over `workers` threads).
    pub(crate) fn trace_totals(&mut self, traced_s: f64, busy_s: f64, workers: usize) {
        self.layer("trace.run_s", traced_s);
        self.layer("trace.overhead_s", traced_s - self.untraced_run_s());
        self.layer(
            "trace.coverage",
            busy_s / (traced_s * workers.max(1) as f64),
        );
    }

    fn to_value(&self, workload: &str, seed: u64) -> Value {
        let floats = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::from(x)).collect());
        let mut v = Value::table();
        v.insert("workload", Value::from(workload));
        v.insert("seed", Value::from(seed));
        v.insert("trace", Value::from(self.trace));
        v.insert("threads", Value::from(nproc()));
        v.insert("setup_s", floats(&self.setup_s));
        v.insert("run_s", floats(&self.run_s));
        v.insert("queries_per_run", Value::from(self.queries_per_run));
        v.insert("operations_per_run", Value::from(self.operations_per_run));
        v.insert("plan_cost_usd_hr", Value::from(self.plan_cost_usd_hr));
        v.insert("serve_cost_usd", Value::from(self.serve_cost_usd));
        v.insert("qos_satisfaction", Value::from(self.qos_satisfaction));
        v.insert("peak_rss_mb", Value::from(peak_rss_mb()));
        v.insert("fingerprint", Value::from(self.fingerprint.as_str()));
        v.insert("checks", Value::Array(self.checks.clone()));
        let mut layers = Value::table();
        for (name, value) in &self.layers {
            layers.insert(*name, Value::from(*value));
        }
        v.insert("layers", layers);
        v
    }
}

/// Worker threads the process may use: the machine's available parallelism.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process in MB (`VmHWM`; NaN where unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: Option<u64>,
    /// Required: the run length is `BENCHMARK.json`'s, which `run.py` passes.
    seconds: f64,
    trace: bool,
}

fn parse_args() -> BenchResult<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: f64::NAN,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() {
        return Err("--seconds is required".into());
    }
    Ok(args)
}

fn run() -> BenchResult<()> {
    let args = parse_args()?;
    let default_seed = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|&(_, seed)| seed)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            format!(
                "unknown workload `{}` (known: {})",
                args.workload,
                names.join(", ")
            )
        })?;
    let seed = args.seed.unwrap_or(default_seed);
    let mut bench = Bench::new(args.seconds, args.trace);
    match args.workload.as_str() {
        "plan-hotpath" => plan::run(&mut bench, seed)?,
        "serve-scale" => scale::run(&mut bench, seed)?,
        "serve-tiered-diurnal" => diurnal::run(&mut bench, seed)?,
        _ => fleet::run(&mut bench, seed)?,
    }
    print!(
        "{}",
        ribbon_spec::json::to_string(&bench.to_value(&args.workload, seed))
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
