//! The fixed scenarios behind the golden-trace tests (`tests/scenario_golden.rs`) and the
//! repository benchmark (`perfbench/`), and the golden-trace line formats both use.
//!
//! The hot-path search is deliberately *large* — six instance types, per-type bounds of
//! 10 (a ~1.77 M-point lattice), 20 000-query streams — so the hot paths (event-driven
//! simulation, incremental GP fits, batched acquisition scans over a maintained open set)
//! dominate the wall time the way they would in a production-scale deployment, rather
//! than being hidden behind fixed costs.
//!
//! The search, online and fleet scenarios are **declarative specs** executed through the
//! [`ribbon::scenario`] and [`ribbon::fleet`] façades, the same path `ribbon run` and
//! `ribbon fleet` take for their bundled twins `scenarios/mtwnd_hotpath_search.toml`,
//! `scenarios/mtwnd_flash_crowd.toml` and `scenarios/fleet_rec_duo_serve.toml`. The golden
//! traces therefore pin the façades end to end: a behaviour change in spec compilation,
//! the planner layers, *or* the search/serving engines shows up as a trace divergence.
//! The streaming-scale inputs are perfbench's `serve-scale` workload.

use ribbon::scenario::{
    EvaluatorSpec, OnlineSpec, PlannerSpec, RunMode, ScenarioSpec, ServeReport, TrafficSpec,
    WorkloadSpec,
};
use ribbon::search::SearchTrace;
use ribbon_cloudsim::dist::{ArrivalProcess, BatchDistribution};
use ribbon_cloudsim::latency::FnLatencyModel;
use ribbon_cloudsim::{
    simulate_fleet_sharded, FleetModelConfig, FleetRunOutcome, InstanceType, PoolSpec, Query,
    StreamConfig, WindowConfig,
};

/// Number of queries per simulated stream in the hot-path scenario.
pub const HOTPATH_QUERIES: usize = 20_000;

/// Per-type bound m_i of the hot-path lattice (applied to all six types).
pub const HOTPATH_BOUND: u32 = 10;

/// Evaluation budget of the hot-path search scenario.
pub const HOTPATH_EVALUATIONS: usize = 30;

/// Seed for the hot-path search runs (fixed so traces are comparable across machines).
pub const HOTPATH_SEED: u64 = 2;

/// The six instance families of the hot-path pool, in dispatch-preference order.
pub const HOTPATH_FAMILIES: [&str; 6] = ["g4dn", "c5", "c5a", "m5", "r5n", "t3"];

/// The hot-path search as a declarative scenario spec — the programmatic twin of
/// `scenarios/mtwnd_hotpath_search.toml` (a test pins the two compiling identically).
pub fn hotpath_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "mtwnd-hotpath-search".to_string(),
        description: "Six-type MT-WND hot-path search (the pinned golden-trace scenario)"
            .to_string(),
        mode: RunMode::Plan,
        seed: HOTPATH_SEED,
        catalog: None,
        workload: WorkloadSpec {
            model: "MT-WND".to_string(),
            num_queries: Some(HOTPATH_QUERIES),
            diverse_pool: Some(HOTPATH_FAMILIES.map(String::from).to_vec()),
            ..Default::default()
        },
        qos: None,
        qos_tiers: None,
        planner: PlannerSpec {
            name: "ribbon".to_string(),
            budget: HOTPATH_EVALUATIONS,
            baseline: false,
            ..Default::default()
        },
        evaluator: EvaluatorSpec {
            bounds: Some(vec![HOTPATH_BOUND; 6]),
            ..Default::default()
        },
        traffic: None,
        online: OnlineSpec::default(),
    }
}

/// Runs the hot-path search through the scenario façade (fresh evaluator per run, so the
/// evaluation cache of a previous run cannot subsidize the measured one) and returns its
/// trace.
pub fn run_hotpath_search() -> SearchTrace {
    let scenario = hotpath_spec()
        .compile()
        .expect("the hot-path spec compiles");
    let report = scenario.run().expect("the hot-path search runs");
    report.plan.expect("plan mode fills the plan section").trace
}

/// Seed of the online-serving scenario (bootstrap search + controller replans).
pub const ONLINE_SEED: u64 = 7;

/// Simulated duration of the online-serving scenario in seconds.
pub const ONLINE_DURATION_S: f64 = 60.0;

/// The online-serving scenario as a declarative spec: the MT-WND workload on its Table 3
/// pool with bounds `[7, 4, 7]`, 2-second tumbling monitoring windows, and halved
/// spin-up delays, served through the 60 s flash-crowd trace. The programmatic twin of
/// `scenarios/mtwnd_flash_crowd.toml`; the controller's decision sequence on this
/// scenario is the pinned behaviour.
pub fn online_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "mtwnd-flash-crowd".to_string(),
        description: "MT-WND online serving through a flash crowd with mid-stream reconfiguration"
            .to_string(),
        mode: RunMode::Serve,
        seed: ONLINE_SEED,
        catalog: None,
        workload: WorkloadSpec {
            model: "MT-WND".to_string(),
            ..Default::default()
        },
        qos: None,
        qos_tiers: None,
        planner: PlannerSpec {
            name: "ribbon".to_string(),
            budget: 30,
            ..Default::default()
        },
        evaluator: EvaluatorSpec {
            bounds: Some(vec![7, 4, 7]),
            ..Default::default()
        },
        traffic: Some(TrafficSpec {
            scenario: Some("flash-crowd".to_string()),
            phases: None,
            duration_s: Some(ONLINE_DURATION_S),
        }),
        online: OnlineSpec {
            window_s: Some(2.0),
            spin_up_factor: Some(0.5),
            planning_queries: Some(2500),
            ..Default::default()
        },
    }
}

/// Runs the online-serving scenario through the façade: the flash-crowd trace over the
/// standard MT-WND workload, fully deterministic across machines and thread counts.
pub fn run_online_scenario() -> ServeReport {
    let scenario = online_spec().compile().expect("the online spec compiles");
    let report = scenario.run().expect("the online scenario serves");
    report.serve.expect("serve mode fills the serve section")
}

/// Golden-trace lines of an online run: the controller's decision sequence (initial
/// deployment, every reconfiguration with its trigger/window/configuration) plus the final
/// whole-stream satisfaction and cost as exact bits.
pub fn online_trace_lines(serve: &ServeReport) -> Vec<String> {
    let cfg = |c: &[u32]| {
        c.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut lines = vec![format!("initial cfg {}", cfg(&serve.initial_config))];
    for e in &serve.events {
        lines.push(format!(
            "event w{} {} cfg {} qps {:#018x} # {:.1}",
            e.window_index,
            e.trigger,
            cfg(&e.config),
            e.planned_qps.to_bits(),
            e.planned_qps
        ));
    }
    let sat = serve.satisfaction_rate.unwrap_or(f64::NAN);
    lines.push(format!(
        "final cfg {} windows {} sat {:#018x} cost {:#018x} # sat {:.4} cost ${:.4}",
        cfg(&serve.final_config),
        serve.windows,
        sat.to_bits(),
        serve.total_cost_usd.to_bits(),
        sat,
        serve.total_cost_usd
    ));
    lines
}

/// Seed of the fleet-serving scenario.
pub const FLEET_SEED: u64 = 7;

/// The fleet-serving perf scenario: MT-WND and DIEN jointly planned over shared
/// g4dn/r5n slots and served simultaneously through the fleet router — the programmatic
/// twin of `scenarios/fleet_rec_duo_serve.toml`. The joint plan (member baselines,
/// pooling candidates, greedy descent) plus the merged-stream serve exercise the whole
/// PR 5 subsystem; the resulting decision trace is pinned as the third golden.
pub fn fleet_spec() -> ribbon::fleet::FleetSpec {
    use ribbon::fleet::{FleetModelSpec, FleetSpec};
    use ribbon::scenario::PhaseSpec;
    let model = |name: &str, num_queries: usize, phases: Vec<PhaseSpec>| FleetModelSpec {
        name: None,
        weight: None,
        share_weight: None,
        bounds: Some(vec![4, 2, 4]),
        workload: WorkloadSpec {
            model: name.to_string(),
            num_queries: Some(num_queries),
            ..Default::default()
        },
        qos: None,
        qos_tiers: None,
        traffic: Some(TrafficSpec {
            scenario: None,
            phases: Some(phases),
            duration_s: None,
        }),
        online: OnlineSpec {
            window_s: Some(2.0),
            spin_up_factor: Some(0.5),
            planning_queries: Some(1500),
            ..Default::default()
        },
    };
    FleetSpec {
        name: "rec-duo-serve".to_string(),
        description: "MT-WND + DIEN served jointly; per-model windows and slice reconfiguration"
            .to_string(),
        mode: RunMode::Serve,
        seed: FLEET_SEED,
        catalog: None,
        budget: 30,
        member_budget: None,
        baseline: true,
        initial_samples: None,
        prune_threshold: None,
        batch: None,
        threads: None,
        shards: None,
        shared_pool: vec!["g4dn".to_string(), "r5n".to_string()],
        shared_bounds: Some(vec![8, 9]),
        models: vec![
            model(
                "MT-WND",
                1200,
                vec![
                    PhaseSpec {
                        duration_s: 20.0,
                        qps: 1300.0,
                    },
                    PhaseSpec {
                        duration_s: 10.0,
                        qps: 1500.0,
                    },
                    PhaseSpec {
                        duration_s: 10.0,
                        qps: 1300.0,
                    },
                ],
            ),
            model(
                "DIEN",
                1100,
                vec![PhaseSpec {
                    duration_s: 40.0,
                    qps: 1150.0,
                }],
            ),
        ],
    }
}

/// Runs the fleet-serving scenario end to end (joint plan + merged-stream serve), with an
/// optional worker-shard override. The serve drive is bit-identical at every shard count;
/// `tests/scenario_golden.rs` checks the golden fleet trace at the default count and at
/// shards 1, 2 and 4.
pub fn run_fleet_scenario_with_shards(shards: Option<usize>) -> ribbon::fleet::FleetReport {
    let mut spec = fleet_spec();
    spec.shards = shards;
    let fleet = spec.compile().expect("the fleet spec compiles");
    fleet.run().expect("the fleet plans and serves")
}

/// Number of fleet lanes in the streaming-scale scenario.
pub const STREAMING_SCALE_MODELS: usize = 8;

/// Queries per lane of the streaming-scale scenario (8 lanes × 1.25 M = 10 M total).
pub const STREAMING_SCALE_QUERIES: usize = 1_250_000;

/// Seed of the streaming-scale query streams.
pub const STREAMING_SCALE_SEED: u64 = 11;

/// Latency profile of the streaming-scale lanes — a plain fn pointer, so the benchmark
/// measures the sharded streaming engine rather than profile-table lookups.
fn scale_latency(ty: InstanceType, batch: u32) -> f64 {
    if ty == InstanceType::G4dn {
        0.004 + 4e-5 * batch as f64
    } else {
        0.006 + 9e-5 * batch as f64
    }
}

/// The streaming-scale latency model type (see [`streaming_scale_profile`]).
pub type ScaleProfile = FnLatencyModel<fn(InstanceType, u32) -> f64>;

/// Builds the streaming-scale latency profile.
pub fn streaming_scale_profile() -> ScaleProfile {
    FnLatencyModel::new("scale", scale_latency as fn(InstanceType, u32) -> f64)
}

/// Generates the streaming-scale traffic: eight independent Poisson streams totalling
/// ten million queries, each lane at a slightly different offered load.
pub fn streaming_scale_streams() -> Vec<Vec<Query>> {
    (0..STREAMING_SCALE_MODELS)
        .map(|m| {
            StreamConfig {
                arrivals: ArrivalProcess::Poisson {
                    qps: 2_000.0 + 250.0 * m as f64,
                },
                batches: BatchDistribution::default_heavy_tail(32.0, 256),
                num_queries: STREAMING_SCALE_QUERIES,
                seed: STREAMING_SCALE_SEED + m as u64,
            }
            .generate()
        })
        .collect()
}

/// Drives the streaming-scale fleet through the sharded engine: eight dedicated lanes
/// (no shared slice, so every lane is its own coupling group and genuinely runs on its
/// own worker), tumbling five-second windows, per-query recording off — the
/// constant-memory hot path the serving runtime uses at scale.
pub fn run_streaming_scale(
    profile: &ScaleProfile,
    streams: &[Vec<Query>],
    shards: usize,
) -> FleetRunOutcome {
    let models: Vec<FleetModelConfig<'_>> = (0..STREAMING_SCALE_MODELS)
        .map(|m| FleetModelConfig {
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
        })
        .collect();
    simulate_fleet_sharded(models, None, streams, shards, false)
}

/// Golden-trace lines of a fleet run: the joint plan's chosen allocation and baseline
/// comparison, then every member's controller decision sequence and exact-bit
/// satisfaction, then the fleet's exact-bit total cost.
pub fn fleet_trace_lines(report: &ribbon::fleet::FleetReport) -> Vec<String> {
    let cfg = |c: &[u32]| {
        c.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut lines = vec![format!(
        "plan shared {} total {:#018x} baseline {} # ${:.2}/hr vs ${:.2}/hr",
        cfg(&report.shared_config),
        report.total_hourly_cost.to_bits(),
        report
            .baseline_total_hourly_cost
            .map_or("none".to_string(), |b| format!("{:#018x}", b.to_bits())),
        report.total_hourly_cost,
        report.baseline_total_hourly_cost.unwrap_or(f64::NAN),
    )];
    for m in &report.models {
        let serve = m.serve.as_ref().expect("serve mode fills member sections");
        lines.push(format!(
            "model {} initial cfg {}",
            m.name,
            cfg(&serve.initial_config)
        ));
        for e in &serve.events {
            lines.push(format!(
                "model {} event w{} {} cfg {} qps {:#018x} # {:.1}",
                m.name,
                e.window_index,
                e.trigger,
                cfg(&e.config),
                e.planned_qps.to_bits(),
                e.planned_qps
            ));
        }
        let sat = serve.satisfaction_rate.unwrap_or(f64::NAN);
        lines.push(format!(
            "model {} final cfg {} windows {} sat {:#018x} # {:.4}",
            m.name,
            cfg(&serve.final_config),
            serve.windows,
            sat.to_bits(),
            sat
        ));
    }
    let totals = report
        .serve
        .as_ref()
        .expect("serve mode fills fleet totals");
    lines.push(format!(
        "fleet queries {} cost {:#018x} # ${:.4} over {:.0} s",
        totals.queries,
        totals.total_cost_usd.to_bits(),
        totals.total_cost_usd,
        totals.duration_s
    ));
    lines
}

/// Golden-trace lines of a search: one evaluation per line, objective recorded as exact
/// bits so cross-machine comparison is bit-for-bit.
pub fn trace_lines(trace: &SearchTrace) -> Vec<String> {
    trace
        .evaluations()
        .iter()
        .map(|e| {
            let cfg: Vec<String> = e.config.iter().map(|c| c.to_string()).collect();
            format!(
                "cfg {} obj {:#018x} # {:.6}",
                cfg.join(","),
                e.objective.to_bits(),
                e.objective
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ribbon::evaluator::{ConfigEvaluator, EvaluatorSettings};
    use ribbon_models::{ModelKind, Workload};

    #[test]
    fn hotpath_scenario_meets_the_issue_floor() {
        let w = hotpath_spec().compile().unwrap().workload;
        assert!(w.diverse_pool.len() >= 6, "at least six instance types");
        assert!(w.num_queries >= 20_000, "at least 20k queries");
        const {
            assert!(HOTPATH_BOUND >= 10, "per-type bounds of at least 10");
        }
    }

    #[test]
    fn hotpath_spec_compiles_to_the_historical_constructor_arguments() {
        let scenario = hotpath_spec().compile().unwrap();
        let mut workload = Workload::standard(ModelKind::MtWnd);
        workload.diverse_pool = vec![
            InstanceType::G4dn,
            InstanceType::C5,
            InstanceType::C5a,
            InstanceType::M5,
            InstanceType::R5n,
            InstanceType::T3,
        ];
        workload.num_queries = HOTPATH_QUERIES;
        assert_eq!(scenario.workload, workload);
        assert_eq!(
            scenario.evaluator_settings.explicit_bounds,
            Some(vec![HOTPATH_BOUND; 6])
        );
        assert_eq!(
            scenario.search_settings.max_evaluations,
            HOTPATH_EVALUATIONS
        );
        assert_eq!(scenario.spec.seed, HOTPATH_SEED);
    }

    #[test]
    fn online_spec_compiles_to_the_historical_settings() {
        let scenario = online_spec().compile().unwrap();
        assert_eq!(scenario.workload, Workload::standard(ModelKind::MtWnd));
        let s = &scenario.online_settings;
        assert_eq!(s.initial_search.max_evaluations, 30);
        assert_eq!(s.controller.planning_queries, 2500);
        assert_eq!(s.controller.evaluator.explicit_bounds, Some(vec![7, 4, 7]));
        assert_eq!(s.controller.replan.max_evaluations, 12);
        assert_eq!(s.window.length_s, 2.0);
        assert_eq!(s.window.step_s, 2.0);
        assert_eq!(s.spin_up_factor, 0.5);
        let traffic = scenario.traffic.as_ref().unwrap();
        assert_eq!(traffic.duration_s, ONLINE_DURATION_S);
        assert_eq!(
            *traffic,
            ribbon_models::TrafficScenario::FlashCrowd
                .stream(&scenario.workload, ONLINE_DURATION_S)
        );
    }

    #[test]
    fn fleet_spec_is_the_twin_of_the_bundled_file() {
        // The bench harness's programmatic fleet scenario and the bundled TOML must
        // stay in lock-step (catalog path aside: the file resolves the data-file
        // catalog, the harness uses the identical builtin table).
        let path = "../../scenarios/fleet_rec_duo_serve.toml";
        let mut bundled = ribbon::fleet::FleetSpec::load_file(path).expect("bundled file loads");
        bundled.catalog = None;
        assert_eq!(bundled, fleet_spec());
    }

    #[test]
    fn trace_lines_round_trip_the_objective_bits() {
        let mut trace = SearchTrace::new("X");
        let mut w = hotpath_spec().compile().unwrap().workload;
        w.num_queries = 300;
        let ev = ConfigEvaluator::new(
            &w,
            EvaluatorSettings {
                explicit_bounds: Some(vec![2; 6]),
                ..Default::default()
            },
        );
        trace.evaluations.push(ev.evaluate(&[1, 0, 0, 0, 0, 1]));
        let line = &trace_lines(&trace)[0];
        assert!(line.starts_with("cfg 1,0,0,0,0,1 obj 0x"));
        let bits = line.split_whitespace().nth(3).unwrap();
        let parsed = u64::from_str_radix(bits.trim_start_matches("0x"), 16).unwrap();
        assert_eq!(f64::from_bits(parsed), trace.evaluations[0].objective);
    }
}
