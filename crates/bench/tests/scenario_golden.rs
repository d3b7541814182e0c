//! Pins the scenario façade to the committed golden traces.
//!
//! Two layers:
//!
//! 1. **Twin equality** (runs in every `cargo test`): the bundled scenario files
//!    `scenarios/mtwnd_hotpath_search.toml` and `scenarios/mtwnd_flash_crowd.toml` must
//!    compile to exactly the engine objects of their programmatic twins in
//!    [`ribbon_bench::perf`], the specs the golden runs below execute. File and harness
//!    can therefore never drift apart silently.
//! 2. **Full golden runs** (`--ignored`; CI's `release-differentials` job runs them in
//!    release mode, where they take seconds instead of debug-mode minutes): the
//!    façade-driven search, the online controller on the flash crowd and the fleet
//!    planner and serve reproduce `crates/bench/golden/search_trace.txt`,
//!    `online_trace.txt` and `fleet_trace.txt` bit for bit, the fleet trace at every
//!    worker-shard count. These are the only checks of the three goldens; when one must
//!    change, rewrite it by hand from the failing test's output.

use ribbon::scenario::Scenario;
use ribbon_bench::perf::{
    fleet_trace_lines, hotpath_spec, online_spec, online_trace_lines,
    run_fleet_scenario_with_shards, run_hotpath_search, run_online_scenario, trace_lines,
    HOTPATH_EVALUATIONS,
};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn load(rel: &str) -> Scenario {
    let path = repo_root().join(rel);
    Scenario::load(&path.to_string_lossy()).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

#[test]
fn bundled_hotpath_scenario_is_the_perf_harness_twin() {
    let from_file = load("scenarios/mtwnd_hotpath_search.toml");
    let programmatic = hotpath_spec().compile().unwrap();
    assert_eq!(from_file.workload, programmatic.workload);
    assert_eq!(
        from_file.evaluator_settings,
        programmatic.evaluator_settings
    );
    assert_eq!(
        from_file.search_settings.max_evaluations,
        programmatic.search_settings.max_evaluations
    );
    assert_eq!(
        from_file.search_settings.fit,
        programmatic.search_settings.fit
    );
    assert_eq!(from_file.spec.seed, programmatic.spec.seed);
    assert_eq!(
        from_file.spec.planner.baseline,
        programmatic.spec.planner.baseline
    );
}

#[test]
fn bundled_flash_crowd_scenario_is_the_perf_harness_twin() {
    let from_file = load("scenarios/mtwnd_flash_crowd.toml");
    let programmatic = online_spec().compile().unwrap();
    assert_eq!(from_file.workload, programmatic.workload);
    assert_eq!(from_file.spec.seed, programmatic.spec.seed);
    assert_eq!(from_file.traffic, programmatic.traffic);
    let (a, b) = (&from_file.online_settings, &programmatic.online_settings);
    assert_eq!(
        a.initial_search.max_evaluations,
        b.initial_search.max_evaluations
    );
    assert_eq!(a.controller.planning_queries, b.controller.planning_queries);
    assert_eq!(
        a.controller.evaluator.explicit_bounds,
        b.controller.evaluator.explicit_bounds
    );
    assert_eq!(
        a.controller.replan.max_evaluations,
        b.controller.replan.max_evaluations
    );
    assert_eq!(a.window, b.window);
    assert_eq!(a.spin_up_factor, b.spin_up_factor);
}

/// Asserts that `lines` equal `crates/bench/golden/<name>` line for line.
fn assert_golden(name: &str, lines: &[String], what: &str) {
    let path = repo_root().join("crates/bench/golden").join(name);
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(
        golden.lines().collect::<Vec<_>>(),
        lines.iter().map(String::as_str).collect::<Vec<_>>(),
        "{what} diverged from the golden trace {name}"
    );
}

/// The full differential: façade-driven RIBBON search vs the pinned golden trace.
/// Ignored by default, like the two golden runs below, because the scenarios need
/// release-mode speed. Run them with
/// `cargo test --release -p ribbon-bench --test scenario_golden -- --ignored`.
#[test]
#[ignore = "release-scale scenario; CI runs it in the release-differentials job"]
fn facade_search_reproduces_the_golden_trace_bit_for_bit() {
    let trace = run_hotpath_search();
    assert_eq!(trace.len(), HOTPATH_EVALUATIONS);
    assert_golden(
        "search_trace.txt",
        &trace_lines(&trace),
        "façade-driven search",
    );
}

/// The online controller's decision trace on the flash-crowd scenario vs the pinned golden.
#[test]
#[ignore = "release-scale scenario; CI runs it in the release-differentials job"]
fn online_scenario_reproduces_the_golden_trace_bit_for_bit() {
    let lines = online_trace_lines(&run_online_scenario());
    assert_golden("online_trace.txt", &lines, "online controller");
}

/// The fleet planner's allocation and every member's decision trace vs the pinned golden,
/// at the default worker-shard count and at 1, 2 and 4 shards: the serve drive must be
/// bit-identical at every count.
#[test]
#[ignore = "release-scale scenario; CI runs it in the release-differentials job"]
fn fleet_scenario_reproduces_the_golden_trace_at_every_shard_count() {
    for shards in [None, Some(1), Some(2), Some(4)] {
        let lines = fleet_trace_lines(&run_fleet_scenario_with_shards(shards));
        assert_golden(
            "fleet_trace.txt",
            &lines,
            &format!("fleet at shards {shards:?}"),
        );
    }
}
