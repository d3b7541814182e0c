//! Pins the scenario façade to the committed golden traces.
//!
//! Two layers:
//!
//! 1. **Twin equality** (runs in every `cargo test`): the bundled scenario files
//!    `scenarios/mtwnd_hotpath_search.toml` and `scenarios/mtwnd_flash_crowd.toml` must
//!    compile to exactly the engine objects of their programmatic twins in
//!    [`ribbon_bench::perf`] — the specs CI's `perfsnap --check` executes against the
//!    goldens. File and harness can therefore never drift apart silently.
//! 2. **Full golden run** (`--ignored`; CI covers it via `perfsnap --check` in release
//!    mode, where it takes ~30 s instead of debug-mode minutes): the façade-driven
//!    search reproduces `crates/bench/golden/search_trace.txt` bit for bit.

use ribbon::scenario::Scenario;
use ribbon_bench::perf::{
    hotpath_spec, online_spec, run_hotpath_search, trace_lines, HOTPATH_EVALUATIONS,
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

/// The full differential: façade-driven RIBBON search vs the pinned golden trace.
/// Ignored by default because the hot-path scenario needs release-mode speed; CI runs
/// the identical check through `perfsnap --check`. Run manually with
/// `cargo test --release -p ribbon-bench --test scenario_golden -- --ignored`.
#[test]
#[ignore = "release-scale scenario; CI covers it via perfsnap --check"]
fn facade_search_reproduces_the_golden_trace_bit_for_bit() {
    let golden_path = repo_root().join("crates/bench/golden/search_trace.txt");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    let trace = run_hotpath_search();
    assert_eq!(trace.len(), HOTPATH_EVALUATIONS);
    let lines = trace_lines(&trace);
    assert_eq!(
        golden.lines().collect::<Vec<_>>(),
        lines.iter().map(String::as_str).collect::<Vec<_>>(),
        "façade-driven search diverged from the golden trace"
    );
}
