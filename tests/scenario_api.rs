//! Integration tests of the declarative scenario layer against the *repository
//! artifacts*: every bundled `scenarios/*.toml` must parse, round-trip losslessly, and
//! compile; `data/catalog.toml` must equal the engine's built-in catalog; and malformed
//! files must fail with actionable, path-tagged errors.
//!
//! (The bit-for-bit golden-trace differentials for the façade live in
//! `crates/bench/tests/scenario_golden.rs`.)

use ribbon::scenario::{RunMode, Scenario, ScenarioError, ScenarioSpec};
use ribbon_cloudsim::Catalog;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    // Integration tests run with CWD = crates/ribbon; artifacts live two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn bundled_toml_files() -> Vec<PathBuf> {
    let dir = repo_root().join("scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    files
}

fn is_fleet_file(path: &std::path::Path) -> bool {
    path.file_name()
        .is_some_and(|n| n.to_string_lossy().starts_with("fleet_"))
}

/// Single-model scenario files (the fleet files have their own suite below).
fn bundled_scenarios() -> Vec<PathBuf> {
    let files: Vec<PathBuf> = bundled_toml_files()
        .into_iter()
        .filter(|p| !is_fleet_file(p))
        .collect();
    assert!(
        files.len() >= 4,
        "expected several bundled scenarios, found {}",
        files.len()
    );
    files
}

fn bundled_fleets() -> Vec<PathBuf> {
    let files: Vec<PathBuf> = bundled_toml_files()
        .into_iter()
        .filter(|p| is_fleet_file(p))
        .collect();
    assert!(
        files.len() >= 2,
        "expected several bundled fleet files, found {}",
        files.len()
    );
    files
}

#[test]
fn every_bundled_scenario_parses_round_trips_and_compiles() {
    for path in bundled_scenarios() {
        let path_str = path.to_string_lossy().into_owned();
        let scenario = Scenario::load(&path_str).unwrap_or_else(|e| panic!("{path_str}: {e}"));

        // Lossless round-trip: spec -> TOML -> spec and spec -> JSON -> spec.
        let spec = &scenario.spec;
        let via_toml = ScenarioSpec::from_toml_str(&spec.to_toml_string())
            .unwrap_or_else(|e| panic!("{path_str} toml round-trip: {e}"));
        assert_eq!(
            *spec, via_toml,
            "{path_str}: TOML round-trip changed the spec"
        );
        let via_json = ScenarioSpec::from_json_str(&spec.to_json_string())
            .unwrap_or_else(|e| panic!("{path_str} json round-trip: {e}"));
        assert_eq!(
            *spec, via_json,
            "{path_str}: JSON round-trip changed the spec"
        );

        // Serve-mode scenarios must come with a compiled traffic trace.
        if spec.mode == RunMode::Serve {
            assert!(
                scenario.traffic.is_some(),
                "{path_str}: serve without traffic"
            );
        }
        // Every bundled scenario resolves its pool through the data-file catalog.
        assert_eq!(
            scenario.catalog,
            Catalog::builtin(),
            "{path_str}: bundled scenarios use the (builtin-equal) data catalog"
        );
    }
}

#[test]
fn bundled_scenarios_cover_three_models_and_two_traffic_shapes() {
    let mut models = std::collections::HashSet::new();
    let mut shapes = std::collections::HashSet::new();
    for path in bundled_scenarios() {
        let scenario = Scenario::load(&path.to_string_lossy()).unwrap();
        models.insert(scenario.workload.model.name().to_string());
        if let Some(t) = &scenario.spec.traffic {
            if let Some(s) = &t.scenario {
                shapes.insert(s.clone());
            }
        }
    }
    assert!(models.len() >= 3, "models covered: {models:?}");
    assert!(shapes.len() >= 2, "traffic shapes covered: {shapes:?}");
}

#[test]
fn every_bundled_fleet_parses_round_trips_and_compiles() {
    use ribbon::fleet::{Fleet, FleetSpec};
    for path in bundled_fleets() {
        let path_str = path.to_string_lossy().into_owned();
        let fleet = Fleet::load(&path_str).unwrap_or_else(|e| panic!("{path_str}: {e}"));
        assert!(
            fleet.num_members() >= 2,
            "{path_str}: fleets co-locate models"
        );

        // Lossless round-trip through both formats.
        let spec = &fleet.spec;
        let via_toml = FleetSpec::from_toml_str(&spec.to_toml_string())
            .unwrap_or_else(|e| panic!("{path_str} toml round-trip: {e}"));
        assert_eq!(
            *spec, via_toml,
            "{path_str}: TOML round-trip changed the spec"
        );
        let via_json = FleetSpec::from_json_str(&spec.to_json_string())
            .unwrap_or_else(|e| panic!("{path_str} json round-trip: {e}"));
        assert_eq!(
            *spec, via_json,
            "{path_str}: JSON round-trip changed the spec"
        );

        // Serve-mode fleets compile traffic for every member; all bundled fleets
        // resolve through the (builtin-equal) data catalog.
        if spec.mode == RunMode::Serve {
            for member in &fleet.members {
                assert!(
                    member.scenario.traffic.is_some(),
                    "{path_str}: serve-mode member {} without traffic",
                    member.name
                );
            }
        }
        assert_eq!(fleet.catalog, Catalog::builtin(), "{path_str}");
    }
}

#[test]
fn bundled_fleets_mix_policies_and_declare_shared_pools() {
    let mut policies = std::collections::HashSet::new();
    let mut any_shared = false;
    for path in bundled_fleets() {
        let fleet = ribbon::fleet::Fleet::load(&path.to_string_lossy()).unwrap();
        any_shared |= fleet.has_shared();
        for member in &fleet.members {
            policies.insert(member.scenario.policy.describe());
        }
    }
    assert!(
        policies.len() >= 3,
        "bundled fleets must mix QoS policies: {policies:?}"
    );
    assert!(
        any_shared,
        "at least one bundled fleet declares shared slots"
    );
}

#[test]
fn catalog_data_file_matches_the_builtin_table() {
    let path = repo_root().join("data/catalog.toml");
    let loaded = Catalog::load(&path.to_string_lossy())
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(
        loaded,
        Catalog::builtin(),
        "data/catalog.toml drifted from instance::BUILTIN_CATALOG"
    );
}

#[test]
fn variants_data_file_matches_the_builtin_table() {
    use ribbon_cloudsim::VariantCatalog;
    let path = repo_root().join("data/variants.toml");
    let loaded = VariantCatalog::load(&path.to_string_lossy())
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let builtin = ribbon_models::variants::builtin_variant_catalog();
    loaded
        .ensure_matches(&builtin)
        .unwrap_or_else(|e| panic!("data/variants.toml drifted from ribbon_models::variants: {e}"));
    assert_eq!(
        loaded.entries().len(),
        builtin.entries().len(),
        "data/variants.toml must list the full builtin variant table, not a subset"
    );
}

#[test]
fn a_quick_bundled_scenario_actually_runs_end_to_end() {
    // The smallest bundled plan scenario, shrunk further so the debug-mode test stays
    // fast: the file's structure is exercised verbatim, only stream size and budget drop.
    let path = repo_root().join("scenarios/mtwnd_plan.toml");
    let mut spec = Scenario::load(&path.to_string_lossy()).unwrap().spec;
    spec.workload.num_queries = Some(600);
    spec.planner.budget = 4;
    spec.planner.baseline = false;
    spec.evaluator.bounds = Some(vec![4, 2, 4]);
    let report = spec
        .compile_with_base(Some(&repo_root().join("scenarios")))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.planner, "RIBBON");
    assert!(report.plan.unwrap().trace.len() <= 4);
}

#[test]
fn missing_files_and_syntax_errors_are_reported_not_panicked() {
    match Scenario::load("/definitely/not/here.toml") {
        Err(ScenarioError::Io { path, .. }) => assert!(path.contains("not/here")),
        other => panic!("expected Io error, got {other:?}"),
    }

    let dir = std::env::temp_dir().join("ribbon-scenario-api-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.toml");
    std::fs::write(&bad, "[scenario]\nname = \"x\"\nbroken =\n").unwrap();
    match Scenario::load(&bad.to_string_lossy()) {
        Err(ScenarioError::Parse(e)) => assert!(e.path.contains("line 3"), "{e}"),
        other => panic!("expected Parse error, got {other:?}"),
    }
}

#[test]
fn the_error_display_forms_are_actionable() {
    let e = ScenarioSpec::from_toml_str("[workload]\nmodel = \"MT-WND\"\n").unwrap_err();
    // Missing [scenario] section names the section.
    assert!(e.to_string().contains("scenario"), "{e}");

    let spec =
        ScenarioSpec::from_toml_str("[scenario]\nname = \"x\"\n\n[workload]\nmodel = \"nope\"\n")
            .unwrap();
    let e = spec.compile().unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("workload.model"), "{msg}");
    assert!(msg.contains("MT-WND"), "error lists known models: {msg}");
}
