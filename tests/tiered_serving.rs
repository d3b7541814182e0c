//! Integration suite of the differentiated QoS tiers:
//!
//! 1. **flash-crowd acceptance** — the bundled `mtwnd_tiered_flash.toml` scenario must
//!    shield the premium tier through the surge (zero admission drops, every window
//!    with premium evidence at or above the premium target) while the best-effort tier
//!    absorbs the overflow at admission (drops > 0); its per-tier outcome and cost,
//!    and those of the bundled `fleet_tiered_mix.toml` serve, are pinned as literals;
//! 2. **single-tier identity** — a spec with one default-`standard` tier is the
//!    untiered semantics exactly: it compiles its tier set away, the streaming
//!    simulator reproduces the untiered run bit for bit, and a single-tier fleet
//!    member serves identically to its untiered twin at every shard count;
//! 3. **accounting invariants** — per-tier window counts partition the window's
//!    counts, per-tier totals partition the stream's (proptest), and tiers that see
//!    no query in a window report no evidence rather than zero satisfaction.

use std::path::PathBuf;

use proptest::prelude::*;
use ribbon::fleet::{FleetPlanner, FleetReport, FleetSpec, RibbonFleetPlanner};
use ribbon::online::serve_online_tiered;
use ribbon::scenario::{Scenario, TierSpecDef};
use ribbon_cloudsim::dist::{ArrivalProcess, BatchDistribution};
use ribbon_cloudsim::latency::FnLatencyModel;
use ribbon_cloudsim::{
    AdmissionClass, InstanceType, PoolSpec, Query, StreamConfig, StreamingSim, StreamingSimConfig,
    TierPush, TierSet, TierSpec, WindowConfig,
};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn load(rel: &str) -> Scenario {
    let path = repo_root().join(rel);
    Scenario::load(&path.to_string_lossy()).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

// ---------------------------------------------------------------------------
// 1. Flash-crowd acceptance: premium shielded, best-effort sheds.
// ---------------------------------------------------------------------------

#[test]
fn tiered_flash_crowd_shields_premium_while_best_effort_sheds() {
    let scenario = load("scenarios/mtwnd_tiered_flash.toml");
    let set = scenario.tiers.clone().expect("the scenario is tiered");
    let traffic = scenario.traffic.as_ref().expect("serve mode has traffic");
    let outcome = serve_online_tiered(
        &scenario.workload,
        traffic,
        &scenario.online_settings,
        scenario.spec.seed,
        scenario.policy.clone(),
        Some(set.clone()),
    )
    .expect("bootstrap converges");

    assert_eq!(outcome.tier_totals.len(), set.len());
    let class_of = |i: usize| set.tiers()[i].class;

    // The paying tiers are never shed at admission; the best-effort tier absorbs the
    // surge there, which is the whole point of its admission cap.
    let mut best_effort_drops = 0;
    for (i, t) in outcome.tier_totals.iter().enumerate() {
        assert!(t.served > 0, "tier {i} served nothing");
        match class_of(i) {
            AdmissionClass::BestEffort => best_effort_drops += t.admission_drops,
            _ => assert_eq!(
                t.admission_drops, 0,
                "tier {i} gates QoS and must never be admission-dropped"
            ),
        }
    }
    assert!(
        best_effort_drops > 0,
        "the flash crowd must push the best-effort tier over its admission cap"
    );

    // Premium holds its target in every window where it has evidence — the surge is
    // absorbed by preempting queued best-effort work, not by degrading premium.
    let premium: Vec<usize> = (0..set.len())
        .filter(|&i| class_of(i) == AdmissionClass::Premium)
        .collect();
    assert!(!premium.is_empty());
    let mut premium_windows = 0;
    let mut preemptions = 0u64;
    for w in &outcome.windows {
        if w.is_empty() {
            continue;
        }
        assert_eq!(
            w.tiers.len(),
            set.len(),
            "window {} carries tier rows",
            w.index
        );
        for &t in &premium {
            let row = &w.tiers[t];
            preemptions += row.preemptions as u64;
            let Some(rate) = row.satisfaction_rate else {
                continue;
            };
            premium_windows += 1;
            let target = set.effective_rate(t, scenario.policy.threshold());
            assert!(
                rate >= target,
                "window {}: premium satisfaction {rate} below target {target}",
                w.index
            );
        }
    }
    assert!(premium_windows > 0, "the stream has premium evidence");
    assert!(
        preemptions > 0,
        "premium must have overtaken queued best-effort work during the surge"
    );

    // Per-tier totals partition the served stream.
    let served: u64 = outcome.tier_totals.iter().map(|t| t.served).sum();
    assert_eq!(served, outcome.stats.num_queries as u64);
}

#[test]
fn tiered_flash_crowd_serve_is_pinned() {
    // Literal pins of multi-tier dispatch on the bundled flash crowd: premium
    // overtaking, best-effort admission drops and the exact per-slot billing.
    let scenario = load("scenarios/mtwnd_tiered_flash.toml");
    let outcome = serve_online_tiered(
        &scenario.workload,
        scenario.traffic.as_ref().expect("serve mode has traffic"),
        &scenario.online_settings,
        scenario.spec.seed,
        scenario.policy.clone(),
        scenario.tiers.clone(),
    )
    .expect("bootstrap converges");
    // (served, satisfied, admission drops, preemptions) per tier, in set order.
    let counts: Vec<_> = outcome
        .tier_totals
        .iter()
        .map(|t| (t.served, t.satisfied, t.admission_drops, t.preemptions))
        .collect();
    assert_eq!(
        counts,
        vec![
            (18904, 18861, 0, 15375),
            (47260, 46983, 0, 0),
            (27901, 27722, 455, 0),
        ]
    );
    assert_eq!(outcome.total_cost_usd.to_bits(), 0x3faa_4256_5741_b2a6);
}

#[test]
fn tiered_fleet_mix_serve_is_pinned() {
    // Literal pins of the tiered fleet: the tiered MT-WND member and the untiered
    // DIEN member share one tiered shared slice, so these cover lane and shared
    // dispatch of every admission class plus the fleet-wide billing.
    let path = repo_root().join("scenarios/fleet_tiered_mix.toml");
    let fleet = ribbon::fleet::Fleet::load(&path.to_string_lossy()).expect("the fleet loads");
    let report = RibbonFleetPlanner.serve(&fleet).expect("the fleet serves");
    let serves: Vec<_> = report
        .models
        .iter()
        .map(|m| m.serve.as_ref().expect("serve mode"))
        .collect();
    let shared: Vec<usize> = serves.iter().map(|s| s.shared_queries).collect();
    assert_eq!(shared, vec![31789, 23635]);
    let counts: Vec<_> = serves[0]
        .tiers
        .iter()
        .map(|t| (t.served, t.satisfied, t.admission_drops, t.preemptions))
        .collect();
    assert_eq!(
        counts,
        vec![
            (13564, 13449, 0, 10995),
            (24415, 24215, 0, 0),
            (16268, 16117, 8, 0),
        ]
    );
    assert!(serves[1].tiers.is_empty(), "DIEN is untiered");
    let totals = report.serve.as_ref().expect("serve totals");
    assert_eq!(totals.total_cost_usd.to_bits(), 0x3fab_b0a7_9f60_a052);
}

// ---------------------------------------------------------------------------
// 2. Single-tier identity with untiered serving.
// ---------------------------------------------------------------------------

#[test]
fn a_single_default_standard_tier_compiles_to_untiered() {
    let mut spec = load("scenarios/mtwnd_flash_crowd.toml").spec;
    spec.qos_tiers = Some(vec![TierSpecDef {
        name: "all".to_string(),
        class: "standard".to_string(),
        weight: None,
        share: 1.0,
        target_rate: None,
        latency_ms: None,
        admission_cap_ms: None,
    }]);
    let compiled = spec
        .compile_with_base(Some(&repo_root().join("scenarios")))
        .unwrap();
    assert!(
        compiled.tiers.is_none(),
        "one default-standard tier is the untiered semantics and must compile away"
    );

    // Any override breaks the degeneracy and the set must survive compilation.
    spec.qos_tiers.as_mut().unwrap()[0].target_rate = Some(0.999);
    let tiered = spec
        .compile_with_base(Some(&repo_root().join("scenarios")))
        .unwrap();
    assert!(tiered.tiers.is_some(), "a rate override is a real tier set");
}

fn mixed_model() -> FnLatencyModel<impl Fn(InstanceType, u32) -> f64> {
    FnLatencyModel::new("mixed", |ty, b| {
        if ty == InstanceType::G4dn {
            0.004 + 4e-5 * b as f64
        } else {
            0.004 + 45e-5 * b as f64
        }
    })
}

fn stream(qps: f64, n: usize, seed: u64) -> Vec<Query> {
    StreamConfig {
        arrivals: ArrivalProcess::Poisson { qps },
        batches: BatchDistribution::default_heavy_tail(32.0, 256),
        num_queries: n,
        seed,
    }
    .generate()
}

#[test]
fn single_standard_tier_streaming_is_bit_identical_to_untiered() {
    let pool = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::C5], vec![2, 3]);
    let m = mixed_model();
    let set = TierSet::try_new(vec![TierSpec::new(
        "all",
        AdmissionClass::Standard,
        1.0,
        1.0,
    )])
    .unwrap();
    let cfg = StreamingSimConfig::new(0.020, 99.0, WindowConfig::tumbling(1.0));

    for seed in [3u64, 19] {
        let queries = stream(700.0, 4000, seed);

        let mut plain = StreamingSim::new(&pool, &m, cfg);
        let mut plain_windows = Vec::new();
        for q in &queries {
            plain.push_into(q, &mut plain_windows);
        }
        plain_windows.extend(plain.finish_windows());

        let mut tiered = StreamingSim::new(&pool, &m, cfg);
        tiered.enable_tiers(set.clone());
        let mut assigner = set.assigner();
        let mut tiered_windows = Vec::new();
        for q in &queries {
            let outcome = tiered.push_tiered_into(q, assigner.next_tier(), &mut tiered_windows);
            assert_eq!(outcome, TierPush::Served { preempted: false });
        }
        tiered_windows.extend(tiered.finish_windows());

        // The standard class replicates the untiered FCFS float operations exactly.
        assert_eq!(plain.latencies(), tiered.latencies(), "seed {seed}");
        assert_eq!(plain.assigned_slots(), tiered.assigned_slots());
        assert_eq!(plain.makespan().to_bits(), tiered.makespan().to_bits());
        assert_eq!(plain.stats(), tiered.stats(), "seed {seed}");

        assert_eq!(plain_windows.len(), tiered_windows.len());
        for (a, b) in plain_windows.iter().zip(&tiered_windows) {
            assert_eq!(a.num_queries, b.num_queries);
            assert_eq!(a.satisfied, b.satisfied);
            assert_eq!(a.satisfaction_rate, b.satisfaction_rate);
            assert_eq!(a.cost_so_far_usd.to_bits(), b.cost_so_far_usd.to_bits());
            assert_eq!(a.pool_hourly_cost.to_bits(), b.pool_hourly_cost.to_bits());
        }

        // The whole stream lands in the one standard tier.
        let totals = tiered.tier_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].served, queries.len() as u64);
        assert_eq!(totals[0].admission_drops, 0);
        assert_eq!(totals[0].preemptions, 0);
    }
}

/// Two coupled members so that the serve drive really routes through the shared
/// slice; traffic and budget trimmed for debug-mode test time.
fn small_fleet_toml() -> &'static str {
    r#"
[fleet]
name = "single-tier-identity"
mode = "serve"
seed = 7
budget = 10
baseline = false
shared_pool = ["g4dn", "r5n"]
shared_bounds = [6, 6]

[[model]]
bounds = [4, 2, 4]

[model.workload]
model = "MT-WND"
num_queries = 800

[model.traffic]
phases = [
  { duration_s = 6.0, qps = 1300.0 },
  { duration_s = 4.0, qps = 1500.0 },
]

[model.online]
window_s = 2.0
spin_up_factor = 0.5
planning_queries = 1000

[[model]]
bounds = [4, 2, 4]

[model.workload]
model = "DIEN"
num_queries = 700

[model.traffic]
phases = [
  { duration_s = 10.0, qps = 1150.0 },
]

[model.online]
window_s = 2.0
spin_up_factor = 0.5
planning_queries = 1000
"#
}

fn serve_small_fleet(single_tier: bool, shards: usize) -> FleetReport {
    let mut spec = FleetSpec::from_toml_str(small_fleet_toml()).unwrap();
    if single_tier {
        spec.models[0].qos_tiers = Some(vec![TierSpecDef {
            name: "all".to_string(),
            class: "standard".to_string(),
            weight: None,
            share: 1.0,
            target_rate: None,
            latency_ms: None,
            admission_cap_ms: None,
        }]);
    }
    spec.shards = Some(shards);
    let fleet = spec.compile().unwrap();
    RibbonFleetPlanner.serve(&fleet).expect("the fleet serves")
}

#[test]
fn single_tier_fleet_member_reproduces_the_untiered_serve_at_every_shard_count() {
    let reference = serve_small_fleet(false, 1);
    for shards in [1usize, 2, 4] {
        let tiered = serve_small_fleet(true, shards);
        assert_eq!(
            reference, tiered,
            "a single default-standard tier at shards={shards} must reproduce the \
             untiered serve report exactly"
        );
        let a = reference.serve.as_ref().unwrap();
        let b = tiered.serve.as_ref().unwrap();
        assert_eq!(a.total_cost_usd.to_bits(), b.total_cost_usd.to_bits());
        assert_eq!(a.final_hourly_cost.to_bits(), b.final_hourly_cost.to_bits());
    }
}

// ---------------------------------------------------------------------------
// 3. Accounting invariants.
// ---------------------------------------------------------------------------

fn three_tier_set(premium_share: f64, standard_share: f64) -> TierSet {
    let mut best_effort = TierSpec::new(
        "batch",
        AdmissionClass::BestEffort,
        0.0,
        1.0 - premium_share - standard_share,
    );
    best_effort.admission_cap_s = Some(0.010);
    TierSet::try_new(vec![
        TierSpec::new("premium", AdmissionClass::Premium, 3.0, premium_share),
        TierSpec::new("standard", AdmissionClass::Standard, 1.0, standard_share),
        best_effort,
    ])
    .unwrap()
}

proptest! {
    /// Random tier shares and stream shapes: in every window the per-tier rows
    /// partition the window's served counts, and over the stream the per-tier totals
    /// partition the per-model totals — served plus admission drops accounts for
    /// every pushed query.
    #[test]
    fn prop_tier_window_counts_partition_model_counts(
        premium_share in 0.10f64..0.45,
        standard_share in 0.10f64..0.45,
        qps in 300.0f64..900.0,
        n in 400usize..1200,
        seed in 0u64..1024,
    ) {
        let set = three_tier_set(premium_share, standard_share);
        let pool = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::C5], vec![1, 2]);
        let m = mixed_model();
        let mut sim = StreamingSim::new(
            &pool,
            &m,
            StreamingSimConfig::new(0.020, 99.0, WindowConfig::tumbling(0.5)),
        );
        sim.enable_tiers(set.clone());
        let mut assigner = set.assigner();
        let queries = stream(qps, n, seed);
        let mut windows = Vec::new();
        let mut dropped = 0u64;
        for q in &queries {
            if sim.push_tiered_into(q, assigner.next_tier(), &mut windows) == TierPush::Dropped {
                dropped += 1;
            }
        }
        windows.extend(sim.finish_windows());

        for w in &windows {
            prop_assert_eq!(w.tiers.len(), set.len());
            let served: usize = w.tiers.iter().map(|t| t.num_queries).sum();
            prop_assert_eq!(served, w.num_queries, "window {} served", w.index);
            let satisfied: usize = w.tiers.iter().map(|t| t.satisfied).sum();
            prop_assert_eq!(satisfied, w.satisfied, "window {} satisfied", w.index);
        }

        let totals = sim.tier_totals();
        let stats = sim.stats();
        let served: u64 = totals.iter().map(|t| t.served).sum();
        let drops: u64 = totals.iter().map(|t| t.admission_drops).sum();
        prop_assert_eq!(served, stats.num_queries as u64);
        prop_assert_eq!(drops, dropped);
        prop_assert_eq!(served + drops, queries.len() as u64);
        let satisfied: u64 = totals.iter().map(|t| t.satisfied).sum();
        prop_assert_eq!(satisfied, stats.satisfied as u64);

        // Window rows recombine into the stream totals tier by tier.
        for (t, total) in totals.iter().enumerate() {
            let window_sum: u64 = windows.iter().map(|w| w.tiers[t].num_queries as u64).sum();
            prop_assert_eq!(window_sum, total.served);
            let drop_sum: u64 = windows.iter().map(|w| w.tiers[t].admission_drops as u64).sum();
            prop_assert_eq!(drop_sum, total.admission_drops);
        }
    }
}

#[test]
fn tiers_without_evidence_in_a_window_report_none() {
    let set = three_tier_set(0.3, 0.4);
    let pool = PoolSpec::homogeneous(InstanceType::G4dn, 1);
    let m = mixed_model();
    let mut sim = StreamingSim::new(
        &pool,
        &m,
        StreamingSimConfig::new(0.020, 99.0, WindowConfig::tumbling(1.0)),
    );
    sim.enable_tiers(set.clone());

    // Only premium (tier 0) queries, at t = 0.5 and t = 5.5: windows 1..=4 are wholly
    // empty, and even window 0 has no standard or best-effort evidence.
    let mut closed = Vec::new();
    for (id, arrival) in [(0u64, 0.5f64), (1, 5.5)] {
        let q = Query {
            id,
            arrival,
            batch_size: 8,
        };
        assert_eq!(
            sim.push_tiered_into(&q, 0, &mut closed),
            TierPush::Served { preempted: false }
        );
    }
    assert_eq!(closed.len(), 5, "windows [0,1) .. [4,5) close at t=5.5");

    let first = &closed[0];
    assert_eq!(first.tiers[0].num_queries, 1);
    assert_eq!(first.tiers[0].satisfaction_rate, Some(1.0));
    for t in 1..set.len() {
        assert_eq!(first.tiers[t].num_queries, 0);
        assert_eq!(
            first.tiers[t].satisfaction_rate, None,
            "a tier that served nothing has no evidence, not a zero rate"
        );
        assert_eq!(first.tiers[t].mean_latency_s, None);
        assert_eq!(first.tiers[t].tail_latency_s, None);
    }
    for w in &closed[1..] {
        assert!(w.is_empty());
        for row in &w.tiers {
            assert_eq!(row.num_queries, 0);
            assert_eq!(row.satisfaction_rate, None);
        }
    }

    // Whole-stream totals: silence is no evidence there either.
    let totals = sim.tier_totals();
    assert_eq!(totals[0].satisfaction_rate(), Some(1.0));
    assert_eq!(totals[1].satisfaction_rate(), None);
    assert_eq!(totals[2].satisfaction_rate(), None);
}
