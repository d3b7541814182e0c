//! Differential suite for the event-driven simulator rewrite: the heap scheduler
//! ([`ribbon_cloudsim::simulate`]) and the lean stats path
//! ([`ribbon_cloudsim::simulate_stats`]) must be bit-identical to the O(Q·N) reference scan
//! ([`reference_simulate`]) — on hand-built pools, on random pools/streams (proptest),
//! and on every configuration visited by each search strategy.

use proptest::prelude::*;
use ribbon::evaluator::{ConfigEvaluator, EvaluatorSettings};
use ribbon::search::SearchTrace;
use ribbon::strategies::{HillClimbSearch, RandomSearch, ResponseSurfaceSearch, SearchStrategy};
use ribbon::{RibbonSearch, RibbonSettings};
use ribbon_cloudsim::dist::{ArrivalProcess, BatchDistribution};
use ribbon_cloudsim::latency::FnLatencyModel;
use ribbon_cloudsim::{simulate, simulate_stats, LatencyModel, PoolSpec, Query, SimResult};
use ribbon_cloudsim::{InstanceType, StreamConfig, ALL_INSTANCE_TYPES};
use ribbon_gp::FitConfig;
use ribbon_models::{ModelKind, Workload};

/// The original O(Q·N) linear-scan scheduler: the differential oracle of
/// [`ribbon_cloudsim::simulate`], a full scan over `free_at` per query.
///
/// # Tie semantics
///
/// The dispatch target is the instance minimizing `(start, index)` lexicographically,
/// with ties broken by **bit-exact** float equality: an instance later in the type
/// order is preferred only when its start time is *strictly* smaller (by any margin,
/// even one ULP). A historical version used an epsilon tolerance
/// (`start < best_start - 1e-12`), treating near-ties as ties; that relation is not
/// transitive, so no total order — and therefore no priority queue — can reproduce
/// it. Exact comparison is the semantics both implementations share and this suite
/// pins down.
fn reference_simulate<M: LatencyModel + ?Sized>(
    pool: &PoolSpec,
    queries: &[Query],
    model: &M,
) -> SimResult {
    let instances = pool.expand();
    assert!(!instances.is_empty(), "cannot simulate an empty pool");

    let mut free_at = vec![0.0_f64; instances.len()];
    let mut per_instance_load = vec![0u64; instances.len()];
    let mut latencies = Vec::with_capacity(queries.len());
    let mut batch_sizes = Vec::with_capacity(queries.len());
    let mut assigned = Vec::with_capacity(queries.len());
    let mut makespan = 0.0_f64;

    for q in queries {
        // Pick the instance that can start this query earliest; exactly equal start
        // times go to the earlier position in the pool's type order (Table 3 order).
        let mut best_idx = 0usize;
        let mut best_start = f64::INFINITY;
        for (idx, &free) in free_at.iter().enumerate() {
            let start = free.max(q.arrival);
            if start < best_start {
                best_start = start;
                best_idx = idx;
            }
        }
        let service = model
            .service_time(instances[best_idx], q.batch_size)
            .max(0.0);
        let completion = best_start + service;
        free_at[best_idx] = completion;
        per_instance_load[best_idx] += 1;
        latencies.push(completion - q.arrival);
        batch_sizes.push(q.batch_size);
        assigned.push(best_idx);
        if completion > makespan {
            makespan = completion;
        }
    }

    SimResult {
        pool: pool.clone(),
        latencies,
        batch_sizes,
        assigned_instance: assigned,
        per_instance_load,
        makespan,
    }
}

fn small_workload() -> Workload {
    let mut w = Workload::standard(ModelKind::MtWnd);
    w.num_queries = 800;
    w
}

fn small_evaluator() -> ConfigEvaluator {
    ConfigEvaluator::new(
        &small_workload(),
        EvaluatorSettings {
            explicit_bounds: Some(vec![6, 4, 6]),
            ..Default::default()
        },
    )
}

/// Recomputes every evaluation of a trace with the reference scan and asserts the metrics
/// the evaluator derived from the event-driven lean path match bit for bit.
fn assert_trace_matches_reference(trace: &SearchTrace, workload: &Workload) {
    assert!(!trace.is_empty(), "strategy produced an empty trace");
    let profile = workload.profile();
    let queries = workload.stream_config().generate();
    for e in trace.evaluations() {
        let pool = PoolSpec::from_counts(&workload.diverse_pool, &e.config);
        let oracle = reference_simulate(&pool, &queries, &profile);
        assert_eq!(
            Some(e.satisfaction_rate),
            oracle.satisfaction_rate(workload.qos.latency_target_s),
            "satisfaction diverges on {:?} ({})",
            e.config,
            trace.strategy
        );
        assert_eq!(e.mean_latency_s, oracle.mean_latency(), "{:?}", e.config);
        assert_eq!(
            e.tail_latency_s,
            oracle.tail_latency(workload.qos.target_rate * 100.0),
            "{:?}",
            e.config
        );
    }
}

#[test]
fn ribbon_search_metrics_match_the_reference_scan() {
    let w = small_workload();
    let ev = small_evaluator();
    let trace = RibbonSearch::new(RibbonSettings {
        max_evaluations: 12,
        fit: FitConfig::coarse(),
        ..RibbonSettings::fast()
    })
    .run(&ev, 5);
    assert_trace_matches_reference(&trace, &w);
}

#[test]
fn baseline_strategy_metrics_match_the_reference_scan() {
    let w = small_workload();
    let strategies: Vec<Box<dyn SearchStrategy>> = vec![
        Box::new(RandomSearch::new(10)),
        Box::new(HillClimbSearch::new(10)),
        Box::new(ResponseSurfaceSearch::new(10)),
    ];
    for s in strategies {
        let ev = small_evaluator();
        let trace = s.run_search(&ev, 7);
        assert_trace_matches_reference(&trace, &w);
    }
}

/// Constant service time regardless of instance or batch.
fn constant_model(seconds: f64) -> FnLatencyModel<impl Fn(InstanceType, u32) -> f64> {
    FnLatencyModel::new("const", move |_, _| seconds)
}

fn queries_at(times: &[f64], batch: u32) -> Vec<Query> {
    times
        .iter()
        .enumerate()
        .map(|(i, &t)| Query {
            id: i as u64,
            arrival: t,
            batch_size: batch,
        })
        .collect()
}

#[test]
fn heap_scheduler_matches_reference_scan_bitwise() {
    let model = FnLatencyModel::new("mixed", |ty, b| match ty {
        InstanceType::G4dn => 0.004 + 4e-5 * b as f64,
        InstanceType::C5 => 0.006 + 1.2e-4 * b as f64,
        _ => 0.004 + 45e-5 * b as f64,
    });
    for seed in [1u64, 7, 42] {
        let cfg = StreamConfig {
            arrivals: ArrivalProcess::Poisson { qps: 600.0 },
            batches: BatchDistribution::default_heavy_tail(32.0, 256),
            num_queries: 3000,
            seed,
        };
        let queries = cfg.generate();
        let pool = PoolSpec::new(
            vec![InstanceType::G4dn, InstanceType::C5, InstanceType::T3],
            vec![2, 3, 4],
        );
        let fast = simulate(&pool, &queries, &model);
        let slow = reference_simulate(&pool, &queries, &model);
        assert_eq!(fast.latencies, slow.latencies, "seed {seed}");
        assert_eq!(
            fast.assigned_instance, slow.assigned_instance,
            "seed {seed}"
        );
        assert_eq!(fast.per_instance_load, slow.per_instance_load);
        assert_eq!(fast.batch_sizes, slow.batch_sizes);
        assert_eq!(fast.makespan, slow.makespan);
    }
}

#[test]
fn exactly_equal_free_times_tie_to_the_earlier_type() {
    // Two identical-speed instances: after each round both free at bit-identical
    // times, so every dispatch with both idle or both busy must pick index order.
    let pool = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![1, 1]);
    let model = constant_model(0.010);
    let queries = queries_at(&[0.0, 0.0, 0.010, 0.010, 0.020, 0.020], 8);
    let r = simulate(&pool, &queries, &model);
    assert_eq!(r.assigned_instance, vec![0, 1, 0, 1, 0, 1]);
    let s = reference_simulate(&pool, &queries, &model);
    assert_eq!(r.assigned_instance, s.assigned_instance);
}

#[test]
fn one_ulp_earlier_start_wins_over_type_order() {
    // The later-type instance frees one ULP earlier than the earlier type: under
    // bit-exact tie semantics the strictly earlier start must win in BOTH
    // implementations, even though the margin is far below the old 1e-12 epsilon.
    let early = 1.0_f64;
    let late = f64::from_bits(early.to_bits() + 1); // 1.0 + 1 ULP
    let model = FnLatencyModel::new("ulp", move |ty, _| {
        if ty == InstanceType::G4dn {
            late
        } else {
            early
        }
    });
    let pool = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![1, 1]);
    // Queries 0 and 1 occupy both instances; query 2 arrives while both are busy.
    let queries = queries_at(&[0.0, 0.0, 0.5], 8);
    let r = simulate(&pool, &queries, &model);
    let s = reference_simulate(&pool, &queries, &model);
    assert_eq!(
        r.assigned_instance, s.assigned_instance,
        "dispatcher and scan must agree on sub-epsilon margins"
    );
    assert_eq!(
        r.assigned_instance[2], 1,
        "the strictly (1 ULP) earlier t3 must win the third query"
    );
}

fn query_stream(qps: f64, n: usize, seed: u64) -> Vec<Query> {
    StreamConfig {
        arrivals: ArrivalProcess::Poisson { qps },
        batches: BatchDistribution::default_heavy_tail(32.0, 256),
        num_queries: n,
        seed,
    }
    .generate()
}

proptest! {

    /// Random pools (1–5 types, 0–4 instances each, at least one instance) and random
    /// streams: heap, reference scan, and lean stats must agree exactly.
    #[test]
    fn prop_heap_scan_and_stats_agree_on_random_pools(
        type_mask in 0usize..8,
        c0 in 0u32..5,
        c1 in 0u32..5,
        c2 in 0u32..5,
        c3 in 0u32..5,
        c4 in 0u32..5,
        qps in 50.0f64..1500.0,
        n in 1usize..600,
        seed in 0u64..1000,
    ) {
        // Pick 5 types deterministically from the catalog, rotated by the mask.
        let types: Vec<InstanceType> =
            (0..5).map(|i| ALL_INSTANCE_TYPES[(i + type_mask) % ALL_INSTANCE_TYPES.len()]).collect();
        let mut counts = vec![c0, c1, c2, c3, c4];
        if counts.iter().all(|&c| c == 0) {
            counts[0] = 1;
        }
        let pool = PoolSpec::from_counts(&types, &counts);
        let queries = query_stream(qps, n, seed);
        let profile = ribbon_models::ModelProfile::new(ModelKind::MtWnd);

        let fast = simulate(&pool, &queries, &profile);
        let slow = reference_simulate(&pool, &queries, &profile);
        prop_assert_eq!(&fast.latencies, &slow.latencies);
        prop_assert_eq!(&fast.assigned_instance, &slow.assigned_instance);
        prop_assert_eq!(&fast.per_instance_load, &slow.per_instance_load);
        prop_assert_eq!(fast.makespan, slow.makespan);

        let target = 0.02;
        let stats = simulate_stats(&pool, &queries, &profile, target, 99.0);
        prop_assert_eq!(stats.num_queries, slow.num_queries());
        prop_assert_eq!(stats.satisfaction_rate(), slow.satisfaction_rate(target));
        prop_assert_eq!(stats.mean_latency_s, slow.mean_latency());
        prop_assert_eq!(stats.tail_latency_s, slow.tail_latency(99.0));
        prop_assert_eq!(stats.makespan, slow.makespan);
    }

    /// Pool sizes that are and are not powers of two, up to 200 instances, spread over
    /// 1–3 types: the dispatcher's padding and tree depth change across these sizes,
    /// and its choices must still equal the reference scan's.
    #[test]
    fn prop_scheduler_matches_the_reference_scan_across_pool_sizes(
        size in [1u32, 2, 3, 5, 17, 64, 200].as_slice(),
        split_a in 0.0f64..1.0,
        split_b in 0.0f64..1.0,
        type_offset in 0usize..8,
        load in 0.3f64..1.5,
        n in 1usize..1500,
        seed in 0u64..1000,
    ) {
        // Split `size` instances over three rotated catalog types (some counts may be 0).
        let first = (size as f64 * split_a) as u32;
        let second = ((size - first) as f64 * split_b) as u32;
        let counts = vec![first, second, size - first - second];
        let types: Vec<InstanceType> = (0..3)
            .map(|i| ALL_INSTANCE_TYPES[(type_offset + 3 * i) % ALL_INSTANCE_TYPES.len()])
            .collect();
        let pool = PoolSpec::from_counts(&types, &counts);
        // Offered load scales with the pool so large pools also queue.
        let queries = query_stream(load * 120.0 * size as f64, n, seed);
        let profile = ribbon_models::ModelProfile::new(ModelKind::MtWnd);

        let fast = simulate(&pool, &queries, &profile);
        let slow = reference_simulate(&pool, &queries, &profile);
        prop_assert_eq!(&fast.latencies, &slow.latencies, "size {}", size);
        prop_assert_eq!(&fast.assigned_instance, &slow.assigned_instance, "size {}", size);
        prop_assert_eq!(fast.makespan, slow.makespan);
        let stats = simulate_stats(&pool, &queries, &profile, 0.02, 99.0);
        prop_assert_eq!(stats.mean_latency_s, slow.mean_latency());
        prop_assert_eq!(stats.tail_latency_s, slow.tail_latency(99.0));
    }
}
