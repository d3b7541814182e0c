//! Differential suite for the event-driven simulator rewrite: the heap scheduler
//! ([`ribbon_cloudsim::simulate`]) and the lean stats path
//! ([`ribbon_cloudsim::simulate_stats`]) must be bit-identical to the O(Q·N) reference scan
//! ([`ribbon_cloudsim::sim::reference`]) — on hand-built pools, on random pools/streams
//! (proptest), and on every configuration visited by each search strategy.

use proptest::prelude::*;
use ribbon::evaluator::{ConfigEvaluator, EvaluatorSettings};
use ribbon::search::SearchTrace;
use ribbon::strategies::{HillClimbSearch, RandomSearch, ResponseSurfaceSearch, SearchStrategy};
use ribbon::{RibbonSearch, RibbonSettings};
use ribbon_cloudsim::dist::{ArrivalProcess, BatchDistribution};
use ribbon_cloudsim::{sim, simulate, simulate_stats, PoolSpec, Query, StreamConfig};
use ribbon_cloudsim::{InstanceType, ALL_INSTANCE_TYPES};
use ribbon_gp::FitConfig;
use ribbon_models::{ModelKind, Workload};

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
        let oracle = sim::reference::simulate(&pool, &queries, &profile);
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
        let slow = sim::reference::simulate(&pool, &queries, &profile);
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
        let slow = sim::reference::simulate(&pool, &queries, &profile);
        prop_assert_eq!(&fast.latencies, &slow.latencies, "size {}", size);
        prop_assert_eq!(&fast.assigned_instance, &slow.assigned_instance, "size {}", size);
        prop_assert_eq!(fast.makespan, slow.makespan);
        let stats = simulate_stats(&pool, &queries, &profile, 0.02, 99.0);
        prop_assert_eq!(stats.mean_latency_s, slow.mean_latency());
        prop_assert_eq!(stats.tail_latency_s, slow.tail_latency(99.0));
    }
}
