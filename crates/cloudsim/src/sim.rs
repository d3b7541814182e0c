//! The first-come-first-serve heterogeneous pool simulator.
//!
//! The paper's serving policy (Sec. 5.1): queries are processed FCFS, "with the first arrived
//! query going to the first available instance following the heterogeneous type order". Each
//! instance serves one query at a time; a query's end-to-end latency is its queueing delay
//! plus its service time on whichever instance it landed on.
//!
//! # Event-driven scheduler
//!
//! Each query is dispatched to the instance minimizing `(start time, instance index)`
//! lexicographically, where `start = max(free_at, arrival)` and the index follows the pool's
//! type order (Table 3 order, highest-performance type first), so **exactly equal** start
//! times break toward the earlier type. Instead of scanning every instance per query
//! (O(Q·N)), [`simulate`] dispatches through the crate's one slot queue, a min-tree over
//! the instances' `free_at` clocks in index order, and runs in O(Q·log N): the root is the
//! earliest clock, and one root-to-leaf walk finds the lowest index whose clock is at or
//! before `max(root, arrival)` — the lowest idle index when some instance is idle, else the
//! earliest-freeing instance with ties to the earlier type. The streaming simulator and the
//! fleet router dispatch through the same queue.
//!
//! Queries must arrive in non-decreasing order (checked with a debug assertion). Start-time
//! ties are broken by *bit-exact* float equality of `free_at`: a later type wins only with
//! a strictly earlier start, by any margin, even one ULP. The differential suite in
//! `tests/simulator_differential.rs` holds the queue to the O(Q·N) reference scan it
//! replaced, whose docs say why the historical epsilon tolerance was removed.
//!
//! [`simulate`] records the full per-query trace ([`SimResult`]); [`simulate_stats`] is the
//! lean fast path used by the Ribbon evaluator — same scheduler, but it accumulates
//! satisfaction/mean/tail/makespan in a single pass without materializing per-query batch
//! sizes or instance assignments.

use crate::dispatch::SlotQueue;
use crate::instance::{InstanceType, PoolSpec};
use crate::latency::LatencyModel;
use crate::query::Query;
use crate::tier::AdmissionClass;

/// Outcome of simulating one query stream on one pool.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The pool that served the stream.
    pub pool: PoolSpec,
    /// Per-query end-to-end latency in seconds, in arrival order.
    pub latencies: Vec<f64>,
    /// Per-query batch size, in arrival order (kept for per-batch analyses).
    pub batch_sizes: Vec<u32>,
    /// Which concrete instance (index into `pool.expand()`) served each query.
    pub assigned_instance: Vec<usize>,
    /// Number of queries served by each concrete instance.
    pub per_instance_load: Vec<u64>,
    /// Completion time of the last query (seconds since stream start).
    pub makespan: f64,
}

impl SimResult {
    /// Number of simulated queries.
    pub fn num_queries(&self) -> usize {
        self.latencies.len()
    }

    /// Fraction of queries whose latency is within `target_latency` seconds, or `None` for
    /// an empty stream.
    ///
    /// An empty slice carries **no evidence** about QoS: a historical version returned
    /// `1.0`, which made an empty monitoring window read as "QoS perfectly met" and
    /// silently corrupted any windowed comparison. Callers must decide explicitly what an
    /// empty observation means for them (the Ribbon evaluator treats a zero-query stream as
    /// vacuously satisfied; the online controller skips empty windows entirely).
    pub fn satisfaction_rate(&self, target_latency: f64) -> Option<f64> {
        if self.latencies.is_empty() {
            return None;
        }
        let ok = self
            .latencies
            .iter()
            .filter(|&&l| l <= target_latency)
            .count();
        Some(ok as f64 / self.latencies.len() as f64)
    }

    /// Tail latency at percentile `p` (e.g. 99.0), in seconds.
    pub fn tail_latency(&self, p: f64) -> f64 {
        ribbon_linalg::stats::percentile(&self.latencies, p).unwrap_or(0.0)
    }

    /// Mean end-to-end latency in seconds.
    pub fn mean_latency(&self) -> f64 {
        ribbon_linalg::stats::mean(&self.latencies)
    }

    /// Achieved throughput in queries per second over the stream's makespan.
    pub fn throughput_qps(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.num_queries() as f64 / self.makespan
    }
}

/// The pool's instances in type order — the slots a simulator dispatches to.
///
/// # Panics
/// Panics if the pool is empty: an empty pool cannot serve queries.
pub(crate) fn serving_instances(pool: &PoolSpec) -> Vec<InstanceType> {
    let instances = pool.expand();
    assert!(
        !instances.is_empty(),
        "cannot simulate an empty pool ({})",
        pool.describe()
    );
    instances
}

/// The shared event-driven dispatch loop: calls `on_serve(query, instance index,
/// completion)` for every query in arrival order and returns the makespan.
///
/// `instances` must be non-empty and `queries` sorted by arrival (debug-asserted).
fn drive<M, F>(instances: &[InstanceType], queries: &[Query], model: &M, mut on_serve: F) -> f64
where
    M: LatencyModel + ?Sized,
    F: FnMut(&Query, usize, f64),
{
    debug_assert!(
        queries.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "queries must be sorted by arrival time"
    );
    let mut queue = SlotQueue::new(instances.len());
    let mut makespan = 0.0_f64;
    for q in queries {
        let service = |idx: usize| model.service_time(instances[idx], q.batch_size).max(0.0);
        let Some(d) = queue.dispatch(q.arrival, AdmissionClass::Standard, None, service) else {
            unreachable!("standard queries are never dropped");
        };
        if d.completion > makespan {
            makespan = d.completion;
        }
        on_serve(q, d.slot, d.completion);
    }
    makespan
}

/// Simulates serving `queries` (which must be sorted by arrival time) on `pool` under the
/// given latency model, recording the full per-query trace.
///
/// Produces results bit-identical to the O(Q·N) reference scan of
/// `tests/simulator_differential.rs` while running in O(Q·log N). Callers that only need
/// aggregate statistics should use [`simulate_stats`], which skips the per-query trace
/// allocations.
///
/// # Panics
/// Panics if the pool is empty (no instances) — an empty pool cannot serve queries.
pub fn simulate<M: LatencyModel + ?Sized>(
    pool: &PoolSpec,
    queries: &[Query],
    model: &M,
) -> SimResult {
    let instances = serving_instances(pool);

    let mut per_instance_load = vec![0u64; instances.len()];
    let mut latencies = Vec::with_capacity(queries.len());
    let mut batch_sizes = Vec::with_capacity(queries.len());
    let mut assigned = Vec::with_capacity(queries.len());

    let makespan = drive(&instances, queries, model, |q, idx, completion| {
        per_instance_load[idx] += 1;
        latencies.push(completion - q.arrival);
        batch_sizes.push(q.batch_size);
        assigned.push(idx);
    });

    SimResult {
        pool: pool.clone(),
        latencies,
        batch_sizes,
        assigned_instance: assigned,
        per_instance_load,
        makespan,
    }
}

/// Aggregate statistics of one simulated stream — the lean counterpart of [`SimResult`]
/// produced by [`simulate_stats`].
///
/// Every field is bit-identical to what the corresponding [`SimResult`] accessor would
/// return (`satisfaction_rate(target)`, `mean_latency()`, `tail_latency(p)`,
/// `throughput_qps()`): the latency sum, satisfied count, and makespan are accumulated in
/// arrival order — the same floating-point operation sequence as the full-trace path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Number of simulated queries.
    pub num_queries: usize,
    /// Number of queries whose latency was within the target.
    pub satisfied: usize,
    /// Mean end-to-end latency in seconds (0.0 for an empty stream).
    pub mean_latency_s: f64,
    /// Nearest-rank tail latency at the requested percentile (0.0 for an empty stream).
    pub tail_latency_s: f64,
    /// Completion time of the last query (seconds since stream start).
    pub makespan: f64,
}

impl SimStats {
    /// Fraction of queries within the latency target, or `None` for an empty stream
    /// (matching [`SimResult::satisfaction_rate`]: an empty observation carries no QoS
    /// evidence, and each caller decides what that means).
    pub fn satisfaction_rate(&self) -> Option<f64> {
        if self.num_queries == 0 {
            return None;
        }
        Some(self.satisfied as f64 / self.num_queries as f64)
    }

    /// Achieved throughput in queries per second over the stream's makespan.
    pub fn throughput_qps(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.num_queries as f64 / self.makespan
    }
}

/// Simulates a stream and returns only the aggregate statistics the Ribbon evaluator needs:
/// satisfaction rate against `target_latency_s`, mean latency, nearest-rank tail latency at
/// `tail_percentile` (0..=100), and makespan.
///
/// This is the evaluator's hot path: it runs the same event-driven scheduler as
/// [`simulate`] but accumulates the mean/satisfaction counters inline and keeps a single
/// latency buffer for the O(n) tail selection, skipping the batch-size / assignment /
/// per-instance-load allocations and the extra passes the full [`SimResult`] path pays.
///
/// # Panics
/// Panics if the pool is empty.
pub fn simulate_stats<M: LatencyModel + ?Sized>(
    pool: &PoolSpec,
    queries: &[Query],
    model: &M,
    target_latency_s: f64,
    tail_percentile: f64,
) -> SimStats {
    let instances = serving_instances(pool);

    let mut latencies = Vec::with_capacity(queries.len());
    let mut latency_sum = 0.0_f64;
    let mut satisfied = 0usize;

    let makespan = drive(&instances, queries, model, |q, _idx, completion| {
        let latency = completion - q.arrival;
        latency_sum += latency;
        if latency <= target_latency_s {
            satisfied += 1;
        }
        latencies.push(latency);
    });

    let mean_latency_s = if latencies.is_empty() {
        0.0
    } else {
        latency_sum / latencies.len() as f64
    };
    let tail_latency_s =
        ribbon_linalg::stats::percentile_in_place(&mut latencies, tail_percentile).unwrap_or(0.0);

    SimStats {
        num_queries: queries.len(),
        satisfied,
        mean_latency_s,
        tail_latency_s,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ArrivalProcess, BatchDistribution};
    use crate::latency::FnLatencyModel;
    use crate::query::StreamConfig;

    /// Constant 10 ms service time regardless of instance or batch.
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
    #[should_panic(expected = "empty pool")]
    fn simulating_an_empty_pool_panics() {
        let pool = PoolSpec::new(vec![InstanceType::T3], vec![0]);
        let model = constant_model(0.01);
        let _ = simulate(&pool, &[], &model);
    }

    #[test]
    fn idle_instance_serves_immediately() {
        let pool = PoolSpec::homogeneous(InstanceType::G4dn, 1);
        let model = constant_model(0.010);
        let r = simulate(&pool, &queries_at(&[0.0, 1.0], 8), &model);
        assert!(r.latencies.iter().all(|l| (l - 0.010).abs() < 1e-9));
        assert_eq!(r.per_instance_load, vec![2]);
        assert!((r.makespan - 1.010).abs() < 1e-9);
    }

    #[test]
    fn queueing_delay_accumulates_on_a_single_busy_instance() {
        let pool = PoolSpec::homogeneous(InstanceType::T3, 1);
        let model = constant_model(0.010);
        // Three queries arrive simultaneously: latencies 10, 20, 30 ms.
        let r = simulate(&pool, &queries_at(&[0.0, 0.0, 0.0], 8), &model);
        assert!((r.latencies[0] - 0.010).abs() < 1e-12);
        assert!((r.latencies[1] - 0.020).abs() < 1e-12);
        assert!((r.latencies[2] - 0.030).abs() < 1e-12);
    }

    #[test]
    fn more_instances_reduce_queueing() {
        let model = constant_model(0.010);
        let qs = queries_at(&[0.0, 0.0, 0.0, 0.0], 8);
        let one = simulate(&PoolSpec::homogeneous(InstanceType::T3, 1), &qs, &model);
        let four = simulate(&PoolSpec::homogeneous(InstanceType::T3, 4), &qs, &model);
        assert!(four.mean_latency() < one.mean_latency());
        assert_eq!(four.latencies, vec![0.010; 4]);
    }

    #[test]
    fn type_order_breaks_ties_between_idle_instances() {
        // g4dn listed first must take the query when both instances are idle.
        let pool = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![1, 1]);
        let model = FnLatencyModel::new("mixed", |ty, _| {
            if ty == InstanceType::G4dn {
                0.001
            } else {
                0.100
            }
        });
        let r = simulate(&pool, &queries_at(&[0.0], 8), &model);
        assert_eq!(r.assigned_instance, vec![0]);
        assert_eq!(r.latencies, vec![0.001]);
    }

    #[test]
    fn slow_instance_picks_up_overflow_work() {
        let pool = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![1, 1]);
        let model = FnLatencyModel::new("mixed", |ty, _| {
            if ty == InstanceType::G4dn {
                0.010
            } else {
                0.030
            }
        });
        // Two simultaneous queries: the second goes to t3 because g4dn is busy.
        let r = simulate(&pool, &queries_at(&[0.0, 0.0], 8), &model);
        assert_eq!(r.assigned_instance, vec![0, 1]);
        assert_eq!(r.per_instance_load, vec![1, 1]);
    }

    #[test]
    fn satisfaction_rate_counts_only_within_target() {
        let pool = PoolSpec::homogeneous(InstanceType::T3, 1);
        let model = constant_model(0.010);
        let r = simulate(&pool, &queries_at(&[0.0, 0.0, 0.0, 0.0], 8), &model);
        // Latencies are 10, 20, 30, 40 ms.
        assert_eq!(r.satisfaction_rate(0.025), Some(0.5));
        assert_eq!(r.satisfaction_rate(0.040), Some(1.0));
        assert_eq!(r.satisfaction_rate(0.005), Some(0.0));
    }

    #[test]
    fn empty_stream_has_no_satisfaction_evidence_and_zero_throughput() {
        let pool = PoolSpec::homogeneous(InstanceType::T3, 1);
        let model = constant_model(0.010);
        let r = simulate(&pool, &[], &model);
        // No queries → no satisfaction evidence, not "QoS perfectly met".
        assert_eq!(r.satisfaction_rate(0.001), None);
        assert_eq!(r.throughput_qps(), 0.0);
        assert_eq!(r.num_queries(), 0);
    }

    #[test]
    fn tail_latency_and_mean_are_consistent() {
        let pool = PoolSpec::homogeneous(InstanceType::T3, 1);
        let model = constant_model(0.010);
        let r = simulate(&pool, &queries_at(&[0.0, 0.0, 0.0, 0.0, 0.0], 8), &model);
        assert!(r.tail_latency(99.0) >= r.mean_latency());
        assert!((r.tail_latency(100.0) - 0.050).abs() < 1e-12);
    }

    #[test]
    fn batch_dependent_model_prefers_gpu_for_large_batches() {
        // GPU: 2 ms + 0.02 ms/request; CPU: 0.5 ms + 0.2 ms/request.
        let model = FnLatencyModel::new("batchy", |ty, b| {
            if ty == InstanceType::G4dn {
                0.002 + 2e-5 * b as f64
            } else {
                0.0005 + 2e-4 * b as f64
            }
        });
        // Isolated throughput is 1 / service time. Small batch: CPU wins; large batch:
        // GPU wins.
        let qps = |ty, b| 1.0 / model.service_time(ty, b);
        assert!(qps(InstanceType::C5, 4) > qps(InstanceType::G4dn, 4));
        assert!(qps(InstanceType::G4dn, 256) > qps(InstanceType::C5, 256));
        // The simulator agrees: a lone 256-batch query finishes sooner on the GPU.
        let pool = PoolSpec::new(vec![InstanceType::C5, InstanceType::G4dn], vec![1, 1]);
        let r = simulate(&pool, &queries_at(&[0.0, 0.0], 256), &model);
        assert!(r.latencies[1] < r.latencies[0]);
    }

    #[test]
    fn heterogeneous_pool_beats_undersized_homogeneous_pool_on_tail_latency() {
        // A saturated single fast instance develops a queue; adding a cheap slow helper
        // absorbs overflow and improves the tail. This is the Fig. 4 mechanism in miniature.
        let model = FnLatencyModel::new("mixed", |ty, b| {
            if ty == InstanceType::G4dn {
                0.004 + 4e-5 * b as f64
            } else {
                0.004 + 45e-5 * b as f64
            }
        });
        let cfg = StreamConfig {
            arrivals: ArrivalProcess::Poisson { qps: 150.0 },
            batches: BatchDistribution::default_heavy_tail(32.0, 256),
            num_queries: 4000,
            seed: 9,
        };
        let queries = cfg.generate();
        let solo = simulate(
            &PoolSpec::homogeneous(InstanceType::G4dn, 1),
            &queries,
            &model,
        );
        let helped = simulate(
            &PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![1, 2]),
            &queries,
            &model,
        );
        assert!(helped.tail_latency(99.0) < solo.tail_latency(99.0));
        assert!(helped.satisfaction_rate(0.05).unwrap() > solo.satisfaction_rate(0.05).unwrap());
        // The helpers actually served queries.
        assert!(helped.per_instance_load[1] + helped.per_instance_load[2] > 0);
    }

    #[test]
    fn per_instance_load_sums_to_query_count() {
        let model = constant_model(0.002);
        let cfg = StreamConfig {
            arrivals: ArrivalProcess::Poisson { qps: 400.0 },
            batches: BatchDistribution::Uniform { min: 1, max: 64 },
            num_queries: 2000,
            seed: 11,
        };
        let pool = PoolSpec::new(
            vec![InstanceType::C5a, InstanceType::M5, InstanceType::T3],
            vec![2, 1, 1],
        );
        let r = simulate(&pool, &cfg.generate(), &model);
        let total: u64 = r.per_instance_load.iter().sum();
        assert_eq!(total, 2000);
        assert_eq!(r.assigned_instance.len(), 2000);
        assert!(r.assigned_instance.iter().all(|&i| i < 4));
    }

    #[test]
    fn simulate_stats_matches_full_result_bitwise() {
        let model = FnLatencyModel::new("mixed", |ty, b| {
            if ty == InstanceType::G4dn {
                0.004 + 4e-5 * b as f64
            } else {
                0.004 + 45e-5 * b as f64
            }
        });
        let cfg = StreamConfig {
            arrivals: ArrivalProcess::Poisson { qps: 300.0 },
            batches: BatchDistribution::default_heavy_tail(32.0, 256),
            num_queries: 2500,
            seed: 3,
        };
        let queries = cfg.generate();
        let pool = PoolSpec::new(vec![InstanceType::G4dn, InstanceType::T3], vec![2, 3]);
        let target = 0.020;
        let full = simulate(&pool, &queries, &model);
        let stats = simulate_stats(&pool, &queries, &model, target, 99.0);
        assert_eq!(stats.num_queries, full.num_queries());
        assert_eq!(stats.satisfaction_rate(), full.satisfaction_rate(target));
        assert_eq!(stats.mean_latency_s, full.mean_latency());
        assert_eq!(stats.tail_latency_s, full.tail_latency(99.0));
        assert_eq!(stats.makespan, full.makespan);
        assert_eq!(stats.throughput_qps(), full.throughput_qps());
    }

    #[test]
    fn simulate_stats_on_empty_stream() {
        let pool = PoolSpec::homogeneous(InstanceType::T3, 1);
        let model = constant_model(0.010);
        let s = simulate_stats(&pool, &[], &model, 0.01, 99.0);
        assert_eq!(s.num_queries, 0);
        assert_eq!(s.satisfaction_rate(), None);
        assert_eq!(s.mean_latency_s, 0.0);
        assert_eq!(s.tail_latency_s, 0.0);
        assert_eq!(s.throughput_qps(), 0.0);
    }

    #[test]
    fn latencies_are_never_below_service_time() {
        let model = constant_model(0.015);
        let cfg = StreamConfig {
            arrivals: ArrivalProcess::Poisson { qps: 100.0 },
            batches: BatchDistribution::Uniform { min: 1, max: 8 },
            num_queries: 500,
            seed: 21,
        };
        let r = simulate(
            &PoolSpec::homogeneous(InstanceType::M5, 3),
            &cfg.generate(),
            &model,
        );
        assert!(r.latencies.iter().all(|&l| l >= 0.015 - 1e-12));
    }
}
