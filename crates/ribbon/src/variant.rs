//! Joint variant × pool evaluation: the config lattice extended with a per-type
//! serving-variant axis (INFaaS-style model-less serving).
//!
//! A [`VariantEvaluator`] configuration is `[c_0..c_{d-1}, v_0..v_{d-1}]`: the first `d`
//! coordinates are the familiar per-type instance counts, the last `d` pick the serving
//! variant (an index into the workload's variant palette) for every instance of that
//! type. The Eq. 2 objective is computed over the **pool half only** — variants change
//! *how fast* a pool serves, not what it costs per hour — so a joint plan beats a
//! single-variant plan exactly when a mixed per-type assignment satisfies QoS with a
//! strictly cheaper pool.
//!
//! The evaluator implements [`BatchEvaluator`], so the ask/tell [`SearchDriver`], batched
//! parallel evaluation, and multi-fidelity successive halving all work on the joint
//! lattice unchanged. Caching, order preservation, and the soundness of prefix objective
//! upper bounds mirror [`ConfigEvaluator`] exactly (the objective stays monotone in the
//! satisfaction rate for a fixed configuration, and the simulator stays prefix-closed —
//! the variant assignment is fixed for the whole stream).
//!
//! [`SearchDriver`]: crate::search::SearchDriver
//! [`ConfigEvaluator`]: crate::evaluator::ConfigEvaluator

use crate::bounds::{find_bounds, BoundSettings};
#[cfg(test)]
use crate::evaluator::ConfigEvaluator;
use crate::evaluator::{BatchEvaluator, Evaluation, EvaluatorSettings, PrefixEvaluation};
use crate::objective::RibbonObjective;
use parking_lot::Mutex;
use ribbon_bo::ConfigLattice;
use ribbon_cloudsim::{parallel, simulate_stats, PoolSpec, QosEvidence, QosPolicy, Query};
use ribbon_models::{AssignedVariantProfile, VariantKind, VariantSetProfile, Workload};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Evaluates joint variant × pool configurations for one workload.
///
/// Built from a workload whose `variants` palette is non-empty; index 0 of the palette is
/// by convention the accuracy-best variant. See the module docs for the configuration
/// layout and the relationship to [`ConfigEvaluator`](crate::evaluator::ConfigEvaluator).
pub struct VariantEvaluator {
    workload: Workload,
    profile: VariantSetProfile,
    policy: Arc<dyn QosPolicy>,
    queries: Vec<Query>,
    objective: RibbonObjective,
    pool_bounds: Vec<u32>,
    threads: usize,
    // lint:allow(hash-container): lookup-only memo (insert/get by exact key); never iterated
    cache: Mutex<HashMap<Vec<u32>, Evaluation>>,
    simulations: AtomicUsize,
    // lint:allow(hash-container): lookup-only memo (insert/get by exact key); never iterated
    prefix_cache: Mutex<HashMap<(usize, Vec<u32>), PrefixEvaluation>>,
    prefix_simulations: AtomicUsize,
    prefix_queries: AtomicUsize,
}

impl VariantEvaluator {
    /// Builds a joint evaluator. Per-type pool bounds are probed (or taken explicitly)
    /// exactly as in [`ConfigEvaluator::new`](crate::evaluator::ConfigEvaluator::new),
    /// against the accuracy-best baseline variant — bounds are caps, and the baseline is
    /// the palette's reference speed.
    ///
    /// # Panics
    /// Panics if the workload's variant palette is empty (use
    /// [`ConfigEvaluator`](crate::evaluator::ConfigEvaluator) for variant-less
    /// workloads) or if explicit bounds mismatch the pool's type count.
    pub fn new(workload: &Workload, settings: EvaluatorSettings) -> Self {
        Self::with_policy(workload, settings, Arc::new(workload.qos))
    }

    /// Builds a joint evaluator judging configurations against an arbitrary QoS policy.
    pub fn with_policy(
        workload: &Workload,
        settings: EvaluatorSettings,
        policy: Arc<dyn QosPolicy>,
    ) -> Self {
        assert!(
            !workload.variants.is_empty(),
            "a variant evaluator needs a non-empty variant palette"
        );
        let profile = workload.variant_profile();
        let baseline = workload.profile();
        let queries = workload.stream_config().generate();
        let threads = settings
            .threads
            .unwrap_or_else(parallel::default_threads)
            .max(1);
        let pool_bounds = match settings.explicit_bounds {
            Some(b) => {
                assert_eq!(
                    b.len(),
                    workload.diverse_pool.len(),
                    "explicit bounds must match the pool's type count"
                );
                b
            }
            None => find_bounds(
                &workload.diverse_pool,
                &queries,
                &baseline,
                policy.deadline_s(),
                &BoundSettings {
                    max_per_type: settings.max_per_type,
                    saturation_epsilon: settings.saturation_epsilon,
                    threads,
                },
            ),
        };
        let objective =
            RibbonObjective::new(&workload.diverse_pool, &pool_bounds, policy.threshold());
        VariantEvaluator {
            workload: workload.clone(),
            profile,
            policy,
            queries,
            objective,
            pool_bounds,
            threads,
            // lint:allow(hash-container): lookup-only memo; never iterated
            cache: Mutex::new(HashMap::new()),
            simulations: AtomicUsize::new(0),
            // lint:allow(hash-container): lookup-only memo; never iterated
            prefix_cache: Mutex::new(HashMap::new()),
            prefix_simulations: AtomicUsize::new(0),
            prefix_queries: AtomicUsize::new(0),
        }
    }

    /// The workload this evaluator serves.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The QoS policy configurations are judged against.
    pub fn policy(&self) -> &Arc<dyn QosPolicy> {
        &self.policy
    }

    /// Number of pool types `d`; joint configurations have `2 d` coordinates.
    pub fn pool_dims(&self) -> usize {
        self.workload.diverse_pool.len()
    }

    /// The per-type pool bounds m_i (the first `d` lattice bounds).
    pub fn pool_bounds(&self) -> &[u32] {
        &self.pool_bounds
    }

    /// The joint lattice's bounds: the pool bounds followed by `V − 1` for every variant
    /// coordinate.
    pub fn joint_bounds(&self) -> Vec<u32> {
        let palette_top = (self.profile.variants().len() as u32).saturating_sub(1);
        let mut bounds = self.pool_bounds.clone();
        bounds.extend(std::iter::repeat_n(palette_top, self.pool_dims()));
        bounds
    }

    /// The Eq. 2 objective (over the pool half of a configuration).
    pub fn objective(&self) -> &RibbonObjective {
        &self.objective
    }

    /// Number of distinct joint simulations run so far (cache misses).
    pub fn num_simulations(&self) -> usize {
        self.simulations.load(Ordering::Relaxed)
    }

    /// The query stream all configurations are evaluated against.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Splits a joint configuration into its pool-counts and variant-assignment halves.
    pub fn split<'c>(&self, config: &'c [u32]) -> (&'c [u32], &'c [u32]) {
        config.split_at(self.pool_dims())
    }

    /// The palette entries a joint configuration assigns, parallel to the diverse pool.
    pub fn assigned_variants(&self, config: &[u32]) -> Vec<VariantKind> {
        let (_, variants) = self.split(config);
        variants
            .iter()
            .map(|&v| self.profile.variants()[v as usize])
            .collect()
    }

    /// The joint configuration serving `counts` entirely on the baseline variant.
    pub fn baseline_config(&self, counts: &[u32]) -> Vec<u32> {
        let mut config = counts.to_vec();
        config.resize(2 * self.pool_dims(), 0);
        config
    }

    /// The worst (lowest) accuracy any *populated* type serves under a configuration;
    /// the palette's best accuracy when the pool half is empty.
    pub fn worst_accuracy(&self, config: &[u32]) -> f64 {
        let (counts, variants) = self.split(config);
        counts
            .iter()
            .zip(variants)
            .filter(|(&c, _)| c > 0)
            .map(|(_, &v)| self.profile.accuracy_of(v))
            .fold(self.profile.accuracy_of(0), f64::min)
    }

    /// Panics unless `config` is a valid joint configuration: `2 d` coordinates, a
    /// non-empty pool half, and in-palette variant indices.
    fn validate(&self, config: &[u32]) {
        let d = self.pool_dims();
        assert_eq!(
            config.len(),
            2 * d,
            "joint configuration has {} entries but the variant lattice has {} (pool {d} + variants {d})",
            config.len(),
            2 * d
        );
        assert!(
            config[..d].iter().any(|&c| c > 0),
            "cannot evaluate an empty pool"
        );
        let palette = self.profile.variants().len() as u32;
        for (i, &v) in config[d..].iter().enumerate() {
            assert!(
                v < palette,
                "variant coordinate {i} is {v} but the palette has {palette} variants"
            );
        }
    }

    /// The simulated latency model of one joint configuration: the workload's variant
    /// set with each pool type pinned to its assigned palette index.
    fn assigned_profile(&self, variants: &[u32]) -> AssignedVariantProfile {
        let assignment: Vec<_> = self
            .workload
            .diverse_pool
            .iter()
            .zip(variants)
            .map(|(&ty, &v)| (ty, v))
            .collect();
        AssignedVariantProfile::new(self.profile.clone(), &assignment)
    }

    /// Runs the actual joint simulation — a pure function of the evaluator's immutable
    /// state, shared by the serial and batch paths (the parallel-safety contract of
    /// [`ConfigEvaluator`] carries over unchanged).
    fn simulate_config(&self, config: &[u32]) -> Evaluation {
        let (counts, variants) = self.split(config);
        let pool = PoolSpec::from_counts(&self.workload.diverse_pool, counts);
        let assigned = self.assigned_profile(variants);
        let stats = simulate_stats(
            &pool,
            &self.queries,
            &assigned,
            self.policy.deadline_s(),
            self.policy.tail_percentile(),
        );
        let rate = self
            .policy
            .score(&QosEvidence::from_stats(&stats))
            .unwrap_or(1.0);
        Evaluation {
            config: config.to_vec(),
            hourly_cost: pool.hourly_cost(),
            satisfaction_rate: rate,
            meets_qos: self.objective.meets_qos(rate),
            objective: self.objective.value(counts, rate),
            mean_latency_s: stats.mean_latency_s,
            tail_latency_s: stats.tail_latency_s,
            tier_totals: Vec::new(),
            pool,
        }
    }

    fn simulate_config_prefix(&self, config: &[u32], k: usize) -> PrefixEvaluation {
        let k = k.min(self.queries.len());
        let (counts, variants) = self.split(config);
        let pool = PoolSpec::from_counts(&self.workload.diverse_pool, counts);
        let assigned = self.assigned_profile(variants);
        let stats = simulate_stats(
            &pool,
            &self.queries[..k],
            &assigned,
            self.policy.deadline_s(),
            self.policy.tail_percentile(),
        );
        let evidence = QosEvidence::from_stats(&stats);
        let rate = self.policy.score(&evidence).unwrap_or(1.0);
        let remaining = self.queries.len() - k;
        let ub_rate = self.policy.prefix_score_upper_bound(&evidence, remaining);
        // Same monotonicity argument as the pool-only evaluator: for a fixed joint
        // configuration Eq. 2 is nondecreasing in the rate, so a sound rate bound gives a
        // sound objective bound.
        let objective_upper_bound = self.objective.value(counts, ub_rate);
        PrefixEvaluation {
            evaluation: Evaluation {
                config: config.to_vec(),
                hourly_cost: pool.hourly_cost(),
                satisfaction_rate: rate,
                meets_qos: self.objective.meets_qos(rate),
                objective: self.objective.value(counts, rate),
                mean_latency_s: stats.mean_latency_s,
                tail_latency_s: stats.tail_latency_s,
                tier_totals: Vec::new(),
                pool,
            },
            prefix_len: k,
            objective_upper_bound,
        }
    }
}

impl BatchEvaluator for VariantEvaluator {
    fn num_queries(&self) -> usize {
        self.queries.len()
    }

    fn prefix_len(&self, fidelity: f64) -> usize {
        let n = self.queries.len();
        (((n as f64) * fidelity).ceil() as usize).clamp(1, n.max(1))
    }

    /// The joint lattice: pool bounds followed by `V − 1` for every variant coordinate.
    fn lattice(&self) -> ConfigLattice {
        ConfigLattice::new(self.joint_bounds())
    }

    fn target_rate(&self) -> f64 {
        self.objective.target_rate()
    }

    fn evaluate(&self, config: &[u32]) -> Evaluation {
        self.validate(config);
        if let Some(hit) = self.cache.lock().get(config) {
            return hit.clone();
        }
        let eval = self.simulate_config(config);
        self.simulations.fetch_add(1, Ordering::Relaxed);
        self.cache.lock().insert(config.to_vec(), eval.clone());
        eval
    }

    fn evaluate_many(&self, configs: &[Vec<u32>]) -> Vec<Evaluation> {
        for c in configs {
            self.validate(c);
        }
        let mut results: Vec<Option<Evaluation>> = vec![None; configs.len()];
        let mut misses: Vec<Vec<u32>> = Vec::new();
        {
            let cache = self.cache.lock();
            let mut queued: BTreeSet<&[u32]> = BTreeSet::new();
            for (slot, config) in results.iter_mut().zip(configs) {
                if let Some(hit) = cache.get(config.as_slice()) {
                    *slot = Some(hit.clone());
                } else if queued.insert(config.as_slice()) {
                    misses.push(config.clone());
                }
            }
        }
        let fresh = parallel::par_map(&misses, self.threads, |c| self.simulate_config(c));
        self.simulations.fetch_add(fresh.len(), Ordering::Relaxed);
        {
            let mut cache = self.cache.lock();
            for eval in &fresh {
                cache.insert(eval.config.clone(), eval.clone());
            }
        }
        let by_config: BTreeMap<&[u32], &Evaluation> =
            fresh.iter().map(|e| (e.config.as_slice(), e)).collect();
        results
            .into_iter()
            .zip(configs)
            .map(|(slot, config)| match slot {
                Some(eval) => eval,
                None => (*by_config
                    .get(config.as_slice())
                    .expect("every miss was simulated"))
                .clone(),
            })
            .collect()
    }

    fn evaluate_many_prefix(&self, configs: &[Vec<u32>], k: usize) -> Vec<PrefixEvaluation> {
        assert!(k > 0, "prefix length must be at least 1");
        let k = k.min(self.queries.len());
        for c in configs {
            self.validate(c);
        }
        let mut results: Vec<Option<PrefixEvaluation>> = vec![None; configs.len()];
        let mut misses: Vec<Vec<u32>> = Vec::new();
        {
            let cache = self.prefix_cache.lock();
            let mut queued: BTreeSet<&[u32]> = BTreeSet::new();
            for (slot, config) in results.iter_mut().zip(configs) {
                if let Some(hit) = cache.get(&(k, config.clone())) {
                    *slot = Some(hit.clone());
                } else if queued.insert(config.as_slice()) {
                    misses.push(config.clone());
                }
            }
        }
        let fresh = parallel::par_map(&misses, self.threads, |c| self.simulate_config_prefix(c, k));
        self.prefix_simulations
            .fetch_add(fresh.len(), Ordering::Relaxed);
        self.prefix_queries
            .fetch_add(fresh.len() * k, Ordering::Relaxed);
        {
            let mut cache = self.prefix_cache.lock();
            for pe in &fresh {
                cache.insert((k, pe.evaluation.config.clone()), pe.clone());
            }
        }
        let by_config: BTreeMap<&[u32], &PrefixEvaluation> = fresh
            .iter()
            .map(|pe| (pe.evaluation.config.as_slice(), pe))
            .collect();
        results
            .into_iter()
            .zip(configs)
            .map(|(slot, config)| match slot {
                Some(pe) => pe,
                None => (*by_config
                    .get(config.as_slice())
                    .expect("every prefix miss was simulated"))
                .clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ribbon_models::{ModelKind, ALL_VARIANT_KINDS};

    fn variant_workload() -> Workload {
        let mut w = Workload::standard(ModelKind::MtWnd);
        w.num_queries = 800;
        w.variants = ALL_VARIANT_KINDS.to_vec();
        w
    }

    fn settings() -> EvaluatorSettings {
        EvaluatorSettings {
            explicit_bounds: Some(vec![6, 6, 6]),
            ..Default::default()
        }
    }

    #[test]
    fn lattice_appends_a_variant_axis_per_pool_type() {
        let ev = VariantEvaluator::new(&variant_workload(), settings());
        assert_eq!(ev.pool_dims(), 3);
        assert_eq!(ev.lattice().dims(), 6);
        assert!(BatchEvaluator::lattice(&ev).contains(&[6, 6, 6, 2, 2, 2]));
        assert!(!BatchEvaluator::lattice(&ev).contains(&[1, 1, 1, 3, 0, 0]));
    }

    #[test]
    fn baseline_assignment_is_bit_identical_to_the_pool_only_evaluator() {
        let w = variant_workload();
        let joint = VariantEvaluator::new(&w, settings());
        let mut plain_w = w.clone();
        plain_w.variants.clear();
        let plain = ConfigEvaluator::new(&plain_w, settings());
        for counts in [[3u32, 1, 2], [5, 0, 0], [0, 2, 4]] {
            let j = joint.evaluate(&joint.baseline_config(&counts));
            let p = BatchEvaluator::evaluate(&plain, &counts);
            assert_eq!(
                j.satisfaction_rate.to_bits(),
                p.satisfaction_rate.to_bits(),
                "{counts:?}"
            );
            assert_eq!(j.mean_latency_s.to_bits(), p.mean_latency_s.to_bits());
            assert_eq!(j.tail_latency_s.to_bits(), p.tail_latency_s.to_bits());
            assert_eq!(j.objective.to_bits(), p.objective.to_bits());
            assert_eq!(j.hourly_cost.to_bits(), p.hourly_cost.to_bits());
        }
    }

    #[test]
    fn variant_assignment_changes_latency_but_not_cost() {
        let ev = VariantEvaluator::new(&variant_workload(), settings());
        let base = ev.evaluate(&[0, 4, 0, 0, 0, 0]);
        // m5 (pool type 1) on int8-compiled runs at 0.76× baseline speed.
        let int8 = ev.evaluate(&[0, 4, 0, 0, 2, 0]);
        assert_eq!(base.hourly_cost.to_bits(), int8.hourly_cost.to_bits());
        assert!(
            int8.mean_latency_s < base.mean_latency_s,
            "int8 on CPU must be faster: {} vs {}",
            int8.mean_latency_s,
            base.mean_latency_s
        );
        assert!(int8.satisfaction_rate >= base.satisfaction_rate);
    }

    #[test]
    fn evaluate_many_matches_serial_and_caches_jointly() {
        let ev = VariantEvaluator::new(&variant_workload(), settings());
        let configs = vec![
            vec![3u32, 1, 2, 0, 1, 2],
            vec![5, 0, 0, 1, 0, 0],
            vec![3, 1, 2, 0, 1, 2],
        ];
        let batch = ev.evaluate_many(&configs);
        assert_eq!(ev.num_simulations(), 2, "duplicates collapse");
        for (c, e) in configs.iter().zip(&batch) {
            assert_eq!(&e.config, c);
            assert_eq!(e, &ev.evaluate(c), "serial re-read must hit the cache");
        }
        assert_eq!(ev.num_simulations(), 2);
    }

    #[test]
    fn prefix_bounds_are_sound_on_the_joint_lattice() {
        let ev = VariantEvaluator::new(&variant_workload(), settings());
        let configs = vec![vec![3u32, 1, 2, 1, 2, 0], vec![2, 2, 2, 0, 0, 1]];
        let k = BatchEvaluator::prefix_len(&ev, 0.25);
        for pe in ev.evaluate_many_prefix(&configs, k) {
            let full = ev.evaluate(&pe.evaluation.config);
            assert!(
                pe.objective_upper_bound >= full.objective - 1e-12,
                "{:?}: ub {} < full {}",
                pe.evaluation.config,
                pe.objective_upper_bound,
                full.objective
            );
        }
    }

    #[test]
    fn accuracy_and_split_helpers() {
        let ev = VariantEvaluator::new(&variant_workload(), settings());
        let config = vec![2u32, 0, 3, 1, 2, 0];
        let (counts, variants) = ev.split(&config);
        assert_eq!(counts, &[2, 0, 3]);
        assert_eq!(variants, &[1, 2, 0]);
        // Type 1 is empty, so its int8 assignment does not drag worst accuracy down.
        let acc = ev.worst_accuracy(&config);
        assert_eq!(
            acc,
            ribbon_models::variants::accuracy(ModelKind::MtWnd, VariantKind::Fp16B8)
        );
        assert_eq!(
            ev.assigned_variants(&config),
            vec![
                VariantKind::Fp16B8,
                VariantKind::Int8Compiled,
                VariantKind::Fp32B1
            ]
        );
    }

    #[test]
    #[should_panic(expected = "variant coordinate")]
    fn out_of_palette_coordinates_are_rejected() {
        let ev = VariantEvaluator::new(&variant_workload(), settings());
        let _ = ev.evaluate(&[1, 1, 1, 0, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "non-empty variant palette")]
    fn variantless_workloads_are_rejected() {
        let mut w = variant_workload();
        w.variants.clear();
        let _ = VariantEvaluator::new(&w, settings());
    }
}
