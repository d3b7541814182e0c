//! A Tree-structured Parzen Estimator (TPE) optimizer over the configuration lattice.
//!
//! TPE inverts the GP's modelling direction: instead of modelling `p(value | config)` it
//! splits the observation history at the `gamma`-quantile into *good* and *bad* sets and
//! models the two conditional densities `l(x) = p(x | good)` and `g(x) = p(x | bad)`.
//! Candidates are drawn from `l` and ranked by `log l(x) − log g(x)` — maximizing the
//! expected-improvement proxy without any matrix algebra, which keeps per-ask cost flat as
//! the history grows (the GP pays O(n²) per appended observation and O(lattice) per scan).
//!
//! Lattice adaptation: each dimension gets an independent **categorical Parzen** density
//! over `0..=bound` — observation counts smoothed by `prior_weight` (the uniform prior
//! keeps unseen counts sampleable and the log-ratio finite). This is the standard TPE
//! treatment of discrete parameters (cf. yamakan's `tpe::histogram`), and the natural fit
//! for instance-count axes.
//!
//! The optimizer implements the ask/tell interface ([`crate::Optimizer`]) with the same
//! in-flight bookkeeping and pruning semantics as [`crate::BoOptimizer`]; below
//! `initial_samples` real evaluations it draws shuffled random batches with **identical
//! RNG consumption** to the BO engine's initialization phase (pinned by the `ribbon`
//! differential suite), so the two strategies are interchangeable mid-stream.

use crate::ask_tell::{Optimizer, Outcome};
use crate::optimizer::{BoError, Observation};
use crate::space::{Config, ConfigLattice, OpenSet, PruneSet};
use rand::{Rng, RngCore};

/// Tunable settings of the TPE engine.
#[derive(Debug, Clone)]
pub struct TpeSettings {
    /// Number of random (space-filling) real evaluations before the Parzen split takes
    /// over.
    pub initial_samples: usize,
    /// Quantile of the history treated as "good" (the top `gamma` fraction by value).
    pub gamma: f64,
    /// Number of candidates drawn from `l(x)` per pick; the best-ranked one is asked.
    pub candidates: usize,
    /// Uniform smoothing mass added to every per-dimension count (keeps densities
    /// strictly positive).
    pub prior_weight: f64,
}

impl Default for TpeSettings {
    fn default() -> Self {
        TpeSettings {
            initial_samples: 8,
            gamma: 0.25,
            candidates: 24,
            prior_weight: 1.0,
        }
    }
}

/// Per-dimension log-densities over the lattice levels: `densities[d][level]` is the
/// smoothed log-probability of `level` in dimension `d`.
type LogDensities = Vec<Vec<f64>>;

/// TPE optimizer over an integer configuration lattice.
pub struct TpeOptimizer {
    settings: TpeSettings,
    observations: Vec<Observation>,
    /// Un-explored, un-pruned, not-in-flight lattice points (shared with
    /// [`crate::BoOptimizer`]).
    open: OpenSet,
}

impl TpeOptimizer {
    /// Creates a TPE optimizer over `lattice`.
    pub fn new(lattice: ConfigLattice, settings: TpeSettings) -> Self {
        TpeOptimizer {
            settings,
            observations: Vec::new(),
            open: OpenSet::new(lattice),
        }
    }

    /// The search lattice.
    pub fn lattice(&self) -> &ConfigLattice {
        self.open.lattice()
    }

    /// All observations so far (including injected estimates).
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Number of real (non-estimated) evaluations so far.
    pub fn num_evaluations(&self) -> usize {
        self.observations.iter().filter(|o| !o.estimated).count()
    }

    /// Returns `true` if the configuration has been explored (observed or injected).
    pub fn is_explored(&self, config: &[u32]) -> bool {
        self.open.is_explored(config)
    }

    /// Read access to the prune set.
    pub fn prune_set(&self) -> &PruneSet {
        self.open.prune_set()
    }

    /// Candidates asked but not yet told or forgotten.
    pub fn pending(&self) -> &[Config] {
        self.open.pending()
    }

    /// Prunes everything dominated by `violator` (QoS violated badly).
    pub fn prune_below(&mut self, violator: Config) {
        self.open.prune_below(violator);
    }

    /// Prunes everything component-wise above `satisfier` (cannot beat the incumbent).
    pub fn prune_above(&mut self, satisfier: Config) {
        self.open.prune_above(satisfier);
    }

    fn record(&mut self, config: Config, value: f64, estimated: bool) -> Result<(), BoError> {
        if !self.lattice().contains(&config) {
            return Err(BoError::InvalidConfig(config));
        }
        if !value.is_finite() {
            return Err(BoError::NonFiniteObjective(value));
        }
        self.open.explore(&config);
        self.observations.push(Observation {
            config,
            value,
            estimated,
        });
        Ok(())
    }

    /// Per-dimension smoothed categorical densities of the good and bad observation sets.
    /// Returns `(log_good, log_bad)`: for each dimension, the log-density of every level.
    fn parzen_split(&self) -> Option<(LogDensities, LogDensities)> {
        let n = self.observations.len();
        if n < 2 {
            return None;
        }
        // Sort indices by value descending; the top-gamma slice (at least one, at most
        // n-1) is the good set.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            self.observations[b]
                .value
                .partial_cmp(&self.observations[a].value)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let n_good = ((self.settings.gamma * n as f64).ceil() as usize).clamp(1, n - 1);

        let bounds = self.lattice().bounds();
        let mut log_good: Vec<Vec<f64>> = Vec::with_capacity(bounds.len());
        let mut log_bad: Vec<Vec<f64>> = Vec::with_capacity(bounds.len());
        for (d, &bound) in bounds.iter().enumerate() {
            let levels = bound as usize + 1;
            let mut good = vec![self.settings.prior_weight; levels];
            let mut bad = vec![self.settings.prior_weight; levels];
            for (rank, &i) in order.iter().enumerate() {
                let level = self.observations[i].config[d] as usize;
                if rank < n_good {
                    good[level] += 1.0;
                } else {
                    bad[level] += 1.0;
                }
            }
            let good_total: f64 = good.iter().sum();
            let bad_total: f64 = bad.iter().sum();
            log_good.push(good.iter().map(|w| (w / good_total).ln()).collect());
            log_bad.push(bad.iter().map(|w| (w / bad_total).ln()).collect());
        }
        Some((log_good, log_bad))
    }

    /// Samples one configuration from the good density `l(x)` (independent per-dimension
    /// categorical draws).
    fn sample_from_good(&self, log_good: &[Vec<f64>], rng: &mut dyn RngCore) -> Config {
        let rng_ref: &mut dyn RngCore = rng;
        log_good
            .iter()
            .map(|logs| {
                let u: f64 = rng_ref.gen::<f64>();
                let mut acc = 0.0;
                let mut level = 0usize;
                for (v, &lw) in logs.iter().enumerate() {
                    acc += lw.exp();
                    level = v;
                    if u < acc {
                        break;
                    }
                }
                level as u32
            })
            .collect()
    }

    /// One model-based pick: draw `candidates` samples from `l`, rank by
    /// `log l − log g`, take the best-ranked sample that is still open (first
    /// strictly-better wins ties). Falls back to a shuffled random open configuration
    /// when no sample lands in the open set.
    fn pick_one(&mut self, rng: &mut dyn RngCore) -> Option<Config> {
        if self.open.is_empty() {
            return None;
        }
        let Some((log_good, log_bad)) = self.parzen_split() else {
            return Some(self.open.random_batch(rng, 1).swap_remove(0));
        };
        let mut best: Option<(Config, f64)> = None;
        for _ in 0..self.settings.candidates.max(1) {
            let cand = self.sample_from_good(&log_good, rng);
            if !self.open.contains(&cand) {
                continue; // explored, pruned, or in flight
            }
            let score: f64 = cand
                .iter()
                .enumerate()
                .map(|(d, &v)| log_good[d][v as usize] - log_bad[d][v as usize])
                .sum();
            match &best {
                Some((_, s)) if *s >= score => {}
                _ => best = Some((cand, score)),
            }
        }
        match best {
            Some((cand, _)) => {
                self.open.take(&cand);
                Some(cand)
            }
            None => Some(self.open.random_batch(rng, 1).swap_remove(0)),
        }
    }

    /// Resets observations and pruning, keeping lattice and settings.
    pub fn reset(&mut self) {
        self.observations.clear();
        self.open.reset();
    }
}

impl Optimizer for TpeOptimizer {
    fn ask(&mut self, rng: &mut dyn RngCore, q: usize) -> Result<Vec<Config>, BoError> {
        if self.open.is_empty() {
            return Err(BoError::SpaceExhausted);
        }
        let q = q.max(1).min(self.open.len());
        if self.num_evaluations() < self.settings.initial_samples || self.observations.is_empty() {
            return Ok(self.open.random_batch(rng, q));
        }
        let mut batch = Vec::with_capacity(q);
        for _ in 0..q {
            match self.pick_one(rng) {
                Some(c) => batch.push(c),
                None => break,
            }
        }
        if batch.is_empty() {
            return Err(BoError::SpaceExhausted);
        }
        Ok(batch)
    }

    fn tell(&mut self, outcome: Outcome) -> Result<bool, BoError> {
        self.open.settle(&outcome.config);
        let _ = self.record(outcome.config.clone(), outcome.value, outcome.estimated);
        if outcome.prune_below {
            self.prune_below(outcome.config.clone());
        }
        if outcome.prune_above {
            self.prune_above(outcome.config);
        }
        Ok(true)
    }

    fn forget(&mut self, config: &[u32]) {
        self.open.forget(config);
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.open.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn toy_objective(cfg: &[u32]) -> f64 {
        let dx = cfg[0] as f64 - 3.0;
        let dy = cfg[1] as f64 - 4.0;
        1.0 - 0.05 * (dx * dx + dy * dy)
    }

    fn drive(mut opt: TpeOptimizer, budget: usize, seed: u64) -> Vec<Config> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trace = Vec::new();
        while trace.len() < budget {
            let Ok(batch) = opt.ask(&mut rng, 1) else {
                break;
            };
            for config in batch {
                let v = toy_objective(&config);
                trace.push(config.clone());
                opt.tell(Outcome::new(config, v)).unwrap();
            }
        }
        trace
    }

    #[test]
    fn never_repeats_and_respects_the_lattice() {
        let lattice = ConfigLattice::new(vec![6, 6]);
        let trace = drive(
            TpeOptimizer::new(lattice.clone(), TpeSettings::default()),
            20,
            3,
        );
        assert_eq!(trace.len(), 20);
        let mut seen = BTreeSet::new();
        for c in &trace {
            assert!(lattice.contains(c));
            assert!(seen.insert(c.clone()), "duplicate {c:?}");
        }
    }

    #[test]
    fn is_deterministic_for_a_fixed_seed() {
        let lattice = ConfigLattice::new(vec![6, 6]);
        let a = drive(
            TpeOptimizer::new(lattice.clone(), TpeSettings::default()),
            18,
            11,
        );
        let b = drive(TpeOptimizer::new(lattice, TpeSettings::default()), 18, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn model_phase_concentrates_near_the_optimum() {
        let lattice = ConfigLattice::new(vec![6, 6]);
        let trace = drive(TpeOptimizer::new(lattice, TpeSettings::default()), 25, 7);
        // After the 8 random initial samples, the Parzen model should steer most picks
        // into the high-value region around (3, 4).
        let model_phase = &trace[8..];
        let near: usize = model_phase
            .iter()
            .filter(|c| toy_objective(c) > 0.7)
            .count();
        assert!(
            near * 2 > model_phase.len(),
            "TPE failed to focus: {near}/{} near-optimal picks",
            model_phase.len()
        );
    }

    #[test]
    fn random_fallback_matches_bo_initial_phase_byte_for_byte() {
        use crate::{BoOptimizer, BoSettings};
        let lattice = ConfigLattice::new(vec![5, 3]);
        let mut tpe = TpeOptimizer::new(
            lattice.clone(),
            TpeSettings {
                initial_samples: usize::MAX,
                ..TpeSettings::default()
            },
        );
        let mut bo = BoOptimizer::new(
            lattice,
            BoSettings {
                initial_samples: usize::MAX,
                ..BoSettings::default()
            },
        );
        let mut rng_t = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let t = Optimizer::ask(&mut tpe, &mut rng_t, 1).unwrap();
            let b = bo.ask_batch(&mut rng_b, 1).unwrap();
            assert_eq!(
                t, b,
                "seeded-random fallback must match the BO initial phase"
            );
            let (tc, bc) = (t[0].clone(), b[0].clone());
            Optimizer::tell(&mut tpe, Outcome::new(tc, 0.5)).unwrap();
            bo.tell(Outcome::new(bc, 0.5)).unwrap();
        }
    }

    #[test]
    fn pruning_shrinks_the_open_set() {
        let mut tpe = TpeOptimizer::new(ConfigLattice::new(vec![3, 3]), TpeSettings::default());
        let before = tpe.open.len();
        tpe.prune_below(vec![1, 1]);
        tpe.prune_above(vec![2, 2]);
        assert!(tpe.open.len() < before);
        for &r in tpe.open.ranks() {
            assert!(!tpe.prune_set().is_pruned(&tpe.lattice().config_at(r)));
        }
    }

    #[test]
    fn forget_restores_open_in_enumeration_order() {
        let mut tpe = TpeOptimizer::new(ConfigLattice::new(vec![2, 2]), TpeSettings::default());
        let before = tpe.open.ranks().to_vec();
        let mut rng = StdRng::seed_from_u64(1);
        let batch = Optimizer::ask(&mut tpe, &mut rng, 4).unwrap();
        for c in &batch {
            Optimizer::forget(&mut tpe, c);
        }
        assert_eq!(tpe.open.ranks(), before.as_slice());
    }
}
