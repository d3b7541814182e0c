//! The BO engine over the configuration lattice, asked and told through
//! [`crate::Optimizer`].
//!
//! Usage pattern (the `ribbon` crate's search driver runs this loop):
//!
//! ```text
//! loop {
//!     let batch = optimizer.ask_batch(&mut rng, q)?;      // q = 1: one suggestion
//!     for config in batch {
//!         let value = evaluate(&config);                   // deploy & measure (simulated)
//!         // Record the value, then apply Ribbon's active pruning.
//!         optimizer.tell(Outcome::new(config, value).with_prunes(below, above))?;
//!     }
//! }
//! ```
//!
//! # Hot-path structure
//!
//! The per-ask costs are kept incremental or batched:
//!
//! * the **open set** ([`OpenSet`]: un-explored, un-pruned lattice points) is a sorted
//!   `Vec<u32>` of lattice ranks maintained across calls — observations remove one rank,
//!   a prune box removes its runs of consecutive ranks in one merge — instead of
//!   re-enumerating the lattice; a random ask shuffles a copy of the ranks;
//! * the **GP surrogate** is an [`IncrementalGridGp`]: each new observation is folded into
//!   every hyperparameter cell with a rank-1 Cholesky append (O(n²)) instead of refitting
//!   the whole grid (O(grid · n³));
//! * the **acquisition scan** decodes the open ranks chunk by chunk into flat coordinates
//!   and scores them through the batched
//!   [`predict_many`](ribbon_gp::GaussianProcess::predict_many), eight points per pass,
//!   with kernel values looked up in the winning GP's
//!   [`kernel_table`](ribbon_gp::GaussianProcess::kernel_table) (all lattice coordinates
//!   are integers). One chunked worker pool serves both the single suggestion and the
//!   batched ask;
//! * the **single suggestion** on a large open set computes every open point's exact
//!   mean from a per-scan [`RowMeans`](ribbon_gp::RowMeans) table (one add per training
//!   point and point) and runs the O(n²) solve and the score only where the mean is
//!   above the [`Acquisition::mean_cutoff`] of the best score its worker has seen; the
//!   batched ask needs every score and scans in full.
//!
//! All are exact optimizations: suggestions, RNG consumption and the suggested point's
//! score are bit-identical to refitting the whole grid from scratch and scoring every
//! open point with the single-point `predict` (`tests/incremental_gp.rs` pins the
//! traces that refit produced, `tests/scan_skip.rs` checks the scan against per-point
//! `predict`); the single suggestion never scores the points it skips, and the batched
//! ask's scores are bit-identical too.

use crate::acquisition::Acquisition;
use crate::ask_tell::{Optimizer, Outcome};
use crate::space::{Config, ConfigLattice, OpenSet, PruneSet, RankDecoder};
use rand::{Rng, RngCore};
use ribbon_gp::{
    FitConfig, GaussianProcess, GpError, IncrementalGridGp, KernelTable, Matern52, Posterior,
    Rounded, RowCursor,
};
use std::fmt;

/// Errors from the BO loop.
#[derive(Debug)]
pub enum BoError {
    /// Every configuration in the lattice has been explored or pruned.
    SpaceExhausted,
    /// The surrogate model failed to fit or predict.
    Gp(GpError),
    /// An observation refers to a configuration outside the lattice.
    InvalidConfig(Config),
    /// An observed objective value was not finite.
    NonFiniteObjective(f64),
}

impl fmt::Display for BoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoError::SpaceExhausted => write!(f, "all configurations are explored or pruned"),
            BoError::Gp(e) => write!(f, "surrogate model error: {e}"),
            BoError::InvalidConfig(c) => write!(f, "configuration {c:?} is outside the lattice"),
            BoError::NonFiniteObjective(v) => write!(f, "objective value {v} is not finite"),
        }
    }
}

impl std::error::Error for BoError {}

impl From<GpError> for BoError {
    fn from(e: GpError) -> Self {
        BoError::Gp(e)
    }
}

/// Tunable settings of the BO engine.
#[derive(Debug, Clone)]
pub struct BoSettings {
    /// Number of random (space-filling) configurations evaluated before the GP takes over.
    pub initial_samples: usize,
    /// Acquisition function to maximize.
    pub acquisition: Acquisition,
    /// Hyperparameter grid of the GP surrogate.
    pub fit: FitConfig,
    /// Worker threads for the acquisition scan over the open candidates (`None` = the
    /// machine's available parallelism). The scan's chunked, order-reduced design makes
    /// the suggestion identical for every thread count.
    pub scan_threads: Option<usize>,
}

impl Default for BoSettings {
    fn default() -> Self {
        BoSettings {
            initial_samples: 3,
            acquisition: Acquisition::default(),
            fit: FitConfig::default(),
            scan_threads: None,
        }
    }
}

/// One evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The evaluated configuration.
    pub config: Config,
    /// The (maximization) objective value returned by the evaluator.
    pub value: f64,
    /// `true` if this observation was injected as an estimate (load-adaptation warm start)
    /// rather than actually evaluated.
    pub estimated: bool,
}

/// Why a configuration was suggested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SuggestionSource {
    /// Random space-filling sample during the initialization phase.
    Initial,
    /// Maximizer of the acquisition function over the un-pruned, un-explored lattice.
    Acquisition {
        /// Acquisition value of the suggested point.
        score: f64,
    },
    /// Random fallback used when the GP could not be fitted.
    RandomFallback,
}

/// A configuration the optimizer wants evaluated next.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// The configuration to evaluate.
    pub config: Config,
    /// Why it was chosen.
    pub source: SuggestionSource,
}

/// Open points per scan chunk: the unit of work one scan worker claims.
const SCAN_CHUNK: usize = 1024;

/// Kernel tables beyond this many entries are not built (the scan evaluates the kernel
/// instead); lattices with per-type bounds up to ~100 in six types stay below it.
const MAX_KERNEL_TABLE: u64 = 1 << 16;

/// [`RowMeans`](ribbon_gp::RowMeans) tables beyond this many products (2 MiB) are not
/// built: the single suggestion then scores every open point. The hot-path lattice (six
/// types, bound 10) needs 5,511 products per observation.
const MAX_ROW_TABLE: usize = 1 << 18;

type Surrogate = GaussianProcess<Rounded<Matern52>>;

/// Bayesian optimizer over an integer configuration lattice.
pub struct BoOptimizer {
    settings: BoSettings,
    observations: Vec<Observation>,
    /// Un-explored, un-pruned, not-in-flight lattice points, maintained incrementally so
    /// `suggest` never re-enumerates the lattice.
    open: OpenSet,
    /// Incremental surrogate, fitted at the first acquisition ask, and the number of
    /// observations already folded into it.
    surrogate: Option<IncrementalGridGp>,
    fitted_upto: usize,
}

impl BoOptimizer {
    /// Creates an optimizer over `lattice` with the given settings.
    pub fn new(lattice: ConfigLattice, settings: BoSettings) -> Self {
        BoOptimizer {
            settings,
            observations: Vec::new(),
            open: OpenSet::new(lattice),
            surrogate: None,
            fitted_upto: 0,
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

    /// Number of *real* (non-estimated) evaluations so far.
    pub fn num_evaluations(&self) -> usize {
        self.observations.iter().filter(|o| !o.estimated).count()
    }

    /// The best (highest-value) observation so far, preferring real observations over
    /// injected estimates when values tie.
    pub fn best(&self) -> Option<&Observation> {
        self.observations.iter().max_by(|a, b| {
            a.value
                .partial_cmp(&b.value)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (!a.estimated).cmp(&(!b.estimated)))
        })
    }

    /// Read access to the prune set.
    pub fn prune_set(&self) -> &PruneSet {
        self.open.prune_set()
    }

    /// Marks every configuration dominated by `violator` as unreachable (paper's pruning rule
    /// for configurations that violate QoS by more than the threshold).
    pub fn prune_below(&mut self, violator: Config) {
        self.open.prune_below(violator);
    }

    /// Marks every configuration that component-wise exceeds `satisfier` as not worth
    /// sampling (it is at least as expensive and cannot beat the incumbent).
    pub fn prune_above(&mut self, satisfier: Config) {
        self.open.prune_above(satisfier);
    }

    /// Returns `true` if the configuration has been explored (observed or injected).
    pub fn is_explored(&self, config: &[u32]) -> bool {
        self.open.is_explored(config)
    }

    /// Records a real evaluation of `config`.
    pub fn observe(&mut self, config: Config, value: f64) -> Result<(), BoError> {
        self.record(config, value, false)
    }

    /// Injects an *estimated* observation (Ribbon's load-adaptation warm start feeds linear
    /// estimates of the new-load objective for previously explored configurations).
    pub fn observe_estimate(&mut self, config: Config, value: f64) -> Result<(), BoError> {
        self.record(config, value, true)
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

    /// Ranks ([`ConfigLattice::rank`]) of the candidates that are neither explored, pruned
    /// nor in flight, ascending — that is, in enumeration order.
    pub fn open_candidates(&self) -> &[u32] {
        self.open.ranks()
    }

    /// Brings the incremental surrogate up to date with the observation history.
    /// Returns `false` (after discarding it) when the surrogate cannot be (re)built,
    /// which `suggest` and `ask_batch` translate into the random fallback.
    fn refresh_surrogate(&mut self) -> bool {
        if self.surrogate.is_none() {
            let x: Vec<Vec<f64>> = self
                .observations
                .iter()
                .map(|o| ConfigLattice::to_coords(&o.config))
                .collect();
            let y: Vec<f64> = self.observations.iter().map(|o| o.value).collect();
            match IncrementalGridGp::fit(&x, &y, &self.settings.fit) {
                Ok(grid) => {
                    self.surrogate = Some(grid);
                    self.fitted_upto = self.observations.len();
                }
                Err(_) => return false,
            }
            return true;
        }
        while self.fitted_upto < self.observations.len() {
            let o = &self.observations[self.fitted_upto];
            let coords = ConfigLattice::to_coords(&o.config);
            let value = o.value;
            let grid = self.surrogate.as_mut().expect("surrogate checked above");
            if grid.append(coords, value).is_err() {
                self.surrogate = None;
                return false;
            }
            self.fitted_upto += 1;
        }
        true
    }

    /// Incumbent for EI: best *real* observation (estimates guide, they don't set the bar).
    fn incumbent(&self) -> f64 {
        let best = self
            .observations
            .iter()
            .filter(|o| !o.estimated)
            .map(|o| o.value)
            .fold(f64::NEG_INFINITY, f64::max);
        if best.is_finite() {
            best
        } else {
            self.best().map(|o| o.value).unwrap_or(0.0)
        }
    }

    /// `true` while the next ask is a random draw (the initialization phase).
    fn in_initial_phase(&self) -> bool {
        self.num_evaluations() < self.settings.initial_samples || self.observations.is_empty()
    }

    /// The scan's kernel table: the GP's values for every squared distance two lattice
    /// points can have, `Σ mᵢ²`, when that stays within [`MAX_KERNEL_TABLE`].
    fn kernel_table(&self, gp: &Surrogate) -> Option<KernelTable> {
        let max_sq_dist = self
            .lattice()
            .bounds()
            .iter()
            .map(|&b| u64::from(b) * u64::from(b))
            .sum::<u64>();
        (max_sq_dist < MAX_KERNEL_TABLE).then(|| gp.kernel_table(max_sq_dist as usize))?
    }

    /// Runs `per_chunk` on every chunk of the open set with the chunk's offset into the
    /// open set and its ranks, returning the chunk results in chunk order. Chunks of
    /// [`SCAN_CHUNK`] points fan out over [`BoSettings::scan_threads`] workers through an
    /// atomic work index (as in the workspace parallel engine, ribbon-cloudsim::parallel);
    /// each worker builds its own state with `worker` and runs its chunks in turn, each
    /// result into its chunk's slot. Which worker runs a chunk depends on the thread
    /// count, so callers reduce chunk results that read worker state (the skip scan's
    /// running best) to a value that does not (the first maximum).
    fn scan<W, T: Send>(
        &self,
        worker: impl Fn() -> W + Sync,
        per_chunk: impl Fn(&mut W, usize, &[u32]) -> Result<T, BoError> + Sync,
    ) -> Result<Vec<T>, BoError> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let ranks = self.open.ranks();
        let num_chunks = ranks.len().div_ceil(SCAN_CHUNK);
        let workers = self
            .settings
            .scan_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .clamp(1, num_chunks.max(1));
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<T, BoError>>>> =
            (0..num_chunks).map(|_| Mutex::new(None)).collect();
        let work = || {
            let mut state = worker();
            loop {
                let ci = next.fetch_add(1, Ordering::Relaxed);
                if ci >= num_chunks {
                    break;
                }
                let start = ci * SCAN_CHUNK;
                let chunk = &ranks[start..(start + SCAN_CHUNK).min(ranks.len())];
                let r = per_chunk(&mut state, start, chunk);
                *slots[ci].lock().expect("scan slot poisoned") = Some(r);
            }
        };
        if workers == 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(work);
                }
            });
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("scan slot poisoned")
                    .expect("every chunk was scanned")
            })
            .collect()
    }

    /// The [`Scorer`] of `gp` at `incumbent`.
    fn scorer<'g>(&self, gp: &'g Surrogate, incumbent: f64) -> Scorer<'g> {
        Scorer {
            gp,
            table: self.kernel_table(gp),
            acquisition: self.settings.acquisition,
            incumbent,
        }
    }

    /// Maximizes the acquisition function over the open set: the first candidate in
    /// enumeration order attaining the maximum score, exactly as a serial scan picks it —
    /// each chunk keeps its first strictly-better score and the chunk winners are reduced
    /// in chunk order by the same rule.
    ///
    /// When the surrogate has a kernel table and the open set holds more points than its
    /// [`RowMeans`](ribbon_gp::RowMeans) table (at most [`MAX_ROW_TABLE`] products), the
    /// scan computes every open point's exact mean from that table and scores exactly
    /// only the points whose mean is above the [`Acquisition::mean_cutoff`] of the best
    /// score its worker has seen in this scan (see [`ScanWorker::best_skipping`]). A skipped point scores
    /// strictly below a score of this scan, so it is never the first maximum: the
    /// suggestion and its score are those of the full scan, at every `scan_threads`.
    /// A skipped point's variance is never computed, so a non-finite variance there
    /// raises no error; a non-finite mean is never skipped.
    fn scan_open(&self, gp: &Surrogate, incumbent: f64) -> Result<Suggestion, BoError> {
        let scorer = self.scorer(gp, incumbent);
        let max_entries = MAX_ROW_TABLE.min(self.open.len().saturating_sub(1));
        let rows = scorer
            .table
            .as_ref()
            .and_then(|t| gp.row_means(t, self.lattice().bounds(), max_entries));
        let new_worker = || ScanWorker::new(self.lattice());
        let winners = match &rows {
            Some(rows) => {
                // Matérn's k(x, x) is its signal variance at every point.
                let prior_variance = gp.kernel().inner().variance;
                self.scan(
                    || (new_worker(), rows.cursor()),
                    |(w, cursor), start, ranks| {
                        w.best_skipping(&scorer, cursor, prior_variance, start, ranks)
                    },
                )?
            }
            None => self.scan(new_worker, |w, start, ranks| {
                let scores = w.score_ranks(&scorer, ranks)?;
                Ok(first_max(scores.iter().copied().enumerate()).map(|(k, s)| (start + k, s)))
            })?,
        };
        let (idx, score) =
            first_max(winners.into_iter().flatten()).ok_or(BoError::SpaceExhausted)?;
        Ok(Suggestion {
            config: self.lattice().config_at(self.open.ranks()[idx]),
            source: SuggestionSource::Acquisition { score },
        })
    }

    /// Acquisition scores for **every** open candidate, in enumeration order. One full
    /// scan prices a whole batch — the per-candidate scan cost is what made
    /// one-at-a-time suggestions the planner's bottleneck on large lattices.
    fn scan_scores(&self, gp: &Surrogate, incumbent: f64) -> Result<Vec<f64>, BoError> {
        let scorer = self.scorer(gp, incumbent);
        Ok(self
            .scan(
                || ScanWorker::new(self.lattice()),
                |w, _, ranks| Ok(w.score_ranks(&scorer, ranks)?.to_vec()),
            )?
            .concat())
    }

    /// A uniformly random open configuration: the first entry of one shuffle of the open
    /// set (it stays open).
    fn random_open(&self, rng: &mut dyn RngCore) -> Config {
        self.open.shuffled_prefix(rng, 1).swap_remove(0)
    }

    /// Suggests the next configuration to evaluate.
    ///
    /// During the initialization phase (fewer than `initial_samples` real evaluations) the
    /// suggestion is a uniformly random open configuration. Afterwards the incremental
    /// surrogate folds in the new observations and the acquisition function is maximized
    /// over the open candidates; a surrogate that cannot be fitted falls back to a random
    /// open configuration.
    pub fn suggest<R: Rng>(&mut self, rng: &mut R) -> Result<Suggestion, BoError> {
        if self.open.is_empty() {
            return Err(BoError::SpaceExhausted);
        }
        let mut rng: &mut dyn RngCore = rng;

        if self.in_initial_phase() {
            return Ok(Suggestion {
                config: self.random_open(&mut rng),
                source: SuggestionSource::Initial,
            });
        }

        let incumbent = self.incumbent();
        if self.refresh_surrogate() {
            if let Some(fit) = self.surrogate.as_ref().and_then(|s| s.best()) {
                return self.scan_open(fit.gp, incumbent);
            }
        }

        // Surrogate unavailable: fall back to a random open configuration.
        Ok(Suggestion {
            config: self.random_open(&mut rng),
            source: SuggestionSource::RandomFallback,
        })
    }

    /// Resets observations and pruning but keeps the lattice and settings
    /// (used when the workload changes so drastically that history is discarded).
    pub fn reset(&mut self) {
        self.observations.clear();
        self.open.reset();
        self.surrogate = None;
        self.fitted_upto = 0;
    }

    // ---------------------------------------------------------------------------------
    // Ask/tell interface (see `crate::ask_tell`). `ask(rng, 1)` is `suggest` plus
    // in-flight bookkeeping: same RNG consumption, same candidate.
    // ---------------------------------------------------------------------------------

    /// Candidates asked but not yet told or forgotten.
    pub fn pending(&self) -> &[Config] {
        self.open.pending()
    }

    /// Greedy local-penalty batch selection over pre-computed acquisition scores: each
    /// pick multiplies the (floor-shifted, hence non-negative) scores of nearby open
    /// candidates by `1 − exp(−d²/2r²)` with `r` = one lattice step, so the batch spreads
    /// out instead of clustering around the acquisition maximum. Both selection levels
    /// keep the first strictly-better candidate in enumeration order, like `scan_open`.
    fn penalized_picks(&self, scores: &[f64], q: usize) -> Vec<usize> {
        let n = scores.len();
        let floor = scores.iter().copied().fold(f64::INFINITY, f64::min);
        let floor = if floor.is_finite() { floor } else { 0.0 };
        let mut adj: Vec<f64> = scores.iter().map(|s| s - floor).collect();
        let mut taken = vec![false; n];
        let mut picks = Vec::with_capacity(q);
        let ranks = self.open.ranks();
        // Beyond d² = 16 (four lattice steps) the penalty factor is within 3.4e-4 of 1.
        const CUTOFF_D2: f64 = 16.0;
        const RADIUS2: f64 = 1.0;
        for _ in 0..q {
            let mut best: Option<(usize, f64)> = None;
            for (i, &a) in adj.iter().enumerate() {
                if taken[i] {
                    continue;
                }
                match &best {
                    Some((_, s)) if *s >= a => {}
                    _ => best = Some((i, a)),
                }
            }
            let Some((idx, _)) = best else { break };
            taken[idx] = true;
            picks.push(idx);
            let picked = self.lattice().config_at(ranks[idx]);
            let mut decoder = RankDecoder::new(self.lattice());
            for (i, &rank) in ranks.iter().enumerate() {
                if taken[i] {
                    continue;
                }
                let mut d2 = 0.0;
                for (&a, &b) in decoder.seek(rank).iter().zip(&picked) {
                    let d = a as f64 - b as f64;
                    d2 += d * d;
                    if d2 > CUTOFF_D2 {
                        break;
                    }
                }
                if d2 <= CUTOFF_D2 {
                    adj[i] *= 1.0 - (-d2 / (2.0 * RADIUS2)).exp();
                }
            }
        }
        picks
    }

    /// Returns up to `q` distinct candidates (see [`Optimizer::ask`]).
    ///
    /// `q = 1` is [`BoOptimizer::suggest`] with the candidate moved into flight: the
    /// same candidate and RNG consumption. Larger `q`: the initialization and
    /// random-fallback phases draw the whole batch from **one** shuffle; the acquisition
    /// phase refreshes the surrogate once, scores every open candidate in one chunked
    /// parallel scan, and picks a diverse batch by greedy local penalization.
    pub fn ask_batch(&mut self, rng: &mut dyn RngCore, q: usize) -> Result<Vec<Config>, BoError> {
        if self.open.is_empty() {
            return Err(BoError::SpaceExhausted);
        }
        let q = q.max(1).min(self.open.len());
        if q == 1 {
            let mut rng_ref: &mut dyn RngCore = rng;
            let s = self.suggest(&mut rng_ref)?;
            self.open.take(&s.config);
            return Ok(vec![s.config]);
        }

        if self.in_initial_phase() {
            return Ok(self.open.random_batch(rng, q));
        }

        let incumbent = self.incumbent();
        let fit = if self.refresh_surrogate() {
            self.surrogate.as_ref().and_then(|s| s.best())
        } else {
            None
        };
        let Some(fit) = fit else {
            // Surrogate unavailable: fall back to one shuffled random batch.
            return Ok(self.open.random_batch(rng, q));
        };
        let scores = self.scan_scores(fit.gp, incumbent)?;
        let picks = self.penalized_picks(&scores, q);
        Ok(self.open.take_positions(&picks))
    }

    /// Ingests one completed evaluation (see [`Optimizer::tell`]).
    ///
    /// Records the observation (invalid configurations and non-finite values are
    /// dropped), then applies the pruning verdicts.
    ///
    /// Estimated outcomes (reduced-fidelity prefix scores) retire the configuration —
    /// it is settled if in flight and never asked again — but stay **out of the GP**:
    /// a prefix score is a biased sample of the full-stream objective, and every
    /// appended observation makes each acquisition scan over the lattice more
    /// expensive. (Deliberate warm-start pseudo-observations go through
    /// [`BoOptimizer::observe_estimate`], which does feed the surrogate.) Returns
    /// `false` for estimates: they must not count against an evaluation budget.
    pub fn tell(&mut self, outcome: Outcome) -> Result<bool, BoError> {
        self.open.settle(&outcome.config);
        if outcome.estimated {
            self.open.explore(&outcome.config);
            return Ok(false);
        }
        let _ = self.record(outcome.config.clone(), outcome.value, outcome.estimated);
        if outcome.prune_below {
            self.prune_below(outcome.config.clone());
        }
        if outcome.prune_above {
            self.prune_above(outcome.config);
        }
        Ok(true)
    }

    /// Returns an in-flight candidate to the open set un-evaluated (see
    /// [`Optimizer::forget`]). Re-inserted in enumeration order unless an observation or
    /// prune box claimed it while it was in flight.
    pub fn forget(&mut self, config: &[u32]) {
        self.open.forget(config);
    }
}

/// What every scan worker reads: the surrogate, its kernel table, the acquisition and
/// the incumbent.
struct Scorer<'g> {
    gp: &'g Surrogate,
    table: Option<KernelTable>,
    acquisition: Acquisition,
    incumbent: f64,
}

/// One scan worker's buffers, reused from chunk to chunk, and the skip scan's running
/// best score.
struct ScanWorker<'l> {
    decoder: RankDecoder<'l>,
    bounds: &'l [u32],
    /// Flat coordinates of the points scored exactly.
    coords: Vec<f64>,
    posteriors: Vec<Posterior>,
    scores: Vec<f64>,
    /// Skip scan: one row's last coordinates and means, and the chunk positions of the
    /// points scored exactly.
    lasts: Vec<u32>,
    means: Vec<f64>,
    positions: Vec<usize>,
    /// Skip scan: the best exact score this worker has seen in the scan, and the mean
    /// cutoff computed for `cutoff_for`.
    best: f64,
    cutoff_for: f64,
    cutoff: f64,
}

impl<'l> ScanWorker<'l> {
    fn new(lattice: &'l ConfigLattice) -> Self {
        ScanWorker {
            decoder: RankDecoder::new(lattice),
            bounds: lattice.bounds(),
            coords: vec![0.0; SCAN_CHUNK * lattice.dims()],
            posteriors: vec![
                Posterior {
                    mean: 0.0,
                    variance: 0.0,
                };
                SCAN_CHUNK
            ],
            scores: vec![0.0; SCAN_CHUNK],
            lasts: vec![0; SCAN_CHUNK],
            means: vec![0.0; SCAN_CHUNK],
            positions: vec![0; SCAN_CHUNK],
            best: f64::NEG_INFINITY,
            cutoff_for: f64::NEG_INFINITY,
            cutoff: f64::NEG_INFINITY,
        }
    }

    /// Exact scores of the points `ranks` (at most [`SCAN_CHUNK`]), in order.
    fn score_ranks(&mut self, scorer: &Scorer<'_>, ranks: &[u32]) -> Result<&[f64], BoError> {
        let dims = self.bounds.len();
        for (&rank, point) in ranks.iter().zip(self.coords.chunks_mut(dims)) {
            for (c, &digit) in point.iter_mut().zip(self.decoder.seek(rank)) {
                *c = f64::from(digit);
            }
        }
        self.score_coords(scorer, ranks.len())?;
        Ok(&self.scores[..ranks.len()])
    }

    /// Writes into `scores` the exact scores of the first `len` points in `coords`.
    fn score_coords(&mut self, scorer: &Scorer<'_>, len: usize) -> Result<(), BoError> {
        let dims = self.bounds.len();
        scorer.gp.predict_many(
            &self.coords[..len * dims],
            scorer.table.as_ref(),
            &mut self.posteriors[..len],
        )?;
        for (s, p) in self.scores.iter_mut().zip(&self.posteriors[..len]) {
            *s = scorer.acquisition.score(p, scorer.incumbent);
        }
        Ok(())
    }

    /// The first maximum of the chunk `ranks` at offset `start` among the points that can
    /// still reach the worker's best score: the exact mean of every point comes from
    /// `cursor`, row by row; points whose finite mean is at most the cutoff of the best
    /// score skip the posterior solve and the score, and the rest are scored exactly.
    /// `None` when every point was skipped.
    fn best_skipping(
        &mut self,
        scorer: &Scorer<'_>,
        cursor: &mut RowCursor<'_>,
        prior_variance: f64,
        start: usize,
        ranks: &[u32],
    ) -> Result<Option<(usize, f64)>, BoError> {
        if self.best != self.cutoff_for {
            self.cutoff =
                scorer
                    .acquisition
                    .mean_cutoff(scorer.incumbent, prior_variance, self.best);
            self.cutoff_for = self.best;
        }
        let dims = self.bounds.len();
        let row_len = u64::from(self.bounds[dims - 1]) + 1;
        let mut kept = 0;
        let mut k = 0;
        while k < ranks.len() {
            // Ranks are ascending: this row's open points follow `ranks[k]` up to the
            // first rank of the next row.
            let first = u64::from(ranks[k]);
            let digits = self.decoder.seek(ranks[k]);
            let (prefix, v0) = (&digits[..dims - 1], digits[dims - 1]);
            let next_row = first + row_len - u64::from(v0);
            // Distinct ranks: at most `next_row − first` of them lie in this row.
            let window = &ranks[k..ranks.len().min(k + (next_row - first) as usize)];
            let len = window.partition_point(|&r| u64::from(r) < next_row);
            for (last, &r) in self.lasts.iter_mut().zip(&ranks[k..k + len]) {
                *last = v0 + (r - ranks[k]);
            }
            cursor.means(prefix, &self.lasts[..len], &mut self.means[..len]);
            for (j, (&mean, &last)) in self.means[..len].iter().zip(&self.lasts).enumerate() {
                if mean.is_finite() && mean <= self.cutoff {
                    continue;
                }
                let point = &mut self.coords[kept * dims..(kept + 1) * dims];
                for (c, &p) in point.iter_mut().zip(prefix) {
                    *c = f64::from(p);
                }
                point[dims - 1] = f64::from(last);
                self.positions[kept] = start + k + j;
                kept += 1;
            }
            k += len;
        }
        self.score_coords(scorer, kept)?;
        let best = first_max(
            self.positions[..kept]
                .iter()
                .copied()
                .zip(self.scores[..kept].iter().copied()),
        );
        if let Some((_, score)) = best {
            if score > self.best {
                self.best = score;
            }
        }
        Ok(best)
    }
}

/// The first maximum of `(index, score)` pairs by the scan's tie rule: keep the first
/// strictly-better score.
fn first_max(pairs: impl Iterator<Item = (usize, f64)>) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, score) in pairs {
        match &best {
            Some((_, s)) if *s >= score => {}
            _ => best = Some((i, score)),
        }
    }
    best
}

impl Optimizer for BoOptimizer {
    fn ask(&mut self, rng: &mut dyn RngCore, q: usize) -> Result<Vec<Config>, BoError> {
        self.ask_batch(rng, q)
    }

    fn tell(&mut self, outcome: Outcome) -> Result<bool, BoError> {
        BoOptimizer::tell(self, outcome)
    }

    fn forget(&mut self, config: &[u32]) {
        BoOptimizer::forget(self, config)
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.open.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// A smooth synthetic objective with a unique maximum at (3, 4) on a 6×6 lattice.
    fn toy_objective(cfg: &[u32]) -> f64 {
        let dx = cfg[0] as f64 - 3.0;
        let dy = cfg[1] as f64 - 4.0;
        1.0 - 0.05 * (dx * dx + dy * dy)
    }

    /// The open candidates as configurations, in enumeration order.
    fn open_configs(bo: &BoOptimizer) -> Vec<Config> {
        bo.open_candidates()
            .iter()
            .map(|&r| bo.lattice().config_at(r))
            .collect()
    }

    fn small_settings() -> BoSettings {
        BoSettings {
            initial_samples: 3,
            fit: FitConfig::coarse(),
            ..BoSettings::default()
        }
    }

    #[test]
    fn observe_rejects_out_of_lattice_configs() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![2, 2]), small_settings());
        assert!(matches!(
            bo.observe(vec![3, 0], 0.5),
            Err(BoError::InvalidConfig(_))
        ));
        assert!(matches!(
            bo.observe(vec![0, 0], 0.5),
            Err(BoError::InvalidConfig(_))
        ));
    }

    #[test]
    fn observe_rejects_non_finite_values() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![2, 2]), small_settings());
        assert!(matches!(
            bo.observe(vec![1, 1], f64::NAN),
            Err(BoError::NonFiniteObjective(_))
        ));
    }

    #[test]
    fn initial_suggestions_are_random_and_unexplored() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![3, 3]), small_settings());
        let mut rng = StdRng::seed_from_u64(7);
        let s = bo.suggest(&mut rng).unwrap();
        assert_eq!(s.source, SuggestionSource::Initial);
        assert!(bo.lattice().contains(&s.config));
    }

    #[test]
    fn suggestions_switch_to_acquisition_after_initial_phase() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![5, 5]), small_settings());
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..3 {
            let s = bo.suggest(&mut rng).unwrap();
            let v = toy_objective(&s.config);
            bo.observe(s.config, v).unwrap();
        }
        let s = bo.suggest(&mut rng).unwrap();
        assert!(matches!(s.source, SuggestionSource::Acquisition { .. }));
    }

    #[test]
    fn suggest_never_repeats_an_explored_configuration() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![3, 3]), small_settings());
        let mut rng = StdRng::seed_from_u64(13);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            let s = bo.suggest(&mut rng).unwrap();
            assert!(seen.insert(s.config.clone()), "repeated {:?}", s.config);
            let v = toy_objective(&s.config);
            bo.observe(s.config, v).unwrap();
        }
    }

    #[test]
    fn suggest_respects_prune_set() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![2, 2]), small_settings());
        // Prune everything dominated by (2,1): leaves only (0,2),(1,2),(2,2).
        bo.prune_below(vec![2, 1]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..3 {
            let s = bo.suggest(&mut rng).unwrap();
            assert!(
                !bo.prune_set().is_pruned(&s.config),
                "suggested pruned {:?}",
                s.config
            );
            bo.observe(s.config, 0.5).unwrap();
        }
        assert!(matches!(bo.suggest(&mut rng), Err(BoError::SpaceExhausted)));
    }

    #[test]
    fn space_exhausted_when_everything_explored() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![1, 1]), small_settings());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..3 {
            let s = bo.suggest(&mut rng).unwrap();
            bo.observe(s.config, 0.1).unwrap();
        }
        assert!(matches!(bo.suggest(&mut rng), Err(BoError::SpaceExhausted)));
    }

    #[test]
    fn bo_finds_the_toy_optimum_quickly() {
        let lattice = ConfigLattice::new(vec![6, 6]);
        let mut bo = BoOptimizer::new(lattice.clone(), small_settings());
        let mut rng = StdRng::seed_from_u64(42);
        let budget = 20;
        for _ in 0..budget {
            let s = bo.suggest(&mut rng).unwrap();
            let v = toy_objective(&s.config);
            bo.observe(s.config, v).unwrap();
        }
        let best = bo.best().unwrap();
        // The optimum value is 1.0 at (3,4); BO should get within one lattice step.
        assert!(
            best.value > 0.9,
            "best value {} config {:?}",
            best.value,
            best.config
        );
        assert!(bo.num_evaluations() <= budget);
        // And it should have needed far fewer evaluations than the 48-point lattice.
        assert!(bo.num_evaluations() < lattice.len());
    }

    #[test]
    fn surrogate_reuse_is_bit_identical_to_full_refit() {
        // The from-scratch grid refit's twelve suggestions on this history: each
        // configuration with the bits of its acquisition score (`None` for the random
        // initial phase).
        #[rustfmt::skip]
        const PINNED: &[([u32; 2], Option<u64>)] = &[
            ([1, 5], None), ([0, 2], None), ([1, 0], None),
            ([3, 5], Some(0x3fa1d15a934db587)), ([5, 5], Some(0x3fa40b49512c7360)),
            ([3, 4], Some(0x3f8672d557cfb742)), ([4, 3], Some(0x3f85ae66b13a3120)),
            ([5, 0], Some(0x3f6c64fec770c350)), ([4, 4], Some(0x3f7950184d67dbf8)),
            ([3, 3], Some(0x3f487ffa35542820)), ([2, 4], Some(0x3f4773b4cc196918)),
            ([2, 5], Some(0x3f000549529e8e60)),
        ];
        let run = |threads: usize| {
            let mut bo = BoOptimizer::new(
                ConfigLattice::new(vec![5, 5]),
                BoSettings {
                    scan_threads: Some(threads),
                    fit: FitConfig::coarse(),
                    ..BoSettings::default()
                },
            );
            let mut rng = StdRng::seed_from_u64(9);
            let mut trace = Vec::new();
            for i in 0..12 {
                let s = bo.suggest(&mut rng).unwrap();
                let v = toy_objective(&s.config);
                let score = match s.source {
                    SuggestionSource::Initial => None,
                    SuggestionSource::Acquisition { score } => Some(score.to_bits()),
                    SuggestionSource::RandomFallback => panic!("the surrogate must fit"),
                };
                trace.push(([s.config[0], s.config[1]], score));
                bo.observe(s.config, v).unwrap();
                // Exercise the open-set maintenance under both prune directions.
                if i == 4 {
                    bo.prune_below(vec![1, 1]);
                }
                if i == 6 {
                    bo.prune_above(vec![4, 4]);
                }
            }
            trace
        };
        for threads in [1, 2, 3] {
            assert_eq!(
                run(threads),
                PINNED,
                "incremental surrogate ({threads} scan threads) must suggest what the \
                 from-scratch refit did"
            );
        }
    }

    #[test]
    fn open_candidates_match_enumeration_filter_after_updates() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![3, 3]), small_settings());
        bo.observe(vec![2, 2], 0.5).unwrap();
        bo.prune_below(vec![1, 1]);
        bo.prune_above(vec![3, 2]);
        bo.observe_estimate(vec![0, 3], 0.2).unwrap();
        let expected: Vec<Config> = bo
            .lattice()
            .enumerate()
            .into_iter()
            .filter(|c| !bo.is_explored(c) && !bo.prune_set().is_pruned(c))
            .collect();
        assert_eq!(open_configs(&bo), expected);
    }

    #[test]
    fn estimates_do_not_count_as_real_evaluations_or_incumbent() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![4, 4]), small_settings());
        bo.observe_estimate(vec![4, 4], 0.99).unwrap();
        assert_eq!(bo.num_evaluations(), 0);
        bo.observe(vec![1, 1], 0.4).unwrap();
        assert_eq!(bo.num_evaluations(), 1);
        // best() still reports the estimate as the highest value seen...
        assert_eq!(bo.best().unwrap().value, 0.99);
        // ...but it is marked as estimated.
        assert!(bo.best().unwrap().estimated);
    }

    #[test]
    fn estimated_configs_are_not_resuggested() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![1, 1]), small_settings());
        bo.observe_estimate(vec![1, 1], 0.2).unwrap();
        bo.observe_estimate(vec![1, 0], 0.2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = bo.suggest(&mut rng).unwrap();
        assert_eq!(s.config, vec![0, 1], "only the un-estimated config remains");
    }

    #[test]
    fn reset_clears_history_and_pruning() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![2, 2]), small_settings());
        bo.observe(vec![1, 1], 0.5).unwrap();
        bo.prune_below(vec![2, 2]);
        bo.reset();
        assert!(bo.observations().is_empty());
        assert_eq!(bo.prune_set().num_boxes(), 0);
        assert!(!bo.is_explored(&[1, 1]));
    }

    #[test]
    fn best_returns_none_without_observations() {
        let bo = BoOptimizer::new(ConfigLattice::new(vec![2, 2]), small_settings());
        assert!(bo.best().is_none());
    }

    #[test]
    fn ask_of_one_is_bit_identical_to_suggest() {
        let run_suggest = || {
            let mut bo = BoOptimizer::new(ConfigLattice::new(vec![5, 5]), small_settings());
            let mut rng = StdRng::seed_from_u64(9);
            let mut trace = Vec::new();
            for i in 0..12 {
                let s = bo.suggest(&mut rng).unwrap();
                let v = toy_objective(&s.config);
                trace.push(s.config.clone());
                bo.observe(s.config, v).unwrap();
                if i == 4 {
                    bo.prune_below(vec![1, 1]);
                }
                if i == 6 {
                    bo.prune_above(vec![4, 4]);
                }
            }
            trace
        };
        let run_ask_tell = || {
            let mut bo = BoOptimizer::new(ConfigLattice::new(vec![5, 5]), small_settings());
            let mut rng = StdRng::seed_from_u64(9);
            let mut trace = Vec::new();
            for i in 0..12 {
                let batch = bo.ask_batch(&mut rng, 1).unwrap();
                let config = batch[0].clone();
                let v = toy_objective(&config);
                trace.push(config.clone());
                bo.tell(Outcome::new(config, v)).unwrap();
                if i == 4 {
                    bo.prune_below(vec![1, 1]);
                }
                if i == 6 {
                    bo.prune_above(vec![4, 4]);
                }
            }
            trace
        };
        assert_eq!(run_suggest(), run_ask_tell());
    }

    #[test]
    fn batched_ask_returns_distinct_diverse_candidates() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![8, 8]), small_settings());
        let mut rng = StdRng::seed_from_u64(3);
        // Fill the initialization phase first.
        for _ in 0..3 {
            let batch = bo.ask_batch(&mut rng, 1).unwrap();
            let config = batch[0].clone();
            let v = toy_objective(&config);
            bo.tell(Outcome::new(config, v)).unwrap();
        }
        let batch = bo.ask_batch(&mut rng, 6).unwrap();
        assert_eq!(batch.len(), 6);
        let distinct: std::collections::HashSet<_> = batch.iter().cloned().collect();
        assert_eq!(distinct.len(), 6, "batch candidates must be distinct");
        // The local penalty must keep the batch from collapsing onto one neighbourhood:
        // at least one pair of candidates is more than two lattice steps apart.
        let spread = batch.iter().any(|a| {
            batch.iter().any(|b| {
                let d2: f64 = a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
                    .sum();
                d2 > 4.0
            })
        });
        assert!(spread, "batch collapsed: {batch:?}");
        // All in flight: a follow-up ask cannot duplicate them.
        assert_eq!(bo.pending().len(), 6);
        let more = bo.ask_batch(&mut rng, 4).unwrap();
        for c in &more {
            assert!(!batch.contains(c), "in-flight candidate re-asked: {c:?}");
        }
    }

    #[test]
    fn forget_returns_candidates_to_the_open_set() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![3, 3]), small_settings());
        let open_before = bo.open_candidates().to_vec();
        let mut rng = StdRng::seed_from_u64(17);
        let batch = bo.ask_batch(&mut rng, 5).unwrap();
        assert_eq!(
            bo.open_candidates().len(),
            open_before.len() - batch.len(),
            "asked candidates leave the open set"
        );
        for c in &batch {
            bo.forget(c);
        }
        assert_eq!(
            bo.open_candidates(),
            open_before.as_slice(),
            "forgetting restores the open set in enumeration order"
        );
        assert!(bo.pending().is_empty());
        // Forgetting an unknown configuration is a no-op.
        bo.forget(&[1, 1]);
        assert_eq!(bo.open_candidates(), open_before.as_slice());
    }

    #[test]
    fn forget_respects_prunes_applied_while_in_flight() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![3, 3]), small_settings());
        let mut rng = StdRng::seed_from_u64(2);
        let batch = bo.ask_batch(&mut rng, 9).unwrap();
        // Prune a box that covers some in-flight candidates, then forget everything.
        bo.prune_below(vec![2, 2]);
        for c in &batch {
            bo.forget(c);
        }
        for c in open_configs(&bo) {
            assert!(
                !bo.prune_set().is_pruned(&c),
                "pruned config back in open: {c:?}"
            );
        }
        let expected: Vec<Config> = bo
            .lattice()
            .enumerate()
            .into_iter()
            .filter(|c| !bo.is_explored(c) && !bo.prune_set().is_pruned(c))
            .collect();
        assert_eq!(open_configs(&bo), expected);
    }

    #[test]
    fn batched_initial_phase_draws_from_one_shuffle() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![4, 4]), small_settings());
        let mut rng = StdRng::seed_from_u64(21);
        let batch = bo.ask_batch(&mut rng, 4).unwrap();
        // Reproduce by hand: one shuffle of the full open set, first four entries.
        let bo2 = BoOptimizer::new(ConfigLattice::new(vec![4, 4]), small_settings());
        let mut open = open_configs(&bo2);
        let mut rng2 = StdRng::seed_from_u64(21);
        open.shuffle(&mut rng2);
        assert_eq!(batch, open[..4].to_vec());
    }

    #[test]
    fn ask_caps_the_batch_at_the_open_set_size() {
        let mut bo = BoOptimizer::new(ConfigLattice::new(vec![1, 1]), small_settings());
        let mut rng = StdRng::seed_from_u64(5);
        let batch = bo.ask_batch(&mut rng, 10).unwrap();
        assert_eq!(batch.len(), 3, "a 1x1-bounds lattice has three points");
        assert_eq!(Optimizer::remaining(&bo), Some(0));
        assert!(matches!(
            bo.ask_batch(&mut rng, 1),
            Err(BoError::SpaceExhausted)
        ));
    }

    #[test]
    fn error_display_strings() {
        assert!(BoError::SpaceExhausted
            .to_string()
            .contains("explored or pruned"));
        assert!(BoError::InvalidConfig(vec![9]).to_string().contains("[9]"));
        assert!(BoError::NonFiniteObjective(f64::INFINITY)
            .to_string()
            .contains("inf"));
    }
}
