//! Ask/tell adapters for the baseline strategies.
//!
//! Every baseline runs as a [`ribbon_bo::Optimizer`] state machine driven by
//! [`crate::search::SearchDriver`]: `ask` surfaces the configurations the strategy
//! evaluates next, `tell` feeds results back, and the decision logic (dominance skipping,
//! steepest-ascent moves, RSM phase transitions) runs at the moment every outstanding
//! evaluation of the current step has been told. A decision therefore never depends on
//! how many candidates a round asked for, and neither does the trace: the
//! `ask_tell_differential` suite pins the traces as literals and checks them at ask
//! widths from 1 to 64 and at [`super::DEFAULT_ASK_CHUNK`].
//!
//! The adapters assume the driver's contract: every asked candidate is told (or
//! forgotten) before the next `ask` — decisions may therefore treat the in-flight set as
//! empty whenever `ask` finds the queue drained. They hold lattice points as ranks
//! ([`ConfigLattice::rank`]), 4 bytes each, and decode a configuration only when it is
//! asked.

use super::ResponseSurfaceSearch;
use rand::seq::SliceRandom;
use rand::RngCore;
use ribbon_bo::space::dominated_by;
use ribbon_bo::{BoError, ConfigLattice, Optimizer, Outcome, PruneSet};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

// ---------------------------------------------------------------------------
// RANDOM
// ---------------------------------------------------------------------------

/// Ask/tell form of [`super::RandomSearch`]: one upfront shuffle of the lattice ranks,
/// then a queue filtered through the dominance prune set.
///
/// A told outcome prunes configurations comparable to its own (all below a violator,
/// all above a satisfier), so a round ends before the first candidate comparable to one
/// it already holds: that candidate waits for the round's outcomes, and no member of a
/// round can rule out another. Every candidate asked is one that sampling one at a time
/// would evaluate, in the same order. An outcome whose configuration a prune box
/// covers by the time it is told (asked again before the tells) is not counted.
pub struct RandomAdapter {
    lattice: ConfigLattice,
    /// Shuffled ranks in reverse order (`pop` yields the next to sample).
    queue: Vec<u32>,
    shuffled: bool,
    prune: PruneSet,
}

impl RandomAdapter {
    /// An adapter over a lattice; the shuffle happens on the first `ask`, from the driver
    /// RNG.
    pub fn new(lattice: ConfigLattice) -> Self {
        RandomAdapter {
            lattice,
            queue: Vec::new(),
            shuffled: false,
            prune: PruneSet::new(),
        }
    }
}

impl Optimizer for RandomAdapter {
    fn ask(&mut self, rng: &mut dyn RngCore, q: usize) -> Result<Vec<Vec<u32>>, BoError> {
        if !self.shuffled {
            // Fisher–Yates draws depend only on the length, so the ranks are permuted
            // exactly as the configurations in enumeration order would be.
            let mut ranks: Vec<u32> = self.lattice.ranks().collect();
            ranks.shuffle(rng);
            ranks.reverse();
            self.queue = ranks;
            self.shuffled = true;
        }
        let mut out: Vec<Vec<u32>> = Vec::new();
        while out.len() < q.max(1) {
            let Some(&rank) = self.queue.last() else {
                break;
            };
            let config = self.lattice.config_at(rank);
            if self.prune.is_pruned(&config) {
                self.queue.pop();
                continue;
            }
            if out
                .iter()
                .any(|c| dominated_by(c, &config) || dominated_by(&config, c))
            {
                break;
            }
            self.queue.pop();
            out.push(config);
        }
        if out.is_empty() {
            return Err(BoError::SpaceExhausted);
        }
        Ok(out)
    }

    fn tell(&mut self, outcome: Outcome) -> Result<bool, BoError> {
        if self.prune.is_pruned(&outcome.config) {
            return Ok(false);
        }
        if outcome.prune_below {
            self.prune.prune_below(outcome.config.clone());
        }
        if outcome.prune_above {
            self.prune.prune_above(outcome.config);
        }
        Ok(true)
    }

    fn forget(&mut self, config: &[u32]) {
        if let Some(rank) = self.lattice.rank(config) {
            self.queue.push(rank);
        }
    }

    fn remaining(&self) -> Option<usize> {
        self.shuffled.then_some(self.queue.len())
    }
}

// ---------------------------------------------------------------------------
// Hill-Climb
// ---------------------------------------------------------------------------

/// Ask/tell form of [`super::HillClimbSearch`]: a queue of the current neighbourhood's
/// fresh points; when the queue drains the steepest-ascent decision runs (move, or
/// shuffle a random restart out of the driver RNG) and refills it.
pub struct HillClimbAdapter {
    lattice: ConfigLattice,
    /// Objective of every told point, by rank.
    known: BTreeMap<u32, f64>,
    queue: VecDeque<u32>,
    in_flight: usize,
    /// A point that becomes the climb's current point once told (start or restart).
    pending_move: Option<u32>,
    current: Option<(u32, f64)>,
    /// Every neighbour of `current`, in lattice order (the decision scans all of them).
    neighborhood: Vec<u32>,
    done: bool,
}

impl HillClimbAdapter {
    /// An adapter starting from `start_config`, falling back to the lattice midpoint.
    pub fn new(lattice: ConfigLattice, start_config: Option<Vec<u32>>) -> Self {
        let start = start_config
            .filter(|c| lattice.contains(c))
            .unwrap_or_else(|| Self::midpoint(lattice.bounds()));
        // Only an empty lattice has no midpoint inside it.
        let start = lattice.rank(&start);
        HillClimbAdapter {
            lattice,
            known: BTreeMap::new(),
            queue: start.into_iter().collect(),
            in_flight: 0,
            pending_move: start,
            current: None,
            neighborhood: Vec::new(),
            done: start.is_none(),
        }
    }

    fn midpoint(bounds: &[u32]) -> Vec<u32> {
        let mid: Vec<u32> = bounds.iter().map(|&b| b.div_ceil(2)).collect();
        if mid.iter().all(|&c| c == 0) {
            let mut m = mid;
            m[0] = 1;
            m
        } else {
            mid
        }
    }

    fn set_current(&mut self, rank: u32, objective: f64) {
        let config = self.lattice.config_at(rank);
        self.neighborhood = self
            .lattice
            .neighbors(&config)
            .iter()
            .filter_map(|n| self.lattice.rank(n))
            .collect();
        self.queue = self
            .neighborhood
            .iter()
            .copied()
            .filter(|n| !self.known.contains_key(n))
            .collect();
        self.current = Some((rank, objective));
    }

    /// The steepest-ascent decision: runs when the neighbourhood is fully told. Loops
    /// because a move can land on a point whose neighbours are all known already.
    fn advance(&mut self, rng: &mut dyn RngCore) {
        loop {
            let Some((_, current_obj)) = self.current else {
                self.done = true;
                return;
            };
            let mut best_neighbor: Option<(u32, f64)> = None;
            for n in &self.neighborhood {
                let Some(&v) = self.known.get(n) else {
                    // An untold neighbour means the driver stopped mid-step; no sound
                    // decision can be made.
                    self.done = true;
                    return;
                };
                if best_neighbor.is_none_or(|(_, b)| v > b) {
                    best_neighbor = Some((*n, v));
                }
            }
            match best_neighbor {
                Some((rank, obj)) if obj > current_obj => {
                    self.set_current(rank, obj);
                    if !self.queue.is_empty() {
                        return;
                    }
                    // Every neighbour of the new point is known: decide again.
                }
                _ => {
                    // Local optimum: random restart at an unexplored configuration.
                    let mut candidates: Vec<u32> = self
                        .lattice
                        .ranks()
                        .filter(|r| !self.known.contains_key(r))
                        .collect();
                    if candidates.is_empty() {
                        self.done = true;
                        return;
                    }
                    candidates.shuffle(rng);
                    self.pending_move = Some(candidates[0]);
                    self.queue.push_back(candidates[0]);
                    return;
                }
            }
        }
    }
}

impl Optimizer for HillClimbAdapter {
    fn ask(&mut self, rng: &mut dyn RngCore, q: usize) -> Result<Vec<Vec<u32>>, BoError> {
        if self.queue.is_empty() && self.in_flight == 0 && !self.done {
            self.advance(rng);
        }
        if self.done {
            return Err(BoError::SpaceExhausted);
        }
        let take = q.max(1).min(self.queue.len());
        let out: Vec<Vec<u32>> = self
            .queue
            .drain(..take)
            .map(|r| self.lattice.config_at(r))
            .collect();
        if out.is_empty() {
            return Err(BoError::SpaceExhausted);
        }
        self.in_flight += out.len();
        Ok(out)
    }

    fn tell(&mut self, outcome: Outcome) -> Result<bool, BoError> {
        self.in_flight = self.in_flight.saturating_sub(1);
        let Some(rank) = self.lattice.rank(&outcome.config) else {
            return Err(BoError::InvalidConfig(outcome.config));
        };
        self.known.insert(rank, outcome.value);
        if self.pending_move == Some(rank) {
            self.pending_move = None;
            self.set_current(rank, outcome.value);
        }
        Ok(true)
    }

    fn forget(&mut self, config: &[u32]) {
        self.in_flight = self.in_flight.saturating_sub(1);
        if let Some(rank) = self.lattice.rank(config) {
            self.queue.push_front(rank);
        }
    }

    fn remaining(&self) -> Option<usize> {
        None
    }
}

// ---------------------------------------------------------------------------
// RSM
// ---------------------------------------------------------------------------

enum RsmPhase {
    Design,
    Climb,
}

/// Ask/tell form of [`ResponseSurfaceSearch`]: the central-composite design as the first
/// queue, then the climb — best-neighbour moves within each neighbourhood, jumps to the
/// best expandable point on stalls — with each decision deferred to the queue-drained
/// moment.
pub struct RsmAdapter {
    lattice: ConfigLattice,
    phase: RsmPhase,
    queue: VecDeque<Vec<u32>>,
    in_flight: usize,
    explored: BTreeSet<Vec<u32>>,
    /// Every told evaluation, in tell order (the trace the jump rules scan).
    evals: Vec<(Vec<u32>, f64)>,
    /// Evaluations told since the current climb step began.
    round: Vec<(Vec<u32>, f64)>,
    current: Option<(Vec<u32>, f64)>,
    done: bool,
}

impl RsmAdapter {
    /// An adapter whose first asks replay the face-centered central-composite design.
    pub fn new(lattice: ConfigLattice) -> Self {
        let design = ResponseSurfaceSearch::design_points(&lattice);
        RsmAdapter {
            lattice,
            phase: RsmPhase::Design,
            queue: design.into(),
            in_flight: 0,
            explored: BTreeSet::new(),
            evals: Vec::new(),
            round: Vec::new(),
            current: None,
            done: false,
        }
    }

    /// The *last* maximal element, as `Iterator::max_by` picks it.
    fn last_max<'a, I>(iter: I) -> Option<(Vec<u32>, f64)>
    where
        I: Iterator<Item = &'a (Vec<u32>, f64)>,
    {
        let mut best: Option<(Vec<u32>, f64)> = None;
        for (c, o) in iter {
            let better = match &best {
                None => true,
                Some((_, b)) => *o >= *b,
            };
            if better {
                best = Some((c.clone(), *o));
            }
        }
        best
    }

    fn has_unexplored_neighbor(&self, config: &[u32]) -> bool {
        self.lattice
            .neighbors(config)
            .iter()
            .any(|n| !self.explored.contains(n))
    }

    fn set_current(&mut self, config: Vec<u32>, objective: f64) {
        self.queue = self
            .lattice
            .neighbors(&config)
            .into_iter()
            .filter(|n| !self.explored.contains(n))
            .collect();
        self.current = Some((config, objective));
        self.round.clear();
    }

    fn advance(&mut self) {
        if matches!(self.phase, RsmPhase::Design) {
            self.phase = RsmPhase::Climb;
            // The climb starts at the best design point (the last max, as
            // `SearchTrace::best_objective` picks it).
            match Self::last_max(self.evals.iter()) {
                Some((config, obj)) => {
                    self.set_current(config, obj);
                    if !self.queue.is_empty() {
                        return;
                    }
                }
                None => {
                    self.done = true;
                    return;
                }
            }
        }
        loop {
            let Some((current, current_obj)) = self.current.clone() else {
                self.done = true;
                return;
            };
            // Best neighbour of this step: the first strict max in tell order.
            let mut best_neighbor: Option<(Vec<u32>, f64)> = None;
            for (c, o) in &self.round {
                let better = match &best_neighbor {
                    None => true,
                    Some((_, b)) => *o > *b,
                };
                if better {
                    best_neighbor = Some((c.clone(), *o));
                }
            }
            let advanced = !self.round.is_empty();
            match best_neighbor {
                Some((config, obj)) if obj > current_obj => {
                    self.set_current(config, obj);
                    if !self.queue.is_empty() {
                        return;
                    }
                }
                _ if advanced => {
                    // Neighbourhood explored without improvement: jump to the best
                    // explored-but-not-yet-expanded point overall.
                    let next = Self::last_max(
                        self.evals
                            .iter()
                            .filter(|(c, _)| *c != current)
                            .filter(|(c, _)| self.has_unexplored_neighbor(c)),
                    );
                    match next {
                        Some((config, obj)) => {
                            self.set_current(config, obj);
                            if !self.queue.is_empty() {
                                return;
                            }
                        }
                        None => {
                            self.done = true;
                            return;
                        }
                    }
                }
                _ => {
                    // No unexplored neighbours at all: move to the best expandable point.
                    let next = Self::last_max(
                        self.evals
                            .iter()
                            .filter(|(c, _)| self.has_unexplored_neighbor(c)),
                    );
                    match next {
                        Some((config, obj)) if config != current => {
                            self.set_current(config, obj);
                            if !self.queue.is_empty() {
                                return;
                            }
                        }
                        _ => {
                            self.done = true;
                            return;
                        }
                    }
                }
            }
        }
    }
}

impl Optimizer for RsmAdapter {
    fn ask(&mut self, _rng: &mut dyn RngCore, q: usize) -> Result<Vec<Vec<u32>>, BoError> {
        if self.queue.is_empty() && self.in_flight == 0 && !self.done {
            self.advance();
        }
        if self.done {
            return Err(BoError::SpaceExhausted);
        }
        let take = q.max(1).min(self.queue.len());
        let out: Vec<Vec<u32>> = self.queue.drain(..take).collect();
        if out.is_empty() {
            return Err(BoError::SpaceExhausted);
        }
        self.in_flight += out.len();
        Ok(out)
    }

    fn tell(&mut self, outcome: Outcome) -> Result<bool, BoError> {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.explored.insert(outcome.config.clone());
        self.evals.push((outcome.config.clone(), outcome.value));
        if matches!(self.phase, RsmPhase::Climb) {
            self.round.push((outcome.config, outcome.value));
        }
        Ok(true)
    }

    fn forget(&mut self, config: &[u32]) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.queue.push_front(config.to_vec());
    }

    fn remaining(&self) -> Option<usize> {
        None
    }
}

// ---------------------------------------------------------------------------
// Exhaustive
// ---------------------------------------------------------------------------

/// Ask/tell form of [`super::ExhaustiveSearch`]: a cursor over the lattice ranks in
/// enumeration order, optionally capped, behind the candidates handed back by `forget`
/// (asked again first, the last one forgotten first). Nothing is allocated up front.
pub struct ExhaustiveAdapter {
    lattice: ConfigLattice,
    /// The next rank to ask, and the rank the enumeration stops before.
    next: usize,
    end: usize,
    forgotten: Vec<Vec<u32>>,
}

impl ExhaustiveAdapter {
    /// An adapter enumerating the whole lattice, or its first `limit` points.
    pub fn new(lattice: ConfigLattice, limit: Option<usize>) -> Self {
        let end = limit.map_or(lattice.len(), |l| l.min(lattice.len()));
        ExhaustiveAdapter {
            lattice,
            next: 0,
            end,
            forgotten: Vec::new(),
        }
    }
}

impl Optimizer for ExhaustiveAdapter {
    fn ask(&mut self, _rng: &mut dyn RngCore, q: usize) -> Result<Vec<Vec<u32>>, BoError> {
        let mut out = Vec::new();
        while out.len() < q.max(1) {
            if let Some(config) = self.forgotten.pop() {
                out.push(config);
            } else if self.next < self.end {
                out.push(self.lattice.config_at(self.next as u32));
                self.next += 1;
            } else {
                break;
            }
        }
        if out.is_empty() {
            return Err(BoError::SpaceExhausted);
        }
        Ok(out)
    }

    fn tell(&mut self, _outcome: Outcome) -> Result<bool, BoError> {
        Ok(true)
    }

    fn forget(&mut self, config: &[u32]) {
        self.forgotten.push(config.to_vec());
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.forgotten.len() + (self.end - self.next))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{small_evaluator, tiny_evaluator};
    use super::super::{ExhaustiveSearch, RandomSearch, SearchStrategy, DEFAULT_ASK_CHUNK};
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_adapter_respects_dominance_at_any_batch() {
        let ev = small_evaluator();
        let driven = RandomSearch::new(20).with_batch(6).run_search(&ev, 7);
        assert!(driven.len() <= 20);
        let mut seen = BTreeSet::new();
        for e in driven.evaluations() {
            assert!(seen.insert(e.config.clone()), "duplicate {:?}", e.config);
        }
    }

    #[test]
    fn exhaustive_adapter_covers_the_lattice_at_any_batch() {
        let ev = tiny_evaluator();
        let lattice = ev.lattice().enumerate();
        for batch in [1, 4, 7, DEFAULT_ASK_CHUNK] {
            let trace = ExhaustiveSearch::full()
                .with_batch(batch)
                .run_search(&ev, 0);
            let configs: Vec<Vec<u32>> = trace
                .evaluations()
                .iter()
                .map(|e| e.config.clone())
                .collect();
            assert_eq!(configs, lattice, "batch {batch}");
        }
    }

    #[test]
    fn exhaustive_adapter_asks_forgotten_candidates_first() {
        let mut opt = ExhaustiveAdapter::new(ConfigLattice::new(vec![2, 2]), Some(6));
        let mut rng = StdRng::seed_from_u64(0);
        let first = opt.ask(&mut rng, 3).unwrap();
        assert_eq!(first, vec![vec![0, 1], vec![0, 2], vec![1, 0]]);
        opt.forget(&first[1]);
        opt.forget(&first[2]);
        assert_eq!(opt.remaining(), Some(5));
        let again = opt.ask(&mut rng, 4).unwrap();
        assert_eq!(again, vec![vec![1, 0], vec![0, 2], vec![1, 1], vec![1, 2]]);
        assert_eq!(opt.ask(&mut rng, 4).unwrap(), vec![vec![2, 0]]);
        assert!(matches!(opt.ask(&mut rng, 1), Err(BoError::SpaceExhausted)));
    }
}
