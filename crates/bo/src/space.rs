//! The integer configuration lattice, Ribbon's active prune set, and the open set both
//! lattice optimizers search.
//!
//! A *configuration* is a vector of instance counts `[x_1, ..., x_n]`, one per instance type,
//! bounded by per-type maxima `m = [m_1, ..., m_n]`. The lattice is the full cartesian product
//! `{0..=m_1} × ... × {0..=m_n}` (the all-zero configuration is excluded — an empty pool can
//! never serve queries).
//!
//! Every lattice point has a **rank**: its index in lexicographic enumeration order
//! ([`ConfigLattice::enumerate`]), a `u32`. Ranks let the [`OpenSet`] hold the candidates
//! as 4 bytes per point instead of one heap-allocated configuration each.
//!
//! The [`PruneSet`] implements the paper's *active pruning*: when a configuration is observed
//! to violate QoS by more than a threshold, every configuration that is component-wise ≤ it is
//! unreachable (it has strictly less capacity, so it cannot meet QoS either) and is excluded
//! from future acquisition maximization. Symmetrically, once a QoS-satisfying configuration is
//! known, any configuration component-wise ≥ a *satisfying* configuration that is also more
//! expensive than the incumbent can be pruned by the caller via [`PruneSet::prune_above`].

use rand::seq::SliceRandom;
use rand::RngCore;
use std::collections::BTreeSet;

/// An integer lattice point: the number of instances of each type.
pub type Config = Vec<u32>;

/// The most points a lattice may hold: ranks are `u32`, so `0..=u32::MAX`.
pub const MAX_LATTICE_POINTS: u64 = 1 << 32;

/// Returns `true` if `a` is component-wise less than or equal to `b`.
///
/// # Panics
/// Panics if the configurations have different lengths.
pub fn dominated_by(a: &[u32], b: &[u32]) -> bool {
    assert_eq!(a.len(), b.len(), "configuration dimensionality mismatch");
    a.iter().zip(b.iter()).all(|(x, y)| x <= y)
}

/// The bounded integer search space.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigLattice {
    /// Upper bound (inclusive) for each dimension: the paper's m_i.
    bounds: Vec<u32>,
    /// Number of points, the all-zero configuration excluded.
    len: usize,
}

impl ConfigLattice {
    /// Creates a lattice with inclusive per-dimension upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or spans more than [`MAX_LATTICE_POINTS`] points;
    /// callers that take bounds from input check them with
    /// [`ConfigLattice::count_points`] first.
    pub fn new(bounds: Vec<u32>) -> Self {
        assert!(!bounds.is_empty(), "lattice needs at least one dimension");
        let len = Self::count_points(&bounds)
            .filter(|&n| n <= MAX_LATTICE_POINTS)
            .and_then(|n| usize::try_from(n).ok())
            .unwrap_or_else(|| {
                panic!("bounds {bounds:?} span more than {MAX_LATTICE_POINTS} lattice points")
            });
        ConfigLattice { bounds, len }
    }

    /// Number of points `bounds` span, the all-zero configuration excluded, or `None`
    /// when the count overflows `u64`.
    pub fn count_points(bounds: &[u32]) -> Option<u64> {
        bounds
            .iter()
            .try_fold(1u64, |acc, &b| acc.checked_mul(u64::from(b) + 1))
            .map(|total| total - 1)
    }

    /// Number of dimensions (instance types).
    pub fn dims(&self) -> usize {
        self.bounds.len()
    }

    /// Per-dimension inclusive upper bounds.
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    /// Total number of lattice points excluding the all-zero configuration.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the lattice contains no valid (non-empty) configuration.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `config` lies inside the lattice bounds and is not all-zero.
    pub fn contains(&self, config: &[u32]) -> bool {
        config.len() == self.bounds.len()
            && config.iter().zip(&self.bounds).all(|(c, b)| c <= b)
            && config.iter().any(|&c| c > 0)
    }

    /// Every rank, ascending: the lattice in enumeration order, 4 bytes a point.
    pub fn ranks(&self) -> impl Iterator<Item = u32> {
        // `ConfigLattice::new` keeps the point count within the u32 rank range.
        (0..self.len).map(|r| r as u32)
    }

    /// The rank of `config` (its index in [`ConfigLattice::enumerate`] order), or `None`
    /// when the lattice does not contain it.
    pub fn rank(&self, config: &[u32]) -> Option<u32> {
        if !self.contains(config) {
            return None;
        }
        let index = config.iter().zip(&self.bounds).fold(0u64, |acc, (&c, &b)| {
            acc * (u64::from(b) + 1) + u64::from(c)
        });
        // The all-zero configuration holds mixed-radix index 0 and is not enumerated.
        u32::try_from(index - 1).ok()
    }

    /// The configuration of rank `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is not below [`ConfigLattice::len`].
    pub fn config_at(&self, rank: u32) -> Config {
        assert!(
            (rank as usize) < self.len,
            "rank {rank} is outside the lattice"
        );
        let mut decoder = RankDecoder::new(self);
        decoder.seek(rank).to_vec()
    }

    /// Enumerates every valid configuration (excluding all-zero) in lexicographic order.
    /// This allocates every point; the searches walk [`ConfigLattice::ranks`] instead, and
    /// tests use this as the oracle for rank order.
    pub fn enumerate(&self) -> Vec<Config> {
        let mut out = Vec::with_capacity(self.len());
        let mut current = vec![0u32; self.bounds.len()];
        loop {
            if current.iter().any(|&c| c > 0) {
                out.push(current.clone());
            }
            // Odometer increment.
            let mut i = self.bounds.len();
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                if current[i] < self.bounds[i] {
                    current[i] += 1;
                    for v in current.iter_mut().skip(i + 1) {
                        *v = 0;
                    }
                    break;
                }
            }
        }
    }

    /// All lattice neighbours of `config` at L1 distance 1 (±1 along a single dimension).
    pub fn neighbors(&self, config: &[u32]) -> Vec<Config> {
        let mut out = Vec::with_capacity(2 * config.len());
        for i in 0..config.len() {
            if config[i] < self.bounds[i] {
                let mut up = config.to_vec();
                up[i] += 1;
                out.push(up);
            }
            if config[i] > 0 {
                let mut down = config.to_vec();
                down[i] -= 1;
                if down.iter().any(|&c| c > 0) {
                    out.push(down);
                }
            }
        }
        out
    }

    /// Clamps an arbitrary real-valued point to the nearest valid lattice configuration.
    pub fn clamp_round(&self, point: &[f64]) -> Config {
        let mut cfg: Config = point
            .iter()
            .zip(&self.bounds)
            .map(|(p, &b)| p.round().clamp(0.0, b as f64) as u32)
            .collect();
        if cfg.iter().all(|&c| c == 0) {
            // Nudge to the smallest non-empty configuration.
            cfg[0] = 1;
        }
        cfg
    }

    /// Converts an integer configuration to the `f64` coordinates the GP operates on.
    pub fn to_coords(config: &[u32]) -> Vec<f64> {
        config.iter().map(|&c| c as f64).collect()
    }
}

/// Decodes ranks to configurations. Over an ascending sequence of ranks it carries the
/// digits forward from the previous rank — one add and compare per point for consecutive
/// ranks — and divides only where a digit wraps more than once (a jump ahead, or a rank
/// that goes backwards).
pub(crate) struct RankDecoder<'a> {
    bounds: &'a [u32],
    /// Digits of the current point, most significant first.
    digits: Vec<u32>,
    /// Mixed-radix index of `digits` (rank + 1).
    index: u64,
}

impl<'a> RankDecoder<'a> {
    pub(crate) fn new(lattice: &'a ConfigLattice) -> Self {
        RankDecoder {
            bounds: &lattice.bounds,
            digits: vec![0; lattice.dims()],
            index: 0,
        }
    }

    /// The configuration of `rank` (which the caller keeps inside the lattice).
    pub(crate) fn seek(&mut self, rank: u32) -> &[u32] {
        let target = u64::from(rank) + 1;
        let mut carry = if target >= self.index {
            target - self.index
        } else {
            self.digits.fill(0);
            target
        };
        self.index = target;
        for (digit, &bound) in self.digits.iter_mut().zip(self.bounds).rev() {
            if carry == 0 {
                break;
            }
            let base = u64::from(bound) + 1;
            let v = u64::from(*digit) + carry;
            if v < base {
                *digit = v as u32;
                carry = 0;
            } else if v < 2 * base {
                // One wrap, the common step to the next row: no division.
                *digit = (v - base) as u32;
                carry = 1;
            } else {
                *digit = (v % base) as u32;
                carry = v / base;
            }
        }
        &self.digits
    }
}

/// The candidates of a lattice search: every lattice point that is neither explored,
/// pruned nor in flight, as ascending ranks, plus the bookkeeping that moves points
/// between those states. [`crate::BoOptimizer`] and [`crate::TpeOptimizer`] share it.
///
/// Invariant: `ranks()` equals the ranks of `lattice.enumerate()` filtered by
/// `is_explored`, `prune_set().is_pruned` and `pending()`, in ascending order.
#[derive(Debug, Clone)]
pub struct OpenSet {
    lattice: ConfigLattice,
    ranks: Vec<u32>,
    explored: BTreeSet<Config>,
    prune: PruneSet,
    /// Candidates handed out by an ask and not yet told or forgotten.
    pending: Vec<Config>,
}

impl OpenSet {
    /// The whole lattice open: nothing explored, pruned or in flight.
    pub fn new(lattice: ConfigLattice) -> Self {
        OpenSet {
            ranks: lattice.ranks().collect(),
            lattice,
            explored: BTreeSet::new(),
            prune: PruneSet::new(),
            pending: Vec::new(),
        }
    }

    /// The search lattice.
    pub fn lattice(&self) -> &ConfigLattice {
        &self.lattice
    }

    /// Open ranks, ascending.
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }

    /// Number of open points.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// `true` when no point is open.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// `true` if `config` is open.
    pub fn contains(&self, config: &[u32]) -> bool {
        self.lattice
            .rank(config)
            .is_some_and(|r| self.ranks.binary_search(&r).is_ok())
    }

    /// `true` if `config` has been explored (observed, injected or estimated).
    pub fn is_explored(&self, config: &[u32]) -> bool {
        self.explored.contains(config)
    }

    /// The prune boxes applied so far.
    pub fn prune_set(&self) -> &PruneSet {
        &self.prune
    }

    /// Candidates in flight.
    pub fn pending(&self) -> &[Config] {
        &self.pending
    }

    fn remove(&mut self, config: &[u32]) {
        if let Some(r) = self.lattice.rank(config) {
            if let Ok(pos) = self.ranks.binary_search(&r) {
                self.ranks.remove(pos);
            }
        }
    }

    /// Marks `config` explored and closes it; it may already be closed by a prune box.
    pub fn explore(&mut self, config: &[u32]) {
        if self.explored.insert(config.to_vec()) {
            self.remove(config);
        }
    }

    /// Closes every open point of the box `lo[j] ..= hi[j]` (bounds inside the lattice,
    /// `lo[j] ≤ hi[j]`), except its lowest corner `lo` when `keep_lo`.
    ///
    /// In rank order the box is one contiguous run of ranks per prefix of its leading
    /// dimensions: those up to the last dimension the box does not span in full. The
    /// runs come in ascending order, so one merge over the sorted ranks removes them,
    /// with no rank decoded.
    fn close_box(&mut self, lo: &[u32], hi: &[u32], keep_lo: bool) {
        let bounds = self.lattice.bounds();
        let dims = bounds.len();
        // strides[j]: mixed-radix weight of digit j.
        let mut strides = vec![1u64; dims];
        for j in (0..dims - 1).rev() {
            strides[j] = strides[j + 1] * (u64::from(bounds[j + 1]) + 1);
        }
        // Runs vary digits `..k` and span digit `k` from lo to hi, and every later digit
        // in full.
        let k = (0..dims)
            .rev()
            .find(|&j| lo[j] != 0 || hi[j] != bounds[j])
            .unwrap_or(0);
        let mut digits = lo[..k].to_vec();
        let mut base: u64 = digits
            .iter()
            .zip(&strides)
            .map(|(&d, &s)| u64::from(d) * s)
            .sum();
        let run_lo = u64::from(lo[k]) * strides[k];
        let run_len = (u64::from(hi[k] - lo[k]) + 1) * strides[k];
        let mut skip_lo = keep_lo;
        let mut merge = RunMerge::new(&mut self.ranks);
        loop {
            // Mixed-radix indices are rank + 1; index 0 is the excluded all-zero point.
            let first = (base + run_lo + u64::from(skip_lo)).max(1);
            let last = base + run_lo + run_len - 1;
            skip_lo = false;
            if first <= last {
                merge.close((first - 1) as u32, (last - 1) as u32);
            }
            // Odometer over the prefix digits.
            let Some(j) = (0..k).rev().find(|&j| digits[j] < hi[j]) else {
                break;
            };
            digits[j] += 1;
            base += strides[j];
            for i in j + 1..k {
                base -= u64::from(digits[i] - lo[i]) * strides[i];
                digits[i] = lo[i];
            }
        }
        merge.finish();
    }

    /// Prunes every point component-wise ≤ `violator` (see [`PruneSet::prune_below`]).
    ///
    /// # Panics
    /// Panics if `violator` does not have the lattice's dimension.
    pub fn prune_below(&mut self, violator: Config) {
        assert_eq!(
            violator.len(),
            self.lattice.dims(),
            "configuration dimensionality mismatch"
        );
        let hi: Vec<u32> = violator
            .iter()
            .zip(self.lattice.bounds())
            .map(|(&v, &b)| v.min(b))
            .collect();
        self.close_box(&vec![0; hi.len()], &hi, false);
        self.prune.prune_below(violator);
    }

    /// Prunes every point component-wise ≥ `satisfier`, the satisfier itself excepted
    /// (see [`PruneSet::prune_above`]).
    ///
    /// # Panics
    /// Panics if `satisfier` does not have the lattice's dimension.
    pub fn prune_above(&mut self, satisfier: Config) {
        assert_eq!(
            satisfier.len(),
            self.lattice.dims(),
            "configuration dimensionality mismatch"
        );
        if satisfier
            .iter()
            .zip(self.lattice.bounds())
            .all(|(s, b)| s <= b)
        {
            let hi = self.lattice.bounds().to_vec();
            self.close_box(&satisfier, &hi, true);
        }
        self.prune.prune_above(satisfier);
    }

    /// Moves `config` from the open set into flight.
    pub fn take(&mut self, config: &[u32]) {
        self.remove(config);
        self.pending.push(config.to_vec());
    }

    /// Moves the open points at positions `positions` (indices into [`OpenSet::ranks`],
    /// distinct) into flight and returns their configurations in `positions` order.
    pub fn take_positions(&mut self, positions: &[usize]) -> Vec<Config> {
        let configs = positions
            .iter()
            .map(|&i| self.lattice.config_at(self.ranks[i]))
            .collect();
        let mut order: Vec<usize> = positions.to_vec();
        order.sort_unstable_by(|a, b| b.cmp(a));
        for i in order {
            let rank = self.ranks.remove(i);
            self.pending.push(self.lattice.config_at(rank));
        }
        configs
    }

    /// The first `q` entries of one shuffle of a copy of the open ranks, as
    /// configurations; the open set is unchanged. Fisher–Yates draws depend only on the
    /// length, so this consumes the RNG exactly as shuffling the configurations would.
    pub fn shuffled_prefix(&self, rng: &mut dyn RngCore, q: usize) -> Vec<Config> {
        let mut ranks = self.ranks.clone();
        let mut rng_ref: &mut dyn RngCore = rng;
        ranks.shuffle(&mut rng_ref);
        ranks[..q.min(ranks.len())]
            .iter()
            .map(|&r| self.lattice.config_at(r))
            .collect()
    }

    /// [`OpenSet::shuffled_prefix`], moved into flight.
    pub fn random_batch(&mut self, rng: &mut dyn RngCore, q: usize) -> Vec<Config> {
        let batch = self.shuffled_prefix(rng, q);
        for c in &batch {
            self.take(c);
        }
        batch
    }

    /// Drops `config` from flight (a tell settles it).
    pub fn settle(&mut self, config: &[u32]) {
        if let Some(pos) = self.pending.iter().position(|c| c.as_slice() == config) {
            self.pending.remove(pos);
        }
    }

    /// Returns an in-flight candidate to the open set unless an observation or a prune
    /// box claimed it while it was in flight. Unknown configurations are ignored.
    pub fn forget(&mut self, config: &[u32]) {
        let Some(pos) = self.pending.iter().position(|c| c.as_slice() == config) else {
            return;
        };
        let cfg = self.pending.remove(pos);
        if self.explored.contains(&cfg) || self.prune.is_pruned(&cfg) {
            return;
        }
        if let Some(r) = self.lattice.rank(&cfg) {
            if let Err(ins) = self.ranks.binary_search(&r) {
                self.ranks.insert(ins, r);
            }
        }
    }

    /// Reopens the whole lattice and clears the exploration, pruning and flight state.
    pub fn reset(&mut self) {
        self.ranks = self.lattice.ranks().collect();
        self.explored.clear();
        self.prune.clear();
        self.pending.clear();
    }
}

/// Removes ascending, disjoint runs of ranks from a sorted rank list in one pass: kept
/// ranks move down over the removed ones, and each run's boundaries are found by binary
/// search over the fewest ranks that can lie before them (ranks are distinct).
struct RunMerge<'a> {
    ranks: &'a mut Vec<u32>,
    /// Ranks before `read` are decided; those kept sit before `write`.
    read: usize,
    write: usize,
}

impl<'a> RunMerge<'a> {
    fn new(ranks: &'a mut Vec<u32>) -> Self {
        RunMerge {
            ranks,
            read: 0,
            write: 0,
        }
    }

    /// Removes the ranks in `first ..= last`, which lies above every earlier run.
    fn close(&mut self, first: u32, last: u32) {
        let rest = &self.ranks[self.read..];
        let Some(&next) = rest.first() else { return };
        // Distinct ranks: at most `first − next` lie below the run, and at most
        // `last − first + 1` inside it.
        let below = &rest[..rest.len().min(first.saturating_sub(next) as usize)];
        let kept = below.partition_point(|&r| r < first);
        let after = &rest[kept..];
        let inside = &after[..after.len().min((u64::from(last - first) + 1) as usize)];
        let closed = inside.partition_point(|&r| r <= last);
        if self.write != self.read {
            self.ranks
                .copy_within(self.read..self.read + kept, self.write);
        }
        self.write += kept;
        self.read += kept + closed;
    }

    /// Moves the ranks after the last run down and drops the removed ones.
    fn finish(self) {
        let len = self.ranks.len();
        if self.write != self.read {
            self.ranks.copy_within(self.read..len, self.write);
            self.ranks.truncate(self.write + (len - self.read));
        }
    }
}

/// Ribbon's active prune set P.
///
/// Stores (a) *violator boxes*: configurations observed to violate QoS by more than the
/// threshold — everything component-wise ≤ such a configuration is pruned; and (b) explicit
/// *above boxes*: QoS-satisfying configurations — everything component-wise ≥ them (other than
/// the configuration itself) is at least as expensive and therefore cannot beat it, so it may
/// be pruned once an incumbent exists.
#[derive(Debug, Clone, Default)]
pub struct PruneSet {
    below_boxes: Vec<Config>,
    above_boxes: Vec<Config>,
}

impl PruneSet {
    /// Creates an empty prune set.
    pub fn new() -> Self {
        PruneSet::default()
    }

    /// Prunes every configuration component-wise ≤ `violator` (the violator itself included).
    pub fn prune_below(&mut self, violator: Config) {
        // Keep the set minimal: drop boxes already covered by the new one.
        if self
            .below_boxes
            .iter()
            .any(|existing| dominated_by(&violator, existing))
        {
            return;
        }
        self.below_boxes
            .retain(|existing| !dominated_by(existing, &violator));
        self.below_boxes.push(violator);
    }

    /// Prunes every configuration component-wise ≥ `satisfier`, *excluding* the satisfier
    /// itself (it remains a legitimate incumbent).
    pub fn prune_above(&mut self, satisfier: Config) {
        if self
            .above_boxes
            .iter()
            .any(|existing| dominated_by(existing, &satisfier))
        {
            return;
        }
        self.above_boxes
            .retain(|existing| !dominated_by(&satisfier, existing));
        self.above_boxes.push(satisfier);
    }

    /// Returns `true` if `config` is excluded from future sampling.
    pub fn is_pruned(&self, config: &[u32]) -> bool {
        if self.below_boxes.iter().any(|v| dominated_by(config, v)) {
            return true;
        }
        self.above_boxes
            .iter()
            .any(|s| dominated_by(s, config) && s.as_slice() != config)
    }

    /// Number of stored pruning boxes (diagnostic).
    pub fn num_boxes(&self) -> usize {
        self.below_boxes.len() + self.above_boxes.len()
    }

    /// Clears all pruning information (used when the load changes and history is rebuilt).
    pub fn clear(&mut self) {
        self.below_boxes.clear();
        self.above_boxes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lattice_len_counts_all_but_zero() {
        let l = ConfigLattice::new(vec![2, 3]);
        assert_eq!(l.len(), 3 * 4 - 1);
        assert_eq!(l.enumerate().len(), l.len());
    }

    #[test]
    fn lattice_enumerate_excludes_zero_and_respects_bounds() {
        let l = ConfigLattice::new(vec![1, 2]);
        let pts = l.enumerate();
        assert!(!pts.contains(&vec![0, 0]));
        assert!(pts.contains(&vec![1, 2]));
        assert!(pts.iter().all(|p| l.contains(p)));
        assert_eq!(pts.len(), 5);
    }

    #[test]
    fn contains_rejects_out_of_bounds_and_zero() {
        let l = ConfigLattice::new(vec![2, 2]);
        assert!(!l.contains(&[3, 0]));
        assert!(!l.contains(&[0, 0]));
        assert!(!l.contains(&[1]));
        assert!(l.contains(&[2, 2]));
        assert!(l.contains(&[0, 1]));
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn lattice_rejects_empty_bounds() {
        let _ = ConfigLattice::new(vec![]);
    }

    #[test]
    fn zero_bounds_lattice_is_empty() {
        let l = ConfigLattice::new(vec![0, 0]);
        assert!(l.is_empty());
        assert!(l.enumerate().is_empty());
    }

    #[test]
    fn neighbors_stay_in_bounds_and_exclude_zero() {
        let l = ConfigLattice::new(vec![2, 2]);
        let n = l.neighbors(&[0, 1]);
        assert!(n.contains(&vec![1, 1]));
        assert!(n.contains(&vec![0, 2]));
        assert!(
            !n.contains(&vec![0, 0]),
            "all-zero neighbour must be excluded"
        );
        for cfg in &n {
            assert!(l.contains(cfg));
        }
    }

    #[test]
    fn neighbors_of_interior_point_count() {
        let l = ConfigLattice::new(vec![5, 5, 5]);
        assert_eq!(l.neighbors(&[2, 2, 2]).len(), 6);
        // Corner point has fewer neighbours.
        assert_eq!(l.neighbors(&[5, 5, 5]).len(), 3);
    }

    #[test]
    fn clamp_round_clamps_and_avoids_zero() {
        let l = ConfigLattice::new(vec![3, 4]);
        assert_eq!(l.clamp_round(&[2.6, -1.0]), vec![3, 0]);
        assert_eq!(l.clamp_round(&[9.0, 9.0]), vec![3, 4]);
        assert_eq!(
            l.clamp_round(&[0.2, 0.4]),
            vec![1, 0],
            "all-zero rounds to smallest pool"
        );
    }

    #[test]
    fn to_coords_roundtrip() {
        assert_eq!(ConfigLattice::to_coords(&[1, 0, 7]), vec![1.0, 0.0, 7.0]);
    }

    #[test]
    fn dominated_by_basic_cases() {
        assert!(dominated_by(&[1, 2], &[1, 2]));
        assert!(dominated_by(&[0, 2], &[1, 2]));
        assert!(!dominated_by(&[2, 2], &[1, 3]));
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dominated_by_panics_on_dim_mismatch() {
        let _ = dominated_by(&[1], &[1, 2]);
    }

    #[test]
    fn prune_below_excludes_dominated_configs() {
        let mut p = PruneSet::new();
        p.prune_below(vec![2, 3]);
        assert!(p.is_pruned(&[2, 3]));
        assert!(p.is_pruned(&[0, 1]));
        assert!(p.is_pruned(&[2, 0]));
        assert!(!p.is_pruned(&[3, 3]));
        assert!(!p.is_pruned(&[2, 4]));
    }

    #[test]
    fn prune_above_keeps_the_satisfier_itself() {
        let mut p = PruneSet::new();
        p.prune_above(vec![3, 4]);
        assert!(!p.is_pruned(&[3, 4]), "satisfier itself stays sampleable");
        assert!(p.is_pruned(&[3, 5]));
        assert!(p.is_pruned(&[4, 4]));
        assert!(!p.is_pruned(&[2, 4]));
    }

    #[test]
    fn prune_set_deduplicates_covered_boxes() {
        let mut p = PruneSet::new();
        p.prune_below(vec![1, 1]);
        p.prune_below(vec![2, 2]); // covers the previous box
        p.prune_below(vec![1, 0]); // already covered, must not grow the set
        assert_eq!(p.num_boxes(), 1);
        assert!(p.is_pruned(&[1, 1]));
        assert!(p.is_pruned(&[2, 2]));
    }

    #[test]
    fn prune_above_deduplicates_covered_boxes() {
        let mut p = PruneSet::new();
        p.prune_above(vec![3, 3]);
        p.prune_above(vec![2, 2]); // covers the previous box from below
        p.prune_above(vec![4, 4]); // already covered
        assert_eq!(p.num_boxes(), 1);
        assert!(
            p.is_pruned(&[3, 3]),
            "now dominated by the tighter satisfier box"
        );
        assert!(!p.is_pruned(&[2, 2]));
    }

    #[test]
    fn clear_resets_the_prune_set() {
        let mut p = PruneSet::new();
        p.prune_below(vec![5, 5]);
        p.prune_above(vec![1, 1]);
        p.clear();
        assert_eq!(p.num_boxes(), 0);
        assert!(!p.is_pruned(&[1, 1]));
    }

    /// A small deterministic generator (64-bit LCG, high bits).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u32) -> u32 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % u64::from(n)) as u32
        }

        /// A configuration with every coordinate in `0..=bound + over`.
        fn config(&mut self, bounds: &[u32], over: u32) -> Config {
            bounds.iter().map(|&b| self.below(b + over + 1)).collect()
        }
    }

    /// `open.ranks()` must equal the ranks of the enumeration filtered by exploration,
    /// the prune set and flight.
    fn assert_open_invariant(open: &OpenSet, what: &str) {
        let expected: Vec<u32> = open
            .lattice()
            .enumerate()
            .into_iter()
            .filter(|c| {
                !open.is_explored(c)
                    && !open.prune_set().is_pruned(c)
                    && !open.pending().contains(c)
            })
            .map(|c| open.lattice().rank(&c).unwrap())
            .collect();
        assert_eq!(open.ranks(), expected.as_slice(), "{what}");
    }

    #[test]
    fn prunes_close_exactly_their_boxes() {
        let cases: [(&[u32], &[u32], bool); 8] = [
            (&[4, 0, 3], &[2, 0, 1], true),
            (&[4, 0, 3], &[2, 0, 1], false),
            (&[3, 3], &[3, 3], true),
            (&[3, 3], &[0, 0], false),
            (&[3, 3], &[0, 0], true),
            (&[5], &[2], false),
            (&[2, 3, 0], &[1, 9, 0], true),
            (&[2, 2, 2], &[2, 3, 1], false),
        ];
        for (bounds, config, below) in cases {
            let mut open = OpenSet::new(ConfigLattice::new(bounds.to_vec()));
            if below {
                open.prune_below(config.to_vec());
            } else {
                open.prune_above(config.to_vec());
            }
            assert_open_invariant(&open, &format!("{bounds:?} {config:?} below {below}"));
        }
    }

    proptest! {
        #[test]
        fn prop_open_set_matches_the_enumeration_filter(seed in 0u64..u64::MAX, dims in 1usize..5) {
            let mut rng = Lcg(seed);
            // Bounds 0..=4: zero bounds and the empty lattice included.
            let bounds: Vec<u32> = (0..dims).map(|_| rng.below(5)).collect();
            let lattice = ConfigLattice::new(bounds.clone());
            let mut open = OpenSet::new(lattice.clone());
            for step in 0..24 {
                let op = rng.below(6);
                match op {
                    0 if !lattice.is_empty() => {
                        let rank = rng.below(lattice.len() as u32);
                        open.explore(&lattice.config_at(rank));
                    }
                    1 => open.prune_below(rng.config(&bounds, 1)),
                    2 => open.prune_above(rng.config(&bounds, 1)),
                    3 if !open.is_empty() => {
                        let rank = open.ranks()[rng.below(open.len() as u32) as usize];
                        open.take(&lattice.config_at(rank));
                    }
                    4 if !open.pending().is_empty() => {
                        let i = rng.below(open.pending().len() as u32) as usize;
                        let config = open.pending()[i].clone();
                        open.forget(&config);
                    }
                    _ => {}
                }
                assert_open_invariant(&open, &format!("seed {seed}, bounds {bounds:?}, step {step}, op {op}"));
            }
        }

        #[test]
        fn prop_enumerate_has_no_duplicates(b1 in 1u32..5, b2 in 1u32..5, b3 in 0u32..3) {
            let l = ConfigLattice::new(vec![b1, b2, b3]);
            let pts = l.enumerate();
            let mut set = std::collections::HashSet::new();
            for p in &pts {
                prop_assert!(set.insert(p.clone()), "duplicate {:?}", p);
            }
            prop_assert_eq!(pts.len(), l.len());
        }

        #[test]
        fn prop_pruned_below_never_exceeds_violator(vx in 0u32..6, vy in 0u32..6, cx in 0u32..6, cy in 0u32..6) {
            let mut p = PruneSet::new();
            p.prune_below(vec![vx, vy]);
            let pruned = p.is_pruned(&[cx, cy]);
            let dominated = cx <= vx && cy <= vy;
            prop_assert_eq!(pruned, dominated);
        }

        #[test]
        fn prop_clamp_round_always_valid(x in -5.0f64..20.0, y in -5.0f64..20.0, b1 in 1u32..8, b2 in 1u32..8) {
            let l = ConfigLattice::new(vec![b1, b2]);
            let cfg = l.clamp_round(&[x, y]);
            prop_assert!(l.contains(&cfg), "clamped {:?} not in lattice {:?}", cfg, l.bounds());
        }

        #[test]
        fn prop_neighbors_at_l1_distance_one(x in 0u32..5, y in 0u32..5, z in 0u32..5) {
            prop_assume!(x + y + z > 0);
            let l = ConfigLattice::new(vec![5, 5, 5]);
            let c = vec![x, y, z];
            for n in l.neighbors(&c) {
                let d: i64 = n.iter().zip(&c).map(|(a, b)| (*a as i64 - *b as i64).abs()).sum();
                prop_assert_eq!(d, 1);
            }
        }
    }
}
