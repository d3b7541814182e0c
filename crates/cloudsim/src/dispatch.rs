//! The FCFS dispatcher behind every serving path: the batch simulator, the streaming
//! simulator (untiered and tiered), the fleet router's lanes and its shared slice.

use crate::tier::AdmissionClass;

/// `rank_of_slot` entry of a slot that has left the queue.
const RETIRED: usize = usize::MAX;

/// A min-tree over per-slot clocks whose leaves are in dispatch-rank order.
#[derive(Debug, Clone)]
struct ClockTree {
    /// Leaf count: the slot count rounded up to a power of two.
    width: usize,
    /// Node 1 is the root, node `i` holds the smaller of nodes `2i` and `2i + 1`, and
    /// rank `r` is leaf node `width + r`. Padding leaves hold `+∞`.
    nodes: Vec<f64>,
}

impl ClockTree {
    fn new(clocks: &[f64]) -> Self {
        let width = clocks.len().next_power_of_two();
        let mut nodes = vec![f64::INFINITY; 2 * width];
        nodes[width..width + clocks.len()].copy_from_slice(clocks);
        for i in (1..width).rev() {
            nodes[i] = min(nodes[2 * i], nodes[2 * i + 1]);
        }
        ClockTree { width, nodes }
    }

    fn root(&self) -> f64 {
        self.nodes[1]
    }

    fn get(&self, rank: usize) -> f64 {
        self.nodes[self.width + rank]
    }

    fn set(&mut self, rank: usize, clock: f64) {
        debug_assert!(
            !clock.is_nan() && (clock != 0.0 || clock.is_sign_positive()),
            "slot clocks are never NaN or -0.0, got {clock}"
        );
        let mut i = self.width + rank;
        self.nodes[i] = clock;
        while i > 1 {
            i /= 2;
            let m = min(self.nodes[2 * i], self.nodes[2 * i + 1]);
            if self.nodes[i] == m {
                break; // every ancestor is unchanged too
            }
            self.nodes[i] = m;
        }
    }

    /// The lowest rank whose clock is at or before `t`; one exists when `t ≥ root()`.
    fn first_at_or_before(&self, t: f64) -> usize {
        let mut i = 1;
        while i < self.width {
            i *= 2;
            if self.nodes[i] > t {
                i += 1;
            }
        }
        i - self.width
    }
}

fn min(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// One dispatched query.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dispatch {
    /// The slot that serves it.
    pub(crate) slot: usize,
    /// Its completion time.
    pub(crate) completion: f64,
    /// Whether it is a premium query that overtook queued best-effort work.
    pub(crate) preempted: bool,
}

/// First-come-first-serve dispatch over a pool's slots: the first-arrived query goes to
/// the first available slot in the pool's type order (paper Sec. 5.1).
///
/// # Tie rule
///
/// The lowest rank whose clock is at or before the arrival starts the query at the
/// arrival. Otherwise the slot minimising `(clock, rank)` starts it at its clock, so
/// exactly equal clocks break toward the earlier type and a clock earlier by a single
/// ULP wins (see the [`crate::sim`] module docs). Ranks equal slot indices until the first
/// [`SlotQueue::reorder`], which re-ranks the surviving and launched slots; retired
/// slots leave the queue.
///
/// # Clocks
///
/// Every slot has a *full* clock: when all work queued on it completes. In tiered mode
/// it also has a *firm* clock, when its premium and standard work completes
/// (`firm ≤ full`); the gap is queued best-effort work that premium may overtake.
/// Clocks are never NaN or `-0.0` (debug-asserted), so plain `<` and `==` order them
/// exactly as `total_cmp` would.
///
/// # Admission classes
///
/// Standard queries wait on the full clock. Premium queries wait on the firm clock; one
/// that starts before its slot's full clock *preempts* the queued best-effort backlog,
/// which is pushed back by the premium service time. Best-effort queries wait on the
/// full clock, never advance the firm clock, and are dropped when their wait would
/// exceed the tier's admission cap.
///
/// Each clock set is a min-tree in rank order: a dispatch is one root-to-leaf walk plus
/// one point update per tree, and the availability probe reads the root.
#[derive(Debug, Clone)]
pub(crate) struct SlotQueue {
    full: ClockTree,
    /// The firm clocks; present in tiered mode only.
    firm: Option<ClockTree>,
    slot_of_rank: Vec<usize>,
    rank_of_slot: Vec<usize>,
}

impl SlotQueue {
    /// A queue of `slots` idle slots ranked by index.
    pub(crate) fn new(slots: usize) -> Self {
        SlotQueue {
            full: ClockTree::new(&vec![0.0; slots]),
            firm: None,
            slot_of_rank: (0..slots).collect(),
            rank_of_slot: (0..slots).collect(),
        }
    }

    /// Switches to tiered mode: firm clocks start equal to the full clocks.
    pub(crate) fn enable_firm(&mut self) {
        self.firm = Some(self.full.clone());
    }

    fn clocks(&self, class: AdmissionClass) -> &ClockTree {
        match (&self.firm, class) {
            (Some(firm), AdmissionClass::Premium) => firm,
            _ => &self.full,
        }
    }

    /// Earliest time at or after `at` when some slot could start a query of `class`.
    pub(crate) fn next_available_at(&self, at: f64, class: AdmissionClass) -> f64 {
        later(self.clocks(class).root(), at)
    }

    /// The active slots, in rank order.
    pub(crate) fn ranked(&self) -> &[usize] {
        &self.slot_of_rank
    }

    /// The full clock of an active slot.
    pub(crate) fn clock(&self, slot: usize) -> f64 {
        self.full.get(self.rank_of_slot[slot])
    }

    /// Dispatches a query of `class` arriving at `arrival`; `service` gives its service
    /// time on the chosen slot. Returns `None` for a best-effort query whose wait would
    /// exceed `cap`; such a query leaves every clock untouched.
    #[inline]
    pub(crate) fn dispatch(
        &mut self,
        arrival: f64,
        class: AdmissionClass,
        cap: Option<f64>,
        service: impl FnOnce(usize) -> f64,
    ) -> Option<Dispatch> {
        let clocks = self.clocks(class);
        let start = later(clocks.root(), arrival);
        let rank = clocks.first_at_or_before(start);
        if class == AdmissionClass::BestEffort && cap.is_some_and(|cap| start - arrival > cap) {
            return None;
        }
        let slot = self.slot_of_rank[rank];
        let service = service(slot);
        let completion = start + service;
        let full = self.full.get(rank);
        let preempted = class == AdmissionClass::Premium && start < full;
        self.full.set(
            rank,
            if preempted {
                full + service
            } else {
                completion
            },
        );
        if class != AdmissionClass::BestEffort {
            if let Some(firm) = self.firm.as_mut() {
                firm.set(rank, completion);
            }
        }
        Some(Dispatch {
            slot,
            completion,
            preempted,
        })
    }

    /// Re-ranks the queue: `order` lists the active slots, best rank first, and every
    /// slot missing from it retires. A slot index the queue has never held is a
    /// launched slot whose clocks start at `launched(slot)`; every other slot keeps its
    /// clocks.
    pub(crate) fn reorder(&mut self, order: &[usize], launched: impl Fn(usize) -> f64) {
        let old = &self.rank_of_slot;
        let clocks = |tree: &ClockTree| -> Vec<f64> {
            order
                .iter()
                .map(|&slot| {
                    old.get(slot)
                        .map_or_else(|| launched(slot), |&r| tree.get(r))
                })
                .collect()
        };
        let full = ClockTree::new(&clocks(&self.full));
        let firm = self.firm.as_ref().map(|firm| ClockTree::new(&clocks(firm)));
        let slots = order.iter().map(|&s| s + 1).fold(old.len(), usize::max);
        let mut rank_of_slot = vec![RETIRED; slots];
        for (rank, &slot) in order.iter().enumerate() {
            rank_of_slot[slot] = rank;
        }
        *self = SlotQueue {
            full,
            firm,
            slot_of_rank: order.to_vec(),
            rank_of_slot,
        };
    }
}

/// `max(clock, at)` with the plain comparison the clock invariant allows.
fn later(clock: f64, at: f64) -> f64 {
    if clock <= at {
        at
    } else {
        clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_slots_go_in_rank_order_then_the_earliest_clock_wins() {
        let mut q = SlotQueue::new(3);
        let std = AdmissionClass::Standard;
        let serve = |q: &mut SlotQueue, at: f64, service: f64| {
            q.dispatch(at, std, None, |_| service).map(|d| d.slot)
        };
        assert_eq!(serve(&mut q, 0.0, 3.0), Some(0));
        assert_eq!(serve(&mut q, 0.0, 1.0), Some(1));
        assert_eq!(serve(&mut q, 0.0, 2.0), Some(2));
        // All busy: slot 1 frees first (t = 1).
        assert_eq!(serve(&mut q, 0.5, 1.0), Some(1));
        assert_eq!(q.next_available_at(0.5, std), 2.0);
        // Slots 1 and 2 both free at t = 2: the lower rank wins the tie.
        assert_eq!(serve(&mut q, 2.5, 1.0), Some(1));
        assert_eq!(serve(&mut q, 2.5, 1.0), Some(2));
    }

    #[test]
    fn reorder_keeps_survivor_clocks_and_retires_the_rest() {
        let mut q = SlotQueue::new(2);
        let std = AdmissionClass::Standard;
        q.dispatch(0.0, std, None, |_| 5.0);
        // Keep slot 0 behind a launched slot 2 that is ready at t = 1; retire slot 1.
        q.reorder(&[2, 0], |_| 1.0);
        assert_eq!(q.ranked(), &[2, 0]);
        assert_eq!(q.clock(0), 5.0);
        assert_eq!(q.next_available_at(0.0, std), 1.0);
        let d = q.dispatch(0.5, std, None, |_| 1.0).unwrap();
        assert_eq!((d.slot, d.completion), (2, 2.0));
    }

    #[test]
    fn premium_overtakes_best_effort_and_capped_best_effort_drops() {
        let mut q = SlotQueue::new(1);
        q.enable_firm();
        let be = AdmissionClass::BestEffort;
        let d = q.dispatch(0.0, be, Some(0.5), |_| 4.0).unwrap();
        assert_eq!((d.completion, d.preempted), (4.0, false));
        // The best-effort backlog is invisible to premium, which preempts it.
        let d = q
            .dispatch(1.0, AdmissionClass::Premium, None, |_| 1.0)
            .unwrap();
        assert_eq!((d.completion, d.preempted), (2.0, true));
        assert_eq!(q.clock(0), 5.0);
        // A best-effort query would wait 4 s, over its 0.5 s cap.
        assert!(q.dispatch(1.0, be, Some(0.5), |_| 1.0).is_none());
        assert_eq!(q.clock(0), 5.0);
    }
}
