//! Differential property test of tiered streaming dispatch.
//!
//! Random three-tier streams (premium, standard and a capped best-effort tier) with one
//! mid-stream reconfiguration are served by [`StreamingSim`] and by a brute-force oracle
//! kept in this file, which scans every slot on every query. Each query's outcome
//! (admission drop, or served slot, latency and preemption flag) must match bit for bit.

use proptest::prelude::*;
use ribbon_cloudsim::dist::{ArrivalProcess, BatchDistribution};
use ribbon_cloudsim::latency::FnLatencyModel;
use ribbon_cloudsim::{
    AdmissionClass, InstanceType, LatencyModel, PoolSpec, Query, StreamConfig, StreamingSim,
    StreamingSimConfig, TierPush, TierSet, TierSpec, WindowConfig, ALL_INSTANCE_TYPES,
};

/// One instance slot of the oracle over its whole lifetime.
struct OracleSlot {
    ty: InstanceType,
    /// Dispatch preference (lower serves first on equal start times).
    rank: usize,
    /// Completion time of everything queued on the slot.
    full: f64,
    /// Completion time of the slot's premium and standard work only.
    firm: f64,
    retired: bool,
}

/// Brute-force tiered FCFS dispatch: a full scan over every slot per query.
struct Oracle<'a, M: LatencyModel> {
    model: &'a M,
    set: TierSet,
    spin_up_factor: f64,
    slots: Vec<OracleSlot>,
    clock: f64,
}

impl<'a, M: LatencyModel> Oracle<'a, M> {
    fn new(pool: &PoolSpec, model: &'a M, set: TierSet, spin_up_factor: f64) -> Self {
        let slots = pool
            .expand()
            .into_iter()
            .enumerate()
            .map(|(rank, ty)| OracleSlot {
                ty,
                rank,
                full: 0.0,
                firm: 0.0,
                retired: false,
            })
            .collect();
        Oracle {
            model,
            set,
            spin_up_factor,
            slots,
            clock: 0.0,
        }
    }

    /// Serves one query; `None` when it is dropped at admission, otherwise
    /// `(slot, latency, preempted)`.
    fn push(&mut self, q: &Query, tier: u32) -> Option<(usize, f64, bool)> {
        let spec = &self.set.tiers()[tier as usize];
        let premium = spec.class == AdmissionClass::Premium;
        // Minimise (start, rank): premium waits on the firm clock, every other class
        // on the full clock.
        let mut best: Option<(f64, usize, usize)> = None;
        for (i, s) in self.slots.iter().enumerate() {
            if s.retired {
                continue;
            }
            let start = if premium { s.firm } else { s.full }.max(q.arrival);
            let better = best.is_none_or(|(bs, br, _)| start < bs || (start == bs && s.rank < br));
            if better {
                best = Some((start, s.rank, i));
            }
        }
        let (start, _, i) = best.expect("the pool has an active slot");
        self.clock = q.arrival;
        let over_cap = spec
            .admission_cap_s
            .is_some_and(|cap| start - q.arrival > cap);
        if spec.class == AdmissionClass::BestEffort && over_cap {
            return None;
        }
        let s = &mut self.slots[i];
        let service = self.model.service_time(s.ty, q.batch_size).max(0.0);
        let completion = start + service;
        let preempted = premium && start < s.full;
        s.full = if preempted {
            s.full + service
        } else {
            completion
        };
        if spec.class != AdmissionClass::BestEffort {
            s.firm = completion;
        }
        Some((i, completion - q.arrival, preempted))
    }

    /// Replaces the pool: per type, the best-ranked active slots survive and the rest
    /// retire; missing slots launch at `at + spin-up`; ranks follow the new pool order.
    fn reconfigure(&mut self, pool: &PoolSpec, at_s: f64) {
        let at = at_s.max(self.clock);
        let mut active: Vec<usize> = (0..self.slots.len())
            .filter(|&i| !self.slots[i].retired)
            .collect();
        active.sort_by_key(|&i| self.slots[i].rank);
        let mut order = Vec::new();
        for (&ty, &count) in pool.types.iter().zip(&pool.counts) {
            let of_type: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&i| self.slots[i].ty == ty)
                .collect();
            let keep = of_type.len().min(count as usize);
            order.extend_from_slice(&of_type[..keep]);
            for _ in keep..count as usize {
                let ready = at + ty.spin_up_s() * self.spin_up_factor;
                self.slots.push(OracleSlot {
                    ty,
                    rank: 0,
                    full: ready,
                    firm: ready,
                    retired: false,
                });
                order.push(self.slots.len() - 1);
            }
        }
        for i in active {
            if !order.contains(&i) {
                self.slots[i].retired = true;
            }
        }
        for (rank, &i) in order.iter().enumerate() {
            self.slots[i].rank = rank;
        }
    }
}

/// SplitMix64 finaliser: a stateless hash that draws each query's tier.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A pool over three catalog types picked by `rotation`, with at least one instance.
fn pool(rotation: usize, counts: [u32; 3]) -> PoolSpec {
    let types: Vec<InstanceType> = (0..3)
        .map(|i| ALL_INSTANCE_TYPES[(rotation + 3 * i) % ALL_INSTANCE_TYPES.len()])
        .collect();
    let mut counts = counts.to_vec();
    if counts.iter().all(|&c| c == 0) {
        counts[0] = 1;
    }
    PoolSpec::from_counts(&types, &counts)
}

proptest! {
    #[test]
    fn prop_tiered_streaming_matches_the_scan_oracle(
        rotation in 0usize..8,
        c0 in 0u32..4,
        c1 in 0u32..4,
        c2 in 0u32..4,
        new_rotation in 0usize..8,
        n0 in 0u32..4,
        n1 in 0u32..4,
        n2 in 0u32..4,
        qps in 100.0f64..900.0,
        n in 200usize..900,
        cut in 0.1f64..0.9,
        premium_share in 0.1f64..0.4,
        standard_share in 0.1f64..0.4,
        cap_s in 0.001f64..0.05,
        spin_up_factor in 0.0f64..0.2,
        seed in 0u64..1024,
    ) {
        let model = FnLatencyModel::new("mixed", |ty, b| {
            if ty == InstanceType::G4dn {
                0.004 + 4e-5 * b as f64
            } else {
                0.004 + 45e-5 * b as f64
            }
        });
        let mut best_effort = TierSpec::new(
            "batch",
            AdmissionClass::BestEffort,
            0.0,
            1.0 - premium_share - standard_share,
        );
        best_effort.admission_cap_s = Some(cap_s);
        let set = TierSet::try_new(vec![
            TierSpec::new("premium", AdmissionClass::Premium, 3.0, premium_share),
            TierSpec::new("standard", AdmissionClass::Standard, 1.0, standard_share),
            best_effort,
        ])
        .unwrap();
        let initial = pool(rotation, [c0, c1, c2]);
        let replacement = pool(new_rotation, [n0, n1, n2]);
        let queries = StreamConfig {
            arrivals: ArrivalProcess::Poisson { qps },
            batches: BatchDistribution::default_heavy_tail(32.0, 256),
            num_queries: n,
            seed,
        }
        .generate();
        let reconfigure_at = (n as f64 * cut) as usize;

        let mut config = StreamingSimConfig::new(0.020, 99.0, WindowConfig::tumbling(0.5));
        config.spin_up_factor = spin_up_factor;
        let mut sim = StreamingSim::new(&initial, &model, config);
        sim.enable_tiers(set.clone());
        let mut oracle = Oracle::new(&initial, &model, set, spin_up_factor);
        let mut closed = Vec::new();
        let (mut drops, mut preemptions) = (0u64, 0u64);
        for (k, q) in queries.iter().enumerate() {
            if k == reconfigure_at {
                sim.reconfigure(&replacement, q.arrival);
                oracle.reconfigure(&replacement, q.arrival);
            }
            let u = mix(seed.wrapping_mul(1 << 20) ^ k as u64) as f64 / u64::MAX as f64;
            let tier = if u < premium_share {
                0
            } else if u < premium_share + standard_share {
                1
            } else {
                2
            };
            let got = sim.push_tiered_into(q, tier, &mut closed);
            match (got, oracle.push(q, tier)) {
                (TierPush::Dropped, None) => drops += 1,
                (TierPush::Served { preempted }, Some((slot, latency, oracle_preempted))) => {
                    prop_assert_eq!(preempted, oracle_preempted, "query {}", k);
                    prop_assert_eq!(sim.assigned_slots().last(), Some(&slot), "query {}", k);
                    let served = sim.latencies().last().map(|l| l.to_bits());
                    prop_assert_eq!(served, Some(latency.to_bits()), "query {}", k);
                    preemptions += u64::from(preempted);
                }
                (got, want) => panic!("query {k}: streaming {got:?} vs oracle {want:?}"),
            }
        }
        let totals = sim.tier_totals();
        prop_assert_eq!(totals.iter().map(|t| t.admission_drops).sum::<u64>(), drops);
        prop_assert_eq!(totals.iter().map(|t| t.preemptions).sum::<u64>(), preemptions);
    }
}
