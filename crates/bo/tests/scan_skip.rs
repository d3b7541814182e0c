//! The single-suggestion scan skips the posterior solve for points whose exact mean
//! cannot reach the best score its worker has seen. `suggest` must still return the
//! first maximum over the per-point `GaussianProcess::predict`, in configuration and in
//! score bits, for every acquisition function and at every `scan_threads`.
//!
//! Each case names the scan path it covers: the skip path runs when the surrogate has a
//! kernel table and the open set holds more points than the row-mean table, and the full
//! scan otherwise.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ribbon_bo::optimizer::SuggestionSource;
use ribbon_bo::{Acquisition, BoOptimizer, BoSettings, ConfigLattice, Outcome};
use ribbon_gp::{FitConfig, IncrementalGridGp};

const ACQUISITIONS: [Acquisition; 3] = [
    Acquisition::ExpectedImprovement { xi: 0.01 },
    Acquisition::ProbabilityOfImprovement { xi: 0.0 },
    Acquisition::UpperConfidenceBound { kappa: 2.0 },
];

struct Case {
    name: &'static str,
    bounds: &'static [u32],
    /// Evaluations before the compared suggestion.
    steps: usize,
    /// Seed of the asks and the prunes.
    seed: u64,
    /// Whether the compared scan takes the skip path.
    skips: bool,
}

const CASES: [Case; 6] = [
    // At this seed the probability of improvement peaks where the mean is above the
    // incumbent and the variance below the prior's: scoring the cutoff at the prior
    // variance alone would skip the maximum.
    Case {
        name: "five types",
        bounds: &[9, 9, 9, 9, 9],
        steps: 9,
        seed: 3,
        skips: true,
    },
    Case {
        name: "six types, long last row",
        bounds: &[3, 3, 3, 3, 3, 9],
        steps: 9,
        seed: 17,
        skips: true,
    },
    Case {
        name: "zero last bound",
        bounds: &[4, 4, 4, 4, 4, 0],
        steps: 8,
        seed: 17,
        skips: true,
    },
    Case {
        name: "one dimension",
        bounds: &[200],
        steps: 7,
        seed: 17,
        skips: false,
    },
    Case {
        name: "no kernel table",
        bounds: &[2, 256],
        steps: 7,
        seed: 17,
        skips: false,
    },
    Case {
        name: "open set smaller than the row table",
        bounds: &[5, 5, 5],
        steps: 7,
        seed: 17,
        skips: false,
    },
];

/// A smooth bump peaking at three quarters of every bound.
fn objective(c: &[u32], bounds: &[u32]) -> f64 {
    1.0 - c
        .iter()
        .zip(bounds)
        .map(|(&v, &b)| {
            let d = (v as f64 - 0.75 * b as f64) / (b as f64 + 1.0);
            d * d
        })
        .sum::<f64>()
}

fn settings(acquisition: Acquisition, threads: usize) -> BoSettings {
    BoSettings {
        acquisition,
        scan_threads: Some(threads),
        fit: FitConfig::coarse(),
        ..BoSettings::default()
    }
}

/// An optimizer after `case.steps` seeded asks and tells, with prunes drawn from the seed
/// so the open set is not a contiguous run of ranks. Returns it with its asks.
fn warmed_up(
    case: &Case,
    acquisition: Acquisition,
    threads: usize,
    seed: u64,
) -> (BoOptimizer, Vec<Vec<u32>>) {
    let mut bo = BoOptimizer::new(
        ConfigLattice::new(case.bounds.to_vec()),
        settings(acquisition, threads),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draws = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut draw = move |n: u32| {
        draws ^= draws << 13;
        draws ^= draws >> 7;
        draws ^= draws << 17;
        (draws % u64::from(n)) as u32
    };
    let mut trace = Vec::new();
    for _ in 0..case.steps {
        let config = bo.ask_batch(&mut rng, 1).unwrap().swap_remove(0);
        let value = objective(&config, case.bounds);
        bo.tell(Outcome::new(config.clone(), value)).unwrap();
        trace.push(config);
        // Boxes below the lower half or above the upper half of every bound, so the
        // open set stays large.
        if draw(3) == 0 {
            bo.prune_below(case.bounds.iter().map(|&b| draw(b / 2 + 1)).collect());
        }
        if draw(3) == 0 {
            bo.prune_above(case.bounds.iter().map(|&b| b - draw(b / 2 + 1)).collect());
        }
    }
    (bo, trace)
}

/// The first maximum over per-point `predict` scores (the scan's tie rule: keep the first
/// strictly-better score), on the surrogate the optimizer fits, and whether the scan over
/// this open set takes the skip path.
fn oracle(bo: &BoOptimizer, acquisition: Acquisition) -> (Vec<u32>, f64, bool) {
    let obs = bo.observations();
    let x: Vec<Vec<f64>> = obs
        .iter()
        .map(|o| ConfigLattice::to_coords(&o.config))
        .collect();
    let y: Vec<f64> = obs.iter().map(|o| o.value).collect();
    let grid = IncrementalGridGp::fit(&x, &y, &FitConfig::coarse()).unwrap();
    let gp = grid.best().unwrap().gp;
    let incumbent = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut best: Option<(u32, f64)> = None;
    for &rank in bo.open_candidates() {
        let coords = ConfigLattice::to_coords(&bo.lattice().config_at(rank));
        let score = acquisition.score(&gp.predict(&coords).unwrap(), incumbent);
        match best {
            Some((_, b)) if b >= score => {}
            _ => best = Some((rank, score)),
        }
    }
    let (rank, score) = best.unwrap();
    let max_sq_dist: u64 = bo
        .lattice()
        .bounds()
        .iter()
        .map(|&b| u64::from(b) * u64::from(b))
        .sum();
    // The optimizer builds kernel tables below 2^16 entries.
    let skips = max_sq_dist < 1 << 16
        && gp
            .kernel_table(max_sq_dist as usize)
            .and_then(|t| gp.row_means(&t, bo.lattice().bounds(), bo.open_candidates().len() - 1))
            .is_some();
    (bo.lattice().config_at(rank), score, skips)
}

#[test]
fn suggest_equals_the_per_point_first_maximum_on_every_path() {
    for case in &CASES {
        for acquisition in ACQUISITIONS {
            let (reference, trace) = warmed_up(case, acquisition, 1, case.seed);
            let (config, score, skips) = oracle(&reference, acquisition);
            let what = format!("{} ({acquisition:?})", case.name);
            assert_eq!(skips, case.skips, "{what}: scan path");
            for threads in [1, 2, 3] {
                let (mut bo, warm_trace) = warmed_up(case, acquisition, threads, case.seed);
                assert_eq!(warm_trace, trace, "{what}, {threads} threads: warm-up");
                let s = bo.suggest(&mut StdRng::seed_from_u64(0)).unwrap();
                assert_eq!(s.config, config, "{what}, {threads} threads");
                match s.source {
                    SuggestionSource::Acquisition { score: got } => {
                        assert_eq!(got.to_bits(), score.to_bits(), "{what}, {threads} threads")
                    }
                    other => panic!("{what}: expected an acquisition suggestion, got {other:?}"),
                }
            }
        }
    }
}
