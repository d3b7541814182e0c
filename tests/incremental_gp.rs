//! Pins for the incremental GP/BO hot path: the reused, rank-1-extended surrogate
//! ([`ribbon_gp::IncrementalGridGp`]) must reproduce the from-scratch grid refit exactly —
//! the same hyperparameter winners and posteriors as a fresh `fit_gp` (checked directly),
//! and the end-to-end search traces the from-scratch refit produced on the real evaluator
//! (pinned below as literals, with objective bits).

use proptest::prelude::*;
use ribbon::evaluator::{ConfigEvaluator, EvaluatorSettings};
use ribbon::search::SearchTrace;
use ribbon::{RibbonSearch, RibbonSettings};
use ribbon_gp::{fit_gp, FitConfig, IncrementalGridGp};
use ribbon_models::{ModelKind, Workload};

fn small_evaluator() -> ConfigEvaluator {
    let mut w = Workload::standard(ModelKind::MtWnd);
    w.num_queries = 800;
    ConfigEvaluator::new(
        &w,
        EvaluatorSettings {
            explicit_bounds: Some(vec![6, 4, 6]),
            ..Default::default()
        },
    )
}

/// An evaluated configuration with the bits of its Eq. 2 objective.
type Pinned = ([u32; 3], u64);

/// The coarse-grid searches (budget 15) by seed, as the from-scratch grid refit produced
/// them.
#[rustfmt::skip]
const COARSE_GRID: [(u64, &[Pinned]); 3] = [
    (
        1,
        &[
            ([5, 3, 2], 0x3fe452e77d04d39e), ([1, 1, 6], 0x3fdf8e38e38e38e3),
            ([0, 3, 6], 0x3fdf8e38e38e38e3), ([6, 0, 0], 0x3fe6aa8a5cefa09a),
            ([2, 0, 0], 0x3f85fad40a57eb51), ([5, 0, 0], 0x3fe838c8a2c7b081),
            ([4, 2, 1], 0x3fe75360a082395a), ([4, 3, 0], 0x3fe6c2c4a9372cc4),
            ([4, 0, 6], 0x3fe7222a3590e4a6), ([4, 0, 4], 0x3fe803c91beb2de6),
            ([3, 4, 6], 0x3fdfe0f83e0f83e1), ([4, 1, 3], 0x3fe7732d24a02150),
            ([0, 4, 2], 0x3fd471c71c71c71c), ([4, 0, 2], 0x3fe8e56802457727),
            ([3, 4, 0], 0x3fdff5a814afd6a1),
        ],
    ),
    (
        9,
        &[
            ([3, 0, 0], 0x3f9219dbcc486770), ([6, 3, 4], 0x3fe1e30a50d27a76),
            ([5, 3, 5], 0x3fe30079237d65be), ([6, 1, 6], 0x3fe304423f6893a4),
            ([1, 4, 6], 0x3fdfa2e8ba2e8ba3), ([3, 0, 6], 0x3fdfe0f83e0f83e1),
            ([4, 4, 6], 0x3fe31c7c8bb01fcc), ([6, 4, 0], 0x3fe2a4dcb30edbc1),
            ([4, 4, 3], 0x3fe46eeae5378dac), ([2, 4, 2], 0x3fdfcc48676f3122),
            ([5, 4, 2], 0x3fe3517c128ca266), ([6, 0, 4], 0x3fe4e74c903b0e1a),
            ([5, 0, 5], 0x3fe604bb62e5f960), ([4, 1, 4], 0x3fe7025db172fcb0),
            ([3, 2, 4], 0x3fdff5a814afd6a1),
        ],
    ),
    (
        23,
        &[
            ([6, 4, 0], 0x3fe2a4dcb30edbc1), ([0, 1, 5], 0x3fa07c1f07c1f07c),
            ([0, 3, 6], 0x3fdf8e38e38e38e3), ([6, 3, 0], 0x3fe3a6481d870cf7),
            ([4, 4, 6], 0x3fe31c7c8bb01fcc), ([6, 2, 3], 0x3fe355452e77d04d),
            ([6, 0, 0], 0x3fe6aa8a5cefa09a), ([4, 0, 0], 0x3fad6a052bf5a815),
            ([5, 3, 1], 0x3fe4c3b6f031f83e), ([5, 2, 2], 0x3fe55452e77d04d4),
            ([4, 3, 2], 0x3fe5e125c2dce384), ([3, 4, 3], 0x3fdfe0f83e0f83e1),
            ([5, 0, 6], 0x3fe593ebefb8d4c0), ([4, 2, 6], 0x3fe51f5360a0823a),
            ([0, 4, 0], 0x3fa0cede62433b7a),
        ],
    ),
];

/// The default-grid search (budget 10, seed 4), as the from-scratch refit produced it.
#[rustfmt::skip]
const DEFAULT_GRID_SEED_4: &[Pinned] = &[
    ([6, 4, 6], 0x3fe0000000000000), ([6, 3, 5], 0x3fe1723adda555d6),
    ([5, 0, 0], 0x3fe838c8a2c7b081), ([0, 1, 0], 0x3f74afd6a052bf5b),
    ([4, 0, 2], 0x3fe8e56802457727), ([3, 0, 6], 0x3fdfe0f83e0f83e1),
    ([4, 4, 1], 0x3fe55089cb91d6ed), ([4, 1, 1], 0x3fe854cc0afa6a90),
    ([0, 4, 6], 0x3fdfa2e8ba2e8ba3), ([3, 4, 4], 0x3fdfe0f83e0f83e1),
];

/// The trace's configurations with the bits of their objectives, in evaluation order.
fn with_objective_bits(trace: &SearchTrace) -> Vec<Pinned> {
    trace
        .evaluations()
        .iter()
        .map(|e| {
            let config = e
                .config
                .as_slice()
                .try_into()
                .expect("three instance types");
            (config, e.objective.to_bits())
        })
        .collect()
}

#[test]
fn incremental_and_full_refit_searches_produce_identical_traces() {
    for (seed, pin) in COARSE_GRID {
        let settings = RibbonSettings {
            max_evaluations: 15,
            fit: FitConfig::coarse(),
            ..RibbonSettings::fast()
        };
        let trace = RibbonSearch::new(settings).run(&small_evaluator(), seed);
        assert_eq!(
            with_objective_bits(&trace),
            pin,
            "seed {seed}: traces must be bit-identical"
        );
    }
}

#[test]
fn incremental_search_with_default_grid_matches_full_refit() {
    // The default (non-coarse) hyperparameter grid exercises many more cells, including
    // ones that fail to factorize at small n.
    let settings = RibbonSettings {
        max_evaluations: 10,
        fit: FitConfig::default(),
        ..RibbonSettings::default()
    };
    let trace = RibbonSearch::new(settings).run(&small_evaluator(), 4);
    assert_eq!(with_objective_bits(&trace), DEFAULT_GRID_SEED_4);
}

proptest! {

    /// Random observation histories: after every append, the incremental grid designates
    /// the same winner as a fresh `fit_gp` and its posterior agrees within 1e-9 (the
    /// implementation actually guarantees bit-identity; the tolerance is the spec floor).
    #[test]
    fn prop_incremental_grid_tracks_fit_gp(seed in 0u64..400, n in 3usize..14) {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| (next() * 6.0).round()).collect())
            .collect();
        let y: Vec<f64> = (0..n).map(|_| next()).collect();
        let cfg = FitConfig::coarse();

        let mut grid = IncrementalGridGp::fit(&x[..2], &y[..2], &cfg).unwrap();
        for i in 2..n {
            grid.append(x[i].clone(), y[i]).unwrap();
            let oracle = fit_gp(&x[..=i], &y[..=i], &cfg).unwrap();
            let best = grid.best().expect("winner");
            prop_assert_eq!(best.length_scale, oracle.length_scale);
            prop_assert_eq!(best.noise_variance, oracle.noise_variance);
            prop_assert_eq!(best.signal_variance, oracle.signal_variance);
            for q in [[0.0, 1.0, 2.0], [3.0, 3.0, 3.0], [6.0, 0.0, 5.0]] {
                let pi = best.gp.predict(&q).unwrap();
                let pf = oracle.gp.predict(&q).unwrap();
                prop_assert!((pi.mean - pf.mean).abs() <= 1e-9, "mean {} vs {}", pi.mean, pf.mean);
                prop_assert!(
                    (pi.variance - pf.variance).abs() <= 1e-9,
                    "variance {} vs {}", pi.variance, pf.variance
                );
            }
        }
    }
}
