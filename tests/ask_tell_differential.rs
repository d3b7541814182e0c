//! Differential suite for the ask/tell search driver.
//!
//! Three families of pins:
//!
//! 1. **Literal batch-1 traces** — every strategy routed through the
//!    [`ribbon::search::SearchDriver`] at `batch = 1` must evaluate exactly the
//!    configurations pinned below, in order: RIBBON's BO engine and the RANDOM /
//!    Hill-Climb / RSM / exhaustive baselines on the 6×4×6 evaluator. The literals are
//!    the traces of the one-suggestion-at-a-time loops the driver replaced, captured
//!    while both still ran side by side and agreed bit for bit. TPE's seeded-random
//!    fallback is pinned against the BO engine's random initial phase.
//! 2. **Width invariance** — a baseline's trace is the same at every ask width, which is
//!    what lets the baselines ask [`DEFAULT_ASK_CHUNK`] candidates a round by default.
//! 3. **Successive-halving soundness** — a proptest that multi-fidelity promotion never
//!    discards a configuration that full-fidelity evaluation would have ranked best:
//!    every discarded estimate's true full-stream objective is at most the best full
//!    objective the trace kept.

use proptest::prelude::*;
use ribbon::evaluator::{ConfigEvaluator, EvaluatorSettings};
use ribbon::search::SearchTrace;
use ribbon::strategies::{
    ExhaustiveSearch, HillClimbSearch, RandomSearch, ResponseSurfaceSearch, SearchStrategy,
    TpeSearch, DEFAULT_ASK_CHUNK,
};
use ribbon::{RibbonSearch, RibbonSettings};
use ribbon_models::{ModelKind, Workload};
use std::sync::OnceLock;

fn build_small_evaluator() -> ConfigEvaluator {
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

/// A small MT-WND evaluator (800 queries, 6×4×6 lattice) shared by the deterministic
/// pin tests. Kept separate from the multi-fidelity proptests' instance so the
/// deterministic tests never contend with hundreds of concurrent proptest cases for the
/// simulation cache.
fn small_evaluator() -> &'static ConfigEvaluator {
    static EV: OnceLock<ConfigEvaluator> = OnceLock::new();
    EV.get_or_init(build_small_evaluator)
}

/// A second instance shared across the multi-fidelity proptest cases, so the simulation
/// caches amortize repeated configurations between cases.
fn fidelity_evaluator() -> &'static ConfigEvaluator {
    static EV: OnceLock<ConfigEvaluator> = OnceLock::new();
    EV.get_or_init(build_small_evaluator)
}

/// A pinned trace: the evaluated configurations, in order.
type Trace = &'static [[u32; 3]];

/// RANDOM and Hill-Climb at budget 40 on the 6×4×6 evaluator, by seed. RANDOM stops
/// short of the budget at seeds 0 and 5, where its dominance skip rule has ruled out
/// every remaining configuration; Hill-Climb's random restarts diverge after the
/// first local optimum. A smaller budget evaluates a prefix.
#[rustfmt::skip]
const SEEDED: [(u64, Trace, Trace); 3] = [
    (
        0,
        &[
            [5, 1, 0], [1, 0, 3], [0, 4, 5], [1, 1, 0], [3, 4, 1], [0, 0, 6], [1, 2, 6],
            [2, 4, 2], [4, 4, 5], [2, 2, 6], [4, 4, 3], [1, 4, 4], [5, 0, 1], [4, 3, 0],
            [4, 0, 1], [1, 4, 5], [0, 4, 6], [3, 2, 5], [2, 3, 3], [3, 3, 4], [3, 3, 5],
            [3, 2, 6], [3, 4, 3], [3, 4, 6], [5, 0, 0], [4, 1, 0], [4, 0, 0],
        ],
        &[
            [3, 2, 3], [4, 2, 3], [2, 2, 3], [3, 3, 3], [3, 1, 3], [3, 2, 4], [3, 2, 2],
            [4, 2, 2], [2, 2, 2], [3, 3, 2], [3, 1, 2], [3, 2, 1], [4, 1, 2], [2, 1, 2],
            [3, 0, 2], [3, 1, 1], [2, 3, 4], [3, 3, 4], [1, 3, 4], [2, 4, 4], [2, 2, 4],
            [2, 3, 5], [2, 3, 3], [0, 4, 2], [1, 4, 2], [0, 3, 2], [0, 4, 3], [0, 4, 1],
            [2, 4, 2], [1, 3, 2], [1, 4, 3], [1, 4, 1], [3, 4, 2], [2, 3, 2], [2, 4, 3],
            [2, 4, 1], [4, 4, 2], [3, 4, 3], [3, 4, 1], [5, 4, 2],
        ],
    ),
    (
        5,
        &[
            [6, 4, 0], [1, 2, 4], [5, 0, 0], [0, 1, 5], [4, 4, 6], [2, 0, 3], [2, 1, 6],
            [3, 3, 2], [3, 4, 0], [0, 4, 3], [4, 1, 6], [2, 2, 6], [4, 4, 4], [1, 3, 3],
            [3, 2, 4], [3, 3, 4], [3, 0, 6], [4, 4, 0], [4, 0, 0], [3, 4, 4], [4, 3, 0],
            [3, 1, 6], [1, 4, 5], [2, 3, 5], [3, 2, 5], [2, 4, 5], [0, 4, 6], [4, 0, 4],
            [1, 4, 6], [3, 4, 6], [4, 2, 3], [4, 1, 3], [4, 0, 1], [4, 1, 0],
        ],
        &[
            [3, 2, 3], [4, 2, 3], [2, 2, 3], [3, 3, 3], [3, 1, 3], [3, 2, 4], [3, 2, 2],
            [4, 2, 2], [2, 2, 2], [3, 3, 2], [3, 1, 2], [3, 2, 1], [4, 1, 2], [2, 1, 2],
            [3, 0, 2], [3, 1, 1], [4, 2, 0], [5, 2, 0], [3, 2, 0], [4, 3, 0], [4, 1, 0],
            [4, 2, 1], [2, 2, 0], [3, 3, 0], [3, 1, 0], [0, 1, 6], [1, 1, 6], [0, 2, 6],
            [0, 0, 6], [0, 1, 5], [2, 1, 6], [1, 2, 6], [1, 0, 6], [1, 1, 5], [3, 1, 6],
            [2, 2, 6], [2, 0, 6], [2, 1, 5], [4, 1, 6], [3, 2, 6],
        ],
    ),
    (
        9,
        &[
            [3, 0, 0], [6, 2, 4], [5, 4, 6], [3, 1, 0], [0, 4, 3], [5, 3, 3], [6, 4, 2],
            [4, 3, 3], [2, 2, 2], [1, 3, 6], [0, 4, 5], [3, 0, 1], [4, 0, 6], [5, 1, 3],
            [3, 0, 6], [4, 2, 1], [2, 2, 5], [3, 2, 3], [3, 2, 4], [1, 4, 0], [6, 0, 4],
            [6, 0, 1], [5, 0, 3], [3, 3, 6], [5, 2, 0], [5, 0, 2], [6, 1, 0], [4, 0, 1],
            [4, 0, 0], [6, 0, 0], [2, 4, 1], [2, 4, 5], [1, 4, 6], [3, 4, 1], [4, 2, 0],
            [5, 1, 0], [3, 4, 2], [3, 4, 5], [3, 4, 6], [4, 1, 0],
        ],
        &[
            [3, 2, 3], [4, 2, 3], [2, 2, 3], [3, 3, 3], [3, 1, 3], [3, 2, 4], [3, 2, 2],
            [4, 2, 2], [2, 2, 2], [3, 3, 2], [3, 1, 2], [3, 2, 1], [4, 1, 2], [2, 1, 2],
            [3, 0, 2], [3, 1, 1], [5, 1, 0], [6, 1, 0], [4, 1, 0], [5, 2, 0], [5, 0, 0],
            [5, 1, 1], [3, 1, 0], [4, 2, 0], [4, 0, 0], [4, 1, 1], [6, 4, 1], [5, 4, 1],
            [6, 3, 1], [6, 4, 2], [6, 4, 0], [4, 4, 1], [5, 3, 1], [5, 4, 2], [5, 4, 0],
            [3, 4, 1], [4, 3, 1], [4, 4, 2], [4, 4, 0], [3, 3, 1],
        ],
    ),
];

/// RSM at budget 40: the 14-point central-composite design, then the climb. RSM
/// ignores the seed.
#[rustfmt::skip]
const RSM: Trace = &[
    [3, 2, 3], [0, 2, 3], [6, 2, 3], [3, 0, 3], [3, 4, 3], [3, 2, 0], [3, 2, 6], [6, 0, 0],
    [0, 4, 0], [6, 4, 0], [0, 0, 6], [6, 0, 6], [0, 4, 6], [6, 4, 6], [4, 2, 0], [2, 2, 0],
    [3, 3, 0], [3, 1, 0], [3, 2, 1], [4, 3, 0], [2, 3, 0], [3, 4, 0], [3, 3, 1], [4, 3, 1],
    [2, 3, 1], [3, 4, 1], [3, 3, 2], [5, 2, 0], [4, 1, 0], [4, 2, 1], [5, 1, 0], [4, 0, 0],
    [4, 1, 1], [5, 1, 1], [3, 1, 1], [4, 0, 1], [4, 1, 2], [5, 0, 1], [3, 0, 1], [4, 0, 2],
];

/// The exhaustive search's first 40 configurations: the lattice in enumeration order.
#[rustfmt::skip]
const EXHAUSTIVE: Trace = &[
    [0, 0, 1], [0, 0, 2], [0, 0, 3], [0, 0, 4], [0, 0, 5], [0, 0, 6], [0, 1, 0], [0, 1, 1],
    [0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 1, 5], [0, 1, 6], [0, 2, 0], [0, 2, 1], [0, 2, 2],
    [0, 2, 3], [0, 2, 4], [0, 2, 5], [0, 2, 6], [0, 3, 0], [0, 3, 1], [0, 3, 2], [0, 3, 3],
    [0, 3, 4], [0, 3, 5], [0, 3, 6], [0, 4, 0], [0, 4, 1], [0, 4, 2], [0, 4, 3], [0, 4, 4],
    [0, 4, 5], [0, 4, 6], [1, 0, 0], [1, 0, 1], [1, 0, 2], [1, 0, 3], [1, 0, 4], [1, 0, 5],
];

/// RIBBON (coarse GP grid, budget 12) by seed.
#[rustfmt::skip]
const RIBBON: [(u64, Trace); 3] = [
    (1, &[
        [5, 3, 2], [1, 1, 6], [0, 3, 6], [6, 0, 0], [2, 0, 0], [5, 0, 0], [4, 2, 1],
        [4, 3, 0], [4, 0, 6], [4, 0, 4], [3, 4, 6], [4, 1, 3],
    ]),
    (7, &[
        [2, 3, 1], [1, 2, 2], [5, 1, 4], [5, 0, 4], [5, 0, 3], [5, 4, 0], [6, 0, 0],
        [4, 2, 0], [4, 0, 0], [3, 3, 0], [3, 2, 0], [4, 0, 5],
    ]),
    (42, &[
        [2, 0, 2], [2, 4, 0], [5, 3, 6], [4, 3, 6], [2, 4, 6], [6, 4, 0], [5, 4, 3],
        [6, 0, 6], [4, 1, 6], [0, 0, 6], [6, 1, 4], [6, 0, 0],
    ]),
];

/// RIBBON at seed 5, budget 10, starting from `[3, 2, 3]`.
#[rustfmt::skip]
const RIBBON_FROM_3_2_3: Trace = &[
    [3, 2, 3], [6, 4, 4], [2, 0, 2], [5, 3, 4], [3, 4, 5], [5, 4, 1], [6, 0, 6], [6, 2, 2],
    [6, 1, 4], [0, 4, 0],
];

/// The trace's configurations, in evaluation order.
fn configs(trace: &SearchTrace) -> Vec<[u32; 3]> {
    trace
        .evaluations()
        .iter()
        .map(|e| {
            e.config
                .as_slice()
                .try_into()
                .expect("three instance types")
        })
        .collect()
}

fn assert_pinned(trace: &SearchTrace, pin: &[[u32; 3]], label: &str) {
    assert_eq!(configs(trace), pin, "{label}: trace diverges from its pin");
    assert!(
        trace.estimates.is_empty(),
        "{label}: full-fidelity run produced estimates"
    );
    assert_eq!(
        trace.fidelity.prefix_evaluations, 0,
        "{label}: full-fidelity run spent prefix simulations"
    );
}

#[test]
fn ribbon_driver_at_batch_1_is_bit_identical_to_the_legacy_loop() {
    let ev = small_evaluator();
    for (seed, pin) in RIBBON {
        let search = RibbonSearch::new(RibbonSettings {
            max_evaluations: 12,
            ..RibbonSettings::fast()
        });
        let mut bo = search.make_optimizer(ev);
        let driver = search.run_with(ev, &mut bo, seed);
        assert_pinned(&driver, pin, &format!("RIBBON seed {seed}"));
    }
}

#[test]
fn ribbon_driver_matches_the_legacy_loop_with_a_start_config() {
    let ev = small_evaluator();
    let search = RibbonSearch::new(RibbonSettings {
        max_evaluations: 10,
        start_config: Some(vec![3, 2, 3]),
        ..RibbonSettings::fast()
    });
    let mut bo = search.make_optimizer(ev);
    let driver = search.run_with(ev, &mut bo, 5);
    assert_pinned(&driver, RIBBON_FROM_3_2_3, "RIBBON with start config");
}

/// TPE's seeded-random fallback (the phase before enough observations exist to fit the
/// Parzen densities) asks the same configurations as the BO engine's random initial
/// phase: pinning a TPE run that never leaves the fallback against a RIBBON run that
/// never leaves its initial phase compares both, evaluation for evaluation.
#[test]
fn tpe_random_fallback_is_bit_identical_to_the_legacy_initial_phase() {
    let ev = small_evaluator();
    for seed in [0u64, 3, 11] {
        let budget = 10;
        let mut tpe = TpeSearch::new(budget);
        tpe.settings.initial_samples = budget; // never leaves the random fallback
        let driver = tpe.run_search(ev, seed);

        let ribbon = RibbonSearch::new(RibbonSettings {
            max_evaluations: budget,
            initial_samples: budget, // never leaves the random initial phase
            ..RibbonSettings::fast()
        })
        .run(ev, seed);
        assert_eq!(
            driver.evaluations, ribbon.evaluations,
            "TPE fallback seed {seed}: diverges from the BO initial phase"
        );
        assert!(driver.estimates.is_empty());
    }
}

#[test]
fn baseline_adapters_at_batch_1_are_bit_identical_to_their_legacy_loops() {
    let ev = small_evaluator();
    for (seed, random, hill_climb) in SEEDED {
        for budget in [6usize, 14, 40] {
            let head = |pin: Trace| &pin[..budget.min(pin.len())];
            let label = |name: &str| format!("{name} seed {seed}/{budget}");
            let trace = RandomSearch::new(budget).with_batch(1).run_search(ev, seed);
            assert_pinned(&trace, head(random), &label("RANDOM"));
            let trace = HillClimbSearch::new(budget)
                .with_batch(1)
                .run_search(ev, seed);
            assert_pinned(&trace, head(hill_climb), &label("Hill-Climb"));
            let trace = ResponseSurfaceSearch::new(budget)
                .with_batch(1)
                .run_search(ev, seed);
            assert_pinned(&trace, head(RSM), &label("RSM"));
            let trace = ExhaustiveSearch::capped(budget)
                .with_batch(1)
                .run_search(ev, seed);
            assert_pinned(&trace, head(EXHAUSTIVE), &label("exhaustive"));
        }
    }
}

/// A baseline decides its next move only once everything it asked before has been told,
/// so its trace cannot depend on how many candidates a round asks for; RANDOM ends a
/// round before a candidate that an earlier member's outcome could rule out. The widths
/// run from one at a time to past the lattice size (the full exhaustive sweep is checked
/// at several widths by the adapters' unit tests).
#[test]
fn baseline_traces_do_not_depend_on_the_ask_width() {
    let ev = small_evaluator();
    let baselines = |budget: usize, width: usize| -> [Box<dyn SearchStrategy>; 4] {
        [
            Box::new(RandomSearch::new(budget).with_batch(width)),
            Box::new(HillClimbSearch::new(budget).with_batch(width)),
            Box::new(ResponseSurfaceSearch::new(budget).with_batch(width)),
            Box::new(ExhaustiveSearch::capped(budget).with_batch(width)),
        ]
    };
    for seed in [0u64, 5, 9, 17] {
        for budget in [6usize, 14, 40, 90] {
            let one_at_a_time = baselines(budget, 1).map(|s| s.run_search(ev, seed));
            for width in [2, 3, 4, 7, 16, 64, DEFAULT_ASK_CHUNK] {
                for (strategy, expected) in baselines(budget, width).iter().zip(&one_at_a_time) {
                    let trace = strategy.run_search(ev, seed);
                    assert_eq!(
                        trace.evaluations,
                        expected.evaluations,
                        "{} seed {seed}/{budget}: width {width} diverges from width 1",
                        strategy.name()
                    );
                }
            }
        }
    }
}

proptest! {

    /// Successive halving is sound: whatever the seed, batch size, fidelity fraction, and
    /// budget, no discarded candidate's true full-fidelity objective exceeds the best full
    /// objective the trace kept — the multi-fidelity stage can only drop provable losers.
    #[test]
    fn sh_never_discards_the_best(
        seed in 0u64..200,
        batch in 2usize..7,
        budget in 6usize..12,
        fidelity_pct in 10u32..80,
    ) {
        let ev = fidelity_evaluator();
        let trace = RibbonSearch::new(RibbonSettings {
            max_evaluations: budget,
            batch,
            fidelity: Some(f64::from(fidelity_pct) / 100.0),
            ..RibbonSettings::fast()
        })
        .run(ev, seed);
        prop_assert!(!trace.is_empty());
        prop_assert!(trace.len() <= budget);
        let best_full = trace
            .evaluations()
            .iter()
            .map(|e| e.objective)
            .fold(f64::NEG_INFINITY, f64::max);
        for est in &trace.estimates {
            let full = ev.evaluate(&est.config);
            prop_assert!(
                full.objective <= best_full,
                "discarded {:?} (full objective {}) beats the best kept ({best_full})",
                est.config,
                full.objective
            );
        }
    }

    /// The batched TPE strategy obeys the same soundness bound.
    #[test]
    fn sh_is_sound_under_tpe(seed in 0u64..100, batch in 2usize..6) {
        let ev = fidelity_evaluator();
        let trace = TpeSearch::new(10)
            .with_batch(batch)
            .with_fidelity(Some(0.25))
            .run_search(ev, seed);
        prop_assert!(!trace.is_empty());
        let best_full = trace
            .evaluations()
            .iter()
            .map(|e| e.objective)
            .fold(f64::NEG_INFINITY, f64::max);
        for est in &trace.estimates {
            let full = ev.evaluate(&est.config);
            prop_assert!(full.objective <= best_full);
        }
    }
}
