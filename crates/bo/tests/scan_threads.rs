//! The acquisition scan's worker pool must not change a result: `suggest` and a batched
//! `ask_batch` return the same candidates at every `scan_threads`, and those equal an
//! argmax over the per-point `GaussianProcess::predict` computed here.
//!
//! Bounds `[9, 9, 9, 9]` give 9,999 points: ten 1,024-point scan chunks, the last one
//! 783 points long, which is not a multiple of the eight-lane posterior batch.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ribbon_bo::optimizer::SuggestionSource;
use ribbon_bo::{Acquisition, BoOptimizer, BoSettings, ConfigLattice, Outcome};
use ribbon_gp::{FitConfig, IncrementalGridGp};

const BOUNDS: [u32; 4] = [9, 9, 9, 9];

fn objective(c: &[u32]) -> f64 {
    let target = [6.0, 2.0, 7.0, 4.0];
    1.0 - c
        .iter()
        .zip(target)
        .map(|(&v, t)| (v as f64 - t) * (v as f64 - t))
        .sum::<f64>()
        / 100.0
}

/// An optimizer past its random phase: the same seeded asks and tells at every thread
/// count, with one prune so the open set is not a contiguous run of ranks.
fn warmed_up(threads: usize) -> BoOptimizer {
    let mut bo = BoOptimizer::new(
        ConfigLattice::new(BOUNDS.to_vec()),
        BoSettings {
            scan_threads: Some(threads),
            ..BoSettings::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(11);
    for step in 0..7 {
        let config = bo.ask_batch(&mut rng, 1).unwrap().swap_remove(0);
        let value = objective(&config);
        bo.tell(Outcome::new(config.clone(), value).with_prunes(step == 2, false))
            .unwrap();
    }
    assert!(
        bo.open_candidates().len() < 9_999 - 7,
        "the prune closed points"
    );
    bo
}

/// Acquisition scores of every open candidate through per-point `predict`, on the
/// surrogate the optimizer fits (the same grid, the same observations).
fn oracle_scores(bo: &BoOptimizer) -> Vec<f64> {
    let obs = bo.observations();
    let x: Vec<Vec<f64>> = obs
        .iter()
        .map(|o| ConfigLattice::to_coords(&o.config))
        .collect();
    let y: Vec<f64> = obs.iter().map(|o| o.value).collect();
    let grid = IncrementalGridGp::fit(&x, &y, &FitConfig::default()).unwrap();
    let gp = grid.best().unwrap().gp;
    let incumbent = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    bo.open_candidates()
        .iter()
        .map(|&r| {
            let coords = ConfigLattice::to_coords(&bo.lattice().config_at(r));
            Acquisition::default().score(&gp.predict(&coords).unwrap(), incumbent)
        })
        .collect()
}

/// The first maximum, keeping the first strictly-better score (the scan's tie rule).
fn first_max(scores: &[f64]) -> (usize, f64) {
    let mut best: Option<(usize, f64)> = None;
    for (i, &s) in scores.iter().enumerate() {
        match best {
            Some((_, b)) if b >= s => {}
            _ => best = Some((i, s)),
        }
    }
    best.unwrap()
}

#[test]
fn suggest_is_thread_invariant_and_equals_the_per_point_argmax() {
    let oracle_bo = warmed_up(1);
    let scores = oracle_scores(&oracle_bo);
    let (idx, score) = first_max(&scores);
    let expected = oracle_bo
        .lattice()
        .config_at(oracle_bo.open_candidates()[idx]);
    for threads in [1, 2, 3] {
        let mut bo = warmed_up(threads);
        let s = bo.suggest(&mut StdRng::seed_from_u64(0)).unwrap();
        assert_eq!(s.config, expected, "{threads} scan threads");
        match s.source {
            SuggestionSource::Acquisition { score: got } => {
                assert_eq!(got.to_bits(), score.to_bits(), "{threads} scan threads")
            }
            other => panic!("expected an acquisition suggestion, got {other:?}"),
        }
    }
}

#[test]
fn batched_ask_is_thread_invariant_and_leads_with_the_per_point_argmax() {
    let oracle_bo = warmed_up(1);
    let scores = oracle_scores(&oracle_bo);
    // The batch's first pick maximizes the floor-shifted scores.
    let floor = scores.iter().copied().fold(f64::INFINITY, f64::min);
    let shifted: Vec<f64> = scores.iter().map(|s| s - floor).collect();
    let first = oracle_bo
        .lattice()
        .config_at(oracle_bo.open_candidates()[first_max(&shifted).0]);
    let batches: Vec<Vec<Vec<u32>>> = [1, 2, 3]
        .into_iter()
        .map(|threads| {
            let mut bo = warmed_up(threads);
            bo.ask_batch(&mut StdRng::seed_from_u64(0), 4).unwrap()
        })
        .collect();
    assert_eq!(batches[0].len(), 4);
    assert_eq!(batches[0][0], first);
    for (batch, threads) in batches.iter().zip([1, 2, 3]) {
        assert_eq!(batch, &batches[0], "{threads} scan threads");
    }
}
