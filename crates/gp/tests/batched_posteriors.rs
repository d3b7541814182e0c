//! Differential tests of the batched posterior path: `GaussianProcess::predict_many`
//! (eight lanes per pass, kernel values from the integer-distance table when it
//! engages) must return, bit for bit, the posterior the per-point `predict` returns, and
//! `RowCursor::means` the mean `predict_many` returns.

use ribbon_gp::{
    FitConfig, GaussianProcess, GpConfig, GpError, Kernel, Matern52, Posterior, Rounded,
    PREDICT_LANES,
};

/// A small deterministic generator (64-bit LCG, high bits).
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn unit(&mut self) -> f64 {
        self.next_u64() as f64 / (1u64 << 53) as f64
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

fn bits(p: &Posterior) -> (u64, u64) {
    (p.mean.to_bits(), p.variance.to_bits())
}

/// Asserts `predict_many` over `queries` equals per-point `predict`, bit for bit, with
/// and without `table_max` (a kernel table covering that squared distance).
fn assert_batch_matches<K: Kernel>(
    gp: &GaussianProcess<K>,
    queries: &[Vec<f64>],
    table_max: usize,
    expect_table: bool,
    what: &str,
) {
    let table = gp.kernel_table(table_max);
    assert_eq!(table.is_some(), expect_table, "{what}: table engagement");
    let flat: Vec<f64> = queries.iter().flatten().copied().collect();
    let oracle: Vec<Posterior> = queries.iter().map(|q| gp.predict(q).unwrap()).collect();
    for t in [table.as_ref(), None] {
        let mut out = vec![
            Posterior {
                mean: f64::NAN,
                variance: f64::NAN,
            };
            queries.len()
        ];
        gp.predict_many(&flat, t, &mut out).unwrap();
        for (j, (got, want)) in out.iter().zip(&oracle).enumerate() {
            assert_eq!(
                bits(got),
                bits(want),
                "{what}: point {j} {:?} (table {}): {got:?} vs {want:?}",
                queries[j],
                t.is_some()
            );
        }
    }
}

fn random_point(rng: &mut Lcg, dims: usize, top: u64) -> Vec<f64> {
    (0..dims).map(|_| rng.below(top + 1) as f64).collect()
}

#[test]
fn batched_posteriors_equal_per_point_predict_on_random_gps() {
    let grid = FitConfig::default();
    let mut rng = Lcg(20_260_418);
    for case in 0..160 {
        let dims = 1 + case % 8;
        let n = 1 + rng.below(40) as usize;
        // Batches from one lane to several passes, tails rarely a multiple of the width.
        let m = 1 + rng.below(5 * PREDICT_LANES as u64 + 3) as usize;
        let top = 1 + rng.below(9);
        let x: Vec<Vec<f64>> = (0..n).map(|_| random_point(&mut rng, dims, top)).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
        let kernel = Rounded::new(Matern52::new(
            rng.pick(&grid.signal_variances),
            rng.pick(&grid.length_scales),
        ));
        let config = GpConfig {
            noise_variance: rng.pick(&grid.noise_variances),
            ..GpConfig::default()
        };
        let gp = GaussianProcess::fit(kernel, x, y, config).unwrap();
        let queries: Vec<Vec<f64>> = (0..m).map(|_| random_point(&mut rng, dims, top)).collect();
        let max_sq_dist = dims * (top * top) as usize;
        let what = format!("case {case}: d {dims}, n {n}, m {m}");
        assert_batch_matches(&gp, &queries, max_sq_dist, true, &what);
        // A table too small for some distances: those lanes evaluate the kernel instead.
        assert_batch_matches(&gp, &queries, max_sq_dist / 3, true, &what);
    }
}

#[test]
fn row_means_equal_predict_many_means() {
    let grid = FitConfig::default();
    let mut rng = Lcg(20_261_018);
    for case in 0..160 {
        let dims = 1 + case % 8;
        let n = 1 + rng.below(40) as usize;
        // Prefix coordinates up to 7 and rows of every length from 1 to 24 points, so
        // rows take one, two or three register passes.
        let mut bounds: Vec<u32> = (0..dims).map(|_| rng.below(8) as u32).collect();
        bounds[dims - 1] = rng.below(24) as u32;
        let inside = |rng: &mut Lcg| -> Vec<f64> {
            bounds
                .iter()
                .map(|&b| rng.below(u64::from(b) + 1) as f64)
                .collect()
        };
        let mut x: Vec<Vec<f64>> = (0..n).map(|_| inside(&mut rng)).collect();
        // Every third case: zero noise and duplicated inputs, so the factor is jittered.
        let jittered = case % 3 == 0;
        if jittered {
            x.extend(x.clone());
        }
        let y: Vec<f64> = (0..x.len()).map(|_| rng.unit()).collect();
        let kernel = Rounded::new(Matern52::new(
            rng.pick(&grid.signal_variances),
            rng.pick(&grid.length_scales),
        ));
        let config = GpConfig {
            noise_variance: if jittered {
                0.0
            } else {
                rng.pick(&grid.noise_variances)
            },
            ..GpConfig::default()
        };
        let gp = GaussianProcess::fit(kernel, x, y, config).unwrap();
        let max_sq_dist: usize = bounds.iter().map(|&b| (b * b) as usize).sum();
        let table = gp.kernel_table(max_sq_dist).unwrap();
        let rows = gp.row_means(&table, &bounds, usize::MAX).unwrap();
        // One cursor for every row of the case: each row changes it from its own first
        // differing coordinate on.
        let mut cursor = rows.cursor();
        let (last, prefix_bounds) = bounds.split_last().unwrap();
        for _ in 0..6 {
            let prefix: Vec<u32> = prefix_bounds
                .iter()
                .map(|&b| rng.below(u64::from(b) + 1) as u32)
                .collect();
            // An ascending subset of the row, with gaps: never empty.
            let mut lasts: Vec<u32> = (0..=*last).filter(|_| rng.below(3) > 0).collect();
            if lasts.is_empty() {
                lasts.push(rng.below(u64::from(*last) + 1) as u32);
            }
            let mut means = vec![f64::NAN; lasts.len()];
            cursor.means(&prefix, &lasts, &mut means);
            let coords: Vec<f64> = lasts
                .iter()
                .flat_map(|&v| prefix.iter().copied().chain([v]).map(f64::from))
                .collect();
            let mut posts = vec![
                Posterior {
                    mean: f64::NAN,
                    variance: f64::NAN,
                };
                lasts.len()
            ];
            gp.predict_many(&coords, Some(&table), &mut posts).unwrap();
            for ((m, p), v) in means.iter().zip(&posts).zip(&lasts) {
                assert_eq!(
                    m.to_bits(),
                    p.mean.to_bits(),
                    "case {case}: bounds {bounds:?}, n {n}, point {prefix:?} + {v}: {m} vs {}",
                    p.mean
                );
            }
        }
    }
}

#[test]
fn row_means_refuse_what_they_cannot_index() {
    let x = vec![vec![1.0, 2.0], vec![3.0, 0.0], vec![0.0, 4.0]];
    let gp = GaussianProcess::fit(
        Rounded::new(Matern52::new(1.0, 2.0)),
        x,
        vec![0.1, 0.5, 0.3],
        GpConfig::default(),
    )
    .unwrap();
    let bounds = [3, 4];
    let table = gp.kernel_table(9 + 16).unwrap();
    // Three training points × (9 + 1) prefix distances × 5 last coordinates.
    assert!(gp.row_means(&table, &bounds, 150).is_some(), "at the cap");
    assert!(gp.row_means(&table, &bounds, 149).is_none(), "over the cap");
    let short = gp.kernel_table(24).unwrap();
    assert!(
        gp.row_means(&short, &bounds, usize::MAX).is_none(),
        "short table"
    );
    assert!(
        gp.row_means(&table, &[2, 4], usize::MAX).is_none(),
        "point outside"
    );
    assert!(
        gp.row_means(&table, &[3], usize::MAX).is_none(),
        "wrong dimension"
    );
}

#[test]
fn rounded_queries_off_the_lattice_match_predict() {
    // The rounding kernel prepares non-integer queries to integers, so the table still
    // engages on them.
    let mut rng = Lcg(7);
    let dims = 3;
    let x: Vec<Vec<f64>> = (0..12).map(|_| random_point(&mut rng, dims, 6)).collect();
    let y: Vec<f64> = (0..12).map(|_| rng.unit()).collect();
    let gp = GaussianProcess::fit(
        Rounded::new(Matern52::new(0.25, 2.0)),
        x,
        y,
        GpConfig::default(),
    )
    .unwrap();
    let queries: Vec<Vec<f64>> = (0..21)
        .map(|_| (0..dims).map(|_| rng.unit() * 7.0 - 0.5).collect())
        .collect();
    assert_batch_matches(&gp, &queries, 3 * 64, true, "rounded, off-lattice");
}

#[test]
fn jittered_factors_match_predict() {
    // Zero noise and duplicate inputs make the kernel matrix singular, so the factor
    // carries diagonal jitter.
    let mut rng = Lcg(99);
    for dims in [1, 4, 6] {
        let mut x: Vec<Vec<f64>> = (0..9).map(|_| random_point(&mut rng, dims, 4)).collect();
        x.extend(x.clone());
        let y: Vec<f64> = (0..x.len()).map(|i| (i % 9) as f64 * 0.1).collect();
        let gp = GaussianProcess::fit(
            Rounded::new(Matern52::new(0.5, 1.0)),
            x,
            y,
            GpConfig {
                noise_variance: 0.0,
                ..GpConfig::default()
            },
        )
        .unwrap();
        let queries: Vec<Vec<f64>> = (0..19).map(|_| random_point(&mut rng, dims, 4)).collect();
        assert_batch_matches(
            &gp,
            &queries,
            dims * 16,
            true,
            &format!("jittered, d {dims}"),
        );
    }
}

#[test]
fn unrounded_kernel_on_non_integer_inputs_never_uses_the_table() {
    let mut rng = Lcg(3);
    let dims = 2;
    let x: Vec<Vec<f64>> = (0..10)
        .map(|_| (0..dims).map(|_| rng.unit() * 5.0).collect())
        .collect();
    let y: Vec<f64> = (0..10).map(|_| rng.unit()).collect();
    let gp = GaussianProcess::fit(Matern52::new(1.0, 1.5), x, y, GpConfig::default()).unwrap();
    let queries: Vec<Vec<f64>> = (0..13)
        .map(|_| (0..dims).map(|_| rng.unit() * 5.0).collect())
        .collect();
    assert_batch_matches(&gp, &queries, 50, false, "unrounded, non-integer training");

    // Integer training inputs build a table, but passes with a non-integer query must
    // evaluate the kernel: mix integer and non-integer queries across the lanes.
    let x: Vec<Vec<f64>> = (0..10).map(|_| random_point(&mut rng, dims, 5)).collect();
    let y: Vec<f64> = (0..10).map(|_| rng.unit()).collect();
    let gp = GaussianProcess::fit(Matern52::new(1.0, 1.5), x, y, GpConfig::default()).unwrap();
    let queries: Vec<Vec<f64>> = (0..27)
        .map(|i| {
            let p = random_point(&mut rng, dims, 5);
            if i % 5 == 0 {
                p.iter().map(|v| v + 0.25).collect()
            } else {
                p
            }
        })
        .collect();
    assert_batch_matches(&gp, &queries, 50, true, "unrounded, mixed queries");
}

#[test]
fn kernel_table_equals_eval_prepared_for_every_default_grid_cell() {
    let grid = FitConfig::default();
    // The hot-path lattice's largest squared distance: six types, bound 10.
    let max_sq_dist = 6 * 10 * 10;
    // Every non-negative integer is a sum of four squares (Lagrange).
    let mut offsets: Vec<Option<[f64; 4]>> = vec![None; max_sq_dist + 1];
    for a in 0..=24u32 {
        for b in 0..=a {
            for c in 0..=b {
                for d in 0..=c {
                    let d2 = (a * a + b * b + c * c + d * d) as usize;
                    if d2 <= max_sq_dist && offsets[d2].is_none() {
                        offsets[d2] = Some([a, b, c, d].map(f64::from));
                    }
                }
            }
        }
    }
    let base = [3.0, 0.0, 7.0, 1.0];
    for &length_scale in &grid.length_scales {
        for &variance in &grid.signal_variances {
            let kernel = Rounded::new(Matern52::new(variance, length_scale));
            let table = kernel
                .sq_dist_table(max_sq_dist)
                .expect("Matérn has a table");
            assert_eq!(table.len(), max_sq_dist + 1);
            for (d2, off) in offsets.iter().enumerate() {
                let off = off.expect("four-square decomposition");
                let a = kernel.prepare(&base);
                let b = kernel.prepare(&[
                    base[0] + off[0],
                    base[1] - off[1],
                    base[2] - off[2],
                    base[3] + off[3],
                ]);
                assert_eq!(
                    table[d2].to_bits(),
                    kernel.eval_prepared(&a, &b).to_bits(),
                    "ℓ {length_scale}, σ² {variance}, d² {d2}"
                );
            }
        }
    }
}

#[test]
fn prepare_in_place_equals_prepare() {
    let points = [
        vec![0.0, -0.0, 2.5, -2.5, 3.49, 1e17, -7.0],
        vec![0.5, 1.5, -0.5, 4503599627370495.5, f64::INFINITY, 6.0, 1.0],
    ];
    let kernels: Vec<Box<dyn Kernel>> = vec![
        Box::new(Matern52::new(1.0, 2.0)),
        Box::new(Rounded::new(Matern52::new(1.0, 2.0))),
        Box::new(Rounded::new(Rounded::new(Matern52::default_unit()))),
    ];
    for k in &kernels {
        for p in &points {
            let mut in_place = p.clone();
            k.prepare_in_place(&mut in_place);
            let want: Vec<u64> = k.prepare(p).iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = in_place.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{} on {p:?}", k.name());
        }
    }
}

#[test]
fn predict_many_rejects_a_ragged_coordinate_buffer() {
    let gp = GaussianProcess::fit(
        Matern52::default_unit(),
        vec![vec![1.0, 2.0]],
        vec![0.5],
        GpConfig::default(),
    )
    .unwrap();
    let mut out = [Posterior {
        mean: 0.0,
        variance: 0.0,
    }; 2];
    assert!(matches!(
        gp.predict_many(&[1.0, 2.0, 3.0], None, &mut out),
        Err(GpError::QueryDimensionMismatch { .. })
    ));
}
