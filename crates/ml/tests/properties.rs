//! Property-based tests of the ML substrate: each property checks inputs
//! drawn from a fixed-seed generator (no shrinking).

use lumos5g_ml::metrics::{mae, rmse, weighted_f1, ClassificationReport};
use lumos5g_ml::tree::{RegressionTree, TreeConfig};
use lumos5g_ml::{GbdtConfig, GbdtRegressor, HarmonicMeanPredictor, KnnRegressor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn rmse_dominates_mae() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..50);
        let t: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e4..1e4)).collect();
        let p: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e4..1e4)).collect();
        assert!(rmse(&t, &p) + 1e-9 >= mae(&t, &p), "t={t:?} p={p:?}");
    }
}

#[test]
fn f1_is_bounded() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let n = rng.gen_range(2usize..60);
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3)).collect();
        let preds: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3)).collect();
        let f1 = weighted_f1(&labels, &preds, 3);
        assert!(
            (0.0..=1.0 + 1e-12).contains(&f1),
            "f1={f1} labels={labels:?} preds={preds:?}"
        );
    }
}

#[test]
fn accuracy_one_iff_identical() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let labels: Vec<usize> = (0..rng.gen_range(2..40))
            .map(|_| rng.gen_range(0..3))
            .collect();
        let r = ClassificationReport::from_labels(&labels, &labels, 3);
        assert!((r.accuracy - 1.0).abs() < 1e-12, "labels={labels:?}");
    }
}

#[test]
fn tree_prediction_within_target_range() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let ys: Vec<f64> = (0..rng.gen_range(4..60))
            .map(|_| rng.gen_range(-1e3..1e3))
            .collect();
        let probe = rng.gen_range(-2e3..2e3);
        let xs: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
        let t = RegressionTree::fit(&xs, &ys, &TreeConfig::default());
        let p = t.predict_row(&[probe]);
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Leaves are means of target subsets → predictions cannot leave the
        // target hull.
        assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "ys={ys:?} probe={probe}");
    }
}

#[test]
fn knn_prediction_within_target_range() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let ys: Vec<f64> = (0..rng.gen_range(3..40))
            .map(|_| rng.gen_range(-1e3..1e3))
            .collect();
        let (probe, k) = (rng.gen_range(-100.0..100.0), rng.gen_range(1..5));
        let xs: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
        let m = KnnRegressor::fit(&xs, &ys, k);
        let p = m.predict_row(&[probe]);
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            p >= lo - 1e-9 && p <= hi + 1e-9,
            "ys={ys:?} probe={probe} k={k}"
        );
    }
}

#[test]
fn harmonic_mean_below_arithmetic() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let vals: Vec<f64> = (0..rng.gen_range(1..20))
            .map(|_| rng.gen_range(0.1..1e4))
            .collect();
        let mut h = HarmonicMeanPredictor::new(vals.len());
        for &v in &vals {
            h.observe(v);
        }
        let hm = h.predict().unwrap();
        let am = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(hm <= am + 1e-9, "HM {hm} > AM {am}, vals={vals:?}");
        assert!(hm > 0.0, "vals={vals:?}");
    }
}

#[test]
fn gbdt_in_sample_error_shrinks_with_rounds() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..12 {
        let ys: Vec<f64> = (0..rng.gen_range(30..60))
            .map(|_| rng.gen_range(-500.0..500.0))
            .collect();
        let xs: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
        let small = GbdtConfig {
            n_estimators: 5,
            max_depth: 3,
            learning_rate: 0.3,
            min_samples_leaf: 2,
            subsample: 1.0,
            seed: 0,
        };
        let large = GbdtConfig {
            n_estimators: 80,
            ..small
        };
        let e_small = mae(&ys, &GbdtRegressor::fit(&xs, &ys, &small).predict(&xs));
        let e_large = mae(&ys, &GbdtRegressor::fit(&xs, &ys, &large).predict(&xs));
        assert!(
            e_large <= e_small + 1e-6,
            "more rounds should not hurt training error: {e_small} -> {e_large}, ys={ys:?}"
        );
    }
}

#[test]
fn gbdt_importance_is_distribution() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..12 {
        let ys: Vec<f64> = (0..rng.gen_range(20..50))
            .map(|_| rng.gen_range(-500.0..500.0))
            .collect();
        let xs: Vec<Vec<f64>> = (0..ys.len())
            .map(|i| vec![i as f64, (i * 7 % 13) as f64])
            .collect();
        let cfg = GbdtConfig {
            n_estimators: 20,
            max_depth: 3,
            learning_rate: 0.2,
            min_samples_leaf: 2,
            subsample: 1.0,
            seed: 0,
        };
        let imp = GbdtRegressor::fit(&xs, &ys, &cfg).feature_importance();
        let total: f64 = imp.iter().sum();
        assert!(imp.iter().all(|&v| v >= 0.0), "imp={imp:?} ys={ys:?}");
        assert!(
            total == 0.0 || (total - 1.0).abs() < 1e-9,
            "imp={imp:?} ys={ys:?}"
        );
    }
}
