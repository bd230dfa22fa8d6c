//! Property-based tests of the statistics substrate: each property checks
//! inputs drawn from a fixed-seed generator (no shrinking).

use lumos5g_stats::dist::{chi2_cdf, f_cdf, normal_cdf, normal_quantile, student_t_cdf};
use lumos5g_stats::htest::{welch_t_test, LeveneCenter};
use lumos5g_stats::special::{beta_inc, gamma_p, gamma_q};
use lumos5g_stats::{correlation, descriptive, htest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn mean_is_within_min_max() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let xs: Vec<f64> = (0..rng.gen_range(1..100))
            .map(|_| rng.gen_range(-1e6..1e6))
            .collect();
        let m = descriptive::mean(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(m >= lo - 1e-9 && m <= hi + 1e-9, "xs={xs:?}");
    }
}

#[test]
fn variance_is_nonnegative() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let xs: Vec<f64> = (0..rng.gen_range(2..100))
            .map(|_| rng.gen_range(-1e5..1e5))
            .collect();
        assert!(descriptive::variance(&xs).unwrap() >= 0.0, "xs={xs:?}");
    }
}

#[test]
fn quantiles_are_monotone() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let xs: Vec<f64> = (0..rng.gen_range(2..60))
            .map(|_| rng.gen_range(-1e5..1e5))
            .collect();
        let (q1, q2) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = descriptive::quantile(&xs, lo).unwrap();
        let b = descriptive::quantile(&xs, hi).unwrap();
        assert!(a <= b + 1e-9, "xs={xs:?} q1={q1} q2={q2}");
    }
}

#[test]
fn translation_shifts_mean_not_variance() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let xs: Vec<f64> = (0..rng.gen_range(2..50))
            .map(|_| rng.gen_range(-1e4..1e4))
            .collect();
        let shift = rng.gen_range(-1e4..1e4);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let dm = descriptive::mean(&shifted).unwrap() - descriptive::mean(&xs).unwrap();
        assert!((dm - shift).abs() < 1e-6, "xs={xs:?} shift={shift}");
        let dv = descriptive::variance(&shifted).unwrap() - descriptive::variance(&xs).unwrap();
        assert!(
            dv.abs() < 1e-4 * descriptive::variance(&xs).unwrap().max(1.0),
            "xs={xs:?} shift={shift}"
        );
    }
}

#[test]
fn normal_cdf_monotone() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (z1, z2) = (rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0));
        let (lo, hi) = if z1 <= z2 { (z1, z2) } else { (z2, z1) };
        assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12, "z1={z1} z2={z2}");
    }
}

#[test]
fn normal_quantile_is_inverse() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let p = rng.gen_range(0.001..0.999);
        assert!((normal_cdf(normal_quantile(p)) - p).abs() < 1e-8, "p={p}");
    }
}

#[test]
fn student_t_approaches_normal() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let z = rng.gen_range(-4.0..4.0);
        // Large df → t CDF ≈ normal CDF.
        let t = student_t_cdf(z, 1e6);
        assert!((t - normal_cdf(z)).abs() < 1e-3, "z={z}");
    }
}

#[test]
fn gamma_pq_complement() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (a, x) = (rng.gen_range(0.1..50.0), rng.gen_range(0.0..100.0));
        assert!(
            (gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < 1e-10,
            "a={a} x={x}"
        );
    }
}

#[test]
fn beta_inc_bounded_and_monotone() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (a, b) = (rng.gen_range(0.2..20.0), rng.gen_range(0.2..20.0));
        let (x1, x2) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let il = beta_inc(a, b, lo);
        let ih = beta_inc(a, b, hi);
        assert!((0.0..=1.0).contains(&il), "a={a} b={b} x1={x1} x2={x2}");
        assert!(il <= ih + 1e-10, "a={a} b={b} x1={x1} x2={x2}");
    }
}

#[test]
fn chi2_and_f_cdfs_bounded() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let x = rng.gen_range(0.0..200.0);
        let (k, d2) = (rng.gen_range(1.0..50.0), rng.gen_range(1.0..50.0));
        assert!((0.0..=1.0).contains(&chi2_cdf(x, k)), "x={x} k={k}");
        assert!(
            (0.0..=1.0).contains(&f_cdf(x, k, d2)),
            "x={x} k={k} d2={d2}"
        );
    }
}

#[test]
fn welch_p_value_in_unit_interval() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let a: Vec<f64> = (0..rng.gen_range(3..40))
            .map(|_| rng.gen_range(-100.0..100.0))
            .collect();
        let b: Vec<f64> = (0..rng.gen_range(3..40))
            .map(|_| rng.gen_range(-100.0..100.0))
            .collect();
        if let Ok(r) = welch_t_test(&a, &b) {
            assert!((0.0..=1.0).contains(&r.p_value), "a={a:?} b={b:?}");
        }
    }
}

#[test]
fn welch_is_antisymmetric() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let a: Vec<f64> = (0..rng.gen_range(3..30))
            .map(|_| rng.gen_range(-100.0..100.0))
            .collect();
        let b: Vec<f64> = (0..rng.gen_range(3..30))
            .map(|_| rng.gen_range(-100.0..100.0))
            .collect();
        if let (Ok(r1), Ok(r2)) = (welch_t_test(&a, &b), welch_t_test(&b, &a)) {
            assert!(
                (r1.statistic + r2.statistic).abs() < 1e-9,
                "a={a:?} b={b:?}"
            );
            assert!((r1.p_value - r2.p_value).abs() < 1e-9, "a={a:?} b={b:?}");
        }
    }
}

#[test]
fn levene_invariant_to_group_translation() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let a: Vec<f64> = (0..rng.gen_range(5..30))
            .map(|_| rng.gen_range(-50.0..50.0))
            .collect();
        let b: Vec<f64> = (0..rng.gen_range(5..30))
            .map(|_| rng.gen_range(-50.0..50.0))
            .collect();
        let shift = rng.gen_range(-100.0..100.0);
        let b2: Vec<f64> = b.iter().map(|x| x + shift).collect();
        if let (Ok(r1), Ok(r2)) = (
            htest::levene_test(&[&a, &b], LeveneCenter::Median),
            htest::levene_test(&[&a, &b2], LeveneCenter::Median),
        ) {
            // Levene tests variances; translating one group changes nothing.
            assert!(
                (r1.statistic - r2.statistic).abs() < 1e-6 * (1.0 + r1.statistic),
                "a={a:?} b={b:?} shift={shift}"
            );
        }
    }
}

#[test]
fn spearman_invariant_under_monotone_transform() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        // Redraw degenerate constant vectors.
        let (xs, ys) = loop {
            let n = rng.gen_range(5..40);
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.001..1e3)).collect();
            let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(0.001..1e3)).collect();
            let varies = |v: &[f64]| v.iter().any(|&x| (x - v[0]).abs() > 1e-9);
            if varies(&xs) && varies(&ys) {
                break (xs, ys);
            }
        };
        let r1 = correlation::spearman(&xs, &ys).unwrap().rho;
        let xs_log: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
        let ys_cub: Vec<f64> = ys.iter().map(|y| y * y * y).collect();
        let r2 = correlation::spearman(&xs_log, &ys_cub).unwrap().rho;
        assert!((r1 - r2).abs() < 1e-9, "xs={xs:?} ys={ys:?}");
    }
}

#[test]
fn ranks_are_a_permutation_sum() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let xs: Vec<f64> = (0..rng.gen_range(1..50))
            .map(|_| rng.gen_range(-1e4..1e4))
            .collect();
        let ranks = correlation::average_ranks(&xs);
        let n = xs.len() as f64;
        let expected = n * (n + 1.0) / 2.0;
        let total: f64 = ranks.iter().sum();
        assert!((total - expected).abs() < 1e-6, "xs={xs:?}");
    }
}
