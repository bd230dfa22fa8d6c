//! Distribution CDFs built on the special functions in [`crate::special`].
//!
//! Only what the hypothesis tests need: standard normal, Student-t,
//! chi-squared and Fisher F.

use crate::special::{beta_inc, erf, gamma_p, gamma_q};

/// Standard normal cumulative distribution function Φ(z).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Inverse standard normal CDF (Acklam's rational approximation refined with
/// one Halley step; |error| < 1e-12 over (0, 1)).
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_quantile requires p in (0,1)");
    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Student-t CDF with `df` degrees of freedom.
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "student_t_cdf requires df > 0");
    let x = df / (df + t * t);
    let tail = 0.5 * beta_inc(df / 2.0, 0.5, x);
    if t >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Two-sided p-value for a t statistic: `P(|T| >= |t|)`.
pub fn student_t_two_sided_p(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "two-sided t p-value requires df > 0");
    beta_inc(df / 2.0, 0.5, df / (df + t * t))
}

/// Chi-squared CDF with `k` degrees of freedom.
pub fn chi2_cdf(x: f64, k: f64) -> f64 {
    assert!(k > 0.0, "chi2_cdf requires k > 0");
    if x <= 0.0 {
        return 0.0;
    }
    gamma_p(k / 2.0, x / 2.0)
}

/// Chi-squared survival function `P(X >= x)`.
pub fn chi2_sf(x: f64, k: f64) -> f64 {
    assert!(k > 0.0, "chi2_sf requires k > 0");
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(k / 2.0, x / 2.0)
}

/// Fisher F CDF with `(d1, d2)` degrees of freedom.
pub fn f_cdf(x: f64, d1: f64, d2: f64) -> f64 {
    assert!(d1 > 0.0 && d2 > 0.0, "f_cdf requires positive dof");
    if x <= 0.0 {
        return 0.0;
    }
    beta_inc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2))
}

/// Fisher F survival function `P(F >= x)`.
pub fn f_sf(x: f64, d1: f64, d2: f64) -> f64 {
    assert!(d1 > 0.0 && d2 > 0.0, "f_sf requires positive dof");
    if x <= 0.0 {
        return 1.0;
    }
    beta_inc(d2 / 2.0, d1 / 2.0, d2 / (d1 * x + d2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((normal_cdf(1.96) - 0.975_002_104_9).abs() < 1e-8);
        assert!((normal_cdf(-1.0) - 0.158_655_253_9).abs() < 1e-9);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.001, 0.025, 0.3, 0.5, 0.84, 0.999] {
            let z = normal_quantile(p);
            assert!((normal_cdf(z) - p).abs() < 1e-10, "p = {p}");
        }
    }

    #[test]
    fn student_t_symmetric_at_zero() {
        assert!((student_t_cdf(0.0, 7.0) - 0.5).abs() < 1e-14);
    }

    #[test]
    fn student_t_reference_values() {
        // t(df=10) CDF at 1.812 ≈ 0.95 (critical value table).
        assert!((student_t_cdf(1.812, 10.0) - 0.95).abs() < 1e-3);
        // df=1 is Cauchy: CDF(1) = 0.75.
        assert!((student_t_cdf(1.0, 1.0) - 0.75).abs() < 1e-10);
    }

    #[test]
    fn student_t_two_sided_matches_tails() {
        let (t, df) = (2.3, 12.0);
        let p = student_t_two_sided_p(t, df);
        let manual = 2.0 * (1.0 - student_t_cdf(t, df));
        assert!((p - manual).abs() < 1e-12);
    }

    #[test]
    fn chi2_reference_values() {
        // χ²(2) CDF is 1 − e^{−x/2}.
        for &x in &[0.5, 2.0, 5.991] {
            assert!((chi2_cdf(x, 2.0) - (1.0 - (-x / 2.0f64).exp())).abs() < 1e-12);
        }
        // 95th percentile of χ²(2) is 5.991.
        assert!((chi2_sf(5.991, 2.0) - 0.05).abs() < 2e-4);
    }

    #[test]
    fn f_cdf_and_sf_complement() {
        for &(x, d1, d2) in &[(1.0, 3.0, 10.0), (2.5, 5.0, 20.0), (0.3, 1.0, 1.0)] {
            assert!((f_cdf(x, d1, d2) + f_sf(x, d1, d2) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn f_reference_value() {
        // F(1, d2) at x relates to t: F_{1,k}(t²) = 2·T_k(t) − 1.
        let t: f64 = 2.0;
        let k = 15.0;
        let lhs = f_cdf(t * t, 1.0, k);
        let rhs = 2.0 * student_t_cdf(t, k) - 1.0;
        assert!((lhs - rhs).abs() < 1e-10);
    }
}
