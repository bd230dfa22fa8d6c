//! Descriptive statistics: central tendency, dispersion and quantiles.
//!
//! The paper leans on the coefficient of variation (CV) to quantify how wildly
//! 5G throughput varies within a single geolocation (§4.1, Fig 7b), and on
//! box-plot style summaries for the speed analysis (Fig 14).

use crate::{Result, StatsError};

/// Arithmetic mean of `xs`.
///
/// Returns an error on empty input.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample variance (denominator `n - 1`).
pub fn variance(xs: &[f64]) -> Result<f64> {
    if xs.len() < 2 {
        return Err(StatsError::TooFewSamples {
            needed: 2,
            got: xs.len(),
        });
    }
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    Ok(ss / (xs.len() - 1) as f64)
}

/// Unbiased sample standard deviation.
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    Ok(variance(xs)?.sqrt())
}

/// Coefficient of variation `std / |mean|`, as a *fraction* (multiply by 100
/// for the percentages the paper quotes, e.g. "CV ≥ 50%").
///
/// Errors if the mean is zero (CV undefined).
pub fn coefficient_of_variation(xs: &[f64]) -> Result<f64> {
    let m = mean(xs)?;
    if m == 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    Ok(std_dev(xs)? / m.abs())
}

/// Central biased moment of order `k` about the mean.
pub fn central_moment(xs: &[f64], k: u32) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m).powi(k as i32)).sum::<f64>() / xs.len() as f64)
}

/// Biased sample skewness `g1 = m3 / m2^{3/2}`.
pub fn skewness(xs: &[f64]) -> Result<f64> {
    let m2 = central_moment(xs, 2)?;
    if m2 == 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    Ok(central_moment(xs, 3)? / m2.powf(1.5))
}

/// Biased sample kurtosis `g2 = m4 / m2^2` (not excess; normal ≈ 3).
pub fn kurtosis(xs: &[f64]) -> Result<f64> {
    let m2 = central_moment(xs, 2)?;
    if m2 == 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    Ok(central_moment(xs, 4)? / (m2 * m2))
}

/// Linear-interpolated quantile (type 7, the NumPy/R default).
///
/// `q` must lie in `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter("quantile must be in [0,1]"));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Ok(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// Five-number box-plot summary plus mean and count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Minimum value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 when `n < 2`).
    pub std: f64,
}

impl Summary {
    /// Compute the summary over `xs`.
    pub fn of(xs: &[f64]) -> Result<Self> {
        if xs.is_empty() {
            return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary input"));
        Ok(Summary {
            n: xs.len(),
            min: sorted[0],
            q1: quantile(xs, 0.25)?,
            median: quantile(xs, 0.5)?,
            q3: quantile(xs, 0.75)?,
            max: sorted[sorted.len() - 1],
            mean: mean(xs)?,
            std: if xs.len() >= 2 { std_dev(xs)? } else { 0.0 },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn mean_of_simple_sequence() {
        assert!((mean(&[1.0, 2.0, 3.0, 4.0]).unwrap() - 2.5).abs() < EPS);
    }

    #[test]
    fn mean_rejects_empty() {
        assert!(mean(&[]).is_err());
    }

    #[test]
    fn variance_matches_hand_computation() {
        // var([2,4,4,4,5,5,7,9]) sample = 32/7
        let v = variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((v - 32.0 / 7.0).abs() < EPS);
    }

    #[test]
    fn cv_is_std_over_mean() {
        let xs = [10.0, 20.0, 30.0];
        let cv = coefficient_of_variation(&xs).unwrap();
        assert!((cv - 10.0 / 20.0).abs() < EPS);
    }

    #[test]
    fn cv_undefined_for_zero_mean() {
        assert_eq!(
            coefficient_of_variation(&[-1.0, 1.0]),
            Err(StatsError::ZeroVariance)
        );
    }

    #[test]
    fn quantile_endpoints_are_min_max() {
        let xs = [3.0, 1.0, 2.0];
        assert!((quantile(&xs, 0.0).unwrap() - 1.0).abs() < EPS);
        assert!((quantile(&xs, 1.0).unwrap() - 3.0).abs() < EPS);
    }

    #[test]
    fn quantile_interpolates_linearly() {
        // type-7 on [1,2,3,4]: q=0.5 -> 2.5
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.5).unwrap() - 2.5).abs() < EPS);
    }

    #[test]
    fn quantile_rejects_out_of_range() {
        assert!(quantile(&[1.0], 1.5).is_err());
    }

    #[test]
    fn median_odd_is_middle_element() {
        assert!((median(&[5.0, 1.0, 9.0]).unwrap() - 5.0).abs() < EPS);
    }

    #[test]
    fn skewness_of_symmetric_data_is_zero() {
        let s = skewness(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!(s.abs() < EPS);
    }

    #[test]
    fn kurtosis_of_two_point_mass_is_one() {
        // {−1, 1} repeated: m4/m2² = 1
        let k = kurtosis(&[-1.0, 1.0, -1.0, 1.0]).unwrap();
        assert!((k - 1.0).abs() < EPS);
    }

    #[test]
    fn summary_is_ordered() {
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0]).unwrap();
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        assert_eq!(s.n, 5);
    }
}
