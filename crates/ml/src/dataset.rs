//! Dataset plumbing: seeded shuffling splits and feature standardization.
//!
//! The paper uses a random 70/30 train/test split (§6.1); all splits here
//! are seeded so every experiment in the repro harness is reproducible.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Split indices `0..n` into shuffled (train, test) with `train_frac` of the
/// data in train.
pub fn train_test_split(n: usize, train_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(
        (0.0..=1.0).contains(&train_frac),
        "train_frac must be in [0,1]"
    );
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let cut = ((n as f64) * train_frac).round() as usize;
    let test = idx.split_off(cut.min(n));
    (idx, test)
}

/// Per-feature zero-mean unit-variance scaler (fit on train, apply to test).
#[derive(Debug, Clone)]
pub struct StandardScaler {
    /// Per-feature means.
    pub means: Vec<f64>,
    /// Per-feature standard deviations (1.0 where the feature is constant).
    pub stds: Vec<f64>,
}

impl StandardScaler {
    /// Fit on a feature matrix (rows = samples).
    pub fn fit(xs: &[Vec<f64>]) -> Self {
        assert!(!xs.is_empty(), "cannot fit scaler on empty data");
        let d = xs[0].len();
        let n = xs.len() as f64;
        let mut means = vec![0.0; d];
        for row in xs {
            assert_eq!(row.len(), d, "ragged feature matrix");
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; d];
        for row in xs {
            for j in 0..d {
                let dv = row[j] - means[j];
                vars[j] += dv * dv;
            }
        }
        let stds = vars
            .iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        StandardScaler { means, stds }
    }

    /// Transform one row.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.means.len(), "dimension mismatch");
        row.iter()
            .enumerate()
            .map(|(j, v)| (v - self.means[j]) / self.stds[j])
            .collect()
    }

    /// Transform a matrix.
    pub fn transform(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|r| self.transform_row(r)).collect()
    }

    /// Inverse of [`Self::transform_row`].
    pub fn inverse_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.means.len(), "dimension mismatch");
        row.iter()
            .enumerate()
            .map(|(j, v)| v * self.stds[j] + self.means[j])
            .collect()
    }

    /// Serialize (bit-exact).
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        w.put_f64s(&self.means);
        w.put_f64s(&self.stds);
    }

    /// Inverse of [`Self::encode`].
    pub fn decode(r: &mut crate::codec::ByteReader<'_>) -> Result<Self, crate::codec::CodecError> {
        let means = r.f64s()?;
        let stds = r.f64s()?;
        if means.len() != stds.len() {
            return Err(crate::codec::CodecError::Invalid(format!(
                "{} means vs {} stds",
                means.len(),
                stds.len()
            )));
        }
        Ok(StandardScaler { means, stds })
    }
}

/// A scalar standardizer for target values (the Seq2Seq trains on
/// standardized throughput).
#[derive(Debug, Clone, Copy)]
pub struct TargetScaler {
    /// Target mean.
    pub mean: f64,
    /// Target standard deviation (1.0 when constant).
    pub std: f64,
}

impl TargetScaler {
    /// Fit on target values.
    pub fn fit(ys: &[f64]) -> Self {
        assert!(!ys.is_empty(), "cannot fit scaler on empty targets");
        let n = ys.len() as f64;
        let mean = ys.iter().sum::<f64>() / n;
        let var = ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / n;
        let std = if var.sqrt() > 1e-12 { var.sqrt() } else { 1.0 };
        TargetScaler { mean, std }
    }

    /// Standardize.
    pub fn transform(&self, y: f64) -> f64 {
        (y - self.mean) / self.std
    }

    /// Undo standardization.
    pub fn inverse(&self, z: f64) -> f64 {
        z * self.std + self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_all_indices() {
        let (tr, te) = train_test_split(100, 0.7, 1);
        assert_eq!(tr.len(), 70);
        assert_eq!(te.len(), 30);
        let mut all: Vec<usize> = tr.iter().chain(te.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_seeded() {
        assert_eq!(train_test_split(50, 0.5, 7), train_test_split(50, 0.5, 7));
        assert_ne!(
            train_test_split(50, 0.5, 7).0,
            train_test_split(50, 0.5, 8).0
        );
    }

    #[test]
    fn scaler_standardizes() {
        let xs = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let s = StandardScaler::fit(&xs);
        let t = s.transform(&xs);
        // First feature: mean 3, population std sqrt(8/3).
        let col0: Vec<f64> = t.iter().map(|r| r[0]).collect();
        assert!((col0.iter().sum::<f64>()).abs() < 1e-12);
        // Constant feature maps to zero with unit std guard.
        assert!(t.iter().all(|r| r[1].abs() < 1e-12));
    }

    #[test]
    fn scaler_roundtrip() {
        let xs = vec![vec![2.0, -1.0], vec![4.0, 5.0], vec![9.0, 0.0]];
        let s = StandardScaler::fit(&xs);
        let back = s.inverse_row(&s.transform_row(&xs[1]));
        assert!((back[0] - 4.0).abs() < 1e-12);
        assert!((back[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn target_scaler_roundtrip() {
        let t = TargetScaler::fit(&[100.0, 300.0, 500.0]);
        assert!((t.inverse(t.transform(300.0)) - 300.0).abs() < 1e-12);
        assert!(t.transform(300.0).abs() < 1e-12); // mean maps to 0
    }
}
