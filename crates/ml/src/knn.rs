//! k-nearest-neighbours — the simplest location-based baseline the paper
//! evaluates (Tables 4, 9, 10; Fig 23). Features are standardized internally
//! so Euclidean distance is meaningful across mixed units (meters, degrees,
//! Mbps).
//!
//! Neighbour search uses a k-d tree for low-dimensional feature sets (≤ 8
//! dims, e.g. the pure-location `L` group) where it is asymptotically
//! faster, and falls back to a brute-force scan in higher dimensions where
//! k-d trees degenerate.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::dataset::StandardScaler;
use crate::kdtree::KdTree;

/// Dimension above which brute force beats the k-d tree in practice.
const KDTREE_MAX_DIM: usize = 8;

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Neighbour index: k-d tree when profitable, brute force otherwise.
#[derive(Debug, Clone)]
enum Index {
    Tree(KdTree),
    Brute(Vec<Vec<f64>>),
}

impl Index {
    fn build(xs: Vec<Vec<f64>>) -> Self {
        if xs[0].len() <= KDTREE_MAX_DIM {
            Index::Tree(KdTree::build(xs))
        } else {
            Index::Brute(xs)
        }
    }

    fn k_nearest(&self, q: &[f64], k: usize) -> Vec<usize> {
        match self {
            Index::Tree(t) => t.knn(q, k),
            Index::Brute(xs) => {
                let mut dists: Vec<(f64, usize)> = xs
                    .iter()
                    .enumerate()
                    .map(|(i, row)| (sq_dist(row, q), i))
                    .collect();
                let k = k.min(dists.len());
                dists.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
                dists[..k].iter().map(|&(_, i)| i).collect()
            }
        }
    }

    /// The indexed (scaled) points, row `i` matching training row `i`.
    fn points(&self) -> &[Vec<f64>] {
        match self {
            Index::Tree(t) => t.points(),
            Index::Brute(xs) => xs,
        }
    }
}

/// Serialize the scaled point matrix: dim, then row-major values.
fn encode_points(points: &[Vec<f64>], w: &mut ByteWriter) {
    w.put_len(points[0].len());
    w.put_len(points.len());
    for p in points {
        for &v in p {
            w.put_f64(v);
        }
    }
}

/// Inverse of [`encode_points`]; the index is rebuilt deterministically by
/// `Index::build` (the tree-vs-brute choice depends only on the dimension).
fn decode_points(r: &mut ByteReader<'_>) -> Result<Vec<Vec<f64>>, CodecError> {
    let dim = r.len()?;
    let n = r.len()?;
    if dim == 0 || n == 0 {
        return Err(CodecError::Invalid("empty KNN point set".into()));
    }
    let needed = n.saturating_mul(dim).saturating_mul(8);
    if r.remaining() < needed {
        return Err(CodecError::UnexpectedEof {
            needed,
            remaining: r.remaining(),
        });
    }
    (0..n)
        .map(|_| (0..dim).map(|_| r.f64()).collect())
        .collect()
}

/// The scaler and the indexed points must be as wide as each other: a
/// query is scaled to the scaler's width and compared against the points.
fn check_widths(scaler: &StandardScaler, points: &[Vec<f64>]) -> Result<(), CodecError> {
    if scaler.means.len() == points[0].len() {
        return Ok(());
    }
    Err(CodecError::Invalid(format!(
        "KNN scaler over {} features, points over {}",
        scaler.means.len(),
        points[0].len()
    )))
}

/// KNN regressor (mean of neighbour targets).
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    k: usize,
    scaler: StandardScaler,
    index: Index,
    ys: Vec<f64>,
}

impl KnnRegressor {
    /// Memorize the training set.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], k: usize) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "cannot fit KNN on empty data");
        assert!(k >= 1, "k must be at least 1");
        let scaler = StandardScaler::fit(xs);
        KnnRegressor {
            k,
            index: Index::build(scaler.transform(xs)),
            ys: ys.to_vec(),
            scaler,
        }
    }

    /// Predict one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let q = self.scaler.transform_row(row);
        let nn = self.index.k_nearest(&q, self.k);
        nn.iter().map(|&i| self.ys[i]).sum::<f64>() / nn.len() as f64
    }

    /// Predict many rows.
    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Number of features the model was fitted on.
    pub fn n_features(&self) -> usize {
        self.scaler.means.len()
    }

    /// Serialize: k, scaler, targets, then the scaled training points. The
    /// spatial index is not written — it is rebuilt on decode, which is
    /// deterministic, so a loaded model predicts bit-identically.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.k);
        self.scaler.encode(w);
        w.put_f64s(&self.ys);
        encode_points(self.index.points(), w);
    }

    /// Inverse of [`Self::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let k = r.len()?;
        let scaler = StandardScaler::decode(r)?;
        let ys = r.f64s()?;
        let points = decode_points(r)?;
        if k == 0 || ys.len() != points.len() {
            return Err(CodecError::Invalid(format!(
                "k = {k}, {} targets for {} points",
                ys.len(),
                points.len()
            )));
        }
        check_widths(&scaler, &points)?;
        Ok(KnnRegressor {
            k,
            index: Index::build(points),
            ys,
            scaler,
        })
    }
}

/// KNN classifier (majority of neighbour labels).
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    k: usize,
    n_classes: usize,
    scaler: StandardScaler,
    index: Index,
    ys: Vec<usize>,
}

impl KnnClassifier {
    /// Memorize the training set (labels in `0..n_classes`).
    pub fn fit(xs: &[Vec<f64>], ys: &[usize], n_classes: usize, k: usize) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "cannot fit KNN on empty data");
        assert!(k >= 1, "k must be at least 1");
        assert!(ys.iter().all(|&y| y < n_classes), "label out of range");
        let scaler = StandardScaler::fit(xs);
        KnnClassifier {
            k,
            n_classes,
            index: Index::build(scaler.transform(xs)),
            ys: ys.to_vec(),
            scaler,
        }
    }

    /// Predict one row.
    pub fn predict_row(&self, row: &[f64]) -> usize {
        let q = self.scaler.transform_row(row);
        let nn = self.index.k_nearest(&q, self.k);
        let mut votes = vec![0usize; self.n_classes];
        for &i in &nn {
            votes[self.ys[i]] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .map(|(c, _)| c)
            .expect("at least one class")
    }

    /// Predict many rows.
    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Number of features the model was fitted on.
    pub fn n_features(&self) -> usize {
        self.scaler.means.len()
    }

    /// Serialize: k, class count, scaler, labels, scaled training points.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.k);
        w.put_len(self.n_classes);
        self.scaler.encode(w);
        w.put_lens(&self.ys);
        encode_points(self.index.points(), w);
    }

    /// Inverse of [`Self::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let k = r.len()?;
        let n_classes = r.len()?;
        let scaler = StandardScaler::decode(r)?;
        let ys = r.lens()?;
        let points = decode_points(r)?;
        if k == 0 || ys.len() != points.len() || ys.iter().any(|&y| y >= n_classes) {
            return Err(CodecError::Invalid("inconsistent KNN classifier".into()));
        }
        check_widths(&scaler, &points)?;
        Ok(KnnClassifier {
            k,
            n_classes,
            index: Index::build(points),
            ys,
            scaler,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_rejects_a_scaler_wider_than_the_points() {
        // A 3-feature scaler over 2-wide points: a scaled query would not
        // line up with the points it is compared against.
        let mut w = ByteWriter::new();
        w.put_len(1); // k
        w.put_f64s(&[0.0; 3]); // means
        w.put_f64s(&[1.0; 3]); // stds
        w.put_f64s(&[5.0]); // targets
        w.put_len(2); // point dim
        w.put_len(1); // points
        w.put_f64(0.0);
        w.put_f64(0.0);
        let bytes = w.into_bytes();
        let got = KnnRegressor::decode(&mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(CodecError::Invalid(_))), "{got:?}");
    }

    #[test]
    fn regressor_k1_memorizes_training_points() {
        let xs = vec![vec![0.0], vec![10.0], vec![20.0]];
        let ys = vec![1.0, 2.0, 3.0];
        let m = KnnRegressor::fit(&xs, &ys, 1);
        assert_eq!(m.predict_row(&[10.0]), 2.0);
        assert_eq!(m.predict_row(&[9.0]), 2.0); // nearest is 10
    }

    #[test]
    fn regressor_k3_averages() {
        let xs = vec![vec![0.0], vec![1.0], vec![2.0], vec![100.0]];
        let ys = vec![10.0, 20.0, 30.0, 1000.0];
        let m = KnnRegressor::fit(&xs, &ys, 3);
        assert!((m.predict_row(&[1.0]) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_makes_features_comparable() {
        // Feature 1 has a huge scale but no signal; without standardization
        // it would dominate the distance.
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, ((i * 7919) % 13) as f64 * 1e6])
            .collect();
        let ys: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 1.0 }).collect();
        let m = KnnRegressor::fit(&xs, &ys, 3);
        // Query close to a low-region x with arbitrary f1.
        let pred = m.predict_row(&[5.0, 6.0e6]);
        assert!(pred < 0.5, "pred = {pred}");
    }

    #[test]
    fn classifier_majority_vote() {
        let xs = vec![vec![0.0], vec![0.5], vec![1.0], vec![10.0]];
        let ys = vec![0, 0, 1, 1];
        let m = KnnClassifier::fit(&xs, &ys, 2, 3);
        assert_eq!(m.predict_row(&[0.2]), 0);
        assert_eq!(m.predict_row(&[9.0]), 1);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![2.0, 4.0];
        let m = KnnRegressor::fit(&xs, &ys, 10);
        assert!((m.predict_row(&[0.5]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tree_and_brute_paths_agree() {
        // 2-D (tree path) vs padded 12-D (brute path) of the same problem:
        // the extra constant dims change nothing.
        let xs2: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let xs12: Vec<Vec<f64>> = xs2
            .iter()
            .map(|r| {
                let mut v = r.clone();
                v.extend(std::iter::repeat_n(3.0, 10));
                v
            })
            .collect();
        let ys: Vec<f64> = (0..60).map(|i| (i * i) as f64).collect();
        let m2 = KnnRegressor::fit(&xs2, &ys, 4);
        let m12 = KnnRegressor::fit(&xs12, &ys, 4);
        for probe in 0..10 {
            let q2 = vec![probe as f64 * 5.0 + 0.1, 2.0];
            let mut q12 = q2.clone();
            q12.extend(std::iter::repeat_n(3.0, 10));
            assert!((m2.predict_row(&q2) - m12.predict_row(&q12)).abs() < 1e-9);
        }
    }
}
