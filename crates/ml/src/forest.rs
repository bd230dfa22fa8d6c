//! Random Forest — the strongest 3G/4G baseline in the paper (Alimpertis et
//! al. \[20\] built city-wide LTE signal-strength maps with it; the paper runs
//! it in Tables 4, 9, 10 and Fig 23).
//!
//! Standard Breiman forests: bootstrap rows per tree plus a random feature
//! subspace per split; regression averages leaf means, classification takes
//! a majority vote.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::tree::{
    check_width, leaf_values, ClassificationTree, RankedColumns, RegressionTree, RowOrders,
    TreeConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Depth bound per tree.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features tried per split; `None` = √d for classification, d/3 for
    /// regression (the conventional defaults).
    pub max_features: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            max_depth: 12,
            min_samples_leaf: 2,
            max_features: None,
            seed: 0,
        }
    }
}

/// The one bagging loop. `xs` is ranked once; each tree draws its bootstrap
/// and then its feature subspaces from the forest's RNG, and `fit` grows it
/// on the bootstrap's row orders. `default_features(d)` sizes the subspace
/// when `cfg.max_features` is `None`.
fn bag<T>(
    xs: &[Vec<f64>],
    cfg: &ForestConfig,
    default_features: fn(usize) -> usize,
    mut fit: impl FnMut(&RankedColumns, &mut RowOrders, &TreeConfig, &mut StdRng) -> T,
) -> Vec<T> {
    assert!(!xs.is_empty(), "cannot fit forest on empty data");
    let tree_cfg = TreeConfig {
        max_depth: cfg.max_depth,
        min_samples_leaf: cfg.min_samples_leaf,
        min_samples_split: cfg.min_samples_leaf * 2,
        max_features: Some(cfg.max_features.unwrap_or(default_features(xs[0].len()))),
    };
    let cols = RankedColumns::new(xs);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.n_trees)
        .map(|_| {
            let rows: Vec<usize> = (0..xs.len()).map(|_| rng.gen_range(0..xs.len())).collect();
            fit(&cols, &mut cols.orders(&rows), &tree_cfg, &mut rng)
        })
        .collect()
}

/// Decode a forest's trees: at least one, all over the same features.
fn decode_trees<T>(
    r: &mut ByteReader<'_>,
    decode: fn(&mut ByteReader<'_>) -> Result<T, CodecError>,
    width: fn(&T) -> usize,
) -> Result<Vec<T>, CodecError> {
    let n = r.len()?;
    if n == 0 {
        return Err(CodecError::Invalid("forest with zero trees".into()));
    }
    let trees = (0..n).map(|_| decode(r)).collect::<Result<Vec<_>, _>>()?;
    for t in &trees {
        check_width(width(t), width(&trees[0]))?;
    }
    Ok(trees)
}

/// Bagged regression forest.
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    trees: Vec<RegressionTree>,
}

impl RandomForestRegressor {
    /// Fit on `(xs, ys)`.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], cfg: &ForestConfig) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        // Least squares: g = −y, h = 1, indexed by row id.
        let g: Vec<f64> = ys.iter().map(|y| -y).collect();
        let h = vec![1.0; ys.len()];
        let trees = bag(
            xs,
            cfg,
            |d| d.div_ceil(3).max(1),
            |cols, orders, tree_cfg, rng| {
                RegressionTree::fit_ranked(cols, orders, &g, &h, tree_cfg, Some(rng))
            },
        );
        RandomForestRegressor { trees }
    }

    /// Average of tree predictions for one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        // Summed in tree order from `-0.0`, as `Iterator::sum` sums.
        let mut sum = -0.0;
        leaf_values(&self.trees, row, |_, v| sum += v);
        sum / self.trees.len() as f64
    }

    /// Predict many rows.
    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Number of features the forest was fitted on.
    pub fn n_features(&self) -> usize {
        self.trees.first().map_or(0, |t| t.n_features())
    }

    /// Serialize all trees.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.trees.len());
        for t in &self.trees {
            t.encode(w);
        }
    }

    /// Inverse of [`Self::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let trees = decode_trees(r, RegressionTree::decode, |t| t.n_features())?;
        Ok(RandomForestRegressor { trees })
    }
}

/// Bagged classification forest with majority vote.
#[derive(Debug, Clone)]
pub struct RandomForestClassifier {
    trees: Vec<ClassificationTree>,
    n_classes: usize,
}

impl RandomForestClassifier {
    /// Fit on labels in `0..n_classes`.
    pub fn fit(xs: &[Vec<f64>], ys: &[usize], n_classes: usize, cfg: &ForestConfig) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(ys.iter().all(|&y| y < n_classes), "label out of range");
        let trees = bag(
            xs,
            cfg,
            |d| ((d as f64).sqrt().round() as usize).max(1),
            |cols, orders, tree_cfg, rng| {
                ClassificationTree::fit_ranked(cols, orders, ys, n_classes, tree_cfg, Some(rng))
            },
        );
        RandomForestClassifier { trees, n_classes }
    }

    /// Majority vote for one row.
    pub fn predict_row(&self, row: &[f64]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        leaf_values(&self.trees, row, |t, leaf| {
            votes[self.trees[t].class_of(leaf)] += 1;
        });
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

    /// Number of features the forest was fitted on.
    pub fn n_features(&self) -> usize {
        self.trees.first().map_or(0, |t| t.n_features())
    }

    /// Serialize all trees.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.n_classes);
        w.put_len(self.trees.len());
        for t in &self.trees {
            t.encode(w);
        }
    }

    /// Inverse of [`Self::encode`]. Every tree must vote over exactly the
    /// forest's classes, so a forest without classes never decodes.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n_classes = r.len()?;
        let trees = decode_trees(r, ClassificationTree::decode, |t| t.n_features())?;
        if let Some(t) = trees.iter().find(|t| t.n_classes() != n_classes) {
            return Err(CodecError::Invalid(format!(
                "tree over {} classes in a forest over {n_classes}",
                t.n_classes()
            )));
        }
        Ok(RandomForestClassifier { trees, n_classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mae, weighted_f1};
    use crate::tree::reference;

    /// The former forest loop: clone each bootstrap into its own matrix and
    /// grow it with the reference builder.
    fn reference_forest<T>(
        xs: &[Vec<f64>],
        cfg: &ForestConfig,
        max_features: usize,
        mut fit: impl FnMut(&[usize], &[Vec<f64>], &TreeConfig, &mut StdRng) -> T,
    ) -> Vec<T> {
        let tree_cfg = TreeConfig {
            max_depth: cfg.max_depth,
            min_samples_leaf: cfg.min_samples_leaf,
            min_samples_split: cfg.min_samples_leaf * 2,
            max_features: Some(max_features),
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        (0..cfg.n_trees)
            .map(|_| {
                let rows: Vec<usize> = (0..xs.len()).map(|_| rng.gen_range(0..xs.len())).collect();
                let bx: Vec<Vec<f64>> = rows.iter().map(|&i| xs[i].clone()).collect();
                fit(&rows, &bx, &tree_cfg, &mut rng)
            })
            .collect()
    }

    fn encoded(encode: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn ranked_forests_equal_the_reference_bit_for_bit() {
        for seed in 0..6u64 {
            let (xs, ys) = reference::tie_heavy_data(seed, 60 + 41 * seed as usize);
            let labels = reference::tie_heavy_labels(&ys);
            // `None` takes the defaults (3 of 7 features for both kinds);
            // 7 draws no subspace at all.
            for max_features in [None, Some(2), Some(7)] {
                let cfg = ForestConfig {
                    n_trees: 6,
                    max_depth: 3 + seed as usize % 4,
                    min_samples_leaf: 1 + seed as usize % 3,
                    max_features,
                    seed,
                };
                let want = RandomForestRegressor {
                    trees: reference_forest(
                        &xs,
                        &cfg,
                        max_features.unwrap_or(3),
                        |rows, bx, tree_cfg, rng| {
                            let g: Vec<f64> = rows.iter().map(|&i| -ys[i]).collect();
                            let h = vec![1.0; rows.len()];
                            reference::fit_gradients(bx, &g, &h, tree_cfg, Some(rng))
                        },
                    ),
                };
                let got = RandomForestRegressor::fit(&xs, &ys, &cfg);
                assert_eq!(
                    encoded(|w| got.encode(w)),
                    encoded(|w| want.encode(w)),
                    "regressor, seed {seed}, {cfg:?}"
                );

                let want = RandomForestClassifier {
                    trees: reference_forest(
                        &xs,
                        &cfg,
                        max_features.unwrap_or(3),
                        |rows, bx, tree_cfg, rng| {
                            let by: Vec<usize> = rows.iter().map(|&i| labels[i]).collect();
                            reference::fit_classification(bx, &by, 3, tree_cfg, Some(rng))
                        },
                    ),
                    n_classes: 3,
                };
                let got = RandomForestClassifier::fit(&xs, &labels, 3, &cfg);
                assert_eq!(
                    encoded(|w| got.encode(w)),
                    encoded(|w| want.encode(w)),
                    "classifier, seed {seed}, {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn flat_forest_predictions_equal_the_node_walks_bit_for_bit() {
        for seed in 0..3u64 {
            let (xs, ys) = reference::tie_heavy_data(seed, 70 + 41 * seed as usize);
            let labels = reference::tie_heavy_labels(&ys);
            let rows = reference::probe_rows(&xs);
            // 11 trees: one walk of eight, then three alone.
            let cfg = ForestConfig {
                n_trees: 11,
                max_depth: 4 + 4 * seed as usize,
                min_samples_leaf: 1,
                max_features: None,
                seed,
            };
            let fresh = RandomForestRegressor::fit(&xs, &ys, &cfg);
            let bytes = encoded(|w| fresh.encode(w));
            let decoded = RandomForestRegressor::decode(&mut ByteReader::new(&bytes)).unwrap();
            for m in [&fresh, &decoded] {
                let nodes: Vec<_> = m.trees.iter().map(reference::regression_nodes).collect();
                for row in &rows {
                    let sum = nodes.iter().map(|n| *reference::leaf(n, row)).sum::<f64>();
                    let want = sum / nodes.len() as f64;
                    assert_eq!(m.predict_row(row).to_bits(), want.to_bits(), "{row:?}");
                }
            }
            let fresh = RandomForestClassifier::fit(&xs, &labels, 3, &cfg);
            let bytes = encoded(|w| fresh.encode(w));
            let decoded = RandomForestClassifier::decode(&mut ByteReader::new(&bytes)).unwrap();
            for m in [&fresh, &decoded] {
                let nodes: Vec<_> = m
                    .trees
                    .iter()
                    .map(reference::classification_nodes)
                    .collect();
                for row in &rows {
                    let mut votes = [0usize; 3];
                    for n in &nodes {
                        votes[reference::class(n, row)] += 1;
                    }
                    let want = (votes.iter().enumerate())
                        .max_by_key(|(_, &v)| v)
                        .map(|(c, _)| c);
                    assert_eq!(Some(m.predict_row(row)), want, "{row:?}");
                }
            }
        }
    }

    /// A one-split regression tree over `n_features` features, splitting on
    /// the last one.
    fn put_regression_tree(w: &mut ByteWriter, n_features: usize) {
        w.put_len(n_features);
        w.put_len(3); // nodes
        w.put_u8(1);
        w.put_len(n_features - 1);
        w.put_f64(0.5);
        w.put_f64(1.0);
        w.put_len(1);
        w.put_len(2);
        for value in [1.0, 2.0] {
            w.put_u8(0);
            w.put_f64(value);
        }
    }

    /// A one-split classification tree like [`put_regression_tree`] whose
    /// leaves vote for the last of `n_classes` classes.
    fn put_classification_tree(w: &mut ByteWriter, n_features: usize, n_classes: usize) {
        w.put_len(n_features);
        w.put_len(n_classes);
        w.put_len(3); // nodes
        w.put_u8(1);
        w.put_len(n_features - 1);
        w.put_f64(0.5);
        w.put_len(1);
        w.put_len(2);
        let mut proba = vec![0.0; n_classes];
        proba[n_classes - 1] = 1.0;
        for _ in 0..2 {
            w.put_u8(0);
            w.put_len(n_classes - 1);
            w.put_f64s(&proba);
        }
    }

    #[test]
    fn regressor_decode_rejects_trees_of_different_widths() {
        let mut w = ByteWriter::new();
        w.put_len(2); // trees
        put_regression_tree(&mut w, 2);
        put_regression_tree(&mut w, 5);
        let bytes = w.into_bytes();
        let got = RandomForestRegressor::decode(&mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(CodecError::Invalid(_))), "{got:?}");
    }

    #[test]
    fn classifier_decode_rejects_trees_of_different_widths() {
        let mut w = ByteWriter::new();
        w.put_len(3); // classes
        w.put_len(2); // trees
        put_classification_tree(&mut w, 2, 3);
        put_classification_tree(&mut w, 5, 3);
        let bytes = w.into_bytes();
        let got = RandomForestClassifier::decode(&mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(CodecError::Invalid(_))), "{got:?}");
    }

    #[test]
    fn classifier_decode_rejects_trees_with_more_classes_than_the_forest() {
        // Leaves vote for class 4 of a 3-class forest: `votes[4]` would
        // index out of bounds.
        let mut w = ByteWriter::new();
        w.put_len(3); // classes
        w.put_len(1); // trees
        put_classification_tree(&mut w, 2, 5);
        let bytes = w.into_bytes();
        let got = RandomForestClassifier::decode(&mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(CodecError::Invalid(_))), "{got:?}");
    }

    #[test]
    fn classifier_decode_rejects_zero_classes() {
        let mut w = ByteWriter::new();
        w.put_len(0); // classes
        w.put_len(1); // trees
        put_classification_tree(&mut w, 2, 1);
        let bytes = w.into_bytes();
        let got = RandomForestClassifier::decode(&mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(CodecError::Invalid(_))), "{got:?}");
    }

    fn quick() -> ForestConfig {
        ForestConfig {
            n_trees: 30,
            max_depth: 8,
            min_samples_leaf: 1,
            max_features: None,
            seed: 3,
        }
    }

    #[test]
    fn regressor_fits_smooth_function() {
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 20.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() * 10.0).collect();
        let m = RandomForestRegressor::fit(&xs, &ys, &quick());
        assert!(mae(&ys, &m.predict(&xs)) < 1.0);
    }

    #[test]
    fn regressor_is_deterministic_per_seed() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..50).map(|i| i as f64 * 2.0).collect();
        let a = RandomForestRegressor::fit(&xs, &ys, &quick());
        let b = RandomForestRegressor::fit(&xs, &ys, &quick());
        assert_eq!(a.predict_row(&[25.0]), b.predict_row(&[25.0]));
    }

    #[test]
    fn classifier_separates_bands() {
        let xs: Vec<Vec<f64>> = (0..150).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let ys: Vec<usize> = (0..150).map(|i| i / 50).collect();
        let m = RandomForestClassifier::fit(&xs, &ys, 3, &quick());
        assert!(weighted_f1(&ys, &m.predict(&xs), 3) > 0.95);
    }

    #[test]
    fn classifier_handles_single_class_gracefully() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![1usize; 20];
        let m = RandomForestClassifier::fit(&xs, &ys, 3, &quick());
        assert_eq!(m.predict_row(&[3.0]), 1);
    }
}
