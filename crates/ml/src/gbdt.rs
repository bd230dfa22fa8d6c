//! Gradient-boosted decision trees (GDBT) — the paper's light-weight,
//! interpretable model family (§5.2).
//!
//! - [`GbdtRegressor`]: squared-loss boosting; each round fits a
//!   [`RegressionTree`] to the residuals via its (g, h) interface.
//! - [`GbdtClassifier`]: multiclass softmax boosting, one tree per class per
//!   round with Newton leaves (`−Σg/Σh`, `h = p(1−p)`).
//!
//! Both expose gain-based **global feature importance**, normalized to sum
//! to 100% like Fig 22.
//!
//! The paper's hyperparameters (8000 estimators, depth 8, learning rate
//! 0.01) are available via [`GbdtConfig::paper_scale`]; the default is a
//! laptop-scale equivalent (same bias/variance trade-off at ~25× less
//! compute: fewer, slightly stronger steps).

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::tree::{RankedColumns, RegressionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::ControlFlow;

/// Boosting hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtConfig {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Depth bound of each tree.
    pub max_depth: usize,
    /// Shrinkage.
    pub learning_rate: f64,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Row subsample fraction per tree (stochastic gradient boosting).
    pub subsample: f64,
    /// RNG seed for subsampling.
    pub seed: u64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            n_estimators: 300,
            max_depth: 6,
            learning_rate: 0.1,
            min_samples_leaf: 5,
            subsample: 0.8,
            seed: 0,
        }
    }
}

impl GbdtConfig {
    /// The paper's §6.1 grid-search winner: 8000 estimators, depth 8,
    /// learning rate 0.01.
    pub fn paper_scale() -> Self {
        GbdtConfig {
            n_estimators: 8000,
            max_depth: 8,
            learning_rate: 0.01,
            min_samples_leaf: 5,
            subsample: 0.8,
            seed: 0,
        }
    }

    fn tree_config(&self) -> TreeConfig {
        TreeConfig {
            max_depth: self.max_depth,
            min_samples_leaf: self.min_samples_leaf,
            min_samples_split: self.min_samples_leaf * 2,
            max_features: None,
        }
    }
}

fn subsample_idx(n: usize, frac: f64, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    if frac >= 1.0 {
        return idx;
    }
    idx.shuffle(rng);
    idx.truncate(((n as f64) * frac).max(1.0) as usize);
    idx
}

/// Mid-boosting training snapshot — everything needed to resume a killed
/// run and converge **bit-identically** to the uninterrupted one.
///
/// `StdRng` is not serializable, so the checkpoint does not store raw RNG
/// state; instead [`GbdtRegressor::fit_resumable`] fast-forwards a fresh
/// seeded RNG by replaying the exact `subsample_idx` draws the completed
/// rounds consumed, which is deterministic and exact.
#[derive(Debug, Clone)]
pub struct GbdtCheckpoint {
    /// The configuration the run was started with; resume rejects any
    /// mismatch (a different config would silently diverge).
    pub cfg: GbdtConfig,
    /// Training-set size the run was started on (resume sanity check).
    pub n_rows: usize,
    /// Boosting rounds completed so far.
    pub rounds_done: usize,
    /// Base prediction (target mean).
    pub base: f64,
    /// Trees fitted so far, in boosting order.
    pub trees: Vec<RegressionTree>,
}

impl GbdtCheckpoint {
    /// Serialize the full training state.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.cfg.n_estimators);
        w.put_len(self.cfg.max_depth);
        w.put_f64(self.cfg.learning_rate);
        w.put_len(self.cfg.min_samples_leaf);
        w.put_f64(self.cfg.subsample);
        w.put_u64(self.cfg.seed);
        w.put_len(self.n_rows);
        w.put_len(self.rounds_done);
        w.put_f64(self.base);
        w.put_len(self.trees.len());
        for t in &self.trees {
            t.encode(w);
        }
    }

    /// Inverse of [`Self::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let cfg = GbdtConfig {
            n_estimators: r.len()?,
            max_depth: r.len()?,
            learning_rate: r.f64()?,
            min_samples_leaf: r.len()?,
            subsample: r.f64()?,
            seed: r.u64()?,
        };
        let n_rows = r.len()?;
        let rounds_done = r.len()?;
        let base = r.f64()?;
        let n_trees = r.len()?;
        if n_trees != rounds_done {
            return Err(CodecError::Invalid(format!(
                "checkpoint claims {rounds_done} rounds but stores {n_trees} trees"
            )));
        }
        let mut trees = Vec::with_capacity(n_trees.min(r.remaining()));
        for _ in 0..n_trees {
            trees.push(RegressionTree::decode(r)?);
        }
        Ok(GbdtCheckpoint {
            cfg,
            n_rows,
            rounds_done,
            base,
            trees,
        })
    }
}

/// Squared-loss gradient boosting machine.
#[derive(Debug, Clone)]
pub struct GbdtRegressor {
    base: f64,
    trees: Vec<RegressionTree>,
    lr: f64,
    n_features: usize,
}

impl GbdtRegressor {
    /// Fit on `(xs, ys)`.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], cfg: &GbdtConfig) -> Self {
        Self::boost(xs, ys, cfg, None, |_, _| ControlFlow::Continue(()))
    }

    /// [`Self::fit`], with crash recovery: every `checkpoint_every` rounds
    /// (0 = never) the full training state is handed to `on_checkpoint`
    /// (which typically persists it), and a run restarted from a saved
    /// [`GbdtCheckpoint`] continues where it left off and produces a model
    /// bit-identical to an uninterrupted run.
    ///
    /// Resume replays two things exactly: the RNG stream (by re-running the
    /// completed rounds' `subsample_idx` draws on a fresh seeded RNG) and
    /// the incremental prediction accumulator (by re-applying each stored
    /// tree's contribution in boosting order, the same `pred[i] += lr·t(x)`
    /// float association the live loop uses — *not* `predict_row`, whose
    /// sum groups differently and would drift by an ULP).
    ///
    /// Panics if the checkpoint disagrees with `cfg` or the data size —
    /// resuming against different inputs would silently diverge.
    pub fn fit_resumable(
        xs: &[Vec<f64>],
        ys: &[f64],
        cfg: &GbdtConfig,
        resume: Option<GbdtCheckpoint>,
        checkpoint_every: usize,
        mut on_checkpoint: impl FnMut(&GbdtCheckpoint),
    ) -> Self {
        Self::boost(xs, ys, cfg, resume, |done, model| {
            if checkpoint_every > 0
                && done.is_multiple_of(checkpoint_every)
                && done < cfg.n_estimators
            {
                on_checkpoint(&GbdtCheckpoint {
                    cfg: *cfg,
                    n_rows: xs.len(),
                    rounds_done: done,
                    base: model.base,
                    trees: model.trees.clone(),
                });
            }
            ControlFlow::Continue(())
        })
    }

    /// Fit with early stopping: after each round the model is scored on
    /// `(val_xs, val_ys)` (RMSE); training stops when the validation score
    /// has not improved for `patience` rounds, and the model is truncated
    /// to its best round. Returns the model and the per-round validation
    /// RMSE curve.
    pub fn fit_with_validation(
        xs: &[Vec<f64>],
        ys: &[f64],
        val_xs: &[Vec<f64>],
        val_ys: &[f64],
        cfg: &GbdtConfig,
        patience: usize,
    ) -> (Self, Vec<f64>) {
        assert_eq!(val_xs.len(), val_ys.len(), "validation length mismatch");
        assert!(!val_xs.is_empty(), "need validation data");
        assert!(patience >= 1, "patience must be at least 1");
        let mut val_pred: Option<Vec<f64>> = None;
        let mut curve = Vec::new();
        let mut best_rmse = f64::INFINITY;
        let mut best_round = 0usize;
        let mut model = Self::boost(xs, ys, cfg, None, |done, model| {
            let val_pred = val_pred.get_or_insert_with(|| vec![model.base; val_xs.len()]);
            let tree = model.trees.last().expect("called after each round");
            for (vp, vx) in val_pred.iter_mut().zip(val_xs) {
                *vp += cfg.learning_rate * tree.predict_row(vx);
            }
            let rmse = (val_pred
                .iter()
                .zip(val_ys)
                .map(|(p, y)| (p - y) * (p - y))
                .sum::<f64>()
                / val_ys.len() as f64)
                .sqrt();
            curve.push(rmse);
            let round = done - 1;
            if rmse < best_rmse - 1e-9 {
                best_rmse = rmse;
                best_round = round;
            } else if round - best_round >= patience {
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        model.trees.truncate(best_round + 1);
        (model, curve)
    }

    /// The one boosting loop. Each feature is ranked once; every round
    /// then orders its subsample by those ranks. After each round,
    /// `after_round(rounds_done, model_so_far)` runs and may stop training.
    fn boost(
        xs: &[Vec<f64>],
        ys: &[f64],
        cfg: &GbdtConfig,
        resume: Option<GbdtCheckpoint>,
        mut after_round: impl FnMut(usize, &Self) -> ControlFlow<()>,
    ) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "cannot fit GBDT on empty data");
        let n = xs.len();
        let base = ys.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base; n];
        let tree_cfg = cfg.tree_config();
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let (trees, start_round) = match resume {
            None => (Vec::with_capacity(cfg.n_estimators), 0),
            Some(ck) => {
                assert_eq!(ck.cfg, *cfg, "checkpoint config mismatch on resume");
                assert_eq!(ck.n_rows, n, "checkpoint row count mismatch on resume");
                assert_eq!(
                    ck.base.to_bits(),
                    base.to_bits(),
                    "checkpoint base mismatch on resume"
                );
                // Fast-forward the RNG and the prediction accumulator
                // through the completed rounds.
                for tree in &ck.trees {
                    let _ = subsample_idx(n, cfg.subsample, &mut rng);
                    for i in 0..n {
                        pred[i] += cfg.learning_rate * tree.predict_row(&xs[i]);
                    }
                }
                (ck.trees, ck.rounds_done)
            }
        };
        let mut model = GbdtRegressor {
            base,
            trees,
            lr: cfg.learning_rate,
            n_features: xs[0].len(),
        };

        let cols = RankedColumns::new(xs);
        // Squared loss: g = pred − y, h = 1 ⇒ leaf = mean residual. Only
        // the subsampled rows' gradients are refreshed and read each round.
        let mut g = vec![0.0; n];
        let h = vec![1.0; n];
        for round in start_round..cfg.n_estimators {
            let rows = subsample_idx(n, cfg.subsample, &mut rng);
            for &i in &rows {
                g[i] = pred[i] - ys[i];
            }
            let mut orders = cols.orders(&rows);
            let tree = RegressionTree::fit_ranked(&cols, &mut orders, &g, &h, &tree_cfg, None);
            for i in 0..n {
                pred[i] += cfg.learning_rate * tree.predict_row(&xs[i]);
            }
            model.trees.push(tree);
            if after_round(round + 1, &model).is_break() {
                break;
            }
        }
        model
    }

    /// Predict one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.base + self.lr * self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }

    /// Prediction after only the first `k` boosting rounds (staged
    /// prediction, for learning-curve analysis).
    pub fn predict_row_staged(&self, row: &[f64], k: usize) -> f64 {
        self.base
            + self.lr
                * self
                    .trees
                    .iter()
                    .take(k)
                    .map(|t| t.predict_row(row))
                    .sum::<f64>()
    }

    /// Predict many rows.
    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Gain-based global feature importance, normalized to sum to 1.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for t in &self.trees {
            t.add_importance(&mut imp);
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Serialize: base, learning rate, then each tree as a flat node array.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.base);
        w.put_f64(self.lr);
        w.put_len(self.n_features);
        w.put_len(self.trees.len());
        for t in &self.trees {
            t.encode(w);
        }
    }

    /// Inverse of [`Self::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let base = r.f64()?;
        let lr = r.f64()?;
        let n_features = r.len()?;
        let n_trees = r.len()?;
        let mut trees = Vec::with_capacity(n_trees.min(r.remaining()));
        for _ in 0..n_trees {
            trees.push(RegressionTree::decode(r)?);
        }
        Ok(GbdtRegressor {
            base,
            trees,
            lr,
            n_features,
        })
    }
}

/// Multiclass softmax gradient boosting.
#[derive(Debug, Clone)]
pub struct GbdtClassifier {
    /// `trees[round][class]`.
    trees: Vec<Vec<RegressionTree>>,
    priors: Vec<f64>,
    lr: f64,
    n_classes: usize,
    n_features: usize,
}

fn softmax(scores: &[f64]) -> Vec<f64> {
    let m = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = scores.iter().map(|s| (s - m).exp()).collect();
    let z: f64 = exps.iter().sum();
    exps.iter().map(|e| e / z).collect()
}

impl GbdtClassifier {
    /// Fit on labels in `0..n_classes`.
    pub fn fit(xs: &[Vec<f64>], ys: &[usize], n_classes: usize, cfg: &GbdtConfig) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "cannot fit GBDT on empty data");
        assert!(n_classes >= 2, "need at least two classes");
        assert!(ys.iter().all(|&y| y < n_classes), "label out of range");
        let n = xs.len();
        // Log-prior initialization.
        let mut counts = vec![0.0f64; n_classes];
        for &y in ys {
            counts[y] += 1.0;
        }
        let priors: Vec<f64> = counts
            .iter()
            .map(|c| ((c + 1.0) / (n as f64 + n_classes as f64)).ln())
            .collect();

        let mut scores: Vec<Vec<f64>> = (0..n).map(|_| priors.clone()).collect();
        let tree_cfg = cfg.tree_config();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut all_trees = Vec::with_capacity(cfg.n_estimators);

        // One ranking per fit and one subsample order per round, shared by
        // the round's class trees; gradients are indexed by row id.
        let cols = RankedColumns::new(xs);
        let mut g = vec![0.0; n];
        let mut h = vec![0.0; n];
        for _ in 0..cfg.n_estimators {
            let rows = subsample_idx(n, cfg.subsample, &mut rng);
            let orders = cols.orders(&rows);
            let probs: Vec<Vec<f64>> = rows.iter().map(|&i| softmax(&scores[i])).collect();
            let mut round = Vec::with_capacity(n_classes);
            for k in 0..n_classes {
                for (&i, p) in rows.iter().zip(&probs) {
                    g[i] = p[k] - if ys[i] == k { 1.0 } else { 0.0 };
                    h[i] = (p[k] * (1.0 - p[k])).max(1e-6);
                }
                let tree =
                    RegressionTree::fit_ranked(&cols, &mut orders.clone(), &g, &h, &tree_cfg, None);
                for i in 0..n {
                    scores[i][k] += cfg.learning_rate * tree.predict_row(&xs[i]);
                }
                round.push(tree);
            }
            all_trees.push(round);
        }
        GbdtClassifier {
            trees: all_trees,
            priors,
            lr: cfg.learning_rate,
            n_classes,
            n_features: xs[0].len(),
        }
    }

    /// Raw class scores for one row.
    fn scores_row(&self, row: &[f64]) -> Vec<f64> {
        let mut s = self.priors.clone();
        for round in &self.trees {
            for (k, tree) in round.iter().enumerate() {
                s[k] += self.lr * tree.predict_row(row);
            }
        }
        s
    }

    /// Class probabilities for one row.
    pub fn predict_proba_row(&self, row: &[f64]) -> Vec<f64> {
        softmax(&self.scores_row(row))
    }

    /// Predicted class for one row.
    pub fn predict_row(&self, row: &[f64]) -> usize {
        let s = self.scores_row(row);
        s.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k)
            .expect("at least one class")
    }

    /// Predicted classes for many rows.
    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Gain-based global feature importance, normalized to sum to 1.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for round in &self.trees {
            for t in round {
                t.add_importance(&mut imp);
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Serialize: priors, learning rate, then `rounds × classes` trees.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_f64s(&self.priors);
        w.put_f64(self.lr);
        w.put_len(self.n_classes);
        w.put_len(self.n_features);
        w.put_len(self.trees.len());
        for round in &self.trees {
            for t in round {
                t.encode(w);
            }
        }
    }

    /// Inverse of [`Self::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let priors = r.f64s()?;
        let lr = r.f64()?;
        let n_classes = r.len()?;
        let n_features = r.len()?;
        if priors.len() != n_classes || n_classes == 0 {
            return Err(CodecError::Invalid(format!(
                "{} priors for {n_classes} classes",
                priors.len()
            )));
        }
        let n_rounds = r.len()?;
        let mut trees = Vec::with_capacity(n_rounds.min(r.remaining()));
        for _ in 0..n_rounds {
            let round: Result<Vec<_>, _> =
                (0..n_classes).map(|_| RegressionTree::decode(r)).collect();
            trees.push(round?);
        }
        Ok(GbdtClassifier {
            trees,
            priors,
            lr,
            n_classes,
            n_features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mae, weighted_f1};
    use crate::tree::reference;

    fn quick_cfg() -> GbdtConfig {
        GbdtConfig {
            n_estimators: 60,
            max_depth: 3,
            learning_rate: 0.2,
            min_samples_leaf: 2,
            subsample: 1.0,
            seed: 1,
        }
    }

    #[test]
    fn regressor_fits_linear_function() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] + 1.0).collect();
        let m = GbdtRegressor::fit(&xs, &ys, &quick_cfg());
        let pred = m.predict(&xs);
        assert!(mae(&ys, &pred) < 0.5, "mae = {}", mae(&ys, &pred));
    }

    #[test]
    fn regressor_fits_nonlinear_interaction() {
        // y = x0 · x1 — needs depth ≥ 2 interactions.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..15 {
            for j in 0..15 {
                xs.push(vec![i as f64, j as f64]);
                ys.push((i * j) as f64);
            }
        }
        let m = GbdtRegressor::fit(&xs, &ys, &quick_cfg());
        let pred = m.predict(&xs);
        let scale = ys.iter().sum::<f64>() / ys.len() as f64;
        assert!(mae(&ys, &pred) < 0.15 * scale, "mae = {}", mae(&ys, &pred));
    }

    #[test]
    fn regressor_importance_finds_signal_feature() {
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 17) as f64, (i % 2) as f64 * 100.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[1]).collect(); // only f1 matters
        let m = GbdtRegressor::fit(&xs, &ys, &quick_cfg());
        let imp = m.feature_importance();
        assert!(imp[1] > 0.9, "importance = {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regressor_constant_target() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![7.0; 20];
        let m = GbdtRegressor::fit(&xs, &ys, &quick_cfg());
        assert!((m.predict_row(&[5.0]) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn classifier_separates_three_bands() {
        let xs: Vec<Vec<f64>> = (0..150).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..150).map(|i| i / 50).collect();
        let m = GbdtClassifier::fit(&xs, &ys, 3, &quick_cfg());
        let pred = m.predict(&xs);
        assert!(weighted_f1(&ys, &pred, 3) > 0.97);
    }

    #[test]
    fn classifier_proba_sums_to_one_and_is_confident() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..100).map(|i| usize::from(i >= 50)).collect();
        let m = GbdtClassifier::fit(&xs, &ys, 2, &quick_cfg());
        let p = m.predict_proba_row(&[10.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[0] > 0.9, "p = {p:?}");
    }

    #[test]
    fn classifier_xor() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                xs.push(vec![i as f64, j as f64]);
                ys.push(usize::from((i < 5) ^ (j < 5)));
            }
        }
        let m = GbdtClassifier::fit(&xs, &ys, 2, &quick_cfg());
        let pred = m.predict(&xs);
        assert!(weighted_f1(&ys, &pred, 2) > 0.95);
    }

    #[test]
    fn early_stopping_truncates_and_tracks_best_round() {
        // Noisy linear target: validation RMSE bottoms out well before 200
        // rounds at lr 0.3.
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x[0] + ((i * 7919 % 13) as f64 - 6.0) * 20.0)
            .collect();
        let (tr_idx, va_idx): (Vec<usize>, Vec<usize>) = (0..200).partition(|i| i % 3 != 0);
        let take = |idx: &[usize]| -> (Vec<Vec<f64>>, Vec<f64>) {
            (
                idx.iter().map(|&i| xs[i].clone()).collect(),
                idx.iter().map(|&i| ys[i]).collect(),
            )
        };
        let (tx, ty) = take(&tr_idx);
        let (vx, vy) = take(&va_idx);
        let cfg = GbdtConfig {
            n_estimators: 200,
            max_depth: 4,
            learning_rate: 0.3,
            min_samples_leaf: 2,
            subsample: 1.0,
            seed: 1,
        };
        let (model, curve) = GbdtRegressor::fit_with_validation(&tx, &ty, &vx, &vy, &cfg, 10);
        assert!(
            model.n_trees() < 200,
            "should stop early, got {}",
            model.n_trees()
        );
        assert!(!curve.is_empty());
        // The retained model scores the best observed validation RMSE.
        let best = curve.iter().cloned().fold(f64::INFINITY, f64::min);
        let final_rmse = (vx
            .iter()
            .zip(&vy)
            .map(|(x, y)| (model.predict_row(x) - y).powi(2))
            .sum::<f64>()
            / vy.len() as f64)
            .sqrt();
        assert!(
            (final_rmse - best).abs() < 1e-9,
            "{final_rmse} vs best {best}"
        );
    }

    fn wavy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..160)
            .map(|i| vec![i as f64 / 8.0, ((i * 31) % 17) as f64])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0]).sin() * 40.0 + x[1] * 3.0)
            .collect();
        (xs, ys)
    }

    fn encoded(m: &GbdtRegressor) -> Vec<u8> {
        let mut w = ByteWriter::new();
        m.encode(&mut w);
        w.into_bytes()
    }

    /// The former boosting loops, which cloned each round's subsample and
    /// grew every tree with the reference builder.
    fn reference_regressor(xs: &[Vec<f64>], ys: &[f64], cfg: &GbdtConfig) -> GbdtRegressor {
        let n = xs.len();
        let base = ys.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base; n];
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut trees = Vec::new();
        for _ in 0..cfg.n_estimators {
            let rows = subsample_idx(n, cfg.subsample, &mut rng);
            let sub_xs: Vec<Vec<f64>> = rows.iter().map(|&i| xs[i].clone()).collect();
            let g: Vec<f64> = rows.iter().map(|&i| pred[i] - ys[i]).collect();
            let h = vec![1.0; rows.len()];
            let tree = reference::fit_gradients(&sub_xs, &g, &h, &cfg.tree_config(), None);
            for i in 0..n {
                pred[i] += cfg.learning_rate * tree.predict_row(&xs[i]);
            }
            trees.push(tree);
        }
        GbdtRegressor {
            base,
            trees,
            lr: cfg.learning_rate,
            n_features: xs[0].len(),
        }
    }

    fn reference_classifier(
        xs: &[Vec<f64>],
        ys: &[usize],
        n_classes: usize,
        cfg: &GbdtConfig,
    ) -> GbdtClassifier {
        let n = xs.len();
        let mut counts = vec![0.0f64; n_classes];
        for &y in ys {
            counts[y] += 1.0;
        }
        let priors: Vec<f64> = counts
            .iter()
            .map(|c| ((c + 1.0) / (n as f64 + n_classes as f64)).ln())
            .collect();
        let mut scores: Vec<Vec<f64>> = (0..n).map(|_| priors.clone()).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut trees = Vec::new();
        for _ in 0..cfg.n_estimators {
            let rows = subsample_idx(n, cfg.subsample, &mut rng);
            let sub_xs: Vec<Vec<f64>> = rows.iter().map(|&i| xs[i].clone()).collect();
            let probs: Vec<Vec<f64>> = rows.iter().map(|&i| softmax(&scores[i])).collect();
            let mut round = Vec::new();
            for k in 0..n_classes {
                let g: Vec<f64> = rows
                    .iter()
                    .zip(&probs)
                    .map(|(&i, p)| p[k] - if ys[i] == k { 1.0 } else { 0.0 })
                    .collect();
                let h: Vec<f64> = probs
                    .iter()
                    .map(|p| (p[k] * (1.0 - p[k])).max(1e-6))
                    .collect();
                let tree = reference::fit_gradients(&sub_xs, &g, &h, &cfg.tree_config(), None);
                for i in 0..n {
                    scores[i][k] += cfg.learning_rate * tree.predict_row(&xs[i]);
                }
                round.push(tree);
            }
            trees.push(round);
        }
        GbdtClassifier {
            trees,
            priors,
            lr: cfg.learning_rate,
            n_classes,
            n_features: xs[0].len(),
        }
    }

    #[test]
    fn rank_sorted_boosting_equals_the_reference_bit_for_bit() {
        for seed in 0..12u64 {
            let (xs, ys) = reference::tie_heavy_data(seed, 60 + 37 * seed as usize);
            let labels: Vec<usize> = ys
                .iter()
                .map(|&y| usize::from(y > 300.0) + usize::from(y > 700.0))
                .collect();
            let cfg = GbdtConfig {
                n_estimators: 6,
                max_depth: 2 + seed as usize % 4,
                learning_rate: 0.3,
                min_samples_leaf: [1, 5][seed as usize % 2],
                subsample: [0.5, 0.8, 1.0][seed as usize % 3],
                seed,
            };
            let reg = GbdtRegressor::fit(&xs, &ys, &cfg);
            assert_eq!(
                encoded(&reg),
                encoded(&reference_regressor(&xs, &ys, &cfg)),
                "regressor, {cfg:?}"
            );
            // Early stopping keeps a prefix of the same boosting run.
            let cut = xs.len() * 4 / 5;
            let (es, _) = GbdtRegressor::fit_with_validation(
                &xs[..cut],
                &ys[..cut],
                &xs[cut..],
                &ys[cut..],
                &cfg,
                2,
            );
            let prefix = GbdtConfig {
                n_estimators: es.n_trees(),
                ..cfg
            };
            assert_eq!(
                encoded(&es),
                encoded(&reference_regressor(&xs[..cut], &ys[..cut], &prefix)),
                "early stopping, {cfg:?}"
            );
            let mut got = ByteWriter::new();
            GbdtClassifier::fit(&xs, &labels, 3, &cfg).encode(&mut got);
            let mut want = ByteWriter::new();
            reference_classifier(&xs, &labels, 3, &cfg).encode(&mut want);
            assert_eq!(got.into_bytes(), want.into_bytes(), "classifier, {cfg:?}");
        }
    }

    #[test]
    fn resume_from_any_checkpoint_is_bit_identical() {
        // Subsampling on, so the RNG stream matters; interrupt at every
        // checkpoint the run emits and resume from each.
        let (xs, ys) = wavy_data();
        let cfg = GbdtConfig {
            n_estimators: 24,
            max_depth: 3,
            learning_rate: 0.2,
            min_samples_leaf: 2,
            subsample: 0.7,
            seed: 5,
        };
        let uninterrupted = encoded(&GbdtRegressor::fit(&xs, &ys, &cfg));
        let mut checkpoints = Vec::new();
        let _ = GbdtRegressor::fit_resumable(&xs, &ys, &cfg, None, 5, |ck| {
            checkpoints.push(ck.clone());
        });
        assert_eq!(checkpoints.len(), 4, "24 rounds / every 5 → 4 checkpoints");
        for ck in checkpoints {
            let rounds = ck.rounds_done;
            let resumed = GbdtRegressor::fit_resumable(&xs, &ys, &cfg, Some(ck), 0, |_| {});
            assert_eq!(
                encoded(&resumed),
                uninterrupted,
                "resume from round {rounds} diverged"
            );
        }
    }

    #[test]
    fn checkpoint_codec_round_trips() {
        let (xs, ys) = wavy_data();
        let cfg = GbdtConfig {
            n_estimators: 10,
            subsample: 0.6,
            seed: 3,
            ..quick_cfg()
        };
        let mut saved = None;
        let _ = GbdtRegressor::fit_resumable(&xs, &ys, &cfg, None, 4, |ck| {
            saved = Some(ck.clone());
        });
        let ck = saved.unwrap();
        let mut w = ByteWriter::new();
        ck.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = GbdtCheckpoint::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded.cfg, ck.cfg);
        assert_eq!(decoded.rounds_done, ck.rounds_done);
        assert_eq!(decoded.base.to_bits(), ck.base.to_bits());
        // Resuming from the decoded state matches the uninterrupted run.
        let want = encoded(&GbdtRegressor::fit(&xs, &ys, &cfg));
        let got = encoded(&GbdtRegressor::fit_resumable(
            &xs,
            &ys,
            &cfg,
            Some(decoded),
            0,
            |_| {},
        ));
        assert_eq!(got, want);
        // Truncated checkpoints fail cleanly.
        for cut in (0..bytes.len()).step_by(9).chain([bytes.len() - 1]) {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(GbdtCheckpoint::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn staged_prediction_converges_to_full() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..50).map(|i| i as f64 * 3.0).collect();
        let m = GbdtRegressor::fit(&xs, &ys, &quick_cfg());
        let full = m.predict_row(&[25.0]);
        assert_eq!(m.predict_row_staged(&[25.0], m.n_trees()), full);
        // Stage 0 = just the base prediction (the target mean).
        let mean = ys.iter().sum::<f64>() / 50.0;
        assert!((m.predict_row_staged(&[25.0], 0) - mean).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_config_has_paper_values() {
        let c = GbdtConfig::paper_scale();
        assert_eq!(c.n_estimators, 8000);
        assert_eq!(c.max_depth, 8);
        assert!((c.learning_rate - 0.01).abs() < 1e-12);
    }
}
