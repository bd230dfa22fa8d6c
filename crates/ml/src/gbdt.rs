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
use crate::team::{self, Team};
use crate::tree::{
    check_width, leaf_values, GradientGain, GradientTotals, Job, RankedColumns, RegressionTree,
    RowOrders, Shard, Split, Tree, TreeConfig,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

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

/// How many of `n` rows a round's subsample of fraction `frac` draws.
fn subsample_len(n: usize, frac: f64) -> usize {
    if frac >= 1.0 {
        n
    } else {
        ((n as f64) * frac).max(1.0) as usize
    }
}

fn subsample_idx(n: usize, frac: f64, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    if frac >= 1.0 {
        return idx;
    }
    idx.shuffle(rng);
    idx.truncate(subsample_len(n, frac));
    idx
}

/// A boosting round's subsample, every output's gradients on it, and the
/// tree grown for output `k`: what the round's team jobs read.
struct Round {
    rows: Vec<usize>,
    /// Each output's gradients and hessians by row id, refreshed for the
    /// subsampled rows only.
    grads: Vec<(Vec<f64>, Vec<f64>)>,
    k: usize,
    tree: Option<RegressionTree>,
}

impl Round {
    /// What output `k`'s tree grows from, over the fit's columns, tree
    /// limits and node split state.
    fn tree<'a>(
        &'a self,
        cols: &'a RankedColumns,
        cfg: &'a TreeConfig,
        split: &'a Split,
    ) -> Tree<'a, GradientGain<'a>> {
        let (g, h) = &self.grads[self.k];
        Tree {
            cols,
            cfg,
            crit: GradientGain { g, h },
            split,
            rows: &self.rows,
        }
    }
}

/// The one boosting loop, behind both heads: one score column per output
/// (the regressor's one, or one per class), starting from `scores`, over
/// rounds `start..n_estimators` (earlier rounds' draws are replayed).
///
/// Each round draws its subsample; `gradients(i, s, grads)` turns row `i`'s
/// scores `s` at the start of the round (it may overwrite them) into row
/// `i` of each output's gradients and hessians. Then each output in turn
/// grows a tree on them and adds `lr·tree` to its column. `after_round`
/// gets the rounds done and the round's trees, and may stop training.
///
/// Features are ranked once per fit and the subsample ordered once per
/// round; later outputs' trees restore the shards' kept orders. One team
/// of `workers` (at most one per feature) serves the whole fit: orders and
/// tree growth are cut by feature and score updates by row, with each
/// row's arithmetic as on one thread, so the model is the same, bit for
/// bit, for any team.
fn boost(
    workers: usize,
    xs: &[Vec<f64>],
    cfg: &GbdtConfig,
    scores: Vec<Vec<f64>>,
    start: usize,
    gradients: impl Fn(usize, &mut [f64], &mut [(Vec<f64>, Vec<f64>)]),
    mut after_round: impl FnMut(usize, Vec<RegressionTree>) -> ControlFlow<()>,
) {
    let n = xs.len();
    let outputs = scores.len();
    let tree_cfg = cfg.tree_config();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..start {
        let _ = subsample_idx(n, cfg.subsample, &mut rng);
    }
    let cols = RankedColumns::new(xs);
    let mut orders = RowOrders::new(cols.n_features(), subsample_len(n, cfg.subsample));
    let shards = orders.shards(&cols, workers, outputs > 1);
    let split = Split::new(&cols, &shards);
    let round = RwLock::new(Round {
        rows: Vec::new(),
        grads: vec![(vec![0.0; n], vec![0.0; n]); outputs],
        k: 0,
        tree: None,
    });
    // Each shard updates its own rows' scores; an entry holds an `f64`'s
    // bits, and the team's handoff orders the updates before the next
    // round reads them.
    let scores: Vec<Vec<AtomicU64>> = (scores.iter())
        .map(|col| col.iter().map(|s| AtomicU64::new(s.to_bits())).collect())
        .collect();
    let run_job = |shard: &mut Shard<'_>, job: &Job<GradientTotals>, round: &Round| {
        let Job::Predict = job else {
            return shard.work(job, &round.tree(&cols, &tree_cfg, &split));
        };
        let tree = round.tree.as_ref().expect("the round's tree is grown");
        for i in shard.rows.clone() {
            let s = &scores[round.k][i];
            let p = f64::from_bits(s.load(Ordering::Relaxed));
            let p = p + cfg.learning_rate * tree.predict_row(&xs[i]);
            s.store(p.to_bits(), Ordering::Relaxed);
        }
    };
    let read = || round.read().expect("boosting round poisoned");
    let write = || round.write().expect("boosting round poisoned");
    let helpers = |shard: &mut Shard<'_>, job: &Job<GradientTotals>| run_job(shard, job, &read());
    Team::scope(shards, &helpers, |team| {
        let mut row_scores = vec![0.0; outputs];
        for r in start..cfg.n_estimators {
            {
                let mut round = write();
                let Round { rows, grads, .. } = &mut *round;
                *rows = subsample_idx(n, cfg.subsample, &mut rng);
                for &i in rows.iter() {
                    for (s, col) in row_scores.iter_mut().zip(&scores) {
                        *s = f64::from_bits(col[i].load(Ordering::Relaxed));
                    }
                    gradients(i, &mut row_scores, grads);
                }
            }
            let mut trees = Vec::with_capacity(outputs);
            for k in 0..outputs {
                write().k = k;
                let tree = {
                    // The caller's jobs borrow this guard instead of each
                    // taking one of their own.
                    let round = read();
                    let tree = round.tree(&cols, &tree_cfg, &split);
                    let orders = if k == 0 { Job::Orders } else { Job::Restore };
                    team.run(&orders, |shard, job| shard.work(job, &tree));
                    RegressionTree::grow_on(team, &tree)
                };
                write().tree = Some(tree);
                team.run(&Job::Predict, |shard, job| run_job(shard, job, &read()));
                trees.push(write().tree.take().expect("the round's tree"));
            }
            if after_round(r + 1, trees).is_break() {
                break;
            }
        }
    });
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
        let mut trees: Vec<RegressionTree> = Vec::with_capacity(n_trees.min(r.remaining()));
        for _ in 0..n_trees {
            let tree = RegressionTree::decode(r)?;
            // A checkpoint stores no model width; its trees must agree.
            if let Some(first) = trees.first() {
                check_width(tree.n_features(), first.n_features())?;
            }
            trees.push(tree);
        }
        Ok(GbdtCheckpoint {
            cfg,
            n_rows,
            rounds_done,
            base,
            trees,
        })
    }

    /// Number of features its trees were fitted on (`None` before the
    /// first round). Resuming needs rows of exactly this width.
    pub fn n_features(&self) -> Option<usize> {
        self.trees.first().map(RegressionTree::n_features)
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
        Self::fit_on(workers(xs), xs, ys, cfg, None, |_, _| {
            ControlFlow::Continue(())
        })
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
    /// Panics if the checkpoint disagrees with `cfg`, the data size or the
    /// row width — resuming against different inputs would silently
    /// diverge, or index past the end of a row.
    pub fn fit_resumable(
        xs: &[Vec<f64>],
        ys: &[f64],
        cfg: &GbdtConfig,
        resume: Option<GbdtCheckpoint>,
        checkpoint_every: usize,
        mut on_checkpoint: impl FnMut(&GbdtCheckpoint),
    ) -> Self {
        Self::fit_on(workers(xs), xs, ys, cfg, resume, |done, model| {
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
        let mut model = Self::fit_on(workers(xs), xs, ys, cfg, None, |done, model| {
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

    /// The regressor's boosting on a team of `workers`, resumed from
    /// `resume` if given. After each round, `after_round(rounds_done,
    /// model_so_far)` runs and may stop training.
    fn fit_on(
        workers: usize,
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

        let (trees, start) = match resume {
            None => (Vec::with_capacity(cfg.n_estimators), 0),
            Some(ck) => {
                assert_eq!(ck.cfg, *cfg, "checkpoint config mismatch on resume");
                assert_eq!(ck.n_rows, n, "checkpoint row count mismatch on resume");
                assert_eq!(
                    ck.base.to_bits(),
                    base.to_bits(),
                    "checkpoint base mismatch on resume"
                );
                if let Some(width) = ck.n_features() {
                    assert_eq!(
                        width,
                        xs[0].len(),
                        "checkpoint trees are {width} features wide but the rows are {}",
                        xs[0].len()
                    );
                }
                // Fast-forward the prediction accumulator through the
                // completed rounds; the loop replays their RNG draws.
                for tree in &ck.trees {
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
        // Squared loss: g = pred − y, h = 1 ⇒ leaf = mean residual.
        let gradients = |i: usize, s: &mut [f64], grads: &mut [(Vec<f64>, Vec<f64>)]| {
            let (g, h) = &mut grads[0];
            (g[i], h[i]) = (s[0] - ys[i], 1.0);
        };
        let scores = vec![pred];
        boost(workers, xs, cfg, scores, start, gradients, |done, trees| {
            model.trees.extend(trees);
            after_round(done, &model)
        });
        model
    }

    /// Predict one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.predict_row_staged(row, self.trees.len())
    }

    /// Prediction after only the first `k` boosting rounds (staged
    /// prediction, for learning-curve analysis).
    pub fn predict_row_staged(&self, row: &[f64], k: usize) -> f64 {
        // The trees' values are added in tree order from `-0.0`, as
        // `Iterator::sum` adds them.
        let mut sum = -0.0;
        leaf_values(&self.trees[..k.min(self.trees.len())], row, |_, v| sum += v);
        self.base + self.lr * sum
    }

    /// Predict many rows.
    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Gain-based global feature importance, normalized to sum to 1.
    pub fn feature_importance(&self) -> Vec<f64> {
        importance(self.n_features, &self.trees)
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features the model was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
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
            let tree = RegressionTree::decode(r)?;
            check_width(tree.n_features(), n_features)?;
            trees.push(tree);
        }
        Ok(GbdtRegressor {
            base,
            trees,
            lr,
            n_features,
        })
    }
}

/// The split gains of `trees` per feature, normalized to sum to 1.
fn importance<'a>(
    n_features: usize,
    trees: impl IntoIterator<Item = &'a RegressionTree>,
) -> Vec<f64> {
    let mut imp = vec![0.0; n_features];
    for t in trees {
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

/// The team size of a fit over `xs`: [`team::size`] of its width.
fn workers(xs: &[Vec<f64>]) -> usize {
    team::size(xs.first().map_or(0, Vec::len))
}

/// Multiclass softmax gradient boosting.
#[derive(Debug, Clone)]
pub struct GbdtClassifier {
    /// Round after round, one tree per class: class `k`'s tree of round
    /// `r` is `trees[r · n_classes + k]`.
    trees: Vec<RegressionTree>,
    priors: Vec<f64>,
    lr: f64,
    n_classes: usize,
    n_features: usize,
}

/// Overwrite class scores with their softmax probabilities.
fn softmax(p: &mut [f64]) {
    let m = p.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for v in p.iter_mut() {
        *v = (*v - m).exp();
    }
    let z: f64 = p.iter().sum();
    for v in p.iter_mut() {
        *v /= z;
    }
}

impl GbdtClassifier {
    /// Fit on labels in `0..n_classes`.
    pub fn fit(xs: &[Vec<f64>], ys: &[usize], n_classes: usize, cfg: &GbdtConfig) -> Self {
        Self::fit_on(workers(xs), xs, ys, n_classes, cfg)
    }

    /// [`Self::fit`] on a team of `workers`: each round's class trees grow
    /// one after another, each across the team.
    fn fit_on(
        workers: usize,
        xs: &[Vec<f64>],
        ys: &[usize],
        n_classes: usize,
        cfg: &GbdtConfig,
    ) -> Self {
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

        // Softmax loss: g = p − 1[y = k], h = p(1 − p) ⇒ Newton leaves.
        let gradients = |i: usize, p: &mut [f64], grads: &mut [(Vec<f64>, Vec<f64>)]| {
            softmax(p);
            for (k, (&p, (g, h))) in p.iter().zip(grads).enumerate() {
                g[i] = p - if ys[i] == k { 1.0 } else { 0.0 };
                h[i] = (p * (1.0 - p)).max(1e-6);
            }
        };
        let scores = priors.iter().map(|&p| vec![p; n]).collect();
        let mut trees = Vec::with_capacity(cfg.n_estimators * n_classes);
        boost(workers, xs, cfg, scores, 0, gradients, |_, round| {
            trees.extend(round);
            ControlFlow::Continue(())
        });
        GbdtClassifier {
            trees,
            priors,
            lr: cfg.learning_rate,
            n_classes,
            n_features: xs[0].len(),
        }
    }

    /// Raw class scores for one row.
    fn scores_row(&self, row: &[f64]) -> Vec<f64> {
        let mut s = self.priors.clone();
        leaf_values(&self.trees, row, |t, v| {
            s[t % self.n_classes] += self.lr * v
        });
        s
    }

    /// Class probabilities for one row.
    pub fn predict_proba_row(&self, row: &[f64]) -> Vec<f64> {
        let mut p = self.scores_row(row);
        softmax(&mut p);
        p
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
        importance(self.n_features, &self.trees)
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of features the model was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Serialize: priors, learning rate, then `rounds × classes` trees.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_f64s(&self.priors);
        w.put_f64(self.lr);
        w.put_len(self.n_classes);
        w.put_len(self.n_features);
        w.put_len(self.trees.len() / self.n_classes);
        for t in &self.trees {
            t.encode(w);
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
        let n_trees = n_rounds.saturating_mul(n_classes);
        let mut trees = Vec::with_capacity(n_trees.min(r.remaining()));
        for _ in 0..n_trees {
            let tree = RegressionTree::decode(r)?;
            check_width(tree.n_features(), n_features)?;
            trees.push(tree);
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
            let mut probs = scores.clone();
            probs.iter_mut().for_each(|p| softmax(p));
            let probs: Vec<&Vec<f64>> = rows.iter().map(|&i| &probs[i]).collect();
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
            trees.extend(round);
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
        let mut rare_left_out = false;
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
            let want = encoded(&reference_regressor(&xs, &ys, &cfg));
            // One worker, some, and more than the 7 features.
            for workers in [1, 2, 3, 4, 9] {
                let reg = GbdtRegressor::fit_on(workers, &xs, &ys, &cfg, None, |_, _| {
                    ControlFlow::Continue(())
                });
                assert_eq!(encoded(&reg), want, "{workers}-worker regressor, {cfg:?}");
            }
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
            // Two to five classes: each class tree grows from the round's
            // orders, restored after the class before it.
            for n_classes in 2..=5 {
                let labels = if n_classes == 3 {
                    labels.clone()
                } else {
                    quantile_labels(&ys, n_classes)
                };
                assert_classifier_matches_reference(&xs, &labels, n_classes, &cfg);
            }
            // One row alone in the last class: a round that leaves it out
            // fits that class's tree on an all-negative subsample.
            let rare = seed as usize % xs.len();
            let mut labels = quantile_labels(&ys, 3);
            labels[rare] = 3;
            assert_classifier_matches_reference(&xs, &labels, 4, &cfg);
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            rare_left_out |= (0..cfg.n_estimators)
                .any(|_| !subsample_idx(xs.len(), cfg.subsample, &mut rng).contains(&rare));
        }
        assert!(rare_left_out, "no round left the rare class out");
    }

    /// Labels in `0..n_classes` cut at equal-count quantiles of `ys`.
    fn quantile_labels(ys: &[f64], n_classes: usize) -> Vec<usize> {
        let mut sorted = ys.to_vec();
        sorted.sort_by(f64::total_cmp);
        let cuts: Vec<f64> = (1..n_classes)
            .map(|c| sorted[c * sorted.len() / n_classes])
            .collect();
        ys.iter()
            .map(|&y| cuts.iter().filter(|&&c| y >= c).count())
            .collect()
    }

    fn assert_classifier_matches_reference(
        xs: &[Vec<f64>],
        labels: &[usize],
        n_classes: usize,
        cfg: &GbdtConfig,
    ) {
        let mut want = ByteWriter::new();
        reference_classifier(xs, labels, n_classes, cfg).encode(&mut want);
        let want = want.into_bytes();
        // One worker, some, and more than the classes and the 7 features.
        for workers in [1, 2, 3, 4, 9] {
            let mut got = ByteWriter::new();
            GbdtClassifier::fit_on(workers, xs, labels, n_classes, cfg).encode(&mut got);
            assert_eq!(
                got.into_bytes(),
                want,
                "{workers}-worker {n_classes}-class classifier, {cfg:?}"
            );
        }
    }

    /// The node walk's prediction after `m`'s first `k` trees, summed as
    /// `predict_row_staged` summed them over node lists.
    fn node_walk_staged(m: &GbdtRegressor, k: usize) -> impl Fn(&[f64]) -> f64 + '_ {
        let nodes: Vec<_> = m
            .trees
            .iter()
            .take(k)
            .map(reference::regression_nodes)
            .collect();
        move |row| m.base + m.lr * nodes.iter().map(|n| *reference::leaf(n, row)).sum::<f64>()
    }

    /// The node walk's class scores, accumulated as `scores_row` did over
    /// `trees[round][class]`.
    fn node_walk_scores(m: &GbdtClassifier) -> impl Fn(&[f64]) -> Vec<f64> + '_ {
        let nodes: Vec<_> = m.trees.iter().map(reference::regression_nodes).collect();
        move |row| {
            let mut s = m.priors.clone();
            for round in nodes.chunks(m.n_classes) {
                for (k, tree) in round.iter().enumerate() {
                    s[k] += m.lr * reference::leaf(tree, row);
                }
            }
            s
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn flat_forest_predictions_equal_the_node_walks_bit_for_bit() {
        for seed in 0..4u64 {
            let (xs, ys) = reference::tie_heavy_data(seed, 80 + 29 * seed as usize);
            let rows = reference::probe_rows(&xs);
            // 21 trees: two full walks of eight, then five trees alone.
            let cfg = GbdtConfig {
                n_estimators: 21,
                max_depth: 2 + seed as usize,
                learning_rate: 0.3,
                min_samples_leaf: 2,
                subsample: 0.8,
                seed,
            };
            let fresh = GbdtRegressor::fit(&xs, &ys, &cfg);
            let decoded = GbdtRegressor::decode(&mut ByteReader::new(&encoded(&fresh))).unwrap();
            for m in [&fresh, &decoded] {
                for k in [0, 1, 7, 8, 9, 16, 21, 30] {
                    let want = node_walk_staged(m, k);
                    for row in &rows {
                        let got = m.predict_row_staged(row, k);
                        assert_eq!(got.to_bits(), want(row).to_bits(), "{k} trees, {row:?}");
                    }
                }
                let want = node_walk_staged(m, m.n_trees());
                for row in &rows {
                    assert_eq!(m.predict_row(row).to_bits(), want(row).to_bits(), "{row:?}");
                }
            }
            for n_classes in 2..=5 {
                let labels = quantile_labels(&ys, n_classes);
                let fresh = GbdtClassifier::fit(&xs, &labels, n_classes, &cfg);
                let mut w = ByteWriter::new();
                fresh.encode(&mut w);
                let decoded = GbdtClassifier::decode(&mut ByteReader::new(&w.into_bytes()));
                for m in [&fresh, &decoded.unwrap()] {
                    let want = node_walk_scores(m);
                    for row in &rows {
                        let mut p = want(row);
                        assert_eq!(bits(&m.scores_row(row)), bits(&p), "{n_classes} classes");
                        softmax(&mut p);
                        assert_eq!(bits(&m.predict_proba_row(row)), bits(&p));
                    }
                }
            }
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

    /// A one-split tree over 5 features that splits on feature 4.
    fn put_wide_tree(w: &mut ByteWriter) {
        w.put_len(5); // n_features
        w.put_len(3); // nodes
        w.put_u8(1);
        w.put_len(4);
        w.put_f64(0.5);
        w.put_f64(1.0);
        w.put_len(1);
        w.put_len(2);
        for value in [1.0, 2.0] {
            w.put_u8(0);
            w.put_f64(value);
        }
    }

    #[test]
    fn regressor_decode_rejects_trees_wider_than_the_model() {
        // predict_row(&[0.0, 0.0]) would index feature 4 of a 2-wide row.
        let mut w = ByteWriter::new();
        w.put_f64(0.0); // base
        w.put_f64(0.1); // lr
        w.put_len(2); // n_features
        w.put_len(1); // trees
        put_wide_tree(&mut w);
        let bytes = w.into_bytes();
        let got = GbdtRegressor::decode(&mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(CodecError::Invalid(_))), "{got:?}");
    }

    #[test]
    fn classifier_decode_rejects_trees_wider_than_the_model() {
        let mut w = ByteWriter::new();
        w.put_f64s(&[0.0, 0.0]); // priors
        w.put_f64(0.1); // lr
        w.put_len(2); // n_classes
        w.put_len(2); // n_features
        w.put_len(1); // rounds
        put_wide_tree(&mut w);
        put_wide_tree(&mut w);
        let bytes = w.into_bytes();
        let got = GbdtClassifier::decode(&mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(CodecError::Invalid(_))), "{got:?}");
    }

    fn wide_tree() -> RegressionTree {
        let mut w = ByteWriter::new();
        put_wide_tree(&mut w);
        RegressionTree::decode(&mut ByteReader::new(&w.into_bytes())).unwrap()
    }

    /// A checkpoint of the first round over `wavy_data`'s 2-wide rows.
    fn first_round_checkpoint() -> (Vec<Vec<f64>>, Vec<f64>, GbdtCheckpoint) {
        let (xs, ys) = wavy_data();
        let cfg = GbdtConfig {
            n_estimators: 3,
            ..quick_cfg()
        };
        let mut saved = None;
        let _ = GbdtRegressor::fit_resumable(&xs, &ys, &cfg, None, 1, |ck| {
            saved.get_or_insert_with(|| ck.clone());
        });
        (xs, ys, saved.expect("a checkpoint after round 1"))
    }

    #[test]
    fn checkpoint_decode_rejects_trees_of_different_widths() {
        let (_, _, mut ck) = first_round_checkpoint();
        assert_eq!(ck.n_features(), Some(2));
        ck.trees.push(wide_tree());
        ck.rounds_done = 2;
        let mut w = ByteWriter::new();
        ck.encode(&mut w);
        let bytes = w.into_bytes();
        let got = GbdtCheckpoint::decode(&mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(CodecError::Invalid(_))), "{got:?}");
    }

    #[test]
    #[should_panic(expected = "checkpoint trees are 5 features wide but the rows are 2")]
    fn resume_refuses_a_checkpoint_wider_than_the_rows() {
        let (xs, ys, mut ck) = first_round_checkpoint();
        ck.trees = vec![wide_tree()];
        let cfg = ck.cfg;
        let _ = GbdtRegressor::fit_resumable(&xs, &ys, &cfg, Some(ck), 0, |_| {});
    }

    #[test]
    fn paper_scale_config_has_paper_values() {
        let c = GbdtConfig::paper_scale();
        assert_eq!(c.n_estimators, 8000);
        assert_eq!(c.max_depth, 8);
        assert!((c.learning_rate - 0.01).abs() < 1e-12);
    }
}
