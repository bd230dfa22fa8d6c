//! The composable Lumos5G predictor (§5).
//!
//! [`Lumos5G`] binds a [`FeatureSpec`] (which feature groups to use) to a
//! [`ModelKind`] (GDBT, Seq2Seq, or one of the 3G/4G baselines) and trains
//! either a regressor or a classifier on a simulated-campaign [`Dataset`].
//! Trained models evaluate directly against a dataset — each model family
//! internally builds the representation it needs (tabular rows, sequences,
//! coordinates, or throughput history), which is what makes the framework
//! "composable": swapping models or feature groups is a one-line change.

use crate::classes::ThroughputClass;
use crate::features::FeatureSpec;
use crate::tabular::{build_sequences, build_tabular};
use lumos5g_ml::dataset::TargetScaler;
use lumos5g_ml::forest::ForestConfig;
use lumos5g_ml::{
    GbdtClassifier, GbdtConfig, GbdtRegressor, HarmonicMeanPredictor, KnnClassifier, KnnRegressor,
    OrdinaryKriging, RandomForestClassifier, RandomForestRegressor, Seq2Seq, Seq2SeqConfig,
    StandardScaler,
};
use lumos5g_sim::Dataset;

/// Seq2Seq training parameters at the framework level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seq2SeqParams {
    /// Encoder input sequence length (paper: 20).
    pub input_len: usize,
    /// Prediction horizon `k` (paper: 20).
    pub horizon: usize,
    /// Hidden units (paper: 128).
    pub hidden: usize,
    /// Stacked layers (paper: 2).
    pub layers: usize,
    /// Training epochs (paper: 2000).
    pub epochs: usize,
    /// Minibatch size (paper: 256).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Window stride when slicing training sequences.
    pub stride: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of sequences held out for early stopping (0 disables).
    pub val_fraction: f64,
    /// Epochs without validation improvement before stopping (0 disables);
    /// the best epoch's weights are restored.
    pub patience: usize,
}

impl Default for Seq2SeqParams {
    fn default() -> Self {
        Seq2SeqParams {
            input_len: 20,
            horizon: 20,
            hidden: 64,
            layers: 2,
            epochs: 40,
            batch_size: 128,
            lr: 3e-3,
            stride: 2,
            seed: 0,
            val_fraction: 0.0,
            patience: 0,
        }
    }
}

impl Seq2SeqParams {
    /// Reject shapes the model cannot train on: a zero window, horizon,
    /// stride, width, depth or minibatch would otherwise panic mid-fit (or,
    /// for `hidden`, produce a model the codec refuses to load).
    fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("input_len", self.input_len),
            ("horizon", self.horizon),
            ("stride", self.stride),
            ("hidden", self.hidden),
            ("layers", self.layers),
            ("batch_size", self.batch_size),
        ] {
            if value == 0 {
                return Err(format!("Seq2Seq {name} must be positive"));
            }
        }
        Ok(())
    }
}

/// Model family selector.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelKind {
    /// Gradient-boosted decision trees (proposed, light-weight).
    Gdbt(GbdtConfig),
    /// LSTM Seq2Seq encoder–decoder (proposed, expressive).
    Seq2Seq(Seq2SeqParams),
    /// k-nearest-neighbours baseline.
    Knn {
        /// Number of neighbours.
        k: usize,
    },
    /// Random Forest baseline \[20\].
    RandomForest(ForestConfig),
    /// Ordinary Kriging baseline \[26\] (location-only).
    Kriging {
        /// Local neighbourhood size per prediction.
        neighbors: usize,
    },
    /// Harmonic-mean history baseline \[38, 64\].
    HarmonicMean {
        /// History window length.
        window: usize,
    },
}

/// A fast GDBT config for examples/tests (the paper-scale config is
/// `GbdtConfig::paper_scale()`).
pub fn quick_gbdt() -> GbdtConfig {
    GbdtConfig {
        n_estimators: 60,
        max_depth: 4,
        learning_rate: 0.15,
        min_samples_leaf: 5,
        subsample: 0.8,
        seed: 0,
    }
}

/// A fast Seq2Seq config for examples/tests.
pub fn quick_seq2seq() -> Seq2SeqParams {
    Seq2SeqParams {
        input_len: 10,
        horizon: 5,
        hidden: 16,
        layers: 2,
        epochs: 8,
        batch_size: 32,
        lr: 5e-3,
        stride: 3,
        seed: 0,
        val_fraction: 0.0,
        patience: 0,
    }
}

/// The untrained framework object: a feature set bound to a model family.
#[derive(Debug, Clone)]
pub struct Lumos5G {
    /// Feature extraction configuration.
    pub spec: FeatureSpec,
    /// Model family and hyperparameters.
    pub model: ModelKind,
}

impl Lumos5G {
    /// Bind a feature set to a model.
    pub fn new(set: crate::features::FeatureSet, model: ModelKind) -> Self {
        Lumos5G {
            spec: FeatureSpec::new(set),
            model,
        }
    }

    /// Train a regressor on `data` (next-second throughput prediction).
    ///
    /// Non-finite feature values are rejected up front with an `Err` — a
    /// single corrupt logger sample must not panic mid-fit.
    pub fn fit_regression(&self, data: &Dataset) -> Result<TrainedRegressor, String> {
        if let ModelKind::Seq2Seq(p) = &self.model {
            p.validate()?;
        }
        data.check_finite()
            .map_err(|e| format!("non-finite training data: {e}"))?;
        match &self.model {
            ModelKind::Gdbt(cfg) => {
                let td = build_tabular(data, &self.spec);
                if td.is_empty() {
                    return Err("no usable training samples".into());
                }
                Ok(TrainedRegressor::Gdbt {
                    model: GbdtRegressor::fit(&td.xs, &td.ys, cfg),
                    spec: self.spec,
                })
            }
            ModelKind::Seq2Seq(p) => {
                let sd = build_sequences(data, &self.spec, p.input_len, p.horizon, p.stride);
                if sd.is_empty() {
                    return Err("no usable training sequences".into());
                }
                // Standardize features (fit on flattened steps) and targets.
                let flat: Vec<Vec<f64>> = sd.inputs.iter().flatten().cloned().collect();
                let x_scaler = StandardScaler::fit(&flat);
                let all_y: Vec<f64> = sd.targets.iter().flatten().copied().collect();
                let y_scaler = TargetScaler::fit(&all_y);
                let inputs: Vec<Vec<Vec<f64>>> = sd
                    .inputs
                    .iter()
                    .map(|seq| seq.iter().map(|x| x_scaler.transform_row(x)).collect())
                    .collect();
                let targets: Vec<Vec<f64>> = sd
                    .targets
                    .iter()
                    .map(|t| t.iter().map(|&y| y_scaler.transform(y)).collect())
                    .collect();
                let mut model = Seq2Seq::new(Seq2SeqConfig {
                    input_dim: self.spec.dim(),
                    hidden: p.hidden,
                    layers: p.layers,
                    horizon: p.horizon,
                    epochs: p.epochs,
                    batch_size: p.batch_size,
                    lr: p.lr,
                    teacher_forcing: 0.7,
                    clip_norm: 5.0,
                    seed: p.seed,
                });
                model.train_resumable(
                    &inputs,
                    &targets,
                    p.val_fraction,
                    p.patience,
                    None,
                    0,
                    |_| {},
                );
                Ok(TrainedRegressor::Seq2Seq {
                    model: Box::new(model),
                    x_scaler,
                    y_scaler,
                    params: *p,
                    spec: self.spec,
                })
            }
            ModelKind::Knn { k } => {
                let td = build_tabular(data, &self.spec);
                if td.is_empty() {
                    return Err("no usable training samples".into());
                }
                Ok(TrainedRegressor::Knn {
                    model: KnnRegressor::fit(&td.xs, &td.ys, *k),
                    spec: self.spec,
                })
            }
            ModelKind::RandomForest(cfg) => {
                let td = build_tabular(data, &self.spec);
                if td.is_empty() {
                    return Err("no usable training samples".into());
                }
                Ok(TrainedRegressor::RandomForest {
                    model: RandomForestRegressor::fit(&td.xs, &td.ys, cfg),
                    spec: self.spec,
                })
            }
            ModelKind::Kriging { neighbors } => {
                let td = build_tabular(data, &self.spec);
                if td.len() < 3 {
                    return Err("kriging needs at least 3 samples".into());
                }
                Ok(TrainedRegressor::Kriging {
                    model: OrdinaryKriging::fit(&td.positions, &td.ys, *neighbors),
                    spec: self.spec,
                })
            }
            ModelKind::HarmonicMean { window } => {
                Ok(TrainedRegressor::Harmonic { window: *window })
            }
        }
    }

    /// Train a classifier on `data` (3-way throughput-class prediction).
    ///
    /// GDBT, KNN and RF have native classifiers; Seq2Seq, Kriging and HM
    /// classify by bucketing their regression output, exactly like the
    /// paper's post-processing step (§6.1).
    pub fn fit_classification(&self, data: &Dataset) -> Result<TrainedClassifier, String> {
        data.check_finite()
            .map_err(|e| format!("non-finite training data: {e}"))?;
        match &self.model {
            ModelKind::Gdbt(cfg) => {
                let td = build_tabular(data, &self.spec);
                if td.is_empty() {
                    return Err("no usable training samples".into());
                }
                Ok(TrainedClassifier::GdbtNative {
                    model: GbdtClassifier::fit(&td.xs, &td.labels, ThroughputClass::COUNT, cfg),
                    spec: self.spec,
                })
            }
            ModelKind::Knn { k } => {
                let td = build_tabular(data, &self.spec);
                if td.is_empty() {
                    return Err("no usable training samples".into());
                }
                Ok(TrainedClassifier::KnnNative {
                    model: KnnClassifier::fit(&td.xs, &td.labels, ThroughputClass::COUNT, *k),
                    spec: self.spec,
                })
            }
            ModelKind::RandomForest(cfg) => {
                let td = build_tabular(data, &self.spec);
                if td.is_empty() {
                    return Err("no usable training samples".into());
                }
                Ok(TrainedClassifier::RfNative {
                    model: RandomForestClassifier::fit(
                        &td.xs,
                        &td.labels,
                        ThroughputClass::COUNT,
                        cfg,
                    ),
                    spec: self.spec,
                })
            }
            _ => Ok(TrainedClassifier::FromRegression(Box::new(
                self.fit_regression(data)?,
            ))),
        }
    }
}

/// A trained regression model with everything needed to evaluate on a
/// dataset.
#[derive(Debug, Clone)]
pub enum TrainedRegressor {
    /// GDBT.
    Gdbt {
        /// Fitted booster.
        model: GbdtRegressor,
        /// Feature spec it was trained with.
        spec: FeatureSpec,
    },
    /// Seq2Seq.
    Seq2Seq {
        /// Fitted network.
        model: Box<Seq2Seq>,
        /// Feature scaler (fit on train).
        x_scaler: StandardScaler,
        /// Target scaler (fit on train).
        y_scaler: TargetScaler,
        /// Sequence shape.
        params: Seq2SeqParams,
        /// Feature spec.
        spec: FeatureSpec,
    },
    /// KNN.
    Knn {
        /// Fitted neighbours model.
        model: KnnRegressor,
        /// Feature spec.
        spec: FeatureSpec,
    },
    /// Random Forest.
    RandomForest {
        /// Fitted forest.
        model: RandomForestRegressor,
        /// Feature spec.
        spec: FeatureSpec,
    },
    /// Ordinary Kriging (position-based).
    Kriging {
        /// Fitted interpolator.
        model: OrdinaryKriging,
        /// Feature spec (used only to build positions consistently).
        spec: FeatureSpec,
    },
    /// Harmonic mean of recent throughput history.
    Harmonic {
        /// History window.
        window: usize,
    },
}

impl TrainedRegressor {
    /// Evaluate on `data`: returns aligned `(truth, prediction)` vectors.
    pub fn eval(&self, data: &Dataset) -> (Vec<f64>, Vec<f64>) {
        match self {
            TrainedRegressor::Gdbt { model, spec } => {
                let td = build_tabular(data, spec);
                (td.ys.clone(), model.predict(&td.xs))
            }
            TrainedRegressor::Knn { model, spec } => {
                let td = build_tabular(data, spec);
                (td.ys.clone(), model.predict(&td.xs))
            }
            TrainedRegressor::RandomForest { model, spec } => {
                let td = build_tabular(data, spec);
                (td.ys.clone(), model.predict(&td.xs))
            }
            TrainedRegressor::Kriging { model, spec } => {
                let td = build_tabular(data, spec);
                let pred = td
                    .positions
                    .iter()
                    .map(|p| model.predict(p[0], p[1]))
                    .collect();
                (td.ys.clone(), pred)
            }
            TrainedRegressor::Seq2Seq {
                model,
                x_scaler,
                y_scaler,
                params,
                spec,
            } => {
                let sd =
                    build_sequences(data, spec, params.input_len, params.horizon, params.stride);
                let mut truth = Vec::with_capacity(sd.len());
                let mut pred = Vec::with_capacity(sd.len());
                for (input, target) in sd.inputs.iter().zip(&sd.targets) {
                    let scaled: Vec<Vec<f64>> =
                        input.iter().map(|x| x_scaler.transform_row(x)).collect();
                    let out = model.predict(&scaled);
                    // Next-slot evaluation: first horizon step.
                    truth.push(target[0]);
                    pred.push(y_scaler.inverse(out[0]));
                }
                (truth, pred)
            }
            TrainedRegressor::Harmonic { window } => {
                let mut truth = Vec::new();
                let mut pred = Vec::new();
                // `traces()` hands back a HashMap; iterate in sorted key
                // order so two evals of the same dataset emit bit-identical
                // output sequences (the repo-wide reproducibility invariant).
                let mut traces: Vec<_> = data.traces().into_iter().collect();
                traces.sort_unstable_by_key(|&(k, _)| k);
                for (_, trace) in traces {
                    for (t, p) in HarmonicMeanPredictor::eval_trace(&trace, *window) {
                        truth.push(t);
                        pred.push(p);
                    }
                }
                (truth, pred)
            }
        }
    }

    /// Multi-step prediction for one feature-vector history (Seq2Seq only;
    /// other models return a one-step vector).
    ///
    /// Panics on an empty history or a family with no sequence form
    /// (Kriging, HarmonicMean); the serving engine uses the non-panicking
    /// [`Self::predict_sequence_checked`] instead.
    pub fn predict_sequence(&self, history: &[Vec<f64>]) -> Vec<f64> {
        match self {
            TrainedRegressor::Kriging { .. } | TrainedRegressor::Harmonic { .. } => {
                panic!("predict_sequence is not defined for Kriging/HarmonicMean")
            }
            _ => self
                .predict_sequence_checked(history)
                .expect("non-empty history"),
        }
    }

    /// Non-panicking multi-step prediction: the serving-engine sequence
    /// path. For Seq2Seq, scales `history` with the training-time feature
    /// scaler, decodes the full `horizon`, and inverse-scales — exactly the
    /// offline [`Self::predict_sequence`] code path, so online horizons are
    /// bit-identical to offline ones. Tabular families (GDBT / KNN / RF)
    /// return a one-step vector from the last history row. Returns `None`
    /// for an empty history (a warm-up session) or a family with no
    /// sequence form (Kriging, HarmonicMean), so a short history or a
    /// hot-swapped family can never unwind a shard worker.
    pub fn predict_sequence_checked(&self, history: &[Vec<f64>]) -> Option<Vec<f64>> {
        match self {
            TrainedRegressor::Seq2Seq {
                model,
                x_scaler,
                y_scaler,
                ..
            } => {
                let scaled: Vec<Vec<f64>> =
                    history.iter().map(|x| x_scaler.transform_row(x)).collect();
                Some(
                    model
                        .predict_checked(&scaled)?
                        .into_iter()
                        .map(|z| y_scaler.inverse(z))
                        .collect(),
                )
            }
            TrainedRegressor::Gdbt { model, .. } => {
                history.last().map(|x| vec![model.predict_row(x)])
            }
            TrainedRegressor::Knn { model, .. } => {
                history.last().map(|x| vec![model.predict_row(x)])
            }
            TrainedRegressor::RandomForest { model, .. } => {
                history.last().map(|x| vec![model.predict_row(x)])
            }
            TrainedRegressor::Kriging { .. } | TrainedRegressor::Harmonic { .. } => None,
        }
    }

    /// Batched multi-step prediction over several histories at once — the
    /// serving engine's batched-decoder dispatch. Lane `i` of the result is
    /// bit-identical to `predict_sequence_checked(histories[i])` (the
    /// Seq2Seq matmuls are row-blocked, which reorders memory traffic but
    /// never per-lane floating-point operations). Returns `None` under the
    /// same conditions as the single-history form: any empty lane, or a
    /// family with no sequence form.
    pub fn predict_sequence_batch(&self, histories: &[&[Vec<f64>]]) -> Option<Vec<Vec<f64>>> {
        match self {
            TrainedRegressor::Seq2Seq {
                model,
                x_scaler,
                y_scaler,
                ..
            } => {
                if histories.iter().any(|h| h.is_empty()) {
                    return None;
                }
                let scaled: Vec<Vec<Vec<f64>>> = histories
                    .iter()
                    .map(|h| h.iter().map(|x| x_scaler.transform_row(x)).collect())
                    .collect();
                let refs: Vec<&[Vec<f64>]> = scaled.iter().map(|s| s.as_slice()).collect();
                Some(
                    model
                        .predict_batch(&refs)?
                        .into_iter()
                        .map(|lane| lane.into_iter().map(|z| y_scaler.inverse(z)).collect())
                        .collect(),
                )
            }
            _ => histories
                .iter()
                .map(|h| self.predict_sequence_checked(h))
                .collect(),
        }
    }

    /// Sequence-model hyperparameters (Seq2Seq only). Serving engines use
    /// the input length to size per-session feature-history buffers and the
    /// horizon to validate responses.
    pub fn seq2seq_params(&self) -> Option<&Seq2SeqParams> {
        match self {
            TrainedRegressor::Seq2Seq { params, .. } => Some(params),
            _ => None,
        }
    }

    /// GDBT global feature importance (None for other families).
    pub fn feature_importance(&self) -> Option<Vec<(String, f64)>> {
        match self {
            TrainedRegressor::Gdbt { model, spec } => Some(
                spec.feature_names()
                    .into_iter()
                    .zip(model.feature_importance())
                    .collect(),
            ),
            _ => None,
        }
    }

    /// The feature spec this model was trained with (`None` for the
    /// feature-free harmonic-mean baseline).
    pub fn spec(&self) -> Option<&FeatureSpec> {
        match self {
            TrainedRegressor::Gdbt { spec, .. }
            | TrainedRegressor::Seq2Seq { spec, .. }
            | TrainedRegressor::Knn { spec, .. }
            | TrainedRegressor::RandomForest { spec, .. }
            | TrainedRegressor::Kriging { spec, .. } => Some(spec),
            TrainedRegressor::Harmonic { .. } => None,
        }
    }

    /// Single-row prediction for the tabular families (GDBT / KNN / RF) —
    /// the serving-engine hot path. Uses the same `predict_row` the batch
    /// `eval` path reduces to, so an online prediction over a feature vector
    /// built by [`FeatureSpec::extract_latest`] is bit-identical to the
    /// offline one. Returns `None` for families that are not a function of
    /// a single feature row (Seq2Seq, Kriging, HarmonicMean).
    pub fn predict_one(&self, x: &[f64]) -> Option<f64> {
        match self {
            TrainedRegressor::Gdbt { model, .. } => Some(model.predict_row(x)),
            TrainedRegressor::Knn { model, .. } => Some(model.predict_row(x)),
            TrainedRegressor::RandomForest { model, .. } => Some(model.predict_row(x)),
            _ => None,
        }
    }
}

// Serving shards share trained models across worker threads behind
// `Arc<TrainedRegressor>`; a non-thread-safe field sneaking into any model
// family must fail to compile, not panic at runtime.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TrainedRegressor>();
    assert_send_sync::<TrainedClassifier>();
};

/// A trained classification model.
#[derive(Debug, Clone)]
pub enum TrainedClassifier {
    /// Native multiclass GDBT.
    GdbtNative {
        /// Fitted booster.
        model: GbdtClassifier,
        /// Feature spec.
        spec: FeatureSpec,
    },
    /// Native KNN classifier.
    KnnNative {
        /// Fitted model.
        model: KnnClassifier,
        /// Feature spec.
        spec: FeatureSpec,
    },
    /// Native Random Forest classifier.
    RfNative {
        /// Fitted forest.
        model: RandomForestClassifier,
        /// Feature spec.
        spec: FeatureSpec,
    },
    /// Regression model + class bucketing post-processing.
    FromRegression(Box<TrainedRegressor>),
}

impl TrainedClassifier {
    /// Evaluate on `data`: aligned `(truth_labels, predicted_labels)`.
    pub fn eval(&self, data: &Dataset) -> (Vec<usize>, Vec<usize>) {
        match self {
            TrainedClassifier::GdbtNative { model, spec } => {
                let td = build_tabular(data, spec);
                (td.labels.clone(), model.predict(&td.xs))
            }
            TrainedClassifier::KnnNative { model, spec } => {
                let td = build_tabular(data, spec);
                (td.labels.clone(), model.predict(&td.xs))
            }
            TrainedClassifier::RfNative { model, spec } => {
                let td = build_tabular(data, spec);
                (td.labels.clone(), model.predict(&td.xs))
            }
            TrainedClassifier::FromRegression(reg) => {
                let (truth, pred) = reg.eval(data);
                (
                    truth
                        .iter()
                        .map(|&y| ThroughputClass::of(y).index())
                        .collect(),
                    pred.iter()
                        .map(|&y| ThroughputClass::of(y).index())
                        .collect(),
                )
            }
        }
    }

    /// GDBT global feature importance (None for other families).
    pub fn feature_importance(&self) -> Option<Vec<(String, f64)>> {
        match self {
            TrainedClassifier::GdbtNative { model, spec } => Some(
                spec.feature_names()
                    .into_iter()
                    .zip(model.feature_importance())
                    .collect(),
            ),
            TrainedClassifier::FromRegression(reg) => reg.feature_importance(),
            _ => None,
        }
    }

    /// Single-row class prediction (serving hot path); `None` when the
    /// underlying family has no single-row form.
    pub fn predict_one(&self, x: &[f64]) -> Option<usize> {
        match self {
            TrainedClassifier::GdbtNative { model, .. } => Some(model.predict_row(x)),
            TrainedClassifier::KnnNative { model, .. } => Some(model.predict_row(x)),
            TrainedClassifier::RfNative { model, .. } => Some(model.predict_row(x)),
            TrainedClassifier::FromRegression(reg) => {
                reg.predict_one(x).map(|y| ThroughputClass::of(y).index())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSet;
    use lumos5g_sim::{airport, quality, run_campaign, CampaignConfig};

    fn small_data() -> Dataset {
        let area = airport(3);
        let cfg = CampaignConfig {
            passes_per_trajectory: 3,
            max_duration_s: 280,
            base_seed: 5,
            bad_gps_fraction: 0.0,
            ..Default::default()
        };
        let raw = run_campaign(&area, &cfg);
        let (clean, _) = quality::apply(&raw, &area.frame, &Default::default());
        clean
    }

    #[test]
    fn gdbt_regression_end_to_end() {
        let data = small_data();
        let m = Lumos5G::new(FeatureSet::LM, ModelKind::Gdbt(quick_gbdt()))
            .fit_regression(&data)
            .unwrap();
        let (truth, pred) = m.eval(&data);
        assert_eq!(truth.len(), pred.len());
        assert!(!truth.is_empty());
        let mae = lumos5g_ml::mae(&truth, &pred);
        // In-sample on its own training data, GDBT must do far better than
        // predicting the mean.
        let mean = truth.iter().sum::<f64>() / truth.len() as f64;
        let base: f64 = truth.iter().map(|t| (t - mean).abs()).sum::<f64>() / truth.len() as f64;
        assert!(mae < base, "mae {mae} vs baseline {base}");
    }

    #[test]
    fn gdbt_importance_covers_all_features() {
        let data = small_data();
        let m = Lumos5G::new(FeatureSet::TM, ModelKind::Gdbt(quick_gbdt()))
            .fit_regression(&data)
            .unwrap();
        let imp = m.feature_importance().unwrap();
        assert_eq!(imp.len(), FeatureSpec::new(FeatureSet::TM).dim());
        let total: f64 = imp.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn knn_and_rf_classifiers_run() {
        let data = small_data();
        for kind in [
            ModelKind::Knn { k: 5 },
            ModelKind::RandomForest(ForestConfig {
                n_trees: 20,
                ..Default::default()
            }),
        ] {
            let m = Lumos5G::new(FeatureSet::L, kind)
                .fit_classification(&data)
                .unwrap();
            let (truth, pred) = m.eval(&data);
            assert_eq!(truth.len(), pred.len());
        }
    }

    #[test]
    fn kriging_runs_on_location_only() {
        let data = small_data();
        let m = Lumos5G::new(FeatureSet::L, ModelKind::Kriging { neighbors: 12 })
            .fit_regression(&data)
            .unwrap();
        let (truth, pred) = m.eval(&data);
        assert_eq!(truth.len(), pred.len());
        assert!(pred.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn harmonic_mean_runs_without_training_data_features() {
        let data = small_data();
        let m = Lumos5G::new(FeatureSet::L, ModelKind::HarmonicMean { window: 5 })
            .fit_regression(&data)
            .unwrap();
        let (truth, pred) = m.eval(&data);
        assert_eq!(truth.len(), pred.len());
        assert!(!truth.is_empty());
    }

    #[test]
    fn degenerate_seq2seq_params_are_rejected_not_panicked_on() {
        let data = small_data();
        for name in [
            "input_len",
            "horizon",
            "stride",
            "hidden",
            "layers",
            "batch_size",
        ] {
            let mut p = quick_seq2seq();
            p.epochs = 1;
            let field = match name {
                "input_len" => &mut p.input_len,
                "horizon" => &mut p.horizon,
                "stride" => &mut p.stride,
                "hidden" => &mut p.hidden,
                "layers" => &mut p.layers,
                _ => &mut p.batch_size,
            };
            *field = 0;
            let fit = std::panic::catch_unwind(|| {
                Lumos5G::new(FeatureSet::LM, ModelKind::Seq2Seq(p)).fit_regression(&data)
            });
            match fit {
                Ok(Err(e)) => assert!(e.contains(name), "{name}: unexpected error {e}"),
                Ok(Ok(_)) => panic!("{name} = 0 trained a model"),
                Err(_) => panic!("{name} = 0 panicked"),
            }
        }
    }

    #[test]
    fn seq2seq_trains_and_predicts() {
        let data = small_data();
        let mut p = quick_seq2seq();
        p.epochs = 3; // keep the unit test fast
        let m = Lumos5G::new(FeatureSet::LM, ModelKind::Seq2Seq(p))
            .fit_regression(&data)
            .unwrap();
        let (truth, pred) = m.eval(&data);
        assert_eq!(truth.len(), pred.len());
        assert!(!truth.is_empty());
        // Multi-step API returns `horizon` values.
        let spec = FeatureSpec::new(FeatureSet::LM);
        let recs: Vec<_> = data.records.iter().take(20).cloned().collect();
        let hist: Vec<Vec<f64>> = (0..10).map(|i| spec.extract(&recs, i).unwrap()).collect();
        assert_eq!(m.predict_sequence(&hist).len(), p.horizon);

        // The checked surface agrees bit-for-bit with the legacy one and
        // types out the empty-history case instead of panicking.
        let checked = m.predict_sequence_checked(&hist).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&checked), bits(&m.predict_sequence(&hist)));
        assert_eq!(m.predict_sequence_checked(&[]), None);
        assert_eq!(m.seq2seq_params(), Some(&p));

        // Batched inference is lane-for-lane bit-identical to singles.
        let hist2: Vec<Vec<f64>> = (3..13).map(|i| spec.extract(&recs, i).unwrap()).collect();
        let batch = m
            .predict_sequence_batch(&[hist.as_slice(), hist2.as_slice()])
            .unwrap();
        assert_eq!(bits(&batch[0]), bits(&checked));
        assert_eq!(bits(&batch[1]), bits(&m.predict_sequence(&hist2)));
        assert_eq!(m.predict_sequence_batch(&[hist.as_slice(), &[]]), None);
    }

    #[test]
    fn families_without_a_sequence_form_return_none_not_panic() {
        let data = small_data();
        let hist = vec![vec![0.0, 0.0]];
        let kriging = Lumos5G::new(FeatureSet::L, ModelKind::Kriging { neighbors: 12 })
            .fit_regression(&data)
            .unwrap();
        assert_eq!(kriging.predict_sequence_checked(&hist), None);
        assert_eq!(kriging.predict_sequence_batch(&[hist.as_slice()]), None);
        assert_eq!(kriging.seq2seq_params(), None);
        let harmonic = Lumos5G::new(FeatureSet::L, ModelKind::HarmonicMean { window: 5 })
            .fit_regression(&data)
            .unwrap();
        assert_eq!(harmonic.predict_sequence_checked(&hist), None);

        // Tabular families reduce to a one-step vector from the last row.
        let gdbt = Lumos5G::new(FeatureSet::LM, ModelKind::Gdbt(quick_gbdt()))
            .fit_regression(&data)
            .unwrap();
        let spec = FeatureSpec::new(FeatureSet::LM);
        let row = spec.extract(&data.records, 0).unwrap();
        let got = gdbt
            .predict_sequence_checked(std::slice::from_ref(&row))
            .unwrap();
        assert_eq!(got, vec![gdbt.predict_one(&row).unwrap()]);
        assert_eq!(gdbt.predict_sequence_checked(&[]), None);
    }

    #[test]
    fn fit_rejects_non_finite_samples_with_err() {
        let mut data = small_data();
        data.records[7].nr_ssrsrp_dbm = f64::NAN;
        let framework = Lumos5G::new(FeatureSet::TM, ModelKind::Gdbt(quick_gbdt()));
        let got = framework.fit_regression(&data);
        assert!(got.is_err());
        assert!(got.unwrap_err().contains("non-finite"));
        assert!(framework.fit_classification(&data).is_err());
    }

    #[test]
    fn classification_from_regression_buckets() {
        let data = small_data();
        let m = Lumos5G::new(FeatureSet::L, ModelKind::HarmonicMean { window: 5 })
            .fit_classification(&data)
            .unwrap();
        let (truth, pred) = m.eval(&data);
        assert!(truth.iter().all(|&c| c < 3));
        assert!(pred.iter().all(|&c| c < 3));
    }
}
