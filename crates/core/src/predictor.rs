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
use crate::tabular::{build_sequences, build_tabular, SequenceData, TabularData};
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
    /// for `hidden`, produce a model the codec refuses to load), and a
    /// learning rate that is not positive and finite.
    pub(crate) fn validate(&self) -> Result<(), String> {
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
        check_rate("Seq2Seq lr", self.lr)
    }
}

/// Reject a learning rate that cannot give a finite model: a NaN or
/// infinite step makes every weight or leaf non-finite, and a step of zero
/// or less never learns.
fn check_rate(name: &str, rate: f64) -> Result<(), String> {
    if rate.is_finite() && rate > 0.0 {
        Ok(())
    } else {
        Err(format!("{name} must be positive and finite, not {rate}"))
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

impl ModelKind {
    /// Reject hyperparameters no model can be trained from, before any data
    /// is touched.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match self {
            ModelKind::Seq2Seq(p) => p.validate(),
            ModelKind::Gdbt(cfg) => check_rate("GDBT learning_rate", cfg.learning_rate),
            // A forest without trees predicts 0/0 = NaN (or always the last
            // class), and its saved file fails to load.
            ModelKind::RandomForest(cfg) if cfg.n_trees == 0 => {
                Err("Random Forest n_trees must be positive".into())
            }
            _ => Ok(()),
        }
    }

    /// True for the families that classify by bucketing their regression
    /// output (§6.1) — Seq2Seq, Kriging and HM; GDBT, KNN and RF have
    /// native classifiers.
    pub(crate) fn buckets_regression(&self) -> bool {
        !matches!(
            self,
            ModelKind::Gdbt(_) | ModelKind::Knn { .. } | ModelKind::RandomForest(_)
        )
    }
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

/// The one Seq2Seq fit behind served models, table cells and the horizon
/// demo: standardizes features (fit on the flattened steps of `train`) and
/// targets, builds the network for `spec` and `p`, and hands the scaled set
/// to `trainer`, which must train with `p`'s early-stopping settings —
/// [`train_in_memory`] straight through, or a checkpointing trainer that
/// also resumes. `train` must be non-empty.
pub fn fit_seq2seq(
    train: &SequenceData,
    spec: &FeatureSpec,
    p: &Seq2SeqParams,
    trainer: impl FnOnce(&mut Seq2Seq, &SequenceData, &Seq2SeqParams),
) -> TrainedRegressor {
    let flat: Vec<Vec<f64>> = train.inputs.iter().flatten().cloned().collect();
    let x_scaler = StandardScaler::fit(&flat);
    let all_y: Vec<f64> = train.targets.iter().flatten().copied().collect();
    let y_scaler = TargetScaler::fit(&all_y);
    let scaled = SequenceData {
        inputs: train
            .inputs
            .iter()
            .map(|seq| seq.iter().map(|x| x_scaler.transform_row(x)).collect())
            .collect(),
        targets: train
            .targets
            .iter()
            .map(|t| t.iter().map(|&y| y_scaler.transform(y)).collect())
            .collect(),
    };
    let mut model = Seq2Seq::new(Seq2SeqConfig {
        input_dim: spec.dim(),
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
    trainer(&mut model, &scaled, p);
    TrainedRegressor::Seq2Seq {
        model: Box::new(model),
        x_scaler,
        y_scaler,
        params: *p,
        spec: *spec,
    }
}

/// The default [`fit_seq2seq`] trainer: early-stopped by `p`, no
/// checkpoints.
pub fn train_in_memory(model: &mut Seq2Seq, train: &SequenceData, p: &Seq2SeqParams) {
    model.train_resumable(
        &train.inputs,
        &train.targets,
        p.val_fraction,
        p.patience,
        None,
        0,
        |_| {},
    );
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
        self.check(data)?;
        match &self.model {
            ModelKind::Seq2Seq(p) => {
                let sd = build_sequences(data, &self.spec, p.input_len, p.horizon, p.stride);
                if sd.is_empty() {
                    return Err("no usable training sequences".into());
                }
                Ok(fit_seq2seq(&sd, &self.spec, p, train_in_memory))
            }
            ModelKind::HarmonicMean { window } => {
                Ok(TrainedRegressor::Harmonic { window: *window })
            }
            _ => self.fit_regressor_rows(&build_tabular(data, &self.spec)),
        }
    }

    /// Train a classifier on `data` (3-way throughput-class prediction).
    ///
    /// GDBT, KNN and RF have native classifiers; Seq2Seq, Kriging and HM
    /// classify by bucketing their regression output, exactly like the
    /// paper's post-processing step (§6.1).
    pub fn fit_classification(&self, data: &Dataset) -> Result<TrainedClassifier, String> {
        if self.model.buckets_regression() {
            return Ok(TrainedClassifier::FromRegression(Box::new(
                self.fit_regression(data)?,
            )));
        }
        self.check(data)?;
        self.fit_classifier_rows(&build_tabular(data, &self.spec))
    }

    /// Reject what no model can be trained from, before any work: invalid
    /// hyperparameters, then a non-finite sample (a single corrupt logger
    /// sample must not panic mid-fit or score as NaN).
    pub(crate) fn check(&self, data: &Dataset) -> Result<(), String> {
        self.model.validate()?;
        data.check_finite()
            .map_err(|e| format!("non-finite training data: {e}"))
    }

    /// The one guard on a tabular training set.
    fn check_rows(&self, train: &TabularData) -> Result<(), String> {
        match self.model {
            ModelKind::Kriging { .. } if train.len() < 3 => {
                Err("kriging needs at least 3 samples".into())
            }
            _ if train.is_empty() => Err("no usable training samples".into()),
            _ => Ok(()),
        }
    }

    /// Fit the regressor of a tabular family (GDBT, KNN, RF, Kriging) on
    /// `train`: the one per-family regression fit behind served models and
    /// table cells. Seq2Seq and HM do not train on rows.
    pub(crate) fn fit_regressor_rows(
        &self,
        train: &TabularData,
    ) -> Result<TrainedRegressor, String> {
        self.check_rows(train)?;
        let spec = self.spec;
        Ok(match &self.model {
            ModelKind::Gdbt(cfg) => TrainedRegressor::Gdbt {
                model: GbdtRegressor::fit(&train.xs, &train.ys, cfg),
                spec,
            },
            ModelKind::Knn { k } => TrainedRegressor::Knn {
                model: KnnRegressor::fit(&train.xs, &train.ys, *k),
                spec,
            },
            ModelKind::RandomForest(cfg) => TrainedRegressor::RandomForest {
                model: RandomForestRegressor::fit(&train.xs, &train.ys, cfg),
                spec,
            },
            ModelKind::Kriging { neighbors } => TrainedRegressor::Kriging {
                model: OrdinaryKriging::fit(&train.positions, &train.ys, *neighbors),
                spec,
            },
            ModelKind::Seq2Seq(_) | ModelKind::HarmonicMean { .. } => {
                return Err("Seq2Seq and Harmonic Mean do not train on tabular rows".into())
            }
        })
    }

    /// Fit the classifier of a tabular family on `train`: the one per-family
    /// classification fit. Kriging buckets its regressor's output.
    pub(crate) fn fit_classifier_rows(
        &self,
        train: &TabularData,
    ) -> Result<TrainedClassifier, String> {
        self.check_rows(train)?;
        let (xs, labels, n) = (&train.xs, &train.labels, ThroughputClass::COUNT);
        let spec = self.spec;
        Ok(match &self.model {
            ModelKind::Gdbt(cfg) => TrainedClassifier::GdbtNative {
                model: GbdtClassifier::fit(xs, labels, n, cfg),
                spec,
            },
            ModelKind::Knn { k } => TrainedClassifier::KnnNative {
                model: KnnClassifier::fit(xs, labels, n, *k),
                spec,
            },
            ModelKind::RandomForest(cfg) => TrainedClassifier::RfNative {
                model: RandomForestClassifier::fit(xs, labels, n, cfg),
                spec,
            },
            _ => TrainedClassifier::FromRegression(Box::new(self.fit_regressor_rows(train)?)),
        })
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
            TrainedRegressor::Gdbt { spec, .. }
            | TrainedRegressor::Knn { spec, .. }
            | TrainedRegressor::RandomForest { spec, .. }
            | TrainedRegressor::Kriging { spec, .. } => {
                let td = build_tabular(data, spec);
                let pred = self.predict_rows(&td);
                (td.ys, pred)
            }
            TrainedRegressor::Seq2Seq { params, spec, .. } => self.eval_next_slot(
                &build_sequences(data, spec, params.input_len, params.horizon, params.stride),
            ),
            TrainedRegressor::Harmonic { window } => {
                let mut truth = Vec::new();
                let mut pred = Vec::new();
                for trace in data.traces().into_values() {
                    for (t, p) in HarmonicMeanPredictor::eval_trace(&trace, *window) {
                        truth.push(t);
                        pred.push(p);
                    }
                }
                (truth, pred)
            }
        }
    }

    /// Predictions for tabular rows: the one per-family predict step of the
    /// tabular families (GDBT / KNN / RF from features, Kriging from
    /// positions). Panics for Seq2Seq and HM, which do not predict from
    /// single rows.
    pub(crate) fn predict_rows(&self, rows: &TabularData) -> Vec<f64> {
        match self {
            TrainedRegressor::Gdbt { model, .. } => model.predict(&rows.xs),
            TrainedRegressor::Knn { model, .. } => model.predict(&rows.xs),
            TrainedRegressor::RandomForest { model, .. } => model.predict(&rows.xs),
            TrainedRegressor::Kriging { model, .. } => rows
                .positions
                .iter()
                .map(|p| model.predict(p[0], p[1]))
                .collect(),
            TrainedRegressor::Seq2Seq { .. } | TrainedRegressor::Harmonic { .. } => {
                panic!("Seq2Seq and Harmonic Mean do not predict from tabular rows")
            }
        }
    }

    /// Next-slot evaluation over sequence windows: aligned `(truth,
    /// prediction)` for the first horizon step of each window.
    pub(crate) fn eval_next_slot(&self, sd: &SequenceData) -> (Vec<f64>, Vec<f64>) {
        let histories: Vec<&[Vec<f64>]> = sd.inputs.iter().map(Vec::as_slice).collect();
        let horizons = self
            .predict_sequence_batch(&histories)
            .expect("build_sequences emits non-empty histories");
        (
            sd.targets.iter().map(|t| t[0]).collect(),
            horizons.iter().map(|h| h[0]).collect(),
        )
    }

    /// Multi-step prediction for one feature-vector history (Seq2Seq only;
    /// other models return a one-step vector): the offline convenience
    /// wrapper over a one-lane [`Self::predict_sequence_batch`].
    ///
    /// Panics on an empty history or a family with no sequence form
    /// (Kriging, HarmonicMean); the serving engine calls the non-panicking
    /// batch form instead.
    pub fn predict_sequence(&self, history: &[Vec<f64>]) -> Vec<f64> {
        self.predict_sequence_batch(&[history])
            .and_then(|mut lanes| lanes.pop())
            .expect("a non-empty history and a family with a sequence form")
    }

    /// Multi-step prediction over several feature-vector histories at once
    /// — the serving engine's batched-decoder dispatch. For Seq2Seq, each
    /// history is scaled with the training-time feature scaler, decoded
    /// for the full `horizon` and inverse-scaled. Lanes decode one after
    /// another through the LSTM step kernel (see
    /// [`lumos5g_ml::Seq2Seq::predict_batch`]), so lane `i` is
    /// bit-identical to decoding `histories[i]` alone and online horizons
    /// match offline ones for any batch size; batching amortises the
    /// caller's per-dispatch work. Tabular families (GDBT / KNN / RF)
    /// return a one-step vector from each history's last row. Returns
    /// `None` for any empty history (a warm-up session) or a family with no
    /// sequence form (Kriging, HarmonicMean), so a short history or a
    /// hot-swapped family can never unwind a shard worker.
    pub fn predict_sequence_batch(&self, histories: &[&[Vec<f64>]]) -> Option<Vec<Vec<f64>>> {
        let TrainedRegressor::Seq2Seq {
            model,
            x_scaler,
            y_scaler,
            ..
        } = self
        else {
            return histories
                .iter()
                .map(|h| Some(vec![self.predict_one(h.last()?)?]))
                .collect();
        };
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
            TrainedClassifier::GdbtNative { spec, .. }
            | TrainedClassifier::KnnNative { spec, .. }
            | TrainedClassifier::RfNative { spec, .. } => {
                let td = build_tabular(data, spec);
                let pred = self.predict_rows(&td);
                (td.labels, pred)
            }
            TrainedClassifier::FromRegression(reg) => {
                let (truth, pred) = reg.eval(data);
                (
                    ThroughputClass::indices(&truth),
                    ThroughputClass::indices(&pred),
                )
            }
        }
    }

    /// Class predictions for tabular rows — see
    /// [`TrainedRegressor::predict_rows`].
    pub(crate) fn predict_rows(&self, rows: &TabularData) -> Vec<usize> {
        match self {
            TrainedClassifier::GdbtNative { model, .. } => model.predict(&rows.xs),
            TrainedClassifier::KnnNative { model, .. } => model.predict(&rows.xs),
            TrainedClassifier::RfNative { model, .. } => model.predict(&rows.xs),
            TrainedClassifier::FromRegression(reg) => {
                ThroughputClass::indices(&reg.predict_rows(rows))
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
        for lr in BAD_RATES {
            let p = Seq2SeqParams {
                lr,
                epochs: 1,
                ..quick_seq2seq()
            };
            let e = Lumos5G::new(FeatureSet::LM, ModelKind::Seq2Seq(p))
                .fit_regression(&data)
                .unwrap_err();
            assert!(e.contains("lr"), "lr = {lr}: unexpected error {e}");
        }
    }

    /// Learning rates no model can train on: non-finite, zero, negative.
    const BAD_RATES: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.1];

    #[test]
    fn zero_tree_forests_are_rejected_not_fitted() {
        let data = small_data();
        let fit = Lumos5G::new(
            FeatureSet::L,
            ModelKind::RandomForest(ForestConfig {
                n_trees: 0,
                ..Default::default()
            }),
        );
        let e = fit.fit_regression(&data).unwrap_err();
        assert!(e.contains("n_trees"), "unexpected error {e}");
        let e = fit.fit_classification(&data).unwrap_err();
        assert!(e.contains("n_trees"), "unexpected error {e}");
    }

    #[test]
    fn degenerate_gbdt_learning_rates_are_rejected_not_fitted() {
        let data = small_data();
        for learning_rate in BAD_RATES {
            let cfg = GbdtConfig {
                learning_rate,
                ..quick_gbdt()
            };
            let fit = Lumos5G::new(FeatureSet::L, ModelKind::Gdbt(cfg));
            for e in [
                fit.fit_regression(&data).map(|_| ()).unwrap_err(),
                fit.fit_classification(&data).map(|_| ()).unwrap_err(),
            ] {
                assert!(
                    e.contains("learning_rate"),
                    "learning_rate = {learning_rate}: unexpected error {e}"
                );
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

        // A one-lane batch agrees bit-for-bit with the offline wrapper and
        // types out the empty-history case instead of panicking.
        let checked = m
            .predict_sequence_batch(&[hist.as_slice()])
            .unwrap()
            .remove(0);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&checked), bits(&m.predict_sequence(&hist)));
        assert_eq!(m.predict_sequence_batch(&[&[]]), None);
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
    fn served_seq2seq_bytes_are_pinned() {
        // The served model's `.l5gm` bytes, recorded before training moved
        // behind `fit_seq2seq`: any change to scaling, configuration or
        // early stopping on the served path shows up here.
        let mut p = quick_seq2seq();
        p.val_fraction = 0.25;
        p.patience = 2;
        let m = Lumos5G::new(FeatureSet::LM, ModelKind::Seq2Seq(p))
            .fit_regression(&small_data())
            .unwrap();
        let bytes = crate::persist::encode_regressor(&m);
        assert_eq!(body_crc(&bytes), 0x3b1c_e2a1);
    }

    /// CRC32 of an encoded model's bytes before the trailing CRC32. A whole
    /// `.l5gm` file always has the CRC-32 residue `0x2144_df1c`, whatever
    /// model it holds, so a pin must leave the trailer out.
    fn body_crc(bytes: &[u8]) -> u32 {
        lumos5g_ml::codec::crc32(&bytes[..bytes.len() - 4])
    }

    #[test]
    fn served_gdbt_bytes_are_pinned() {
        // Both GDBT heads' `.l5gm` bytes, recorded while trees were still
        // stored as node lists: the flat tree arrays must encode them 1:1.
        let fit = Lumos5G::new(FeatureSet::LM, ModelKind::Gdbt(quick_gbdt()));
        let reg = fit.fit_regression(&small_data()).unwrap();
        let bytes = crate::persist::encode_regressor(&reg);
        assert_eq!(body_crc(&bytes), 0x9d5a_aab3);
        let clf = fit.fit_classification(&small_data()).unwrap();
        let bytes = crate::persist::encode_classifier(&clf);
        assert_eq!(body_crc(&bytes), 0xee53_e84f);
    }

    #[test]
    fn families_without_a_sequence_form_return_none_not_panic() {
        let data = small_data();
        let hist = vec![vec![0.0, 0.0]];
        let kriging = Lumos5G::new(FeatureSet::L, ModelKind::Kriging { neighbors: 12 })
            .fit_regression(&data)
            .unwrap();
        assert_eq!(kriging.predict_sequence_batch(&[hist.as_slice()]), None);
        assert_eq!(kriging.seq2seq_params(), None);
        let harmonic = Lumos5G::new(FeatureSet::L, ModelKind::HarmonicMean { window: 5 })
            .fit_regression(&data)
            .unwrap();
        assert_eq!(harmonic.predict_sequence_batch(&[hist.as_slice()]), None);

        // Tabular families reduce to a one-step vector from the last row.
        let gdbt = Lumos5G::new(FeatureSet::LM, ModelKind::Gdbt(quick_gbdt()))
            .fit_regression(&data)
            .unwrap();
        let spec = FeatureSpec::new(FeatureSet::LM);
        let row = spec.extract(&data.records, 0).unwrap();
        let got = gdbt
            .predict_sequence_batch(&[std::slice::from_ref(&row)])
            .unwrap()
            .remove(0);
        assert_eq!(got, vec![gdbt.predict_one(&row).unwrap()]);
        assert_eq!(gdbt.predict_sequence_batch(&[&[]]), None);
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
