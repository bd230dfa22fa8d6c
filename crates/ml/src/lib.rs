#![warn(missing_docs)]

//! # lumos5g-ml
//!
//! From-scratch machine-learning substrate for the Lumos5G reproduction.
//!
//! The paper's evaluation (§6) pits its two proposed model families against
//! four baselines from the 3G/4G literature. The Rust ecosystem offers none
//! of these offline, so this crate implements all of them:
//!
//! **Proposed (Lumos5G §5.2)**
//! - [`gbdt`]: gradient-boosted decision trees — regression (squared loss)
//!   and multiclass classification (softmax), with gain-based global feature
//!   importance (App A.2).
//! - [`nn`]: an LSTM **Seq2Seq encoder–decoder** trained with Adam and BPTT,
//!   predicting an arbitrary-length future throughput sequence from a
//!   feature-vector history (Fig 15).
//!
//! **Baselines (§6.3)**
//! - [`forest`]: Random Forest (Alimpertis et al., WWW '19 \[20\]).
//! - [`knn`][]: k-nearest-neighbours.
//! - [`kriging`]: Ordinary Kriging geospatial interpolation (SpecSense \[26\]).
//! - [`harmonic`]: harmonic-mean-of-history predictor (FESTIVE/MPC \[38, 64\]).
//!
//! Support modules: [`linalg`] (dense solve for the Kriging system),
//! [`tree`] (CART, shared by GBDT and RF), [`dataset`] (splits and scalers),
//! [`metrics`] (MAE/RMSE/weighted-F1/recall — the paper's metrics) and
//! [`codec`] (byte-level primitives behind `lumos5g-core::persist`).

pub mod codec;
pub mod dataset;
pub mod forest;
pub mod gbdt;
pub mod harmonic;
pub mod kdtree;
pub mod knn;
pub mod kriging;
pub mod linalg;
pub mod metrics;
pub mod nn;
mod team;
pub mod tree;

pub use dataset::{train_test_split, StandardScaler};
pub use forest::{RandomForestClassifier, RandomForestRegressor};
pub use gbdt::{GbdtCheckpoint, GbdtClassifier, GbdtConfig, GbdtRegressor};
pub use harmonic::HarmonicMeanPredictor;
pub use knn::{KnnClassifier, KnnRegressor};
pub use kriging::OrdinaryKriging;
pub use metrics::{confusion_matrix, mae, rmse, weighted_f1, ClassificationReport};
pub use nn::seq2seq::{Seq2Seq, Seq2SeqConfig, Seq2SeqTrainState};
pub use tree::{ClassificationTree, RegressionTree, TreeConfig};
