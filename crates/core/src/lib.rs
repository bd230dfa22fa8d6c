#![warn(missing_docs)]

//! # lumos5g
//!
//! **Lumos5G** — a composable, context-aware machine-learning framework for
//! mmWave 5G throughput prediction, reproducing Narayanan et al., *"Lumos5G:
//! Mapping and Predicting Commercial mmWave 5G Throughput"*, IMC 2020.
//!
//! The framework's central idea (§5) is that no single UE-side signal
//! explains mmWave throughput; instead, features are organized into
//! **feature groups** —
//!
//! | Group | Contents |
//! |-------|----------|
//! | `L` | pixelized geolocation (zoom-17 X/Y) |
//! | `M` | moving speed + compass direction |
//! | `T` | UE–panel distance + positional angle θp + mobility angle θm |
//! | `C` | past throughput + radio type + LTE/NR signal strength + handoffs |
//!
//! — and models are *composed* from group combinations (`L+M`, `T+M`,
//! `L+M+C`, `T+M+C`) depending on what the usage context can supply.
//! Two model families are provided: light-weight, interpretable **GDBT**
//! and an expressive **LSTM Seq2Seq** (both from `lumos5g-ml`), plus the
//! 3G/4G-era baselines (KNN, Random Forest, Ordinary Kriging, Harmonic
//! Mean) the paper compares against.
//!
//! Quick start (see `examples/quickstart.rs` at the workspace root):
//!
//! ```
//! use lumos5g::prelude::*;
//!
//! // Simulate a small campaign at the Airport area and clean it.
//! let area = lumos5g_sim::airport(7);
//! let cfg = lumos5g_sim::CampaignConfig {
//!     passes_per_trajectory: 3,
//!     max_duration_s: 300,
//!     ..Default::default()
//! };
//! let raw = lumos5g_sim::run_campaign(&area, &cfg);
//! let (data, _) = lumos5g_sim::quality::apply(&raw, &area.frame, &Default::default());
//!
//! // Train a Lumos5G GDBT regressor on the L+M feature group.
//! let model = Lumos5G::new(FeatureSet::LM, ModelKind::Gdbt(quick_gbdt()))
//!     .fit_regression(&data)
//!     .unwrap();
//! let (truth, pred) = model.eval(&data);
//! assert_eq!(truth.len(), pred.len());
//! ```

pub mod abr;
pub mod classes;
pub mod eval;
pub mod features;
pub mod map;
pub mod map_model;
pub mod persist;
pub mod predictor;
pub mod tabular;
pub mod transfer;

pub use abr::{simulate_session, Ladder, PlayerConfig, Predictor, QoeReport};
pub use classes::ThroughputClass;
pub use features::{FeatureGroup, FeatureSet, FeatureSpec};
pub use map::ThroughputMap;
pub use map_model::{map_model_eval, MapModel};
pub use persist::{load_regressor, save_regressor, PersistError};
pub use predictor::{
    quick_gbdt, quick_seq2seq, Lumos5G, ModelKind, Seq2SeqParams, TrainedRegressor,
};
pub use tabular::{build_sequences, build_tabular, TabularData};

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::classes::ThroughputClass;
    pub use crate::eval::{classification_eval, regression_eval};
    pub use crate::features::{FeatureGroup, FeatureSet, FeatureSpec};
    pub use crate::map::ThroughputMap;
    pub use crate::predictor::{quick_gbdt, quick_seq2seq, Lumos5G, ModelKind};
    pub use crate::tabular::{build_sequences, build_tabular};
}
