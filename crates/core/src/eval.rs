//! Evaluation harness matching §6.1: 70/30 random train/test split,
//! MAE/RMSE for regression, weighted-average F1 + low-class recall for
//! classification.

use crate::classes::ThroughputClass;
use crate::features::FeatureSet;
use crate::predictor::{fit_seq2seq, train_in_memory, Lumos5G, ModelKind, Seq2SeqParams};
use crate::tabular::{build_sequences, build_tabular, SequenceData, TabularData};
use lumos5g_ml::{train_test_split, ClassificationReport, Seq2Seq};
use lumos5g_sim::Dataset;

/// Regression metrics (Table 8 cells).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressionOutcome {
    /// Mean absolute error, Mbps.
    pub mae: f64,
    /// Root mean squared error, Mbps.
    pub rmse: f64,
    /// Test samples evaluated.
    pub n_test: usize,
}

/// Classification metrics (Table 7 cells).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassificationOutcome {
    /// Support-weighted average F1.
    pub weighted_f1: f64,
    /// Recall of the low-throughput class.
    pub low_recall: f64,
    /// Plain accuracy.
    pub accuracy: f64,
    /// Test samples evaluated.
    pub n_test: usize,
}

fn reg_metrics(truth: &[f64], pred: &[f64]) -> RegressionOutcome {
    RegressionOutcome {
        mae: lumos5g_ml::mae(truth, pred),
        rmse: lumos5g_ml::rmse(truth, pred),
        n_test: truth.len(),
    }
}

fn clf_metrics(truth: &[usize], pred: &[usize]) -> ClassificationOutcome {
    let r = ClassificationReport::from_labels(truth, pred, ThroughputClass::COUNT);
    ClassificationOutcome {
        weighted_f1: r.weighted_f1,
        low_recall: r.recall[ThroughputClass::Low.index()],
        accuracy: r.accuracy,
        n_test: truth.len(),
    }
}

/// Both metrics from one set of regression predictions: the classifier
/// buckets them (§6.1).
fn bucketed_metrics(truth: &[f64], pred: &[f64]) -> (RegressionOutcome, ClassificationOutcome) {
    (
        reg_metrics(truth, pred),
        clf_metrics(
            &ThroughputClass::indices(truth),
            &ThroughputClass::indices(pred),
        ),
    )
}

/// Training-cost cap for tabular models: beyond ~20k rows the simulated
/// areas' learning curves are flat, while tree training cost grows
/// linearly. The test split is never reduced.
const MAX_TRAIN_TABULAR: usize = 20_000;

/// Training-cost cap for Seq2Seq: beyond ~5k sequences additional data
/// improves the holdout metric marginally but costs linearly.
const MAX_TRAIN_SEQ: usize = 5_000;

/// Subsample a training split evenly down to at most `cap` indices.
fn even_subsample(tr: Vec<usize>, cap: usize) -> Vec<usize> {
    if tr.len() <= cap {
        return tr;
    }
    let step = tr.len() as f64 / cap as f64;
    (0..cap).map(|k| tr[(k as f64 * step) as usize]).collect()
}

/// Bind `set` to `model` and run the served fits' checks on `data`:
/// hyperparameters, then finiteness. Every entry point starts here.
fn checked(data: &Dataset, set: FeatureSet, model: &ModelKind) -> Result<Lumos5G, String> {
    let fw = Lumos5G::new(set, model.clone());
    fw.check(data)?;
    Ok(fw)
}

/// The 70/30 tabular split of `data` under `fw`'s spec (training rows
/// capped).
fn tabular_split(
    data: &Dataset,
    fw: &Lumos5G,
    split_seed: u64,
) -> Result<(TabularData, TabularData), String> {
    let td = build_tabular(data, &fw.spec);
    if td.len() < 20 {
        return Err(format!("too few samples: {}", td.len()));
    }
    let (tr, te) = train_test_split(td.len(), 0.7, split_seed);
    Ok((
        td.select(&even_subsample(tr, MAX_TRAIN_TABULAR)),
        td.select(&te),
    ))
}

/// A checked cell's aligned `(truth, prediction)` regression pairs:
/// tabular families and Seq2Seq score the held-out 30% of a 70/30 split;
/// the Harmonic Mean baseline has no training, so it scores every trace.
fn regression_cell(
    fw: &Lumos5G,
    data: &Dataset,
    split_seed: u64,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    match &fw.model {
        ModelKind::Seq2Seq(p) => seq2seq_cell(data, fw, p, split_seed, train_in_memory),
        ModelKind::HarmonicMean { .. } => {
            let (truth, pred) = fw.fit_regression(data)?.eval(data);
            if truth.is_empty() {
                return Err("no traces to evaluate".into());
            }
            Ok((truth, pred))
        }
        _ => {
            let (train, test) = tabular_split(data, fw, split_seed)?;
            let pred = fw.fit_regressor_rows(&train)?.predict_rows(&test);
            Ok((test.ys, pred))
        }
    }
}

/// Seq2Seq's [`regression_cell`]: build sequences, split 70/30, train on
/// the (capped) 70% through [`fit_seq2seq`] with `trainer`, and predict the
/// next slot of the held-out 30%.
fn seq2seq_cell(
    data: &Dataset,
    fw: &Lumos5G,
    p: &Seq2SeqParams,
    split_seed: u64,
    trainer: impl FnOnce(&mut Seq2Seq, &SequenceData, &Seq2SeqParams),
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let sd = build_sequences(data, &fw.spec, p.input_len, p.horizon, p.stride);
    if sd.len() < 20 {
        return Err(format!("too few sequences: {}", sd.len()));
    }
    let (tr, te) = train_test_split(sd.len(), 0.7, split_seed);
    let train = sd.select(&even_subsample(tr, MAX_TRAIN_SEQ));
    Ok(fit_seq2seq(&train, &fw.spec, p, trainer).eval_next_slot(&sd.select(&te)))
}

/// Train/test a regression model under a 70/30 split (paper §6.1).
pub fn regression_eval(
    data: &Dataset,
    set: FeatureSet,
    model: &ModelKind,
    split_seed: u64,
) -> Result<RegressionOutcome, String> {
    let (truth, pred) = regression_cell(&checked(data, set, model)?, data, split_seed)?;
    Ok(reg_metrics(&truth, &pred))
}

/// Train/test a classification model under a 70/30 split.
pub fn classification_eval(
    data: &Dataset,
    set: FeatureSet,
    model: &ModelKind,
    split_seed: u64,
) -> Result<ClassificationOutcome, String> {
    let fw = checked(data, set, model)?;
    if fw.model.buckets_regression() {
        let (truth, pred) = regression_cell(&fw, data, split_seed)?;
        return Ok(bucketed_metrics(&truth, &pred).1);
    }
    let (train, test) = tabular_split(data, &fw, split_seed)?;
    let pred = fw.fit_classifier_rows(&train)?.predict_rows(&test);
    Ok(clf_metrics(&test.labels, &pred))
}

/// Run both tasks on one split. Families that classify by bucketing their
/// regression output (Seq2Seq, Kriging, Harmonic Mean) fit **once** and
/// derive both metrics from the same predictions; GDBT, KNN and RF fit
/// their two heads concurrently (they share no state or RNG), so GDBT's
/// heads boost on two teams at once, which measured faster than fitting
/// them one after the other.
pub fn eval_both(
    data: &Dataset,
    set: FeatureSet,
    model: &ModelKind,
    split_seed: u64,
) -> Result<(RegressionOutcome, ClassificationOutcome), String> {
    let fw = checked(data, set, model)?;
    if fw.model.buckets_regression() {
        let (truth, pred) = regression_cell(&fw, data, split_seed)?;
        return Ok(bucketed_metrics(&truth, &pred));
    }
    let (train, test) = tabular_split(data, &fw, split_seed)?;
    let (reg, clf) = std::thread::scope(|s| {
        let clf = s.spawn(|| {
            fw.fit_classifier_rows(&train)
                .map(|m| m.predict_rows(&test))
        });
        let reg = fw.fit_regressor_rows(&train).map(|m| m.predict_rows(&test));
        let clf = clf.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        (reg, clf)
    });
    Ok((
        reg_metrics(&test.ys, &reg?),
        clf_metrics(&test.labels, &clf?),
    ))
}

/// Both metrics of a Seq2Seq cell from one fit: build sequences, split
/// 70/30, train on the (capped) 70% through [`fit_seq2seq`] with `trainer`,
/// and score next-slot predictions on the held-out 30%.
pub fn seq2seq_eval(
    data: &Dataset,
    set: FeatureSet,
    p: &Seq2SeqParams,
    split_seed: u64,
    trainer: impl FnOnce(&mut Seq2Seq, &SequenceData, &Seq2SeqParams),
) -> Result<(RegressionOutcome, ClassificationOutcome), String> {
    let fw = checked(data, set, &ModelKind::Seq2Seq(*p))?;
    let (truth, pred) = seq2seq_cell(data, &fw, p, split_seed, trainer)?;
    Ok(bucketed_metrics(&truth, &pred))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{quick_gbdt, quick_seq2seq};
    use lumos5g_sim::{airport, quality, run_campaign, CampaignConfig};

    fn data() -> Dataset {
        let area = airport(17);
        let cfg = CampaignConfig {
            passes_per_trajectory: 4,
            max_duration_s: 280,
            base_seed: 2,
            bad_gps_fraction: 0.0,
            ..Default::default()
        };
        let raw = run_campaign(&area, &cfg);
        quality::apply(&raw, &area.frame, &Default::default()).0
    }

    #[test]
    fn gdbt_beats_location_only_knn() {
        let d = data();
        let knn_l = regression_eval(&d, FeatureSet::L, &ModelKind::Knn { k: 5 }, 1).unwrap();
        let gdbt_lm =
            regression_eval(&d, FeatureSet::LM, &ModelKind::Gdbt(quick_gbdt()), 1).unwrap();
        assert!(
            gdbt_lm.mae < knn_l.mae,
            "GDBT L+M ({:.0}) should beat KNN L ({:.0})",
            gdbt_lm.mae,
            knn_l.mae
        );
    }

    #[test]
    fn classification_scores_are_probabilities() {
        let d = data();
        let out =
            classification_eval(&d, FeatureSet::LM, &ModelKind::Gdbt(quick_gbdt()), 1).unwrap();
        assert!(out.weighted_f1 > 0.0 && out.weighted_f1 <= 1.0);
        assert!(out.low_recall >= 0.0 && out.low_recall <= 1.0);
        assert!(out.accuracy > 0.3, "accuracy = {}", out.accuracy);
    }

    #[test]
    fn kriging_only_sensible_on_l() {
        let d = data();
        let out =
            regression_eval(&d, FeatureSet::L, &ModelKind::Kriging { neighbors: 12 }, 1).unwrap();
        assert!(out.mae.is_finite());
    }

    #[test]
    fn harmonic_mean_eval_runs() {
        let d = data();
        let out =
            regression_eval(&d, FeatureSet::L, &ModelKind::HarmonicMean { window: 5 }, 1).unwrap();
        assert!(out.mae > 0.0);
    }

    #[test]
    fn harmonic_mean_eval_is_bit_identical_across_calls() {
        // Each call groups the traces afresh; their order must not depend
        // on per-map hash seeds.
        let d = data();
        let hm = ModelKind::HarmonicMean { window: 5 };
        let a = regression_eval(&d, FeatureSet::L, &hm, 1).unwrap();
        let b = regression_eval(&d, FeatureSet::L, &hm, 1).unwrap();
        assert_eq!(a.mae.to_bits(), b.mae.to_bits());
        assert_eq!(a.rmse.to_bits(), b.rmse.to_bits());
    }

    #[test]
    fn seq2seq_eval_runs_small() {
        let d = data();
        let mut p = quick_seq2seq();
        p.epochs = 2;
        let out = regression_eval(&d, FeatureSet::LM, &ModelKind::Seq2Seq(p), 1).unwrap();
        assert!(out.mae.is_finite());
        assert!(out.n_test > 0);
    }

    #[test]
    fn seq2seq_cells_honour_early_stopping() {
        let d = data();
        let mut p = quick_seq2seq();
        let plain = regression_eval(&d, FeatureSet::LM, &ModelKind::Seq2Seq(p), 1).unwrap();
        p.val_fraction = 0.25;
        p.patience = 1;
        let stopped = regression_eval(&d, FeatureSet::LM, &ModelKind::Seq2Seq(p), 1).unwrap();
        assert_ne!(plain.mae.to_bits(), stopped.mae.to_bits());
    }

    #[test]
    fn invalid_hyperparameters_are_rejected_by_every_entry() {
        let d = data();
        let rate = |learning_rate| {
            ModelKind::Gdbt(lumos5g_ml::GbdtConfig {
                learning_rate,
                ..quick_gbdt()
            })
        };
        let no_trees = ModelKind::RandomForest(lumos5g_ml::forest::ForestConfig {
            n_trees: 0,
            ..Default::default()
        });
        let mut s2s = quick_seq2seq();
        s2s.lr = f64::NAN;
        for model in [rate(f64::NAN), rate(0.0), no_trees, ModelKind::Seq2Seq(s2s)] {
            let set = FeatureSet::LM;
            assert!(regression_eval(&d, set, &model, 1).is_err(), "{model:?}");
            assert!(
                classification_eval(&d, set, &model, 1).is_err(),
                "{model:?}"
            );
            assert!(eval_both(&d, set, &model, 1).is_err(), "{model:?}");
        }
        let err = seq2seq_eval(&d, FeatureSet::LM, &s2s, 1, |_, _, _| {
            panic!("an invalid Seq2Seq cell must not train")
        });
        assert!(err.is_err());
    }

    #[test]
    fn gdbt_cells_score_both_heads_as_the_single_task_evals_do() {
        // GDBT, KNN and RF fit both heads; Kriging and HM derive both
        // metrics from one regression fit. Either way a cell must score
        // what the single-task entries score.
        let d = data();
        let rf = ModelKind::RandomForest(lumos5g_ml::forest::ForestConfig {
            n_trees: 10,
            ..Default::default()
        });
        for (set, model) in [
            (FeatureSet::LM, ModelKind::Gdbt(quick_gbdt())),
            (FeatureSet::LM, ModelKind::Knn { k: 5 }),
            (FeatureSet::LM, rf),
            (FeatureSet::L, ModelKind::Kriging { neighbors: 12 }),
            (FeatureSet::L, ModelKind::HarmonicMean { window: 5 }),
        ] {
            let (reg, clf) = eval_both(&d, set, &model, 1).unwrap();
            assert_eq!(
                reg,
                regression_eval(&d, set, &model, 1).unwrap(),
                "{model:?}"
            );
            assert_eq!(
                clf,
                classification_eval(&d, set, &model, 1).unwrap(),
                "{model:?}"
            );
        }
    }

    #[test]
    fn non_finite_samples_are_rejected_by_every_entry() {
        // Table cells check their data as the served fits do: one NaN
        // throughput would otherwise score as NaN or silently bias a cell.
        let mut d = data();
        d.records[7].throughput_mbps = f64::NAN;
        let s2s = quick_seq2seq();
        for model in [
            ModelKind::Gdbt(quick_gbdt()),
            ModelKind::Knn { k: 5 },
            ModelKind::RandomForest(Default::default()),
            ModelKind::Kriging { neighbors: 12 },
            ModelKind::HarmonicMean { window: 5 },
            ModelKind::Seq2Seq(s2s),
        ] {
            let set = FeatureSet::L;
            let err = regression_eval(&d, set, &model, 1).unwrap_err();
            assert!(err.contains("non-finite"), "{model:?}: {err}");
            assert!(
                classification_eval(&d, set, &model, 1).is_err(),
                "{model:?}"
            );
            assert!(eval_both(&d, set, &model, 1).is_err(), "{model:?}");
        }
        let err = seq2seq_eval(&d, FeatureSet::L, &s2s, 1, |_, _, _| {
            panic!("a non-finite Seq2Seq cell must not train")
        });
        assert!(err.is_err());
    }

    #[test]
    fn split_seed_changes_outcome_slightly() {
        let d = data();
        let a = regression_eval(&d, FeatureSet::L, &ModelKind::Knn { k: 5 }, 1).unwrap();
        let b = regression_eval(&d, FeatureSet::L, &ModelKind::Knn { k: 5 }, 2).unwrap();
        // Different splits, same data: results close but not identical.
        assert!(a.mae != b.mae);
    }
}
