//! Shared experiment context: lazily simulates and caches the per-area
//! datasets so that running `repro all` builds each campaign exactly once.

use lumos5g::eval::{eval_both, ClassificationOutcome, RegressionOutcome};
use lumos5g::features::{FeatureSet, FeatureSpec};
use lumos5g::persist::{self, TrainingCheckpoint};
use lumos5g::predictor::{ModelKind, Seq2SeqParams, TrainedRegressor};
use lumos5g_ml::{GbdtConfig, GbdtRegressor, Seq2Seq};
use lumos5g_sim::{
    airport, intersection, loop_area, quality, run_campaign, Area, CampaignConfig, Dataset,
    MobilityMode,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Experiment scale: trades fidelity for wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke runs (CI).
    Quick,
    /// Minutes-scale default; enough data for stable statistics.
    Std,
    /// Paper-scale campaign sizes and model hyperparameters (hours).
    Paper,
}

impl Scale {
    /// Parse from CLI text.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "std" => Some(Scale::Std),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Walking passes per trajectory.
    pub fn passes(self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Std => 12,
            Scale::Paper => 30,
        }
    }

    /// GDBT hyperparameters.
    pub fn gbdt(self) -> GbdtConfig {
        match self {
            Scale::Quick => GbdtConfig {
                n_estimators: 60,
                max_depth: 4,
                learning_rate: 0.15,
                min_samples_leaf: 5,
                subsample: 0.8,
                seed: 0,
            },
            Scale::Std => GbdtConfig {
                n_estimators: 150,
                max_depth: 6,
                learning_rate: 0.12,
                min_samples_leaf: 5,
                subsample: 0.8,
                seed: 0,
            },
            Scale::Paper => GbdtConfig::paper_scale(),
        }
    }

    /// Seq2Seq hyperparameters.
    pub fn seq2seq(self) -> Seq2SeqParams {
        match self {
            Scale::Quick => Seq2SeqParams {
                input_len: 10,
                horizon: 5,
                hidden: 16,
                layers: 2,
                epochs: 4,
                batch_size: 64,
                lr: 5e-3,
                stride: 4,
                seed: 0,
                val_fraction: 0.0,
                patience: 0,
            },
            // Std trains longer than before (the 10-epoch budget underfit);
            // the validation gate stops it once held-out loss stalls.
            Scale::Std => Seq2SeqParams {
                input_len: 10,
                horizon: 5,
                hidden: 24,
                layers: 2,
                epochs: 30,
                batch_size: 64,
                lr: 5e-3,
                stride: 4,
                seed: 0,
                val_fraction: 0.2,
                patience: 3,
            },
            Scale::Paper => Seq2SeqParams {
                input_len: 20,
                horizon: 20,
                hidden: 128,
                layers: 2,
                epochs: 2000,
                batch_size: 256,
                lr: 1e-3,
                stride: 1,
                seed: 0,
                val_fraction: 0.1,
                patience: 20,
            },
        }
    }
}

/// Where `repro` persists fitted experiment models (`--save-models` /
/// `--load-models`): each experiment writes `{key}.l5gm` under `dir`.
#[derive(Debug, Clone)]
pub struct ModelStore {
    /// Directory holding `{key}.l5gm` files.
    pub dir: PathBuf,
    /// `true` → cold start: load saved models instead of refitting.
    pub load: bool,
}

/// Crash-safe training checkpoints (`repro --checkpoint-every N`): every
/// experiment that trains a GDBT or Seq2Seq model writes its full training
/// state to `dir/{key}.ckpt.l5gm` through the atomic persist writer every
/// `every` rounds/epochs; a later run with `resume` picks the training up
/// from the last durable checkpoint and converges bit-identically to an
/// uninterrupted run.
#[derive(Debug)]
pub struct CheckpointPlan {
    /// Directory holding `{key}.ckpt.l5gm` files.
    pub dir: PathBuf,
    /// Checkpoint cadence in boosting rounds / training epochs (0 = never
    /// write, which still allows `resume`).
    pub every: usize,
    /// `true` → restore matching checkpoints before training.
    pub resume: bool,
    /// Crash injection: abort the process (exit 137, as SIGKILL would)
    /// right after the Nth checkpoint write. Used by the crash-resume CI
    /// smoke; `None` in normal operation.
    pub die_after: Option<u64>,
    written: AtomicU64,
}

impl CheckpointPlan {
    /// A plan writing every `every` units under `dir`.
    pub fn new(dir: PathBuf, every: usize, resume: bool, die_after: Option<u64>) -> Self {
        CheckpointPlan {
            dir,
            every,
            resume,
            die_after,
            written: AtomicU64::new(0),
        }
    }

    /// Create the checkpoint directory when checkpoints will be written;
    /// panics, naming it, when it cannot be created.
    fn create_dir(&self) {
        if self.every > 0 {
            if let Err(e) = std::fs::create_dir_all(&self.dir) {
                panic!("cannot create {}: {e}", self.dir.display());
            }
        }
    }

    /// Count one durable checkpoint write; honours `die_after` by exiting
    /// with status 137 (the wait status a SIGKILL produces) so crash tests
    /// can interrupt training at an exact, reproducible point.
    fn note_write(&self, key: &str, rounds: usize) {
        let n = self.written.fetch_add(1, Ordering::SeqCst) + 1;
        eprintln!("    checkpointed {key} at {rounds} units (write #{n})");
        if let Some(limit) = self.die_after {
            if n >= limit {
                eprintln!("    --die-after-checkpoints {limit} reached: simulating SIGKILL");
                std::process::exit(137);
            }
        }
    }
}

/// Lazily built simulation datasets shared across experiments.
pub struct Context {
    /// Chosen scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Optional model persistence (None → always fit in memory).
    pub models: Option<ModelStore>,
    /// Optional crash-safe training checkpoints (None → train straight
    /// through).
    pub checkpoints: Option<CheckpointPlan>,
    areas: Option<(Area, Area, Area)>,
    intersection_walk: Option<Dataset>,
    airport_walk: Option<Dataset>,
    loop_walk: Option<Dataset>,
    loop_drive: Option<Dataset>,
    #[allow(clippy::type_complexity)]
    eval_cache: HashMap<String, Result<(RegressionOutcome, ClassificationOutcome), String>>,
}

impl Context {
    /// Fresh context.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Context {
            scale,
            seed,
            models: None,
            checkpoints: None,
            areas: None,
            intersection_walk: None,
            airport_walk: None,
            loop_walk: None,
            loop_drive: None,
            eval_cache: HashMap::new(),
        }
    }

    /// Fit a GDBT regressor — or, when [`Self::models`] is configured,
    /// save it after fitting (`load == false`) or load the saved model
    /// instead of refitting (`load == true`). Loaded models are
    /// bit-identical to the ones saved, so experiment outputs don't change
    /// across a save/load cycle. A missing or mismatched file degrades to
    /// an in-memory refit with a warning rather than aborting the run.
    pub fn gbdt_or_load(
        &self,
        key: &str,
        set: FeatureSet,
        cfg: &GbdtConfig,
        xs: &[Vec<f64>],
        ys: &[f64],
    ) -> GbdtRegressor {
        let Some(store) = &self.models else {
            return self.fit_gbdt(key, cfg, xs, ys);
        };
        let path = store.dir.join(format!("{key}.l5gm"));
        if store.load {
            match persist::load_regressor(&path) {
                Ok(TrainedRegressor::Gdbt { model, .. }) => {
                    eprintln!("    loaded {key} from {} (no refit)", path.display());
                    return model;
                }
                Ok(_) => eprintln!("    {} is not a GDBT model; refitting", path.display()),
                Err(e) => eprintln!("    cannot load {}: {e}; refitting", path.display()),
            }
        }
        let model = self.fit_gbdt(key, cfg, xs, ys);
        if !store.load {
            let wrapped = TrainedRegressor::Gdbt {
                model: model.clone(),
                spec: FeatureSpec::new(set),
            };
            match persist::save_regressor(&wrapped, &path) {
                Ok(()) => eprintln!("    saved {key} to {}", path.display()),
                Err(e) => panic!("cannot save {}: {e}", path.display()),
            }
        }
        model
    }

    /// Fit a GDBT under the checkpoint plan (when one is configured):
    /// resume from `{key}.ckpt.l5gm` if asked, then checkpoint the boosting
    /// state atomically every `every` rounds. Interrupting anywhere and
    /// re-running with `resume` converges bit-identically to an
    /// uninterrupted fit.
    fn fit_gbdt(&self, key: &str, cfg: &GbdtConfig, xs: &[Vec<f64>], ys: &[f64]) -> GbdtRegressor {
        let Some(plan) = &self.checkpoints else {
            return GbdtRegressor::fit(xs, ys, cfg);
        };
        let path = plan.dir.join(format!("{key}.ckpt.l5gm"));
        let resume = if plan.resume {
            match persist::load_checkpoint(&path) {
                Ok(TrainingCheckpoint::Gdbt(ck))
                    if ck.cfg == *cfg
                        && ck.n_rows == xs.len()
                        && ck.n_features().is_none_or(|w| w == xs[0].len()) =>
                {
                    eprintln!(
                        "    resuming {key} from {} ({} rounds done)",
                        path.display(),
                        ck.rounds_done
                    );
                    Some(ck)
                }
                Ok(TrainingCheckpoint::Gdbt(_)) => {
                    eprintln!(
                        "    checkpoint {} is for a different run; training from scratch",
                        path.display()
                    );
                    None
                }
                Ok(_) => {
                    eprintln!(
                        "    {} is not a GDBT checkpoint; training from scratch",
                        path.display()
                    );
                    None
                }
                Err(e) => {
                    eprintln!(
                        "    no resumable checkpoint at {}: {e}; training from scratch",
                        path.display()
                    );
                    None
                }
            }
        } else {
            None
        };
        plan.create_dir();
        GbdtRegressor::fit_resumable(xs, ys, cfg, resume, plan.every, |ck| {
            match persist::save_checkpoint(&TrainingCheckpoint::Gdbt(ck.clone()), &path) {
                Ok(()) => plan.note_write(key, ck.rounds_done),
                Err(e) => panic!("cannot checkpoint {}: {e}", path.display()),
            }
        })
    }

    /// Train a Seq2Seq model under the checkpoint plan (when one is
    /// configured), mirroring `fit_gbdt`: epoch state — weights,
    /// Adam moments, best-validation snapshot — checkpoints atomically to
    /// `{key}.ckpt.l5gm` every `every` epochs, and `resume` restores it.
    /// Returns the per-epoch training losses.
    pub fn train_seq2seq(
        &self,
        key: &str,
        model: &mut Seq2Seq,
        inputs: &[Vec<Vec<f64>>],
        targets: &[Vec<f64>],
        val_fraction: f64,
        patience: usize,
    ) -> Vec<f64> {
        let Some(plan) = &self.checkpoints else {
            return model.train_resumable(inputs, targets, val_fraction, patience, None, 0, |_| {});
        };
        let path = plan.dir.join(format!("{key}.ckpt.l5gm"));
        let resume = if plan.resume {
            match persist::load_checkpoint(&path) {
                Ok(TrainingCheckpoint::Seq2Seq(st))
                    if st.resumes(model, inputs.len(), val_fraction, patience) =>
                {
                    eprintln!(
                        "    resuming {key} from {} ({} epochs done)",
                        path.display(),
                        st.epochs_done()
                    );
                    Some(*st)
                }
                Ok(TrainingCheckpoint::Seq2Seq(_)) => {
                    eprintln!(
                        "    checkpoint {} is for a different run; training from scratch",
                        path.display()
                    );
                    None
                }
                Ok(_) => {
                    eprintln!(
                        "    {} is not a Seq2Seq checkpoint; training from scratch",
                        path.display()
                    );
                    None
                }
                Err(e) => {
                    eprintln!(
                        "    no resumable checkpoint at {}: {e}; training from scratch",
                        path.display()
                    );
                    None
                }
            }
        } else {
            None
        };
        plan.create_dir();
        model.train_resumable(
            inputs,
            targets,
            val_fraction,
            patience,
            resume,
            plan.every,
            |st| match persist::save_checkpoint(
                &TrainingCheckpoint::Seq2Seq(Box::new(st.clone())),
                &path,
            ) {
                Ok(()) => plan.note_write(key, st.epochs_done()),
                Err(e) => panic!("cannot checkpoint {}: {e}", path.display()),
            },
        )
    }

    /// Run (or fetch from cache) the regression + classification evaluation
    /// of `model` on `data` under `set`. `data_key` must uniquely identify
    /// the dataset (e.g. "airport_walk").
    #[allow(clippy::type_complexity)]
    pub fn eval_cached(
        &mut self,
        data_key: &str,
        data: &Dataset,
        set: FeatureSet,
        model: &ModelKind,
    ) -> Result<(RegressionOutcome, ClassificationOutcome), String> {
        let model_key = match model {
            ModelKind::Gdbt(_) => "gdbt".to_string(),
            ModelKind::Seq2Seq(p) => format!("s2s{}", p.input_len),
            ModelKind::Knn { k } => format!("knn{k}"),
            ModelKind::RandomForest(_) => "rf".to_string(),
            ModelKind::Kriging { neighbors } => format!("ok{neighbors}"),
            ModelKind::HarmonicMean { window } => format!("hm{window}"),
        };
        let key = format!("{data_key}|{}|{model_key}", set.label());
        if let Some(hit) = self.eval_cache.get(&key) {
            return hit.clone();
        }
        let out = eval_both(data, set, model, 1);
        self.eval_cache.insert(key, out.clone());
        out
    }

    fn areas(&mut self) -> &(Area, Area, Area) {
        let seed = self.seed;
        self.areas
            .get_or_insert_with(|| (intersection(seed), airport(seed), loop_area(seed)))
    }

    /// The Intersection area.
    pub fn intersection_area(&mut self) -> Area {
        self.areas().0.clone()
    }

    /// The Airport area.
    pub fn airport_area(&mut self) -> Area {
        self.areas().1.clone()
    }

    /// The Loop area.
    pub fn loop_area(&mut self) -> Area {
        self.areas().2.clone()
    }

    fn campaign(&self, area: &Area, mode: MobilityMode, passes: usize, seed: u64) -> Dataset {
        let cfg = CampaignConfig {
            passes_per_trajectory: passes,
            mode,
            base_seed: seed,
            gps_sigma_m: 2.2,
            bad_gps_fraction: 0.06,
            max_duration_s: 1200,
            handoff: Default::default(),
            logger: Default::default(),
        };
        let raw = run_campaign(area, &cfg);
        quality::apply(&raw, &area.frame, &Default::default()).0
    }

    /// Cleaned walking dataset for the Intersection.
    pub fn intersection_walk(&mut self) -> Dataset {
        if self.intersection_walk.is_none() {
            let area = self.intersection_area();
            // Double the base pass count so per-(cell, direction) groups
            // reach the n ≥ 20 needed by the normality tests.
            let passes = self.scale.passes() * 2;
            let ds = self.campaign(&area, MobilityMode::walking(), passes, self.seed ^ 0x11);
            self.intersection_walk = Some(ds);
        }
        self.intersection_walk.clone().expect("just built")
    }

    /// Cleaned walking dataset for the Airport.
    pub fn airport_walk(&mut self) -> Dataset {
        if self.airport_walk.is_none() {
            let area = self.airport_area();
            // Airport trajectories are walked the most in the paper (30+);
            // give it 3× the base pass count for per-cell statistics.
            let passes = self.scale.passes() * 3;
            let ds = self.campaign(&area, MobilityMode::walking(), passes, self.seed ^ 0x22);
            self.airport_walk = Some(ds);
        }
        self.airport_walk.clone().expect("just built")
    }

    /// Cleaned walking dataset for the Loop.
    pub fn loop_walk(&mut self) -> Dataset {
        if self.loop_walk.is_none() {
            let area = self.loop_area();
            let passes = (self.scale.passes() / 2).max(2);
            let ds = self.campaign(&area, MobilityMode::walking(), passes, self.seed ^ 0x33);
            self.loop_walk = Some(ds);
        }
        self.loop_walk.clone().expect("just built")
    }

    /// Cleaned driving dataset for the Loop.
    pub fn loop_drive(&mut self) -> Dataset {
        if self.loop_drive.is_none() {
            let area = self.loop_area();
            let passes = (self.scale.passes() / 2).max(2);
            let ds = self.campaign(&area, MobilityMode::driving(), passes, self.seed ^ 0x44);
            self.loop_drive = Some(ds);
        }
        self.loop_drive.clone().expect("just built")
    }

    /// Loop walking + driving combined (the paper's Loop dataset).
    pub fn loop_all(&mut self) -> Dataset {
        let mut d = self.loop_walk();
        let mut drive = self.loop_drive();
        // Re-key driving passes so ids don't collide with walking passes.
        let offset = d
            .records
            .iter()
            .map(|r| r.pass_id)
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        for r in &mut drive.records {
            r.pass_id += offset;
        }
        d.extend(drive);
        d
    }

    /// The Global dataset: all areas with known panel locations combined
    /// (Intersection + Airport), as in §6.2's "Global" column for T-feature
    /// comparability; pass `include_loop = true` for the L-feature variant.
    pub fn global(&mut self, include_loop: bool) -> Dataset {
        let mut d = self.intersection_walk();
        let mut next_area_offset = 100_000u32;
        for mut part in [
            Some(self.airport_walk()),
            if include_loop {
                Some(self.loop_all())
            } else {
                None
            },
        ]
        .into_iter()
        .flatten()
        {
            for r in &mut part.records {
                r.pass_id += next_area_offset;
                r.trajectory += next_area_offset;
            }
            next_area_offset += 100_000;
            d.extend(part);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_cached() {
        let mut ctx = Context::new(Scale::Quick, 1);
        let a = ctx.airport_walk();
        let b = ctx.airport_walk();
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
    }

    #[test]
    fn loop_all_merges_modes_without_pass_collisions() {
        let mut ctx = Context::new(Scale::Quick, 1);
        let all = ctx.loop_all();
        let walk = ctx.loop_walk();
        let drive = ctx.loop_drive();
        assert_eq!(all.len(), walk.len() + drive.len());
        use std::collections::HashSet;
        let walk_passes: HashSet<u32> = walk.records.iter().map(|r| r.pass_id).collect();
        let all_passes: HashSet<u32> = all.records.iter().map(|r| r.pass_id).collect();
        assert!(all_passes.len() > walk_passes.len());
    }

    #[test]
    fn global_spans_multiple_areas() {
        let mut ctx = Context::new(Scale::Quick, 1);
        let g = ctx.global(false);
        use std::collections::HashSet;
        let areas: HashSet<u8> = g.records.iter().map(|r| r.area).collect();
        assert!(areas.contains(&0) && areas.contains(&1));
    }

    #[test]
    fn gbdt_models_round_trip_through_the_store() {
        let dir = std::env::temp_dir().join(format!("l5gm-ctx-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let xs: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 3.0 * r[0] - r[1]).collect();
        let cfg = Scale::Quick.gbdt();

        let mut ctx = Context::new(Scale::Quick, 1);
        ctx.models = Some(ModelStore {
            dir: dir.clone(),
            load: false,
        });
        let fitted = ctx.gbdt_or_load("ctx_test_gdbt", FeatureSet::L, &cfg, &xs, &ys);
        assert!(dir.join("ctx_test_gdbt.l5gm").exists());

        ctx.models = Some(ModelStore {
            dir: dir.clone(),
            load: true,
        });
        let loaded = ctx.gbdt_or_load("ctx_test_gdbt", FeatureSet::L, &cfg, &xs, &ys);
        for (a, b) in fitted.predict(&xs).iter().zip(&loaded.predict(&xs)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gbdt_resume_trains_from_scratch_over_a_checkpoint_of_another_width() {
        let dir = std::env::temp_dir().join(format!("l5gm-ctx-width-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Same config and row count, but the checkpoint's trees split on
        // feature 4 of 5-wide rows; resuming over 2-wide rows would index
        // past their end.
        let wide: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![0.0, 0.0, 0.0, 0.0, (i % 9) as f64])
            .collect();
        let narrow: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let ys: Vec<f64> = wide.iter().map(|r| 5.0 * r[4]).collect();
        let cfg = Scale::Quick.gbdt();
        let mut first = None;
        let _ = GbdtRegressor::fit_resumable(&wide, &ys, &cfg, None, 1, |ck| {
            first.get_or_insert_with(|| ck.clone());
        });
        let ck = first.expect("a checkpoint after round 1");
        assert_eq!(ck.n_features(), Some(5));
        let path = dir.join("ctx_width.ckpt.l5gm");
        persist::save_checkpoint(&TrainingCheckpoint::Gdbt(ck), &path).unwrap();

        let mut ctx = Context::new(Scale::Quick, 1);
        ctx.checkpoints = Some(CheckpointPlan::new(dir.clone(), 0, true, None));
        let got = ctx.fit_gbdt("ctx_width", &cfg, &narrow, &ys);
        let want = GbdtRegressor::fit(&narrow, &ys, &cfg);
        for (a, b) in got.predict(&narrow).iter().zip(&want.predict(&narrow)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("std"), Some(Scale::Std));
        assert_eq!(Scale::parse("nope"), None);
    }
}
