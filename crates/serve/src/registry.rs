//! Versioned model registry with atomic hot swap, durable generations and
//! validation-gated publishing.
//!
//! Shards read the current model once per dispatch; an operator thread can
//! [`ModelRegistry::swap`] in a retrained model at any time without pausing
//! ingest. Records already dispatched keep the `Arc` of the version they
//! started with — a swap can never tear a prediction.
//!
//! **Durability.** [`ModelRegistry::store`] writes the served model to a
//! directory as `model.gen-{version}.l5gm` through the atomic
//! temp-file + fsync + rename writer in `lumos5g::persist`, then garbage
//! collects all but the newest [`RETAIN_GENERATIONS`] checkpoints.
//! [`ModelRegistry::load_dir_report`] cold-starts a registry by walking the
//! generation chain newest → oldest until one file passes its CRC and
//! decodes, reporting every skipped checkpoint in a typed [`LoadReport`] —
//! a crash mid-write, a torn rename or a bad disk costs at most the newest
//! generation, never a torn model.
//!
//! **Gating.** A [`Gatekeeper`] replays a golden slice of held-out records
//! through every candidate before it is published: candidates that panic,
//! emit a non-finite prediction, or regress MAE beyond the configured
//! tolerance are refused with a typed [`SwapRejected`] reason (see
//! `Engine::guarded_swap`).

use lumos5g::persist::{self, PersistError, MODEL_EXTENSION};
use lumos5g::TrainedRegressor;
use lumos5g_sim::Dataset;
use parking_lot::RwLock;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How many on-disk generations [`ModelRegistry::store`] retains.
pub const RETAIN_GENERATIONS: usize = 4;

/// One published model generation.
#[derive(Debug)]
pub struct ModelVersion {
    /// Monotonic generation number (first published model is 1).
    pub version: u64,
    /// The trained model (shared, immutable).
    pub regressor: Arc<TrainedRegressor>,
}

/// One checkpoint that failed to restore during [`ModelRegistry::load_dir_report`].
#[derive(Debug)]
pub struct SkippedCheckpoint {
    /// Generation number parsed from the filename.
    pub version: u64,
    /// The file that failed.
    pub path: PathBuf,
    /// Why it failed (CRC mismatch, truncation, decode error, IO).
    pub error: PersistError,
}

/// What a cold start found on disk: the generation that serves, plus every
/// newer checkpoint that had to be skipped as corrupt.
#[derive(Debug)]
pub struct LoadReport {
    /// Generation number restored.
    pub version: u64,
    /// File it was restored from.
    pub path: PathBuf,
    /// Newer checkpoints skipped (torn writes, bit rot), newest first.
    pub skipped: Vec<SkippedCheckpoint>,
}

/// Atomically swappable model holder shared by all shards.
#[derive(Debug)]
pub struct ModelRegistry {
    current: RwLock<Arc<ModelVersion>>,
}

impl ModelRegistry {
    /// Publish the initial model as version 1.
    pub fn new(model: TrainedRegressor) -> Self {
        Self::with_version(model, 1)
    }

    /// Publish the initial model at an explicit version (used when
    /// restoring from disk, so version numbers survive restarts).
    pub fn with_version(model: TrainedRegressor, version: u64) -> Self {
        ModelRegistry {
            current: RwLock::new(Arc::new(ModelVersion {
                version,
                regressor: Arc::new(model),
            })),
        }
    }

    /// Save the currently served model to `dir/model.gen-{version}.l5gm`
    /// (creating `dir` as needed) atomically — temp file, fsync, rename —
    /// then garbage-collect all but the newest [`RETAIN_GENERATIONS`]
    /// checkpoints. Returns the written path.
    pub fn store(&self, dir: &Path) -> Result<PathBuf, PersistError> {
        self.store_with_retention(dir, RETAIN_GENERATIONS)
    }

    /// [`Self::store`] with an explicit retention count (`keep` ≥ 1 newest
    /// generations survive; the file just written is never collected).
    pub fn store_with_retention(&self, dir: &Path, keep: usize) -> Result<PathBuf, PersistError> {
        let held = self.current();
        let path = dir.join(format!("model.gen-{}.{MODEL_EXTENSION}", held.version));
        persist::save_regressor(&held.regressor, &path)?;
        // GC is best-effort: a failure to prune old generations must never
        // fail the store that just made the new one durable.
        if let Ok(generations) = list_generations(dir) {
            for (version, old) in generations.into_iter().skip(keep.max(1)) {
                if old != path {
                    if let Err(e) = std::fs::remove_file(&old) {
                        eprintln!(
                            "warning: failed to GC model generation {version} ({}): {e}",
                            old.display()
                        );
                    }
                }
            }
        }
        Ok(path)
    }

    /// Cold-start a registry from a directory written by [`Self::store`],
    /// reporting exactly what happened: the generation chain is walked
    /// newest → oldest until one checkpoint passes its integrity check and
    /// decodes, and every newer file skipped on the way is returned in the
    /// [`LoadReport`] with its typed error. The cold start only fails when
    /// no file restores at all, in which case the newest file's error is
    /// returned.
    pub fn load_dir_report(dir: &Path) -> Result<(Self, LoadReport), PersistError> {
        let mut skipped = Vec::new();
        let mut first_err: Option<PersistError> = None;
        for (version, path) in list_generations(dir)? {
            match persist::load_regressor(&path) {
                Ok(model) => {
                    return Ok((
                        Self::with_version(model, version),
                        LoadReport {
                            version,
                            path,
                            skipped,
                        },
                    ));
                }
                Err(e) => {
                    skipped.push(SkippedCheckpoint {
                        version,
                        path,
                        error: e,
                    });
                    // `skipped` owns the error; keep the newest failure for
                    // the all-corrupt case by re-reading its message.
                    if first_err.is_none() {
                        let s = &skipped[0];
                        first_err = Some(PersistError::Io(std::io::Error::other(format!(
                            "no restorable checkpoint in {}; newest ({}) failed: {}",
                            dir.display(),
                            s.path.display(),
                            s.error
                        ))));
                    }
                }
            }
        }
        Err(first_err.unwrap_or_else(|| {
            PersistError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!(
                    "no model checkpoints (*.{MODEL_EXTENSION}) in {}",
                    dir.display()
                ),
            ))
        }))
    }

    /// [`Self::load_dir_report`] for callers that only need the registry:
    /// every skipped checkpoint is logged to stderr with its typed error.
    pub fn load_dir(dir: &Path) -> Result<Self, PersistError> {
        let (registry, report) = Self::load_dir_report(dir)?;
        for s in &report.skipped {
            eprintln!(
                "warning: skipping corrupt model checkpoint {}: {}",
                s.path.display(),
                s.error
            );
        }
        Ok(registry)
    }

    /// Restore the newest on-disk generation strictly below `below` — the
    /// rollback path: when generation N misbehaves in production, this
    /// finds the most recent durable predecessor. Returns the model and the
    /// generation number it was saved at.
    pub fn load_generation_below(
        dir: &Path,
        below: u64,
    ) -> Result<(TrainedRegressor, u64), PersistError> {
        let mut first_err: Option<PersistError> = None;
        for (version, path) in list_generations(dir)? {
            if version >= below {
                continue;
            }
            match persist::load_regressor(&path) {
                Ok(model) => return Ok((model, version)),
                Err(e) => {
                    eprintln!(
                        "warning: rollback skipping corrupt generation {version} ({}): {e}",
                        path.display()
                    );
                    first_err.get_or_insert(e);
                }
            }
        }
        Err(first_err.unwrap_or_else(|| {
            PersistError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no durable generation below {below} in {}", dir.display()),
            ))
        }))
    }

    /// Replace the served model; returns the new version number.
    pub fn swap(&self, model: TrainedRegressor) -> u64 {
        let mut guard = self.current.write();
        let version = guard.version + 1;
        *guard = Arc::new(ModelVersion {
            version,
            regressor: Arc::new(model),
        });
        version
    }

    /// The currently served model (cheap: read lock + `Arc` clone).
    pub fn current(&self) -> Arc<ModelVersion> {
        self.current.read().clone()
    }

    /// Current version number.
    pub fn version(&self) -> u64 {
        self.current.read().version
    }
}

/// Every `model.gen-{N}.l5gm` checkpoint in `dir`, newest generation
/// first.
fn list_generations(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(version) = parse_generation(name) {
            found.push((version, path));
        }
    }
    found.sort_unstable_by_key(|(version, _)| std::cmp::Reverse(*version));
    Ok(found)
}

/// Parse `model.gen-{N}.l5gm` → `N`.
fn parse_generation(name: &str) -> Option<u64> {
    name.strip_prefix("model.gen-")?
        .strip_suffix(".l5gm")?
        .parse()
        .ok()
}

/// Why a candidate model was refused publication by the [`Gatekeeper`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapRejected {
    /// The candidate panicked while replaying the golden slice.
    Panicked,
    /// The candidate produced at least one non-finite prediction on the
    /// golden slice.
    NonFinite,
    /// The candidate's golden-slice MAE exceeded
    /// `incumbent_mae * tolerance`.
    MaeRegression,
    /// The golden slice produced no evaluable predictions for this
    /// candidate (too few records for its input window) — nothing can be
    /// asserted about it, so it is refused.
    EmptyGolden,
}

impl SwapRejected {
    /// Number of reasons (for fixed-size counters).
    pub const COUNT: usize = 4;

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            SwapRejected::Panicked => 0,
            SwapRejected::NonFinite => 1,
            SwapRejected::MaeRegression => 2,
            SwapRejected::EmptyGolden => 3,
        }
    }

    /// All reasons, in `index` order.
    pub fn all() -> [SwapRejected; Self::COUNT] {
        [
            SwapRejected::Panicked,
            SwapRejected::NonFinite,
            SwapRejected::MaeRegression,
            SwapRejected::EmptyGolden,
        ]
    }
}

impl std::fmt::Display for SwapRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapRejected::Panicked => write!(f, "candidate panicked on the golden slice"),
            SwapRejected::NonFinite => write!(f, "candidate emitted a non-finite prediction"),
            SwapRejected::MaeRegression => {
                write!(f, "candidate MAE regressed beyond tolerance")
            }
            SwapRejected::EmptyGolden => {
                write!(f, "golden slice yields no predictions for this candidate")
            }
        }
    }
}

/// Validation gate for hot swaps: replays a golden slice of held-out
/// records through every candidate model before it may be published.
///
/// The gate is three checks, in order:
/// 1. the replay must not panic ([`SwapRejected::Panicked`]);
/// 2. every prediction must be finite ([`SwapRejected::NonFinite`]);
/// 3. the candidate's MAE must not exceed `incumbent_mae * tolerance`
///    ([`SwapRejected::MaeRegression`]). The MAE check is skipped until an
///    incumbent baseline exists (seeded from the serving model, or from the
///    first admitted candidate).
///
/// On admission the candidate's own MAE becomes the new incumbent
/// baseline, so the bar ratchets with the quality of what is serving.
#[derive(Debug)]
pub struct Gatekeeper {
    golden: Dataset,
    tolerance: f64,
    incumbent_mae: Option<f64>,
}

impl Gatekeeper {
    /// Gate on `golden` with a relative MAE `tolerance` (e.g. `1.1` allows
    /// a candidate up to 10 % worse than the incumbent; values below 1 are
    /// clamped to 1, i.e. "no worse than the incumbent").
    pub fn new(golden: Dataset, tolerance: f64) -> Self {
        Gatekeeper {
            golden,
            tolerance: tolerance.max(1.0),
            incumbent_mae: None,
        }
    }

    /// Seed the incumbent MAE baseline by scoring `incumbent` on the golden
    /// slice. An incumbent that fails its own gate (panic, non-finite,
    /// empty) leaves the baseline unset — the MAE check stays disabled
    /// until a candidate is admitted — rather than blocking all swaps.
    pub fn seed_incumbent(&mut self, incumbent: &TrainedRegressor) {
        self.incumbent_mae = self.score(incumbent).ok();
    }

    /// Current incumbent MAE baseline, if seeded.
    pub fn incumbent_mae(&self) -> Option<f64> {
        self.incumbent_mae
    }

    /// Replay the golden slice through `model` and score it. Returns the
    /// MAE, or the first gate it failed (panic / non-finite / empty).
    pub fn score(&self, model: &TrainedRegressor) -> Result<f64, SwapRejected> {
        let replay = panic::catch_unwind(AssertUnwindSafe(|| model.eval(&self.golden)));
        let (truth, pred) = replay.map_err(|_| SwapRejected::Panicked)?;
        if pred.is_empty() {
            return Err(SwapRejected::EmptyGolden);
        }
        if pred.iter().any(|p| !p.is_finite()) {
            return Err(SwapRejected::NonFinite);
        }
        let mae = truth
            .iter()
            .zip(&pred)
            .map(|(t, p)| (t - p).abs())
            .sum::<f64>()
            / pred.len() as f64;
        if !mae.is_finite() {
            // Non-finite truth can only come from a corrupt golden slice;
            // refuse rather than publish on an unverifiable baseline.
            return Err(SwapRejected::NonFinite);
        }
        Ok(mae)
    }

    /// Validate `candidate` for publication. On success returns its golden
    /// MAE (now the incumbent baseline); on failure returns the typed
    /// rejection and leaves the baseline untouched.
    pub fn admit(&mut self, candidate: &TrainedRegressor) -> Result<f64, SwapRejected> {
        let mae = self.score(candidate)?;
        if let Some(incumbent) = self.incumbent_mae {
            if mae > incumbent * self.tolerance {
                return Err(SwapRejected::MaeRegression);
            }
        }
        self.incumbent_mae = Some(mae);
        Ok(mae)
    }

    /// Overwrite the incumbent baseline (used after a rollback, when the
    /// restored generation becomes the bar again).
    pub fn set_incumbent_mae(&mut self, mae: Option<f64>) {
        self.incumbent_mae = mae;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos5g::TrainedRegressor;
    use lumos5g_sim::{Activity, Record};

    fn dummy_model(window: usize) -> TrainedRegressor {
        TrainedRegressor::Harmonic { window }
    }

    fn golden_record(t: u32, thpt: f64) -> Record {
        Record {
            area: 1,
            pass_id: 1,
            trajectory: 0,
            t,
            lat: 44.88,
            lon: -93.20,
            gps_accuracy_m: 2.0,
            activity: Activity::Walking,
            moving_speed_mps: 1.4,
            compass_deg: 90.0,
            throughput_mbps: thpt,
            on_5g: true,
            cell_id: 2,
            lte_rsrp_dbm: -95.0,
            nr_ssrsrp_dbm: -80.0,
            horizontal_handoff: false,
            vertical_handoff: false,
            panel_distance_m: 50.0,
            theta_p_deg: 30.0,
            theta_m_deg: 180.0,
            pixel_x: 1000,
            pixel_y: 2000,
            snapped_x_m: 1.0,
            snapped_y_m: 2.0,
            true_x_m: 1.0,
            true_y_m: 2.0,
            true_speed_mps: 1.4,
        }
    }

    fn golden(n: u32) -> Dataset {
        Dataset::new(
            (0..n)
                .map(|t| golden_record(t, 80.0 + 10.0 * (t % 5) as f64))
                .collect(),
        )
    }

    #[test]
    fn swap_bumps_version_monotonically() {
        let reg = ModelRegistry::new(dummy_model(5));
        assert_eq!(reg.version(), 1);
        assert_eq!(reg.swap(dummy_model(7)), 2);
        assert_eq!(reg.swap(dummy_model(9)), 3);
        assert_eq!(reg.current().version, 3);
    }

    #[test]
    fn readers_keep_their_generation_across_a_swap() {
        let reg = ModelRegistry::new(dummy_model(5));
        let held = reg.current();
        reg.swap(dummy_model(7));
        // The held Arc still points at version 1's model.
        assert_eq!(held.version, 1);
        assert!(matches!(
            *held.regressor,
            TrainedRegressor::Harmonic { window: 5 }
        ));
        assert_eq!(reg.current().version, 2);
    }

    #[test]
    fn generation_filenames_parse() {
        assert_eq!(parse_generation("model.gen-12.l5gm"), Some(12));
        assert_eq!(parse_generation("model.gen-0.l5gm"), Some(0));
        assert_eq!(parse_generation("model.gen-.l5gm"), None);
        assert_eq!(parse_generation("model.gen-12.tmp"), None);
        assert_eq!(parse_generation("model-v12.l5gm"), None);
    }

    #[test]
    fn store_then_load_dir_picks_the_highest_generation() {
        let dir = std::env::temp_dir().join(format!("l5gm-registry-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let reg = ModelRegistry::new(dummy_model(5));
        reg.store(&dir).unwrap(); // model.gen-1
        reg.swap(dummy_model(7));
        reg.swap(dummy_model(9));
        let path = reg.store(&dir).unwrap(); // model.gen-3
        assert!(path.ends_with("model.gen-3.l5gm"));
        // Clutter the directory: loaders must skip foreign files.
        std::fs::write(dir.join("notes.txt"), b"not a model").unwrap();

        let restored = ModelRegistry::load_dir(&dir).unwrap();
        assert_eq!(restored.version(), 3);
        assert!(matches!(
            *restored.current().regressor,
            TrainedRegressor::Harmonic { window: 9 }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_model_v_names_are_not_generations() {
        let dir = std::env::temp_dir().join(format!("l5gm-registry-legacy-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // A valid model under a `model-v{N}` name restores nothing: the
        // directory reads as empty.
        lumos5g::persist::save_regressor(&dummy_model(6), &dir.join("model-v4.l5gm")).unwrap();
        match ModelRegistry::load_dir(&dir) {
            Err(PersistError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected NotFound, got {:?}", other.map(|r| r.version())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_garbage_collects_old_generations() {
        let dir = std::env::temp_dir().join(format!("l5gm-registry-gc-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let reg = ModelRegistry::new(dummy_model(1));
        reg.store_with_retention(&dir, 2).unwrap();
        for w in 2..=6 {
            reg.swap(dummy_model(w));
            reg.store_with_retention(&dir, 2).unwrap();
        }
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, vec!["model.gen-5.l5gm", "model.gen-6.l5gm"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_checkpoint_is_reported_and_skipped() {
        let dir =
            std::env::temp_dir().join(format!("l5gm-registry-corrupt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let reg = ModelRegistry::with_version(dummy_model(8), 8);
        reg.store(&dir).unwrap(); // valid model.gen-8
        let valid = std::fs::read(dir.join("model.gen-8.l5gm")).unwrap();
        // Two corrupt newer generations: a truncation and a bit flip.
        std::fs::write(dir.join("model.gen-9.l5gm"), &valid[..valid.len() / 2]).unwrap();
        let mut flipped = valid.clone();
        flipped[6] ^= 0x40;
        std::fs::write(dir.join("model.gen-10.l5gm"), &flipped).unwrap();

        let (restored, report) = ModelRegistry::load_dir_report(&dir).unwrap();
        assert_eq!(
            restored.version(),
            8,
            "must fall back past both corrupt files"
        );
        assert_eq!(report.version, 8);
        assert!(report.path.ends_with("model.gen-8.l5gm"));
        let skipped: Vec<u64> = report.skipped.iter().map(|s| s.version).collect();
        assert_eq!(skipped, vec![10, 9], "every corrupt generation is reported");
        assert!(matches!(
            *restored.current().regressor,
            TrainedRegressor::Harmonic { window: 8 }
        ));

        // When *no* file decodes, the cold start fails with the decode error.
        std::fs::write(dir.join("model.gen-8.l5gm"), b"garbage").unwrap();
        assert!(ModelRegistry::load_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dir_without_models_errors() {
        let dir = std::env::temp_dir().join(format!("l5gm-registry-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(ModelRegistry::load_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_generation_below_finds_the_predecessor() {
        let dir =
            std::env::temp_dir().join(format!("l5gm-registry-rollback-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let reg = ModelRegistry::new(dummy_model(1));
        reg.store(&dir).unwrap();
        for w in 2..=3 {
            reg.swap(dummy_model(w));
            reg.store(&dir).unwrap();
        }
        let (model, gen) = ModelRegistry::load_generation_below(&dir, 3).unwrap();
        assert_eq!(gen, 2);
        assert!(matches!(model, TrainedRegressor::Harmonic { window: 2 }));
        // Nothing below the oldest generation.
        assert!(ModelRegistry::load_generation_below(&dir, 1).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gatekeeper_admits_a_healthy_candidate_and_ratchets_the_baseline() {
        let mut gk = Gatekeeper::new(golden(30), 1.1);
        assert_eq!(gk.incumbent_mae(), None);
        let mae = gk.admit(&dummy_model(5)).expect("healthy candidate");
        assert!(mae.is_finite());
        assert_eq!(gk.incumbent_mae(), Some(mae));
        // The same model re-admits: equal MAE is within any tolerance ≥ 1.
        assert_eq!(gk.admit(&dummy_model(5)), Ok(mae));
    }

    #[test]
    fn gatekeeper_rejects_an_mae_regression() {
        let mut gk = Gatekeeper::new(golden(30), 1.05);
        gk.set_incumbent_mae(Some(1e-9)); // an (artificially) excellent incumbent
        assert_eq!(gk.admit(&dummy_model(5)), Err(SwapRejected::MaeRegression));
        assert_eq!(
            gk.incumbent_mae(),
            Some(1e-9),
            "a rejected candidate must not move the baseline"
        );
    }

    #[test]
    fn gatekeeper_rejects_an_empty_golden_slice() {
        let mut gk = Gatekeeper::new(Dataset::default(), 1.1);
        assert_eq!(gk.admit(&dummy_model(5)), Err(SwapRejected::EmptyGolden));
    }

    #[test]
    fn gatekeeper_seeds_incumbent_from_the_serving_model() {
        let mut gk = Gatekeeper::new(golden(30), 1.0);
        gk.seed_incumbent(&dummy_model(5));
        let baseline = gk
            .incumbent_mae()
            .expect("harmonic scores the golden slice");
        assert!(baseline.is_finite());
        // tolerance 1.0: a strictly worse candidate is out, the incumbent
        // itself (equal MAE) stays admissible.
        assert_eq!(gk.admit(&dummy_model(5)), Ok(baseline));
    }

    #[test]
    fn swap_rejected_indexing_is_dense_and_total() {
        for (i, r) in SwapRejected::all().into_iter().enumerate() {
            assert_eq!(r.index(), i);
            assert!(!r.to_string().is_empty());
        }
        assert_eq!(SwapRejected::all().len(), SwapRejected::COUNT);
    }
}
