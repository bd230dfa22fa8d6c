//! On-disk model persistence — versioned save/load for trained models.
//!
//! A serving engine restart must not retrain: every [`TrainedRegressor`]
//! family the engine serves (GDBT, Random Forest, KNN, Harmonic, and the
//! LSTM Seq2Seq) and every [`TrainedClassifier`] serializes to a compact,
//! dependency-free binary format and loads back **bit-identically** —
//! `f64`s travel as raw IEEE-754 bits, the KNN spatial index is rebuilt
//! deterministically from its stored points, and a restored Seq2Seq decodes
//! the same horizons bit-for-bit (its feature/target scalers ride along;
//! Adam moments are training state and restart cold).
//!
//! ## Format layout (`.l5gm` files)
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "L5GM"
//!      4     2  format version (u16 LE, currently 2)
//!      6     1  kind     (0 = regressor, 1 = classifier, 2 = training
//!                         checkpoint)
//!      7     1  family   (regressor: 1 GDBT, 2 RF, 3 KNN, 4 Harmonic,
//!                         6 Seq2Seq, 7 Kriging;
//!                         classifier: 1 GDBT, 2 RF, 3 KNN, 5 FromRegression)
//!      8     1  spec presence (0 = none, 1 = FeatureSpec follows)
//!      9     …  FeatureSpec  (set tag u8, history_window u32) when present
//!      …     …  family payload (model-defined, see `lumos5g-ml::codec`)
//!   last     4  CRC32 (IEEE, LE) of every preceding byte
//! ```
//!
//! Versioning policy: the format version is bumped on any incompatible
//! layout change; loaders reject every other version and unknown family
//! tags with a typed error rather than guessing. The trailing CRC32 is
//! verified *before* any payload decoding, so a torn or bit-flipped file
//! surfaces as [`PersistError::CrcMismatch`] rather than a structurally
//! plausible but wrong model. Trailing bytes after the payload are
//! treated as corruption.
//!
//! Saves go through [`atomic_write`]: temp file in the target directory,
//! `fsync`, `rename` over the destination, `fsync` of the directory — a
//! crash at any point leaves either the old file or the new one, never a
//! torn hybrid.

use crate::features::{FeatureSet, FeatureSpec};
use crate::predictor::{Seq2SeqParams, TrainedClassifier, TrainedRegressor};
use lumos5g_ml::codec::{crc32, ByteReader, ByteWriter, CodecError};
use lumos5g_ml::dataset::TargetScaler;
use lumos5g_ml::{
    GbdtCheckpoint, GbdtClassifier, GbdtRegressor, KnnClassifier, KnnRegressor, OrdinaryKriging,
    RandomForestClassifier, RandomForestRegressor, Seq2Seq, Seq2SeqTrainState, StandardScaler,
};
use std::fmt;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File magic: the first four bytes of every saved model.
pub const MAGIC: [u8; 4] = *b"L5GM";
/// Wire-format version: the only one written and read.
pub const FORMAT_VERSION: u16 = 2;
/// Conventional extension for saved models.
pub const MODEL_EXTENSION: &str = "l5gm";

const KIND_REGRESSOR: u8 = 0;
const KIND_CLASSIFIER: u8 = 1;
const KIND_CHECKPOINT: u8 = 2;

const FAM_GDBT: u8 = 1;
const FAM_RF: u8 = 2;
const FAM_KNN: u8 = 3;
const FAM_HARMONIC: u8 = 4;
const FAM_FROM_REGRESSION: u8 = 5;
const FAM_SEQ2SEQ: u8 = 6;
const FAM_KRIGING: u8 = 7;

/// Why a save or load failed.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error.
    Io(io::Error),
    /// The file does not start with the `L5GM` magic.
    BadMagic,
    /// The file's format version is not the one this build reads.
    UnsupportedVersion(u16),
    /// The file holds a classifier where a regressor was expected (or vice
    /// versa).
    WrongKind {
        /// What the caller asked for.
        expected: &'static str,
        /// The kind byte found in the file.
        found: u8,
    },
    /// The family tag is unknown (a newer build's model, or corruption).
    UnsupportedFamily(String),
    /// The v2 trailing checksum does not match the payload — the file was
    /// torn mid-write or bit-flipped at rest.
    CrcMismatch {
        /// CRC32 recomputed over the payload.
        expected: u32,
        /// CRC32 stored in the file's trailer.
        found: u32,
    },
    /// Structurally corrupt payload.
    Codec(CodecError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a Lumos5G model file (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            PersistError::WrongKind { expected, found } => {
                write!(f, "expected a {expected}, found kind byte {found}")
            }
            PersistError::UnsupportedFamily(fam) => {
                write!(f, "model family {fam} has no persistent form")
            }
            PersistError::CrcMismatch { expected, found } => {
                write!(
                    f,
                    "checksum mismatch (stored {found:#010x}, payload hashes to \
                     {expected:#010x}): torn or corrupted file"
                )
            }
            PersistError::Codec(e) => write!(f, "corrupt model file: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Codec(e)
    }
}

fn set_tag(set: FeatureSet) -> u8 {
    match set {
        FeatureSet::L => 0,
        FeatureSet::LM => 1,
        FeatureSet::TM => 2,
        FeatureSet::LMC => 3,
        FeatureSet::TMC => 4,
        FeatureSet::LTM => 5,
    }
}

fn set_from_tag(tag: u8) -> Result<FeatureSet, PersistError> {
    Ok(match tag {
        0 => FeatureSet::L,
        1 => FeatureSet::LM,
        2 => FeatureSet::TM,
        3 => FeatureSet::LMC,
        4 => FeatureSet::TMC,
        5 => FeatureSet::LTM,
        _ => {
            return Err(PersistError::Codec(CodecError::BadTag {
                what: "feature set",
                tag,
            }))
        }
    })
}

fn put_spec(w: &mut ByteWriter, spec: Option<&FeatureSpec>) {
    match spec {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            w.put_u8(set_tag(s.set));
            w.put_u32(s.history_window as u32);
        }
    }
}

fn get_spec(r: &mut ByteReader<'_>) -> Result<Option<FeatureSpec>, PersistError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let set = set_from_tag(r.u8()?)?;
            let history_window = r.u32()? as usize;
            Ok(Some(FeatureSpec {
                set,
                history_window,
            }))
        }
        tag => Err(PersistError::Codec(CodecError::BadTag {
            what: "spec presence",
            tag,
        })),
    }
}

fn put_seq2seq_params(w: &mut ByteWriter, p: &Seq2SeqParams) {
    w.put_len(p.input_len);
    w.put_len(p.horizon);
    w.put_len(p.hidden);
    w.put_len(p.layers);
    w.put_len(p.epochs);
    w.put_len(p.batch_size);
    w.put_f64(p.lr);
    w.put_len(p.stride);
    w.put_u64(p.seed);
    w.put_f64(p.val_fraction);
    w.put_len(p.patience);
}

fn get_seq2seq_params(r: &mut ByteReader<'_>) -> Result<Seq2SeqParams, PersistError> {
    Ok(Seq2SeqParams {
        input_len: r.len()?,
        horizon: r.len()?,
        hidden: r.len()?,
        layers: r.len()?,
        epochs: r.len()?,
        batch_size: r.len()?,
        lr: r.f64()?,
        stride: r.len()?,
        seed: r.u64()?,
        val_fraction: r.f64()?,
        patience: r.len()?,
    })
}

fn put_header(w: &mut ByteWriter, kind: u8) {
    w.put_bytes(&MAGIC);
    w.put_u16(FORMAT_VERSION);
    w.put_u8(kind);
}

/// Checks magic + version, returns the kind byte.
fn get_header(r: &mut ByteReader<'_>) -> Result<u8, PersistError> {
    if r.take(4)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    Ok(r.u8()?)
}

/// Append the trailer: a CRC32 of every byte written so far.
fn seal(w: ByteWriter) -> Vec<u8> {
    let mut bytes = w.into_bytes();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Validate the container around `bytes` and return the payload slice
/// (header included, trailer stripped).
///
/// The version is read *before* the checksum is checked so a file of
/// another format version reports [`PersistError::UnsupportedVersion`],
/// and the checksum is checked *before* any payload decoding so corruption
/// surfaces as [`PersistError::CrcMismatch`] rather than a garbage decode.
fn split_container(bytes: &[u8]) -> Result<&[u8], PersistError> {
    let mut peek = ByteReader::new(bytes);
    if peek.take(4)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = peek.u16()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let trailer_at =
        bytes
            .len()
            .checked_sub(4)
            .ok_or(PersistError::Codec(CodecError::UnexpectedEof {
                needed: 4,
                remaining: bytes.len(),
            }))?;
    if trailer_at < 7 {
        // Shorter than magic + version + kind: the trailer would overlap
        // the header.
        return Err(PersistError::Codec(CodecError::UnexpectedEof {
            needed: 11,
            remaining: bytes.len(),
        }));
    }
    let (payload, trailer) = bytes.split_at(trailer_at);
    let found = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let expected = crc32(payload);
    if found != expected {
        return Err(PersistError::CrcMismatch { expected, found });
    }
    Ok(payload)
}

/// Encode a regressor to bytes. Every family round-trips.
pub fn encode_regressor(model: &TrainedRegressor) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_header(&mut w, KIND_REGRESSOR);
    match model {
        TrainedRegressor::Gdbt { model, spec } => {
            w.put_u8(FAM_GDBT);
            put_spec(&mut w, Some(spec));
            model.encode(&mut w);
        }
        TrainedRegressor::RandomForest { model, spec } => {
            w.put_u8(FAM_RF);
            put_spec(&mut w, Some(spec));
            model.encode(&mut w);
        }
        TrainedRegressor::Knn { model, spec } => {
            w.put_u8(FAM_KNN);
            put_spec(&mut w, Some(spec));
            model.encode(&mut w);
        }
        TrainedRegressor::Harmonic { window } => {
            w.put_u8(FAM_HARMONIC);
            put_spec(&mut w, None);
            w.put_u32(*window as u32);
        }
        TrainedRegressor::Seq2Seq {
            model,
            x_scaler,
            y_scaler,
            params,
            spec,
        } => {
            w.put_u8(FAM_SEQ2SEQ);
            put_spec(&mut w, Some(spec));
            put_seq2seq_params(&mut w, params);
            x_scaler.encode(&mut w);
            w.put_f64(y_scaler.mean);
            w.put_f64(y_scaler.std);
            model.encode(&mut w);
        }
        TrainedRegressor::Kriging { model, spec } => {
            w.put_u8(FAM_KRIGING);
            put_spec(&mut w, Some(spec));
            model.encode(&mut w);
        }
    }
    seal(w)
}

/// Decode a regressor from bytes produced by [`encode_regressor`].
pub fn decode_regressor(bytes: &[u8]) -> Result<TrainedRegressor, PersistError> {
    let payload = split_container(bytes)?;
    let mut r = ByteReader::new(payload);
    let model = decode_regressor_from(&mut r)?;
    r.finish().map_err(PersistError::Codec)?;
    Ok(model)
}

/// A tree or KNN model must be exactly as wide as the rows its feature
/// spec extracts: a tree would index past them when served, and KNN's
/// scaler would refuse them.
fn check_width(n_features: usize, spec: &FeatureSpec) -> Result<(), PersistError> {
    if n_features == spec.dim() {
        return Ok(());
    }
    Err(PersistError::Codec(CodecError::Invalid(format!(
        "model over {n_features} features under a {}-feature spec",
        spec.dim()
    ))))
}

fn decode_regressor_from(r: &mut ByteReader<'_>) -> Result<TrainedRegressor, PersistError> {
    let kind = get_header(r)?;
    if kind != KIND_REGRESSOR {
        return Err(PersistError::WrongKind {
            expected: "regressor",
            found: kind,
        });
    }
    let family = r.u8()?;
    let spec = get_spec(r)?;
    let need_spec = |spec: Option<FeatureSpec>| {
        spec.ok_or(PersistError::Codec(CodecError::Invalid(
            "missing feature spec".into(),
        )))
    };
    Ok(match family {
        FAM_GDBT => {
            let model = GbdtRegressor::decode(r)?;
            let spec = need_spec(spec)?;
            check_width(model.n_features(), &spec)?;
            TrainedRegressor::Gdbt { model, spec }
        }
        FAM_RF => {
            let model = RandomForestRegressor::decode(r)?;
            let spec = need_spec(spec)?;
            check_width(model.n_features(), &spec)?;
            TrainedRegressor::RandomForest { model, spec }
        }
        FAM_KNN => {
            let model = KnnRegressor::decode(r)?;
            let spec = need_spec(spec)?;
            check_width(model.n_features(), &spec)?;
            TrainedRegressor::Knn { model, spec }
        }
        FAM_HARMONIC => {
            let window = r.u32()? as usize;
            if window == 0 {
                return Err(PersistError::Codec(CodecError::Invalid(
                    "harmonic window of zero".into(),
                )));
            }
            TrainedRegressor::Harmonic { window }
        }
        FAM_KRIGING => TrainedRegressor::Kriging {
            model: OrdinaryKriging::decode(r)?,
            spec: need_spec(spec)?,
        },
        FAM_SEQ2SEQ => {
            let spec = need_spec(spec)?;
            let params = get_seq2seq_params(r)?;
            let x_scaler = StandardScaler::decode(r)?;
            let y_scaler = TargetScaler {
                mean: r.f64()?,
                std: r.f64()?,
            };
            let model = Seq2Seq::decode(r)?;
            // The network architecture must agree with the framework-level
            // params and the feature spec it claims to serve; a mismatch
            // means the payload was stitched together from different files.
            let cfg = model.config();
            if cfg.input_dim != spec.dim()
                || cfg.hidden != params.hidden
                || cfg.layers != params.layers
                || cfg.horizon != params.horizon
            {
                return Err(PersistError::Codec(CodecError::Invalid(
                    "Seq2Seq architecture disagrees with stored params/spec".into(),
                )));
            }
            if x_scaler.means.len() != spec.dim() || x_scaler.stds.len() != spec.dim() {
                return Err(PersistError::Codec(CodecError::Invalid(
                    "Seq2Seq feature scaler disagrees with feature spec".into(),
                )));
            }
            TrainedRegressor::Seq2Seq {
                model: Box::new(model),
                x_scaler,
                y_scaler,
                params,
                spec,
            }
        }
        _ => {
            return Err(PersistError::UnsupportedFamily(format!(
                "regressor tag {family}"
            )))
        }
    })
}

/// Encode a classifier to bytes. A `FromRegression` classifier nests its
/// regressor's full encoding.
pub fn encode_classifier(model: &TrainedClassifier) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_header(&mut w, KIND_CLASSIFIER);
    match model {
        TrainedClassifier::GdbtNative { model, spec } => {
            w.put_u8(FAM_GDBT);
            put_spec(&mut w, Some(spec));
            model.encode(&mut w);
        }
        TrainedClassifier::RfNative { model, spec } => {
            w.put_u8(FAM_RF);
            put_spec(&mut w, Some(spec));
            model.encode(&mut w);
        }
        TrainedClassifier::KnnNative { model, spec } => {
            w.put_u8(FAM_KNN);
            put_spec(&mut w, Some(spec));
            model.encode(&mut w);
        }
        TrainedClassifier::FromRegression(reg) => {
            w.put_u8(FAM_FROM_REGRESSION);
            put_spec(&mut w, None);
            let inner = encode_regressor(reg);
            w.put_len(inner.len());
            w.put_bytes(&inner);
        }
    }
    seal(w)
}

/// Decode a classifier from bytes produced by [`encode_classifier`].
pub fn decode_classifier(bytes: &[u8]) -> Result<TrainedClassifier, PersistError> {
    let payload = split_container(bytes)?;
    let mut r = ByteReader::new(payload);
    let kind = get_header(&mut r)?;
    if kind != KIND_CLASSIFIER {
        return Err(PersistError::WrongKind {
            expected: "classifier",
            found: kind,
        });
    }
    let family = r.u8()?;
    let spec = get_spec(&mut r)?;
    let need_spec = |spec: Option<FeatureSpec>| {
        spec.ok_or(PersistError::Codec(CodecError::Invalid(
            "missing feature spec".into(),
        )))
    };
    let model = match family {
        FAM_GDBT => {
            let model = GbdtClassifier::decode(&mut r)?;
            let spec = need_spec(spec)?;
            check_width(model.n_features(), &spec)?;
            TrainedClassifier::GdbtNative { model, spec }
        }
        FAM_RF => {
            let model = RandomForestClassifier::decode(&mut r)?;
            let spec = need_spec(spec)?;
            check_width(model.n_features(), &spec)?;
            TrainedClassifier::RfNative { model, spec }
        }
        FAM_KNN => {
            let model = KnnClassifier::decode(&mut r)?;
            let spec = need_spec(spec)?;
            check_width(model.n_features(), &spec)?;
            TrainedClassifier::KnnNative { model, spec }
        }
        FAM_FROM_REGRESSION => {
            let len = r.len()?;
            let inner = r.take(len)?;
            TrainedClassifier::FromRegression(Box::new(decode_regressor(inner)?))
        }
        _ => {
            return Err(PersistError::UnsupportedFamily(format!(
                "classifier tag {family}"
            )))
        }
    };
    r.finish().map_err(PersistError::Codec)?;
    Ok(model)
}

/// A persisted mid-training snapshot — everything a boosting loop or an
/// epoch loop needs to resume bit-identically after a kill.
#[derive(Debug, Clone)]
pub enum TrainingCheckpoint {
    /// GDBT boosting state: config, completed rounds, trees so far.
    Gdbt(GbdtCheckpoint),
    /// Seq2Seq epoch state: weights, Adam moments, epochs done, best
    /// validation snapshot. Boxed: the state dwarfs the GDBT variant.
    Seq2Seq(Box<Seq2SeqTrainState>),
}

/// Encode a training checkpoint into the same sealed `.l5gm` container
/// models use (kind byte 2).
pub fn encode_checkpoint(ckpt: &TrainingCheckpoint) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_header(&mut w, KIND_CHECKPOINT);
    match ckpt {
        TrainingCheckpoint::Gdbt(state) => {
            w.put_u8(FAM_GDBT);
            state.encode(&mut w);
        }
        TrainingCheckpoint::Seq2Seq(state) => {
            w.put_u8(FAM_SEQ2SEQ);
            state.encode(&mut w);
        }
    }
    seal(w)
}

/// Decode a training checkpoint produced by [`encode_checkpoint`].
pub fn decode_checkpoint(bytes: &[u8]) -> Result<TrainingCheckpoint, PersistError> {
    let payload = split_container(bytes)?;
    let mut r = ByteReader::new(payload);
    let kind = get_header(&mut r)?;
    if kind != KIND_CHECKPOINT {
        return Err(PersistError::WrongKind {
            expected: "training checkpoint",
            found: kind,
        });
    }
    let family = r.u8()?;
    let ckpt = match family {
        FAM_GDBT => TrainingCheckpoint::Gdbt(GbdtCheckpoint::decode(&mut r)?),
        FAM_SEQ2SEQ => TrainingCheckpoint::Seq2Seq(Box::new(Seq2SeqTrainState::decode(&mut r)?)),
        _ => {
            return Err(PersistError::UnsupportedFamily(format!(
                "checkpoint tag {family}"
            )))
        }
    };
    r.finish().map_err(PersistError::Codec)?;
    Ok(ckpt)
}

/// Save a training checkpoint atomically to `path`.
pub fn save_checkpoint(ckpt: &TrainingCheckpoint, path: &Path) -> Result<(), PersistError> {
    atomic_write(path, &encode_checkpoint(ckpt))
}

/// Load a training checkpoint saved by [`save_checkpoint`].
pub fn load_checkpoint(path: &Path) -> Result<TrainingCheckpoint, PersistError> {
    decode_checkpoint(&std::fs::read(path)?)
}

/// Crash-safe file replacement: write a temp file next to `path`, fsync
/// it, `rename` over the destination, and fsync the directory so the
/// rename itself is durable. A kill at any instant leaves either the old
/// content or the new content at `path` — never a torn hybrid — plus at
/// worst an orphaned `*.tmp` file that loaders ignore.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    std::fs::create_dir_all(&parent)?;
    let file_name = path.file_name().ok_or_else(|| {
        PersistError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            "atomic_write target has no file name",
        ))
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = parent.join(tmp_name);
    let write = (|| -> io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // The data must be on disk before the rename publishes it,
        // otherwise a crash could surface a durable name with volatile
        // content — exactly the torn state the temp file exists to avoid.
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(PersistError::Io(e));
    }
    // Durability of the directory entry; best-effort where directories
    // cannot be fsynced (some filesystems), correctness never depends on
    // it — only on the data-before-rename ordering above.
    if let Ok(dir) = std::fs::File::open(&parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// Save a regressor atomically to `path`, creating parent directories as
/// needed.
pub fn save_regressor(model: &TrainedRegressor, path: &Path) -> Result<(), PersistError> {
    atomic_write(path, &encode_regressor(model))
}

/// Load a regressor saved by [`save_regressor`].
pub fn load_regressor(path: &Path) -> Result<TrainedRegressor, PersistError> {
    decode_regressor(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{quick_gbdt, quick_seq2seq, Lumos5G, ModelKind};
    use lumos5g_ml::forest::ForestConfig;
    use lumos5g_sim::{airport, quality, run_campaign, CampaignConfig, Dataset};

    fn campaign(seed: u64) -> Dataset {
        let area = airport(seed);
        let cfg = CampaignConfig {
            passes_per_trajectory: 2,
            max_duration_s: 160,
            base_seed: seed,
            bad_gps_fraction: 0.0,
            ..Default::default()
        };
        let raw = run_campaign(&area, &cfg);
        let (clean, _) = quality::apply(&raw, &area.frame, &Default::default());
        clean
    }

    fn family_grid(seed: u64) -> Vec<(&'static str, ModelKind)> {
        let mut gbdt = quick_gbdt();
        gbdt.seed = seed;
        vec![
            ("gdbt", ModelKind::Gdbt(gbdt)),
            ("knn", ModelKind::Knn { k: 5 }),
            (
                "rf",
                ModelKind::RandomForest(ForestConfig {
                    n_trees: 15,
                    ..Default::default()
                }),
            ),
        ]
    }

    #[test]
    fn regressor_round_trip_is_bit_identical_for_every_family() {
        let data = campaign(11);
        for (name, kind) in family_grid(11) {
            for set in [FeatureSet::L, FeatureSet::LM, FeatureSet::LMC] {
                let model = Lumos5G::new(set, kind.clone())
                    .fit_regression(&data)
                    .unwrap();
                let bytes = encode_regressor(&model);
                let loaded = decode_regressor(&bytes).unwrap();
                assert_eq!(loaded.spec(), model.spec(), "{name}/{set:?}");
                let (_, want) = model.eval(&data);
                let (_, got) = loaded.eval(&data);
                assert_eq!(want.len(), got.len());
                for (w, g) in want.iter().zip(&got) {
                    assert_eq!(w.to_bits(), g.to_bits(), "{name}/{set:?}");
                }
            }
        }
    }

    #[test]
    fn classifier_round_trip_is_bit_identical_for_every_family() {
        let data = campaign(13);
        for (name, kind) in family_grid(13) {
            let model = Lumos5G::new(FeatureSet::LM, kind)
                .fit_classification(&data)
                .unwrap();
            let bytes = encode_classifier(&model);
            let loaded = decode_classifier(&bytes).unwrap();
            let (_, want) = model.eval(&data);
            let (_, got) = loaded.eval(&data);
            assert_eq!(want, got, "{name}");
        }
    }

    #[test]
    fn harmonic_and_from_regression_round_trip() {
        let data = campaign(17);
        let reg = Lumos5G::new(FeatureSet::L, ModelKind::HarmonicMean { window: 7 })
            .fit_regression(&data)
            .unwrap();
        let loaded = decode_regressor(&encode_regressor(&reg)).unwrap();
        assert!(matches!(loaded, TrainedRegressor::Harmonic { window: 7 }));

        let clf = Lumos5G::new(FeatureSet::L, ModelKind::HarmonicMean { window: 7 })
            .fit_classification(&data)
            .unwrap();
        let loaded = decode_classifier(&encode_classifier(&clf)).unwrap();
        let (want_t, want_p) = clf.eval(&data);
        let (got_t, got_p) = loaded.eval(&data);
        assert_eq!(want_t, got_t);
        assert_eq!(want_p, got_p);
    }

    #[test]
    fn kriging_round_trip_is_bit_identical() {
        let data = campaign(19);
        let kriging = Lumos5G::new(FeatureSet::L, ModelKind::Kriging { neighbors: 8 })
            .fit_regression(&data)
            .unwrap();
        let bytes = encode_regressor(&kriging);
        let loaded = decode_regressor(&bytes).unwrap();
        assert_eq!(loaded.spec(), kriging.spec());
        let (_, want) = kriging.eval(&data);
        let (_, got) = loaded.eval(&data);
        assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
        // Truncations must error cleanly, never panic.
        for cut in (0..bytes.len()).step_by(13).chain([bytes.len() - 1]) {
            assert!(decode_regressor(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn seq2seq_round_trip_is_bit_identical_including_horizons() {
        let data = campaign(19);
        let mut p = quick_seq2seq();
        p.epochs = 2;
        let model = Lumos5G::new(FeatureSet::LM, ModelKind::Seq2Seq(p))
            .fit_regression(&data)
            .unwrap();
        let bytes = encode_regressor(&model);
        let loaded = decode_regressor(&bytes).unwrap();
        assert_eq!(loaded.spec(), model.spec());
        assert_eq!(loaded.seq2seq_params(), model.seq2seq_params());

        // Every k-step horizon decoded from a restored model must match the
        // original bit-for-bit.
        let spec = *model.spec().unwrap();
        let seqs = crate::build_sequences(&data, &spec, p.input_len, p.horizon, p.stride);
        assert!(!seqs.inputs.is_empty());
        for hist in seqs.inputs.iter().take(16) {
            let want = model.predict_sequence_batch(&[hist]).unwrap().remove(0);
            let got = loaded.predict_sequence_batch(&[hist]).unwrap().remove(0);
            assert_eq!(want.len(), got.len());
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // Truncations must error cleanly, never panic (the payload is large,
        // so stride the cut points).
        for cut in (0..bytes.len()).step_by(257).chain([bytes.len() - 1]) {
            assert!(decode_regressor(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn models_wider_than_their_feature_spec_are_rejected() {
        // Fitted on L+M+C rows, then filed under the narrower L spec: trees
        // would index served L rows past their end, KNN's scaler would
        // panic on them.
        let wide = crate::tabular::build_tabular(&campaign(11), &FeatureSpec::new(FeatureSet::LMC));
        let rf = ModelKind::RandomForest(ForestConfig {
            n_trees: 3,
            ..Default::default()
        });
        for kind in [ModelKind::Gdbt(quick_gbdt()), rf, ModelKind::Knn { k: 3 }] {
            let narrow = Lumos5G::new(FeatureSet::L, kind);
            let reg = narrow.fit_regressor_rows(&wide).unwrap();
            let got = decode_regressor(&encode_regressor(&reg));
            assert!(got.is_err(), "regressor decoded: {got:?}");
            let clf = narrow.fit_classifier_rows(&wide).unwrap();
            let got = decode_classifier(&encode_classifier(&clf));
            assert!(got.is_err(), "classifier decoded: {got:?}");
        }
    }

    #[test]
    fn every_truncation_errors_instead_of_panicking() {
        let data = campaign(23);
        let model = Lumos5G::new(FeatureSet::LM, ModelKind::Knn { k: 3 })
            .fit_regression(&data)
            .unwrap();
        let bytes = encode_regressor(&model);
        // Every strict prefix must fail cleanly (step 7 keeps it fast; the
        // interesting boundaries near the header are all covered).
        for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            assert!(decode_regressor(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_header_and_trailing_bytes_are_rejected() {
        let model = TrainedRegressor::Harmonic { window: 5 };
        let bytes = encode_regressor(&model);

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_regressor(&bad_magic),
            Err(PersistError::BadMagic)
        ));

        let mut future = bytes.clone();
        future[4..6].copy_from_slice(&999u16.to_le_bytes());
        assert!(matches!(
            decode_regressor(&future),
            Err(PersistError::UnsupportedVersion(999))
        ));

        // Any payload byte flip — family tag included — fails the
        // checksum before the decoder ever sees the bogus tag.
        let mut bad_family = bytes.clone();
        bad_family[7] = 0xEE;
        assert!(matches!(
            decode_regressor(&bad_family),
            Err(PersistError::CrcMismatch { .. })
        ));

        // Appending a byte shifts the trailer window off the real CRC.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_regressor(&trailing),
            Err(PersistError::CrcMismatch { .. })
        ));

        // A regressor file is not a classifier and vice versa.
        assert!(matches!(
            decode_classifier(&bytes),
            Err(PersistError::WrongKind { .. })
        ));
    }

    #[test]
    fn every_bit_flip_is_caught_by_the_checksum() {
        let model = TrainedRegressor::Harmonic { window: 5 };
        let bytes = encode_regressor(&model);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    decode_regressor(&flipped).is_err(),
                    "flip at byte {byte} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn v1_files_are_rejected_as_unsupported() {
        // A version-1 Harmonic file: magic + version 1 + kind + family +
        // no spec + window, no trailer. Only version 2 is read.
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u16(1);
        w.put_u8(KIND_REGRESSOR);
        w.put_u8(FAM_HARMONIC);
        w.put_u8(0); // no spec
        w.put_u32(9);
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_regressor(&bytes),
            Err(PersistError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn checkpoint_container_rejects_kind_confusion() {
        let model = TrainedRegressor::Harmonic { window: 5 };
        let bytes = encode_regressor(&model);
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(PersistError::WrongKind { .. })
        ));
    }

    #[test]
    fn atomic_write_replaces_and_survives_reread() {
        let dir = std::env::temp_dir().join(format!("l5gm-atomic-{}", std::process::id()));
        let path = dir.join("model.l5gm");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp file left behind after a successful write.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path() != path)
            .collect();
        assert!(leftovers.is_empty(), "stray files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_files_round_trip() {
        let dir = std::env::temp_dir().join(format!("l5gm-persist-{}", std::process::id()));
        let data = campaign(29);
        let model = Lumos5G::new(FeatureSet::LM, ModelKind::Gdbt(quick_gbdt()))
            .fit_regression(&data)
            .unwrap();
        let path = dir.join("nested/model.l5gm");
        save_regressor(&model, &path).unwrap();
        let loaded = load_regressor(&path).unwrap();
        let (_, want) = model.eval(&data);
        let (_, got) = loaded.eval(&data);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
