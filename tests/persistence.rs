//! Cold-start integration: a serving engine restored from disk via
//! `ModelRegistry::load_dir` must serve predictions bit-identical to the
//! engine that trained the model — with zero retraining.

use lumos5g::persist::{self, TrainingCheckpoint};
use lumos5g::{FeatureSet, FeatureSpec, Lumos5G, ModelKind, TrainedRegressor};
use lumos5g_ml::codec::ByteWriter;
use lumos5g_ml::forest::ForestConfig;
use lumos5g_ml::{GbdtConfig, GbdtRegressor, Seq2Seq, Seq2SeqConfig};
use lumos5g_serve::{Engine, EngineConfig, ModelRegistry, OverloadPolicy, ReplaySource};
use lumos5g_sim::{airport, quality, run_campaign, CampaignConfig, Dataset};
use std::path::PathBuf;
use std::sync::Arc;

fn serving_data(seed: u64) -> Dataset {
    let area = airport(seed);
    let cfg = CampaignConfig {
        passes_per_trajectory: 2,
        max_duration_s: 160,
        base_seed: seed,
        bad_gps_fraction: 0.0,
        ..Default::default()
    };
    let raw = run_campaign(&area, &cfg);
    quality::apply(&raw, &area.frame, &Default::default()).0
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        shards: 3,
        queue_capacity: 256,
        policy: OverloadPolicy::Block,
        ..Default::default()
    }
}

/// One replayed response: `(ue, pass, t, prediction bits, horizon bits)`.
/// The horizon entry is `None` for single-row families and warm-ups.
type ReplayKey = (u64, u32, u32, Option<u64>, Option<Vec<u64>>);

/// Replay `src` through an engine built from `registry`; predictions keyed
/// by (ue, pass, t) so runs with different shard interleavings compare.
fn replay(registry: Arc<ModelRegistry>, src: &ReplaySource) -> Vec<ReplayKey> {
    let engine = Engine::start_with_registry(registry, engine_cfg());
    let stats = src.run(&engine, 0.0);
    assert_eq!(stats.shed, 0);
    let (report, responses) = engine.shutdown();
    assert_eq!(report.processed, stats.submitted);
    let mut out: Vec<_> = responses
        .iter()
        .map(|p| {
            (
                p.ue,
                p.pass_id,
                p.t,
                p.predicted_mbps.map(f64::to_bits),
                p.horizon_mbps
                    .as_ref()
                    .map(|h| h.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()),
            )
        })
        .collect();
    out.sort_unstable();
    out
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("l5gm-coldstart-{tag}-{}", std::process::id()))
}

#[test]
fn cold_start_serves_bit_identical_predictions_for_every_family() {
    let data = serving_data(71);
    let src = ReplaySource::from_dataset(&data, 6);
    let mut gbdt = lumos5g::quick_gbdt();
    gbdt.n_estimators = 40;
    let families: Vec<(&str, ModelKind)> = vec![
        ("gdbt", ModelKind::Gdbt(gbdt)),
        ("knn", ModelKind::Knn { k: 5 }),
        (
            "rf",
            ModelKind::RandomForest(ForestConfig {
                n_trees: 12,
                ..Default::default()
            }),
        ),
    ];
    for (name, kind) in families {
        let model = Lumos5G::new(FeatureSet::LM, kind)
            .fit_regression(&data)
            .unwrap();

        // Warm path: serve the freshly trained model and persist it.
        let warm = Arc::new(ModelRegistry::new(model));
        let dir = temp_dir(name);
        std::fs::remove_dir_all(&dir).ok();
        warm.store(&dir).unwrap();
        let warm_preds = replay(warm, &src);

        // Cold path: a "restarted" process restores the registry from disk
        // — no Dataset, no fit — and must reproduce every prediction bit.
        let cold = Arc::new(ModelRegistry::load_dir(&dir).unwrap());
        assert_eq!(cold.version(), 1, "{name}: saved version must survive");
        let cold_preds = replay(cold, &src);

        assert_eq!(warm_preds.len(), cold_preds.len(), "{name}");
        for (w, c) in warm_preds.iter().zip(&cold_preds) {
            assert_eq!(w, c, "{name}: cold-start prediction diverged");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The `.l5gm` gap this PR closes: a Seq2Seq engine must cold-start from
/// disk with zero retraining and serve the full k-step horizon with the
/// exact bits of the warm engine — config, LSTM weights, head and both
/// scalers all survive the raw-bit round trip.
#[test]
fn seq2seq_cold_start_serves_bit_identical_horizons() {
    let data = serving_data(79);
    let src = ReplaySource::from_dataset(&data, 5);
    let mut p = lumos5g::quick_seq2seq();
    p.epochs = 3;
    let model = Lumos5G::new(FeatureSet::LM, ModelKind::Seq2Seq(p))
        .fit_regression(&data)
        .unwrap();

    let warm = Arc::new(ModelRegistry::new(model));
    let dir = temp_dir("seq2seq");
    std::fs::remove_dir_all(&dir).ok();
    warm.store(&dir).unwrap();
    let warm_preds = replay(warm, &src);

    let cold = Arc::new(ModelRegistry::load_dir(&dir).unwrap());
    assert_eq!(cold.version(), 1, "saved version must survive");
    assert!(
        matches!(*cold.current().regressor, TrainedRegressor::Seq2Seq { .. }),
        "family must survive the round trip"
    );
    let cold_preds = replay(cold, &src);

    // The cold engine must detect sequence mode from the restored model
    // (seq2seq_params survived) and actually serve horizons.
    assert!(
        cold_preds.iter().any(|k| k.4.is_some()),
        "cold-started engine served no horizons"
    );
    assert_eq!(warm_preds.len(), cold_preds.len());
    for (w, c) in warm_preds.iter().zip(&cold_preds) {
        assert_eq!(w, c, "cold-start sequence prediction diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_dir_restores_the_latest_of_several_saved_versions() {
    let data = serving_data(73);
    let dir = temp_dir("versions");
    std::fs::remove_dir_all(&dir).ok();

    let registry = ModelRegistry::new(
        Lumos5G::new(FeatureSet::L, ModelKind::Knn { k: 3 })
            .fit_regression(&data)
            .unwrap(),
    );
    registry.store(&dir).unwrap(); // model.gen-1: KNN
    let mut cfg = lumos5g::quick_gbdt();
    cfg.n_estimators = 20;
    registry.swap(
        Lumos5G::new(FeatureSet::LM, ModelKind::Gdbt(cfg))
            .fit_regression(&data)
            .unwrap(),
    );
    registry.store(&dir).unwrap(); // model.gen-2: GDBT

    let restored = ModelRegistry::load_dir(&dir).unwrap();
    assert_eq!(restored.version(), 2);
    assert!(matches!(
        *restored.current().regressor,
        TrainedRegressor::Gdbt { .. }
    ));
    // The restored v2 must be the same model bit-for-bit.
    let (_, want) = registry.current().regressor.eval(&data);
    let (_, got) = restored.current().regressor.eval(&data);
    assert_eq!(want.len(), got.len());
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w.to_bits(), g.to_bits());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Torn-write chaos: whatever survives a crash mid-write — the newest
/// generation truncated to ANY byte length, or any single bit flipped —
/// a cold start must land on the last durable generation, report exactly
/// one skipped checkpoint, and never decode a torn model.
#[test]
fn torn_checkpoints_always_fall_back_to_the_last_durable_generation() {
    let data = serving_data(83);
    let dir = temp_dir("torn");
    std::fs::remove_dir_all(&dir).ok();

    let registry = ModelRegistry::new(
        Lumos5G::new(FeatureSet::L, ModelKind::Knn { k: 3 })
            .fit_regression(&data)
            .unwrap(),
    );
    registry.store(&dir).unwrap(); // gen-1: the durable fallback
    let mut cfg = lumos5g::quick_gbdt();
    cfg.n_estimators = 4;
    cfg.max_depth = 2;
    registry.swap(
        Lumos5G::new(FeatureSet::LM, ModelKind::Gdbt(cfg))
            .fit_regression(&data)
            .unwrap(),
    );
    registry.store(&dir).unwrap(); // gen-2: the file we tear
    let gen2 = dir.join("model.gen-2.l5gm");
    let pristine = std::fs::read(&gen2).unwrap();
    assert!(pristine.len() > 16, "container must be non-trivial");

    let fallback_to_gen1 = |tag: &str, bytes: &[u8]| -> Arc<ModelRegistry> {
        std::fs::write(&gen2, bytes).unwrap();
        let (restored, report) = ModelRegistry::load_dir_report(&dir).unwrap();
        assert_eq!(report.version, 1, "{tag}: must fall back to gen-1");
        assert_eq!(report.skipped.len(), 1, "{tag}: torn gen-2 goes unreported");
        assert_eq!(report.skipped[0].version, 2, "{tag}");
        Arc::new(restored)
    };
    // Every truncation length, 0 (empty file) through len-1.
    let mut last = None;
    for cut in 0..pristine.len() {
        last = Some(fallback_to_gen1(
            &format!("truncated to {cut} bytes"),
            &pristine[..cut],
        ));
    }
    // Every single-bit corruption position (one bit per byte: the CRC is
    // position-sensitive, so one representative bit per byte suffices).
    for i in 0..pristine.len() {
        last = Some(fallback_to_gen1(&format!("bit flipped at byte {i}"), &{
            let mut b = pristine.clone();
            b[i] ^= 1;
            b
        }));
    }
    // The fallback is the real durable generation, bit for bit.
    let eval_slice = Dataset::new(data.records[..40.min(data.len())].to_vec());
    let (want_model, gen) = ModelRegistry::load_generation_below(&dir, 2).unwrap();
    assert_eq!(gen, 1);
    let (_, want) = want_model.eval(&eval_slice);
    let (_, got) = last.unwrap().current().regressor.eval(&eval_slice);
    assert_eq!(want.len(), got.len());
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w.to_bits(), g.to_bits(), "fallback model diverged");
    }

    // An orphaned temp file from a crashed atomic_write is not a
    // generation: restoring the pristine bytes must serve gen-2 cleanly.
    std::fs::write(dir.join("model.gen-9.l5gm.12345.tmp"), b"torn garbage").unwrap();
    std::fs::write(&gen2, &pristine).unwrap();
    let (restored, report) = ModelRegistry::load_dir_report(&dir).unwrap();
    assert_eq!(report.version, 2, "pristine gen-2 must serve again");
    assert!(report.skipped.is_empty(), "nothing to skip once repaired");
    assert!(matches!(
        *restored.current().regressor,
        TrainedRegressor::Gdbt { .. }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// Interrupt GDBT training at every on-disk checkpoint, restart from the
/// file, and the final model must match the uninterrupted fit all the way
/// down to its serialized `.l5gm` bytes.
#[test]
fn gdbt_training_resumed_from_any_on_disk_checkpoint_is_bit_identical() {
    let dir = temp_dir("gdbt-resume");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let xs: Vec<Vec<f64>> = (0..120)
        .map(|i| vec![(i % 17) as f64, (i % 5) as f64, (i / 3) as f64])
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|r| 2.0 * r[0] - 0.5 * r[1] + 0.25 * r[2])
        .collect();
    let cfg = GbdtConfig {
        n_estimators: 10,
        max_depth: 3,
        learning_rate: 0.2,
        min_samples_leaf: 2,
        subsample: 0.7, // subsampling: the RNG replay matters
        seed: 9,
    };
    let spec = FeatureSpec::new(FeatureSet::L);
    let final_path = dir.join("final.l5gm");
    let bytes_of = |model: GbdtRegressor| -> Vec<u8> {
        persist::save_regressor(&TrainedRegressor::Gdbt { model, spec }, &final_path).unwrap();
        std::fs::read(&final_path).unwrap()
    };
    let want = bytes_of(GbdtRegressor::fit(&xs, &ys, &cfg));

    // One probe run writes every checkpoint through the atomic writer,
    // keeping a copy per interrupt point.
    let live = dir.join("train.ckpt.l5gm");
    let mut rounds_seen = Vec::new();
    let probe = GbdtRegressor::fit_resumable(&xs, &ys, &cfg, None, 2, |ck| {
        persist::save_checkpoint(&TrainingCheckpoint::Gdbt(ck.clone()), &live).unwrap();
        std::fs::copy(
            &live,
            dir.join(format!("train.{}.ckpt.l5gm", ck.rounds_done)),
        )
        .unwrap();
        rounds_seen.push(ck.rounds_done);
    });
    assert_eq!(bytes_of(probe), want, "checkpointing must not perturb");
    assert_eq!(rounds_seen, vec![2, 4, 6, 8]);

    for rounds in rounds_seen {
        let path = dir.join(format!("train.{rounds}.ckpt.l5gm"));
        let ck = match persist::load_checkpoint(&path).unwrap() {
            TrainingCheckpoint::Gdbt(ck) => ck,
            _ => panic!("wrong checkpoint kind at {}", path.display()),
        };
        assert_eq!(ck.rounds_done, rounds);
        let resumed = GbdtRegressor::fit_resumable(&xs, &ys, &cfg, Some(ck), 0, |_| {});
        assert_eq!(
            bytes_of(resumed),
            want,
            "resume from round {rounds} diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The Seq2Seq twin of the test above: epoch checkpoints — weights, Adam
/// moments, RNG position — survive the `.l5gm` file round trip and resume
/// to the exact bits of an uninterrupted training run.
#[test]
fn seq2seq_training_resumed_from_any_on_disk_checkpoint_is_bit_identical() {
    let dir = temp_dir("s2s-resume");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = Seq2SeqConfig {
        input_dim: 2,
        hidden: 5,
        layers: 1,
        horizon: 3,
        epochs: 7,
        batch_size: 8,
        lr: 5e-3,
        teacher_forcing: 0.5, // partial forcing: the RNG stream matters
        clip_norm: 5.0,
        seed: 3,
    };
    let inputs: Vec<Vec<Vec<f64>>> = (0..18)
        .map(|s| {
            (0..8)
                .map(|t| vec![((s + t) as f64 * 0.37).sin(), (t as f64 * 0.21).cos()])
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..18)
        .map(|s| (0..3).map(|t| ((s + 8 + t) as f64 * 0.37).sin()).collect())
        .collect();
    let model_bytes = |m: &Seq2Seq| -> Vec<u8> {
        let mut w = ByteWriter::new();
        m.encode(&mut w);
        w.into_bytes()
    };

    let mut uninterrupted = Seq2Seq::new(cfg);
    uninterrupted.train(&inputs, &targets);
    let want = model_bytes(&uninterrupted);

    let live = dir.join("s2s.ckpt.l5gm");
    let mut epochs_seen = Vec::new();
    let mut probe = Seq2Seq::new(cfg);
    probe.train_resumable(&inputs, &targets, 0.0, 0, None, 2, |st| {
        persist::save_checkpoint(&TrainingCheckpoint::Seq2Seq(Box::new(st.clone())), &live)
            .unwrap();
        std::fs::copy(
            &live,
            dir.join(format!("s2s.{}.ckpt.l5gm", st.epochs_done())),
        )
        .unwrap();
        epochs_seen.push(st.epochs_done());
    });
    assert_eq!(model_bytes(&probe), want, "checkpointing must not perturb");
    assert_eq!(epochs_seen, vec![2, 4, 6]);

    for epochs in epochs_seen {
        let path = dir.join(format!("s2s.{epochs}.ckpt.l5gm"));
        let st = match persist::load_checkpoint(&path).unwrap() {
            TrainingCheckpoint::Seq2Seq(st) => *st,
            _ => panic!("wrong checkpoint kind at {}", path.display()),
        };
        assert_eq!(st.epochs_done(), epochs);
        let mut resumed = Seq2Seq::new(cfg);
        resumed.train_resumable(&inputs, &targets, 0.0, 0, Some(st), 0, |_| {});
        assert_eq!(
            model_bytes(&resumed),
            want,
            "resume from epoch {epochs} diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
