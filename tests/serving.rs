//! Serving-engine integration: the online engine must be a deterministic,
//! bit-exact, hot-swappable view of offline evaluation.

use lumos5g::{FeatureSet, Lumos5G, ModelKind, TrainedRegressor};
use lumos5g_serve::{Engine, EngineConfig, OverloadPolicy, Prediction, ReplaySource};
use lumos5g_sim::{airport, quality, run_campaign, CampaignConfig, Dataset};
use std::collections::{BTreeMap, HashMap};

fn serving_data(seed: u64) -> Dataset {
    let area = airport(seed);
    let cfg = CampaignConfig {
        passes_per_trajectory: 3,
        max_duration_s: 200,
        base_seed: seed,
        bad_gps_fraction: 0.0,
        ..Default::default()
    };
    let raw = run_campaign(&area, &cfg);
    quality::apply(&raw, &area.frame, &Default::default()).0
}

fn gdbt_lmc(data: &Dataset, seed: u64) -> TrainedRegressor {
    let mut cfg = lumos5g::quick_gbdt();
    cfg.seed = seed;
    Lumos5G::new(FeatureSet::LMC, ModelKind::Gdbt(cfg))
        .fit_regression(data)
        .unwrap()
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        shards: 4,
        queue_capacity: 256,
        policy: OverloadPolicy::Block,
        ..Default::default()
    }
}

fn run_replay(model: TrainedRegressor, src: &ReplaySource) -> Vec<Prediction> {
    let engine = Engine::start(model, engine_cfg());
    let stats = src.run(&engine, 0.0);
    assert_eq!(stats.shed, 0);
    let (report, responses) = engine.shutdown();
    assert_eq!(report.processed, stats.submitted);
    responses.iter().collect()
}

/// One sequence response: `(ue, pass, t)` → horizon bits (`None` = warm-up).
type HorizonKey = ((u64, u32, u32), Option<Vec<u64>>);

fn seq2seq_lm(data: &Dataset, seed: u64) -> TrainedRegressor {
    let mut p = lumos5g::quick_seq2seq();
    p.seed = seed;
    p.epochs = 3;
    Lumos5G::new(FeatureSet::LM, ModelKind::Seq2Seq(p))
        .fit_regression(data)
        .unwrap()
}

#[test]
fn sequence_serving_bit_matches_offline_and_any_shard_or_batch_count() {
    let data = serving_data(83);
    let model = seq2seq_lm(&data, 0);
    let params = *model.seq2seq_params().unwrap();
    let spec = *model.spec().unwrap();
    let required = spec.required_window();
    let src = ReplaySource::from_dataset(&data, 6);

    // Offline reference: replay each UE's stream through the same sliding
    // windows a Session maintains — record window for extraction, feature
    // history for the encoder, both reset at any discontinuity — and call
    // the offline predictor directly once the history fills.
    let mut windows: HashMap<u64, Vec<lumos5g_sim::Record>> = HashMap::new();
    let mut hists: HashMap<u64, Vec<Vec<f64>>> = HashMap::new();
    let mut expected: HashMap<(u64, u32, u32), Option<Vec<u64>>> = HashMap::new();
    for (ue, r) in src.events() {
        let w = windows.entry(*ue).or_default();
        let h = hists.entry(*ue).or_default();
        let contiguous = w
            .last()
            .is_none_or(|p| p.pass_id == r.pass_id && p.t.checked_add(1) == Some(r.t));
        if !contiguous {
            w.clear();
            h.clear();
        }
        if w.len() == required {
            w.remove(0);
        }
        w.push(r.clone());
        if let Some(x) = spec.extract_latest(w) {
            if h.len() == params.input_len {
                h.remove(0);
            }
            h.push(x);
        }
        let horizon = if h.len() >= params.input_len {
            let y = model.predict_sequence_batch(&[h]).unwrap().remove(0);
            assert_eq!(y.len(), params.horizon);
            Some(y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>())
        } else {
            None
        };
        expected.insert((*ue, r.pass_id, r.t), horizon);
    }
    assert!(
        expected.values().any(Option::is_some),
        "reference replay produced no full histories"
    );

    // Online: the same stream through every shard count and decode batch
    // must reproduce the offline horizons bit-for-bit — batching and
    // sharding reorder work, never floating-point operations.
    let mut baseline: Option<Vec<HorizonKey>> = None;
    for (shards, decode_batch) in [(1usize, 8usize), (2, 8), (4, 8), (4, 1)] {
        let engine = Engine::start(
            model.clone(),
            EngineConfig {
                shards,
                queue_capacity: 256,
                policy: OverloadPolicy::Block,
                decode_batch,
                ..Default::default()
            },
        );
        let stats = src.run(&engine, 0.0);
        assert_eq!(stats.shed, 0);
        let (report, responses) = engine.shutdown();
        let responses: Vec<Prediction> = responses.iter().collect();
        assert_eq!(report.processed, stats.submitted);
        assert_eq!(responses.len() as u64, stats.submitted);

        for p in &responses {
            assert!(!p.degraded, "fault-free sequence serving degraded");
            let got = p
                .horizon_mbps
                .as_ref()
                .map(|h| h.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
            let want = expected
                .get(&(p.ue, p.pass_id, p.t))
                .unwrap_or_else(|| panic!("unexpected response key ue={} t={}", p.ue, p.t));
            assert_eq!(
                &got, want,
                "horizon mismatch at ue={} pass={} t={} (shards={shards} batch={decode_batch})",
                p.ue, p.pass_id, p.t
            );
            // The scalar response is the first step of the horizon.
            assert_eq!(
                p.predicted_mbps.map(f64::to_bits),
                p.horizon_mbps
                    .as_ref()
                    .and_then(|h| h.first())
                    .map(|v| v.to_bits())
            );
        }

        let mut keyed: Vec<_> = responses
            .into_iter()
            .map(|p| {
                (
                    (p.ue, p.pass_id, p.t),
                    p.horizon_mbps
                        .map(|h| h.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()),
                )
            })
            .collect();
        keyed.sort_unstable();
        match &baseline {
            None => baseline = Some(keyed),
            Some(b) => assert_eq!(
                b, &keyed,
                "shards={shards} batch={decode_batch} diverged from baseline"
            ),
        }
    }
}

#[test]
fn serving_is_deterministic_under_fixed_seed() {
    let data = serving_data(31);
    let src = ReplaySource::from_dataset(&data, 6);
    let mut a = run_replay(gdbt_lmc(&data, 0), &src);
    let mut b = run_replay(gdbt_lmc(&data, 0), &src);
    let key = |p: &Prediction| (p.ue, p.pass_id, p.t);
    a.sort_by_key(key);
    b.sort_by_key(key);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(key(x), key(y));
        assert_eq!(x.shard, y.shard, "UE affinity must be stable");
        // Bit-exact predictions across runs.
        assert_eq!(
            x.predicted_mbps.map(f64::to_bits),
            y.predicted_mbps.map(f64::to_bits),
            "prediction differs at ue={} pass={} t={}",
            x.ue,
            x.pass_id,
            x.t
        );
    }
}

#[test]
fn online_predictions_bit_match_offline_eval() {
    let data = serving_data(47);
    let model = gdbt_lmc(&data, 0);
    let spec = *model.spec().unwrap();

    // Offline reference: per-pass extraction + single-row prediction —
    // the exact reduction TrainedRegressor::eval performs internally.
    let mut offline: HashMap<(u32, u32), f64> = HashMap::new();
    let mut passes: BTreeMap<(u32, u32), Vec<&lumos5g_sim::Record>> = BTreeMap::new();
    for r in &data.records {
        passes.entry((r.trajectory, r.pass_id)).or_default().push(r);
    }
    for ((_, pass_id), mut recs) in passes {
        recs.sort_by_key(|r| r.t);
        let owned: Vec<lumos5g_sim::Record> = recs.into_iter().cloned().collect();
        for i in 0..owned.len() {
            if let Some(x) = spec.extract(&owned, i) {
                offline.insert((pass_id, owned[i].t), model.predict_one(&x).unwrap());
            }
        }
    }
    assert!(!offline.is_empty());

    // Online: replay the same records through a 4-shard engine.
    let src = ReplaySource::from_dataset(&data, 8);
    let responses = run_replay(model.clone(), &src);

    let mut matched = 0usize;
    for p in &responses {
        match (p.predicted_mbps, offline.get(&(p.pass_id, p.t))) {
            (Some(online), Some(&reference)) => {
                assert_eq!(
                    online.to_bits(),
                    reference.to_bits(),
                    "online {} != offline {} at pass={} t={}",
                    online,
                    reference,
                    p.pass_id,
                    p.t
                );
                matched += 1;
            }
            (None, None) => {} // warm-up second offline too (short history)
            (online, reference) => panic!(
                "warm-up disagreement at pass={} t={}: online={online:?} offline={reference:?}",
                p.pass_id, p.t
            ),
        }
    }
    assert_eq!(matched, offline.len(), "every offline row must be served");

    // Cross-check against the public eval() API: the multiset of
    // (truth, prediction) pairs must agree bit-for-bit on rows that have
    // a next-second ground truth.
    let (truth, pred) = model.eval(&data);
    let mut offline_pairs: Vec<(u64, u64)> = truth
        .iter()
        .zip(&pred)
        .map(|(t, p)| (t.to_bits(), p.to_bits()))
        .collect();
    // Online: prediction at t targets t+1; join with the measured value
    // echoed by the response at t+1 of the same pass.
    let mut measured: HashMap<(u32, u32), f64> = HashMap::new();
    for p in &responses {
        measured.insert((p.pass_id, p.t), p.measured_mbps);
    }
    let mut online_pairs: Vec<(u64, u64)> = responses
        .iter()
        .filter_map(|p| {
            let y = p.predicted_mbps?;
            let truth = measured.get(&(p.pass_id, p.t + 1))?;
            Some((truth.to_bits(), y.to_bits()))
        })
        .collect();
    offline_pairs.sort_unstable();
    online_pairs.sort_unstable();
    assert_eq!(offline_pairs, online_pairs);

    // Persistence leg: a codec round trip of the model must serve the
    // replay with the exact same bits as the in-memory original.
    let restored =
        lumos5g::persist::decode_regressor(&lumos5g::persist::encode_regressor(&model).unwrap())
            .unwrap();
    let restored_responses = run_replay(restored, &src);
    let key_pred = |ps: &[Prediction]| {
        let mut v: Vec<_> = ps
            .iter()
            .map(|p| (p.ue, p.pass_id, p.t, p.predicted_mbps.map(f64::to_bits)))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(key_pred(&responses), key_pred(&restored_responses));
}

#[test]
fn hot_swap_drops_nothing_and_keeps_order() {
    let data = serving_data(59);
    let model_a = gdbt_lmc(&data, 0);
    let mut cfg_b = lumos5g::quick_gbdt();
    cfg_b.seed = 99;
    cfg_b.n_estimators = 30;
    let model_b = Lumos5G::new(FeatureSet::LMC, ModelKind::Gdbt(cfg_b))
        .fit_regression(&data)
        .unwrap();

    let src = ReplaySource::from_dataset(&data, 6);
    let events = src.events();
    let half = events.len() / 2;

    let engine = Engine::start(model_a, engine_cfg());
    // Drain responses concurrently so unbounded buffering never hides a
    // drop; the consumer also sees responses in per-shard emit order.
    let rx = engine.responses().clone();
    let consumer = std::thread::spawn(move || rx.iter().collect::<Vec<Prediction>>());

    for (ue, r) in &events[..half] {
        assert!(engine.submit(*ue, r.clone()));
    }
    let v2 = engine.registry().swap(model_b);
    assert_eq!(v2, 2);
    for (ue, r) in &events[half..] {
        assert!(engine.submit(*ue, r.clone()));
    }
    let (report, _rx) = engine.shutdown();
    let responses = consumer.join().unwrap();

    // Zero dropped: one response per submitted record.
    assert_eq!(report.shed, 0);
    assert_eq!(responses.len(), events.len());
    assert_eq!(report.processed as usize, events.len());

    // Zero out-of-order: per UE, responses appear in exactly the order the
    // records were submitted.
    let mut submitted_by_ue: HashMap<u64, Vec<(u32, u32)>> = HashMap::new();
    for (ue, r) in events {
        submitted_by_ue
            .entry(*ue)
            .or_default()
            .push((r.pass_id, r.t));
    }
    let mut responded_by_ue: HashMap<u64, Vec<(u32, u32)>> = HashMap::new();
    for p in &responses {
        responded_by_ue
            .entry(p.ue)
            .or_default()
            .push((p.pass_id, p.t));
    }
    assert_eq!(submitted_by_ue, responded_by_ue);

    // Model versions only ever move forward for a given UE.
    let mut seen: HashMap<u64, u64> = HashMap::new();
    for p in &responses {
        let last = seen.entry(p.ue).or_insert(p.model_version);
        assert!(
            p.model_version >= *last,
            "ue {} regressed from v{} to v{}",
            p.ue,
            last,
            p.model_version
        );
        *last = p.model_version;
        assert!(p.model_version == 1 || p.model_version == 2);
    }
    // The swap happened mid-run: the new version must actually serve.
    assert!(responses.iter().any(|p| p.model_version == 2));
}
