//! Chaos integration: under deterministic fault injection — corrupt
//! telemetry, model panics, NaN outputs, poison records and worker kills —
//! the engine must answer exactly one response per accepted record, keep
//! every emitted prediction finite, and reproduce identical fault counters
//! and response bits across two runs with the same seed. An inert
//! `FaultPlan` must be indistinguishable from running with no plan at all,
//! which is what keeps the fault-free bit-exactness invariant intact.

use lumos5g::{FeatureSet, Lumos5G, ModelKind, TrainedRegressor};
use lumos5g_serve::{
    Engine, EngineConfig, EngineReport, FaultPlan, ModelRegistry, OverloadPolicy, Prediction,
    ReplaySource,
};
use lumos5g_sim::{airport, quality, run_campaign, CampaignConfig, Dataset};
use std::sync::Arc;

fn chaos_data(seed: u64) -> Dataset {
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

fn gdbt_lmc(data: &Dataset) -> TrainedRegressor {
    let mut cfg = lumos5g::quick_gbdt();
    cfg.seed = 7;
    Lumos5G::new(FeatureSet::LMC, ModelKind::Gdbt(cfg))
        .fit_regression(data)
        .unwrap()
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        shards: 4,
        queue_capacity: 512,
        policy: OverloadPolicy::Block,
        ..Default::default()
    }
}

/// Response identity + payload, bit-exact: `(ue, pass, t, bits, degraded)`.
type ResponseKey = (u64, u32, u32, Option<u64>, bool);

/// One full replay (`rounds` passes over `src`) through a chaos-enabled
/// engine. Returns the shutdown report, accepted/rejected tallies and the
/// sorted multiset of responses. Asserts the invariants that must hold on
/// *every* run regardless of seed: nothing shed under `Block`, and no
/// non-finite prediction ever emitted.
fn run_chaos(
    model: TrainedRegressor,
    src: &ReplaySource,
    plan: Option<Arc<FaultPlan>>,
    rounds: usize,
) -> (EngineReport, u64, u64, Vec<ResponseKey>) {
    let engine = Engine::start_with_faults(Arc::new(ModelRegistry::new(model)), engine_cfg(), plan);
    // Drain concurrently so the unbounded output buffer never hides a loss.
    let rx = engine.responses().clone();
    let consumer = std::thread::spawn(move || rx.iter().collect::<Vec<Prediction>>());
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for _ in 0..rounds {
        let stats = src.run(&engine);
        assert_eq!(stats.shed, 0, "Block policy must never shed");
        accepted += stats.accepted;
        rejected += stats.rejected;
    }
    let (report, _rx) = engine.shutdown();
    let responses = consumer.join().unwrap();
    for p in &responses {
        if let Some(y) = p.predicted_mbps {
            assert!(
                y.is_finite(),
                "non-finite prediction {y} at ue={} pass={} t={} (degraded={})",
                p.ue,
                p.pass_id,
                p.t,
                p.degraded
            );
        }
        if let Some(h) = &p.horizon_mbps {
            assert!(
                h.iter().all(|v| v.is_finite()),
                "non-finite horizon {h:?} at ue={} pass={} t={}",
                p.ue,
                p.pass_id,
                p.t
            );
            assert_eq!(
                p.predicted_mbps.map(f64::to_bits),
                h.first().map(|v| v.to_bits()),
                "horizon[0] must be the served prediction"
            );
        }
    }
    let mut keys: Vec<ResponseKey> = responses
        .iter()
        .map(|p| {
            (
                p.ue,
                p.pass_id,
                p.t,
                p.predicted_mbps.map(f64::to_bits),
                p.degraded,
            )
        })
        .collect();
    keys.sort_unstable();
    (report, accepted, rejected, keys)
}

#[test]
fn chaos_replay_answers_every_accepted_record_deterministically() {
    let data = chaos_data(23);
    let model = gdbt_lmc(&data);
    // In-shard faults are keyed by record *content*, so a replay that loops
    // the same ~1k-event stream only ever draws from ~1k distinct keys —
    // production-scale basis-point rates would round to zero here. Crank
    // the rates so every fault class provably fires each round.
    let mut plan = FaultPlan::seeded(0xC4A05);
    plan.predict_panic_bp = 100;
    plan.predict_nan_bp = 100;
    plan.predict_slow_bp = 50;
    plan.poison_bp = 50;
    plan.kill_bp = 40;
    plan.corrupt_bp = 100;
    let plan = Arc::new(plan);
    let src = ReplaySource::from_dataset(&data, 8).corrupted(&plan);
    let rounds = 50_000_usize.div_ceil(src.len()).max(1);
    assert!(
        src.len() * rounds >= 50_000,
        "chaos replay must cover >= 50k records, got {}",
        src.len() * rounds
    );

    let (ra, acc_a, rej_a, keys_a) = run_chaos(model.clone(), &src, Some(plan.clone()), rounds);
    let (rb, acc_b, rej_b, keys_b) = run_chaos(model, &src, Some(plan), rounds);

    // (a) Exactly one response per accepted record — none lost, none extra.
    assert_eq!(keys_a.len() as u64, acc_a, "responses != accepted records");
    assert_eq!(ra.processed, acc_a);
    assert_eq!(ra.rejected, rej_a);
    assert_eq!(ra.shed, 0);
    assert_eq!(ra.shed_stale, 0);

    // Every injected fault class actually fired at these rates.
    assert!(rej_a > 0, "source corruption never tripped admission");
    assert!(ra.quarantined > 0, "no poison record was quarantined");
    assert!(
        ra.fallbacks > 0,
        "no model fault reached the fallback chain"
    );
    assert!(ra.panicked > 0, "no worker was ever killed");
    assert_eq!(ra.restarted, ra.panicked, "every dead worker is respawned");

    // Counter accounting: each processed record is exactly one of
    // predicted / warm-up / quarantined.
    let warmups: u64 = ra.shards.iter().map(|s| s.warmups).sum();
    assert_eq!(ra.predictions + warmups + ra.quarantined, ra.processed);

    // Online MAE survives degraded answers without going non-finite.
    assert!(ra.mae_mbps.is_some_and(f64::is_finite));

    // (b) Same seed, same counters.
    assert_eq!(acc_a, acc_b);
    assert_eq!(rej_a, rej_b);
    assert_eq!(ra.processed, rb.processed);
    assert_eq!(ra.predictions, rb.predictions);
    assert_eq!(ra.quarantined, rb.quarantined);
    assert_eq!(ra.fallbacks, rb.fallbacks);
    assert_eq!(ra.panicked, rb.panicked);
    assert_eq!(ra.restarted, rb.restarted);
    assert_eq!(ra.rejected_by, rb.rejected_by);
    assert_eq!(ra.mae_mbps.map(f64::to_bits), rb.mae_mbps.map(f64::to_bits));

    // (c) Same seed, bit-identical responses (finiteness asserted above).
    assert_eq!(
        keys_a, keys_b,
        "same-seed chaos runs must match bit-for-bit"
    );
}

/// Sequence serving under chaos: the batched decoder path must uphold the
/// same liveness contract as the single-row path — exactly one finite
/// response per accepted record, every fault class survived. Response bits
/// are NOT compared across runs here: batch composition depends on queue
/// timing, so a worker kill can land after a different number of emitted
/// lanes run-to-run; the fault-free bit-exactness invariant is covered by
/// the `serving` test instead.
#[test]
fn seq2seq_chaos_replay_answers_every_accepted_record() {
    let data = chaos_data(29);
    let mut p = lumos5g::quick_seq2seq();
    p.epochs = 2;
    let model = Lumos5G::new(FeatureSet::LM, ModelKind::Seq2Seq(p))
        .fit_regression(&data)
        .unwrap();
    let mut plan = FaultPlan::seeded(0x5E42);
    plan.predict_panic_bp = 200;
    plan.predict_nan_bp = 200;
    plan.predict_slow_bp = 100;
    plan.poison_bp = 100;
    plan.kill_bp = 80;
    plan.corrupt_bp = 200;
    let plan = Arc::new(plan);
    let src = ReplaySource::from_dataset(&data, 8).corrupted(&plan);

    let (ra, accepted, rejected, keys) = run_chaos(model, &src, Some(plan), 3);

    // Exactly one (finite — asserted inside run_chaos) response per
    // accepted record, none lost to a quarantine, kill or batch boundary.
    assert_eq!(keys.len() as u64, accepted, "responses != accepted records");
    assert_eq!(ra.processed, accepted);
    assert_eq!(ra.rejected, rejected);
    assert_eq!(ra.shed, 0);
    assert_eq!(ra.shed_stale, 0);

    // Every fault class fired and was survived.
    assert!(rejected > 0, "source corruption never tripped admission");
    assert!(ra.quarantined > 0, "no poison record was quarantined");
    assert!(
        ra.fallbacks > 0,
        "no model fault reached the fallback chain"
    );
    assert!(ra.panicked > 0, "no worker was ever killed");
    assert_eq!(ra.restarted, ra.panicked, "every dead worker is respawned");
    assert!(keys.iter().any(|k| k.4), "no degraded response was served");

    // Counter accounting holds on the batched path too: each processed
    // record is exactly one of predicted / warm-up / quarantined.
    let warmups: u64 = ra.shards.iter().map(|s| s.warmups).sum();
    assert_eq!(ra.predictions + warmups + ra.quarantined, ra.processed);
    assert!(ra.mae_mbps.is_some_and(f64::is_finite));
}

#[test]
fn inert_fault_plan_serves_bit_identical_to_fault_free() {
    let data = chaos_data(31);
    let model = gdbt_lmc(&data);
    let src = ReplaySource::from_dataset(&data, 6);

    let (clean, acc_clean, rej_clean, keys_clean) = run_chaos(model.clone(), &src, None, 1);
    let inert = Arc::new(FaultPlan::new(99));
    // An all-zero-rate plan's source corruption is the identity too.
    let src_inert = src.corrupted(&inert);
    let (idle, acc_inert, rej_inert, keys_inert) = run_chaos(model, &src_inert, Some(inert), 1);

    assert_eq!(rej_clean, 0);
    assert_eq!(rej_inert, 0);
    assert_eq!(acc_clean, acc_inert);
    assert_eq!(
        keys_clean, keys_inert,
        "an inert plan must not perturb serving bits"
    );
    assert!(
        keys_clean.iter().all(|k| !k.4),
        "fault-free serving must never be degraded"
    );
    for report in [&clean, &idle] {
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.fallbacks, 0);
        assert_eq!(report.panicked, 0);
        assert_eq!(report.restarted, 0);
        assert_eq!(report.rejected, 0);
    }
}

#[test]
fn corrupted_records_are_rejected_by_admission() {
    let data = chaos_data(5);
    let plan = FaultPlan::seeded(42);
    let src = ReplaySource::from_dataset(&data, 4);
    let corrupted = src.corrupted(&plan);
    let mut hit = 0u64;
    for (i, ((_, original), (_, mangled))) in
        src.events().iter().zip(corrupted.events()).enumerate()
    {
        match plan.corruption_at(i as u64) {
            Some(kind) => {
                hit += 1;
                assert!(
                    lumos5g_serve::admit(mangled).is_err(),
                    "corruption {kind:?} at event {i} must be inadmissible"
                );
            }
            None => assert_eq!(original, mangled, "uncorrupted event {i} must be untouched"),
        }
    }
    assert!(hit > 0, "the seeded plan corrupted nothing");
}
