//! Shard worker: owns the sessions of the UEs hashed to it and turns each
//! incoming record into (at most) one prediction.
//!
//! Every model family runs through one dispatch loop (`run_shard`). A
//! dispatch takes up to a batch of already-queued records (one per UE),
//! updates their sessions, makes one shared model call and answers the
//! records in dequeue order. Single-row families (GDBT, KNN, RF) dispatch
//! one record at a time and call `predict_one` on its feature row; a
//! Seq2Seq dispatch drains up to `decode_batch` records and decodes their
//! feature histories with one `predict_sequence_batch` call.
//!
//! The worker is fault-isolated at two levels. Around the model call, a
//! fallback chain guarantees a finite answer: if the call panics, returns
//! non-finite, or exceeds the configured time budget, the response is
//! served from the session-local harmonic-mean predictor and tagged
//! `degraded`. Around each record's session update and feature extraction,
//! `catch_unwind` quarantines poison records — the (possibly torn) session
//! is discarded, the record is counted as quarantined, and it is still
//! answered (degraded) instead of taking the worker down. A panic that
//! escapes both layers kills the thread; the engine supervisor respawns it
//! (see `engine.rs`).

use crate::fault::{FaultPlan, PredictFault, RecordFault, RecordKey};
use crate::metrics::ShardMetrics;
use crate::registry::ModelRegistry;
use crate::session::{PendingPrediction, Session};
use crossbeam::channel::{Receiver, Sender};
use lumos5g::{FeatureSpec, TrainedRegressor};
use lumos5g_sim::Record;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One unit of ingest work.
#[derive(Debug)]
pub struct Ingest {
    /// UE identity (routing key).
    pub ue: u64,
    /// The 1 Hz sample.
    pub record: Record,
    /// When the record entered the engine (for end-to-end latency).
    pub enqueued: Instant,
}

/// One response — every ingested record produces exactly one (unless the
/// `Deadline` policy shed it as stale at dequeue).
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// UE the response belongs to.
    pub ue: u64,
    /// Pass of the triggering record.
    pub pass_id: u32,
    /// Second of the triggering record (the prediction targets `t + 1`).
    pub t: u32,
    /// Shard that served it.
    pub shard: usize,
    /// Model generation that produced it.
    pub model_version: u64,
    /// Predicted next-second throughput, Mbps (`None` while the session
    /// window is still warming up). Always finite when `Some`.
    pub predicted_mbps: Option<f64>,
    /// Measured throughput of the triggering record (echoed for
    /// closed-loop consumers).
    pub measured_mbps: f64,
    /// Enqueue-to-emit latency, ns.
    pub latency_ns: u64,
    /// Full k-step-ahead horizon when a sequence model (Seq2Seq) served
    /// this response; `horizon_mbps[0]` equals `predicted_mbps`. `None` for
    /// single-row families, warm-ups and degraded responses. Every entry is
    /// finite when `Some`.
    pub horizon_mbps: Option<Vec<f64>>,
    /// True when this response was served on a degraded path: the model
    /// call failed (panic / non-finite / over budget) and the harmonic
    /// fallback answered, or the record was quarantined.
    pub degraded: bool,
}

/// Sequence-serving configuration, present when the engine serves a
/// Seq2Seq model (see `EngineConfig::decode_batch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SequenceServing {
    /// Encoder history length the served model was trained with
    /// (`Seq2SeqParams::input_len`).
    pub input_len: usize,
    /// Maximum records answered per batched model call.
    pub batch: usize,
}

/// Per-worker serving context: everything a shard needs besides its
/// channels, bundled so the engine supervisor can respawn a worker with
/// the exact configuration the dead one had.
#[derive(Debug, Clone)]
pub(crate) struct ShardContext {
    /// Feature spec the served models were trained with.
    pub spec: FeatureSpec,
    /// Dequeue-side staleness budget (from [`crate::OverloadPolicy::Deadline`]).
    pub stale_after: Option<Duration>,
    /// Per-call model time budget; a slower model call falls back to the
    /// harmonic predictor. `None` disables the clock entirely (no
    /// `Instant::now` on the hot path).
    pub predict_budget: Option<Duration>,
    /// Deterministic fault injection (chaos testing); `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
    /// `Some` when the served model predicts from a feature-vector history
    /// (Seq2Seq); `None` serves single rows, one record per dispatch.
    pub seq: Option<SequenceServing>,
}

#[cfg(test)]
impl ShardContext {
    /// A plain context: no deadline, no budget, no faults, single rows.
    pub fn new(spec: FeatureSpec) -> Self {
        ShardContext {
            spec,
            stale_after: None,
            predict_budget: None,
            faults: None,
            seq: None,
        }
    }
}

/// What a ready lane hands the model call.
enum ModelInput {
    /// The record's [`FeatureSpec::extract_latest`] row (single-row
    /// families).
    Row(Vec<f64>),
    /// A snapshot of the session's encoder history (Seq2Seq).
    History(Vec<Vec<f64>>),
}

/// What phase 1 (session update + feature extraction) decided for one
/// dequeued record, before the dispatch's shared model call.
enum LaneState {
    /// Panic during session update/extraction: answered degraded-with-None.
    Quarantined,
    /// No feature row yet, or not enough contiguous history to encode.
    Warmup,
    /// An injected predict fault diverts this lane straight to the
    /// harmonic fallback, never into the shared model call.
    Fallback,
    /// Ready for the model call.
    Ready(ModelInput),
}

/// One dequeued record flowing through a dispatch.
struct Lane {
    ue: u64,
    pass_id: u32,
    t: u32,
    measured: f64,
    enqueued: Instant,
    state: LaneState,
}

/// A ready lane's raw model answer: the next-second value, plus the full
/// horizon for history lanes.
type Answer = (f64, Option<Vec<f64>>);

/// Run one shard worker until its ingest channel disconnects.
///
/// Per dispatch: block for one record, then drain up to the batch cap of
/// already-queued records — `SequenceServing::batch` for Seq2Seq, 1 for
/// single-row families, so a row record is never held back behind others.
/// The drain takes at most one record per UE: a UE's prediction must
/// settle against its next record before that record is served, so a
/// same-UE follow-up is carried into the next dispatch. Each record then
/// updates its UE's session and extracts features through
/// [`FeatureSpec::extract_latest`]; one model call answers every ready
/// lane ([`predict_ready`]). These are the exact offline code paths, and
/// the batched kernels underneath are bit-exact per lane, so every
/// response — and the online MAE — is identical to offline prediction for
/// any `decode_batch`, including 1.
///
/// A panicking or over-budget call fails every lane it served (the call
/// was shared, so is the verdict); a lane whose answer is non-finite fails
/// alone. Failed lanes answer from their session's harmonic estimate,
/// tagged `degraded`.
pub(crate) fn run_shard(
    shard: usize,
    ctx: ShardContext,
    registry: Arc<ModelRegistry>,
    rx: Receiver<Ingest>,
    out: Sender<Prediction>,
    metrics: Arc<ShardMetrics>,
) {
    let required = ctx.spec.required_window();
    let input_len = ctx.seq.map(|s| s.input_len.max(1));
    let batch_cap = ctx.seq.map_or(1, |s| s.batch.max(1));
    let mut sessions: HashMap<u64, Session> = HashMap::new();
    // Per-dispatch buffers, kept across dispatches.
    let mut batch: Vec<Ingest> = Vec::with_capacity(batch_cap);
    let mut lanes: Vec<Lane> = Vec::with_capacity(batch_cap);
    let mut answers: Vec<Answer> = Vec::with_capacity(batch_cap);
    let mut carry: Option<Ingest> = None;
    // An armed worker kill waiting for a safe point: the panic must not
    // fire while a drained-but-unanswered carry record is in hand, or that
    // record would vanish from both the queue and the batch.
    let mut pending_kill: Option<(u64, u32, u32)> = None;
    let fallback = |sessions: &HashMap<u64, Session>, ue: u64| {
        metrics.fallbacks.fetch_add(1, Ordering::Relaxed);
        let hm = sessions.get(&ue).and_then(Session::harmonic_estimate);
        (hm, None, true)
    };
    loop {
        // Block for the first record, then drain whatever is already queued
        // up to the batch cap (one record per UE). A worker about to die
        // serves only the carried record, so the final batch cannot strand
        // a fresh carry of its own.
        let first = match carry.take() {
            Some(msg) => msg,
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => return, // ingest disconnected and drained
            },
        };
        batch.push(first);
        while pending_kill.is_none() && batch.len() < batch_cap && carry.is_none() {
            match rx.try_recv() {
                Ok(msg) if batch.iter().any(|b| b.ue == msg.ue) => carry = Some(msg),
                Ok(msg) => batch.push(msg),
                // Empty: serve what we have. Disconnected: the next recv
                // exits after this final batch is answered.
                Err(_) => break,
            }
        }

        // Phase 1, in dequeue order: session update, feature extraction,
        // per-record panic isolation — everything except the model call.
        for msg in batch.drain(..) {
            let Ingest {
                ue,
                record,
                enqueued,
            } = msg;
            if let Some(max_age) = ctx.stale_after {
                if enqueued.elapsed() > max_age {
                    metrics.shed_stale.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            // Identity and ground truth captured up front, so a panic
            // anywhere in processing can still be answered.
            let (pass_id, t, measured) = (record.pass_id, record.t, record.throughput_mbps);
            let fault = match &ctx.faults {
                Some(plan) => plan.fault_for(RecordKey::of(ue, &record)),
                None => RecordFault::NONE,
            };
            metrics.processed.fetch_add(1, Ordering::Relaxed);
            if fault.kill_worker {
                pending_kill = Some((ue, pass_id, t));
            }
            let state = panic::catch_unwind(AssertUnwindSafe(|| {
                if fault.poison {
                    panic!("chaos: injected poison record (ue {ue} pass {pass_id} t {t})");
                }
                let session = sessions
                    .entry(ue)
                    .or_insert_with(|| Session::for_sequences(required, input_len.unwrap_or(0)));
                let resets_before = session.resets;
                if let Some(err) = session.push(record) {
                    metrics.record_error(err);
                }
                metrics
                    .resets
                    .fetch_add(session.resets - resets_before, Ordering::Relaxed);
                let x = ctx.spec.extract_latest(session.window());
                let input = match input_len {
                    None => x.map(ModelInput::Row),
                    Some(n) => {
                        if let Some(x) = x {
                            session.record_features(x);
                        }
                        (session.feature_len() >= n)
                            .then(|| ModelInput::History(session.feature_history().to_vec()))
                    }
                };
                match input {
                    None => LaneState::Warmup,
                    Some(_) if fault.predict != PredictFault::None => LaneState::Fallback,
                    Some(input) => LaneState::Ready(input),
                }
            }));
            let state = state.unwrap_or_else(|_| {
                // Poison record: the session may be torn mid-update — drop
                // it so the UE rebuilds cold.
                sessions.remove(&ue);
                metrics.quarantined.fetch_add(1, Ordering::Relaxed);
                LaneState::Quarantined
            });
            lanes.push(Lane {
                ue,
                pass_id,
                t,
                measured,
                enqueued,
                state,
            });
        }

        // Phase 2: one model fetch and at most one model call for the
        // whole dispatch.
        let model = registry.current();
        let mut no_form = false;
        if lanes.iter().any(|l| matches!(l.state, LaneState::Ready(_))) {
            let started = ctx.predict_budget.map(|_| Instant::now());
            let called = panic::catch_unwind(AssertUnwindSafe(|| {
                predict_ready(&model.regressor, &lanes, &mut answers)
            }));
            let over_budget = matches!(
                (ctx.predict_budget, started),
                (Some(budget), Some(started)) if started.elapsed() > budget
            );
            match called {
                Ok(false) => no_form = true,
                Ok(true) if !over_budget => {}
                // Panicked or over budget: every ready lane falls back.
                _ => answers.clear(),
            }
        }

        // Emit in dequeue order.
        let mut answered = answers.drain(..);
        for lane in lanes.drain(..) {
            let (predicted, horizon, degraded) = match lane.state {
                LaneState::Quarantined => (None, None, true),
                LaneState::Warmup => (None, None, false),
                LaneState::Fallback => fallback(&sessions, lane.ue),
                // A hot-swapped model with no form for this lane (e.g. the
                // harmonic mean): answer like a warm-up.
                LaneState::Ready(_) if no_form => (None, None, false),
                LaneState::Ready(_) => match answered.next() {
                    Some((y, h)) if y.is_finite() && h.iter().flatten().all(|v| v.is_finite()) => {
                        (Some(y), h, false)
                    }
                    // Failed call, or a non-finite answer for this lane.
                    _ => fallback(&sessions, lane.ue),
                },
            };
            if let Some(y) = predicted {
                if let Some(session) = sessions.get_mut(&lane.ue) {
                    session.pending = Some(PendingPrediction {
                        pass_id: lane.pass_id,
                        t: lane.t,
                        predicted_mbps: y,
                    });
                }
                metrics.predictions.fetch_add(1, Ordering::Relaxed);
            } else if !degraded {
                metrics.warmups.fetch_add(1, Ordering::Relaxed);
            }
            let latency_ns = lane.enqueued.elapsed().as_nanos() as u64;
            metrics.latency.record(latency_ns);
            // A consumer that went away is ignored: keep draining so
            // producers never block on a dead shard.
            let _ = out.send(Prediction {
                ue: lane.ue,
                pass_id: lane.pass_id,
                t: lane.t,
                shard,
                model_version: model.version,
                predicted_mbps: predicted,
                measured_mbps: lane.measured,
                latency_ns,
                horizon_mbps: horizon,
                degraded,
            });
        }
        if let Some((ue, pass_id, t)) = pending_kill {
            // Injected *after* the batch is answered, so supervision is
            // exercised without violating one-response-per-accepted-record.
            // A carried record was already dequeued and would be lost with
            // this worker: loop once more to answer it (alone), then die.
            if carry.is_none() {
                panic!(
                    "chaos: injected worker kill on shard {shard} (ue {ue} pass {pass_id} t {t})"
                );
            }
        }
    }
}

/// The dispatch's one model call: answers every ready lane, in lane order,
/// into `answers`. Row lanes call `predict_one` on their feature row;
/// history lanes share one `predict_sequence_batch` call. Returns `false`
/// when the served model has no form for these lanes (a hot-swapped
/// family: Seq2Seq on rows, harmonic mean on either).
fn predict_ready(model: &TrainedRegressor, lanes: &[Lane], answers: &mut Vec<Answer>) -> bool {
    let mut histories = Vec::new();
    for lane in lanes {
        match &lane.state {
            LaneState::Ready(ModelInput::Row(x)) => match model.predict_one(x) {
                Some(y) => answers.push((y, None)),
                None => return false,
            },
            LaneState::Ready(ModelInput::History(h)) => histories.push(h.as_slice()),
            _ => {}
        }
    }
    if histories.is_empty() {
        return true;
    }
    let Some(decoded) = model.predict_sequence_batch(&histories) else {
        return false;
    };
    // An empty horizon has no next-second value: NaN sends it to fallback.
    answers.extend(
        decoded
            .into_iter()
            .map(|h| (h.first().copied().unwrap_or(f64::NAN), Some(h))),
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel;
    use lumos5g::{FeatureSet, TrainedRegressor};
    use lumos5g_sim::{Activity, Record};

    fn rec(ue_pass: u32, t: u32, thpt: f64) -> Record {
        Record {
            area: 1,
            pass_id: ue_pass,
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

    fn harmonic_registry() -> Arc<ModelRegistry> {
        Arc::new(ModelRegistry::new(TrainedRegressor::Harmonic { window: 5 }))
    }

    /// Harmonic has no single-row form → predict_one is None → the shard
    /// must still answer every record (as a warm-up/None response).
    #[test]
    fn every_record_gets_exactly_one_response() {
        let ctx = ShardContext::new(FeatureSpec::new(FeatureSet::LM));
        let metrics = Arc::new(ShardMetrics::new());
        let (tx, rx) = channel::bounded(16);
        let (out_tx, out_rx) = channel::unbounded();
        let m = metrics.clone();
        let registry = harmonic_registry();
        let worker = std::thread::spawn(move || run_shard(0, ctx, registry, rx, out_tx, m));
        for t in 0..10 {
            tx.send(Ingest {
                ue: 7,
                record: rec(1, t, 100.0),
                enqueued: Instant::now(),
            })
            .unwrap();
        }
        drop(tx);
        worker.join().unwrap();
        let responses: Vec<Prediction> = out_rx.iter().collect();
        assert_eq!(responses.len(), 10);
        assert!(responses.iter().all(|p| p.predicted_mbps.is_none()));
        assert!(responses.iter().all(|p| !p.degraded));
        assert!(responses.iter().all(|p| p.model_version == 1));
        assert_eq!(metrics.warmups.load(Ordering::Relaxed), 10);
        assert_eq!(metrics.latency.count(), 10);
        // Responses for one UE arrive in ingest order.
        let ts: Vec<u32> = responses.iter().map(|p| p.t).collect();
        assert_eq!(ts, (0..10).collect::<Vec<_>>());
    }

    /// Sequence mode with a model that has no sequence form: ready lanes
    /// answer like warm-ups, and the batched drain still produces exactly
    /// one in-order response per record and UE.
    #[test]
    fn sequence_mode_answers_every_record_for_formless_models() {
        let mut ctx = ShardContext::new(FeatureSpec::new(FeatureSet::LM));
        ctx.seq = Some(SequenceServing {
            input_len: 3,
            batch: 4,
        });
        let metrics = Arc::new(ShardMetrics::new());
        let (tx, rx) = channel::bounded(64);
        let (out_tx, out_rx) = channel::unbounded();
        let m = metrics.clone();
        let registry = harmonic_registry();
        let worker = std::thread::spawn(move || run_shard(0, ctx, registry, rx, out_tx, m));
        // Two interleaved UEs so batches mix lanes and exercise the
        // one-record-per-UE carry rule.
        for t in 0..10 {
            for ue in [3u64, 8u64] {
                tx.send(Ingest {
                    ue,
                    record: rec(ue as u32, t, 100.0),
                    enqueued: Instant::now(),
                })
                .unwrap();
            }
        }
        drop(tx);
        worker.join().unwrap();
        let responses: Vec<Prediction> = out_rx.iter().collect();
        assert_eq!(responses.len(), 20);
        assert!(responses.iter().all(|p| p.predicted_mbps.is_none()));
        assert!(responses.iter().all(|p| p.horizon_mbps.is_none()));
        assert!(responses.iter().all(|p| !p.degraded));
        assert_eq!(metrics.warmups.load(Ordering::Relaxed), 20);
        assert_eq!(metrics.processed.load(Ordering::Relaxed), 20);
        for ue in [3u64, 8u64] {
            let ts: Vec<u32> = responses
                .iter()
                .filter(|p| p.ue == ue)
                .map(|p| p.t)
                .collect();
            assert_eq!(ts, (0..10).collect::<Vec<_>>(), "ue {ue} out of order");
        }
    }

    /// Dropping the output receiver mid-run must flip the worker into
    /// drain-without-emit: it keeps consuming (so producers never block on
    /// a dead consumer) and exits cleanly when ingest disconnects.
    #[test]
    fn dropped_output_receiver_drains_without_emitting() {
        let ctx = ShardContext::new(FeatureSpec::new(FeatureSet::LM));
        let metrics = Arc::new(ShardMetrics::new());
        let (tx, rx) = channel::bounded(64);
        let (out_tx, out_rx) = channel::unbounded();
        let m = metrics.clone();
        let registry = harmonic_registry();
        let worker = std::thread::spawn(move || run_shard(0, ctx, registry, rx, out_tx, m));
        for t in 0..5 {
            tx.send(Ingest {
                ue: 1,
                record: rec(1, t, 100.0),
                enqueued: Instant::now(),
            })
            .unwrap();
        }
        // Wait for the first responses, then kill the consumer mid-run.
        for _ in 0..5 {
            out_rx.recv().unwrap();
        }
        drop(out_rx);
        for t in 5..40 {
            tx.send(Ingest {
                ue: 1,
                record: rec(1, t, 100.0),
                enqueued: Instant::now(),
            })
            .unwrap();
        }
        drop(tx);
        worker.join().expect("worker must survive a dead consumer");
        assert_eq!(metrics.processed.load(Ordering::Relaxed), 40);
        assert_eq!(metrics.latency.count(), 40);
    }

    /// Records older than the Deadline staleness budget are shed at
    /// dequeue: counted, never answered.
    #[test]
    fn deadline_sheds_stale_records_at_dequeue() {
        let mut ctx = ShardContext::new(FeatureSpec::new(FeatureSet::LM));
        ctx.stale_after = Some(Duration::from_secs(60));
        let metrics = Arc::new(ShardMetrics::new());
        let (tx, rx) = channel::bounded(16);
        let (out_tx, out_rx) = channel::unbounded();
        let m = metrics.clone();
        let registry = harmonic_registry();
        let worker = std::thread::spawn(move || run_shard(0, ctx, registry, rx, out_tx, m));
        let ancient = Instant::now() - Duration::from_secs(3600);
        for t in 0..4 {
            tx.send(Ingest {
                ue: 1,
                record: rec(1, t, 100.0),
                enqueued: ancient,
            })
            .unwrap();
        }
        for t in 4..7 {
            tx.send(Ingest {
                ue: 1,
                record: rec(1, t, 100.0),
                enqueued: Instant::now(),
            })
            .unwrap();
        }
        drop(tx);
        worker.join().unwrap();
        let responses: Vec<Prediction> = out_rx.iter().collect();
        assert_eq!(responses.len(), 3, "only fresh records are answered");
        assert_eq!(metrics.shed_stale.load(Ordering::Relaxed), 4);
        assert_eq!(metrics.processed.load(Ordering::Relaxed), 3);
        // The stale records never touched the session: t=4..7 starts cold.
        assert_eq!(responses[0].t, 4);
    }

    /// A poison record (injected session/extract panic) is quarantined:
    /// counted, answered degraded-with-None, session rebuilt cold — and the
    /// worker keeps serving.
    #[test]
    fn poison_record_is_quarantined_not_fatal() {
        let mut ctx = ShardContext::new(FeatureSpec::new(FeatureSet::LM));
        let mut plan = FaultPlan::new(5);
        plan.poison_bp = 10_000; // every record is poison
        ctx.faults = Some(Arc::new(plan));
        let metrics = Arc::new(ShardMetrics::new());
        let (tx, rx) = channel::bounded(16);
        let (out_tx, out_rx) = channel::unbounded();
        let m = metrics.clone();
        let registry = harmonic_registry();
        let worker = std::thread::spawn(move || run_shard(0, ctx, registry, rx, out_tx, m));
        for t in 0..6 {
            tx.send(Ingest {
                ue: 9,
                record: rec(1, t, 100.0),
                enqueued: Instant::now(),
            })
            .unwrap();
        }
        drop(tx);
        worker
            .join()
            .expect("poison records must not kill the worker");
        let responses: Vec<Prediction> = out_rx.iter().collect();
        assert_eq!(responses.len(), 6, "quarantined records still answer");
        assert!(responses.iter().all(|p| p.degraded));
        assert!(responses.iter().all(|p| p.predicted_mbps.is_none()));
        assert_eq!(metrics.quarantined.load(Ordering::Relaxed), 6);
        assert_eq!(metrics.processed.load(Ordering::Relaxed), 6);
    }

    /// One walking pass whose location and throughput move every second,
    /// so trained models have something to fit.
    fn walk(pass: u32, n: u32) -> Vec<Record> {
        (0..n)
            .map(|t| {
                let mut r = rec(pass, t, 60.0 + (t % 7) as f64 * 12.0);
                r.pixel_x += 3 * t as i64;
                r.pixel_y -= 2 * t as i64;
                r
            })
            .collect()
    }

    fn train(set: FeatureSet, kind: lumos5g::ModelKind) -> TrainedRegressor {
        let data = lumos5g_sim::Dataset::new(walk(1, 80));
        lumos5g::Lumos5G::new(set, kind)
            .fit_regression(&data)
            .expect("model trains")
    }

    fn gdbt(set: FeatureSet) -> TrainedRegressor {
        train(set, lumos5g::ModelKind::Gdbt(lumos5g::quick_gbdt()))
    }

    fn seq2seq_lm() -> TrainedRegressor {
        let mut p = lumos5g::quick_seq2seq();
        p.epochs = 1;
        train(FeatureSet::LM, lumos5g::ModelKind::Seq2Seq(p))
    }

    /// Serve `records` for one UE through a single shard worker.
    fn serve(
        ctx: ShardContext,
        registry: Arc<ModelRegistry>,
        records: &[Record],
    ) -> (Vec<Prediction>, Arc<ShardMetrics>) {
        let metrics = Arc::new(ShardMetrics::new());
        let (tx, rx) = channel::unbounded();
        let (out_tx, out_rx) = channel::unbounded();
        let m = metrics.clone();
        let worker = std::thread::spawn(move || run_shard(0, ctx, registry, rx, out_tx, m));
        for r in records {
            tx.send(Ingest {
                ue: 5,
                record: r.clone(),
                enqueued: Instant::now(),
            })
            .unwrap();
        }
        drop(tx);
        worker.join().unwrap();
        (out_rx.iter().collect(), metrics)
    }

    /// The harmonic fallback each record would get: a session fed the same
    /// stream, read right after the record is pushed.
    fn harmonic_estimates(required: usize, records: &[Record]) -> Vec<u64> {
        let mut mirror = Session::new(required);
        records
            .iter()
            .map(|r| {
                mirror.push(r.clone());
                mirror.harmonic_estimate().unwrap().to_bits()
            })
            .collect()
    }

    /// A zero predict budget: every model call overruns it, so every warm
    /// lane answers degraded from the session's harmonic estimate.
    fn assert_zero_budget_falls_back(model: TrainedRegressor, seq: Option<SequenceServing>) {
        let spec = *model.spec().unwrap();
        let mut ctx = ShardContext::new(spec);
        ctx.predict_budget = Some(Duration::ZERO);
        ctx.seq = seq;
        let records = walk(2, 30);
        let (responses, metrics) = serve(ctx, Arc::new(ModelRegistry::new(model)), &records);
        assert_eq!(responses.len(), records.len());
        let hm = harmonic_estimates(spec.required_window(), &records);
        let mut warm = 0u64;
        for (p, hm) in responses.iter().zip(hm) {
            if p.degraded {
                warm += 1;
                assert_eq!(p.predicted_mbps.map(f64::to_bits), Some(hm), "t {}", p.t);
            } else {
                assert_eq!(
                    p.predicted_mbps, None,
                    "t {}: served past a zero budget",
                    p.t
                );
            }
            assert_eq!(p.horizon_mbps, None);
        }
        assert!(
            warm > 0 && warm < records.len() as u64,
            "warm lanes: {warm}"
        );
        assert_eq!(metrics.fallbacks.load(Ordering::Relaxed), warm);
        assert_eq!(metrics.predictions.load(Ordering::Relaxed), warm);
        assert_eq!(
            metrics.warmups.load(Ordering::Relaxed),
            records.len() as u64 - warm
        );
    }

    #[test]
    fn zero_predict_budget_falls_back_on_every_warm_row_lane() {
        assert_zero_budget_falls_back(gdbt(FeatureSet::LMC), None);
    }

    #[test]
    fn zero_predict_budget_falls_back_on_every_warm_sequence_lane() {
        let model = seq2seq_lm();
        let input_len = model.seq2seq_params().unwrap().input_len;
        let seq = SequenceServing {
            input_len,
            batch: 4,
        };
        assert_zero_budget_falls_back(model, Some(seq));
    }

    /// A Seq2Seq model hot-swapped into a shard serving single rows has no
    /// single-row form: every record is answered like a warm-up.
    #[test]
    fn row_shard_answers_a_swapped_in_seq2seq_with_warmups() {
        let registry = Arc::new(ModelRegistry::new(gdbt(FeatureSet::LM)));
        let ctx = ShardContext::new(*registry.current().regressor.spec().unwrap());
        registry.swap(seq2seq_lm());
        let records = walk(2, 20);
        let (responses, metrics) = serve(ctx, registry, &records);
        assert_eq!(responses.len(), records.len());
        for p in &responses {
            assert_eq!(p.model_version, 2);
            assert_eq!(p.predicted_mbps, None);
            assert_eq!(p.horizon_mbps, None);
            assert!(!p.degraded);
        }
        assert_eq!(metrics.warmups.load(Ordering::Relaxed), 20);
        assert_eq!(metrics.fallbacks.load(Ordering::Relaxed), 0);
    }

    /// A GDBT hot-swapped into a shard serving sequences answers from the
    /// last row of each full history, as a one-step horizon.
    #[test]
    fn sequence_shard_answers_a_swapped_in_gdbt_from_the_last_history_row() {
        let registry = Arc::new(ModelRegistry::new(seq2seq_lm()));
        let served = registry.current();
        let spec = *served.regressor.spec().unwrap();
        let input_len = served.regressor.seq2seq_params().unwrap().input_len;
        let mut ctx = ShardContext::new(spec);
        ctx.seq = Some(SequenceServing {
            input_len,
            batch: 4,
        });
        let model = gdbt(FeatureSet::LM);
        registry.swap(model.clone());
        let records = walk(2, 20);
        let (responses, metrics) = serve(ctx, registry, &records);
        assert_eq!(responses.len(), records.len());
        let required = spec.required_window();
        for (i, p) in responses.iter().enumerate() {
            assert_eq!(p.model_version, 2);
            assert!(!p.degraded);
            let window = &records[(i + 1).saturating_sub(required)..=i];
            let row = spec.extract_latest(window).unwrap();
            let want = (i + 1 >= input_len).then(|| model.predict_one(&row).unwrap());
            assert_eq!(p.predicted_mbps.map(f64::to_bits), want.map(f64::to_bits));
            assert_eq!(p.horizon_mbps, want.map(|y| vec![y]));
        }
        assert_eq!(
            metrics.predictions.load(Ordering::Relaxed),
            (records.len() + 1 - input_len) as u64
        );
    }
}
