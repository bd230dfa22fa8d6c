//! The serving engine: shard pool, UE-affinity routing, admission control,
//! worker supervision, lifecycle and aggregate reporting.
//!
//! Fault tolerance is layered (see also `shard.rs`):
//!
//! 1. **Admission control** — [`Engine::offer`] validates every record at
//!    the front door; malformed telemetry (non-finite throughput, RSRP or
//!    coordinates, absurd GPS accuracy) is rejected with a typed
//!    [`RejectReason`] and counted, never routed to a shard.
//! 2. **Shard supervision** — a supervisor thread watches every worker;
//!    when one dies (a panic escaped the per-record isolation, or an
//!    injected chaos kill), it is respawned on the same ingest queue with
//!    sessions rebuilt cold, and the death is counted per shard
//!    (`panicked` / `restarted`) instead of poisoning
//!    [`Engine::shutdown`].

use crate::fault::FaultPlan;
use crate::metrics::{LatencyHistogram, MetricsSnapshot, ShardMetrics};
use crate::queue::{IngestQueue, OverloadPolicy};
use crate::registry::{Gatekeeper, ModelRegistry, SwapRejected};
use crate::shard::{run_shard, Ingest, Prediction, SequenceServing, ShardContext};
use crossbeam::channel::{self, Receiver, Sender};
use lumos5g::persist::PersistError;
use lumos5g::TrainedRegressor;
use lumos5g::{FeatureSet, FeatureSpec};
use lumos5g_sim::Record;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine sizing and behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Worker shards (≥ 1). UEs are hash-partitioned across them.
    pub shards: usize,
    /// Bounded ingest-queue capacity per shard.
    pub queue_capacity: usize,
    /// What to do when a shard queue is full.
    pub policy: OverloadPolicy,
    /// Per-call model time budget: a model call slower than this is
    /// answered by the harmonic fallback instead (tagged `degraded`).
    /// `None` (the default) disables the clock entirely, keeping the
    /// fault-free hot path free of `Instant::now` calls.
    pub predict_budget: Option<Duration>,
    /// When the served model is a Seq2Seq: how many already-queued records
    /// a shard may answer with one batched decoder call (capped at one
    /// record per UE per batch). Responses are bit-identical for any value;
    /// larger batches amortize the per-dispatch work (model fetch, panic
    /// guard, emit). Ignored for single-row families.
    pub decode_batch: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 4,
            queue_capacity: 1024,
            policy: OverloadPolicy::Block,
            predict_budget: None,
            decode_batch: 8,
        }
    }
}

/// Why a record was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// `throughput_mbps` is NaN or infinite.
    NonFiniteThroughput,
    /// LTE RSRP or NR SS-RSRP is NaN or infinite.
    NonFiniteSignal,
    /// Latitude or longitude is NaN or infinite.
    NonFiniteCoords,
    /// GPS accuracy is non-finite, negative, or beyond any plausible
    /// sensor output (> [`MAX_GPS_ACCURACY_M`]).
    AbsurdGpsAccuracy,
    /// `throughput_mbps` is finite but negative — impossible telemetry
    /// that would corrupt session windows, harmonic fallbacks and the
    /// online MAE if admitted.
    NegativeThroughput,
}

/// GPS accuracy ceiling: a reported accuracy radius beyond 10 km is sensor
/// garbage, not a usable fix.
pub const MAX_GPS_ACCURACY_M: f64 = 10_000.0;

impl RejectReason {
    /// Number of reasons (for fixed-size counters).
    pub const COUNT: usize = 5;

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            RejectReason::NonFiniteThroughput => 0,
            RejectReason::NonFiniteSignal => 1,
            RejectReason::NonFiniteCoords => 2,
            RejectReason::AbsurdGpsAccuracy => 3,
            RejectReason::NegativeThroughput => 4,
        }
    }

    /// All reasons, in `index` order.
    pub fn all() -> [RejectReason; Self::COUNT] {
        [
            RejectReason::NonFiniteThroughput,
            RejectReason::NonFiniteSignal,
            RejectReason::NonFiniteCoords,
            RejectReason::AbsurdGpsAccuracy,
            RejectReason::NegativeThroughput,
        ]
    }
}

/// Validate one record at the engine front door.
pub fn admit(record: &Record) -> Result<(), RejectReason> {
    if !record.throughput_mbps.is_finite() {
        return Err(RejectReason::NonFiniteThroughput);
    }
    if record.throughput_mbps < 0.0 {
        return Err(RejectReason::NegativeThroughput);
    }
    if !record.lte_rsrp_dbm.is_finite() || !record.nr_ssrsrp_dbm.is_finite() {
        return Err(RejectReason::NonFiniteSignal);
    }
    if !record.lat.is_finite() || !record.lon.is_finite() {
        return Err(RejectReason::NonFiniteCoords);
    }
    if !record.gps_accuracy_m.is_finite()
        || record.gps_accuracy_m < 0.0
        || record.gps_accuracy_m > MAX_GPS_ACCURACY_M
    {
        return Err(RejectReason::AbsurdGpsAccuracy);
    }
    Ok(())
}

/// Outcome of [`Engine::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Routed to a shard; exactly one response will be emitted (unless a
    /// `Deadline` policy sheds it as stale at dequeue).
    Accepted,
    /// Dropped by the overload policy (or the shard is gone); counted in
    /// `shed`.
    Shed,
    /// Refused by admission control; counted in `rejected`.
    Rejected(RejectReason),
}

#[derive(Debug, Default)]
struct AdmissionMetrics {
    rejected: [AtomicU64; RejectReason::COUNT],
}

impl AdmissionMetrics {
    fn count(&self, reason: RejectReason) {
        self.rejected[reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    fn totals(&self) -> [u64; RejectReason::COUNT] {
        let mut out = [0; RejectReason::COUNT];
        for (o, c) in out.iter_mut().zip(&self.rejected) {
            *o = c.load(Ordering::Relaxed);
        }
        out
    }
}

#[derive(Debug, Default)]
struct SwapMetrics {
    rejected: [AtomicU64; SwapRejected::COUNT],
}

impl SwapMetrics {
    fn count(&self, reason: SwapRejected) {
        self.rejected[reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    fn totals(&self) -> [u64; SwapRejected::COUNT] {
        let mut out = [0; SwapRejected::COUNT];
        for (o, c) in out.iter_mut().zip(&self.rejected) {
            *o = c.load(Ordering::Relaxed);
        }
        out
    }
}

/// Final aggregate report returned by [`Engine::shutdown`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Per-shard final snapshots.
    pub shards: Vec<MetricsSnapshot>,
    /// Records ingested across shards.
    pub processed: u64,
    /// Predictions emitted across shards.
    pub predictions: u64,
    /// Records shed at the front door.
    pub shed: u64,
    /// Records shed at dequeue by the `Deadline` staleness budget.
    pub shed_stale: u64,
    /// Records refused by admission control.
    pub rejected: u64,
    /// Admission rejections broken down by [`RejectReason`] `index()`.
    pub rejected_by: [u64; RejectReason::COUNT],
    /// Candidate models refused by the [`Gatekeeper`] over the engine's
    /// lifetime.
    pub swap_rejected: u64,
    /// Gate refusals broken down by [`SwapRejected`] `index()`.
    pub swap_rejected_by: [u64; SwapRejected::COUNT],
    /// Poison records quarantined by per-record panic isolation.
    pub quarantined: u64,
    /// Responses served by the harmonic fallback predictor.
    pub fallbacks: u64,
    /// Worker-thread deaths across shards.
    pub panicked: u64,
    /// Supervisor respawns across shards.
    pub restarted: u64,
    /// Aggregate p50 end-to-end latency, ns.
    pub p50_ns: u64,
    /// Aggregate p95 end-to-end latency, ns.
    pub p95_ns: u64,
    /// Aggregate p99 end-to-end latency, ns.
    pub p99_ns: u64,
    /// Online mean absolute next-second error, Mbps.
    pub mae_mbps: Option<f64>,
}

/// Everything needed to (re)spawn one shard's worker thread.
struct ShardRuntime {
    shard_id: usize,
    ctx: ShardContext,
    registry: Arc<ModelRegistry>,
    rx: Receiver<Ingest>,
    out: Sender<Prediction>,
    metrics: Arc<ShardMetrics>,
}

/// Tells the supervisor that its shard's worker is exiting. It is dropped
/// when the worker returns and also while a panic unwinds it.
struct ExitNotice {
    shard_id: usize,
    exits: mpsc::Sender<usize>,
}

impl Drop for ExitNotice {
    fn drop(&mut self) {
        // The supervisor holds a sender of its own, so its receiver lives
        // as long as any worker; a failed send cannot happen, and `Drop`
        // must not panic.
        let _ = self.exits.send(self.shard_id);
    }
}

fn spawn_worker(rt: &ShardRuntime, exits: &mpsc::Sender<usize>) -> JoinHandle<()> {
    let shard_id = rt.shard_id;
    let ctx = rt.ctx.clone();
    let registry = rt.registry.clone();
    let rx = rt.rx.clone();
    let out = rt.out.clone();
    let metrics = rt.metrics.clone();
    let notice = ExitNotice {
        shard_id,
        exits: exits.clone(),
    };
    std::thread::Builder::new()
        .name(format!("serve-shard-{shard_id}"))
        .spawn(move || {
            let _notice = notice;
            run_shard(shard_id, ctx, registry, rx, out, metrics)
        })
        .expect("spawn shard worker")
}

/// Supervise the shard workers until every one of them exits *normally*
/// (ingest disconnected and drained, i.e. after [`Engine::shutdown`] drops
/// the queues). The supervisor sleeps until a worker reports its exit on
/// `exits`, then joins it. A worker that died — `join` returns `Err` — is
/// counted and respawned at once on the same ingest queue; its sessions
/// are rebuilt cold from the stream. Responses buffered in the channel are
/// never lost, and records queued behind the death are served by the
/// replacement.
fn supervise(
    mut slots: Vec<(ShardRuntime, Option<JoinHandle<()>>)>,
    exits: (mpsc::Sender<usize>, mpsc::Receiver<usize>),
) {
    let (notify, exited) = exits;
    let mut alive = slots.len();
    while alive > 0 {
        let shard_id = exited.recv().expect("the supervisor holds a sender");
        let (rt, handle) = &mut slots[shard_id];
        let joined = handle.take().expect("an exiting worker is running").join();
        if joined.is_err() {
            rt.metrics.panicked.fetch_add(1, Ordering::Relaxed);
            rt.metrics.restarted.fetch_add(1, Ordering::Relaxed);
            *handle = Some(spawn_worker(rt, &notify));
        } else {
            alive -= 1; // this worker exited cleanly
        }
    }
}

struct ShardHandle {
    queue: IngestQueue<Ingest>,
    metrics: Arc<ShardMetrics>,
}

/// A running serving engine. See the crate docs for the architecture.
pub struct Engine {
    shards: Vec<ShardHandle>,
    registry: Arc<ModelRegistry>,
    admission: AdmissionMetrics,
    gatekeeper: Mutex<Option<Gatekeeper>>,
    swaps: SwapMetrics,
    supervisor: JoinHandle<()>,
    responses: Receiver<Prediction>,
}

impl Engine {
    /// Start the engine serving `model` under `cfg`.
    ///
    /// The feature spec is taken from the model itself so the serving path
    /// can never disagree with training; feature-free models (harmonic
    /// mean) fall back to the location-only spec for window sizing.
    pub fn start(model: TrainedRegressor, cfg: EngineConfig) -> Engine {
        Self::start_with_registry(Arc::new(ModelRegistry::new(model)), cfg)
    }

    /// Start the engine from an existing registry — the cold-start path:
    /// `ModelRegistry::load_dir` restores a saved model (version number and
    /// all) and the engine serves it with zero retraining, bit-identical to
    /// the engine that saved it.
    pub fn start_with_registry(registry: Arc<ModelRegistry>, cfg: EngineConfig) -> Engine {
        Self::start_with_faults(registry, cfg, None)
    }

    /// Start the engine with a deterministic [`FaultPlan`] installed
    /// (chaos testing). A `None` plan — or one with all-zero rates — leaves
    /// the engine bit-identical to [`Self::start_with_registry`].
    pub fn start_with_faults(
        registry: Arc<ModelRegistry>,
        cfg: EngineConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Engine {
        let spec = registry
            .current()
            .regressor
            .spec()
            .copied()
            .unwrap_or_else(|| FeatureSpec::new(FeatureSet::L));
        // Whether shards hand the model rows or feature histories is fixed
        // at engine start from the initial model, like the spec.
        let seq = registry
            .current()
            .regressor
            .seq2seq_params()
            .map(|p| SequenceServing {
                input_len: p.input_len,
                batch: cfg.decode_batch.max(1),
            });
        let ctx = ShardContext {
            spec,
            stale_after: cfg.policy.stale_after(),
            predict_budget: cfg.predict_budget,
            faults,
            seq,
        };
        let (out_tx, out_rx) = channel::unbounded();
        let nshards = cfg.shards.max(1);
        let mut shards = Vec::with_capacity(nshards);
        let mut slots = Vec::with_capacity(nshards);
        let (exit_tx, exit_rx) = mpsc::channel();
        for shard_id in 0..nshards {
            let (tx, rx) = channel::bounded(cfg.queue_capacity.max(1));
            let metrics = Arc::new(ShardMetrics::new());
            let rt = ShardRuntime {
                shard_id,
                ctx: ctx.clone(),
                registry: registry.clone(),
                rx,
                out: out_tx.clone(),
                metrics: metrics.clone(),
            };
            let worker = spawn_worker(&rt, &exit_tx);
            slots.push((rt, Some(worker)));
            shards.push(ShardHandle {
                queue: IngestQueue::new(tx, cfg.policy),
                metrics,
            });
        }
        // The workers (and the supervisor's respawn runtimes) hold the only
        // output senders: the response stream disconnects exactly when the
        // last worker has exited and supervision ended.
        drop(out_tx);
        let supervisor = std::thread::Builder::new()
            .name("serve-supervisor".into())
            .spawn(move || supervise(slots, (exit_tx, exit_rx)))
            .expect("spawn supervisor");
        Engine {
            shards,
            registry,
            admission: AdmissionMetrics::default(),
            gatekeeper: Mutex::new(None),
            swaps: SwapMetrics::default(),
            supervisor,
            responses: out_rx,
        }
    }

    /// Install (or replace) the validation gate for hot swaps. The
    /// incumbent MAE baseline is seeded from the currently served model,
    /// so the very first [`Self::guarded_swap`] is already held to the
    /// serving model's golden-slice quality.
    pub fn install_gatekeeper(&self, mut gatekeeper: Gatekeeper) {
        gatekeeper.seed_incumbent(&self.registry.current().regressor);
        *self.gatekeeper.lock() = Some(gatekeeper);
    }

    /// Hot-swap `candidate` in through the validation gate.
    ///
    /// With a [`Gatekeeper`] installed, the candidate first replays the
    /// golden slice: a panic, any non-finite prediction, or an MAE beyond
    /// the gate's tolerance refuses the swap with a typed [`SwapRejected`]
    /// reason — counted in [`EngineReport::swap_rejected_by`] — and the
    /// incumbent keeps serving, untouched. Without a gatekeeper this is
    /// exactly [`ModelRegistry::swap`]. Returns the new version on success.
    pub fn guarded_swap(&self, candidate: TrainedRegressor) -> Result<u64, SwapRejected> {
        let mut gate = self.gatekeeper.lock();
        if let Some(gk) = gate.as_mut() {
            if let Err(reason) = gk.admit(&candidate) {
                self.swaps.count(reason);
                return Err(reason);
            }
        }
        Ok(self.registry.swap(candidate))
    }

    /// Roll the served model back to the newest durable generation on disk
    /// below the currently served one (written by [`ModelRegistry::store`]).
    ///
    /// The restored model is published as a *new* version — shards always
    /// move forward — and, when a gatekeeper is installed, re-seeds the
    /// incumbent MAE baseline so subsequent swaps are gated against the
    /// restored generation. Returns `(published_version, restored_generation)`.
    pub fn rollback_model(&self, dir: &Path) -> Result<(u64, u64), PersistError> {
        let current = self.registry.version();
        let (model, generation) = ModelRegistry::load_generation_below(dir, current)?;
        let mut gate = self.gatekeeper.lock();
        if let Some(gk) = gate.as_mut() {
            gk.set_incumbent_mae(gk.score(&model).ok());
        }
        let version = self.registry.swap(model);
        Ok((version, generation))
    }

    /// Candidate models refused by the gate so far, by [`SwapRejected`]
    /// `index()`.
    pub fn swap_rejected_by_reason(&self) -> [u64; SwapRejected::COUNT] {
        self.swaps.totals()
    }

    /// The model registry (hot-swap entry point).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    fn shard_of(&self, ue: u64) -> usize {
        // SplitMix64 finalizer: avalanche the UE id so sequential ids
        // spread evenly across shards.
        let mut z = ue.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % self.shards.len() as u64) as usize
    }

    /// Offer one record for `ue`, reporting exactly what happened to it:
    /// admission-validated, then routed to the UE's shard under the
    /// overload policy.
    pub fn offer(&self, ue: u64, record: Record) -> SubmitOutcome {
        if let Err(reason) = admit(&record) {
            self.admission.count(reason);
            return SubmitOutcome::Rejected(reason);
        }
        let shard = self.shard_of(ue);
        if self.shards[shard].queue.push(Ingest {
            ue,
            record,
            enqueued: Instant::now(),
        }) {
            SubmitOutcome::Accepted
        } else {
            SubmitOutcome::Shed
        }
    }

    /// Submit one record for `ue`. Returns `false` when the record was not
    /// accepted (shed under [`OverloadPolicy::Shed`], or rejected by
    /// admission control — use [`Self::offer`] to distinguish).
    pub fn submit(&self, ue: u64, record: Record) -> bool {
        matches!(self.offer(ue, record), SubmitOutcome::Accepted)
    }

    /// The response stream (one [`Prediction`] per accepted record).
    pub fn responses(&self) -> &Receiver<Prediction> {
        &self.responses
    }

    /// Point-in-time per-shard snapshots (counters + queue-depth gauges).
    pub fn snapshot(&self) -> Vec<MetricsSnapshot> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.metrics.snapshot(i, s.queue.depth()))
            .collect()
    }

    /// Records refused by admission control so far, by reason index.
    pub fn rejected_by_reason(&self) -> [u64; RejectReason::COUNT] {
        self.admission.totals()
    }

    /// Stop ingest, drain the workers and return the final report.
    ///
    /// Never panics on a dead shard: workers that died mid-run were already
    /// respawned by the supervisor and their deaths are reported in the
    /// per-shard `panicked` / `restarted` counters. Buffered responses
    /// remain readable on the receiver returned inside the tuple until it
    /// is dropped.
    pub fn shutdown(self) -> (EngineReport, Receiver<Prediction>) {
        let Engine {
            shards,
            registry: _,
            admission,
            gatekeeper: _,
            swaps,
            supervisor,
            responses,
        } = self;
        let agg = LatencyHistogram::new();
        let mut shed = 0;
        // Dropping each queue disconnects that shard's ingest channel; the
        // worker (or its supervised replacement) drains what is buffered
        // and exits.
        let mut shard_metrics = Vec::with_capacity(shards.len());
        for s in shards {
            shed += s.queue.shed_count();
            drop(s.queue);
            shard_metrics.push(s.metrics);
        }
        // The supervisor returns once every worker has exited normally —
        // respawning any that die during the final drain, so even a panic
        // in the last record cannot lose the records queued behind it.
        supervisor.join().expect("supervisor never panics");
        let mut snapshots = Vec::with_capacity(shard_metrics.len());
        let mut err_n = 0u64;
        let mut err_milli_sum = 0u64;
        for (i, metrics) in shard_metrics.iter().enumerate() {
            agg.merge(&metrics.latency);
            err_n += metrics.err_count.load(Ordering::Relaxed);
            err_milli_sum += metrics.abs_err_milli_sum.load(Ordering::Relaxed);
            snapshots.push(metrics.snapshot(i, 0));
        }
        let sum = |f: fn(&MetricsSnapshot) -> u64| snapshots.iter().map(f).sum::<u64>();
        let rejected_by = admission.totals();
        let swap_rejected_by = swaps.totals();
        let report = EngineReport {
            processed: sum(|s| s.processed),
            predictions: sum(|s| s.predictions),
            shed,
            shed_stale: sum(|s| s.shed_stale),
            rejected: rejected_by.iter().sum(),
            rejected_by,
            swap_rejected: swap_rejected_by.iter().sum(),
            swap_rejected_by,
            quarantined: sum(|s| s.quarantined),
            fallbacks: sum(|s| s.fallbacks),
            panicked: sum(|s| s.panicked),
            restarted: sum(|s| s.restarted),
            p50_ns: agg.quantile_ns(0.50),
            p95_ns: agg.quantile_ns(0.95),
            p99_ns: agg.quantile_ns(0.99),
            mae_mbps: if err_n > 0 {
                Some(err_milli_sum as f64 / 1000.0 / err_n as f64)
            } else {
                None
            },
            shards: snapshots,
        };
        (report, responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos5g_sim::{Activity, Record};

    fn rec(pass: u32, t: u32, thpt: f64) -> Record {
        Record {
            area: 1,
            pass_id: pass,
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

    #[test]
    fn engine_answers_every_submitted_record() {
        let engine = Engine::start(
            TrainedRegressor::Harmonic { window: 5 },
            EngineConfig {
                shards: 3,
                queue_capacity: 8,
                policy: OverloadPolicy::Block,
                ..Default::default()
            },
        );
        for ue in 0..20u64 {
            for t in 0..5 {
                assert!(engine.submit(ue, rec(ue as u32, t, 100.0)));
            }
        }
        let (report, responses) = engine.shutdown();
        assert_eq!(report.processed, 100);
        assert_eq!(report.shed, 0);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.panicked, 0);
        assert_eq!(responses.iter().count(), 100);
    }

    #[test]
    fn ue_affinity_is_stable_and_spread() {
        let engine = Engine::start(
            TrainedRegressor::Harmonic { window: 5 },
            EngineConfig {
                shards: 4,
                ..Default::default()
            },
        );
        let mut used = [false; 4];
        for ue in 0..64u64 {
            let s = engine.shard_of(ue);
            assert_eq!(s, engine.shard_of(ue), "routing must be deterministic");
            used[s] = true;
        }
        assert!(
            used.iter().all(|&u| u),
            "64 UEs left a shard empty: {used:?}"
        );
        let (report, _rx) = engine.shutdown();
        assert_eq!(report.processed, 0);
    }

    #[test]
    fn shed_policy_counts_overflow() {
        // One shard, tiny queue, no consumer until shutdown: the worker
        // thread drains at its own pace, so flooding must shed.
        let engine = Engine::start(
            TrainedRegressor::Harmonic { window: 5 },
            EngineConfig {
                shards: 1,
                queue_capacity: 1,
                policy: OverloadPolicy::Shed,
                ..Default::default()
            },
        );
        let mut accepted = 0u64;
        for t in 0..20_000 {
            if engine.submit(1, rec(1, t, 100.0)) {
                accepted += 1;
            }
        }
        let (report, responses) = engine.shutdown();
        assert_eq!(report.processed, accepted);
        assert_eq!(report.shed, 20_000 - accepted);
        assert_eq!(responses.iter().count() as u64, accepted);
    }

    #[test]
    fn admission_control_rejects_malformed_records() {
        let engine = Engine::start(
            TrainedRegressor::Harmonic { window: 5 },
            EngineConfig {
                shards: 1,
                ..Default::default()
            },
        );
        let mut bad_thpt = rec(1, 0, 100.0);
        bad_thpt.throughput_mbps = f64::NAN;
        let mut bad_rsrp = rec(1, 1, 100.0);
        bad_rsrp.nr_ssrsrp_dbm = f64::NEG_INFINITY;
        let mut bad_coord = rec(1, 2, 100.0);
        bad_coord.lon = f64::NAN;
        let mut bad_gps = rec(1, 3, 100.0);
        bad_gps.gps_accuracy_m = 1e7;
        let neg_thpt = rec(1, 4, -25.0);
        assert_eq!(
            engine.offer(1, bad_thpt),
            SubmitOutcome::Rejected(RejectReason::NonFiniteThroughput)
        );
        assert_eq!(
            engine.offer(1, bad_rsrp),
            SubmitOutcome::Rejected(RejectReason::NonFiniteSignal)
        );
        assert_eq!(
            engine.offer(1, bad_coord),
            SubmitOutcome::Rejected(RejectReason::NonFiniteCoords)
        );
        assert_eq!(
            engine.offer(1, bad_gps),
            SubmitOutcome::Rejected(RejectReason::AbsurdGpsAccuracy)
        );
        assert_eq!(
            engine.offer(1, neg_thpt),
            SubmitOutcome::Rejected(RejectReason::NegativeThroughput)
        );
        assert_eq!(engine.offer(1, rec(1, 5, 100.0)), SubmitOutcome::Accepted);
        assert_eq!(engine.rejected_by_reason(), [1, 1, 1, 1, 1]);
        let (report, responses) = engine.shutdown();
        assert_eq!(report.rejected, 5);
        assert_eq!(report.rejected_by, [1, 1, 1, 1, 1]);
        assert_eq!(report.processed, 1, "rejected records never reach a shard");
        assert_eq!(responses.iter().count(), 1);
    }

    /// Regression: a finite-but-negative throughput used to pass admission
    /// and reach the shards, where it corrupted harmonic fallbacks (whose
    /// epsilon clamp assumes non-negative rates) and the online MAE. A zero
    /// throughput (an outage second) must still be admitted.
    #[test]
    fn negative_throughput_is_rejected_but_zero_is_admitted() {
        let engine = Engine::start(
            TrainedRegressor::Harmonic { window: 5 },
            EngineConfig {
                shards: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            engine.offer(1, rec(1, 0, -0.001)),
            SubmitOutcome::Rejected(RejectReason::NegativeThroughput)
        );
        assert_eq!(
            engine.offer(1, rec(1, 0, f64::NEG_INFINITY)),
            SubmitOutcome::Rejected(RejectReason::NonFiniteThroughput),
            "non-finite keeps its own reason"
        );
        assert_eq!(engine.offer(1, rec(1, 0, 0.0)), SubmitOutcome::Accepted);
        assert_eq!(engine.offer(1, rec(1, 1, 425.5)), SubmitOutcome::Accepted);
        let (report, responses) = engine.shutdown();
        assert_eq!(report.processed, 2);
        assert_eq!(report.rejected, 2);
        let got: Vec<_> = responses.iter().collect();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|p| p.measured_mbps >= 0.0));
    }

    #[test]
    fn supervisor_respawns_killed_workers_without_losing_responses() {
        let mut plan = FaultPlan::new(1);
        plan.kill_bp = 10_000; // every record kills its worker after answering
        let engine = Engine::start_with_faults(
            Arc::new(ModelRegistry::new(TrainedRegressor::Harmonic { window: 5 })),
            EngineConfig {
                shards: 1,
                queue_capacity: 1,
                policy: OverloadPolicy::Block,
                ..Default::default()
            },
            Some(Arc::new(plan)),
        );
        // With capacity 1 and a worker dying per record, submits block on a
        // dead shard until the supervisor respawns it — progress proves
        // supervision, not luck.
        for t in 0..5 {
            assert!(engine.submit(7, rec(1, t, 100.0)));
        }
        let (report, responses) = engine.shutdown();
        assert_eq!(report.processed, 5);
        assert_eq!(report.panicked, 5);
        assert_eq!(report.restarted, 5);
        let got: Vec<_> = responses.iter().collect();
        assert_eq!(got.len(), 5, "every record answered across 5 worker deaths");
        // Sessions rebuild cold after each kill, so ordering is preserved.
        let ts: Vec<u32> = got.iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![0, 1, 2, 3, 4]);
    }

    fn golden_dataset(n: u32) -> lumos5g_sim::Dataset {
        lumos5g_sim::Dataset::new(
            (0..n)
                .map(|t| rec(1, t, 60.0 + (t % 7) as f64 * 12.0))
                .collect(),
        )
    }

    fn train_gbdt(set: FeatureSet, ds: &lumos5g_sim::Dataset) -> TrainedRegressor {
        lumos5g::Lumos5G::new(set, lumos5g::ModelKind::Gdbt(lumos5g::quick_gbdt()))
            .fit_regression(ds)
            .expect("gbdt trains")
    }

    #[test]
    fn guarded_swap_without_gatekeeper_is_a_plain_swap() {
        let engine = Engine::start(
            TrainedRegressor::Harmonic { window: 5 },
            EngineConfig {
                shards: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            engine.guarded_swap(TrainedRegressor::Harmonic { window: 7 }),
            Ok(2)
        );
        let (report, _rx) = engine.shutdown();
        assert_eq!(report.swap_rejected, 0);
    }

    /// The gate's three failure modes, end to end: a candidate whose every
    /// prediction is NaN (GDBT trained on NaN targets), a candidate that
    /// panics on the golden slice (trees referencing feature indices the
    /// swapped-in narrower spec no longer provides), and a healthy
    /// candidate that passes. Rejections are typed, counted, and leave the
    /// incumbent serving.
    #[test]
    fn gatekeeper_rejects_nan_and_panicking_candidates_with_typed_reasons() {
        let engine = Engine::start(
            TrainedRegressor::Harmonic { window: 5 },
            EngineConfig {
                shards: 1,
                ..Default::default()
            },
        );
        engine.install_gatekeeper(Gatekeeper::new(golden_dataset(40), 1.5));

        // NaN candidate: boosting from NaN targets yields a NaN base score,
        // so every prediction is NaN — deterministically. (Built below the
        // validating framework API, the way a buggy retraining pipeline
        // would.)
        let xs = vec![vec![1000.0, 2000.0]; 20];
        let ys = vec![f64::NAN; 20];
        let nan_candidate = TrainedRegressor::Gdbt {
            model: lumos5g_ml::GbdtRegressor::fit(&xs, &ys, &lumos5g::quick_gbdt()),
            spec: FeatureSpec::new(FeatureSet::L),
        };
        assert_eq!(
            engine.guarded_swap(nan_candidate),
            Err(SwapRejected::NonFinite)
        );

        // Panic candidate: trained on the wide LMC rows (its splits use
        // throughput-history features at indices ≥ 2), then re-labelled
        // with the 2-dim L spec — golden replay indexes out of bounds.
        let wide = train_gbdt(FeatureSet::LMC, &golden_dataset(60));
        let TrainedRegressor::Gdbt { model, .. } = wide else {
            panic!("trained a GDBT");
        };
        let panic_candidate = TrainedRegressor::Gdbt {
            model,
            spec: FeatureSpec::new(FeatureSet::L),
        };
        assert_eq!(
            engine.guarded_swap(panic_candidate),
            Err(SwapRejected::Panicked)
        );

        // Both rejections left version 1 serving, typed and counted.
        assert_eq!(engine.registry().version(), 1);
        let mut expect = [0u64; SwapRejected::COUNT];
        expect[SwapRejected::Panicked.index()] = 1;
        expect[SwapRejected::NonFinite.index()] = 1;
        assert_eq!(engine.swap_rejected_by_reason(), expect);

        // A healthy candidate still clears the gate.
        assert_eq!(
            engine.guarded_swap(TrainedRegressor::Harmonic { window: 5 }),
            Ok(2)
        );
        let (report, _rx) = engine.shutdown();
        assert_eq!(report.swap_rejected, 2);
        assert_eq!(report.swap_rejected_by, expect);
    }

    #[test]
    fn mae_regressions_are_refused_against_the_seeded_incumbent() {
        let engine = Engine::start(
            TrainedRegressor::Gdbt {
                model: match train_gbdt(FeatureSet::L, &golden_dataset(60)) {
                    TrainedRegressor::Gdbt { model, .. } => model,
                    _ => unreachable!(),
                },
                spec: FeatureSpec::new(FeatureSet::L),
            },
            EngineConfig {
                shards: 1,
                ..Default::default()
            },
        );
        // The incumbent GDBT was trained on the golden slice itself, so its
        // golden MAE is tiny; a harmonic-mean candidate cannot compete.
        engine.install_gatekeeper(Gatekeeper::new(golden_dataset(60), 1.1));
        assert_eq!(
            engine.guarded_swap(TrainedRegressor::Harmonic { window: 5 }),
            Err(SwapRejected::MaeRegression)
        );
        assert_eq!(engine.registry().version(), 1);
        // The serving GDBT itself, re-offered, matches the seeded baseline
        // exactly and is admitted.
        let incumbent = engine.registry().current().regressor.as_ref().clone();
        assert_eq!(engine.guarded_swap(incumbent), Ok(2));
        let (report, _rx) = engine.shutdown();
        assert_eq!(report.swap_rejected, 1);
        assert_eq!(
            report.swap_rejected_by[SwapRejected::MaeRegression.index()],
            1
        );
    }

    /// `rollback_model` restores the previous on-disk generation and the
    /// restored model serves bit-identically to a fresh engine running the
    /// same model.
    #[test]
    fn rollback_restores_the_prior_generation_bit_identically() {
        let dir = std::env::temp_dir().join(format!("l5gm-engine-rollback-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let engine = Engine::start(
            train_gbdt(FeatureSet::L, &golden_dataset(60)),
            EngineConfig {
                shards: 1,
                ..Default::default()
            },
        );
        engine.registry().store(&dir).unwrap(); // gen 1: the GDBT
        assert_eq!(
            engine.guarded_swap(TrainedRegressor::Harmonic { window: 9 }),
            Ok(2)
        );
        engine.registry().store(&dir).unwrap(); // gen 2: the bad harmonic

        let (version, generation) = engine.rollback_model(&dir).unwrap();
        assert_eq!(generation, 1, "restored the previous durable generation");
        assert_eq!(version, 3, "published as a new version, never backwards");
        assert!(matches!(
            *engine.registry().current().regressor,
            TrainedRegressor::Gdbt { .. }
        ));

        // The rolled-back engine answers a fresh UE bit-identically to a
        // reference engine started on an identically retrained model
        // (training is deterministic, and the checkpoint codec round-trips
        // bit-exactly).
        let reference = Engine::start(
            train_gbdt(FeatureSet::L, &golden_dataset(60)),
            EngineConfig {
                shards: 1,
                ..Default::default()
            },
        );
        for t in 0..12 {
            assert!(engine.submit(42, rec(2, t, 40.0 + 7.0 * t as f64)));
            assert!(reference.submit(42, rec(2, t, 40.0 + 7.0 * t as f64)));
        }
        let (_, rolled) = engine.shutdown();
        let (_, fresh) = reference.shutdown();
        let bits = |rx: Receiver<Prediction>| -> Vec<Option<u64>> {
            rx.iter()
                .filter(|p| p.ue == 42)
                .map(|p| p.predicted_mbps.map(f64::to_bits))
                .collect()
        };
        let rolled_bits = bits(rolled);
        assert!(
            rolled_bits.iter().any(|b| b.is_some()),
            "the restored GDBT must actually predict"
        );
        assert_eq!(rolled_bits, bits(fresh));

        // A rollback with no earlier durable generation is a typed error.
        let engine2 = Engine::start(
            TrainedRegressor::Harmonic { window: 3 },
            EngineConfig {
                shards: 1,
                ..Default::default()
            },
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        assert!(engine2.rollback_model(&dir).is_err());
        engine2.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_policy_reports_shed_stale() {
        // A generous budget: nothing real gets shed, but the policy plumbs
        // through to the shard and the report.
        let engine = Engine::start(
            TrainedRegressor::Harmonic { window: 5 },
            EngineConfig {
                shards: 2,
                queue_capacity: 64,
                policy: OverloadPolicy::Deadline {
                    max_age: Duration::from_secs(3600),
                },
                ..Default::default()
            },
        );
        for t in 0..50 {
            assert!(engine.submit(3, rec(1, t, 100.0)));
        }
        let (report, responses) = engine.shutdown();
        assert_eq!(report.shed_stale, 0);
        assert_eq!(report.processed, 50);
        assert_eq!(responses.iter().count(), 50);
    }
}
