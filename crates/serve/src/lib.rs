#![warn(missing_docs)]

//! # lumos5g-serve
//!
//! A sharded, real-time serving engine for trained Lumos5G throughput
//! predictors — the deployment half of the paper's vision (§7): the models
//! trained offline on campaign data must answer *"what will this UE's
//! throughput be next second?"* online, per 1 Hz sample, for thousands of
//! concurrent UEs.
//!
//! Architecture (one [`engine::Engine`]):
//!
//! ```text
//!                      ┌────────── shard 0 ── drain a dispatch ───────┐
//!  submit(ue, record) ─┤ hash(ue) ─ shard 1 ── sessions + extract ────┼─→ responses
//!                      └────────── shard N ── one model call ─────────┘
//! ```
//!
//! * **UE affinity** — records are routed to a shard by UE-id hash, so one
//!   UE's stream is always processed by one worker in arrival order; the
//!   per-session sliding window ([`session::Session`]) that feeds the `C`
//!   feature group is therefore race-free without locks.
//! * **One dispatch loop** — every shard runs the same loop for every
//!   model family: drain up to a batch of queued records (one per UE),
//!   update their sessions, make one model call, answer in dequeue order.
//!   Single-row families (GDBT, KNN, RF) dispatch one record at a time.
//! * **Bit-exact with offline eval** — shards build features through
//!   [`lumos5g::FeatureSpec::extract_latest`] and predict through
//!   [`lumos5g::TrainedRegressor::predict_one`] (or, for Seq2Seq,
//!   [`lumos5g::TrainedRegressor::predict_sequence_batch`]), the very code
//!   paths the offline `eval` reduces to, so online predictions are
//!   bit-identical to the training-time numbers (asserted by the workspace
//!   `serving` test).
//! * **Hot swap, gated** — [`registry::ModelRegistry`] atomically replaces
//!   the served model mid-stream; in-flight records finish on the version
//!   they started with and responses carry the version that produced them.
//!   [`engine::Engine::guarded_swap`] routes candidates through a
//!   [`registry::Gatekeeper`] that replays a golden slice of held-out
//!   records first — a panicking, non-finite or MAE-regressing candidate is
//!   refused with a typed [`registry::SwapRejected`] reason, and
//!   [`engine::Engine::rollback_model`] restores the previous durable
//!   generation from disk.
//! * **Durable generations** — [`registry::ModelRegistry::store`] writes
//!   `model.gen-{N}.l5gm` checkpoints atomically (temp file + fsync +
//!   rename, CRC-sealed container) with bounded retention;
//!   [`registry::ModelRegistry::load_dir_report`] cold-starts from the
//!   newest generation that passes its integrity check and reports every
//!   torn or corrupt file it skipped ([`registry::LoadReport`]).
//! * **Backpressure** — ingest queues are bounded; [`queue::OverloadPolicy`]
//!   picks between blocking the producer, shedding load (counted, never
//!   silent), and a dequeue-side staleness deadline.
//! * **Sequence serving** — when the engine starts with a Seq2Seq model,
//!   sessions additionally retain the per-second feature-vector history its
//!   encoder consumes, and a dispatch drains up to
//!   [`engine::EngineConfig::decode_batch`] queued records (one per UE) for
//!   a single batched decoder call. Responses carry the full k-step horizon
//!   ([`shard::Prediction::horizon_mbps`]) and are bit-identical to the
//!   offline `predict_sequence` for any shard count and batch size.
//! * **Fault tolerance** — admission control rejects malformed telemetry at
//!   the front door with a typed [`engine::RejectReason`]; per-record panic
//!   isolation quarantines poison records; a harmonic fallback chain
//!   answers (tagged `degraded`) when the model panics, returns non-finite,
//!   or blows its time budget; and a supervisor respawns dead shard workers
//!   instead of failing shutdown. [`fault::FaultPlan`] injects all of these
//!   failures deterministically for chaos testing (`tests/chaos.rs`).
//! * **Observability** — per-shard counters, log-bucketed latency
//!   histograms (p50/p95/p99), queue-depth gauges and online
//!   prediction-error tracking ([`metrics`]).
//!
//! [`replay::ReplaySource`] turns a simulated campaign [`lumos5g_sim::Dataset`]
//! into a deterministic multi-UE arrival stream for the integration tests
//! (`tests/{serving,chaos,persistence}.rs`). Service time at a stated offered
//! load is measured by the repository benchmark (`perfbench/README.md`).

pub mod engine;
pub mod fault;
pub mod metrics;
pub mod queue;
pub mod registry;
pub mod replay;
pub mod session;
pub mod shard;

pub use engine::{admit, Engine, EngineConfig, EngineReport, RejectReason, SubmitOutcome};
pub use fault::{Corruption, FaultPlan, PredictFault, RecordFault, RecordKey};
pub use metrics::{LatencyHistogram, MetricsSnapshot, ShardMetrics};
pub use queue::OverloadPolicy;
pub use registry::{
    Gatekeeper, LoadReport, ModelRegistry, ModelVersion, SkippedCheckpoint, SwapRejected,
    RETAIN_GENERATIONS,
};
pub use replay::{ReplaySource, ReplayStats};
pub use session::Session;
pub use shard::{Ingest, Prediction};
