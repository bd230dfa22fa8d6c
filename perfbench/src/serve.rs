//! `serve-gdbt` and `serve-seq2seq`: open-loop serving at two fixed rates.
//!
//! Set-up generates a training and a serving campaign, fits the served
//! L+M+C model on the first, stores it through `ModelRegistry::store` and
//! cold-starts the engine from `ModelRegistry::load_dir`. The main thread
//! then offers the serving campaign as a many-UE stream (see `gen.rs`) to
//! a one-shard engine on a fixed schedule, alternating blocks at the `lo`
//! and the `hi` load, and drains the responses itself — one shard worker
//! plus the main thread, never more busy threads than a 2-core machine
//! has. Latency runs from the moment a record was due to the moment its
//! response was emitted, so a late generator or a stalled shard both count.
//!
//! After the phases, a single-threaded shadow replay feeds the same event
//! stream through the calls the shard makes (`Session::push`,
//! `FeatureSpec::extract_latest`, `ModelRegistry::current`, the model);
//! every served response must carry the shadow's bits. The shadow also
//! scores the served predictions and the harmonic-mean baseline against the
//! next second's measurement. A traced run replays the stream again, past
//! the untimed warm-up records, inside spans to time each of those calls.

use crate::data::{
    campaign, report_sim, std_gbdt, tape, ClassCounts, SimCost, SERVING_CAMPAIGN, TRAINING_CAMPAIGN,
};
use crate::gen::{mix64, root_key, split, UeStreams};
use crate::trace::{cpu_delta_by_name, layer_totals, thread_cpu_ns, Recorder};
use crate::{median, out_dir, quantile, Args, Outcome};
use lumos5g::{FeatureSet, FeatureSpec, Lumos5G, ModelKind, Seq2SeqParams, TrainedRegressor};
use lumos5g_ml::HarmonicMeanPredictor;
use lumos5g_serve::{
    Engine, EngineConfig, ModelRegistry, OverloadPolicy, Prediction, Session, SubmitOutcome,
};
use lumos5g_sim::{Dataset, Record};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which model family the workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The std-scale L+M+C GDBT regressor.
    Gdbt,
    /// An L+M+C Seq2Seq, served through the batched decoder.
    Seq2Seq,
}

/// Load shape of one serving workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Concurrent UEs.
    ues: usize,
    /// Records per UE offered before the timed phases (session warm-up).
    warm_per_ue: usize,
    /// Offered rates, records/s: `lo`, then `hi`.
    rates: [f64; 2],
    /// Records that arrive together, as from a gateway flushing every
    /// `burst / rate` seconds: `lo`, then `hi`.
    bursts: [u64; 2],
    /// Set-up repetitions.
    setup_reps: usize,
    /// Records replayed inside spans by a traced run.
    traced_records: usize,
}

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::Gdbt => "serve-gdbt",
            Family::Seq2Seq => "serve-seq2seq",
        }
    }

    fn shape(self) -> Shape {
        match self {
            // Thousands of session windows outgrow a 2 MiB L2. `hi` keeps
            // the shard about a third busy: the host's speed varies by up
            // to half between runs, and at 50k/s a slow spell already
            // overloaded the shard, turning the median into queue backlog.
            // Records come in bursts: one at a time, the shard sleeps
            // between records and the median is mostly the host's
            // cross-core wake-up, which flipped between ~9 and ~16 µs from
            // run to run. `lo` bursts of 16 rather than 8: with 8, wake-up
            // and generator lateness still made up most of the median, which
            // then moved up to twice as much as the CPU per record did.
            // `hi` bursts of 16 rather than 32: with 32, the `hi` median's
            // ratio to the CPU per record spread 0.066–0.077 over six to
            // eight runs and its median spread up to 0.26; with 16 that
            // ratio spread 0.02–0.04, so the median follows the host's speed.
            Family::Gdbt => Shape {
                ues: 4096,
                warm_per_ue: 8,
                rates: [20_000.0, 40_000.0],
                bursts: [16, 16],
                setup_reps: 5,
                traced_records: 40_000,
            },
            // A few hundred UEs keep warm-ups a small share. One record at
            // a time at `lo` is decoded alone; a burst of 8 at `hi` is
            // mostly queued before the shard wakes, so it decodes as one
            // batch (`shard.decode_batch.*` measures both).
            Family::Seq2Seq => Shape {
                ues: 256,
                warm_per_ue: 16,
                rates: [1_000.0, 3_600.0],
                bursts: [1, 8],
                setup_reps: 3,
                traced_records: 8_000,
            },
        }
    }

    fn model(self, seed: u64) -> ModelKind {
        match self {
            Family::Gdbt => ModelKind::Gdbt(std_gbdt(seed)),
            Family::Seq2Seq => ModelKind::Seq2Seq(s2s_params(seed)),
        }
    }
}

/// Seed of the served model's training. Fixed like the campaigns: LSTM
/// training time differed by up to a third between initialisations, so
/// `--seed` drives only the load (each UE's time shift).
const MODEL_SEED: u64 = 0x4D0D;

/// The served Seq2Seq: small enough to train in a few seconds, trained
/// long enough to beat the harmonic-mean baseline on the serving stream.
fn s2s_params(seed: u64) -> Seq2SeqParams {
    Seq2SeqParams {
        input_len: 10,
        horizon: 5,
        hidden: 16,
        layers: 2,
        epochs: 8,
        batch_size: 64,
        lr: 5e-3,
        stride: 2,
        seed,
        val_fraction: 0.0,
        patience: 0,
    }
}

/// Everything set-up produces.
struct Setup {
    trained: TrainedRegressor,
    /// The stored model file.
    model_bytes: Vec<u8>,
    training: Dataset,
    registry: ModelRegistry,
    serving: Dataset,
    sim: SimCost,
    store_ms: f64,
    load_ms: f64,
}

/// Generate both campaigns, fit the served model on the training one,
/// store it under `store` and cold-start a registry from there. Returns
/// the set-up and the seconds spent in the fit call.
fn set_up(family: Family, store: &Path) -> (Setup, f64) {
    let (training, mut sim) = campaign(TRAINING_CAMPAIGN);
    let (serving, serve_sim) = campaign(SERVING_CAMPAIGN);
    sim.campaign_s += serve_sim.campaign_s;
    sim.quality_s += serve_sim.quality_s;
    let t = Instant::now();
    let trained = Lumos5G::new(FeatureSet::LMC, family.model(MODEL_SEED))
        .fit_regression(&training)
        .expect("the campaign yields training samples");
    let fit_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(store);
    let t = Instant::now();
    let path = ModelRegistry::new(trained.clone())
        .store(store)
        .expect("store the trained model");
    let store_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let registry = ModelRegistry::load_dir(store).expect("cold-start the stored model");
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let model_bytes = std::fs::read(path).expect("read the stored model");
    let setup = Setup {
        trained,
        model_bytes,
        training,
        registry,
        serving,
        sim,
        store_ms,
        load_ms,
    };
    (setup, fit_s)
}

pub fn run(args: &Args, process_start: Instant, family: Family) -> Outcome {
    let mut out = Outcome::default();
    let shape = family.shape();
    let [ue_key] = split(root_key(args.seed));
    let store = out_dir().join(format!("models-{}-{}", family.name(), std::process::id()));

    // Set-up repeats between serving rounds (below): the host's speed
    // drifts over seconds, and spread-out repetitions sample more of it.
    let (setup, fit_s) = set_up(family, &store);
    let mut setup_times = vec![process_start.elapsed().as_secs_f64()];
    let mut fit_times = vec![fit_s];
    let records = setup.training.len() + setup.serving.len();
    report_sim(&mut out, records, setup.sim);
    out.set("persist.store_ms", setup.store_ms);
    out.set("persist.load_ms", setup.load_ms);
    if let TrainedRegressor::Gdbt { model, .. } = &setup.trained {
        out.set("gbdt.trees", model.n_trees() as f64);
    }

    let tape = tape(&setup.serving);
    let registry = Arc::new(setup.registry);
    let spec = *registry
        .current()
        .regressor
        .spec()
        .expect("served models carry their feature spec");
    let engine = Engine::start_with_registry(
        registry.clone(),
        EngineConfig {
            shards: 1,
            queue_capacity: 4096,
            policy: OverloadPolicy::Block,
            predict_budget: None,
            decode_batch: DECODE_BATCH,
        },
    );
    fine_timer_slack();

    let secs = args.seconds;
    let mut gen = UeStreams::new(&tape, shape.ues, ue_key);
    let mut drain = Drain::new(shape.ues, args.trace);
    // `lo` and `hi` alternate in rounds, so that each samples the host's
    // speed, which drifts over seconds, across the whole run.
    let warm = (shape.ues * shape.warm_per_ue) as u64;
    let [lo, hi] = [0, 1].map(|i| Load {
        rate: shape.rates[i],
        burst: shape.bursts[i],
    });
    let per_round = |load: Load, share: f64| (load.rate * secs * share / ROUNDS as f64) as u64;
    let mut blocks = vec![(Phase::Warm, hi, warm)];
    for _ in 0..ROUNDS {
        blocks.push((Phase::Lo, lo, per_round(lo, 0.4)));
        blocks.push((Phase::Hi, hi, per_round(hi, 0.6)));
    }
    let mut stats: [PhaseStats; 3] = Default::default();
    let extra_setups = shape.setup_reps - 1;
    let mut same_model = true;
    let mut round = 0;
    for (phase, load, count) in blocks {
        let block = run_phase(&engine, &mut gen, &mut drain, phase, load, count.max(1));
        stats[phase as usize].absorb(block);
        if phase == Phase::Hi {
            // Spread the remaining set-ups evenly over the rounds.
            if (round + 1) * extra_setups / ROUNDS > round * extra_setups / ROUNDS {
                let t = Instant::now();
                let (again, fit_s) = set_up(family, &store);
                setup_times.push(t.elapsed().as_secs_f64());
                fit_times.push(fit_s);
                same_model &= again.model_bytes == setup.model_bytes;
            }
            round += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&store);
    let train_s = median(&mut fit_times);
    out.set("setup_s", median(&mut setup_times));
    out.set("train_s", train_s);
    out.set(
        match family {
            Family::Gdbt => "gbdt.fit_reg_s",
            Family::Seq2Seq => "s2s.fit_s",
        },
        train_s,
    );
    out.gate(same_model, || {
        "repeated set-ups stored different models".into()
    });
    let (report, rest) = engine.shutdown();
    while let Ok(p) = rest.try_recv() {
        drain.on_response(p);
    }

    // One response per accepted record, nothing lost or invented.
    let offered: u64 = stats.iter().map(|s| s.offered).sum();
    let accepted: u64 = stats.iter().map(|s| s.accepted).sum();
    let outstanding: usize = drain.pending.iter().map(VecDeque::len).sum();
    out.attempted = offered;
    out.failed = (offered - accepted)
        + outstanding as u64
        + drain.unexpected
        + drain.degraded
        + report.quarantined;
    out.gate(accepted == offered, || {
        format!(
            "{} of {offered} records were shed or rejected",
            offered - accepted
        )
    });
    out.gate(outstanding == 0 && drain.unexpected == 0, || {
        format!(
            "{outstanding} accepted records got no response, {} responses matched no record",
            drain.unexpected
        )
    });
    out.gate(report.processed == accepted, || {
        format!(
            "engine processed {} of {accepted} accepted records",
            report.processed
        )
    });
    out.gate(drain.non_finite == 0, || {
        format!("{} responses carried non-finite values", drain.non_finite)
    });
    out.gate(drain.degraded == 0 && report.fallbacks == 0, || {
        format!("{} degraded responses in a fault-free run", drain.degraded)
    });

    // Shadow replay: the served bits, the online error, the baseline.
    let trained_bits = cold_start_matches(&setup.trained, &registry, &setup.serving, spec);
    out.gate(trained_bits, || {
        "the cold-started model does not serve the trained model's bits".into()
    });
    let served = Served {
        tape: &tape,
        ues: shape.ues,
        ue_key,
        registry: &registry,
        spec,
        family,
    };
    let shadow = shadow_replay(&served, 0, offered, DECODE_BATCH, &mut Recorder::new(false));
    let mismatched = (0..shape.ues)
        .filter(|&ue| shadow.hash[ue] != drain.hash[ue] || shadow.count[ue] != drain.answered[ue])
        .count();
    out.gate(mismatched == 0, || {
        format!("{mismatched} UEs were served bits that differ from the shadow replay")
    });
    let model_mae = shadow.model_err / shadow.scored.max(1) as f64;
    let hm_mae = shadow.hm_err / shadow.scored.max(1) as f64;
    out.gate(shadow.scored > 0 && model_mae < hm_mae, || {
        format!("served MAE {model_mae:.1} does not beat harmonic mean {hm_mae:.1}")
    });
    out.set("mae_mbps", model_mae);
    out.set("hm_mae_mbps", hm_mae);
    out.set("wf1", shadow.classes.weighted_f1());

    let [_, lo, hi] = &stats;
    let mut lo_lat = drain.latency_ms[Phase::Lo as usize].clone();
    let mut hi_lat = drain.latency_ms[Phase::Hi as usize].clone();
    out.set("p50_ms.lo", median(&mut lo_lat));
    out.set("p50_ms.hi", median(&mut hi_lat));
    out.set("p99_ms.lo", quantile(&mut lo_lat, 0.99));
    out.set("p99_ms.hi", quantile(&mut hi_lat, 0.99));
    let hi_records = hi.offered as f64;
    out.set(
        "cpu_us_per_pred",
        hi.cpu_ns.values().sum::<u64>() as f64 / 1e3 / hi_records,
    );

    if args.trace {
        for (phase, st) in ["warm", "lo", "hi"].iter().zip(&stats) {
            for (thread, ns) in &st.cpu_ns {
                eprintln!(
                    "{phase:>4} {thread:<16} {:>9.1} ms CPU {:>7.3} us/record",
                    *ns as f64 / 1e6,
                    *ns as f64 / 1e3 / st.offered as f64
                );
            }
        }
        let shard_ns = hi.cpu_ns.get("serve-shard-0").copied().unwrap_or(0) as f64;
        let main_ns = hi.cpu_ns.get(&main_thread_name()).copied().unwrap_or(0) as f64;
        out.set("shard.cpu_us_per_rec", shard_ns / 1e3 / hi_records);
        out.set("shard.busy_frac.hi", shard_ns / 1e9 / hi.wall_s);
        out.set("main.cpu_us_per_rec", main_ns / 1e3 / hi_records);
        out.set("engine.offer_ns", drain.offer_ns / offered as f64);
        out.set("queue.depth_max", lo.depth_max.max(hi.depth_max) as f64);
        out.set("engine.latency_ms.p50", report.p50_ns as f64 / 1e6);
        out.set("engine.latency_ms.p99", report.p99_ns as f64 / 1e6);
        out.set(
            "engine.predict_frac",
            report.predictions as f64 / report.processed.max(1) as f64,
        );
        out.set(
            "engine.resets",
            report.shards.iter().map(|s| s.resets).sum::<u64>() as f64,
        );
        out.set("engine.fallbacks", report.fallbacks as f64);
        if family == Family::Seq2Seq {
            // Records the shard answered per dispatch: ≈1 at `lo`, up to
            // the decode batch at `hi`.
            for (phase, name) in [
                (Phase::Lo, "shard.decode_batch.lo"),
                (Phase::Hi, "shard.decode_batch.hi"),
            ] {
                let i = phase as usize;
                let batch = drain.latency_ms[i].len() as f64 / drain.dispatches[i].max(1) as f64;
                out.set(name, batch);
            }
        }
        let mut late = drain.late_ms.clone();
        out.set("gen.late_ms.p50", median(&mut late));
        out.set("gen.late_ms.max", quantile(&mut late, 1.0));
        // The training-set builder the fit call ran internally, timed alone.
        let t = Instant::now();
        match registry.current().regressor.seq2seq_params() {
            None => {
                let rows = black_box(lumos5g::build_tabular(&setup.training, &spec)).len();
                out.set("tabular.build_s", t.elapsed().as_secs_f64());
                out.set("tabular.rows", rows as f64);
            }
            Some(p) => {
                let seqs = lumos5g::build_sequences(
                    &setup.training,
                    &spec,
                    p.input_len,
                    p.horizon,
                    p.stride,
                );
                out.set("tabular.seq_build_s", t.elapsed().as_secs_f64());
                out.set("tabular.sequences", black_box(seqs).len() as f64);
            }
        }
        traced_replay(
            &mut out,
            args,
            &served,
            warm,
            shape.traced_records as u64,
            &shadow,
        );
        let shadow_us = out
            .metrics
            .get("shadow.self_us_per_rec")
            .copied()
            .unwrap_or(0.0);
        out.set(
            "engine.gap_us_per_rec",
            shard_ns / 1e3 / hi_records - shadow_us,
        );
    }
    out
}

/// Serving phases, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warm = 0,
    Lo = 1,
    Hi = 2,
}

/// Rounds of `lo` then `hi` in a serving run.
const ROUNDS: usize = 4;

/// Most records the shard answers with one batched Seq2Seq decode.
const DECODE_BATCH: usize = 8;

/// Responses whose emit instants lie closer together than this came from
/// one dispatch of the shard: its emit loop sends them back to back, while
/// the next dispatch runs a Seq2Seq decode first (~100 µs per history).
const SAME_DISPATCH_NS: u64 = 10_000;

/// What one phase measured, over all of its blocks.
#[derive(Debug, Default)]
struct PhaseStats {
    offered: u64,
    accepted: u64,
    wall_s: f64,
    /// CPU per thread name over the phase, ns.
    cpu_ns: std::collections::BTreeMap<String, u64>,
    /// Deepest shard queue seen by the sampler (traced runs only).
    depth_max: usize,
}

impl PhaseStats {
    fn absorb(&mut self, block: PhaseStats) {
        self.offered += block.offered;
        self.accepted += block.accepted;
        self.wall_s += block.wall_s;
        for (thread, ns) in block.cpu_ns {
            *self.cpu_ns.entry(thread).or_default() += ns;
        }
        self.depth_max = self.depth_max.max(block.depth_max);
    }
}

/// Response bookkeeping of the main thread.
struct Drain {
    /// Per UE, the phase, generator lateness and offer instant (ns since
    /// `origin`) of each record awaiting a response.
    pending: Vec<VecDeque<(Phase, u64, u64)>>,
    /// Responses per UE.
    answered: Vec<u64>,
    /// Per UE, a fold of every response's bits (see [`fold_response`]).
    hash: Vec<u64>,
    /// Due-to-emit latency per phase, ms.
    latency_ms: [Vec<f64>; 3],
    /// Generator lateness of the `hi` phase, ms (traced runs only).
    late_ms: Vec<f64>,
    unexpected: u64,
    non_finite: u64,
    degraded: u64,
    /// Time inside `Engine::offer`, ns (traced runs only).
    offer_ns: f64,
    traced: bool,
    origin: Instant,
    /// Emit instant of the latest response, ns since `origin`.
    last_emit_ns: u64,
    /// Shard dispatches per phase, told apart by their emit instants (see
    /// [`SAME_DISPATCH_NS`]).
    dispatches: [u64; 3],
}

impl Drain {
    fn new(ues: usize, traced: bool) -> Self {
        Drain {
            pending: vec![VecDeque::new(); ues],
            answered: vec![0; ues],
            hash: vec![0; ues],
            latency_ms: Default::default(),
            late_ms: Vec::new(),
            unexpected: 0,
            non_finite: 0,
            degraded: 0,
            offer_ns: 0.0,
            traced,
            origin: Instant::now(),
            last_emit_ns: 0,
            dispatches: [0; 3],
        }
    }

    fn on_response(&mut self, p: Prediction) {
        let ue = p.ue as usize;
        let Some((phase, late_ns, offered_ns)) =
            self.pending.get_mut(ue).and_then(VecDeque::pop_front)
        else {
            self.unexpected += 1;
            return;
        };
        self.latency_ms[phase as usize].push((late_ns + p.latency_ns) as f64 / 1e6);
        let emit_ns = offered_ns + p.latency_ns;
        if emit_ns.abs_diff(self.last_emit_ns) > SAME_DISPATCH_NS {
            self.dispatches[phase as usize] += 1;
        }
        self.last_emit_ns = emit_ns;
        let finite = p.predicted_mbps.is_none_or(f64::is_finite)
            && p.horizon_mbps.as_ref().is_none_or(|h| {
                h.iter().all(|v| v.is_finite()) && h.first().copied() == p.predicted_mbps
            });
        self.non_finite += u64::from(!finite);
        self.degraded += u64::from(p.degraded);
        self.answered[ue] += 1;
        self.hash[ue] = fold_response(self.hash[ue], p.predicted_mbps, p.horizon_mbps.as_deref());
    }
}

/// Fold one response's prediction and horizon bits into a per-UE digest.
fn fold_response(acc: u64, predicted: Option<f64>, horizon: Option<&[f64]>) -> u64 {
    let mut h = mix64(acc ^ predicted.map_or(u64::MAX, f64::to_bits));
    for v in horizon.unwrap_or_default() {
        h = mix64(h ^ v.to_bits());
    }
    h
}

/// An offered load: records per second, arriving `burst` at a time.
#[derive(Debug, Clone, Copy)]
struct Load {
    rate: f64,
    burst: u64,
}

/// Offer one block of `count` records at `load`, on schedule, then wait
/// for every response. All records of a burst are due at its start. The
/// main thread sleeps between bursts, so that the CPU per record counts
/// work rather than waiting.
fn run_phase(
    engine: &Engine,
    gen: &mut UeStreams<'_, Record>,
    drain: &mut Drain,
    phase: Phase,
    load: Load,
    count: u64,
) -> PhaseStats {
    let rx = engine.responses().clone();
    drain.latency_ms[phase as usize].reserve_exact(count as usize);
    if drain.traced && phase == Phase::Hi {
        drain.late_ms.reserve_exact(count as usize);
    }
    let burst_ns = 1e9 * load.burst as f64 / load.rate;
    let cpu_before = thread_cpu_ns();
    let start = Instant::now();
    let start_ns = start.duration_since(drain.origin).as_nanos() as u64;
    let mut stats = PhaseStats::default();
    let mut next_sample = 0.0;
    while stats.offered < count {
        let now = start.elapsed().as_nanos() as f64;
        let due = (((now / burst_ns) as u64 + 1) * load.burst).min(count);
        while stats.offered < due {
            let due_ns = (stats.offered / load.burst) as f64 * burst_ns;
            let (ue, record) = gen.next_event();
            let offered_at = start.elapsed().as_nanos() as f64;
            let outcome = engine.offer(ue, record.clone());
            stats.offered += 1;
            let late_ns = (offered_at - due_ns).max(0.0) as u64;
            if drain.traced {
                drain.offer_ns += start.elapsed().as_nanos() as f64 - offered_at;
                if phase == Phase::Hi {
                    drain.late_ms.push(late_ns as f64 / 1e6);
                }
            }
            if outcome == SubmitOutcome::Accepted {
                stats.accepted += 1;
                let offered_ns = start_ns + offered_at as u64;
                drain.pending[ue as usize].push_back((phase, late_ns, offered_ns));
            }
        }
        while let Ok(p) = rx.try_recv() {
            drain.on_response(p);
        }
        if drain.traced && now >= next_sample {
            next_sample = now + 1e6;
            let depth = engine.snapshot().iter().map(|s| s.queue_depth).max();
            stats.depth_max = stats.depth_max.max(depth.unwrap_or(0));
        }
        let next_due = (stats.offered / load.burst) as f64 * burst_ns;
        let wait = next_due - start.elapsed().as_nanos() as f64;
        if wait > 0.0 && stats.offered < count {
            std::thread::sleep(Duration::from_nanos(wait as u64));
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while drain
        .pending
        .iter()
        .any(|q| q.iter().any(|(p, _, _)| *p == phase))
    {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(p) => drain.on_response(p),
            Err(_) => break, // the gates report what is missing
        }
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats.cpu_ns = cpu_delta_by_name(&cpu_before, &thread_cpu_ns());
    stats
}

/// Let the pacing sleeps of the main thread end within microseconds: the
/// default 50 µs timer slack would add tens of µs of generator lateness
/// to every due-to-emit latency.
fn fine_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes its value in arg2 and ignores the
    // remaining arguments; it only changes this thread's timer slack.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    if rc != 0 {
        eprintln!("warning: could not lower the timer slack; pacing will be coarser");
    }
}

fn main_thread_name() -> String {
    std::fs::read_to_string("/proc/self/comm")
        .unwrap_or_default()
        .trim()
        .to_string()
}

/// The cold-started model must predict the trained model's bits.
fn cold_start_matches(
    trained: &TrainedRegressor,
    registry: &ModelRegistry,
    serving: &Dataset,
    spec: FeatureSpec,
) -> bool {
    let loaded = registry.current();
    match trained.seq2seq_params() {
        None => {
            let td = lumos5g::build_tabular(serving, &spec);
            td.xs.iter().all(|x| {
                trained.predict_one(x).map(f64::to_bits)
                    == loaded.regressor.predict_one(x).map(f64::to_bits)
            })
        }
        Some(p) => {
            let sd = lumos5g::build_sequences(serving, &spec, p.input_len, 1, 7);
            let histories: Vec<&[Vec<f64>]> = sd.inputs.iter().map(Vec::as_slice).collect();
            let a = trained.predict_sequence_batch(&histories);
            let b = loaded.regressor.predict_sequence_batch(&histories);
            let bits = |v: Option<Vec<Vec<f64>>>| -> Option<Vec<u64>> {
                Some(v?.iter().flatten().map(|x| x.to_bits()).collect())
            };
            let a = bits(a);
            a.is_some() && a == bits(b)
        }
    }
}

/// What the shadow replay found.
struct Shadow {
    hash: Vec<u64>,
    count: Vec<u64>,
    /// Predictions with a next-second measurement to score against.
    scored: u64,
    model_err: f64,
    hm_err: f64,
    classes: ClassCounts,
    /// Encoder histories decoded (Seq2Seq), kept for the decoder timings.
    histories: Vec<Vec<Vec<f64>>>,
    /// Wall time of the replay after its untraced prefix, s.
    measured_s: f64,
}

/// Per-UE state of the shadow replay.
struct ShadowUe {
    session: Session,
    hm: HarmonicMeanPredictor,
    /// `(pass_id, t, model prediction, baseline prediction)` awaiting the
    /// next second's measurement.
    pending: Option<(u32, u32, f64, f64)>,
}

/// The served stream and model: what a shadow replay needs to repeat it.
struct Served<'a> {
    tape: &'a [Record],
    ues: usize,
    ue_key: u64,
    registry: &'a ModelRegistry,
    spec: FeatureSpec,
    family: Family,
}

/// A Seq2Seq record waiting for a batched decode: its UE, request id and
/// encoder history.
type Lane = (u64, u64, Vec<Vec<f64>>);

/// Replay the first `skip + events` records of the served stream through
/// the calls a shard makes, single-threaded; the last `events` of them run
/// inside spans of `rec`, so that a traced replay times warm sessions, as
/// the shard meets them in the timed phases. Seq2Seq histories are decoded
/// in groups of up to `batch` distinct UEs, which the batched decoder
/// answers with the same bits as one at a time.
fn shadow_replay(
    served: &Served,
    skip: u64,
    events: u64,
    batch: usize,
    rec: &mut Recorder,
) -> Shadow {
    let Served { registry, spec, .. } = *served;
    let mut gen = UeStreams::new(served.tape, served.ues, served.ue_key);
    let required = spec.required_window();
    let input_len = registry
        .current()
        .regressor
        .seq2seq_params()
        .map_or(0, |p| p.input_len);
    let mut shadow = Shadow {
        hash: vec![0; served.ues],
        count: vec![0; served.ues],
        scored: 0,
        model_err: 0.0,
        hm_err: 0.0,
        classes: ClassCounts::default(),
        histories: Vec::new(),
        measured_s: 0.0,
    };
    let mut state: HashMap<u64, ShadowUe> = HashMap::new();
    let mut lanes: Vec<Lane> = Vec::new();
    let mut off = Recorder::new(false);
    let mut measured = Instant::now();
    for request in 0..skip + events {
        if request == skip {
            decode_lanes(&mut lanes, &mut state, &mut shadow, registry, &mut off);
            measured = Instant::now();
        }
        let rec = if request < skip { &mut off } else { &mut *rec };
        let (ue, record) = gen.next_event();
        if lanes.iter().any(|(u, _, _)| *u == ue) || lanes.len() == batch {
            decode_lanes(&mut lanes, &mut state, &mut shadow, registry, rec);
        }
        let s = state.entry(ue).or_insert_with(|| ShadowUe {
            session: Session::for_sequences(required, input_len),
            hm: HarmonicMeanPredictor::new(5),
            pending: None,
        });
        let measured = record.throughput_mbps;
        if let Some((pass, t, model, hm)) = s.pending.take() {
            if pass == record.pass_id && t.checked_add(1) == Some(record.t) {
                shadow.scored += 1;
                shadow.model_err += (model - measured).abs();
                shadow.hm_err += (hm - measured).abs();
                shadow.classes.add(measured, model);
            }
        }
        rec.span("record", request, |rec| {
            let resets = s.session.resets;
            rec.span("session.push", request, |_| s.session.push(record.clone()));
            if s.session.resets != resets {
                s.hm = HarmonicMeanPredictor::new(5);
            }
            s.hm.observe(measured);
            let model = rec.span("registry.current", request, |_| registry.current());
            match served.family {
                Family::Gdbt => {
                    let x = rec.span("features.extract", request, |_| {
                        spec.extract_latest(s.session.window())
                    });
                    let y = x.and_then(|x| {
                        rec.span("gbdt.predict_one", request, |_| {
                            model.regressor.predict_one(&x)
                        })
                    });
                    settle(&mut shadow, s, ue, record, y, None);
                }
                Family::Seq2Seq => {
                    rec.span("features.extract", request, |_| {
                        if let Some(x) = spec.extract_latest(s.session.window()) {
                            s.session.record_features(x);
                        }
                    });
                    if s.session.feature_len() < input_len {
                        settle(&mut shadow, s, ue, record, None, None);
                    } else {
                        let h = rec.span("session.history", request, |_| {
                            s.session.feature_history().to_vec()
                        });
                        s.pending = Some((record.pass_id, record.t, f64::NAN, f64::NAN));
                        lanes.push((ue, request, h));
                    }
                }
            }
        });
    }
    decode_lanes(&mut lanes, &mut state, &mut shadow, registry, rec);
    shadow.measured_s = measured.elapsed().as_secs_f64();
    shadow
}

/// Decode the waiting Seq2Seq lanes with one batched call and settle them.
/// The decode span carries the request id of the batch's first record.
fn decode_lanes(
    lanes: &mut Vec<Lane>,
    state: &mut HashMap<u64, ShadowUe>,
    shadow: &mut Shadow,
    registry: &ModelRegistry,
    rec: &mut Recorder,
) {
    let Some(&(_, request, _)) = lanes.first() else {
        return;
    };
    let histories: Vec<&[Vec<f64>]> = lanes.iter().map(|(_, _, h)| h.as_slice()).collect();
    let model = registry.current();
    let decoded = rec.span("nn.decode", request, |_| {
        model.regressor.predict_sequence_batch(&histories)
    });
    let decoded = decoded.unwrap_or_else(|| vec![Vec::new(); lanes.len()]);
    for ((ue, _, h), horizon) in lanes.drain(..).zip(decoded) {
        let s = state.get_mut(&ue).expect("lane UEs have state");
        let (pass_id, t, _, _) = s.pending.take().expect("lanes await a decode");
        let y = horizon.first().copied();
        shadow.count[ue as usize] += 1;
        shadow.hash[ue as usize] = fold_response(shadow.hash[ue as usize], y, Some(&horizon));
        if let Some(y) = y {
            s.pending = Some((pass_id, t, y, s.hm.predict().unwrap_or(y)));
        }
        if shadow.histories.len() < 2048 {
            shadow.histories.push(h);
        }
    }
}

/// Account one answered record and arm its next-second scoring.
fn settle(
    shadow: &mut Shadow,
    s: &mut ShadowUe,
    ue: u64,
    record: &Record,
    y: Option<f64>,
    horizon: Option<&[f64]>,
) {
    shadow.count[ue as usize] += 1;
    shadow.hash[ue as usize] = fold_response(shadow.hash[ue as usize], y, horizon);
    if let Some(y) = y {
        let hm = s.hm.predict().unwrap_or(y);
        s.pending = Some((record.pass_id, record.t, y, hm));
    }
}

/// The traced half of a serving run: after the `skip` records that warm
/// the sessions, replay `events` records without and with spans, twice
/// each in turn, at the `hi` phase's decode batch, and take the ratio of
/// the faster times as the tracing overhead; report each layer's self
/// time, and time the batched decoder at batch 1 and 8.
fn traced_replay(
    out: &mut Outcome,
    args: &Args,
    served: &Served,
    skip: u64,
    events: u64,
    full: &Shadow,
) {
    let timed = |traced: bool| {
        let mut rec = Recorder::new(traced);
        let shadow = shadow_replay(served, skip, events, DECODE_BATCH, &mut rec);
        (shadow.measured_s, rec)
    };
    let (plain_a, _) = timed(false);
    let (traced_a, _) = timed(true);
    let (plain_b, _) = timed(false);
    let (traced_b, rec) = timed(true);
    let (plain_s, traced_s) = (plain_a.min(plain_b), traced_a.min(traced_b));
    out.set("trace.overhead_frac", traced_s / plain_s - 1.0);
    let layers = layer_totals(rec.spans());
    let mean = |name: &str| layers.get(name).map_or(0.0, |t| t.mean_self_ns());
    out.set("session.push_ns", mean("session.push"));
    out.set("features.extract_ns", mean("features.extract"));
    out.set("registry.current_ns", mean("registry.current"));
    out.set("gbdt.predict_ns", mean("gbdt.predict_one"));
    out.set("session.history_ns", mean("session.history"));
    let per_record_ns: u64 = layers
        .iter()
        .filter(|(name, _)| **name != "record")
        .map(|(_, t)| t.self_ns)
        .sum();
    out.set(
        "shadow.self_us_per_rec",
        per_record_ns as f64 / 1e3 / events as f64,
    );
    crate::print_layers(rec.spans().len(), &layers);
    let family = served.family;
    let path = out_dir().join(format!("spans-{}-{}.csv", family.name(), args.seed));
    if let Err(e) = rec.write_csv(&path) {
        eprintln!("cannot write spans: {e}");
    }

    if family == Family::Seq2Seq {
        let model = served.registry.current();
        let histories: Vec<&[Vec<f64>]> = full.histories.iter().map(Vec::as_slice).collect();
        for (batch, name) in [(1, "nn.decode_us.b1"), (8, "nn.decode_us.b8")] {
            let t = Instant::now();
            for chunk in histories.chunks(batch) {
                black_box(model.regressor.predict_sequence_batch(chunk));
            }
            out.set(
                name,
                t.elapsed().as_secs_f64() * 1e6 / histories.len().max(1) as f64,
            );
        }
    }
}
