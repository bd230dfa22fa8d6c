//! Closed-loop load benchmark of the sharded serving engine.
//!
//! ```text
//! cargo run --release -p lumos5g-bench --bin serve_bench -- \
//!     [--model gdbt|seq2seq] [--shards N] [--ues N] [--rounds N] [--seed N] \
//!     [--quick] [--decode-batch N] [--save-models DIR] [--load-models DIR] \
//!     [--chaos SEED]
//! ```
//!
//! Simulates a campaign, trains the selected model (GDBT L+M by default,
//! `--model seq2seq` for the LSTM encoder–decoder), replays the campaign as
//! a multi-UE 1 Hz stream at maximum speed through the engine, and reports
//! sustained predictions/sec plus end-to-end tail latency. Results are
//! printed and saved to `results/serving.csv` / `results/serving_shards.csv`.
//!
//! With `--model seq2seq`, shards serve full k-step horizons through the
//! batched decoder (`--decode-batch`, default 8, bit-identical for any
//! value), and the bench additionally sweeps the offline batched decoder
//! over batch sizes 1–16, appending one row per batch size; at batch ≥ 8
//! the decoder must sustain ≥ 2x the unbatched rate (gated like the
//! 100k predictions/sec GDBT target, full runs only).
//!
//! `--save-models DIR` writes the served model to `DIR/model.gen-1.l5gm`;
//! `--load-models DIR` cold-starts from the newest generation saved there
//! and skips training entirely — the loaded model is bit-identical. Both
//! families use the same `.l5gm` format.
//!
//! `--chaos SEED` installs a deterministic `FaultPlan`: source records are
//! corrupted, models panic / emit NaN / blow their budget, and workers are
//! killed mid-stream, all keyed off SEED. The bench then asserts the
//! fault-tolerance contract: every accepted record is answered exactly
//! once, no response carries a non-finite prediction, and the online MAE
//! stays finite.
//!
//! `--golden N` holds the last N campaign records out as a golden replay
//! slice and installs a validation `Gatekeeper` on the engine. After the
//! replay the bench offers the gate a NaN-emitting candidate (asserted
//! rejected with a typed reason) and a healthy one (asserted admitted),
//! and — when `--save-models` is also given — rolls the engine back to the
//! prior on-disk generation. This is the gated-swap smoke used by CI.

use lumos5g::{quick_gbdt, FeatureSet, FeatureSpec, Lumos5G, ModelKind, Seq2SeqParams};
use lumos5g_bench::TableWriter;
use lumos5g_serve::{
    Engine, EngineConfig, FaultPlan, Gatekeeper, ModelRegistry, OverloadPolicy, ReplaySource,
    SwapRejected,
};
use lumos5g_sim::{airport, quality, run_campaign, CampaignConfig, Dataset};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: serve_bench [--model gdbt|seq2seq] [--shards N] [--ues N] \
                     [--rounds N] [--seed N] [--quick] [--decode-batch N] \
                     [--save-models DIR] [--load-models DIR] [--chaos SEED] \
                     [--golden N]";

#[derive(Clone, Copy, PartialEq, Eq)]
enum ModelChoice {
    Gdbt,
    Seq2Seq,
}

impl ModelChoice {
    fn name(self) -> &'static str {
        match self {
            ModelChoice::Gdbt => "gdbt",
            ModelChoice::Seq2Seq => "seq2seq",
        }
    }
}

struct Args {
    model: ModelChoice,
    shards: usize,
    ues: usize,
    rounds: usize,
    seed: u64,
    quick: bool,
    decode_batch: usize,
    save_models: Option<PathBuf>,
    load_models: Option<PathBuf>,
    chaos: Option<u64>,
    golden: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        model: ModelChoice::Gdbt,
        shards: 4,
        ues: 64,
        rounds: 8,
        seed: 42,
        quick: false,
        decode_batch: 8,
        save_models: None,
        load_models: None,
        chaos: None,
        golden: 0,
    };
    fn numeric(argv: &[String], i: usize, name: &str) -> u64 {
        argv.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{name} needs a numeric value");
            eprintln!("{USAGE}");
            std::process::exit(2);
        })
    }
    fn dir(argv: &[String], i: usize, name: &str) -> PathBuf {
        argv.get(i).map(PathBuf::from).unwrap_or_else(|| {
            eprintln!("{name} needs a directory path");
            eprintln!("{USAGE}");
            std::process::exit(2);
        })
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--model" => {
                i += 1;
                args.model = match argv.get(i).map(String::as_str) {
                    Some("gdbt") => ModelChoice::Gdbt,
                    Some("seq2seq") => ModelChoice::Seq2Seq,
                    _ => {
                        eprintln!("--model needs gdbt or seq2seq");
                        eprintln!("{USAGE}");
                        std::process::exit(2);
                    }
                };
            }
            "--decode-batch" => {
                i += 1;
                args.decode_batch = (numeric(&argv, i, "--decode-batch") as usize).max(1);
            }
            "--shards" => {
                i += 1;
                args.shards = numeric(&argv, i, "--shards") as usize;
            }
            "--ues" => {
                i += 1;
                args.ues = numeric(&argv, i, "--ues") as usize;
            }
            "--rounds" => {
                i += 1;
                args.rounds = numeric(&argv, i, "--rounds") as usize;
            }
            "--seed" => {
                i += 1;
                args.seed = numeric(&argv, i, "--seed");
            }
            "--quick" => args.quick = true,
            "--save-models" => {
                i += 1;
                args.save_models = Some(dir(&argv, i, "--save-models"));
            }
            "--load-models" => {
                i += 1;
                args.load_models = Some(dir(&argv, i, "--load-models"));
            }
            "--chaos" => {
                i += 1;
                args.chaos = Some(numeric(&argv, i, "--chaos"));
            }
            "--golden" => {
                i += 1;
                args.golden = numeric(&argv, i, "--golden") as usize;
            }
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // The engine clamps to >= 1 shard; mirror that here so the report
    // shows the effective configuration.
    args.shards = args.shards.max(1);
    args.ues = args.ues.max(1);
    args
}

/// Seq2Seq shape for the serving benchmark: hidden 96 keeps the per-step
/// weight working set (~1.8 MB of f64) larger than a typical L2, which is
/// exactly the regime batched decoding is built for — each weight tile is
/// loaded once per step and reused across every lane.
fn bench_seq2seq(seed: u64, quick: bool) -> Seq2SeqParams {
    Seq2SeqParams {
        input_len: 10,
        horizon: 5,
        hidden: 96,
        layers: 2,
        epochs: if quick { 2 } else { 3 },
        batch_size: 64,
        lr: 3e-3,
        stride: if quick { 2 } else { 4 },
        seed,
        val_fraction: 0.0,
        patience: 0,
    }
}

fn main() {
    let args = parse_args();
    let (passes, duration, rounds) = if args.quick {
        (2, 120, 2.min(args.rounds))
    } else {
        (4, 300, args.rounds)
    };

    eprintln!("simulating campaign (airport, {passes} passes/trajectory)...");
    let area = airport(args.seed);
    let cfg = CampaignConfig {
        passes_per_trajectory: passes,
        max_duration_s: duration,
        base_seed: args.seed,
        bad_gps_fraction: 0.0,
        ..Default::default()
    };
    let raw = run_campaign(&area, &cfg);
    let (data, _) = quality::apply(&raw, &area.frame, &Default::default());

    let registry = match &args.load_models {
        Some(load_dir) => {
            eprintln!("cold start: loading model from {}...", load_dir.display());
            let registry = ModelRegistry::load_dir(load_dir).unwrap_or_else(|e| {
                eprintln!("failed to load models from {}: {e}", load_dir.display());
                std::process::exit(2);
            });
            eprintln!(
                "serving saved model v{} (no retraining)",
                registry.version()
            );
            registry
        }
        None => {
            let kind = match args.model {
                ModelChoice::Gdbt => ModelKind::Gdbt(quick_gbdt()),
                ModelChoice::Seq2Seq => ModelKind::Seq2Seq(bench_seq2seq(args.seed, args.quick)),
            };
            eprintln!(
                "training {} (L+M) on {} records...",
                args.model.name(),
                data.len()
            );
            let model = Lumos5G::new(FeatureSet::LM, kind)
                .fit_regression(&data)
                .expect("training failed");
            ModelRegistry::new(model)
        }
    };
    if let Some(save_dir) = &args.save_models {
        let path = registry.store(save_dir).unwrap_or_else(|e| {
            eprintln!("failed to save model to {}: {e}", save_dir.display());
            std::process::exit(2);
        });
        eprintln!("saved model to {}", path.display());
    }

    let plan = args.chaos.map(|seed| Arc::new(FaultPlan::seeded(seed)));
    let mut src = ReplaySource::from_dataset(&data, args.ues);
    if let Some(plan) = &plan {
        eprintln!(
            "chaos mode (seed {}): corrupting source records and injecting model/worker faults",
            plan.seed()
        );
        src = src.corrupted(plan);
    }
    eprintln!(
        "replaying {} events x {} rounds over {} UEs into {} shards...",
        src.len(),
        rounds,
        src.ues(),
        args.shards
    );

    let registry = Arc::new(registry);
    let engine = Engine::start_with_faults(
        registry.clone(),
        EngineConfig {
            shards: args.shards,
            queue_capacity: 1024,
            policy: OverloadPolicy::Block,
            predict_budget: None,
            decode_batch: args.decode_batch,
        },
        plan.clone(),
    );
    // Validation gate: the last `--golden` records become the replay slice
    // every swap candidate must survive. Tolerance 1.25 allows a candidate
    // up to 25 % worse than the incumbent on the golden MAE.
    const GOLDEN_TOLERANCE: f64 = 1.25;
    if args.golden > 0 {
        let n = args.golden.min(data.len());
        let slice = Dataset::new(data.records[data.len() - n..].to_vec());
        engine.install_gatekeeper(Gatekeeper::new(slice, GOLDEN_TOLERANCE));
        eprintln!(
            "gatekeeper installed: {n}-record golden slice, tolerance {GOLDEN_TOLERANCE:.2}x"
        );
    }
    // Closed loop: drain responses concurrently so the engine never stalls
    // on its (unbounded) output. The consumer also audits the sequence
    // contract: every served horizon is finite and starts at the response's
    // one-step prediction.
    let rx = engine.responses().clone();
    let consumer = std::thread::spawn(move || {
        let (mut n, mut with_horizon) = (0u64, 0u64);
        while let Ok(p) = rx.recv() {
            n += 1;
            if let Some(h) = &p.horizon_mbps {
                with_horizon += 1;
                assert!(
                    h.iter().all(|v| v.is_finite()),
                    "non-finite horizon served: {h:?}"
                );
                assert_eq!(p.predicted_mbps, h.first().copied(), "horizon[0] mismatch");
            }
        }
        (n, with_horizon)
    });

    let start = Instant::now();
    let mut submitted = 0u64;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for _ in 0..rounds {
        let stats = src.run(&engine, 0.0);
        submitted += stats.submitted;
        accepted += stats.accepted;
        rejected += stats.rejected;
    }

    // Gated-swap smoke: offer the gate a NaN-emitting candidate — built
    // below the validating training API, the way a buggy retraining
    // pipeline would produce one — and assert the typed rejection; then
    // re-offer the serving model itself and assert admission. With
    // `--save-models` the admitted generation is persisted and the engine
    // rolled back to its on-disk predecessor.
    if args.golden > 0 {
        let nan_candidate = lumos5g::TrainedRegressor::Gdbt {
            model: lumos5g_ml::GbdtRegressor::fit(
                &vec![vec![1000.0, 2000.0]; 20],
                &[f64::NAN; 20],
                &quick_gbdt(),
            ),
            spec: FeatureSpec::new(FeatureSet::L),
        };
        match engine.guarded_swap(nan_candidate) {
            Err(SwapRejected::NonFinite) => {
                eprintln!(
                    "gate refused the NaN candidate ({})",
                    SwapRejected::NonFinite
                )
            }
            other => panic!("NaN candidate must be refused as NonFinite, got {other:?}"),
        }
        let healthy = registry.current().regressor.as_ref().clone();
        let admitted = engine
            .guarded_swap(healthy)
            .expect("healthy candidate passes its own golden replay");
        eprintln!("gate admitted the healthy candidate as v{admitted}");
        if let Some(save_dir) = &args.save_models {
            let path = registry
                .store(save_dir)
                .expect("store the admitted generation");
            eprintln!("saved admitted generation to {}", path.display());
            let (version, generation) = engine
                .rollback_model(save_dir)
                .expect("roll back to the prior on-disk generation");
            assert!(
                generation < admitted,
                "rollback must restore an older generation"
            );
            eprintln!("rolled back to generation {generation}, serving as v{version}");
        }
    }

    let (report, responses) = engine.shutdown();
    drop(responses);
    let (consumed, with_horizon) = consumer.join().unwrap();
    let wall = start.elapsed();

    // The fault-tolerance contract: every accepted record is answered
    // exactly once, even under sustained chaos.
    assert_eq!(
        accepted + rejected,
        submitted,
        "submission tallies disagree"
    );
    assert_eq!(report.processed, accepted, "engine dropped records");
    assert_eq!(consumed, accepted, "responses were lost");
    assert_eq!(report.rejected, rejected, "admission counters disagree");
    if let Some(mae) = report.mae_mbps {
        assert!(mae.is_finite(), "online MAE went non-finite: {mae}");
    }
    // The gate's refusals must surface typed in the engine report.
    if args.golden > 0 {
        assert_eq!(report.swap_rejected, 1, "exactly one candidate was refused");
        assert_eq!(
            report.swap_rejected_by[SwapRejected::NonFinite.index()],
            1,
            "the refusal is typed NonFinite"
        );
        eprintln!(
            "gate report: {} refused ({} non-finite)",
            report.swap_rejected,
            report.swap_rejected_by[SwapRejected::NonFinite.index()]
        );
    }
    // Fault-free sequence serving must actually produce horizons (warm-ups
    // aside) — a silently formless model would otherwise pass every count.
    if args.model == ModelChoice::Seq2Seq && args.chaos.is_none() {
        assert!(
            with_horizon > 0,
            "seq2seq run served no horizon-bearing responses"
        );
        assert_eq!(report.panicked, 0, "fault-free run had worker deaths");
    }
    let preds_per_sec = report.processed as f64 / wall.as_secs_f64();

    let us = |ns: u64| format!("{:.1}", ns as f64 / 1000.0);
    let mut shard_table = TableWriter::new(
        "Serving engine: per-shard breakdown",
        &[
            "shard",
            "processed",
            "predictions",
            "warmups",
            "resets",
            "quarantined",
            "fallbacks",
            "panicked",
            "restarted",
            "p50_us",
            "p95_us",
            "p99_us",
        ],
    );
    for s in &report.shards {
        shard_table.row(&[
            s.shard.to_string(),
            s.processed.to_string(),
            s.predictions.to_string(),
            s.warmups.to_string(),
            s.resets.to_string(),
            s.quarantined.to_string(),
            s.fallbacks.to_string(),
            s.panicked.to_string(),
            s.restarted.to_string(),
            us(s.p50_ns),
            us(s.p95_ns),
            us(s.p99_ns),
        ]);
    }
    shard_table.print();

    if args.chaos.is_some() {
        let mut chaos_table = TableWriter::new(
            "Chaos run: fault-tolerance counters (zero lost responses asserted)",
            &[
                "accepted",
                "rejected",
                "quarantined",
                "fallbacks",
                "panicked",
                "restarted",
                "degraded_ppm",
            ],
        );
        let degraded = report.quarantined + report.fallbacks;
        chaos_table.row(&[
            accepted.to_string(),
            rejected.to_string(),
            report.quarantined.to_string(),
            report.fallbacks.to_string(),
            report.panicked.to_string(),
            report.restarted.to_string(),
            format!("{}", degraded * 1_000_000 / accepted.max(1)),
        ]);
        chaos_table.print();
        chaos_table
            .save_csv(Path::new("results/serving_chaos.csv"))
            .expect("write results/serving_chaos.csv");
    }

    let mut summary = TableWriter::new(
        "Serving engine: sustained closed-loop throughput",
        &[
            "model",
            "shards",
            "ues",
            "records",
            "decode_batch",
            "preds_per_sec",
            "p50_us",
            "p95_us",
            "p99_us",
            "online_mae_mbps",
        ],
    );
    let engine_batch = match args.model {
        ModelChoice::Gdbt => "-".to_string(),
        ModelChoice::Seq2Seq => args.decode_batch.to_string(),
    };
    summary.row(&[
        args.model.name().to_string(),
        args.shards.to_string(),
        args.ues.to_string(),
        report.processed.to_string(),
        engine_batch,
        format!("{preds_per_sec:.0}"),
        us(report.p50_ns),
        us(report.p95_ns),
        us(report.p99_ns),
        report
            .mae_mbps
            .map(|m| format!("{m:.1}"))
            .unwrap_or_else(|| "-".into()),
    ]);

    // Offline batched-decoder sweep: the same histories decoded at batch
    // sizes 1..16, one summary row per size. Output is bit-identical across
    // sizes (asserted by the workspace `serving` test); this measures the
    // weight-reuse payoff alone.
    let mut decoder_speedup: Option<f64> = None;
    if args.model == ModelChoice::Seq2Seq && args.chaos.is_none() {
        let served = registry.current();
        let params = *served
            .regressor
            .seq2seq_params()
            .expect("seq2seq run serves a seq2seq model");
        let spec = *served.regressor.spec().expect("seq2seq model has a spec");
        let seqs = lumos5g::build_sequences(&data, &spec, params.input_len, 1, params.stride);
        let cap = if args.quick { 512 } else { 2048 };
        let histories: Vec<&[Vec<f64>]> =
            seqs.inputs.iter().take(cap).map(|h| h.as_slice()).collect();
        assert!(!histories.is_empty(), "campaign produced no sequences");
        // Warm pass so first-touch page faults don't bill to batch=1.
        served
            .regressor
            .predict_sequence_batch(&histories[..histories.len().min(32)])
            .expect("decoder warm-up failed");
        let mut rate_b1 = 0.0f64;
        let mut rate_b8_plus = 0.0f64;
        for batch in [1usize, 2, 4, 8, 16] {
            let started = Instant::now();
            for chunk in histories.chunks(batch) {
                served
                    .regressor
                    .predict_sequence_batch(chunk)
                    .expect("batched decode failed");
            }
            let rate = histories.len() as f64 / started.elapsed().as_secs_f64();
            if batch == 1 {
                rate_b1 = rate;
            }
            if batch >= 8 {
                rate_b8_plus = rate_b8_plus.max(rate);
            }
            summary.row(&[
                "seq2seq-decode".to_string(),
                "-".to_string(),
                "-".to_string(),
                histories.len().to_string(),
                batch.to_string(),
                format!("{rate:.0}"),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
        }
        let speedup = rate_b8_plus / rate_b1.max(1e-9);
        eprintln!("batched decoder speedup at batch>=8: {speedup:.2}x over batch=1");
        decoder_speedup = Some(speedup);
    }
    summary.print();

    // Chaos-run throughput is not the headline number: keep the committed
    // fault-free artifacts intact and save only the chaos counters above.
    if args.chaos.is_none() {
        summary
            .save_csv(Path::new("results/serving.csv"))
            .expect("write results/serving.csv");
        shard_table
            .save_csv(Path::new("results/serving_shards.csv"))
            .expect("write results/serving_shards.csv");
        eprintln!("saved results/serving.csv and results/serving_shards.csv");
    }

    // Supervisor respawns and fallback work make the throughput targets
    // meaningless under chaos, and quick runs are smoke tests; the contract
    // assertions above are the gate there.
    if !args.quick && args.chaos.is_none() {
        if args.model == ModelChoice::Gdbt && preds_per_sec < 100_000.0 {
            eprintln!("WARNING: below the 100k predictions/sec target ({preds_per_sec:.0}/s)");
            std::process::exit(1);
        }
        if let Some(speedup) = decoder_speedup {
            if speedup < 2.0 {
                eprintln!("WARNING: batched decoder below the 2x target ({speedup:.2}x)");
                std::process::exit(1);
            }
        }
    }
}
