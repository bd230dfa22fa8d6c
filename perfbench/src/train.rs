//! `train-gdbt`: the Table 7/8 training step.
//!
//! Set-up generates the fixed 3-area training campaign. The timed loop then
//! repeats, for `--seconds`, the offline pipeline `repro` spends most of
//! its time in: `build_tabular` over the L+M+C feature set, a 70/30 split,
//! and std-scale fits of the GDBT regressor and the 3-class GDBT
//! classifier; `--seed` picks the boosting subsample. The held-out 30% is
//! scored afterwards. Single-row and 64-row predictions on it give the
//! workload's prediction cost, since nothing here goes through the engine.
//!
//! The host's speed drifts over seconds, so each fit is followed by a block
//! of timed predictions and each training step by more set-up repetitions:
//! each median then samples the whole run rather than one stretch of it.

use crate::data::{campaign, report_sim, std_gbdt, TRAINING_CAMPAIGN};
use crate::gen::{root_key, split};
use crate::trace::{cpu_delta_by_name, layer_totals, span_cost_ns, thread_cpu_ns, Recorder};
use crate::{median, out_dir, quantile, Args, Outcome};
use lumos5g::{build_tabular, FeatureSet, FeatureSpec, ThroughputClass, TrainedRegressor};
use lumos5g_ml::{
    mae, train_test_split, ClassificationReport, GbdtClassifier, GbdtRegressor, RegressionTree,
    TreeConfig,
};
use std::hint::black_box;
use std::time::Instant;

/// Set-up repetitions after each training step (the campaign takes ~0.1 s).
const SETUP_REPS_PER_STEP: usize = 4;
/// Seed of the 70/30 split. Fixed like the campaign: which rows are held
/// out moves the hold-out MAE by several percent.
const SPLIT_SEED: u64 = 0x5B17;
/// Held-out predictions timed per path (single-row and 64-row chunks) in
/// each block; a block follows each of a training step's two fits.
const PREDICTIONS_PER_BLOCK: usize = 75_000;
/// Rows per chunk on the batched prediction path.
const CHUNK: usize = 64;

/// Timed predictions on the held-out rows, pooled over training steps.
#[derive(Default)]
struct PredictionCost {
    /// Latency of one `predict_one` call, ms.
    single_ms: Vec<f64>,
    /// Latency of one 64-row `predict` call per row, ms.
    chunked_ms: Vec<f64>,
    cpu_ns: u64,
    same_bits: bool,
}

impl PredictionCost {
    /// Time one block of predictions; both paths must give `pred`'s bits.
    fn measure(&mut self, reg: GbdtRegressor, spec: FeatureSpec, xs: &[Vec<f64>], pred: &[f64]) {
        let cpu_before = thread_cpu_ns();
        let served = TrainedRegressor::Gdbt { model: reg, spec };
        for (x, y) in xs.iter().zip(pred).cycle().take(PREDICTIONS_PER_BLOCK) {
            let t = Instant::now();
            let got = black_box(served.predict_one(black_box(x)));
            self.single_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.same_bits &= got.map(f64::to_bits) == Some(y.to_bits());
        }
        let TrainedRegressor::Gdbt { model: reg, .. } = &served else {
            unreachable!("built above as GDBT")
        };
        let chunks = xs.chunks(CHUNK).zip(pred.chunks(CHUNK));
        for (xs, ys) in chunks.cycle().take(PREDICTIONS_PER_BLOCK / CHUNK) {
            let t = Instant::now();
            let got = black_box(reg.predict(black_box(xs)));
            self.chunked_ms
                .push(t.elapsed().as_secs_f64() * 1e3 / xs.len() as f64);
            self.same_bits &= bits(&got) == bits(ys);
        }
        self.cpu_ns += cpu_delta_by_name(&cpu_before, &thread_cpu_ns())
            .values()
            .sum::<u64>();
    }
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let [fit_key] = split(root_key(args.seed));
    let mut rec = Recorder::new(args.trace);

    let (data, sim) = campaign(TRAINING_CAMPAIGN);
    let mut setup_times = vec![process_start.elapsed().as_secs_f64()];
    report_sim(&mut out, data.len(), sim);

    // Timed: whole training steps until the budget is spent.
    let spec = FeatureSpec::new(FeatureSet::LMC);
    let cfg = std_gbdt(fit_key);
    let budget = Instant::now();
    let mut train_times = Vec::new();
    let mut cost = PredictionCost {
        same_bits: true,
        ..Default::default()
    };
    let mut first_pred: Option<Vec<f64>> = None;
    let mut deterministic = true;
    let (reg, cls, test, pred) = loop {
        let rep = train_times.len() as u64;
        let started = Instant::now();
        let td = rec.span("tabular.build", rep, |_| build_tabular(&data, &spec));
        let (tr, te) = train_test_split(td.len(), 0.7, SPLIT_SEED);
        let (train, test) = (td.select(&tr), td.select(&te));
        let reg = rec.span("gbdt.fit_reg", rep, |_| {
            GbdtRegressor::fit(&train.xs, &train.ys, &cfg)
        });
        let reg_s = started.elapsed().as_secs_f64();

        // Untimed: every repetition must fit the same model.
        let pred = reg.predict(&test.xs);
        match &first_pred {
            None => first_pred = Some(pred.clone()),
            Some(first) => deterministic &= bits(first) == bits(&pred),
        }
        cost.measure(reg.clone(), spec, &test.xs, &pred);

        let started = Instant::now();
        let cls = rec.span("gbdt.fit_cls", rep, |_| {
            GbdtClassifier::fit(&train.xs, &train.labels, ThroughputClass::COUNT, &cfg)
        });
        train_times.push(reg_s + started.elapsed().as_secs_f64());
        out.attempted += 2;

        // Untimed: set-up repeats and must rebuild the same campaign.
        for _ in 0..SETUP_REPS_PER_STEP {
            let t = Instant::now();
            let (again, _) = black_box(campaign(TRAINING_CAMPAIGN));
            setup_times.push(t.elapsed().as_secs_f64());
            deterministic &= again.records == data.records;
        }
        cost.measure(reg.clone(), spec, &test.xs, &pred);

        if budget.elapsed().as_secs_f64() >= args.seconds {
            if args.trace {
                out.set("tabular.rows", td.len() as f64);
                let tree_cfg = TreeConfig {
                    max_depth: cfg.max_depth,
                    min_samples_leaf: cfg.min_samples_leaf,
                    min_samples_split: cfg.min_samples_leaf * 2,
                    max_features: None,
                };
                let g: Vec<f64> = train.ys.iter().map(|y| -y).collect();
                let h = vec![1.0; g.len()];
                rec.span("tree.fit", rep, |_| {
                    black_box(RegressionTree::fit_gradients(
                        &train.xs, &g, &h, &tree_cfg, None,
                    ))
                });
            }
            break (reg, cls, test, pred);
        }
    };
    out.set("setup_s", median(&mut setup_times));
    out.set("train_s", median(&mut train_times));
    out.gate(deterministic, || {
        "repeated fits or campaigns disagree".into()
    });

    // Hold-out quality.
    let eval_started = Instant::now();
    rec.span("gbdt.eval", 0, |_| black_box(reg.predict(&test.xs)));
    let labels = rec.span("gbdt.eval", 1, |_| cls.predict(&test.xs));
    let eval_s = eval_started.elapsed().as_secs_f64();
    let finite = pred.iter().filter(|y| y.is_finite()).count();
    out.attempted += (pred.len() + labels.len()) as u64;
    out.failed += (pred.len() - finite) as u64;
    out.gate(finite == pred.len(), || {
        format!("{} non-finite hold-out predictions", pred.len() - finite)
    });
    let model_mae = mae(&test.ys, &pred);
    out.set("mae_mbps", model_mae);
    let report = ClassificationReport::from_labels(&test.labels, &labels, ThroughputClass::COUNT);
    out.set("wf1", report.weighted_f1);
    let (hm_truth, hm_pred) = TrainedRegressor::Harmonic { window: 5 }.eval(&data);
    let hm_mae = mae(&hm_truth, &hm_pred);
    out.set("hm_mae_mbps", hm_mae);
    out.gate(model_mae < hm_mae, || {
        format!("GDBT hold-out MAE {model_mae:.1} does not beat harmonic mean {hm_mae:.1}")
    });

    out.gate(cost.same_bits, || {
        "single-row or chunked predictions differ from the batch evaluation".into()
    });
    let predictions = cost.single_ms.len() + cost.chunked_ms.len() * CHUNK;
    out.set("p50_ms.lo", median(&mut cost.single_ms));
    out.set("p50_ms.hi", median(&mut cost.chunked_ms));
    out.set("p99_ms.lo", quantile(&mut cost.single_ms, 0.99));
    out.set("p99_ms.hi", quantile(&mut cost.chunked_ms, 0.99));
    out.set(
        "cpu_us_per_pred",
        cost.cpu_ns as f64 / 1e3 / predictions as f64,
    );

    if args.trace {
        let layers = layer_totals(rec.spans());
        let mean_s = |name: &str| {
            layers
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / t.calls as f64 / 1e9)
        };
        out.set("tabular.build_s", mean_s("tabular.build"));
        out.set("gbdt.fit_reg_s", mean_s("gbdt.fit_reg"));
        out.set("gbdt.fit_cls_s", mean_s("gbdt.fit_cls"));
        out.set("tree.fit_ms", mean_s("tree.fit") * 1e3);
        out.set("gbdt.eval_s", eval_s);
        out.set("gbdt.trees", reg.n_trees() as f64);
        out.set("gbdt.predict_ns", median(&mut cost.single_ms) * 1e6);
        let traced_ns = budget.elapsed().as_nanos() as f64;
        out.set(
            "trace.overhead_frac",
            rec.spans().len() as f64 * span_cost_ns() / traced_ns,
        );
        crate::print_layers(rec.spans().len(), &layers);
        if let Err(e) =
            rec.write_csv(&out_dir().join(format!("spans-train-gdbt-{}.csv", args.seed)))
        {
            eprintln!("cannot write spans: {e}");
        }
    }
    out
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}
