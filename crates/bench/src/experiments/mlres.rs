//! §6 evaluation experiments: Tables 7–9, Figs 16, 22, 23, the §6.2
//! transferability analysis and the App A.4 4G-vs-5G comparison.

use super::context::Context;
use super::save_result;
use crate::table::TableWriter;
use lumos5g::features::FeatureSpec;
use lumos5g::predictor::fit_seq2seq;
use lumos5g::prelude::*;
use lumos5g::tabular::build_tabular;
use lumos5g::transfer::panel_transfer;
use lumos5g_ml::train_test_split;
use lumos5g_sim::Dataset;
use std::fmt::Write as _;

/// The per-area datasets of Tables 7/8, in the paper's column order.
fn areas(ctx: &mut Context) -> Vec<(&'static str, Dataset, bool)> {
    vec![
        ("4-way Intersection", ctx.intersection_walk(), true),
        ("1300m Loop", ctx.loop_all(), false),
        ("Airport", ctx.airport_walk(), true),
    ]
}

/// Global dataset appropriate for a feature set: T-based sets can only use
/// areas with known panel locations (paper: "all areas with known 5G panel
/// locations").
fn global_for(ctx: &mut Context, set: FeatureSet) -> Dataset {
    ctx.global(!set.needs_panels())
}

const TABLE_SETS: [FeatureSet; 5] = [
    FeatureSet::L,
    FeatureSet::LM,
    FeatureSet::TM,
    FeatureSet::LMC,
    FeatureSet::TMC,
];

/// Which of the two headline tables to render.
#[derive(Clone, Copy, PartialEq)]
enum Headline {
    Classification,
    Regression,
}

/// Shared driver for Tables 7 and 8 (one trained model feeds both; results
/// are cached in the context so running both tables trains each model once).
fn headline_table(ctx: &mut Context, which: Headline) -> String {
    let gbdt = ModelKind::Gdbt(ctx.scale.gbdt());
    let s2s = ModelKind::Seq2Seq(ctx.scale.seq2seq());
    let mut header = vec!["feature set".to_string()];
    let area_list = areas(ctx);
    for (name, _, _) in &area_list {
        header.push(format!("{name} GDBT"));
        header.push(format!("{name} S2S"));
    }
    header.push("Global GDBT".into());
    header.push("Global S2S".into());
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let (title, file) = match which {
        Headline::Classification => (
            "Table 7: classification (wF1|low-recall)",
            "table7_classification.csv",
        ),
        Headline::Regression => (
            "Table 8: regression (MAE|RMSE, Mbps)",
            "table8_regression.csv",
        ),
    };
    let mut t = TableWriter::new(title, &hdr);

    let fmt = |out: Result<
        (
            lumos5g::eval::RegressionOutcome,
            lumos5g::eval::ClassificationOutcome,
        ),
        String,
    >|
     -> String {
        match out {
            Ok((reg, clf)) => match which {
                Headline::Classification => format!("{:.2}|{:.2}", clf.weighted_f1, clf.low_recall),
                Headline::Regression => format!("{:.0}|{:.0}", reg.mae, reg.rmse),
            },
            Err(_) => "err".into(),
        }
    };

    for set in TABLE_SETS {
        let mut row = vec![set.label().to_string()];
        for (name, data, panels_known) in &area_list {
            for model in [&gbdt, &s2s] {
                row.push(if set.needs_panels() && !panels_known {
                    "-".into()
                } else {
                    fmt(ctx.eval_cached(name, data, set, model))
                });
            }
        }
        let g = global_for(ctx, set);
        let gkey = if set.needs_panels() {
            "global_t"
        } else {
            "global"
        };
        for model in [&gbdt, &s2s] {
            row.push(fmt(ctx.eval_cached(gkey, &g, set, model)));
        }
        t.row(&row);
    }
    save_result(file, t.to_csv());
    t.render()
}

/// Table 7: classification — weighted-F1 | low-class recall per area ×
/// feature set × {GDBT, Seq2Seq}.
pub fn table7(ctx: &mut Context) -> String {
    headline_table(ctx, Headline::Classification)
}

/// Table 8: regression — MAE | RMSE per area × feature set × model.
pub fn table8(ctx: &mut Context) -> String {
    headline_table(ctx, Headline::Regression)
}

/// Table 9: Global comparison with baselines (regression + classification).
pub fn table9(ctx: &mut Context) -> String {
    let models: Vec<(&str, ModelKind)> = vec![
        ("KNN", ModelKind::Knn { k: 5 }),
        ("RF", ModelKind::RandomForest(Default::default())),
        ("OK", ModelKind::Kriging { neighbors: 16 }),
        ("GDBT", ModelKind::Gdbt(ctx.scale.gbdt())),
        ("Seq2Seq", ModelKind::Seq2Seq(ctx.scale.seq2seq())),
    ];
    let mut out = String::new();

    let mut t_reg = TableWriter::new(
        "Table 9 (regression, Global): MAE|RMSE",
        &["feature set", "KNN", "RF", "OK", "GDBT", "Seq2Seq"],
    );
    let mut t_clf = TableWriter::new(
        "Table 9 (classification, Global): weighted-F1",
        &["feature set", "KNN", "RF", "OK", "GDBT", "Seq2Seq"],
    );
    for set in TABLE_SETS {
        let g = global_for(ctx, set);
        let gkey = if set.needs_panels() {
            "global_t"
        } else {
            "global"
        };
        let mut row_reg = vec![set.label().to_string()];
        let mut row_clf = vec![set.label().to_string()];
        for (name, model) in &models {
            // Kriging is location-interpolation only (Table 9's "NA").
            if *name == "OK" && set != FeatureSet::L {
                row_reg.push("NA".into());
                row_clf.push("NA".into());
                continue;
            }
            match ctx.eval_cached(gkey, &g, set, model) {
                Ok((reg, clf)) => {
                    row_reg.push(format!("{:.0}|{:.0}", reg.mae, reg.rmse));
                    row_clf.push(format!("{:.2}", clf.weighted_f1));
                }
                Err(_) => {
                    row_reg.push("err".into());
                    row_clf.push("err".into());
                }
            }
        }
        t_reg.row(&row_reg);
        t_clf.row(&row_clf);
    }
    save_result("table9_regression.csv", t_reg.to_csv());
    let _ = writeln!(out, "{}", t_reg.render());
    save_result("table9_classification.csv", t_clf.to_csv());
    let _ = writeln!(out, "{}", t_clf.render());

    // History-based Harmonic Mean (bottom block of Table 9).
    let g = ctx.global(true);
    let hm = ModelKind::HarmonicMean { window: 5 };
    let reg = regression_eval(&g, FeatureSet::L, &hm, 1).expect("hm eval");
    let clf = classification_eval(&g, FeatureSet::L, &hm, 1).expect("hm eval");
    let _ = writeln!(
        out,
        "Harmonic Mean (past throughput): MAE {:.0} | RMSE {:.0} | wF1 {:.2}",
        reg.mae, reg.rmse, clf.weighted_f1
    );
    out
}

/// Fig 16: sample regression traces with ±200 Mbps bands (Global, L+M+C).
pub fn fig16(ctx: &mut Context) -> String {
    let g = ctx.global(true);
    let spec = FeatureSpec::new(FeatureSet::LMC);
    let td = build_tabular(&g, &spec);
    let (tr, te) = train_test_split(td.len(), 0.7, 1);
    let train = td.select(&tr);
    let test = td.select(&te.iter().copied().take(300).collect::<Vec<_>>());

    let gbdt = ctx.gbdt_or_load(
        "fig16_gdbt_lmc",
        FeatureSet::LMC,
        &ctx.scale.gbdt(),
        &train.xs,
        &train.ys,
    );
    let pred = gbdt.predict(&test.xs);

    let mut csv = String::from("idx,truth,gdbt\n");
    for (i, (t, p)) in test.ys.iter().zip(&pred).enumerate() {
        let _ = writeln!(csv, "{i},{t:.0},{p:.0}");
    }
    save_result("fig16_regression_traces.csv", csv);

    let within: usize = test
        .ys
        .iter()
        .zip(&pred)
        .filter(|(t, p)| (*t - *p).abs() <= 200.0)
        .count();
    format!(
        "=== Fig 16: GDBT L+M+C sample predictions (Global) ===\n\
         test samples plotted: {}   within ±200 Mbps band: {:.1}%\n\
         (per-sample series in results/fig16_regression_traces.csv)\n",
        test.ys.len(),
        within as f64 / test.ys.len() as f64 * 100.0
    )
}

/// Fig 22: GDBT global feature importance per feature-group combination.
pub fn fig22(ctx: &mut Context) -> String {
    let mut out = String::new();
    let gbdt = ctx.scale.gbdt();
    for set in [
        FeatureSet::L,
        FeatureSet::LM,
        FeatureSet::TM,
        FeatureSet::LMC,
        FeatureSet::TMC,
    ] {
        let g = global_for(ctx, set);
        let spec = FeatureSpec::new(set);
        let td = build_tabular(&g, &spec);
        // Importance estimates stabilize long before the full dataset size;
        // cap training rows to keep the sweep fast.
        let cap = 20_000.min(td.len());
        let idx: Vec<usize> = (0..cap).map(|k| k * td.len() / cap).collect();
        let sub = td.select(&idx);
        let model = ctx.gbdt_or_load(
            &format!("fig22_gdbt_{}", set.label()),
            set,
            &gbdt,
            &sub.xs,
            &sub.ys,
        );
        let imp: Vec<(String, f64)> = spec
            .feature_names()
            .into_iter()
            .zip(model.feature_importance())
            .collect();
        let mut t = TableWriter::new(
            &format!("Fig 22: feature importance — {}", set.label()),
            &["feature", "importance %"],
        );
        let mut sorted = imp.clone();
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, v) in sorted {
            t.row(&[name, format!("{:.1}", v * 100.0)]);
        }
        save_result(
            format!("fig22_importance_{}.csv", set.label().replace('+', "")),
            t.to_csv(),
        );
        let _ = writeln!(out, "{}", t.render());
    }
    out
}

/// Fig 23: per-area baseline comparison (weighted-F1).
pub fn fig23(ctx: &mut Context) -> String {
    let gbdt = ModelKind::Gdbt(ctx.scale.gbdt());
    let s2s = ModelKind::Seq2Seq(ctx.scale.seq2seq());
    let models: Vec<(&str, FeatureSet, ModelKind)> = vec![
        (
            "OK (L)",
            FeatureSet::L,
            ModelKind::Kriging { neighbors: 16 },
        ),
        ("KNN (L)", FeatureSet::L, ModelKind::Knn { k: 5 }),
        (
            "RF (L)",
            FeatureSet::L,
            ModelKind::RandomForest(Default::default()),
        ),
        ("GDBT (L+M)", FeatureSet::LM, gbdt.clone()),
        ("GDBT (L+M+C)", FeatureSet::LMC, gbdt),
        ("Seq2Seq (L+M)", FeatureSet::LM, s2s.clone()),
        ("Seq2Seq (L+M+C)", FeatureSet::LMC, s2s),
    ];
    let mut t = TableWriter::new(
        "Fig 23: weighted-F1 per area, Lumos5G vs baselines",
        &["model", "Intersection", "Airport", "Loop"],
    );
    let datasets = [ctx.intersection_walk(), ctx.airport_walk(), ctx.loop_all()];
    let keys = ["4-way Intersection", "Airport", "1300m Loop"];
    for (name, set, model) in models {
        let mut row = vec![name.to_string()];
        for (key, data) in keys.iter().zip(&datasets) {
            row.push(match ctx.eval_cached(key, data, set, &model) {
                Ok((_, o)) => format!("{:.2}", o.weighted_f1),
                Err(_) => "err".into(),
            });
        }
        t.row(&row);
    }
    save_result("fig23_baselines_per_area.csv", t.to_csv());
    t.render()
}

/// §6.2 transferability: T+M GDBT trained on the Airport North panel,
/// tested on the South panel.
pub fn transfer(ctx: &mut Context) -> String {
    let data = ctx.airport_walk();
    let gbdt = ctx.scale.gbdt();
    // North panel has id 2, South id 1 (see `lumos5g_sim::airport`).
    let r = panel_transfer(&data, 2, 1, &gbdt, 25.0).expect("transfer eval");
    let control = panel_transfer(&data, 1, 1, &gbdt, 25.0)
        .map(|c| c.overall_f1)
        .unwrap_or(f64::NAN);
    let mut t = TableWriter::new(
        "Transferability (§6.2): T+M model, train North → test South",
        &["metric", "value"],
    );
    t.row(&["overall weighted-F1".into(), format!("{:.2}", r.overall_f1)]);
    t.row(&[
        format!("weighted-F1 within {:.0} m", r.near_radius_m),
        format!("{:.2}", r.near_f1),
    ]);
    t.row(&["test samples".into(), format!("{}", r.n_test)]);
    t.row(&["near-field samples".into(), format!("{}", r.n_near)]);
    t.row(&["same-panel control wF1".into(), format!("{control:.2}")]);
    save_result("transfer.csv", t.to_csv());
    t.render()
}

/// App A.4: 4G vs 5G predictability with location-only models.
///
/// The 4G side is the same walk with throughput replaced by the LTE model
/// at each true position — the "second phone on 4G" of the paper's setup.
pub fn a4(ctx: &mut Context) -> String {
    let area = ctx.loop_area();
    let five_g = ctx.loop_walk();
    // Derive the 4G trace: same positions/passes, LTE throughput.
    let mut four_g = five_g.clone();
    let mut fading = lumos5g_radio::FastFading::new(0x46, 0.8, 1.2);
    for r in &mut four_g.records {
        let pos = lumos5g_geo::Point2::new(r.true_x_m, r.true_y_m);
        r.throughput_mbps = area.lte.throughput_mbps(pos, fading.next_db());
        r.on_5g = false;
    }

    let run = |data: &Dataset, model: &ModelKind| -> f64 {
        regression_eval(data, FeatureSet::L, model, 1)
            .map(|o| o.mae)
            .unwrap_or(f64::NAN)
    };
    let knn = ModelKind::Knn { k: 5 };
    let ok = ModelKind::Kriging { neighbors: 16 };
    let rf = ModelKind::RandomForest(Default::default());

    let mut t = TableWriter::new(
        "App A.4: location-only MAE on 4G vs 5G traces (Loop, walking)",
        &["model", "4G MAE (Mbps)", "5G MAE (Mbps)", "ratio 5G/4G"],
    );
    for (name, model) in [("KNN", &knn), ("OK", &ok), ("RF", &rf)] {
        let m4 = run(&four_g, model);
        let m5 = run(&five_g, model);
        t.row(&[
            name.into(),
            format!("{m4:.1}"),
            format!("{m5:.1}"),
            format!("{:.1}x", m5 / m4),
        ]);
    }
    save_result("a4_4g_vs_5g.csv", t.to_csv());
    t.render()
}

/// Extension: the "throughput map as a model" (Fig 3c) — hierarchical
/// cell/direction lookup vs the learned models, per area.
pub fn map_model(ctx: &mut Context) -> String {
    use lumos5g::map_model::map_model_eval;
    let gbdt = ModelKind::Gdbt(ctx.scale.gbdt());
    let mut t = TableWriter::new(
        "Extension: map-lookup predictor vs GDBT (MAE, Mbps; pass-level split)",
        &["area", "map (dir-blind)", "map (dir-aware)", "GDBT L+M"],
    );
    for (name, data) in [
        ("Intersection", ctx.intersection_walk()),
        ("Airport", ctx.airport_walk()),
        ("Loop", ctx.loop_all()),
    ] {
        let blind = map_model_eval(&data, false, 1).map(|(m, _, _)| m);
        let aware = map_model_eval(&data, true, 1).map(|(m, _, _)| m);
        let learned = ctx
            .eval_cached(name, &data, FeatureSet::LM, &gbdt)
            .map(|(r, _)| r.mae);
        let f = |v: Result<f64, String>| v.map_or("err".into(), |m| format!("{m:.0}"));
        t.row(&[name.into(), f(blind), f(aware), f(learned)]);
    }
    save_result("map_model.csv", t.to_csv());
    t.render()
}

/// §8.1 extension: sensitivity of the models to inaccuracies in input
/// feature values (the paper lists this as future work).
///
/// Train GDBT L+M on clean features, then evaluate with extra sensor noise
/// injected at inference time: GPS position noise (reflected through
/// re-pixelization) and compass noise.
pub fn sensitivity(ctx: &mut Context) -> String {
    use lumos5g_geo::normalize_deg;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let data = ctx.airport_walk();
    let area = ctx.airport_area();
    let spec = FeatureSpec::new(FeatureSet::LM);
    let td = build_tabular(&data, &spec);
    let (tr, te) = train_test_split(td.len(), 0.7, 1);
    let train = td.select(&tr);
    let model = ctx.gbdt_or_load(
        "sensitivity_gdbt_lm",
        FeatureSet::LM,
        &ctx.scale.gbdt(),
        &train.xs,
        &train.ys,
    );

    // Re-derive noisy test records rather than perturbing extracted
    // features, so pixelization reacts to position noise realistically.
    let mut t = TableWriter::new(
        "Extension (§8.1): GDBT L+M MAE under inference-time sensor noise",
        &[
            "extra GPS σ (m)",
            "extra compass σ (°)",
            "MAE (Mbps)",
            "vs clean",
        ],
    );
    let mut clean_mae = None;
    for (gps_sigma, compass_sigma) in [
        (0.0, 0.0),
        (2.0, 0.0),
        (5.0, 0.0),
        (10.0, 0.0),
        (0.0, 15.0),
        (0.0, 45.0),
        (5.0, 15.0),
        (10.0, 45.0),
    ] {
        let mut rng =
            StdRng::seed_from_u64(0xFEED ^ (gps_sigma as u64) << 8 ^ compass_sigma as u64);
        let gauss = move |rng: &mut StdRng| -> f64 {
            let u1: f64 = rng.gen::<f64>().max(1e-300);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let mut noisy = data.clone();
        for r in &mut noisy.records {
            if gps_sigma > 0.0 {
                let p = lumos5g_geo::Point2::new(
                    r.snapped_x_m + gps_sigma * gauss(&mut rng),
                    r.snapped_y_m + gps_sigma * gauss(&mut rng),
                );
                let px = area.frame.to_latlon(p).to_pixel(lumos5g_geo::ZOOM_PAPER);
                let snapped = area.frame.to_local(px.center_latlon());
                r.pixel_x = px.x;
                r.pixel_y = px.y;
                r.snapped_x_m = snapped.x;
                r.snapped_y_m = snapped.y;
            }
            if compass_sigma > 0.0 {
                r.compass_deg = normalize_deg(r.compass_deg + compass_sigma * gauss(&mut rng));
            }
        }
        let ntd = build_tabular(&noisy, &spec);
        let test = ntd.select(&te);
        let mae = lumos5g_ml::mae(&test.ys, &model.predict(&test.xs));
        if clean_mae.is_none() {
            clean_mae = Some(mae);
        }
        t.row(&[
            format!("{gps_sigma}"),
            format!("{compass_sigma}"),
            format!("{mae:.0}"),
            format!("{:+.0}%", (mae / clean_mae.expect("set") - 1.0) * 100.0),
        ]);
    }
    save_result("sensitivity.csv", t.to_csv());
    t.render()
}

/// §8.1 extension: temporal generalizability — train on one campaign, test
/// on a later one over the same area (same environment, fresh passes), and
/// on a "seasonal" variant whose environment gained foliage obstacles.
pub fn temporal(ctx: &mut Context) -> String {
    use lumos5g_radio::Obstacle;
    use lumos5g_sim::{quality, run_campaign, CampaignConfig, MobilityMode};

    let gbdt = ctx.scale.gbdt();
    let area = ctx.airport_area();
    let campaign = |area: &lumos5g_sim::Area, seed: u64| {
        let cfg = CampaignConfig {
            passes_per_trajectory: ctx.scale.passes(),
            mode: MobilityMode::walking(),
            base_seed: seed,
            bad_gps_fraction: 0.0,
            max_duration_s: 500,
            ..Default::default()
        };
        let raw = run_campaign(area, &cfg);
        quality::apply(&raw, &area.frame, &Default::default()).0
    };

    let month1 = campaign(&area, 0xD1);
    let month2 = campaign(&area, 0xD2);

    // Seasonal variant: summer foliage appears along the corridor. The
    // campaign seed matches `month2` so the comparison isolates the
    // environment change from pass-to-pass randomness.
    let mut seasonal_area = area.clone();
    for (min, max) in [
        ((-7.0, 80.0), (0.0, 110.0)),
        ((0.5, 150.0), (8.0, 185.0)),
        ((-8.0, 250.0), (-1.0, 285.0)),
    ] {
        seasonal_area.field.obstacles.push(Obstacle::Aabb {
            min: lumos5g_geo::Point2::new(min.0, min.1),
            max: lumos5g_geo::Point2::new(max.0, max.1),
            loss_db: 12.0,
        });
    }
    let season = campaign(&seasonal_area, 0xD2);

    let spec = FeatureSpec::new(FeatureSet::LM);
    let tr = build_tabular(&month1, &spec);
    let model = ctx.gbdt_or_load("temporal_gdbt_lm", FeatureSet::LM, &gbdt, &tr.xs, &tr.ys);
    let eval = |d: &Dataset| -> (f64, f64) {
        let td = build_tabular(d, &spec);
        let p = model.predict(&td.xs);
        (lumos5g_ml::mae(&td.ys, &p), lumos5g_ml::rmse(&td.ys, &p))
    };

    let (m_self, r_self) = eval(&month1);
    let (m_next, r_next) = eval(&month2);
    let (m_seas, r_seas) = eval(&season);
    let mut t = TableWriter::new(
        "Extension (§8.1): temporal generalizability of a GDBT L+M model (Airport)",
        &["test campaign", "MAE (Mbps)", "RMSE (Mbps)"],
    );
    t.row(&[
        "same campaign (in-sample)".into(),
        format!("{m_self:.0}"),
        format!("{r_self:.0}"),
    ]);
    t.row(&[
        "later campaign, same environment".into(),
        format!("{m_next:.0}"),
        format!("{r_next:.0}"),
    ]);
    t.row(&[
        "later campaign + seasonal foliage".into(),
        format!("{m_seas:.0}"),
        format!("{r_seas:.0}"),
    ]);
    save_result("temporal.csv", t.to_csv());
    t.render()
}

/// Long-horizon Seq2Seq demo: MAE per future step (extension of Fig 15/16,
/// "arbitrary length of the predicted output sequence").
pub fn horizon(ctx: &mut Context) -> String {
    let data = ctx.airport_walk();
    let spec = FeatureSpec::new(FeatureSet::LM);
    let p = ctx.scale.seq2seq();
    let sd = lumos5g::tabular::build_sequences(&data, &spec, p.input_len, p.horizon, p.stride);
    if sd.len() < 40 {
        return "horizon: not enough sequences".into();
    }
    let (tr, te) = train_test_split(sd.len(), 0.7, 1);
    let test = sd.select(&te);
    let model = fit_seq2seq(&sd.select(&tr), &spec, &p, |m, train, p| {
        ctx.train_seq2seq("horizon_s2s", m, train, p)
    });
    let refs: Vec<&[Vec<f64>]> = test.inputs.iter().map(Vec::as_slice).collect();
    let horizons = model
        .predict_sequence_batch(&refs)
        .expect("build_sequences emits non-empty histories");
    let mut abs_err = vec![0.0f64; p.horizon];
    for (target, out) in test.targets.iter().zip(&horizons) {
        for (k, (&t, &o)) in target.iter().zip(out).enumerate() {
            abs_err[k] += (t - o).abs();
        }
    }
    let n = horizons.len();
    let mut t = TableWriter::new(
        "Seq2Seq multi-step horizon: MAE per future step (Airport, L+M)",
        &["step (s ahead)", "MAE (Mbps)"],
    );
    for (k, e) in abs_err.iter().enumerate() {
        t.row(&[format!("{}", k + 1), format!("{:.0}", e / n as f64)]);
    }
    save_result("horizon_mae.csv", t.to_csv());
    t.render()
}
