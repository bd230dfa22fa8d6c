//! Ablation studies for the design choices DESIGN.md calls out.

use super::context::Context;
use super::save_result;
use crate::table::TableWriter;
use lumos5g::features::{FeatureSet, FeatureSpec};
use lumos5g::prelude::*;
use lumos5g::tabular::build_tabular;
use lumos5g_ml::{train_test_split, GbdtConfig, GbdtRegressor};
use lumos5g_net::{BulkSession, TcpConfig};
use lumos5g_sim::{quality, run_campaign, CampaignConfig, MobilityMode};
use std::fmt::Write as _;

/// §3.1 ablation: 1 vs 8 parallel TCP connections on a saturated link.
pub fn tcp_conns(_ctx: &mut Context) -> String {
    let mut t = TableWriter::new(
        "Ablation: parallel TCP connections vs goodput on a 2 Gbps link",
        &["connections", "steady goodput (Mbps)", "utilization %"],
    );
    for conns in [1usize, 2, 4, 8, 16] {
        let cfg = TcpConfig {
            connections: conns,
            ..TcpConfig::iperf_default()
        };
        let mut s = BulkSession::new(cfg, 7);
        for _ in 0..10 {
            s.step_second(2_000.0);
        }
        let mut acc = 0.0;
        for _ in 0..30 {
            acc += s.step_second(2_000.0);
        }
        let g = acc / 30.0;
        t.row(&[
            format!("{conns}"),
            format!("{g:.0}"),
            format!("{:.1}", g / 2_000.0 * 100.0),
        ]);
    }
    save_result("ablate_tcp_conns.csv", t.to_csv());
    t.render()
}

/// §3.1 ablation: pixelization zoom level vs prediction error.
///
/// Re-runs the L-feature GDBT with coordinates pixelized at different zoom
/// levels (and raw noisy GPS as the no-pixelization extreme).
pub fn pixelization(ctx: &mut Context) -> String {
    let area = ctx.airport_area();
    let cfg = CampaignConfig {
        passes_per_trajectory: ctx.scale.passes(),
        mode: MobilityMode::walking(),
        base_seed: ctx.seed ^ 0x77,
        bad_gps_fraction: 0.0,
        ..Default::default()
    };
    let raw = run_campaign(&area, &cfg);

    let gbdt = ctx.scale.gbdt();
    let mut t = TableWriter::new(
        "Ablation: pixelization zoom level vs GDBT(L) MAE (Airport)",
        &["coordinates", "MAE (Mbps)", "RMSE (Mbps)"],
    );
    for (label, zoom) in [
        ("raw noisy GPS", None),
        ("zoom 14 (~9 m px)", Some(14u8)),
        ("zoom 17 (~1 m px, paper)", Some(17)),
        ("zoom 20 (~0.1 m px)", Some(20)),
    ] {
        let data = match zoom {
            None => {
                // Skip pixelization: snapped == raw reported position.
                let (mut d, _) = quality::apply(&raw, &area.frame, &Default::default());
                for r in &mut d.records {
                    let p = area.frame.to_local(lumos5g_geo::LatLon::new(r.lat, r.lon));
                    // Use raw local coords in place of pixel indices.
                    r.pixel_x = (p.x * 10.0) as i64;
                    r.pixel_y = (p.y * 10.0) as i64;
                }
                d
            }
            Some(z) => {
                let qc = quality::QualityConfig {
                    zoom: z,
                    ..Default::default()
                };
                quality::apply(&raw, &area.frame, &qc).0
            }
        };
        let out = regression_eval(&data, FeatureSet::L, &ModelKind::Gdbt(gbdt), 1).expect("eval");
        t.row(&[
            label.into(),
            format!("{:.0}", out.mae),
            format!("{:.0}", out.rmse),
        ]);
    }
    save_result("ablate_pixelization.csv", t.to_csv());
    t.render()
}

/// Congestion-control ablation: CUBIC (Linux default, what the paper's
/// iPerf ran) vs Reno AIMD across link rates — CUBIC's faster ramp matters
/// on the high-BDP mmWave path.
pub fn congestion_control(_ctx: &mut Context) -> String {
    use lumos5g_net::CongestionControl;
    let mut t = TableWriter::new(
        "Ablation: congestion control vs utilization (8 conns, 30 s steady)",
        &["capacity (Mbps)", "CUBIC goodput", "Reno goodput"],
    );
    for cap in [200.0f64, 800.0, 2_000.0] {
        let run = |cc: CongestionControl| -> f64 {
            let cfg = TcpConfig {
                cc,
                ..TcpConfig::iperf_default()
            };
            let mut s = BulkSession::new(cfg, 21);
            for _ in 0..10 {
                s.step_second(cap);
            }
            (0..30).map(|_| s.step_second(cap)).sum::<f64>() / 30.0
        };
        t.row(&[
            format!("{cap:.0}"),
            format!("{:.0}", run(CongestionControl::Cubic)),
            format!("{:.0}", run(CongestionControl::Reno)),
        ]);
    }
    save_result("ablate_congestion_control.csv", t.to_csv());
    t.render()
}

/// §6.1 ablation: GDBT hyperparameters (estimators × depth).
pub fn gbdt_size(ctx: &mut Context) -> String {
    let data = ctx.airport_walk();
    let spec = FeatureSpec::new(FeatureSet::LM);
    let td = build_tabular(&data, &spec);
    let (tr, te) = train_test_split(td.len(), 0.7, 1);
    let train = td.select(&tr);
    let test = td.select(&te);

    let mut t = TableWriter::new(
        "Ablation: GDBT size vs MAE (Airport, L+M)",
        &["estimators", "depth", "lr", "MAE (Mbps)"],
    );
    for (n, depth, lr) in [
        (50usize, 4usize, 0.2),
        (200, 6, 0.1),
        (500, 6, 0.05),
        (1000, 8, 0.02),
    ] {
        let cfg = GbdtConfig {
            n_estimators: n,
            max_depth: depth,
            learning_rate: lr,
            min_samples_leaf: 5,
            subsample: 0.8,
            seed: 0,
        };
        let model = GbdtRegressor::fit(&train.xs, &train.ys, &cfg);
        let mae = lumos5g_ml::mae(&test.ys, &model.predict(&test.xs));
        t.row(&[
            format!("{n}"),
            format!("{depth}"),
            format!("{lr}"),
            format!("{mae:.0}"),
        ]);
    }
    save_result("ablate_gbdt_size.csv", t.to_csv());
    t.render()
}

/// Early-stopping study: validation-monitored GDBT vs fixed round counts.
pub fn early_stopping(ctx: &mut Context) -> String {
    let data = ctx.airport_walk();
    let spec = FeatureSpec::new(FeatureSet::LM);
    let td = build_tabular(&data, &spec);
    let (tr, te) = train_test_split(td.len(), 0.7, 1);
    // Carve a validation fold out of the training split.
    let val: Vec<usize> = tr.iter().copied().step_by(5).collect();
    let fit: Vec<usize> = tr.iter().copied().filter(|i| !val.contains(i)).collect();
    let train = td.select(&fit);
    let valid = td.select(&val);
    let test = td.select(&te);

    let cfg = GbdtConfig {
        n_estimators: 600,
        max_depth: 6,
        learning_rate: 0.08,
        min_samples_leaf: 5,
        subsample: 0.8,
        seed: 0,
    };
    let (model, curve) =
        GbdtRegressor::fit_with_validation(&train.xs, &train.ys, &valid.xs, &valid.ys, &cfg, 25);
    let mae_es = lumos5g_ml::mae(&test.ys, &model.predict(&test.xs));

    let mut t = TableWriter::new(
        "Ablation: GDBT early stopping (validation-monitored) vs fixed rounds",
        &["variant", "trees", "test MAE (Mbps)"],
    );
    t.row(&[
        "early stopping (patience 25)".into(),
        format!("{}", model.n_trees()),
        format!("{mae_es:.0}"),
    ]);
    for n in [50usize, 200, 600] {
        let m = GbdtRegressor::fit(
            &train.xs,
            &train.ys,
            &GbdtConfig {
                n_estimators: n,
                ..cfg
            },
        );
        let mae = lumos5g_ml::mae(&test.ys, &m.predict(&test.xs));
        t.row(&[
            format!("fixed {n} rounds"),
            format!("{n}"),
            format!("{mae:.0}"),
        ]);
    }
    save_result("ablate_early_stopping.csv", t.to_csv());
    format!(
        "{}\nvalidation RMSE curve: start {:.0} → best {:.0} Mbps over {} rounds\n",
        t.render(),
        curve.first().copied().unwrap_or(f64::NAN),
        curve.iter().cloned().fold(f64::INFINITY, f64::min),
        curve.len()
    )
}

/// §5.2 ablation: Seq2Seq history length.
pub fn seq2seq_history(ctx: &mut Context) -> String {
    let data = ctx.airport_walk();
    let mut t = TableWriter::new(
        "Ablation: Seq2Seq input history length vs MAE (Airport, L+M)",
        &["input_len", "MAE (Mbps)", "RMSE (Mbps)"],
    );
    for input_len in [5usize, 10, 20] {
        let mut p = ctx.scale.seq2seq();
        p.input_len = input_len;
        let out = regression_eval(&data, FeatureSet::LM, &ModelKind::Seq2Seq(p), 1);
        match out {
            Ok(o) => t.row(&[
                format!("{input_len}"),
                format!("{:.0}", o.mae),
                format!("{:.0}", o.rmse),
            ]),
            Err(e) => t.row(&[format!("{input_len}"), e.clone(), e]),
        }
    }
    save_result("ablate_seq2seq_history.csv", t.to_csv());
    t.render()
}

/// Handoff-hysteresis ablation: margin vs handoff rate and throughput
/// variability.
pub fn hysteresis(ctx: &mut Context) -> String {
    let area = ctx.intersection_area();
    let mut t = TableWriter::new(
        "Ablation: handoff hysteresis vs handoff rate / throughput CV (Intersection)",
        &[
            "hysteresis (dB)",
            "horiz. HO / min",
            "vert. HO / min",
            "mean thpt",
            "CV %",
        ],
    );
    for hyst in [0.0f64, 1.5, 3.0, 6.0, 9.0] {
        let cfg = CampaignConfig {
            passes_per_trajectory: 2,
            mode: MobilityMode::walking(),
            base_seed: ctx.seed ^ 0x99,
            bad_gps_fraction: 0.0,
            handoff: lumos5g_net::HandoffConfig {
                hysteresis_db: hyst,
                ..Default::default()
            },
            ..Default::default()
        };
        let ds = run_campaign(&area, &cfg);
        let n = ds.len() as f64;
        let h: usize = ds.records.iter().filter(|r| r.horizontal_handoff).count();
        let v: usize = ds.records.iter().filter(|r| r.vertical_handoff).count();
        let thpt: Vec<f64> = ds.records.iter().map(|r| r.throughput_mbps).collect();
        let mean = lumos5g_stats::mean(&thpt).expect("non-empty");
        let cv = lumos5g_stats::coefficient_of_variation(&thpt).expect("non-empty");
        t.row(&[
            format!("{hyst}"),
            format!("{:.2}", h as f64 / n * 60.0),
            format!("{:.2}", v as f64 / n * 60.0),
            format!("{mean:.0}"),
            format!("{:.0}", cv * 100.0),
        ]);
    }
    save_result("ablate_hysteresis.csv", t.to_csv());
    t.render()
}

/// Run every ablation.
pub fn all(ctx: &mut Context) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", tcp_conns(ctx));
    let _ = writeln!(out, "{}", congestion_control(ctx));
    let _ = writeln!(out, "{}", pixelization(ctx));
    let _ = writeln!(out, "{}", gbdt_size(ctx));
    let _ = writeln!(out, "{}", early_stopping(ctx));
    let _ = writeln!(out, "{}", seq2seq_history(ctx));
    let _ = writeln!(out, "{}", hysteresis(ctx));
    out
}
