//! §4 impact-factor analysis experiments: Tables 4, 5, 10 and Figs 6–14,
//! 17–21.

use super::context::Context;
use super::save_result;
use crate::table::TableWriter;
use lumos5g::prelude::*;
use lumos5g_geo::GridIndex;
use lumos5g_sim::{congestion, Dataset};
use lumos5g_stats as stats;
use lumos5g_stats::htest;
use std::fmt::Write as _;

/// Throughput sample groups per grid cell, keeping cells with ≥ `min`
/// samples.
fn cell_groups(data: &Dataset, min: usize) -> Vec<Vec<f64>> {
    data.throughput_by_cell(&GridIndex::paper_map_grid())
        .into_values()
        .filter(|v| v.len() >= min)
        .collect()
}

/// Same, conditioned on the heading octant (the §4.2 direction treatment).
fn cell_dir_groups(data: &Dataset, min: usize) -> Vec<Vec<f64>> {
    data.throughput_by_cell_and_direction(&GridIndex::paper_map_grid())
        .into_values()
        .filter(|v| v.len() >= min)
        .collect()
}

/// Linear resample of a trace to `n` points (for pairwise Spearman between
/// passes of different durations).
fn resample(trace: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 2 && trace.len() >= 2);
    (0..n)
        .map(|i| {
            let pos = i as f64 / (n - 1) as f64 * (trace.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            trace[lo] + (pos - lo as f64) * (trace[hi] - trace[lo])
        })
        .collect()
}

/// Per-cell CV statistics: (mean%, std%, fraction ≥ 50%).
fn cv_stats(groups: &[Vec<f64>]) -> (f64, f64, f64) {
    let cvs: Vec<f64> = groups
        .iter()
        .filter_map(|g| stats::coefficient_of_variation(g).ok())
        .map(|cv| cv * 100.0)
        .collect();
    if cvs.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    let mean = stats::mean(&cvs).expect("non-empty");
    let std = stats::std_dev(&cvs).unwrap_or(0.0);
    let frac = cvs.iter().filter(|&&c| c >= 50.0).count() as f64 / cvs.len() as f64;
    (mean, std, frac)
}

/// Fraction of cells whose samples pass either normality test at α = 0.001
/// (the paper's criterion).
fn normality_fraction(groups: &[Vec<f64>]) -> f64 {
    let eligible: Vec<&Vec<f64>> = groups.iter().filter(|g| g.len() >= 20).collect();
    if eligible.is_empty() {
        return f64::NAN;
    }
    let normal = eligible
        .iter()
        .filter(|g| htest::passes_either_normality(g, 0.001))
        .count();
    normal as f64 / eligible.len() as f64
}

/// Circular mean heading of a pass, degrees.
fn mean_heading(data: &Dataset, traj: u32, pass: u32) -> f64 {
    let (mut s, mut c, mut n) = (0.0, 0.0, 0usize);
    for r in &data.records {
        if r.trajectory == traj && r.pass_id == pass {
            let rad = r.compass_deg.to_radians();
            s += rad.sin();
            c += rad.cos();
            n += 1;
        }
    }
    if n == 0 {
        return f64::NAN;
    }
    lumos5g_geo::normalize_deg(s.atan2(c).to_degrees())
}

/// Mean ± std of pairwise Spearman coefficients between trace pairs.
/// `same_direction = true` pairs passes whose mean headings agree (< 45°
/// apart — NB with NB); `false` pairs opposite headings (> 135° apart —
/// NB with SB), matching the §4.2 grouping.
fn spearman_pairs(data: &Dataset, same_direction: bool, max_pairs: usize) -> (f64, f64, usize) {
    let traces = data.traces();
    let keys: Vec<&(u32, u32)> = traces.keys().collect();
    let headings: Vec<f64> = keys
        .iter()
        .map(|&&(traj, pass)| mean_heading(data, traj, pass))
        .collect();
    let mut rhos = Vec::new();
    'outer: for (a_idx, &ka) in keys.iter().enumerate() {
        for (b_off, &kb) in keys.iter().enumerate().skip(a_idx + 1) {
            let diff = lumos5g_geo::signed_delta_deg(headings[a_idx], headings[b_off]).abs();
            let matches = if same_direction {
                diff < 45.0
            } else {
                diff > 135.0
            };
            if !matches {
                continue;
            }
            let (ta, tb) = (&traces[ka], &traces[kb]);
            if ta.len() < 20 || tb.len() < 20 {
                continue;
            }
            let n = 100;
            // Opposite-direction passes cover the path in reverse; compare
            // them in raw time order, as the paper's traces do.
            if let Ok(r) = stats::spearman(&resample(ta, n), &resample(tb, n)) {
                rhos.push(r.rho);
            }
            if rhos.len() >= max_pairs {
                break 'outer;
            }
        }
    }
    if rhos.is_empty() {
        return (f64::NAN, f64::NAN, 0);
    }
    (
        stats::mean(&rhos).expect("non-empty"),
        stats::std_dev(&rhos).unwrap_or(0.0),
        rhos.len(),
    )
}

/// Percentage of cell pairs with significantly different means (Welch) and
/// variances (Brown–Forsythe) at α = 0.1 over a bounded pair sample.
fn pairwise_fractions(groups: &[Vec<f64>], max_pairs: usize) -> (f64, f64, usize) {
    let mut t_sig = 0usize;
    let mut l_sig = 0usize;
    let mut n_pairs = 0usize;
    let stride = ((groups.len() * groups.len().saturating_sub(1) / 2) / max_pairs).max(1);
    let mut counter = 0usize;
    for i in 0..groups.len() {
        for j in (i + 1)..groups.len() {
            counter += 1;
            if !counter.is_multiple_of(stride) {
                continue;
            }
            if let Ok(r) = htest::welch_t_test(&groups[i], &groups[j]) {
                n_pairs += 1;
                if r.p_value < 0.1 {
                    t_sig += 1;
                }
                if let Ok(lr) =
                    htest::levene_test(&[&groups[i], &groups[j]], htest::LeveneCenter::Median)
                {
                    if lr.p_value < 0.1 {
                        l_sig += 1;
                    }
                }
            }
        }
    }
    if n_pairs == 0 {
        return (f64::NAN, f64::NAN, 0);
    }
    (
        t_sig as f64 / n_pairs as f64,
        l_sig as f64 / n_pairs as f64,
        n_pairs,
    )
}

/// Table 4 (Airport) and Table 10 (Intersection): factor analysis with and
/// without mobility conditioning.
pub fn table4(ctx: &mut Context) -> String {
    let mut out = String::new();
    for (label, data, file) in [
        (
            "Airport (indoor) — Table 4",
            ctx.airport_walk(),
            "table4_airport.csv",
        ),
        (
            "Intersection (outdoor) — Table 10",
            ctx.intersection_walk(),
            "table10_intersection.csv",
        ),
    ] {
        let plain = cell_groups(&data, 10);
        let dir = cell_dir_groups(&data, 10);
        let (cv_m, cv_s, _) = cv_stats(&plain);
        let (cvd_m, cvd_s, _) = cv_stats(&dir);
        let norm = normality_fraction(&plain);
        let norm_d = normality_fraction(&dir);
        let (sp_x, sp_xs, _) = spearman_pairs(&data, false, 400);
        let (sp_s, sp_ss, _) = spearman_pairs(&data, true, 400);

        let knn = &ModelKind::Knn { k: 5 };
        let rf = &ModelKind::RandomForest(Default::default());
        let r_l_knn = regression_eval(&data, FeatureSet::L, knn, 1).expect("eval");
        let r_l_rf = regression_eval(&data, FeatureSet::L, rf, 1).expect("eval");
        let r_m_knn = regression_eval(&data, FeatureSet::LTM, knn, 1).expect("eval");
        let r_m_rf = regression_eval(&data, FeatureSet::LTM, rf, 1).expect("eval");

        let mut t = TableWriter::new(
            label,
            &[
                "factors", "CV mean%", "CV std%", "normal%", "spearman", "sp std", "KNN MAE",
                "KNN RMSE", "RF MAE", "RF RMSE",
            ],
        );
        t.row(&[
            "(1) Geolocation".into(),
            format!("{cv_m:.2}"),
            format!("{cv_s:.2}"),
            format!("{:.2}", norm * 100.0),
            format!("{sp_x:.3}"),
            format!("{sp_xs:.2}"),
            format!("{:.0}", r_l_knn.mae),
            format!("{:.0}", r_l_knn.rmse),
            format!("{:.0}", r_l_rf.mae),
            format!("{:.0}", r_l_rf.rmse),
        ]);
        t.row(&[
            "(2) Mobility + (1)".into(),
            format!("{cvd_m:.2}"),
            format!("{cvd_s:.2}"),
            format!("{:.2}", norm_d * 100.0),
            format!("{sp_s:.3}"),
            format!("{sp_ss:.2}"),
            format!("{:.0}", r_m_knn.mae),
            format!("{:.0}", r_m_knn.rmse),
            format!("{:.0}", r_m_rf.mae),
            format!("{:.0}", r_m_rf.rmse),
        ]);
        save_result(file, t.to_csv());
        let _ = writeln!(out, "{}", t.render());
    }
    out
}

/// Table 5: percentage of geolocation pairs whose throughput differs
/// significantly (pairwise t-test / Levene, p < 0.1), indoor and outdoor.
pub fn table5(ctx: &mut Context) -> String {
    let indoor = cell_groups(&ctx.airport_walk(), 8);
    let outdoor = cell_groups(&ctx.intersection_walk(), 8);
    let (ti, li, ni) = pairwise_fractions(&indoor, 20_000);
    let (to, lo, no) = pairwise_fractions(&outdoor, 20_000);
    let mut t = TableWriter::new(
        "Table 5: % of geolocation pairs with significantly different throughput (p < 0.1)",
        &["test", "Indoor %", "Outdoor %", "pairs (in/out)"],
    );
    t.row(&[
        "Pairwise t-test".into(),
        format!("{:.2}", ti * 100.0),
        format!("{:.2}", to * 100.0),
        format!("{ni}/{no}"),
    ]);
    t.row(&[
        "Pairwise Levene test".into(),
        format!("{:.2}", li * 100.0),
        format!("{:.2}", lo * 100.0),
        format!("{ni}/{no}"),
    ]);
    save_result("table5.csv", t.to_csv());
    t.render()
}

/// Fig 6: 2 m-grid throughput maps for Airport (indoor) and Intersection
/// (outdoor), as ASCII + CSV.
pub fn fig6(ctx: &mut Context) -> String {
    let mut out = String::new();
    for (label, data, file) in [
        (
            "Fig 6a: Airport (indoor) throughput map",
            ctx.airport_walk(),
            "fig6_airport_map.csv",
        ),
        (
            "Fig 6b: Intersection (outdoor) throughput map",
            ctx.intersection_walk(),
            "fig6_intersection_map.csv",
        ),
    ] {
        let map = ThroughputMap::from_dataset(&data);
        save_result(file, map.to_csv());
        let _ = write!(
            out,
            "=== {label} ===\ncells: {}  buckets <60Mbps: {:.0}%  >1Gbps: {:.0}%\n{}\n",
            map.len(),
            map.bucket_fraction(0) * 100.0,
            map.bucket_fraction(5) * 100.0,
            map.to_ascii()
        );
    }
    out
}

/// Fig 7: CDFs of pairwise t-test p-values and per-cell CV (Airport).
pub fn fig7(ctx: &mut Context) -> String {
    let groups = cell_groups(&ctx.airport_walk(), 8);
    // p-value sample.
    let mut pvals = Vec::new();
    for i in 0..groups.len().min(150) {
        for j in (i + 1)..groups.len().min(150) {
            if let Ok(r) = htest::welch_t_test(&groups[i], &groups[j]) {
                pvals.push(r.p_value);
            }
        }
    }
    let cvs: Vec<f64> = groups
        .iter()
        .filter_map(|g| stats::coefficient_of_variation(g).ok())
        .map(|c| c * 100.0)
        .collect();
    let p_ecdf = stats::Ecdf::new(&pvals).expect("p-values");
    let cv_ecdf = stats::Ecdf::new(&cvs).expect("cvs");

    let mut csv = String::from("kind,x,cdf\n");
    for (x, f) in p_ecdf.curve(60) {
        let _ = writeln!(csv, "pvalue,{x:.4},{f:.4}");
    }
    for (x, f) in cv_ecdf.curve(60) {
        let _ = writeln!(csv, "cv_percent,{x:.2},{f:.4}");
    }
    save_result("fig7_cdfs.csv", csv);

    format!(
        "=== Fig 7: throughput similarity & variability (Airport) ===\n\
         pairs tested: {}   share with p < 0.1: {:.1}%\n\
         cells: {}   share with CV >= 50%: {:.1}%   median CV: {:.1}%\n",
        p_ecdf.len(),
        p_ecdf.eval(0.1) * 100.0,
        cvs.len(),
        cv_ecdf.fraction_at_least(50.0) * 100.0,
        stats::median(&cvs).unwrap_or(f64::NAN)
    )
}

/// Shared θm binning (Figs 8 and 18).
fn theta_m_table(data: &Dataset, panel_filter: Option<u32>, title: &str, file: &str) -> String {
    let mut t = TableWriter::new(title, &["theta_m bin", "n", "q1", "median", "q3", "mean"]);
    for bin in 0..12 {
        let lo = bin as f64 * 30.0;
        let hi = lo + 30.0;
        let vals: Vec<f64> = data
            .records
            .iter()
            .filter(|r| r.on_5g)
            .filter(|r| panel_filter.is_none_or(|p| r.cell_id == p))
            .filter(|r| r.theta_m_deg >= lo && r.theta_m_deg < hi)
            .map(|r| r.throughput_mbps)
            .collect();
        if vals.len() < 10 {
            continue;
        }
        let s = stats::Summary::of(&vals).expect("non-empty");
        t.row(&[
            format!("[{lo:.0},{hi:.0})"),
            format!("{}", s.n),
            format!("{:.0}", s.q1),
            format!("{:.0}", s.median),
            format!("{:.0}", s.q3),
            format!("{:.0}", s.mean),
        ]);
    }
    save_result(file, t.to_csv());
    t.render()
}

/// Fig 8: throughput vs UE-panel mobility angle θm (Airport, all panels).
pub fn fig8(ctx: &mut Context) -> String {
    let data = ctx.airport_walk();
    theta_m_table(
        &data,
        None,
        "Fig 8: throughput by mobility angle θm (Airport)",
        "fig8_theta_m.csv",
    )
}

/// Fig 18: θm effect split by panel (Airport south=1, north=2).
pub fn fig18(ctx: &mut Context) -> String {
    let data = ctx.airport_walk();
    let south = theta_m_table(
        &data,
        Some(1),
        "Fig 18a: θm vs throughput — South panel",
        "fig18_south.csv",
    );
    let north = theta_m_table(
        &data,
        Some(2),
        "Fig 18b: θm vs throughput — North panel",
        "fig18_north.csv",
    );
    format!("{south}\n{north}")
}

/// Fig 9: NB vs SB throughput maps at the Airport.
pub fn fig9(ctx: &mut Context) -> String {
    let data = ctx.airport_walk();
    let mut out = String::new();
    for (traj, label, file) in [
        (0u32, "Fig 9a: NB (north-bound)", "fig9_nb_map.csv"),
        (1u32, "Fig 9b: SB (south-bound)", "fig9_sb_map.csv"),
    ] {
        let sub = data.by_trajectory(traj);
        let map = ThroughputMap::from_dataset(&sub);
        save_result(file, map.to_csv());
        let _ = write!(
            out,
            "=== {label} ===\ncells: {}  mean of cell means: {:.0} Mbps\n{}\n",
            map.len(),
            map.cells().map(|(_, s)| s.mean).sum::<f64>() / map.len().max(1) as f64,
            map.to_ascii()
        );
    }
    out
}

/// Fig 10: Spearman coefficients grouped by direction.
pub fn fig10(ctx: &mut Context) -> String {
    let data = ctx.airport_walk();
    let (same_m, same_s, same_n) = spearman_pairs(&data, true, 600);
    let (cross_m, cross_s, cross_n) = spearman_pairs(&data, false, 600);
    let mut t = TableWriter::new(
        "Fig 10: pairwise Spearman of throughput traces (Airport)",
        &["grouping", "pairs", "mean rho", "std"],
    );
    t.row(&[
        "same direction (NB–NB / SB–SB)".into(),
        format!("{same_n}"),
        format!("{same_m:.3}"),
        format!("{same_s:.3}"),
    ]);
    t.row(&[
        "opposite directions (NB–SB)".into(),
        format!("{cross_n}"),
        format!("{cross_m:.3}"),
        format!("{cross_s:.3}"),
    ]);
    save_result("fig10_spearman.csv", t.to_csv());
    t.render()
}

/// Fig 11: throughput vs UE–panel distance per Airport panel.
pub fn fig11(ctx: &mut Context) -> String {
    let data = ctx.airport_walk();
    let mut out = String::new();
    for (panel, label, file) in [
        (2u32, "Fig 11a: North panel", "fig11_north.csv"),
        (1u32, "Fig 11b: South panel", "fig11_south.csv"),
    ] {
        let mut t = TableWriter::new(
            &format!("{label}: throughput vs distance"),
            &["distance bin (m)", "n", "q1", "median", "q3", "mean"],
        );
        for bin in 0..20 {
            let lo = bin as f64 * 15.0;
            let hi = lo + 15.0;
            let vals: Vec<f64> = data
                .records
                .iter()
                .filter(|r| r.on_5g && r.cell_id == panel)
                .filter(|r| r.panel_distance_m >= lo && r.panel_distance_m < hi)
                .map(|r| r.throughput_mbps)
                .collect();
            if vals.len() < 10 {
                continue;
            }
            let s = stats::Summary::of(&vals).expect("non-empty");
            t.row(&[
                format!("[{lo:.0},{hi:.0})"),
                format!("{}", s.n),
                format!("{:.0}", s.q1),
                format!("{:.0}", s.median),
                format!("{:.0}", s.q3),
                format!("{:.0}", s.mean),
            ]);
        }
        save_result(file, t.to_csv());
        let _ = writeln!(out, "{}", t.render());
    }
    out
}

/// Fig 13: positional-angle sector × distance band (Airport south panel).
pub fn fig13(ctx: &mut Context) -> String {
    let data = ctx.airport_walk();
    let mut t = TableWriter::new(
        "Fig 13: throughput by positional sector × distance (South panel)",
        &["sector", "<25m", "25-50m", "50-100m", ">=100m"],
    );
    let sector_of = |theta: f64| lumos5g_geo::PositionSector::from_theta_p(theta);
    for sector in [
        lumos5g_geo::PositionSector::Front,
        lumos5g_geo::PositionSector::Right,
        lumos5g_geo::PositionSector::Back,
        lumos5g_geo::PositionSector::Left,
    ] {
        let mut cells = Vec::new();
        for band in 0..4 {
            let (lo, hi) = match band {
                0 => (0.0, 25.0),
                1 => (25.0, 50.0),
                2 => (50.0, 100.0),
                _ => (100.0, f64::INFINITY),
            };
            let vals: Vec<f64> = data
                .records
                .iter()
                .filter(|r| r.on_5g && r.cell_id == 1)
                .filter(|r| sector_of(r.theta_p_deg) == sector)
                .filter(|r| r.panel_distance_m >= lo && r.panel_distance_m < hi)
                .map(|r| r.throughput_mbps)
                .collect();
            cells.push(if vals.len() >= 5 {
                format!(
                    "{:.0} (n={})",
                    stats::mean(&vals).expect("non-empty"),
                    vals.len()
                )
            } else {
                "-".into()
            });
        }
        t.row(&[
            sector.label().to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
        ]);
    }
    save_result("fig13_sectors.csv", t.to_csv());
    t.render()
}

/// Fig 14: throughput vs ground speed, driving vs walking (Loop).
pub fn fig14(ctx: &mut Context) -> String {
    let walk = ctx.loop_walk();
    let drive = ctx.loop_drive();
    let mut out = String::new();

    let mut t = TableWriter::new(
        "Fig 14a: driving — throughput by speed (5 km/h bins)",
        &["speed (km/h)", "n", "median", "p90", "max"],
    );
    for bin in 0..9 {
        let lo = bin as f64 * 5.0;
        let hi = lo + 5.0;
        let vals: Vec<f64> = drive
            .records
            .iter()
            .filter(|r| {
                let kmh = r.true_speed_mps * 3.6;
                kmh >= lo && kmh < hi
            })
            .map(|r| r.throughput_mbps)
            .collect();
        if vals.len() < 10 {
            continue;
        }
        t.row(&[
            format!("[{lo:.0},{hi:.0})"),
            format!("{}", vals.len()),
            format!("{:.0}", stats::median(&vals).expect("non-empty")),
            format!("{:.0}", stats::quantile(&vals, 0.9).expect("non-empty")),
            format!("{:.0}", vals.iter().cloned().fold(0.0, f64::max)),
        ]);
    }
    save_result("fig14a_driving.csv", t.to_csv());
    let _ = writeln!(out, "{}", t.render());

    let mut t = TableWriter::new(
        "Fig 14b: walking vs driving — median throughput by speed (1 km/h bins)",
        &[
            "speed (km/h)",
            "walk n",
            "walk median",
            "drive n",
            "drive median",
        ],
    );
    for bin in 0..8 {
        let lo = bin as f64;
        let hi = lo + 1.0;
        let grab = |d: &Dataset| -> Vec<f64> {
            d.records
                .iter()
                .filter(|r| {
                    let kmh = r.true_speed_mps * 3.6;
                    kmh >= lo && kmh < hi
                })
                .map(|r| r.throughput_mbps)
                .collect()
        };
        let w = grab(&walk);
        let d = grab(&drive);
        t.row(&[
            format!("[{lo:.0},{hi:.0})"),
            format!("{}", w.len()),
            if w.len() >= 10 {
                format!("{:.0}", stats::median(&w).expect("non-empty"))
            } else {
                "-".into()
            },
            format!("{}", d.len()),
            if d.len() >= 10 {
                format!("{:.0}", stats::median(&d).expect("non-empty"))
            } else {
                "-".into()
            },
        ]);
    }
    save_result("fig14b_walk_vs_drive.csv", t.to_csv());
    let _ = writeln!(out, "{}", t.render());
    out
}

/// Fig 17: extended normality / Levene results, indoor vs outdoor.
pub fn fig17(ctx: &mut Context) -> String {
    let indoor = cell_groups(&ctx.airport_walk(), 8);
    let outdoor = cell_groups(&ctx.intersection_walk(), 8);
    let (_, li, _) = pairwise_fractions(&indoor, 20_000);
    let (_, lo, _) = pairwise_fractions(&outdoor, 20_000);
    let mut t = TableWriter::new(
        "Fig 17: normality (α = 0.001) & Levene (α = 0.1), indoor vs outdoor",
        &["metric", "Indoor (Airport)", "Outdoor (Intersection)"],
    );
    t.row(&[
        "% cells NOT normal".into(),
        format!("{:.1}%", (1.0 - normality_fraction(&indoor)) * 100.0),
        format!("{:.1}%", (1.0 - normality_fraction(&outdoor)) * 100.0),
    ]);
    t.row(&[
        "% pairs with different variances".into(),
        format!("{:.1}%", li * 100.0),
        format!("{:.1}%", lo * 100.0),
    ]);
    save_result("fig17.csv", t.to_csv());
    t.render()
}

/// Figs 19–20 (App A.1.2): deltas from conditioning on mobility direction.
pub fn fig19_20(ctx: &mut Context) -> String {
    let mut out = String::new();
    for (label, data, file) in [
        ("Fig 19: Airport", ctx.airport_walk(), "fig19_airport.csv"),
        (
            "Fig 20: Intersection",
            ctx.intersection_walk(),
            "fig20_intersection.csv",
        ),
    ] {
        let plain = cell_groups(&data, 10);
        let dir = cell_dir_groups(&data, 10);
        let (_, _, cv50_plain) = cv_stats(&plain);
        let (_, _, cv50_dir) = cv_stats(&dir);
        let (t_plain, _, _) = pairwise_fractions(&plain, 10_000);
        let (t_dir, _, _) = pairwise_fractions(&dir, 10_000);
        let mut t = TableWriter::new(
            &format!("{label}: effect of conditioning on mobility direction"),
            &["metric", "direction ignored", "direction accounted"],
        );
        t.row(&[
            "% cells normal (α=0.001)".into(),
            format!("{:.1}%", normality_fraction(&plain) * 100.0),
            format!("{:.1}%", normality_fraction(&dir) * 100.0),
        ]);
        t.row(&[
            "% cells with CV >= 50%".into(),
            format!("{:.1}%", cv50_plain * 100.0),
            format!("{:.1}%", cv50_dir * 100.0),
        ]);
        t.row(&[
            "% pairs t-test significant".into(),
            format!("{:.1}%", t_plain * 100.0),
            format!("{:.1}%", t_dir * 100.0),
        ]);
        save_result(file, t.to_csv());
        let _ = writeln!(out, "{}", t.render());
    }
    out
}

/// Fig 21 (App A.1.4): staggered multi-UE congestion.
pub fn fig21(ctx: &mut Context) -> String {
    let area = ctx.airport_area();
    let cfg = congestion::CongestionConfig::default();
    let timelines = congestion::run_congestion_experiment(&area, &cfg);

    let mut csv = String::from("t,ue1,ue2,ue3,ue4\n");
    for t in 0..cfg.total_s as usize {
        let cells: Vec<String> = timelines
            .iter()
            .map(|tl| tl[t].map_or(String::new(), |v| format!("{v:.0}")))
            .collect();
        let _ = writeln!(csv, "{t},{}", cells.join(","));
    }
    save_result("fig21_congestion.csv", csv);

    let window_mean = |tl: &[Option<f64>], a: usize, b: usize| -> f64 {
        let v: Vec<f64> = tl[a..b].iter().filter_map(|x| *x).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let solo = window_mean(&timelines[0], 20, 55);
    let duo = window_mean(&timelines[0], 80, 115);
    let trio = window_mean(&timelines[0], 140, 175);
    let quad = window_mean(&timelines[0], 200, 235);
    format!(
        "=== Fig 21: multi-UE contention (UE1 goodput by active-UE count) ===\n\
         1 UE : {solo:.0} Mbps\n2 UEs: {duo:.0} Mbps ({:.2}x)\n\
         3 UEs: {trio:.0} Mbps ({:.2}x)\n4 UEs: {quad:.0} Mbps ({:.2}x)\n",
        duo / solo,
        trio / solo,
        quad / solo
    )
}
