//! The throughput **map as a model** — the paper's Fig 3c vision made
//! predictive.
//!
//! A [`MapModel`] is what a UE would actually download in the envisaged
//! crowdsourced platform (§2.2, §8.2): per-cell statistics, optionally
//! split by travel direction (§4.2 showed direction changes the map).
//! Prediction is a hierarchical lookup with graceful fallback:
//!
//! 1. exact (cell, direction-octant) entry, if direction-aware;
//! 2. cell entry pooled over directions;
//! 3. mean of the 8 neighbouring cells;
//! 4. the global mean.
//!
//! This is also the natural **long-term** predictor of §5.2 (time scales of
//! minutes/hours/days): unlike the `C`-feature models it needs no live
//! session, only the map.

use lumos5g_geo::{GridCell, GridIndex};
use lumos5g_sim::Dataset;
use std::collections::HashMap;

/// Which lookup level produced a prediction (for diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupLevel {
    /// Exact (cell, octant) hit.
    CellAndDirection,
    /// Cell hit, direction pooled.
    Cell,
    /// Mean of neighbouring cells.
    Neighbors,
    /// Global fallback.
    Global,
}

/// A gridded, optionally direction-aware throughput predictor.
#[derive(Debug, Clone)]
pub struct MapModel {
    grid: GridIndex,
    direction_aware: bool,
    by_cell_dir: HashMap<(GridCell, u8), (f64, usize)>,
    by_cell: HashMap<GridCell, (f64, usize)>,
    global_mean: f64,
}

fn octant(compass_deg: f64) -> u8 {
    ((compass_deg.rem_euclid(360.0) / 45.0) as u8) % 8
}

impl MapModel {
    /// Fit from a dataset on the paper's 2 m grid.
    pub fn fit(data: &Dataset, direction_aware: bool) -> Self {
        Self::fit_with_grid(data, direction_aware, GridIndex::paper_map_grid())
    }

    /// Fit with a custom grid.
    pub fn fit_with_grid(data: &Dataset, direction_aware: bool, grid: GridIndex) -> Self {
        assert!(!data.is_empty(), "cannot fit a map model on no data");
        let mut by_cell_dir: HashMap<(GridCell, u8), (f64, usize)> = HashMap::new();
        let mut by_cell: HashMap<GridCell, (f64, usize)> = HashMap::new();
        let mut total = 0.0;
        for r in &data.records {
            let cell = grid.cell_of(r.snapped());
            let e = by_cell.entry(cell).or_insert((0.0, 0));
            e.0 += r.throughput_mbps;
            e.1 += 1;
            if direction_aware {
                let e = by_cell_dir
                    .entry((cell, octant(r.compass_deg)))
                    .or_insert((0.0, 0));
                e.0 += r.throughput_mbps;
                e.1 += 1;
            }
            total += r.throughput_mbps;
        }
        MapModel {
            grid,
            direction_aware,
            by_cell_dir,
            by_cell,
            global_mean: total / data.len() as f64,
        }
    }

    /// Predict the throughput at local position `(x, y)` for a UE heading
    /// `compass_deg`; also reports which fallback level answered.
    pub fn predict(&self, x: f64, y: f64, compass_deg: f64) -> (f64, LookupLevel) {
        let cell = self.grid.cell_of(lumos5g_geo::Point2::new(x, y));
        if self.direction_aware {
            if let Some(&(sum, n)) = self.by_cell_dir.get(&(cell, octant(compass_deg))) {
                if n >= 3 {
                    return (sum / n as f64, LookupLevel::CellAndDirection);
                }
            }
        }
        if let Some(&(sum, n)) = self.by_cell.get(&cell) {
            return (sum / n as f64, LookupLevel::Cell);
        }
        // 8-neighbourhood average.
        let mut acc = 0.0;
        let mut n = 0usize;
        for di in -1..=1i64 {
            for dj in -1..=1i64 {
                if di == 0 && dj == 0 {
                    continue;
                }
                if let Some(&(sum, cnt)) = self.by_cell.get(&GridCell {
                    i: cell.i + di,
                    j: cell.j + dj,
                }) {
                    acc += sum;
                    n += cnt;
                }
            }
        }
        if n > 0 {
            (acc / n as f64, LookupLevel::Neighbors)
        } else {
            (self.global_mean, LookupLevel::Global)
        }
    }

    /// Global mean throughput of the training data.
    pub fn global_mean(&self) -> f64 {
        self.global_mean
    }
}

/// Train/test evaluation over a dataset (70/30 record split by pass): fit
/// the map on train passes, predict next-second throughput on test passes.
/// Returns `(mae, rmse, n_test)`.
pub fn map_model_eval(
    data: &Dataset,
    direction_aware: bool,
    split_seed: u64,
) -> Result<(f64, f64, usize), String> {
    // Split whole passes so the map never sees the test walk.
    let mut passes: Vec<(u32, u32)> = data
        .records
        .iter()
        .map(|r| (r.trajectory, r.pass_id))
        .collect();
    passes.sort_unstable();
    passes.dedup();
    if passes.len() < 4 {
        return Err("need at least 4 passes".into());
    }
    let (tr, te) = lumos5g_ml::train_test_split(passes.len(), 0.7, split_seed);
    let train_keys: std::collections::HashSet<(u32, u32)> = tr.iter().map(|&i| passes[i]).collect();
    let train = data.filter(|r| train_keys.contains(&(r.trajectory, r.pass_id)));
    let test_keys: std::collections::HashSet<(u32, u32)> = te.iter().map(|&i| passes[i]).collect();
    let test = data.filter(|r| test_keys.contains(&(r.trajectory, r.pass_id)));
    if train.is_empty() || test.is_empty() {
        return Err("degenerate pass split".into());
    }

    let model = MapModel::fit(&train, direction_aware);
    let mut truth = Vec::new();
    let mut pred = Vec::new();
    for r in &test.records {
        truth.push(r.throughput_mbps);
        pred.push(model.predict(r.snapped_x_m, r.snapped_y_m, r.compass_deg).0);
    }
    Ok((
        lumos5g_ml::mae(&truth, &pred),
        lumos5g_ml::rmse(&truth, &pred),
        truth.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos5g_sim::{airport, quality, run_campaign, CampaignConfig};

    fn data() -> Dataset {
        let area = airport(41);
        let cfg = CampaignConfig {
            passes_per_trajectory: 6,
            max_duration_s: 300,
            bad_gps_fraction: 0.0,
            ..Default::default()
        };
        let raw = run_campaign(&area, &cfg);
        quality::apply(&raw, &area.frame, &Default::default()).0
    }

    #[test]
    fn exact_cell_lookup_answers_first() {
        let d = data();
        let m = MapModel::fit(&d, true);
        let r = &d.records[100];
        let (_, level) = m.predict(r.snapped_x_m, r.snapped_y_m, r.compass_deg);
        assert!(matches!(
            level,
            LookupLevel::CellAndDirection | LookupLevel::Cell
        ));
    }

    #[test]
    fn far_away_falls_back_to_global() {
        let d = data();
        let m = MapModel::fit(&d, false);
        let (v, level) = m.predict(99_999.0, 99_999.0, 0.0);
        assert_eq!(level, LookupLevel::Global);
        assert!((v - m.global_mean()).abs() < 1e-9);
    }

    #[test]
    fn neighbor_fallback_near_coverage_edge() {
        let d = data();
        let m = MapModel::fit(&d, false);
        // Probe a ring around known cells until a Neighbors-level hit.
        let mut saw_neighbor = false;
        for r in d.records.iter().step_by(37) {
            let (_, level) = m.predict(r.snapped_x_m + 2.0, r.snapped_y_m + 2.0, 0.0);
            if level == LookupLevel::Neighbors {
                saw_neighbor = true;
                break;
            }
        }
        assert!(saw_neighbor, "never exercised the neighbour fallback");
    }

    #[test]
    fn direction_aware_map_beats_direction_blind() {
        // §4.2: direction changes the map; the Airport's NB/SB asymmetry
        // makes a direction-aware lookup strictly better.
        let d = data();
        let (mae_dir, _, _) = map_model_eval(&d, true, 3).unwrap();
        let (mae_blind, _, _) = map_model_eval(&d, false, 3).unwrap();
        assert!(
            mae_dir < mae_blind,
            "direction-aware {mae_dir:.0} should beat blind {mae_blind:.0}"
        );
    }

    #[test]
    fn map_model_beats_global_mean_baseline() {
        let d = data();
        let (mae_map, _, _) = map_model_eval(&d, true, 5).unwrap();
        // Global-mean-only predictor baseline.
        let ys: Vec<f64> = d.records.iter().map(|r| r.throughput_mbps).collect();
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let mae_mean = ys.iter().map(|y| (y - mean).abs()).sum::<f64>() / ys.len() as f64;
        assert!(mae_map < mae_mean, "map {mae_map:.0} vs mean {mae_mean:.0}");
    }

    #[test]
    fn eval_requires_enough_passes() {
        let d = data();
        let tiny = d.filter(|r| r.pass_id == 0);
        assert!(map_model_eval(&tiny, true, 1).is_err());
    }
}
