//! Per-second log records (Table 1 of the paper) and dataset containers.

use lumos5g_geo::{GridCell, GridIndex, Point2};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;

/// Google Activity-Recognition style label (Table 1, "detected activity").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Not moving.
    Still,
    /// On foot.
    Walking,
    /// In a car.
    InVehicle,
}

impl Activity {
    /// Short string for CSV.
    pub fn as_str(self) -> &'static str {
        match self {
            Activity::Still => "still",
            Activity::Walking => "walking",
            Activity::InVehicle => "in_vehicle",
        }
    }

    /// Parse from the CSV string.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "still" => Some(Activity::Still),
            "walking" => Some(Activity::Walking),
            "in_vehicle" => Some(Activity::InVehicle),
            _ => None,
        }
    }
}

/// One 1 Hz sample — the union of what the paper's app logs (Table 1), the
/// post-processed panel-geometry fields, and (simulator-only) ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Area identifier (0 = intersection, 1 = airport, 2 = loop).
    pub area: u8,
    /// Measurement pass this sample belongs to.
    pub pass_id: u32,
    /// Trajectory index within the area.
    pub trajectory: u32,
    /// Second within the pass.
    pub t: u32,

    // ---- Raw app fields (with sensor noise) ----
    /// Reported latitude, degrees.
    pub lat: f64,
    /// Reported longitude, degrees.
    pub lon: f64,
    /// GPS accuracy estimate reported by the location API, meters.
    pub gps_accuracy_m: f64,
    /// Activity-recognition label.
    pub activity: Activity,
    /// Reported moving speed, m/s.
    pub moving_speed_mps: f64,
    /// Reported compass direction of travel, degrees.
    pub compass_deg: f64,

    // ---- Ground truth + connection state ----
    /// iPerf-reported downlink goodput, Mbps.
    pub throughput_mbps: f64,
    /// True when attached to 5G NR, false when on LTE.
    pub on_5g: bool,
    /// Serving cell id (panel id on 5G; `1000` denotes the LTE macro cell).
    pub cell_id: u32,
    /// LTE RSRP, dBm.
    pub lte_rsrp_dbm: f64,
    /// NR SS-RSRP of the serving (or best) panel, dBm.
    pub nr_ssrsrp_dbm: f64,
    /// Panel→panel handoff occurred this second.
    pub horizontal_handoff: bool,
    /// 5G↔LTE handoff occurred this second.
    pub vertical_handoff: bool,

    // ---- Post-processed tower geometry (exogenous panel registry) ----
    /// Distance to the serving (or nearest) panel, meters.
    pub panel_distance_m: f64,
    /// Positional angle θp, degrees [0, 360).
    pub theta_p_deg: f64,
    /// Mobility angle θm, degrees [0, 360).
    pub theta_m_deg: f64,

    // ---- Quality-pipeline outputs ----
    /// Pixelized X at zoom 17 (0 before the pipeline runs).
    pub pixel_x: i64,
    /// Pixelized Y at zoom 17.
    pub pixel_y: i64,
    /// Local-plane X of the pixel center, meters.
    pub snapped_x_m: f64,
    /// Local-plane Y of the pixel center, meters.
    pub snapped_y_m: f64,

    // ---- Simulator-only ground truth (not observable on a real UE) ----
    /// True local X, meters.
    pub true_x_m: f64,
    /// True local Y, meters.
    pub true_y_m: f64,
    /// True ground speed, m/s.
    pub true_speed_mps: f64,
}

impl Record {
    /// Position after pixel snapping (what analyses should use).
    pub fn snapped(&self) -> Point2 {
        Point2::new(self.snapped_x_m, self.snapped_y_m)
    }

    /// True position (for simulator diagnostics only).
    pub fn true_pos(&self) -> Point2 {
        Point2::new(self.true_x_m, self.true_y_m)
    }

    /// `Err(field name)` when any numeric field is NaN or infinite. A single
    /// corrupt logger sample must be rejected here, at the dataset boundary,
    /// instead of panicking deep inside a model fit or a serving shard.
    pub fn check_finite(&self) -> Result<(), &'static str> {
        let fields: [(&'static str, f64); 16] = [
            ("lat", self.lat),
            ("lon", self.lon),
            ("gps_accuracy_m", self.gps_accuracy_m),
            ("moving_speed_mps", self.moving_speed_mps),
            ("compass_deg", self.compass_deg),
            ("throughput_mbps", self.throughput_mbps),
            ("lte_rsrp_dbm", self.lte_rsrp_dbm),
            ("nr_ssrsrp_dbm", self.nr_ssrsrp_dbm),
            ("panel_distance_m", self.panel_distance_m),
            ("theta_p_deg", self.theta_p_deg),
            ("theta_m_deg", self.theta_m_deg),
            ("snapped_x_m", self.snapped_x_m),
            ("snapped_y_m", self.snapped_y_m),
            ("true_x_m", self.true_x_m),
            ("true_y_m", self.true_y_m),
            ("true_speed_mps", self.true_speed_mps),
        ];
        for (name, v) in fields {
            if !v.is_finite() {
                return Err(name);
            }
        }
        Ok(())
    }
}

/// A bag of records with grouping helpers used throughout the analyses.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// The samples.
    pub records: Vec<Record>,
}

impl Dataset {
    /// Wrap records.
    pub fn new(records: Vec<Record>) -> Self {
        Dataset { records }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append another dataset, keeping pass identities distinct.
    ///
    /// Grouping throughout the workspace keys traces by `(trajectory,
    /// pass_id)` *without* the area — so merging campaigns from two areas
    /// (whose pass ids both start at 0) used to silently splice unrelated
    /// passes into one trace. When any incoming key collides with an
    /// existing one, every incoming `pass_id` is shifted past the current
    /// maximum, which preserves the other dataset's internal pass structure
    /// while guaranteeing global uniqueness.
    pub fn extend(&mut self, mut other: Dataset) {
        let existing: std::collections::HashSet<(u32, u32)> = self
            .records
            .iter()
            .map(|r| (r.trajectory, r.pass_id))
            .collect();
        let collides = other
            .records
            .iter()
            .any(|r| existing.contains(&(r.trajectory, r.pass_id)));
        if collides {
            let offset = self
                .records
                .iter()
                .map(|r| r.pass_id)
                .max()
                .map_or(0, |m| m + 1);
            for r in &mut other.records {
                r.pass_id += offset;
            }
        }
        self.records.extend(other.records);
    }

    /// Group throughput samples by map-grid cell of the snapped position.
    pub fn throughput_by_cell(&self, grid: &GridIndex) -> HashMap<GridCell, Vec<f64>> {
        let mut m: HashMap<GridCell, Vec<f64>> = HashMap::new();
        for r in &self.records {
            m.entry(grid.cell_of(r.snapped()))
                .or_default()
                .push(r.throughput_mbps);
        }
        m
    }

    /// Group by `(cell, heading-octant)` — the paper's "account for mobility
    /// direction" treatment (§4.2) at 45° resolution.
    pub fn throughput_by_cell_and_direction(
        &self,
        grid: &GridIndex,
    ) -> HashMap<(GridCell, u8), Vec<f64>> {
        let mut m: HashMap<(GridCell, u8), Vec<f64>> = HashMap::new();
        for r in &self.records {
            let octant = ((r.compass_deg.rem_euclid(360.0) / 45.0) as u8) % 8;
            m.entry((grid.cell_of(r.snapped()), octant))
                .or_default()
                .push(r.throughput_mbps);
        }
        m
    }

    /// Per-pass throughput traces, keyed by `(trajectory, pass_id)` in
    /// ascending key order, each ordered by time.
    pub fn traces(&self) -> BTreeMap<(u32, u32), Vec<f64>> {
        let mut m: BTreeMap<(u32, u32), Vec<(u32, f64)>> = BTreeMap::new();
        for r in &self.records {
            m.entry((r.trajectory, r.pass_id))
                .or_default()
                .push((r.t, r.throughput_mbps));
        }
        m.into_iter()
            .map(|(k, mut v)| {
                v.sort_by_key(|&(t, _)| t);
                (k, v.into_iter().map(|(_, x)| x).collect())
            })
            .collect()
    }

    /// Records filtered by trajectory index.
    pub fn by_trajectory(&self, trajectory: u32) -> Dataset {
        Dataset::new(
            self.records
                .iter()
                .filter(|r| r.trajectory == trajectory)
                .cloned()
                .collect(),
        )
    }

    /// Records filtered by a predicate.
    pub fn filter(&self, f: impl Fn(&Record) -> bool) -> Dataset {
        Dataset::new(self.records.iter().filter(|r| f(r)).cloned().collect())
    }

    /// `Err` describing the first record with a non-finite numeric field.
    /// Model fitting calls this before extracting features.
    pub fn check_finite(&self) -> Result<(), String> {
        for (i, r) in self.records.iter().enumerate() {
            if let Err(field) = r.check_finite() {
                return Err(format!(
                    "record {i} (pass {}, t {}): non-finite {field}",
                    r.pass_id, r.t
                ));
            }
        }
        Ok(())
    }

    /// CSV header used by [`Self::to_csv`].
    pub const CSV_HEADER: &'static str = "area,pass_id,trajectory,t,lat,lon,gps_accuracy_m,activity,moving_speed_mps,compass_deg,throughput_mbps,on_5g,cell_id,lte_rsrp_dbm,nr_ssrsrp_dbm,horizontal_handoff,vertical_handoff,panel_distance_m,theta_p_deg,theta_m_deg,pixel_x,pixel_y,snapped_x_m,snapped_y_m,true_x_m,true_y_m,true_speed_mps";

    /// Serialize to CSV (the public-dataset export format).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 160);
        out.push_str(Self::CSV_HEADER);
        out.push('\n');
        for r in &self.records {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.7},{:.7},{:.2},{},{:.3},{:.2},{:.3},{},{},{:.2},{:.2},{},{},{:.2},{:.2},{:.2},{},{},{:.3},{:.3},{:.3},{:.3},{:.3}",
                r.area,
                r.pass_id,
                r.trajectory,
                r.t,
                r.lat,
                r.lon,
                r.gps_accuracy_m,
                r.activity.as_str(),
                r.moving_speed_mps,
                r.compass_deg,
                r.throughput_mbps,
                r.on_5g as u8,
                r.cell_id,
                r.lte_rsrp_dbm,
                r.nr_ssrsrp_dbm,
                r.horizontal_handoff as u8,
                r.vertical_handoff as u8,
                r.panel_distance_m,
                r.theta_p_deg,
                r.theta_m_deg,
                r.pixel_x,
                r.pixel_y,
                r.snapped_x_m,
                r.snapped_y_m,
                r.true_x_m,
                r.true_y_m,
                r.true_speed_mps,
            );
        }
        out
    }

    /// Write the CSV to `path`.
    pub fn save_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }

    /// Parse a CSV produced by [`Self::to_csv`].
    pub fn from_csv(text: &str) -> Result<Dataset, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty CSV")?;
        if header != Self::CSV_HEADER {
            return Err("unexpected CSV header".to_string());
        }
        let mut records = Vec::new();
        for (lineno, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 27 {
                return Err(format!(
                    "line {}: expected 27 fields, got {}",
                    lineno + 2,
                    f.len()
                ));
            }
            let err = |what: &str| format!("line {}: bad {}", lineno + 2, what);
            // Rust's f64 parser accepts "NaN"/"inf", so finiteness needs an
            // explicit check after field parsing (see push below).
            let record = Record {
                area: f[0].parse().map_err(|_| err("area"))?,
                pass_id: f[1].parse().map_err(|_| err("pass_id"))?,
                trajectory: f[2].parse().map_err(|_| err("trajectory"))?,
                t: f[3].parse().map_err(|_| err("t"))?,
                lat: f[4].parse().map_err(|_| err("lat"))?,
                lon: f[5].parse().map_err(|_| err("lon"))?,
                gps_accuracy_m: f[6].parse().map_err(|_| err("gps_accuracy_m"))?,
                activity: Activity::parse(f[7]).ok_or_else(|| err("activity"))?,
                moving_speed_mps: f[8].parse().map_err(|_| err("moving_speed"))?,
                compass_deg: f[9].parse().map_err(|_| err("compass"))?,
                throughput_mbps: f[10].parse().map_err(|_| err("throughput"))?,
                on_5g: f[11] == "1",
                cell_id: f[12].parse().map_err(|_| err("cell_id"))?,
                lte_rsrp_dbm: f[13].parse().map_err(|_| err("lte_rsrp"))?,
                nr_ssrsrp_dbm: f[14].parse().map_err(|_| err("nr_ssrsrp"))?,
                horizontal_handoff: f[15] == "1",
                vertical_handoff: f[16] == "1",
                panel_distance_m: f[17].parse().map_err(|_| err("panel_distance"))?,
                theta_p_deg: f[18].parse().map_err(|_| err("theta_p"))?,
                theta_m_deg: f[19].parse().map_err(|_| err("theta_m"))?,
                pixel_x: f[20].parse().map_err(|_| err("pixel_x"))?,
                pixel_y: f[21].parse().map_err(|_| err("pixel_y"))?,
                snapped_x_m: f[22].parse().map_err(|_| err("snapped_x"))?,
                snapped_y_m: f[23].parse().map_err(|_| err("snapped_y"))?,
                true_x_m: f[24].parse().map_err(|_| err("true_x"))?,
                true_y_m: f[25].parse().map_err(|_| err("true_y"))?,
                true_speed_mps: f[26].parse().map_err(|_| err("true_speed"))?,
            };
            record
                .check_finite()
                .map_err(|field| format!("line {}: non-finite {}", lineno + 2, field))?;
            records.push(record);
        }
        Ok(Dataset::new(records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal record for tests.
    pub fn dummy(t: u32, thpt: f64) -> Record {
        Record {
            area: 0,
            pass_id: 1,
            trajectory: 2,
            t,
            lat: 44.9778,
            lon: -93.265,
            gps_accuracy_m: 3.0,
            activity: Activity::Walking,
            moving_speed_mps: 1.4,
            compass_deg: 90.0,
            throughput_mbps: thpt,
            on_5g: true,
            cell_id: 1,
            lte_rsrp_dbm: -95.0,
            nr_ssrsrp_dbm: -80.0,
            horizontal_handoff: false,
            vertical_handoff: false,
            panel_distance_m: 42.0,
            theta_p_deg: 10.0,
            theta_m_deg: 170.0,
            pixel_x: 100,
            pixel_y: 200,
            snapped_x_m: 5.0,
            snapped_y_m: 7.0,
            true_x_m: 5.2,
            true_y_m: 6.9,
            true_speed_mps: 1.38,
        }
    }

    #[test]
    fn csv_roundtrip_preserves_records() {
        let ds = Dataset::new(vec![dummy(0, 1500.0), dummy(1, 20.5)]);
        let csv = ds.to_csv();
        let back = Dataset::from_csv(&csv).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.records[0].t, 0);
        assert!((back.records[1].throughput_mbps - 20.5).abs() < 1e-9);
        assert_eq!(back.records[0].activity, Activity::Walking);
    }

    #[test]
    fn from_csv_rejects_bad_header() {
        assert!(Dataset::from_csv("nope\n1,2").is_err());
    }

    #[test]
    fn from_csv_rejects_short_rows() {
        let text = format!("{}\n1,2,3\n", Dataset::CSV_HEADER);
        assert!(Dataset::from_csv(&text).is_err());
    }

    #[test]
    fn traces_are_time_ordered() {
        let mut a = dummy(5, 50.0);
        a.pass_id = 9;
        let mut b = dummy(2, 20.0);
        b.pass_id = 9;
        let ds = Dataset::new(vec![a, b]);
        let traces = ds.traces();
        assert_eq!(traces[&(2, 9)], vec![20.0, 50.0]);
    }

    #[test]
    fn cell_grouping_uses_snapped_positions() {
        let grid = GridIndex::paper_map_grid();
        let mut a = dummy(0, 100.0);
        a.snapped_x_m = 0.5;
        a.snapped_y_m = 0.5;
        let mut b = dummy(1, 200.0);
        b.snapped_x_m = 1.5;
        b.snapped_y_m = 1.0;
        let ds = Dataset::new(vec![a, b]);
        let cells = ds.throughput_by_cell(&grid);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells.values().next().unwrap().len(), 2);
    }

    #[test]
    fn direction_octants_split_groups() {
        let grid = GridIndex::paper_map_grid();
        let mut a = dummy(0, 100.0);
        a.compass_deg = 10.0; // octant 0
        let mut b = dummy(1, 200.0);
        b.compass_deg = 190.0; // octant 4
        let ds = Dataset::new(vec![a, b]);
        let cells = ds.throughput_by_cell_and_direction(&grid);
        assert_eq!(cells.len(), 2);
    }

    #[test]
    fn extend_keeps_cross_area_passes_distinct() {
        // Two areas, both with pass_id 0 on trajectory 2: before the fix the
        // merged dataset spliced them into one (2, 0) trace.
        let mut a0 = dummy(0, 10.0);
        a0.pass_id = 0;
        let mut a1 = dummy(1, 11.0);
        a1.pass_id = 0;
        let mut downtown = Dataset::new(vec![a0, a1]);

        let mut b0 = dummy(0, 20.0);
        b0.pass_id = 0;
        b0.area = 1;
        let mut b1 = dummy(1, 21.0);
        b1.pass_id = 0;
        b1.area = 1;
        let airport = Dataset::new(vec![b0, b1]);

        downtown.extend(airport);
        let traces = downtown.traces();
        assert_eq!(traces.len(), 2, "colliding passes merged: {traces:?}");
        let mut lens: Vec<usize> = traces.values().map(Vec::len).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![2, 2]);
        assert_eq!(traces[&(2, 0)], vec![10.0, 11.0]);
        assert_eq!(traces[&(2, 1)], vec![20.0, 21.0]);
    }

    #[test]
    fn extend_without_collisions_is_identity_append() {
        let mut a = Dataset::new(vec![dummy(0, 10.0)]);
        let mut b0 = dummy(0, 20.0);
        b0.pass_id = 7;
        a.extend(Dataset::new(vec![b0]));
        // No collision → pass ids untouched.
        assert_eq!(a.records[1].pass_id, 7);
        assert_eq!(a.traces().len(), 2);
    }

    #[test]
    fn from_csv_rejects_nan_fields() {
        // "NaN" parses fine as f64, so the boundary check must catch it.
        let mut bad = dummy(0, 100.0);
        bad.throughput_mbps = f64::NAN;
        let csv = Dataset::new(vec![dummy(0, 50.0), bad]).to_csv();
        let got = Dataset::from_csv(&csv);
        assert!(got.is_err(), "NaN row must be rejected");
        assert!(got.unwrap_err().contains("non-finite"));
    }

    #[test]
    fn check_finite_names_the_offending_field() {
        let mut bad = dummy(3, 100.0);
        bad.compass_deg = f64::INFINITY;
        assert_eq!(bad.check_finite(), Err("compass_deg"));
        let ds = Dataset::new(vec![dummy(0, 1.0), bad]);
        let msg = ds.check_finite().unwrap_err();
        assert!(
            msg.contains("compass_deg") && msg.contains("record 1"),
            "{msg}"
        );
        assert!(Dataset::new(vec![dummy(0, 1.0)]).check_finite().is_ok());
    }

    #[test]
    fn activity_parse_roundtrip() {
        for a in [Activity::Still, Activity::Walking, Activity::InVehicle] {
            assert_eq!(Activity::parse(a.as_str()), Some(a));
        }
        assert_eq!(Activity::parse("flying"), None);
    }
}
