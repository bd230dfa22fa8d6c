//! Property-based tests for cross-crate invariants: each property checks
//! inputs drawn from a fixed-seed generator (no shrinking).

use lumos5g::classes::ThroughputClass;
use lumos5g_geo::{
    fold_angle_deg, mobility_angle_deg, normalize_deg, positional_angle_deg, GridIndex, LatLon,
    LocalFrame, PanelPose, Point2,
};
use lumos5g_ml::dataset::TargetScaler;
use lumos5g_ml::StandardScaler;
use lumos5g_radio::{capacity_mbps, CapacityConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn angle_normalization_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let a = rng.gen_range(-1e4..1e4);
        let n = normalize_deg(a);
        assert!((0.0..360.0).contains(&n), "a={a} n={n}");
        assert!((normalize_deg(n) - n).abs() < 1e-9, "a={a} n={n}");
    }
}

#[test]
fn folded_angles_stay_in_half_circle() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let a = rng.gen_range(-1e4..1e4);
        assert!((0.0..=180.0).contains(&fold_angle_deg(a)), "a={a}");
    }
}

#[test]
fn pixel_roundtrip_error_bounded() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (lat, lon) = (rng.gen_range(44.0..46.0), rng.gen_range(-94.0..-92.0));
        let p = LatLon::new(lat, lon);
        let back = p.to_pixel(17).center_latlon();
        let err = LocalFrame::new(p).to_local(back);
        let d = (err.x * err.x + err.y * err.y).sqrt();
        // Must stay within one pixel diagonal (≈1.2 m at these latitudes).
        assert!(d < 1.3, "pixel roundtrip moved {d} m: lat={lat} lon={lon}");
    }
}

#[test]
fn local_frame_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (lat, lon) = (rng.gen_range(44.0..46.0), rng.gen_range(-94.0..-92.0));
        let (x, y) = (
            rng.gen_range(-2000.0..2000.0),
            rng.gen_range(-2000.0..2000.0),
        );
        let frame = LocalFrame::new(LatLon::new(lat, lon));
        let rt = frame.to_local(frame.to_latlon(Point2::new(x, y)));
        assert!((rt.x - x).abs() < 1e-6, "lat={lat} lon={lon} x={x} y={y}");
        assert!((rt.y - y).abs() < 1e-6, "lat={lat} lon={lon} x={x} y={y}");
    }
}

#[test]
fn grid_cell_contains_its_center() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (x, y) = (rng.gen_range(-1e5..1e5), rng.gen_range(-1e5..1e5));
        let size = rng.gen_range(0.5..50.0);
        let g = GridIndex::new(size);
        let c = g.cell_of(Point2::new(x, y));
        assert_eq!(g.cell_of(g.center_of(c)), c, "x={x} y={y} size={size}");
    }
}

#[test]
fn positional_angle_in_range() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (px, py, az, ux, uy) = loop {
            let (px, py) = (rng.gen_range(-500.0..500.0), rng.gen_range(-500.0..500.0));
            let az = rng.gen_range(0.0..360.0);
            let (ux, uy) = (rng.gen_range(-500.0..500.0), rng.gen_range(-500.0..500.0));
            if (px - ux).abs() > 1e-6 || (py - uy).abs() > 1e-6 {
                break (px, py, az, ux, uy);
            }
        };
        let pose = PanelPose::new(Point2::new(px, py), az);
        let tp = positional_angle_deg(&pose, Point2::new(ux, uy));
        assert!(
            (0.0..360.0).contains(&tp),
            "panel=({px}, {py}) az={az} ue=({ux}, {uy})"
        );
    }
}

#[test]
fn mobility_angle_shifts_with_heading() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (az, heading) = (rng.gen_range(0.0..360.0), rng.gen_range(0.0..360.0));
        let pose = PanelPose::new(Point2::new(0.0, 0.0), az);
        let tm = mobility_angle_deg(&pose, heading);
        // Definition: θm = heading − azimuth (mod 360).
        assert!(
            (tm - normalize_deg(heading - az)).abs() < 1e-9,
            "az={az} heading={heading}"
        );
    }
}

#[test]
fn capacity_is_monotone_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (s1, s2) = (rng.gen_range(-20.0..60.0), rng.gen_range(-20.0..60.0));
        let cfg = CapacityConfig::default();
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let c_lo = capacity_mbps(lo, &cfg);
        let c_hi = capacity_mbps(hi, &cfg);
        assert!(c_lo <= c_hi + 1e-9, "s1={s1} s2={s2}");
        assert!((0.0..=cfg.max_mbps).contains(&c_hi), "s1={s1} s2={s2}");
    }
}

#[test]
fn throughput_classes_partition_the_line() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let t = rng.gen_range(0.0..3000.0);
        let in_class = match ThroughputClass::of(t) {
            ThroughputClass::Low => t < 300.0,
            ThroughputClass::Medium => (300.0..700.0).contains(&t),
            ThroughputClass::High => t >= 700.0,
        };
        assert!(in_class, "t={t} classed {:?}", ThroughputClass::of(t));
    }
}

#[test]
fn scaler_roundtrip_is_identity() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let vals: Vec<f64> = (0..rng.gen_range(4..40))
            .map(|_| rng.gen_range(-1e4..1e4))
            .collect();
        let rows: Vec<Vec<f64>> = vals.iter().map(|&v| vec![v, v * 2.0 + 1.0]).collect();
        let s = StandardScaler::fit(&rows);
        for r in &rows {
            let rt = s.inverse_row(&s.transform_row(r));
            assert!((rt[0] - r[0]).abs() < 1e-6, "vals={vals:?}");
            assert!((rt[1] - r[1]).abs() < 1e-6, "vals={vals:?}");
        }
    }
}

#[test]
fn target_scaler_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let vals: Vec<f64> = (0..rng.gen_range(2..50))
            .map(|_| rng.gen_range(-1e5..1e5))
            .collect();
        let probe = rng.gen_range(-1e5..1e5);
        let t = TargetScaler::fit(&vals);
        assert!(
            (t.inverse(t.transform(probe)) - probe).abs() < 1e-6,
            "vals={vals:?} probe={probe}"
        );
    }
}

#[test]
fn shadow_field_is_pure() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..16 {
        let seed = rng.gen_range(0..500);
        let (x, y) = (rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3));
        let f = lumos5g_radio::ShadowField::mmwave_default(seed);
        let p = Point2::new(x, y);
        assert_eq!(f.sample_db(p), f.sample_db(p), "seed={seed} x={x} y={y}");
    }
}
