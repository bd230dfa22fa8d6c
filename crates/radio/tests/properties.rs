//! Property-based tests of the radio substrate: each property checks inputs
//! drawn from a fixed-seed generator (no shrinking).

use lumos5g_geo::{PanelPose, Point2};
use lumos5g_radio::{
    capacity_mbps, ci_path_loss_db, AntennaPattern, CapacityConfig, Obstacle, ObstacleMap, Panel,
    PathLossEnv, RadioConfig, RadioField, ShadowField, TransportMode, UeState,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn path_loss_monotone_in_distance() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (d1, d2) = (rng.gen_range(1.0..2000.0), rng.gen_range(1.0..2000.0));
        let f = rng.gen_range(1.0..100.0);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        for env in [PathLossEnv::Los, PathLossEnv::Nlos] {
            assert!(
                ci_path_loss_db(f, lo, env) <= ci_path_loss_db(f, hi, env) + 1e-9,
                "d1={d1} d2={d2} f={f}"
            );
        }
    }
}

#[test]
fn nlos_never_cheaper_than_los() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (d, f) = (rng.gen_range(1.0..2000.0), rng.gen_range(1.0..100.0));
        assert!(
            ci_path_loss_db(f, d, PathLossEnv::Nlos)
                >= ci_path_loss_db(f, d, PathLossEnv::Los) - 1e-9,
            "d={d} f={f}"
        );
    }
}

#[test]
fn antenna_gain_bounded() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let theta = rng.gen_range(-720.0..720.0);
        let a = AntennaPattern::sector_default();
        let g = a.gain_dbi(theta);
        assert!(g <= a.max_gain_dbi + 1e-12, "theta={theta}");
        assert!(
            g >= a.max_gain_dbi - a.max_attenuation_db - 1e-12,
            "theta={theta}"
        );
    }
}

#[test]
fn capacity_zero_in_outage() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let sinr = rng.gen_range(-60.0..-5.01);
        assert_eq!(
            capacity_mbps(sinr, &CapacityConfig::default()),
            0.0,
            "sinr={sinr}"
        );
    }
}

#[test]
fn obstacle_loss_is_additive() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let x = rng.gen_range(-50.0..50.0);
        let (y1, y2) = (rng.gen_range(5.0..45.0), rng.gen_range(55.0..95.0));
        let (l1, l2) = (rng.gen_range(1.0..40.0), rng.gen_range(1.0..40.0));
        // Two slabs stacked along the ray: total loss is the sum.
        let map = ObstacleMap::from_vec(vec![
            Obstacle::Aabb {
                min: Point2::new(-100.0, y1),
                max: Point2::new(100.0, y1 + 2.0),
                loss_db: l1,
            },
            Obstacle::Aabb {
                min: Point2::new(-100.0, y2),
                max: Point2::new(100.0, y2 + 2.0),
                loss_db: l2,
            },
        ]);
        let loss = map.penetration_loss_db(Point2::new(x, 0.0), Point2::new(x, 120.0));
        assert!(
            (loss - (l1 + l2)).abs() < 1e-9,
            "x={x} y1={y1} y2={y2} l1={l1} l2={l2}"
        );
    }
}

#[test]
fn rsrp_decreases_moving_off_boresight() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (d, off) = (rng.gen_range(20.0..200.0), rng.gen_range(5.0f64..60.0));
        let field = RadioField::new(
            vec![Panel::new(1, PanelPose::new(Point2::new(0.0, 0.0), 0.0))],
            ObstacleMap::new(),
            ShadowField::new(1, 10.0, 0.0),
            RadioConfig::default(),
        );
        let on = UeState {
            pos: Point2::new(0.0, d),
            heading_deg: 0.0,
            speed_mps: 0.0,
            mode: TransportMode::Stationary,
        };
        let off_axis = UeState {
            pos: Point2::new(d * off.to_radians().sin(), d * off.to_radians().cos()),
            ..on
        };
        let s_on = field.best_signal(&on, 0.0).unwrap();
        let s_off = field.best_signal(&off_axis, 0.0).unwrap();
        assert!(s_on.rsrp_dbm >= s_off.rsrp_dbm - 1e-9, "d={d} off={off}");
    }
}

#[test]
fn reported_distance_matches_geometry() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let [px, py, ux, uy] = loop {
            let c: [f64; 4] = std::array::from_fn(|_| rng.gen_range(-200.0..200.0));
            if (c[0] - c[2]).abs() > 1e-6 || (c[1] - c[3]).abs() > 1e-6 {
                break c;
            }
        };
        let field = RadioField::new(
            vec![Panel::new(1, PanelPose::new(Point2::new(px, py), 90.0))],
            ObstacleMap::new(),
            ShadowField::new(1, 10.0, 0.0),
            RadioConfig::default(),
        );
        let ue = UeState {
            pos: Point2::new(ux, uy),
            heading_deg: 45.0,
            speed_mps: 1.0,
            mode: TransportMode::Walking,
        };
        let s = field.best_signal(&ue, 0.0).unwrap();
        let d = ((px - ux).powi(2) + (py - uy).powi(2)).sqrt();
        assert!(
            (s.distance_m - d).abs() < 1e-9,
            "panel=({px}, {py}) ue=({ux}, {uy})"
        );
    }
}
