//! Property-based tests of the geospatial substrate: each property checks
//! inputs drawn from a fixed-seed generator (no shrinking).

use lumos5g_geo::{
    bearing_deg, fold_angle_deg, normalize_deg, signed_delta_deg, GridIndex, LatLon, LocalFrame,
    Point2, Polyline,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn signed_delta_is_antisymmetric() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (a, b) = (rng.gen_range(0.0..360.0), rng.gen_range(0.0..360.0));
        let d1 = signed_delta_deg(a, b);
        let d2 = signed_delta_deg(b, a);
        // d1 = −d2, except the ±180 tie which both map to +180.
        if d1.abs() < 179.999 {
            assert!((d1 + d2).abs() < 1e-9, "a={a} b={b}");
        }
    }
}

#[test]
fn delta_composition_consistent() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (a, b) = (rng.gen_range(0.0..360.0), rng.gen_range(0.0..360.0));
        let d = signed_delta_deg(a, b);
        assert!(
            (normalize_deg(a + d) - normalize_deg(b)).abs() < 1e-9,
            "a={a} b={b}"
        );
    }
}

#[test]
fn bearing_reverse_differs_by_180() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let [x1, y1, x2, y2] = loop {
            let c: [f64; 4] = std::array::from_fn(|_| rng.gen_range(-1e3..1e3));
            if (c[0] - c[2]).abs() > 1e-6 || (c[1] - c[3]).abs() > 1e-6 {
                break c;
            }
        };
        let fwd = bearing_deg(x1, y1, x2, y2);
        let back = bearing_deg(x2, y2, x1, y1);
        assert!(
            (fold_angle_deg(fwd - back) - 180.0).abs() < 1e-9,
            "({x1}, {y1}) -> ({x2}, {y2})"
        );
    }
}

#[test]
fn mercator_world_coords_in_range() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (lat, lon) = (rng.gen_range(-85.0..85.0), rng.gen_range(-180.0..180.0));
        let (x, y) = LatLon::new(lat, lon).to_world();
        assert!((0.0..=256.0).contains(&x), "lat={lat} lon={lon}");
        assert!((0.0..=256.0).contains(&y), "lat={lat} lon={lon}");
    }
}

#[test]
fn pixelization_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (lat, lon) = (rng.gen_range(40.0..50.0), rng.gen_range(-100.0..-80.0));
        let px = LatLon::new(lat, lon).to_pixel(17);
        let px2 = px.center_latlon().to_pixel(17);
        assert_eq!(px, px2, "lat={lat} lon={lon}");
    }
}

#[test]
fn polyline_point_at_stays_near_vertex_hull() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let pts: Vec<(f64, f64)> = (0..rng.gen_range(2..10))
            .map(|_| (rng.gen_range(-500.0..500.0), rng.gen_range(-500.0..500.0)))
            .collect();
        let s = rng.gen_range(0.0..5000.0);
        let pl = Polyline::new(pts.iter().map(|&(x, y)| Point2::new(x, y)).collect());
        let p = pl.point_at(s);
        let min_x = pts.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let max_x = pts.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
        let min_y = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let max_y = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        assert!(
            p.x >= min_x - 1e-9 && p.x <= max_x + 1e-9,
            "pts={pts:?} s={s}"
        );
        assert!(
            p.y >= min_y - 1e-9 && p.y <= max_y + 1e-9,
            "pts={pts:?} s={s}"
        );
    }
}

#[test]
fn polyline_length_at_least_endpoint_distance() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let points: Vec<Point2> = (0..rng.gen_range(2..10))
            .map(|_| Point2::new(rng.gen_range(-500.0..500.0), rng.gen_range(-500.0..500.0)))
            .collect();
        let direct = points[0].distance(*points.last().unwrap());
        let pl = Polyline::new(points.clone());
        assert!(pl.length() + 1e-9 >= direct, "points={points:?}");
    }
}

#[test]
fn grid_neighbors_are_adjacent() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let (x, y) = (rng.gen_range(-1e4..1e4), rng.gen_range(-1e4..1e4));
        let (dx, dy) = (rng.gen_range(-1.9..1.9), rng.gen_range(-1.9..1.9));
        let g = GridIndex::new(2.0);
        let c1 = g.cell_of(Point2::new(x, y));
        let c2 = g.cell_of(Point2::new(x + dx, y + dy));
        assert!(
            (c1.i - c2.i).abs() <= 1 && (c1.j - c2.j).abs() <= 1,
            "x={x} y={y} dx={dx} dy={dy}"
        );
    }
}

#[test]
fn local_frame_distance_matches_geodesic_scale() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..64 {
        let lat = rng.gen_range(44.0..46.0);
        let (dx, dy) = (
            rng.gen_range(-1000.0..1000.0),
            rng.gen_range(-1000.0..1000.0),
        );
        // Converting two nearby local points through WGS84 and back must
        // preserve their separation to sub-millimeter.
        let frame = LocalFrame::new(LatLon::new(lat, -93.0));
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(dx, dy);
        let a2 = frame.to_local(frame.to_latlon(a));
        let b2 = frame.to_local(frame.to_latlon(b));
        assert!(
            (a2.distance(b2) - a.distance(b)).abs() < 1e-3,
            "lat={lat} dx={dx} dy={dy}"
        );
    }
}
