//! Polylines with arc-length parameterization.
//!
//! Each measurement pass in the paper walks or drives a fixed trajectory
//! (Table 2: 12 intersection trajectories of 232–274 m, 2 airport
//! trajectories of 324–369 m, the 1300 m loop). The mobility models in
//! `lumos5g-sim` advance a distance-along-path coordinate each second and ask
//! the polyline for the position and heading there.

use crate::angle::bearing_deg;
use crate::local::Point2;

/// An open or closed polyline in the local plane.
#[derive(Debug, Clone)]
pub struct Polyline {
    points: Vec<Point2>,
    /// Cumulative arc length at each vertex; `cum[0] = 0`.
    cum: Vec<f64>,
}

impl Polyline {
    /// Build from at least two vertices. Zero-length segments are permitted
    /// but contribute nothing to the arc length.
    ///
    /// Panics on fewer than 2 points (a construction-time programming error).
    pub fn new(points: Vec<Point2>) -> Self {
        assert!(points.len() >= 2, "polyline needs at least two points");
        let mut cum = Vec::with_capacity(points.len());
        cum.push(0.0);
        for w in points.windows(2) {
            let last = *cum.last().expect("cum starts non-empty");
            cum.push(last + w[0].distance(w[1]));
        }
        Polyline { points, cum }
    }

    /// Closed version of the polyline: appends the first vertex at the end
    /// if not already closed (used for the 1300 m Loop area).
    pub fn closed(mut points: Vec<Point2>) -> Self {
        assert!(points.len() >= 2, "polyline needs at least two points");
        let first = points[0];
        let last = *points.last().expect("non-empty");
        if first.distance(last) > 1e-9 {
            points.push(first);
        }
        Polyline::new(points)
    }

    /// Total arc length in meters.
    pub fn length(&self) -> f64 {
        *self.cum.last().expect("cum non-empty")
    }

    /// The vertices.
    pub fn points(&self) -> &[Point2] {
        &self.points
    }

    /// Position at arc length `s`, clamped to `[0, length]`.
    pub fn point_at(&self, s: f64) -> Point2 {
        let s = s.clamp(0.0, self.length());
        let idx = match self
            .cum
            .binary_search_by(|c| c.partial_cmp(&s).expect("finite arc length"))
        {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        if idx + 1 >= self.points.len() {
            return *self.points.last().expect("non-empty");
        }
        let seg_len = self.cum[idx + 1] - self.cum[idx];
        if seg_len <= 0.0 {
            return self.points[idx];
        }
        let t = (s - self.cum[idx]) / seg_len;
        self.points[idx].lerp(self.points[idx + 1], t)
    }

    /// Compass heading of travel at arc length `s` (degrees, 0° = North).
    ///
    /// Uses the containing segment's direction; at the exact end, the last
    /// segment's heading.
    pub fn heading_at(&self, s: f64) -> f64 {
        let s = s.clamp(0.0, self.length());
        let mut idx = match self
            .cum
            .binary_search_by(|c| c.partial_cmp(&s).expect("finite arc length"))
        {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        if idx + 1 >= self.points.len() {
            idx = self.points.len() - 2;
        }
        // Skip zero-length segments.
        let mut a = self.points[idx];
        let mut b = self.points[idx + 1];
        let mut k = idx;
        while a.distance(b) <= 1e-12 && k + 2 < self.points.len() {
            k += 1;
            a = self.points[k];
            b = self.points[k + 1];
        }
        bearing_deg(a.x, a.y, b.x, b.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline {
        Polyline::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.0, 100.0),
            Point2::new(50.0, 100.0),
        ])
    }

    #[test]
    fn length_sums_segments() {
        assert!((l_shape().length() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn point_at_interpolates() {
        let p = l_shape().point_at(50.0);
        assert!((p.x - 0.0).abs() < 1e-12 && (p.y - 50.0).abs() < 1e-12);
        let p = l_shape().point_at(125.0);
        assert!((p.x - 25.0).abs() < 1e-12 && (p.y - 100.0).abs() < 1e-12);
    }

    #[test]
    fn point_at_clamps() {
        let p = l_shape().point_at(-5.0);
        assert!((p.x).abs() < 1e-12 && (p.y).abs() < 1e-12);
        let p = l_shape().point_at(1e9);
        assert!((p.x - 50.0).abs() < 1e-12 && (p.y - 100.0).abs() < 1e-12);
    }

    #[test]
    fn heading_follows_segments() {
        let pl = l_shape();
        assert!((pl.heading_at(10.0) - 0.0).abs() < 1e-9); // north leg
        assert!((pl.heading_at(120.0) - 90.0).abs() < 1e-9); // east leg
    }

    #[test]
    fn closed_loop_returns_to_start() {
        let pl = Polyline::closed(vec![
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 0.0),
            Point2::new(100.0, 100.0),
            Point2::new(0.0, 100.0),
        ]);
        assert!((pl.length() - 400.0).abs() < 1e-12);
        let end = pl.point_at(pl.length());
        assert!(end.distance(Point2::new(0.0, 0.0)) < 1e-9);
    }
}
