//! Per-UE session state: the sliding record window that feeds the `C`
//! feature group, plus connection/staleness bookkeeping.

use lumos5g_sim::Record;
use std::collections::VecDeque;

/// A pending one-step-ahead prediction awaiting its ground truth (the next
/// second's measured throughput), used for online error tracking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingPrediction {
    /// Pass the prediction was made in.
    pub pass_id: u32,
    /// Second the prediction was made at (it predicts `t + 1`).
    pub t: u32,
    /// Predicted next-second throughput, Mbps.
    pub predicted_mbps: f64,
}

/// Streaming state for one UE.
///
/// The window only ever holds records from one contiguous run of seconds of
/// one pass — exactly the invariant `FeatureSpec::extract` enforces offline
/// via its history guard. Discontinuities (new pass, missing seconds,
/// reordered arrivals) reset the window instead of feeding the model a
/// spliced history.
#[derive(Debug)]
pub struct Session {
    window: VecDeque<Record>,
    capacity: usize,
    /// Extracted feature vectors for Seq2Seq serving, one per contiguous
    /// second, oldest first. Empty unless the engine serves a sequence
    /// model (`feature_capacity > 0`).
    features: VecDeque<Vec<f64>>,
    feature_capacity: usize,
    /// Serving cell of the newest record (1000 = LTE macro).
    pub last_cell: u32,
    /// Whether the UE was on 5G NR at the newest record.
    pub on_5g: bool,
    /// Newest second observed.
    pub last_t: Option<u32>,
    /// Prediction awaiting next-second ground truth.
    pub pending: Option<PendingPrediction>,
    /// Times the window was reset by a discontinuity.
    pub resets: u64,
}

impl Session {
    /// New session retaining at most `capacity` records (use
    /// `FeatureSpec::required_window()`).
    pub fn new(capacity: usize) -> Self {
        Session::for_sequences(capacity, 0)
    }

    /// New session that additionally retains the last `input_len` extracted
    /// feature vectors — the encoder history a Seq2Seq model consumes. Pass
    /// `input_len == 0` for single-row families (no feature history kept).
    pub fn for_sequences(capacity: usize, input_len: usize) -> Self {
        Session {
            window: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            features: VecDeque::with_capacity(input_len),
            feature_capacity: input_len,
            last_cell: 1000,
            on_5g: false,
            last_t: None,
            pending: None,
            resets: 0,
        }
    }

    /// Ingest one record, maintaining the contiguity invariant.
    ///
    /// Returns the absolute error of the previously pending prediction when
    /// this record delivers its ground truth (same pass, `t` exactly one
    /// ahead), for the shard's error tracker.
    pub fn push(&mut self, record: Record) -> Option<f64> {
        // `checked_add`: at `t == u32::MAX` the next-second test must read
        // as a discontinuity (wrap → window reset), not overflow-panic in
        // debug builds.
        let truth_err = match self.pending.take() {
            Some(p) if p.pass_id == record.pass_id && p.t.checked_add(1) == Some(record.t) => {
                Some((p.predicted_mbps - record.throughput_mbps).abs())
            }
            _ => None,
        };

        let contiguous = match self.window.back() {
            Some(prev) => prev.pass_id == record.pass_id && prev.t.checked_add(1) == Some(record.t),
            None => true,
        };
        if !contiguous {
            self.window.clear();
            // A spliced record window would already be rejected by the
            // extractor, but the feature history must reset with it: its
            // entries map to consecutive seconds of one pass, and a gap
            // would silently misalign the encoder input.
            self.features.clear();
            self.resets += 1;
        }
        self.last_cell = record.cell_id;
        self.on_5g = record.on_5g;
        self.last_t = Some(record.t);
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(record);
        truth_err
    }

    /// The current window, oldest first (contiguous slice).
    pub fn window(&mut self) -> &[Record] {
        self.window.make_contiguous()
    }

    /// Harmonic mean of the windowed throughputs — the session-local
    /// fallback predictor (FESTIVE/MPC-style) used when the served model
    /// panics, returns non-finite, or blows its time budget. Same epsilon
    /// clamp and oldest-to-newest summation order as
    /// `lumos5g_ml::HarmonicMeanPredictor`, so the degraded path is as
    /// deterministic as the healthy one. `None` only while the window is
    /// empty.
    pub fn harmonic_estimate(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let inv_sum: f64 = self
            .window
            .iter()
            .map(|r| 1.0 / r.throughput_mbps.max(1e-6))
            .sum();
        Some(self.window.len() as f64 / inv_sum)
    }

    /// Append one extracted feature vector to the sequence history.
    ///
    /// Call exactly once per record whose window admitted an extraction;
    /// `push` clears the history on any discontinuity, so consecutive
    /// entries always describe consecutive seconds — the online analogue of
    /// the offline sliding windows `build_sequences` emits.
    pub fn record_features(&mut self, features: Vec<f64>) {
        if self.feature_capacity == 0 {
            return;
        }
        if self.features.len() == self.feature_capacity {
            self.features.pop_front();
        }
        self.features.push_back(features);
    }

    /// The retained feature history, oldest first (contiguous slice).
    pub fn feature_history(&mut self) -> &[Vec<f64>] {
        self.features.make_contiguous()
    }

    /// Feature vectors currently retained.
    pub fn feature_len(&self) -> usize {
        self.features.len()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos5g_sim::Activity;

    fn rec(pass: u32, t: u32, thpt: f64) -> Record {
        Record {
            area: 1,
            pass_id: pass,
            trajectory: 0,
            t,
            lat: 44.88,
            lon: -93.20,
            gps_accuracy_m: 2.0,
            activity: Activity::Walking,
            moving_speed_mps: 1.4,
            compass_deg: 90.0,
            throughput_mbps: thpt,
            on_5g: true,
            cell_id: 2,
            lte_rsrp_dbm: -95.0,
            nr_ssrsrp_dbm: -80.0,
            horizontal_handoff: false,
            vertical_handoff: false,
            panel_distance_m: 50.0,
            theta_p_deg: 30.0,
            theta_m_deg: 180.0,
            pixel_x: 1000,
            pixel_y: 2000,
            snapped_x_m: 1.0,
            snapped_y_m: 2.0,
            true_x_m: 1.0,
            true_y_m: 2.0,
            true_speed_mps: 1.4,
        }
    }

    #[test]
    fn window_is_bounded_and_ordered() {
        let mut s = Session::new(3);
        for t in 0..5 {
            s.push(rec(1, t, t as f64));
        }
        let w: Vec<u32> = s.window().iter().map(|r| r.t).collect();
        assert_eq!(w, vec![2, 3, 4]);
    }

    #[test]
    fn pass_change_resets_window() {
        let mut s = Session::new(4);
        s.push(rec(1, 10, 1.0));
        s.push(rec(1, 11, 2.0));
        s.push(rec(2, 0, 3.0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.resets, 1);
    }

    #[test]
    fn time_gap_resets_window() {
        let mut s = Session::new(4);
        s.push(rec(1, 10, 1.0));
        s.push(rec(1, 12, 2.0)); // second 11 lost
        assert_eq!(s.len(), 1);
        assert_eq!(s.resets, 1);
    }

    #[test]
    fn pending_prediction_matches_next_second_only() {
        let mut s = Session::new(4);
        s.push(rec(1, 10, 1.0));
        s.pending = Some(PendingPrediction {
            pass_id: 1,
            t: 10,
            predicted_mbps: 500.0,
        });
        let err = s.push(rec(1, 11, 480.0));
        assert_eq!(err, Some(20.0));
        // A stale pending (gap) never matches.
        s.pending = Some(PendingPrediction {
            pass_id: 1,
            t: 11,
            predicted_mbps: 500.0,
        });
        assert_eq!(s.push(rec(1, 13, 480.0)), None);
    }

    #[test]
    fn t_at_u32_max_resets_instead_of_overflowing() {
        let mut s = Session::new(4);
        s.push(rec(1, u32::MAX - 1, 1.0));
        s.push(rec(1, u32::MAX, 2.0));
        assert_eq!(s.len(), 2, "MAX-1 → MAX is contiguous");
        // A wrap to t=0 must read as a discontinuity, not a debug panic.
        s.pending = Some(PendingPrediction {
            pass_id: 1,
            t: u32::MAX,
            predicted_mbps: 100.0,
        });
        assert_eq!(
            s.push(rec(1, 0, 3.0)),
            None,
            "wrapped t never settles truth"
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.resets, 1);
    }

    #[test]
    fn harmonic_estimate_tracks_the_window() {
        let mut s = Session::new(5);
        assert_eq!(s.harmonic_estimate(), None);
        s.push(rec(1, 0, 100.0));
        s.push(rec(1, 1, 300.0));
        // HM(100, 300) = 2 / (1/100 + 1/300) = 150.
        let hm = s.harmonic_estimate().unwrap();
        assert!((hm - 150.0).abs() < 1e-9, "hm = {hm}");
        // Outage seconds are epsilon-clamped, never NaN/inf.
        s.push(rec(1, 2, 0.0));
        let hm = s.harmonic_estimate().unwrap();
        assert!(hm.is_finite() && hm >= 0.0);
    }

    #[test]
    fn feature_history_is_bounded_and_resets_on_discontinuity() {
        let mut s = Session::for_sequences(4, 3);
        for t in 0..5 {
            s.push(rec(1, t, 100.0));
            s.record_features(vec![t as f64]);
        }
        assert_eq!(s.feature_len(), 3);
        let hist: Vec<f64> = s.feature_history().iter().map(|v| v[0]).collect();
        assert_eq!(hist, vec![2.0, 3.0, 4.0]);
        // A time gap clears the feature history along with the window.
        s.push(rec(1, 7, 100.0));
        assert_eq!(s.feature_len(), 0);
        assert_eq!(s.resets, 1);
        // ... and a pass change does too.
        s.record_features(vec![7.0]);
        s.push(rec(2, 0, 100.0));
        assert_eq!(s.feature_len(), 0);
    }

    #[test]
    fn single_row_sessions_never_retain_features() {
        let mut s = Session::new(4);
        s.push(rec(1, 0, 100.0));
        s.record_features(vec![1.0, 2.0]);
        assert_eq!(s.feature_len(), 0);
        assert!(s.feature_history().is_empty());
    }

    #[test]
    fn connection_state_tracks_newest_record() {
        let mut s = Session::new(2);
        let mut r = rec(1, 0, 1.0);
        r.cell_id = 1000;
        r.on_5g = false;
        s.push(r);
        assert!(!s.on_5g);
        assert_eq!(s.last_cell, 1000);
        s.push(rec(1, 1, 2.0));
        assert!(s.on_5g);
        assert_eq!(s.last_cell, 2);
    }
}
