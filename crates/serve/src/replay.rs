//! Deterministic multi-UE arrival streams: replay a simulated campaign
//! through the engine.
//!
//! A campaign [`Dataset`] is a set of per-pass 1 Hz traces. The replay
//! source assigns passes round-robin to `ues` synthetic UEs (each UE plays
//! its passes back-to-back, keeping the original `pass_id`/`t` so session
//! windows reset at pass boundaries exactly as live streams would) and then
//! interleaves the streams tick-by-tick — at tick `k`, every still-active
//! UE contributes its `k`-th pending record. That models `ues` concurrent
//! handsets sampling at 1 Hz, and is fully deterministic: no clocks, no
//! randomness. [`ReplaySource::run`] offers the stream as fast as the
//! engine accepts it; service time at a stated offered load is measured by
//! `perfbench`, not here.

use crate::engine::{Engine, SubmitOutcome};
use crate::fault::FaultPlan;
use lumos5g_sim::{Dataset, Record};
use std::collections::BTreeMap;

/// A pre-computed arrival stream of `(ue, record)` events.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    events: Vec<(u64, Record)>,
}

/// Outcome of one replay run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayStats {
    /// Events offered to the engine.
    pub submitted: u64,
    /// Events the engine accepted (exactly one response each, unless a
    /// `Deadline` policy sheds them as stale at dequeue).
    pub accepted: u64,
    /// Events the engine shed.
    pub shed: u64,
    /// Events refused by admission control.
    pub rejected: u64,
}

impl ReplaySource {
    /// Build the arrival stream from a campaign, fanned out to `ues`
    /// synthetic UEs.
    pub fn from_dataset(dataset: &Dataset, ues: usize) -> Self {
        let ues = ues.max(1);
        // Group into time-ordered per-pass traces. BTreeMap keeps the
        // assignment deterministic regardless of record order.
        let mut traces: BTreeMap<(u32, u32), Vec<Record>> = BTreeMap::new();
        for r in &dataset.records {
            traces
                .entry((r.trajectory, r.pass_id))
                .or_default()
                .push(r.clone());
        }
        let mut streams: Vec<Vec<Record>> = vec![Vec::new(); ues];
        for (i, (_, mut trace)) in traces.into_iter().enumerate() {
            trace.sort_by_key(|r| r.t);
            streams[i % ues].extend(trace);
        }
        // Tick-interleave the UE streams.
        let total: usize = streams.iter().map(Vec::len).sum();
        let mut events = Vec::with_capacity(total);
        let mut cursors = vec![0usize; ues];
        loop {
            let mut emitted = false;
            for (ue, stream) in streams.iter().enumerate() {
                if let Some(r) = stream.get(cursors[ue]) {
                    events.push((ue as u64, r.clone()));
                    cursors[ue] += 1;
                    emitted = true;
                }
            }
            if !emitted {
                break;
            }
        }
        ReplaySource { events }
    }

    /// The arrival stream, in order.
    pub fn events(&self) -> &[(u64, Record)] {
        &self.events
    }

    /// A copy of this stream with `plan`'s source corruption applied, by
    /// event index — the chaos-bench ingress: deterministically malformed
    /// telemetry that admission control must reject.
    pub fn corrupted(&self, plan: &FaultPlan) -> ReplaySource {
        let mut out = self.clone();
        for (i, (_, record)) in out.events.iter_mut().enumerate() {
            plan.corrupt_record(i as u64, record);
        }
        out
    }

    /// Total events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the campaign had no records.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Offer the whole stream to `engine`, in order, as fast as it
    /// accepts.
    pub fn run(&self, engine: &Engine) -> ReplayStats {
        let mut stats = ReplayStats::default();
        for (ue, record) in &self.events {
            stats.submitted += 1;
            match engine.offer(*ue, record.clone()) {
                SubmitOutcome::Accepted => stats.accepted += 1,
                SubmitOutcome::Shed => stats.shed += 1,
                SubmitOutcome::Rejected(_) => stats.rejected += 1,
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos5g_sim::{airport, run_campaign, CampaignConfig, MobilityMode};
    use std::collections::BTreeSet;

    fn small_campaign() -> Dataset {
        run_campaign(
            &airport(2),
            &CampaignConfig {
                passes_per_trajectory: 3,
                mode: MobilityMode::walking(),
                base_seed: 4,
                max_duration_s: 60,
                bad_gps_fraction: 0.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn replay_preserves_every_record() {
        let ds = small_campaign();
        let src = ReplaySource::from_dataset(&ds, 4);
        assert_eq!(src.len(), ds.len());
        let ues: BTreeSet<u64> = src.events().iter().map(|(ue, _)| *ue).collect();
        assert_eq!(ues.len(), 4);
    }

    #[test]
    fn per_ue_streams_are_time_ordered_within_passes() {
        let ds = small_campaign();
        let src = ReplaySource::from_dataset(&ds, 3);
        let mut last: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
        for (ue, r) in src.events() {
            if let Some(&(pass, t)) = last.get(ue) {
                if r.pass_id == pass {
                    assert_eq!(r.t, t + 1, "ue {ue} jumped within pass {pass}");
                }
            }
            last.insert(*ue, (r.pass_id, r.t));
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let ds = small_campaign();
        let a = ReplaySource::from_dataset(&ds, 5);
        let b = ReplaySource::from_dataset(&ds, 5);
        assert_eq!(a.events().len(), b.events().len());
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1, y.1);
        }
    }
}
