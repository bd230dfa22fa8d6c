//! Per-panel radio resource sharing across UEs.
//!
//! App A.1.4 of the paper staggers iPerf sessions on four side-by-side UEs
//! attached to one panel and observes each join roughly halving the incumbent
//! throughput (Fig 21). With symmetric channels, proportional-fair
//! scheduling degenerates to an equal split of airtime, which is what we
//! implement: each attached UE receives `capacity_i / n` where `capacity_i`
//! is the rate its own channel could sustain if scheduled alone.

use std::collections::HashMap;

/// Equal-airtime scheduler for one 5G panel.
#[derive(Debug, Clone, Default)]
pub struct PanelScheduler {
    /// UE id → solo link capacity (Mbps) this tick.
    demands: HashMap<u64, f64>,
}

impl PanelScheduler {
    /// Fresh scheduler (call per tick or reuse with [`Self::clear`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register that UE `ue_id`, whose solo channel supports
    /// `solo_capacity_mbps`, wants to be scheduled this tick.
    pub fn register(&mut self, ue_id: u64, solo_capacity_mbps: f64) {
        self.demands.insert(ue_id, solo_capacity_mbps.max(0.0));
    }

    /// Number of attached UEs.
    pub fn attached(&self) -> usize {
        self.demands.len()
    }

    /// Allocated rate for each registered UE: equal airtime means each UE
    /// gets its own spectral efficiency divided by the number of sharers.
    pub fn allocate(&self) -> HashMap<u64, f64> {
        let n = self.demands.len().max(1) as f64;
        self.demands
            .iter()
            .map(|(&id, &cap)| (id, cap / n))
            .collect()
    }

    /// Allocation for a single UE, if registered.
    pub fn allocation_for(&self, ue_id: u64) -> Option<f64> {
        let n = self.demands.len().max(1) as f64;
        self.demands.get(&ue_id).map(|&cap| cap / n)
    }

    /// Drop all registrations.
    pub fn clear(&mut self) {
        self.demands.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ue_gets_full_capacity() {
        let mut s = PanelScheduler::new();
        s.register(1, 1800.0);
        assert_eq!(s.allocation_for(1), Some(1800.0));
    }

    #[test]
    fn second_ue_halves_the_first() {
        let mut s = PanelScheduler::new();
        s.register(1, 1800.0);
        s.register(2, 1800.0);
        assert_eq!(s.allocation_for(1), Some(900.0));
        assert_eq!(s.allocation_for(2), Some(900.0));
    }

    #[test]
    fn four_ues_quarter_the_rate() {
        let mut s = PanelScheduler::new();
        for id in 1..=4 {
            s.register(id, 1600.0);
        }
        for id in 1..=4 {
            assert_eq!(s.allocation_for(id), Some(400.0));
        }
    }

    #[test]
    fn asymmetric_channels_share_airtime_not_rate() {
        let mut s = PanelScheduler::new();
        s.register(1, 2000.0); // great channel
        s.register(2, 400.0); // poor channel
        assert_eq!(s.allocation_for(1), Some(1000.0));
        assert_eq!(s.allocation_for(2), Some(200.0));
    }

    #[test]
    fn negative_capacity_clamped_to_zero() {
        let mut s = PanelScheduler::new();
        s.register(1, -50.0);
        assert_eq!(s.allocation_for(1), Some(0.0));
    }
}
