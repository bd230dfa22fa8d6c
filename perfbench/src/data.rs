//! Generated inputs shared by the workloads: seeded 3-area campaigns and
//! the GDBT configuration they are fitted with.

use crate::gen::child;
use crate::Outcome;
use lumos5g::ThroughputClass;
use lumos5g_ml::GbdtConfig;
use lumos5g_sim::{
    airport, intersection, loop_area, quality, run_campaign, CampaignConfig, Dataset, MobilityMode,
    Record,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Walking passes per trajectory in every campaign (≈ 8.4k records over
/// the three areas).
pub const PASSES: usize = 2;

/// The std-scale GDBT of `repro` (Tables 7/8): 150 trees of depth 6.
pub fn std_gbdt(seed: u64) -> GbdtConfig {
    GbdtConfig {
        n_estimators: 150,
        max_depth: 6,
        learning_rate: 0.12,
        min_samples_leaf: 5,
        subsample: 0.8,
        seed,
    }
}

/// Campaign generation times and size, summed over the three areas.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCost {
    /// Seconds inside `run_campaign`.
    pub campaign_s: f64,
    /// Seconds inside `quality::apply`.
    pub quality_s: f64,
}

/// Seed of the campaign every model is trained on. Campaigns are fixed
/// inputs, the same for every `--seed`, so that run-to-run differences in
/// training cost and accuracy come from the code, not from data volume.
pub const TRAINING_CAMPAIGN: u64 = 0x7EA1;
/// Seed of the campaign the serving workloads replay.
pub const SERVING_CAMPAIGN: u64 = 0x5E2F;

/// A cleaned walking campaign over the Intersection, Airport and Loop
/// areas. The area layouts are fixed; `key` seeds the passes.
pub fn campaign(key: u64) -> (Dataset, SimCost) {
    let mut cost = SimCost::default();
    let mut all = Dataset::default();
    for (i, area) in [intersection(1), airport(1), loop_area(1)]
        .iter()
        .enumerate()
    {
        let cfg = CampaignConfig {
            passes_per_trajectory: PASSES,
            mode: MobilityMode::walking(),
            base_seed: child(key, i as u64),
            gps_sigma_m: 2.2,
            bad_gps_fraction: 0.06,
            max_duration_s: 1200,
            handoff: Default::default(),
            logger: Default::default(),
        };
        let t = Instant::now();
        let raw = run_campaign(area, &cfg);
        cost.campaign_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (clean, _) = quality::apply(&raw, &area.frame, &Default::default());
        cost.quality_s += t.elapsed().as_secs_f64();
        all.extend(clean);
    }
    (all, cost)
}

/// Record the campaigns' layer costs and size.
pub fn report_sim(out: &mut Outcome, records: usize, cost: SimCost) {
    out.set("sim.campaign_s", cost.campaign_s);
    out.set("sim.quality_s", cost.quality_s);
    out.set("sim.records", records as f64);
}

/// The campaign's passes laid end to end, each in time order — the tape
/// the many-UE generator replays.
pub fn tape(data: &Dataset) -> Vec<Record> {
    let mut passes: BTreeMap<(u32, u32), Vec<&Record>> = BTreeMap::new();
    for r in &data.records {
        passes.entry((r.trajectory, r.pass_id)).or_default().push(r);
    }
    passes
        .into_values()
        .flat_map(|mut pass| {
            pass.sort_by_key(|r| r.t);
            pass.into_iter().cloned()
        })
        .collect()
}

/// Confusion counts over the paper's three throughput classes (<300,
/// 300–700, >700 Mbps) of measured vs. predicted throughput, kept as
/// counts so that millions of served predictions need no label vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    m: [[u64; ThroughputClass::COUNT]; ThroughputClass::COUNT],
}

impl ClassCounts {
    /// Count one (measured, predicted) pair, Mbps.
    pub fn add(&mut self, truth_mbps: f64, pred_mbps: f64) {
        self.m[ThroughputClass::of(truth_mbps).index()][ThroughputClass::of(pred_mbps).index()] +=
            1;
    }

    /// Support-weighted F1, with `lumos5g_ml::ClassificationReport`'s
    /// conventions (an undefined precision, recall or F1 counts as 0).
    pub fn weighted_f1(&self) -> f64 {
        let n = ThroughputClass::COUNT;
        let (mut weighted, mut total) = (0.0, 0u64);
        for c in 0..n {
            let tp = self.m[c][c];
            let support: u64 = self.m[c].iter().sum();
            let predicted: u64 = (0..n).map(|i| self.m[i][c]).sum();
            let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
            let (p, r) = (ratio(tp, predicted), ratio(tp, support));
            let f1 = if p + r > 0.0 {
                2.0 * p * r / (p + r)
            } else {
                0.0
            };
            weighted += f1 * support as f64;
            total += support;
        }
        if total > 0 {
            weighted / total as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos5g_ml::ClassificationReport;

    #[test]
    fn class_counts_agree_with_the_classification_report() {
        let truth = [100.0, 250.0, 400.0, 800.0, 900.0, 650.0, 20.0, 720.0];
        let pred = [120.0, 350.0, 380.0, 650.0, 950.0, 100.0, 310.0, 701.0];
        let mut counts = ClassCounts::default();
        for (&t, &p) in truth.iter().zip(&pred) {
            counts.add(t, p);
        }
        let labels = |ys: &[f64]| -> Vec<usize> {
            ys.iter().map(|&y| ThroughputClass::of(y).index()).collect()
        };
        let report = ClassificationReport::from_labels(
            &labels(&truth),
            &labels(&pred),
            ThroughputClass::COUNT,
        );
        assert_eq!(counts.weighted_f1(), report.weighted_f1);
    }
}
