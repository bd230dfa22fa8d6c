//! Deterministic fault injection for chaos-testing the serving engine.
//!
//! Real mmWave telemetry is hostile: records arrive malformed, models can
//! be poisoned by bad retrains, and worker threads can die mid-stream. A
//! [`FaultPlan`] reproduces all of that *deterministically*: every fault
//! decision is a pure function of the plan's seed and the identity of the
//! record being served (`(ue, pass_id, t)` for in-shard faults, the replay
//! event index for source corruption). Two runs with the same seed inject
//! the exact same faults at the exact same records, regardless of shard
//! count or thread interleaving — which is what lets `tests/chaos.rs`
//! assert exact `panicked`/`restarted`/`fallbacks`/`rejected` counts.
//!
//! Fault taxonomy (rates in basis points, i.e. per 10 000 records):
//!
//! | fault          | where it bites                 | engine defense        |
//! |----------------|--------------------------------|-----------------------|
//! | `corrupt`      | record mutated at the source   | admission control     |
//! | `poison`       | panic inside session/extract   | quarantine + respond  |
//! | `predict panic`| `predict_one` unwinds          | harmonic fallback     |
//! | `predict nan`  | `predict_one` returns NaN      | harmonic fallback     |
//! | `predict slow` | `predict_one` blows the budget | harmonic fallback     |
//! | `kill`         | worker thread dies             | supervisor respawn    |

use lumos5g_sim::Record;

/// Basis-point denominator: rates are "records per 10 000".
pub const BP_SCALE: u64 = 10_000;

/// Stable identity of one in-flight record, used to key fault decisions so
/// they survive re-sharding and thread interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordKey {
    /// UE the record belongs to.
    pub ue: u64,
    /// Measurement pass.
    pub pass_id: u32,
    /// Second within the pass.
    pub t: u32,
}

impl RecordKey {
    /// Key for a record routed as `ue`.
    pub fn of(ue: u64, record: &Record) -> Self {
        RecordKey {
            ue,
            pass_id: record.pass_id,
            t: record.t,
        }
    }

    fn mixed(&self) -> u64 {
        splitmix(
            self.ue
                ^ (((self.pass_id as u64) << 32) | self.t as u64)
                    .wrapping_mul(0xA24B_AED4_963E_E407),
        )
    }
}

/// What the injector does to the model call for one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictFault {
    /// No fault: the model runs untouched.
    None,
    /// `predict_one` panics (a poisoned model).
    Panic,
    /// `predict_one` returns NaN (a silently broken model).
    Nan,
    /// `predict_one` exceeds the per-call time budget (a stuck model).
    Slow,
}

/// The full fault decision for one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordFault {
    /// Fault applied around the model call.
    pub predict: PredictFault,
    /// Panic inside session update / feature extraction (the record itself
    /// is poison): the shard must quarantine it and keep serving.
    pub poison: bool,
    /// Kill the worker thread after this record is answered: the engine
    /// supervisor must respawn the shard.
    pub kill_worker: bool,
}

impl RecordFault {
    /// The no-fault decision.
    pub const NONE: RecordFault = RecordFault {
        predict: PredictFault::None,
        poison: false,
        kill_worker: false,
    };
}

/// How a source record is corrupted before submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Throughput becomes NaN.
    NanThroughput,
    /// NR SS-RSRP becomes NaN.
    NanRsrp,
    /// Latitude becomes infinite.
    InfiniteCoord,
    /// GPS accuracy becomes an absurd 10 000 km.
    AbsurdGpsAccuracy,
}

/// A seeded, deterministic fault-injection plan.
///
/// All rates default to zero; [`FaultPlan::seeded`] picks a sustained-chaos
/// mix. A plan with all-zero rates is exactly inert: the engine behaves
/// bit-identically to running without one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// `predict_one` panic rate, basis points.
    pub predict_panic_bp: u32,
    /// `predict_one` NaN rate, basis points.
    pub predict_nan_bp: u32,
    /// `predict_one` over-budget rate, basis points.
    pub predict_slow_bp: u32,
    /// Poison-record (session/extract panic) rate, basis points.
    pub poison_bp: u32,
    /// Worker-kill rate, basis points.
    pub kill_bp: u32,
    /// Source-corruption rate, basis points.
    pub corrupt_bp: u32,
}

// Distinct salts so the per-record rolls for each fault type are
// independent draws from the same seed.
const SALT_PREDICT: u64 = 0x7065_7264_6963_7401;
const SALT_POISON: u64 = 0x706f_6973_6f6e_5f02;
const SALT_KILL: u64 = 0x6b69_6c6c_5f77_6b03;
const SALT_CORRUPT: u64 = 0x636f_7272_7570_7404;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An inert plan (all rates zero) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            predict_panic_bp: 0,
            predict_nan_bp: 0,
            predict_slow_bp: 0,
            poison_bp: 0,
            kill_bp: 0,
            corrupt_bp: 0,
        }
    }

    /// The standard sustained-chaos mix used by the chaos test suite
    /// (`tests/chaos.rs`): ~0.3 % model panics, ~0.3 % NaN predictions,
    /// ~0.2 % over-budget calls, ~0.1 % poison records, ~0.02 % worker
    /// kills and ~0.5 % corrupt source records.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            predict_panic_bp: 30,
            predict_nan_bp: 30,
            predict_slow_bp: 20,
            poison_bp: 10,
            kill_bp: 2,
            corrupt_bp: 50,
        }
    }

    /// A uniform roll in `0..BP_SCALE` for `key` under `salt`.
    fn roll(&self, salt: u64, mixed_key: u64) -> u64 {
        splitmix(self.seed ^ splitmix(salt) ^ mixed_key) % BP_SCALE
    }

    /// The fault decision for one in-shard record. Pure: same plan + same
    /// key → same decision, on any shard, in any run.
    pub fn fault_for(&self, key: RecordKey) -> RecordFault {
        let mixed = key.mixed();
        let poison = self.roll(SALT_POISON, mixed) < self.poison_bp as u64;
        let kill_worker = self.roll(SALT_KILL, mixed) < self.kill_bp as u64;
        // One roll splits across the three predict faults so their rates
        // never overlap on a single record.
        let p = self.roll(SALT_PREDICT, mixed);
        let (a, b, c) = (
            self.predict_panic_bp as u64,
            self.predict_nan_bp as u64,
            self.predict_slow_bp as u64,
        );
        let predict = if p < a {
            PredictFault::Panic
        } else if p < a + b {
            PredictFault::Nan
        } else if p < a + b + c {
            PredictFault::Slow
        } else {
            PredictFault::None
        };
        RecordFault {
            predict,
            poison,
            kill_worker,
        }
    }

    /// The corruption (if any) applied to the source record at replay
    /// position `event_index`.
    pub fn corruption_at(&self, event_index: u64) -> Option<Corruption> {
        if self.corrupt_bp == 0 {
            return None;
        }
        let mixed = splitmix(event_index.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        if self.roll(SALT_CORRUPT, mixed) >= self.corrupt_bp as u64 {
            return None;
        }
        Some(match splitmix(mixed ^ self.seed) % 4 {
            0 => Corruption::NanThroughput,
            1 => Corruption::NanRsrp,
            2 => Corruption::InfiniteCoord,
            _ => Corruption::AbsurdGpsAccuracy,
        })
    }

    /// Corrupt `record` in place per [`Self::corruption_at`]; returns true
    /// when a corruption was applied.
    pub fn corrupt_record(&self, event_index: u64, record: &mut Record) -> bool {
        match self.corruption_at(event_index) {
            None => false,
            Some(Corruption::NanThroughput) => {
                record.throughput_mbps = f64::NAN;
                true
            }
            Some(Corruption::NanRsrp) => {
                record.nr_ssrsrp_dbm = f64::NAN;
                true
            }
            Some(Corruption::InfiniteCoord) => {
                record.lat = f64::INFINITY;
                true
            }
            Some(Corruption::AbsurdGpsAccuracy) => {
                record.gps_accuracy_m = 1e7;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ue: u64, pass_id: u32, t: u32) -> RecordKey {
        RecordKey { ue, pass_id, t }
    }

    #[test]
    fn decisions_are_deterministic_for_a_seed() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        for ue in 0..50 {
            for t in 0..200 {
                let k = key(ue, 3, t);
                assert_eq!(a.fault_for(k), b.fault_for(k));
            }
        }
        for i in 0..10_000u64 {
            assert_eq!(a.corruption_at(i), b.corruption_at(i));
        }
    }

    #[test]
    fn different_seeds_disagree() {
        let a = FaultPlan::seeded(1);
        let b = FaultPlan::seeded(2);
        let mut same = 0;
        let mut total = 0;
        for ue in 0..20 {
            for t in 0..500 {
                let k = key(ue, 1, t);
                total += 1;
                if a.fault_for(k) == b.fault_for(k) {
                    same += 1;
                }
            }
        }
        // Faults are rare, so most records agree on "no fault" — but the
        // injected sets must not be identical.
        assert!(same < total, "seeds 1 and 2 injected identical faults");
    }

    #[test]
    fn inert_plan_injects_nothing() {
        let p = FaultPlan::new(7);
        for ue in 0..20 {
            for t in 0..500 {
                assert_eq!(p.fault_for(key(ue, 1, t)), RecordFault::NONE);
            }
        }
        for i in 0..5_000u64 {
            assert_eq!(p.corruption_at(i), None);
        }
    }

    #[test]
    fn seeded_rates_land_near_target() {
        let p = FaultPlan::seeded(9);
        let n = 200_000u64;
        let mut panics = 0u64;
        let mut kills = 0u64;
        let mut corrupt = 0u64;
        for i in 0..n {
            let f = p.fault_for(key(i % 64, (i / 64) as u32, i as u32));
            if f.predict == PredictFault::Panic {
                panics += 1;
            }
            if f.kill_worker {
                kills += 1;
            }
            if p.corruption_at(i).is_some() {
                corrupt += 1;
            }
        }
        let bp = |c: u64| c * BP_SCALE / n;
        assert!(
            (15..=45).contains(&bp(panics)),
            "panic rate {} bp",
            bp(panics)
        );
        assert!(bp(kills) <= 6, "kill rate {} bp", bp(kills));
        assert!(
            (30..=75).contains(&bp(corrupt)),
            "corrupt rate {} bp",
            bp(corrupt)
        );
    }

    #[test]
    fn corrupt_record_produces_inadmissible_values() {
        let p = FaultPlan::seeded(11);
        let mut kinds = std::collections::HashSet::new();
        for i in 0..50_000u64 {
            if let Some(c) = p.corruption_at(i) {
                kinds.insert(format!("{c:?}"));
            }
        }
        // All four corruption modes appear over a long stream.
        assert_eq!(kinds.len(), 4, "kinds seen: {kinds:?}");
    }
}
