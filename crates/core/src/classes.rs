//! Throughput classes (§5.2).
//!
//! The paper casts qualitative prediction as 3-way classification with
//! boundaries at 300 and 700 Mbps, chosen because mmWave throughput
//! fluctuates ±200 Mbps from uncontrollable effects. The low class's recall
//! is a first-class metric: predicting "high" when the truth is "low"
//! stalls a video, the reverse merely lowers quality.

/// Qualitative throughput level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ThroughputClass {
    /// Below 300 Mbps (4G-like or worse).
    Low = 0,
    /// 300–700 Mbps.
    Medium = 1,
    /// Above 700 Mbps (mmWave working as advertised).
    High = 2,
}

impl ThroughputClass {
    /// Lower boundary of the Medium class, Mbps.
    pub const LOW_BOUNDARY_MBPS: f64 = 300.0;
    /// Lower boundary of the High class, Mbps.
    pub const HIGH_BOUNDARY_MBPS: f64 = 700.0;
    /// Number of classes.
    pub const COUNT: usize = 3;

    /// Classify a throughput value.
    pub fn of(throughput_mbps: f64) -> Self {
        if throughput_mbps < Self::LOW_BOUNDARY_MBPS {
            ThroughputClass::Low
        } else if throughput_mbps < Self::HIGH_BOUNDARY_MBPS {
            ThroughputClass::Medium
        } else {
            ThroughputClass::High
        }
    }

    /// Class index (0 = Low).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Class indices of a run of throughputs (Mbps) — how the families
    /// without a native classifier classify (§6.1).
    pub(crate) fn indices(throughputs: &[f64]) -> Vec<usize> {
        throughputs.iter().map(|&y| Self::of(y).index()).collect()
    }

    /// From a class index.
    pub fn from_index(i: usize) -> Option<Self> {
        match i {
            0 => Some(ThroughputClass::Low),
            1 => Some(ThroughputClass::Medium),
            2 => Some(ThroughputClass::High),
            _ => None,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ThroughputClass::Low => "low",
            ThroughputClass::Medium => "medium",
            ThroughputClass::High => "high",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_match_paper() {
        assert_eq!(ThroughputClass::of(0.0), ThroughputClass::Low);
        assert_eq!(ThroughputClass::of(299.999), ThroughputClass::Low);
        assert_eq!(ThroughputClass::of(300.0), ThroughputClass::Medium);
        assert_eq!(ThroughputClass::of(699.999), ThroughputClass::Medium);
        assert_eq!(ThroughputClass::of(700.0), ThroughputClass::High);
        assert_eq!(ThroughputClass::of(2000.0), ThroughputClass::High);
    }

    #[test]
    fn index_roundtrip() {
        for c in [
            ThroughputClass::Low,
            ThroughputClass::Medium,
            ThroughputClass::High,
        ] {
            assert_eq!(ThroughputClass::from_index(c.index()), Some(c));
        }
        assert_eq!(ThroughputClass::from_index(3), None);
    }

    #[test]
    fn ordering_is_by_level() {
        assert!(ThroughputClass::Low < ThroughputClass::Medium);
        assert!(ThroughputClass::Medium < ThroughputClass::High);
    }
}
