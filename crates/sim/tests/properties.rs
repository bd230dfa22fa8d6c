//! Property-based tests of the campaign simulator and dataset I/O: each
//! property checks inputs drawn from a fixed-seed generator (no shrinking).

use lumos5g_sim::{airport, quality, run_campaign, CampaignConfig, Dataset, MobilityMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn csv_parser_never_panics_on_junk() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..24 {
        // Mostly printable ASCII, with the newlines and commas that a
        // line/field-oriented parser splits on.
        let junk: String = (0..rng.gen_range(0..=300))
            .map(|_| match rng.gen_range(0..20) {
                0 => '\n',
                1 => ',',
                _ => char::from(rng.gen_range(0x20u8..0x7F)),
            })
            .collect();
        // Arbitrary text must yield Ok or Err, never a panic.
        let parsed = std::panic::catch_unwind(|| Dataset::from_csv(&junk));
        assert!(parsed.is_ok(), "junk={junk:?}");
    }
}

#[test]
fn csv_parser_rejects_truncated_rows() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..24 {
        let ncols = rng.gen_range(1..26);
        let row = vec!["1"; ncols].join(",");
        let text = format!("{}\n{}\n", Dataset::CSV_HEADER, row);
        assert!(Dataset::from_csv(&text).is_err(), "ncols={ncols}");
    }
}

#[test]
fn campaign_invariants_hold() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..6 {
        let seed = rng.gen_range(0..1000);
        let area = airport(seed);
        let cfg = CampaignConfig {
            passes_per_trajectory: 1,
            mode: MobilityMode::walking(),
            base_seed: seed,
            max_duration_s: 120,
            bad_gps_fraction: 0.2,
            ..Default::default()
        };
        let raw = run_campaign(&area, &cfg);
        assert!(!raw.is_empty(), "seed={seed}");
        for r in &raw.records {
            assert!(r.throughput_mbps >= 0.0, "seed={seed} record={r:?}");
            assert!(
                r.throughput_mbps <= 2_000.0 + 1e-9,
                "seed={seed} record={r:?}"
            );
            assert!(r.moving_speed_mps >= 0.0, "seed={seed} record={r:?}");
            assert!(
                (0.0..360.0).contains(&r.compass_deg),
                "seed={seed} record={r:?}"
            );
            assert!(
                (0.0..360.0).contains(&r.theta_p_deg),
                "seed={seed} record={r:?}"
            );
            assert!(
                (0.0..360.0).contains(&r.theta_m_deg),
                "seed={seed} record={r:?}"
            );
            assert!(r.panel_distance_m > 0.0, "seed={seed} record={r:?}");
            assert!(r.gps_accuracy_m > 0.0, "seed={seed} record={r:?}");
            // On LTE the throughput must be 4G-like.
            if !r.on_5g {
                assert!(
                    r.throughput_mbps <= 280.0 + 1e-9,
                    "seed={seed} record={r:?}"
                );
                assert_eq!(r.cell_id, 1000, "seed={seed} record={r:?}");
            } else {
                assert!(r.cell_id < 1000, "seed={seed} record={r:?}");
            }
        }
        // Quality pipeline never increases record count and always trims
        // the buffer.
        let (clean, report) = quality::apply(&raw, &area.frame, &Default::default());
        assert!(clean.len() <= raw.len(), "seed={seed}");
        assert_eq!(report.records_in, raw.len(), "seed={seed}");
        assert_eq!(report.records_out, clean.len(), "seed={seed}");
        assert!(clean.records.iter().all(|r| r.t >= 10), "seed={seed}");
    }
}
