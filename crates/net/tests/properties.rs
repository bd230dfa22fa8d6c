//! Property-based tests of the network substrate: each property checks
//! inputs drawn from a fixed-seed generator (no shrinking).

use lumos5g_net::{
    BulkSession, ConnectionManager, HandoffConfig, PanelScheduler, RadioType, TcpConfig,
};
use lumos5g_radio::PanelSignal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sig(id: u32, rsrp: f64, sinr: f64, cap: f64) -> PanelSignal {
    PanelSignal {
        panel_id: id,
        rsrp_dbm: rsrp,
        sinr_db: sinr,
        capacity_mbps: cap,
        los: true,
        distance_m: 50.0,
        theta_p_deg: 0.0,
        theta_m_deg: 180.0,
    }
}

#[test]
fn goodput_conservation() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..32 {
        let caps: Vec<f64> = (0..rng.gen_range(3..30))
            .map(|_| rng.gen_range(0.0..2500.0))
            .collect();
        let (seed, conns) = (rng.gen_range(0..1000), rng.gen_range(1..12));
        let cfg = TcpConfig {
            connections: conns,
            ..TcpConfig::iperf_default()
        };
        let mut s = BulkSession::new(cfg, seed);
        let mut total_bytes = 0.0;
        for &c in &caps {
            let g = s.step_second(c);
            assert!(
                g >= 0.0 && g <= c + 1e-9,
                "goodput {g} vs capacity {c}: caps={caps:?} seed={seed} conns={conns}"
            );
            total_bytes += g * 1e6 / 8.0;
        }
        assert!(
            (s.total_bytes() - total_bytes).abs() < 1.0,
            "caps={caps:?} seed={seed} conns={conns}"
        );
    }
}

#[test]
fn scheduler_allocations_sum_to_airtime_share() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..32 {
        let caps: Vec<f64> = (0..rng.gen_range(1..8))
            .map(|_| rng.gen_range(1.0..2000.0))
            .collect();
        let mut sched = PanelScheduler::new();
        for (i, &c) in caps.iter().enumerate() {
            sched.register(i as u64, c);
        }
        let alloc = sched.allocate();
        let n = caps.len() as f64;
        for (i, &c) in caps.iter().enumerate() {
            assert!((alloc[&(i as u64)] - c / n).abs() < 1e-9, "caps={caps:?}");
        }
    }
}

#[test]
fn handoff_capacity_never_negative() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..32 {
        let rsrps: Vec<f64> = (0..rng.gen_range(5..25))
            .map(|_| rng.gen_range(-130.0..-50.0))
            .collect();
        let lte = rng.gen_range(0.0..280.0);
        let mut mgr = ConnectionManager::new(HandoffConfig::default());
        let mut session = BulkSession::new(TcpConfig::iperf_default(), 1);
        for (t, &r) in rsrps.iter().enumerate() {
            let sinr = r + 79.0;
            let cap = lumos5g_radio::capacity_mbps(sinr, &Default::default());
            let d = mgr.step(&[sig(1, r, sinr, cap)], lte, &mut session);
            assert!(d.capacity_mbps >= 0.0, "t={t} rsrps={rsrps:?} lte={lte}");
            // Serving panel set iff on 5G.
            assert_eq!(
                d.serving_panel.is_some(),
                d.radio == RadioType::FiveG,
                "t={t} rsrps={rsrps:?} lte={lte}"
            );
        }
    }
}

#[test]
fn strong_stable_signal_eventually_attaches_5g() {
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..32 {
        let rsrp = rng.gen_range(-75.0..-55.0);
        let mut mgr = ConnectionManager::new(HandoffConfig::default());
        let mut session = BulkSession::new(TcpConfig::iperf_default(), 2);
        let mut attached = false;
        for _ in 0..5 {
            let sinr = rsrp + 79.0;
            let d = mgr.step(&[sig(1, rsrp, sinr, 1500.0)], 120.0, &mut session);
            attached = d.radio == RadioType::FiveG;
        }
        assert!(attached, "rsrp={rsrp}");
    }
}
