//! Minimal end-to-end tour of `lumos5g-serve`: train a model, start the
//! sharded engine, stream a simulated campaign through it, hot-swap the
//! model mid-stream, and print the engine report.
//!
//! ```sh
//! cargo run --release --example serving_quickstart
//! ```

use lumos5g::prelude::*;
use lumos5g_serve::{Engine, EngineConfig, ReplaySource};
use lumos5g_sim::{airport, quality, run_campaign, CampaignConfig};

fn main() {
    // Simulate a small drive-test campaign to get training + replay data.
    let area = airport(7);
    let cfg = CampaignConfig {
        passes_per_trajectory: 2,
        max_duration_s: 150,
        base_seed: 7,
        bad_gps_fraction: 0.0,
        ..Default::default()
    };
    let (data, _) = quality::apply(&run_campaign(&area, &cfg), &area.frame, &Default::default());
    println!("campaign: {} records", data.records.len());

    // Train the model the engine will serve.
    let model = Lumos5G::new(FeatureSet::LMC, ModelKind::Gdbt(quick_gbdt()))
        .fit_regression(&data)
        .expect("fit");

    // Start the engine (4 shards by default) and stream the campaign
    // through it as a multi-UE feed.
    let engine = Engine::start(model, EngineConfig::default());
    let source = ReplaySource::from_dataset(&data, 16);
    let events = source.len();
    let rx = engine.responses().clone();
    let consumer =
        std::thread::spawn(move || rx.iter().filter(|p| p.predicted_mbps.is_some()).count());

    source.run(&engine);

    // Hot-swap a retrained model mid-service: new sessions pick up the new
    // version atomically, nothing is dropped or reordered.
    let retrained = Lumos5G::new(FeatureSet::LM, ModelKind::Gdbt(quick_gbdt()))
        .fit_regression(&data)
        .expect("refit");
    let version = engine.registry().swap(retrained);
    source.run(&engine); // second pass served by v2

    let (report, responses) = engine.shutdown();
    drop(responses);
    let predictions = consumer.join().expect("consumer");
    println!(
        "served {} events twice ({} processed), {} predictions, model v{version}",
        events, report.processed, predictions
    );
    println!(
        "p50 {:.1} us  p95 {:.1} us  p99 {:.1} us  online MAE {:.1} Mbps",
        report.p50_ns as f64 / 1e3,
        report.p95_ns as f64 / 1e3,
        report.p99_ns as f64 / 1e3,
        report.mae_mbps.unwrap_or(f64::NAN)
    );
}
