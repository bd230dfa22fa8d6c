//! Lumos5G performance benchmark: three workloads, one JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-gdbt|serve-gdbt|serve-seq2seq --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics instead (spans around the
//! calls into each crate, engine counters, per-thread CPU) and writes the
//! spans to `perfbench/out/`. The last line of standard output is the
//! result object; a failed correctness gate prints it with
//! `"correct": false` and exits with status 1. See `perfbench/README.md`.

mod data;
mod gen;
mod serve;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("mae_mbps", "Mbps"),
    ("wf1", "frac"),
    ("peak_rss_mb", "MB"),
    ("p50_ms.lo", "ms"),
    ("p50_ms.hi", "ms"),
    ("cpu_us_per_pred", "us"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("sim.campaign_s", "s"),
    ("sim.quality_s", "s"),
    ("sim.records", "count"),
    ("tabular.build_s", "s"),
    ("tabular.rows", "count"),
    ("tabular.seq_build_s", "s"),
    ("tabular.sequences", "count"),
    ("gbdt.fit_reg_s", "s"),
    ("gbdt.fit_cls_s", "s"),
    ("gbdt.trees", "count"),
    ("tree.fit_ms", "ms"),
    ("gbdt.eval_s", "s"),
    ("gbdt.predict_ns", "ns"),
    ("s2s.fit_s", "s"),
    ("nn.decode_us.b1", "us"),
    ("nn.decode_us.b8", "us"),
    ("persist.store_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("registry.current_ns", "ns"),
    ("session.push_ns", "ns"),
    ("features.extract_ns", "ns"),
    ("session.history_ns", "ns"),
    ("engine.offer_ns", "ns"),
    ("engine.latency_ms.p50", "ms"),
    ("engine.latency_ms.p99", "ms"),
    ("queue.depth_max", "count"),
    ("shard.cpu_us_per_rec", "us"),
    ("shard.busy_frac.hi", "frac"),
    ("shard.decode_batch.lo", "records"),
    ("shard.decode_batch.hi", "records"),
    ("main.cpu_us_per_rec", "us"),
    ("engine.predict_frac", "frac"),
    ("engine.resets", "count"),
    ("engine.fallbacks", "count"),
    ("engine.gap_us_per_rec", "us"),
    ("shadow.self_us_per_rec", "us"),
    ("p99_ms.lo", "ms"),
    ("p99_ms.hi", "ms"),
    ("gen.late_ms.p50", "ms"),
    ("gen.late_ms.max", "ms"),
    ("hm_mae_mbps", "Mbps"),
    ("trace.overhead_frac", "frac"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Root seed of every generated input.
    pub seed: u64,
    /// Measured time budget, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str = "usage: lumos5g-perfbench --workload train-gdbt|serve-gdbt|serve-seq2seq \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back: the gates' verdict, operation counts and
/// the metrics it measured (by catalogue name).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness gates, one line each.
    pub violations: Vec<String>,
    /// Operations attempted (records offered, rows predicted, fits).
    pub attempted: u64,
    /// Operations that failed (lost, shed, rejected, degraded).
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Check a correctness gate; a false condition is recorded, not fatal.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Where a run may write (spans, the model store): `perfbench/out/`,
/// inside the checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Print each layer's calls, total and self time to standard error.
pub fn print_layers(spans: usize, layers: &BTreeMap<&'static str, trace::LayerTotals>) {
    eprintln!("{spans} spans");
    eprintln!(
        "{:<20} {:>9} {:>12} {:>12} {:>14}",
        "span", "calls", "total_ms", "self_ms", "self_ns/call"
    );
    for (name, t) in layers {
        eprintln!(
            "{name:<20} {:>9} {:>12.3} {:>12.3} {:>14.1}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.mean_self_ns()
        );
    }
}

fn json_line(outcome: &Outcome, catalogue: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut outcome = match args.workload.as_str() {
        "train-gdbt" => train::run(&args, process_start),
        "serve-gdbt" => serve::run(&args, process_start, serve::Family::Gdbt),
        "serve-seq2seq" => serve::run(&args, process_start, serve::Family::Seq2Seq),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let catalogue: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        outcome.set("peak_rss_mb", trace::peak_rss_mb());
        for (name, _) in END_TO_END {
            outcome.gate(outcome.metrics.get(name).is_some_and(|v| *v > 0.0), || {
                format!("end-to-end metric {name} was not measured")
            });
        }
        &END_TO_END
    };
    for v in &outcome.violations {
        eprintln!("CORRECTNESS GATE FAILED: {v}");
    }
    match json_line(&outcome, catalogue) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    if !outcome.violations.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly this catalogue.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let entries = text.matches("\"name\":").count();
        let workloads = text.matches("\"why\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + workloads);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let mut xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
    }

    #[test]
    fn json_line_prints_every_catalogue_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Default::default()
        };
        o.set("setup_s", 1.25);
        let line = json_line(&o, &END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"cpu_us_per_pred\": {\"value\": 0, \"unit\": \"us\"}"));
        o.set("wf1", f64::NAN);
        assert!(json_line(&o, &END_TO_END).is_err());
    }
}
