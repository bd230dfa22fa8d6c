//! Reproduction harness: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p lumos5g-bench --bin repro -- <experiment> [--scale quick|std|paper] [--seed N]
//! cargo run --release -p lumos5g-bench --bin repro -- all
//! ```
//!
//! Outputs are printed and saved as CSV under `results/`. See DESIGN.md for
//! the experiment index and EXPERIMENTS.md for paper-vs-measured numbers.
//!
//! `--save-models DIR` persists each experiment's fitted GDBT model as
//! `DIR/{experiment_key}.l5gm`; a later run with `--load-models DIR` skips
//! those fits and produces bit-identical outputs from the saved models.
//! A model that cannot be saved, or a checkpoint that cannot be written,
//! fails the run with a non-zero exit naming the path.
//!
//! `--checkpoint-every N` makes every GDBT / Seq2Seq fit write its full
//! training state atomically to `--ckpt-dir` (default
//! `results/checkpoints`) every N boosting rounds / epochs; after a crash,
//! rerunning with `--resume` picks training up from the last durable
//! checkpoint and produces bit-identical models. `--die-after-checkpoints
//! N` aborts the process (exit 137, like a SIGKILL) right after the Nth
//! checkpoint write, for crash-recovery testing.

use lumos5g_bench::experiments::context::{CheckpointPlan, Context, ModelStore, Scale};
use lumos5g_bench::experiments::{ablate, impact, mlres};
use std::path::PathBuf;

type Runner = fn(&mut Context) -> String;

const EXPERIMENTS: &[(&str, &str, Runner)] = &[
    (
        "table4",
        "Tables 4 & 10: factor analysis (CV/normality/Spearman/KNN/RF)",
        impact::table4,
    ),
    (
        "table5",
        "Table 5: pairwise t-test / Levene across geolocations",
        impact::table5,
    ),
    (
        "fig6",
        "Fig 6: indoor/outdoor throughput maps",
        impact::fig6,
    ),
    ("fig7", "Fig 7: p-value and CV CDFs", impact::fig7),
    (
        "fig8",
        "Fig 8: throughput by mobility angle θm",
        impact::fig8,
    ),
    ("fig9", "Fig 9: NB vs SB maps", impact::fig9),
    (
        "fig10",
        "Fig 10: Spearman by direction grouping",
        impact::fig10,
    ),
    (
        "fig11",
        "Fig 11: throughput vs UE-panel distance",
        impact::fig11,
    ),
    (
        "fig13",
        "Fig 13: positional sector × distance",
        impact::fig13,
    ),
    (
        "fig14",
        "Fig 14: throughput vs speed, walk vs drive",
        impact::fig14,
    ),
    (
        "fig16",
        "Fig 16: sample regression traces ±200 Mbps",
        mlres::fig16,
    ),
    ("fig17", "Fig 17: extended normality/Levene", impact::fig17),
    ("fig18", "Fig 18: θm per panel", impact::fig18),
    (
        "fig19",
        "Figs 19-20: direction conditioning deltas",
        impact::fig19_20,
    ),
    (
        "fig21",
        "Fig 21: staggered multi-UE congestion",
        impact::fig21,
    ),
    ("fig22", "Fig 22: GDBT feature importance", mlres::fig22),
    (
        "fig23",
        "Fig 23: per-area baseline comparison",
        mlres::fig23,
    ),
    ("table7", "Table 7: classification results", mlres::table7),
    ("table8", "Table 8: regression results", mlres::table8),
    (
        "table9",
        "Table 9: Global baseline comparison",
        mlres::table9,
    ),
    (
        "transfer",
        "§6.2: cross-panel transferability",
        mlres::transfer,
    ),
    ("a4", "App A.4: 4G vs 5G predictability", mlres::a4),
    (
        "horizon",
        "Extension: Seq2Seq multi-step horizon MAE",
        mlres::horizon,
    ),
    (
        "mapmodel",
        "Extension: throughput-map-as-a-model vs GDBT",
        mlres::map_model,
    ),
    (
        "sensitivity",
        "Extension (§8.1): model sensitivity to sensor noise",
        mlres::sensitivity,
    ),
    (
        "temporal",
        "Extension (§8.1): temporal generalizability",
        mlres::temporal,
    ),
    (
        "ablate",
        "Ablations: TCP conns, pixelization, GDBT size, history, hysteresis",
        ablate::all,
    ),
];

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment|all|list> [--scale quick|std|paper] [--seed N] \
         [--save-models DIR] [--load-models DIR] \
         [--checkpoint-every N] [--ckpt-dir DIR] [--resume] \
         [--die-after-checkpoints N]\n"
    );
    eprintln!("experiments:");
    for (name, desc, _) in EXPERIMENTS {
        eprintln!("  {name:<10} {desc}");
    }
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut scale = Scale::Std;
    let mut seed = 42u64;
    let mut save_models: Option<PathBuf> = None;
    let mut load_models: Option<PathBuf> = None;
    let mut checkpoint_every = 0usize;
    let mut ckpt_dir = PathBuf::from("results/checkpoints");
    let mut resume = false;
    let mut die_after: Option<u64> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--save-models" => {
                i += 1;
                save_models = Some(args.get(i).map(PathBuf::from).unwrap_or_else(|| usage()));
            }
            "--load-models" => {
                i += 1;
                load_models = Some(args.get(i).map(PathBuf::from).unwrap_or_else(|| usage()));
            }
            "--checkpoint-every" => {
                i += 1;
                checkpoint_every = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--ckpt-dir" => {
                i += 1;
                ckpt_dir = args.get(i).map(PathBuf::from).unwrap_or_else(|| usage());
            }
            "--resume" => resume = true,
            "--die-after-checkpoints" => {
                i += 1;
                die_after = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            other => targets.push(other.to_string()),
        }
        i += 1;
    }
    if save_models.is_some() && load_models.is_some() {
        eprintln!("--save-models and --load-models are mutually exclusive\n");
        usage();
    }
    if targets.iter().any(|t| t == "list") {
        usage();
    }

    let run_all = targets.iter().any(|t| t == "all");
    let mut ctx = Context::new(scale, seed);
    ctx.models = match (save_models, load_models) {
        (Some(dir), _) => Some(ModelStore { dir, load: false }),
        (None, Some(dir)) => Some(ModelStore { dir, load: true }),
        (None, None) => None,
    };
    if checkpoint_every > 0 || resume || die_after.is_some() {
        ctx.checkpoints = Some(CheckpointPlan::new(
            ckpt_dir,
            checkpoint_every,
            resume,
            die_after,
        ));
    }
    let mut ran = 0;
    for (name, desc, runner) in EXPERIMENTS {
        if run_all || targets.iter().any(|t| t == name) {
            eprintln!("--- running {name}: {desc} (scale {scale:?}, seed {seed})");
            let started = std::time::Instant::now();
            let output = runner(&mut ctx);
            println!("{output}");
            eprintln!(
                "--- {name} done in {:.1}s\n",
                started.elapsed().as_secs_f64()
            );
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("unknown experiment(s): {targets:?}\n");
        usage();
    }
}
