//! `repro` must fail loudly when it cannot write what it was asked to: a
//! run that exits 0 while `results/`, the model store or the checkpoint
//! directory is unwritable reports success without the files.

use std::process::{Command, Output};

/// Run `repro` with `args` in a fresh scratch directory holding a regular
/// file named `blocker`, which the arguments point a directory at.
fn repro_with_blocker(blocker: &str, args: &[&str]) -> Output {
    let cwd = std::env::temp_dir().join(format!("l5g-repro-{blocker}-{}", std::process::id()));
    std::fs::remove_dir_all(&cwd).ok();
    std::fs::create_dir_all(&cwd).unwrap();
    std::fs::write(cwd.join(blocker), b"not a directory").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("spawn repro");
    std::fs::remove_dir_all(&cwd).ok();
    out
}

fn assert_fails_naming(out: &Output, path: &str) {
    assert!(
        !out.status.success(),
        "repro exited {:?} although {path} cannot be written",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(path),
        "the failure names the path it could not write: {stderr}"
    );
}

#[test]
fn repro_fails_when_results_cannot_be_written() {
    let out = repro_with_blocker("results", &["fig8", "--scale", "quick"]);
    assert_fails_naming(&out, "results/fig8_theta_m.csv");
}

#[test]
fn repro_fails_when_models_cannot_be_saved() {
    let args = ["fig22", "--scale", "quick", "--save-models", "models"];
    let out = repro_with_blocker("models", &args);
    assert_fails_naming(&out, "models/");
}

#[test]
fn repro_fails_when_checkpoints_cannot_be_written() {
    let args = [
        "fig22",
        "--scale",
        "quick",
        "--checkpoint-every",
        "10",
        "--ckpt-dir",
        "ckpt",
    ];
    let out = repro_with_blocker("ckpt", &args);
    assert_fails_naming(&out, "ckpt");
}
