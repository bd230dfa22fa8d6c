//! `repro` must fail loudly when it cannot write its results: a run that
//! exits 0 while `results/` is unwritable leaves stale CSVs looking fresh.

use std::process::Command;

#[test]
fn repro_fails_when_results_cannot_be_written() {
    let cwd = std::env::temp_dir().join(format!("l5g-repro-unwritable-{}", std::process::id()));
    std::fs::remove_dir_all(&cwd).ok();
    std::fs::create_dir_all(&cwd).unwrap();
    // A regular file where the results directory should be.
    std::fs::write(cwd.join("results"), b"not a directory").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig8", "--scale", "quick"])
        .current_dir(&cwd)
        .output()
        .expect("spawn repro");
    std::fs::remove_dir_all(&cwd).ok();

    assert!(
        !out.status.success(),
        "repro exited {:?} although results/ is a regular file",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("results/fig8_theta_m.csv"),
        "the failure names the path it could not write: {stderr}"
    );
}
