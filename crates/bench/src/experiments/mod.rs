//! Experiment implementations — one module cluster per group of paper
//! artifacts. See DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured numbers.

pub mod ablate;
pub mod context;
pub mod impact;
pub mod mlres;

use std::fs;
use std::path::Path;

/// Write one experiment artifact to `results/<file>`, creating `results/`
/// first.
///
/// # Panics
///
/// With the path and the I/O error when the directory or the file cannot
/// be written: a run that cannot save its results must fail rather than
/// report success over stale CSVs.
pub fn save_result(file: impl AsRef<Path>, contents: impl AsRef<[u8]>) {
    let dir = Path::new("results");
    let path = dir.join(file);
    if let Err(e) = fs::create_dir_all(dir).and_then(|()| fs::write(&path, contents)) {
        panic!("cannot write {}: {e}", path.display());
    }
}
