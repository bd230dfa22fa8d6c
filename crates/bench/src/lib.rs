//! Support library for the reproduction harness.
//!
//! The interesting entry points are the binaries:
//! - `src/bin/repro.rs` — regenerates every table and figure of the paper
//!   (see DESIGN.md for the experiment index).
//! - `src/bin/export_dataset.rs` — writes the simulated campaigns as CSV
//!   datasets.
//!
//! Performance is measured by the repository benchmark, `perfbench/`.

pub mod experiments;
pub mod table;

pub use experiments::context::{Context, Scale};
pub use table::TableWriter;
