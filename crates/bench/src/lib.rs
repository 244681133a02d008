//! # qcm-bench — experiment harness for the paper's tables and figures
//!
//! This crate contains the shared machinery of the `experiments` binary
//! (`cargo run --release -p qcm-bench --bin experiments -- <experiment>`),
//! which regenerates every table and figure of the paper's Section 7 at the
//! stand-in-dataset scale (its module docs list the experiments).
//!
//! Performance is measured by the benchmark of record (`BENCHMARK.json` +
//! `benchmark/`), which reuses [`scaled`] and [`suite::peak_rss_bytes`] from
//! here.

pub mod report;
pub mod runner;
pub mod scaled;
pub mod suite;

pub use report::Table;
pub use runner::{run_dataset, DatasetRun, RunOptions};
