//! # pspc-bench
//!
//! Experiment harness reproducing every table and figure of the PSPC
//! paper's evaluation (§V: Tables II–III, Exps 1–9) on synthetic stand-in
//! datasets. Each `exp*` binary prints the rows/series of one figure;
//! `run_all` runs the full evaluation. The serving stack (engine, cache,
//! daemon, snapshots) is measured by the seeded `perfbench` package at the
//! workspace root instead.

#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod harness;

pub use datasets::{DatasetSpec, DATASETS};
pub use harness::ExpOptions;
