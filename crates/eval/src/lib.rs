#![warn(missing_docs)]
//! Evaluation harness: qerror metrics, suite-wide data collection and one
//! runner per table/figure of the paper's evaluation (Sec. V).
//!
//! The `expts` binary drives everything:
//!
//! ```text
//! cargo run --release -p dace-eval --bin expts -- table1 --scale 1.0
//! cargo run --release -p dace-eval --bin expts -- all
//! ```
//!
//! Every experiment accepts a `--scale` factor multiplying query counts and
//! training epochs, so quick smoke runs and full reproductions share one
//! code path. Reports print to stdout and are written under `results/`.

pub mod data;
pub mod experiments;
pub mod metrics;
pub mod models;

pub use data::{collect_suite_m1, workload3, EvalConfig, Workload3};
pub use metrics::QErrorStats;
