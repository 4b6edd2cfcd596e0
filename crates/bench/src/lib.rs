//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` reproduces one table or figure of the paper;
//! this library provides their common command-line handling ([`BenchArgs`]),
//! figure rendering ([`figure`]), and metrics-table formatting
//! ([`metrics_table`]). Run any binary with `--help` for its options; all
//! accept `--scale`, `--seed`, `--parts`, `--datasets`, `--threads`, and
//! `--csv`. The binaries report *simulated* seconds; wall time is measured
//! in one place, the `benchmark/` package (`bash benchmark/run.sh`).

pub mod figure;
pub mod metrics_table;
pub mod runner;

pub use runner::BenchArgs;
