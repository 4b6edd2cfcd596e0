//! Statistics helpers used by the graph analysis and the experiment harness.
//!
//! The paper's headline results are *correlation coefficients* between
//! execution time and partitioning metrics (Figures 3–6), plus degree
//! distributions (Figure 1) and a CDF (Figure 2). This crate provides exactly
//! those tools: Pearson and Spearman correlation ([`pearson`], [`spearman`]),
//! summary statistics ([`Summary`]), CDFs ([`Cdf`]) and log-binned
//! histograms ([`LogHistogram`]).

pub mod cdf;
pub mod correlation;
pub mod histogram;
pub mod summary;

pub use cdf::Cdf;
pub use correlation::{pearson, spearman};
pub use histogram::LogHistogram;
pub use summary::Summary;
