//! In-memory directed graph representation and structural analysis.
//!
//! This crate is the substrate everything else builds on. It mirrors the way
//! GraphX models graphs in the paper: a graph is a **directed multigraph
//! stored as an edge list** over `u64` vertex IDs. Undirected datasets (the
//! road networks, YouTube, Orkut) are represented by storing both directions
//! of every edge, which is exactly how they appear to GraphX and why the
//! paper reports their *symmetry* as 100 %.
//!
//! The [`analysis`] module computes every column of the paper's Table 1
//! (degrees, reciprocity, triangles, connected components, diameter) plus
//! the degree-distribution series behind Figures 1 and 2.
//!
//! The out-of-core layer lives in two sibling modules: [`binfmt`] (the
//! versioned, checksummed binary container) and [`source`] (the
//! [`source::GraphSource`] chunked-streaming abstraction over memory,
//! text, and binary storage).

pub mod analysis;
pub mod binfmt;
pub mod builder;
pub mod csr;
pub mod graph;
pub mod io;
pub mod source;
pub mod types;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use graph::Graph;
pub use source::{BinaryFileSource, GraphSource, StreamStats, TextFileSource};
pub use types::{Edge, VertexId};
