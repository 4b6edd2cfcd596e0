//! The paper's four analytics algorithms (§3.2) on the metered engine, plus
//! extensions, plus single-threaded reference implementations used as
//! correctness oracles.
//!
//! * [`mod@pagerank`] — static PageRank, 10 iterations in the paper (PR).
//! * [`mod@cc`] — min-label connected components (CC).
//! * [`mod@triangles`] — triangle counting via GraphX's neighbour-set dataflow
//!   (TR); **not** a Pregel program, exactly as in GraphX, which is why its
//!   cost profile differs (big per-vertex state → the paper's finding that
//!   Cut vertices, not CommCost, predict its runtime).
//! * [`mod@sssp`] — multi-landmark shortest paths (SSSP).
//! * [`mod@hits`] — HITS hubs/authorities, an extension beyond the paper
//!   exercising the same edge-bound profile as PageRank.
//! * [`mod@suite`] — a uniform front-end (`Algorithm` enum) used by the
//!   experiment harness.

pub mod cc;
pub mod hits;
pub mod kcore;
pub mod label_propagation;
pub mod pagerank;
pub mod sssp;
pub mod suite;
pub mod triangles;

pub use cc::{connected_components, reference_components, ConnectedComponents};
pub use hits::{hits, HitsProgram, HitsScore};
pub use kcore::{kcore, reference_kcore, KCore};
pub use label_propagation::{label_propagation, LabelPropagation};
pub use pagerank::{pagerank, reference_pagerank, PageRank};
pub use sssp::{reference_sssp, sssp, Sssp};
pub use suite::{Algorithm, AlgorithmClass};
pub use triangles::{triangle_count, TriangleCount};
