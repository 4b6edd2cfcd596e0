//! Structural graph analysis: the measurements behind Table 1 and
//! Figures 1–2 of the paper.

pub mod bfs;
pub mod characterize;
pub mod components;
pub mod degrees;
pub mod reciprocity;
pub mod triangles;

pub use bfs::{bfs_distances, estimate_diameter, Diameter};
pub use characterize::{characterize, Characterization};
pub use components::{strongly_connected_components, weakly_connected_components, ComponentLabels};
pub use degrees::{degree_ratio_series, DegreeStats};
pub use reciprocity::reciprocity;
pub use triangles::count_triangles;
