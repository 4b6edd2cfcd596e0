//! One-call dataset characterization — the full Table 1 row for a graph.

use crate::analysis::bfs::{estimate_diameter_csr, Diameter};
use crate::analysis::components::{strongly_connected_components, weakly_connected_components};
use crate::analysis::degrees::DegreeStats;
use crate::analysis::reciprocity::reciprocity;
use crate::analysis::triangles::count_triangles_csr;
use crate::csr::Csr;
use crate::graph::Graph;

/// Everything Table 1 reports about a dataset.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// Number of vertices.
    pub vertices: u64,
    /// Number of directed edges.
    pub edges: u64,
    /// Reciprocity in [0, 1] (Table 1 "Symm" is this × 100).
    pub symmetry: f64,
    /// Fraction of vertices with zero in-degree.
    pub zero_in: f64,
    /// Fraction of vertices with zero out-degree.
    pub zero_out: f64,
    /// Number of triangles in the undirected simple graph.
    pub triangles: u64,
    /// Connected components reported Table-1 style. The paper says it used
    /// SCC for directed graphs, but its printed counts (e.g. Pocek = 1,
    /// socLiveJournal = 1,876 despite 7.4 % zero-in vertices, each of which
    /// is its own SCC) are only consistent with *weak* components, so we
    /// report WCC here and expose SCC separately.
    pub components: u64,
    /// Weakly connected components (always computed; drives the diameter).
    pub weak_components: u64,
    /// Strongly connected components; `None` for symmetric graphs where it
    /// coincides with `weak_components`.
    pub strong_components: Option<u64>,
    /// Estimated diameter (`Infinite` when weakly disconnected).
    pub diameter: Diameter,
    /// Estimated on-disk size as a text edge list, in bytes.
    pub size_bytes: u64,
}

impl Characterization {
    /// True when the graph is stored symmetrically (reciprocity ≈ 100 %).
    pub fn is_symmetric(&self) -> bool {
        self.symmetry > 0.999
    }
}

/// Computes the full characterization. `diameter_sweeps` controls the
/// double-sweep BFS budget (4 is plenty in practice).
pub fn characterize(graph: &Graph, diameter_sweeps: u32) -> Characterization {
    let degrees = DegreeStats::of(graph);
    let symmetry = reciprocity(graph);
    let weak = weakly_connected_components(graph).count;
    let strong = if symmetry > 0.999 {
        None
    } else {
        Some(strongly_connected_components(graph).count)
    };
    // One undirected simple CSR serves the diameter and the triangle count.
    let und = Csr::undirected_simple_of(graph);
    let diameter = if graph.num_vertices() == 0 {
        Diameter::Finite(0)
    } else if weak > 1 {
        Diameter::Infinite
    } else {
        estimate_diameter_csr(&und, diameter_sweeps)
    };
    Characterization {
        vertices: graph.num_vertices(),
        edges: graph.num_edges(),
        symmetry,
        zero_in: degrees.zero_in_fraction,
        zero_out: degrees.zero_out_fraction,
        triangles: count_triangles_csr(&und),
        components: weak,
        weak_components: weak,
        strong_components: strong,
        diameter,
        size_bytes: graph.text_size_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    #[test]
    fn characterize_triangle_graph() {
        let g =
            Graph::new(3, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)]).symmetrized();
        let c = characterize(&g, 4);
        assert_eq!(c.vertices, 3);
        assert_eq!(c.edges, 6);
        assert!(c.is_symmetric());
        assert_eq!(c.zero_in, 0.0);
        assert_eq!(c.zero_out, 0.0);
        assert_eq!(c.triangles, 1);
        assert_eq!(c.components, 1);
        assert_eq!(c.diameter, Diameter::Finite(1));
    }

    #[test]
    fn directed_graph_uses_scc() {
        // Directed path: 1 WCC but 3 SCCs; symmetry < 1 so SCC is reported.
        let g = Graph::new(3, vec![Edge::new(0, 1), Edge::new(1, 2)]);
        let c = characterize(&g, 2);
        assert!(!c.is_symmetric());
        assert_eq!(c.weak_components, 1);
        assert_eq!(c.components, 1);
        assert_eq!(c.strong_components, Some(3));
    }

    #[test]
    fn disconnected_graph_reports_infinite_diameter() {
        let g = Graph::new(4, vec![Edge::new(0, 1), Edge::new(2, 3)]).symmetrized();
        let c = characterize(&g, 2);
        assert_eq!(c.diameter, Diameter::Infinite);
        assert_eq!(c.components, 2);
    }
}
