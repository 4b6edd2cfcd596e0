//! Breadth-first search and diameter estimation — Table 1's "Diameter".
//!
//! The paper reports `∞` for datasets with more than one connected component
//! and the exact hop diameter otherwise. Exact diameter needs all-pairs BFS,
//! which is fine at test scale; for larger graphs we use the classic
//! double-sweep heuristic (repeatedly BFS to the farthest vertex found),
//! which is a lower bound that is exact on trees and empirically tight on
//! small-world graphs.

use crate::analysis::components::weakly_connected_components;
use crate::csr::Csr;
use crate::graph::Graph;
use crate::types::VertexId;

/// Diameter as the paper reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diameter {
    /// Graph is disconnected: diameter is infinite.
    Infinite,
    /// Hop diameter (exact or double-sweep estimate; see producer).
    Finite(u64),
}

impl std::fmt::Display for Diameter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Diameter::Infinite => write!(f, "inf"),
            Diameter::Finite(d) => write!(f, "{d}"),
        }
    }
}

/// BFS hop distances from `source` over the given adjacency; `u32::MAX`
/// marks unreachable vertices.
pub fn bfs_distances(csr: &Csr, source: VertexId) -> Vec<u32> {
    let n = csr.num_vertices() as usize;
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &w in csr.neighbors(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Farthest reachable vertex and its distance.
fn eccentricity(csr: &Csr, source: VertexId) -> (VertexId, u64) {
    let dist = bfs_distances(csr, source);
    let mut best = (source, 0u64);
    for (v, &d) in dist.iter().enumerate() {
        if d != u32::MAX && (d as u64) > best.1 {
            best = (v as u64, d as u64);
        }
    }
    best
}

/// Estimates the diameter of the *undirected* version of `graph` with the
/// double-sweep heuristic (`sweeps` BFS rounds). Returns
/// [`Diameter::Infinite`] when the graph has more than one weakly connected
/// component, matching Table 1's convention.
pub fn estimate_diameter(graph: &Graph, sweeps: u32) -> Diameter {
    if graph.num_vertices() == 0 {
        return Diameter::Finite(0);
    }
    if weakly_connected_components(graph).count > 1 {
        return Diameter::Infinite;
    }
    estimate_diameter_csr(&Csr::undirected_simple_of(graph), sweeps)
}

/// The double-sweep estimate on a prebuilt undirected simple adjacency,
/// which the caller has already checked to be non-empty and weakly
/// connected (the Table 1 characterization reuses one CSR across several
/// analyses).
pub fn estimate_diameter_csr(und: &Csr, sweeps: u32) -> Diameter {
    let mut frontier: VertexId = 0;
    let mut best = 0u64;
    for _ in 0..sweeps.max(1) {
        let (far, d) = eccentricity(und, frontier);
        if d <= best && far == frontier {
            break;
        }
        best = best.max(d);
        frontier = far;
    }
    Diameter::Finite(best)
}

/// Exact hop diameter by all-pairs BFS over the undirected simple graph;
/// `None` when disconnected. O(V·E) — test-scale oracle only.
pub fn exact_diameter(graph: &Graph) -> Option<u64> {
    if weakly_connected_components(graph).count > 1 {
        return None;
    }
    let und = Csr::undirected_simple_of(graph);
    let mut best = 0u64;
    for v in 0..graph.num_vertices() {
        let dist = bfs_distances(&und, v);
        for &d in &dist {
            if d != u32::MAX {
                best = best.max(d as u64);
            }
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    fn path(n: u64) -> Graph {
        Graph::new(n, (0..n - 1).map(|v| Edge::new(v, v + 1)).collect())
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(5).symmetrized();
        let csr = Csr::out_of(&g);
        assert_eq!(bfs_distances(&csr, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&csr, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable_is_max() {
        let g = Graph::new(3, vec![Edge::new(0, 1)]);
        let csr = Csr::out_of(&g);
        let d = bfs_distances(&csr, 0);
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn diameter_of_path_is_exact() {
        assert_eq!(estimate_diameter(&path(10), 4), Diameter::Finite(9));
        assert_eq!(exact_diameter(&path(10)), Some(9));
    }

    #[test]
    fn disconnected_graph_is_infinite() {
        let g = Graph::new(4, vec![Edge::new(0, 1), Edge::new(2, 3)]);
        assert_eq!(estimate_diameter(&g, 4), Diameter::Infinite);
        assert_eq!(exact_diameter(&g), None);
    }

    #[test]
    fn double_sweep_matches_exact_on_star() {
        let mut edges = Vec::new();
        for leaf in 1..20u64 {
            edges.push(Edge::new(0, leaf));
        }
        let g = Graph::new(20, edges);
        assert_eq!(estimate_diameter(&g, 3), Diameter::Finite(2));
        assert_eq!(exact_diameter(&g), Some(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Diameter::Infinite.to_string(), "inf");
        assert_eq!(Diameter::Finite(9).to_string(), "9");
    }
}
