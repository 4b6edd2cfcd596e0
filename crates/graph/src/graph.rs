//! The [`Graph`] type: a directed multigraph stored as an edge list.

use crate::types::Edge;
use cutfit_util::num::vid_index;

/// A directed multigraph over vertices `0..num_vertices`.
///
/// Invariant: every edge endpoint is `< num_vertices` (checked on
/// construction). Vertices with no incident edge are legal — the paper's
/// datasets contain such "leaf" vertices and they matter for the ZeroIn/
/// ZeroOut statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    num_vertices: u64,
    edges: Vec<Edge>,
}

impl Graph {
    /// Creates a graph, validating that all endpoints are in range.
    ///
    /// # Panics
    /// Panics if any edge references a vertex `>= num_vertices`.
    pub fn new(num_vertices: u64, edges: Vec<Edge>) -> Self {
        for e in &edges {
            assert!(
                e.src < num_vertices && e.dst < num_vertices,
                "edge ({}, {}) out of range for {} vertices",
                e.src,
                e.dst,
                num_vertices
            );
        }
        Self {
            num_vertices,
            edges,
        }
    }

    /// Creates a graph without validating endpoints.
    ///
    /// Intended for generators that construct edges from known-valid IDs;
    /// violating the range invariant is a logic error that later analyses
    /// will surface as panics.
    pub fn new_unchecked(num_vertices: u64, edges: Vec<Edge>) -> Self {
        debug_assert!(edges
            .iter()
            .all(|e| e.src < num_vertices && e.dst < num_vertices));
        Self {
            num_vertices,
            edges,
        }
    }

    /// Number of vertices (including isolated ones).
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of directed edges (counting multiplicities).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// The edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Out-degree of every vertex.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices as usize];
        for e in &self.edges {
            deg[vid_index(e.src)] += 1;
        }
        deg
    }

    /// In-degree of every vertex.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices as usize];
        for e in &self.edges {
            deg[vid_index(e.dst)] += 1;
        }
        deg
    }

    /// Estimated on-disk size of the graph as a whitespace-separated edge
    /// list (the format the paper's Table 1 "Size" column refers to).
    pub fn text_size_bytes(&self) -> u64 {
        fn digits(mut x: u64) -> u64 {
            let mut d = 1;
            while x >= 10 {
                x /= 10;
                d += 1;
            }
            d
        }
        self.edges
            .iter()
            .map(|e| digits(e.src) + digits(e.dst) + 2)
            .sum()
    }

    /// Returns the same graph with every edge also present in the reverse
    /// direction (deduplicated). This is how undirected datasets are
    /// materialised for GraphX.
    pub fn symmetrized(&self) -> Graph {
        let mut edges: Vec<Edge> = Vec::with_capacity(self.edges.len() * 2);
        for &e in &self.edges {
            edges.push(e);
            if !e.is_loop() {
                edges.push(e.reversed());
            }
        }
        edges.sort_unstable();
        edges.dedup();
        Graph {
            num_vertices: self.num_vertices,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        Graph::new(4, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)])
    }

    #[test]
    fn basic_counts() {
        let g = tiny();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        Graph::new(2, vec![Edge::new(0, 5)]);
    }

    #[test]
    fn degrees() {
        let g = tiny();
        assert_eq!(g.out_degrees(), vec![1, 1, 1, 0]);
        assert_eq!(g.in_degrees(), vec![1, 1, 1, 0]);
    }

    #[test]
    fn degrees_count_multiplicity() {
        let g = Graph::new(2, vec![Edge::new(0, 1), Edge::new(0, 1)]);
        assert_eq!(g.out_degrees(), vec![2, 0]);
        assert_eq!(g.in_degrees(), vec![0, 2]);
    }

    #[test]
    fn text_size() {
        // "0 1\n" = 4 bytes, "10 100\n" = 7 bytes.
        let g = Graph::new(101, vec![Edge::new(0, 1), Edge::new(10, 100)]);
        assert_eq!(g.text_size_bytes(), 4 + 7);
    }

    #[test]
    fn symmetrized_adds_reverse_edges() {
        let g = Graph::new(3, vec![Edge::new(0, 1), Edge::new(1, 0), Edge::new(1, 2)]);
        let s = g.symmetrized();
        assert_eq!(s.num_edges(), 4);
        assert!(s.edges().contains(&Edge::new(2, 1)));
    }

    #[test]
    fn symmetrized_keeps_loops_single() {
        let g = Graph::new(2, vec![Edge::new(0, 0)]);
        assert_eq!(g.symmetrized().num_edges(), 1);
    }
}
