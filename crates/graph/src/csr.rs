//! Compressed sparse row adjacency built from an edge list.
//!
//! Analyses that walk neighbourhoods (BFS, triangles, SCC), the
//! algorithms' sequential oracles and Triangle Count's partitioned dataflow
//! (over a cut's edges, via [`Csr::undirected_of`]) need O(1) access to a
//! vertex's neighbours; [`Csr`] provides that with two flat arrays and is
//! built in O(V + E) by counting sort: exact per-vertex counts, one prefix
//! sum, one stable scatter into a single exactly-sized allocation. Neighbour
//! lists are sorted so that set intersections (triangle counting) can run by
//! linear merge.

use crate::graph::Graph;
use crate::types::{Edge, VertexId};
use cutfit_util::num::vid_index;

/// Up to two (source, target) adjacency entries contributed by one edge.
type Pairs = (usize, [(VertexId, VertexId); 2]);

/// Compressed sparse row adjacency: `neighbors(v)` is a sorted slice.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
}

impl Csr {
    /// Builds out-neighbour adjacency (`v -> {w : (v, w) in E}`).
    pub fn out_of(graph: &Graph) -> Self {
        Self::build(graph.num_vertices(), graph.edges().iter().copied(), |e| {
            (1, [(e.src, e.dst), (0, 0)])
        })
    }

    /// Builds in-neighbour adjacency (`v -> {u : (u, v) in E}`).
    pub fn in_of(graph: &Graph) -> Self {
        Self::build(graph.num_vertices(), graph.edges().iter().copied(), |e| {
            (1, [(e.dst, e.src), (0, 0)])
        })
    }

    /// Builds undirected adjacency over the *simple* version of the graph:
    /// both directions merged, duplicates and self-loops removed.
    pub fn undirected_simple_of(graph: &Graph) -> Self {
        let edges = graph.edges().iter().copied().filter(|e| !e.is_loop());
        let mut csr = Self::undirected_of(graph.num_vertices(), edges);
        csr.dedup_neighbors();
        csr
    }

    /// Builds undirected adjacency over `edges` exactly as given: each edge
    /// enters both endpoints' rows, so a repeated pair repeats a neighbour
    /// and a self-loop puts its vertex twice in its own row. Over a simple
    /// edge list every row is strictly increasing.
    pub fn undirected_of(num_vertices: u64, edges: impl Iterator<Item = Edge> + Clone) -> Self {
        Self::build(num_vertices, edges, |e| {
            (2, [(e.src, e.dst), (e.dst, e.src)])
        })
    }

    /// Counting-sort construction over `edges` (walked twice): `pairs_of`
    /// maps an edge to its one or two adjacency entries. Count, prefix-sum,
    /// scatter, then sort each vertex's block.
    // Offsets count entries of the resident `targets`, so they fit `usize`.
    #[allow(clippy::cast_possible_truncation)]
    fn build(
        num_vertices: u64,
        edges: impl Iterator<Item = Edge> + Clone,
        pairs_of: impl Fn(&Edge) -> Pairs,
    ) -> Self {
        let n = vid_index(num_vertices);
        let mut offsets = vec![0u64; n + 1];
        for e in edges.clone() {
            let (k, ps) = pairs_of(&e);
            for &(s, _) in &ps[..k] {
                offsets[vid_index(s) + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }

        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; offsets[n] as usize];
        for e in edges {
            let (k, ps) = pairs_of(&e);
            for &(s, d) in &ps[..k] {
                let c = &mut cursor[vid_index(s)];
                targets[*c as usize] = d;
                *c += 1;
            }
        }
        for v in 0..n {
            targets[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Self { offsets, targets }
    }

    /// Removes duplicate neighbours (blocks must already be sorted): exact
    /// unique counts per vertex, then a compaction into a single
    /// exactly-sized allocation.
    // Offsets count entries of the resident `targets`, so they fit `usize`.
    #[allow(clippy::cast_possible_truncation)]
    fn dedup_neighbors(&mut self) {
        /// The distinct values of a sorted block, in order.
        fn distinct(block: &[VertexId]) -> impl Iterator<Item = VertexId> + '_ {
            let mut prev = None;
            block
                .iter()
                .copied()
                .filter(move |&t| prev.replace(t) != Some(t))
        }
        let n = self.offsets.len() - 1;
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + distinct(self.neighbors(v as u64)).count() as u64;
        }
        let mut targets = Vec::with_capacity(offsets[n] as usize);
        for v in 0..n {
            targets.extend(distinct(self.neighbors(v as u64)));
        }
        self.offsets = offsets;
        self.targets = targets;
    }

    #[inline]
    // Offsets count entries of the resident `targets`, so they fit `usize`.
    #[allow(clippy::cast_possible_truncation)]
    fn bounds(&self, v: VertexId) -> (usize, usize) {
        let v = vid_index(v);
        (self.offsets[v] as usize, self.offsets[v + 1] as usize)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Sorted neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = self.bounds(v);
        &self.targets[lo..hi]
    }

    /// Degree of `v` in this adjacency.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        let (lo, hi) = self.bounds(v);
        (hi - lo) as u64
    }

    /// Where `v`'s neighbours sit among all rows' entries, in row order: a
    /// side table of [`Csr::num_entries`] values, one per entry, is read
    /// at these positions.
    #[inline]
    pub fn entries(&self, v: VertexId) -> std::ops::Range<usize> {
        let (lo, hi) = self.bounds(v);
        lo..hi
    }

    /// Entries over all rows.
    pub fn num_entries(&self) -> usize {
        self.targets.len()
    }
}

/// Counts common elements of two sorted slices by linear merge.
pub fn sorted_intersection_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Graph::new(
            4,
            vec![
                Edge::new(0, 2),
                Edge::new(0, 1),
                Edge::new(1, 3),
                Edge::new(2, 3),
            ],
        )
    }

    #[test]
    fn out_adjacency_sorted() {
        let csr = Csr::out_of(&diamond());
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[3]);
        assert_eq!(csr.neighbors(3), &[] as &[VertexId]);
        assert_eq!(csr.degree(0), 2);
    }

    #[test]
    fn in_adjacency() {
        let csr = Csr::in_of(&diamond());
        assert_eq!(csr.neighbors(3), &[1, 2]);
        assert_eq!(csr.neighbors(0), &[] as &[VertexId]);
    }

    #[test]
    fn undirected_simple_merges_and_dedups() {
        let g = Graph::new(
            3,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 0),
                Edge::new(0, 1),
                Edge::new(1, 1),
                Edge::new(1, 2),
            ],
        );
        let csr = Csr::undirected_simple_of(&g);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.neighbors(1), &[0, 2]);
        assert_eq!(csr.neighbors(2), &[1]);
    }

    #[test]
    fn undirected_keeps_loops_and_repeats() {
        let edges = [
            Edge::new(0, 1),
            Edge::new(1, 0),
            Edge::new(2, 2),
            Edge::new(1, 2),
        ];
        let csr = Csr::undirected_of(3, edges.iter().copied());
        assert_eq!(csr.neighbors(0), &[1, 1]);
        assert_eq!(csr.neighbors(1), &[0, 0, 2]);
        assert_eq!(csr.neighbors(2), &[1, 2, 2]);
    }

    #[test]
    fn empty_graph_csr() {
        let g = Graph::new(3, vec![]);
        let csr = Csr::out_of(&g);
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.neighbors(1), &[] as &[VertexId]);
    }

    #[test]
    fn targets_allocation_is_exact() {
        let g = diamond();
        let csr = Csr::out_of(&g);
        assert_eq!(csr.targets.capacity(), csr.targets.len());
        let und = Csr::undirected_simple_of(&g);
        assert_eq!(und.targets.capacity(), und.targets.len());
    }

    #[test]
    fn intersection_count() {
        assert_eq!(sorted_intersection_count(&[1, 3, 5, 7], &[3, 4, 5, 6]), 2);
        assert_eq!(sorted_intersection_count(&[], &[1]), 0);
        assert_eq!(sorted_intersection_count(&[2, 2], &[2]), 1);
    }
}
