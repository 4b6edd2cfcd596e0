//! Exact triangle counting — Table 1's "Triangles" column.
//!
//! The paper (and SNAP) counts triangles in the *undirected, simple* version
//! of each graph. We use the standard degree-ordered ("forward") algorithm:
//! orient each undirected edge from the endpoint with smaller (degree, id)
//! to the larger, then count, for every oriented edge `(u, v)`, the common
//! out-neighbours of `u` and `v`. Each triangle is counted exactly once and
//! the running time is O(E^1.5) on arbitrary graphs.

use crate::csr::{sorted_intersection_count, Csr};
use crate::graph::Graph;
use crate::types::VertexId;
use cutfit_util::num::vid_index;

/// Counts the triangles of the undirected simple version of `graph`.
pub fn count_triangles(graph: &Graph) -> u64 {
    count_triangles_csr(&Csr::undirected_simple_of(graph))
}

/// [`count_triangles`] on a prebuilt undirected simple adjacency, for
/// callers (the Table 1 characterization) that reuse one CSR across
/// several analyses.
// Offsets count entries of the resident `fwd`, so they fit `usize`.
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn count_triangles_csr(und: &Csr) -> u64 {
    let n = und.num_vertices();

    // Orientation rank: (degree, id) lexicographic.
    let rank = |v: VertexId| (und.degree(v), v);

    // Build the forward adjacency: for each v, neighbours with higher rank.
    let mut fwd_offsets = vec![0u64; vid_index(n) + 1];
    for v in 0..n {
        let higher = und
            .neighbors(v)
            .iter()
            .filter(|&&w| rank(w) > rank(v))
            .count() as u64;
        fwd_offsets[vid_index(v) + 1] = fwd_offsets[vid_index(v)] + higher;
    }
    let mut fwd = vec![0 as VertexId; fwd_offsets[vid_index(n)] as usize];
    for v in 0..n {
        let mut pos = fwd_offsets[vid_index(v)] as usize;
        for &w in und.neighbors(v) {
            if rank(w) > rank(v) {
                fwd[pos] = w;
                pos += 1;
            }
        }
        // Neighbour lists are sorted by id; re-sort the forward slice so the
        // merge-intersection below stays valid.
        fwd[fwd_offsets[vid_index(v)] as usize..pos].sort_unstable();
    }
    let fwd_of = |v: VertexId| {
        let v = vid_index(v);
        &fwd[fwd_offsets[v] as usize..fwd_offsets[v + 1] as usize]
    };

    let mut triangles = 0u64;
    for v in 0..n {
        let fv = fwd_of(v);
        for &w in fv {
            triangles += sorted_intersection_count(fv, fwd_of(w));
        }
    }
    triangles
}

/// Counts triangles by brute force over vertex triples; O(V^3), used as a
/// test oracle for small graphs.
pub fn count_triangles_brute_force(graph: &Graph) -> u64 {
    let und = Csr::undirected_simple_of(graph);
    let n = und.num_vertices();
    let connected = |a: VertexId, b: VertexId| und.neighbors(a).binary_search(&b).is_ok();
    let mut count = 0;
    for a in 0..n {
        for b in (a + 1)..n {
            if !connected(a, b) {
                continue;
            }
            for c in (b + 1)..n {
                if connected(a, c) && connected(b, c) {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    fn complete(n: u64) -> Graph {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    edges.push(Edge::new(a, b));
                }
            }
        }
        Graph::new(n, edges)
    }

    #[test]
    fn triangle_free_graph() {
        // A path has no triangles.
        let g = Graph::new(4, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]);
        assert_eq!(count_triangles(&g), 0);
    }

    #[test]
    fn single_triangle_directed_counts_once() {
        let g = Graph::new(3, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)]);
        assert_eq!(count_triangles(&g), 1);
    }

    #[test]
    fn complete_graph_counts() {
        // K_n has C(n,3) triangles.
        assert_eq!(count_triangles(&complete(4)), 4);
        assert_eq!(count_triangles(&complete(5)), 10);
        assert_eq!(count_triangles(&complete(10)), 120);
    }

    #[test]
    fn duplicates_and_loops_do_not_inflate() {
        let g = Graph::new(
            3,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 0),
                Edge::new(1, 2),
                Edge::new(2, 0),
                Edge::new(0, 0),
                Edge::new(0, 1),
            ],
        );
        assert_eq!(count_triangles(&g), 1);
    }

    #[test]
    fn matches_brute_force_on_pseudorandom_graph() {
        // Deterministic pseudo-random graph via a hash-based edge predicate.
        let n = 40u64;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a != b && cutfit_util::hash::hash_pair(a, b) % 7 == 0 {
                    edges.push(Edge::new(a, b));
                }
            }
        }
        let g = Graph::new(n, edges);
        assert_eq!(count_triangles(&g), count_triangles_brute_force(&g));
    }
}
