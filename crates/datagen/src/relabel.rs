//! Vertex relabelling utilities.
//!
//! The SC/DC partitioners proposed by the paper bet that vertex IDs encode
//! locality ("assuming that vertex IDs may capture a metric of locality",
//! §3). These helpers create or destroy that correlation on purpose:
//! [`first_touch_relabel`] assigns IDs in discovery order (what a crawler
//! produces), [`bfs_relabel`] in breadth-first order (strong locality),
//! [`degree_relabel`] in descending-degree order (hubs first — the classic
//! cache-locality ordering for power-law graphs), and [`shuffle_ids`]
//! randomly (no locality). The ablation benchmark compares partitioner
//! behaviour across them.

use cutfit_graph::{Csr, Edge, Graph, VertexId};
use cutfit_util::Xoshiro256pp;

/// Result of [`first_touch_relabel`]: the compacted edges plus the
/// permutation needed to map per-vertex results back to the original IDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstTouchRelabel {
    /// Edges with endpoints renumbered in first-occurrence order.
    pub edges: Vec<Edge>,
    /// Number of distinct vertices touched (new IDs are `0..num_vertices`).
    pub num_vertices: u64,
    /// `new_to_old[new_id] = old_id` — index results computed on the
    /// relabelled graph by new ID to recover the original vertex.
    pub new_to_old: Vec<VertexId>,
}

/// Relabels edge endpoints in first-occurrence order. Untouched IDs
/// disappear (compaction).
///
/// Interning runs through a dense `old -> new` array with a `MAX` sentinel
/// (the same stamp idiom as the materializer's replica discovery) instead
/// of a hash map: generated IDs are bounded by the largest endpoint, so
/// one O(max_id) allocation buys O(1) per-endpoint interning with no
/// hashing on the hot path.
pub fn first_touch_relabel(edges: &[Edge]) -> FirstTouchRelabel {
    let max_id = edges
        .iter()
        .map(|e| e.src.max(e.dst))
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut old_to_new = vec![VertexId::MAX; max_id];
    let mut new_to_old: Vec<VertexId> = Vec::new();
    let mut intern = |v: VertexId| -> VertexId {
        let slot = &mut old_to_new[v as usize];
        if *slot == VertexId::MAX {
            *slot = new_to_old.len() as VertexId;
            new_to_old.push(v);
        }
        *slot
    };
    let edges = edges
        .iter()
        .map(|e| Edge::new(intern(e.src), intern(e.dst)))
        .collect();
    FirstTouchRelabel {
        edges,
        num_vertices: new_to_old.len() as u64,
        new_to_old,
    }
}

/// Applies a random permutation to all vertex IDs (locality destroyed).
pub fn shuffle_ids(graph: &Graph, seed: u64) -> Graph {
    let n = graph.num_vertices();
    let mut perm: Vec<VertexId> = (0..n).collect();
    Xoshiro256pp::seed_from_u64(seed).shuffle(&mut perm);
    apply_order(graph, &perm)
}

/// Renumbers every endpoint through `order` (`order[old_id] = new_id`).
fn apply_order(graph: &Graph, order: &[VertexId]) -> Graph {
    let edges = graph
        .edges()
        .iter()
        .map(|e| Edge::new(order[e.src as usize], order[e.dst as usize]))
        .collect();
    Graph::new_unchecked(graph.num_vertices(), edges)
}

/// BFS visit order over an adjacency (`order[old_id] = new_id`), starting
/// new traversals from the smallest unvisited ID.
pub fn bfs_order(und: &Csr) -> Vec<VertexId> {
    let n = und.num_vertices();
    let mut order = vec![VertexId::MAX; n as usize];
    let mut next: VertexId = 0;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if order[start as usize] != VertexId::MAX {
            continue;
        }
        order[start as usize] = next;
        next += 1;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &w in und.neighbors(v) {
                if order[w as usize] == VertexId::MAX {
                    order[w as usize] = next;
                    next += 1;
                    queue.push_back(w);
                }
            }
        }
    }
    order
}

/// Relabels vertices in BFS order over the undirected version of the graph,
/// starting new traversals from the smallest unvisited ID. Maximises
/// ID-adjacency locality.
pub fn bfs_relabel(graph: &Graph) -> Graph {
    apply_order(graph, &bfs_order(&Csr::undirected_simple_of(graph)))
}

/// Relabels vertices in descending total-degree order (ties by original
/// ID): hubs get the smallest IDs, so the vertex-state words that power-law
/// supersteps touch most land in the same few cache lines.
pub fn degree_relabel(graph: &Graph) -> Graph {
    let n = graph.num_vertices() as usize;
    let mut degree = vec![0u64; n];
    for e in graph.edges() {
        degree[e.src as usize] += 1;
        degree[e.dst as usize] += 1;
    }
    let mut by_degree: Vec<VertexId> = (0..n as u64).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(degree[v as usize]), v));
    let mut order = vec![0 as VertexId; n];
    for (new_id, &old_id) in by_degree.iter().enumerate() {
        order[old_id as usize] = new_id as VertexId;
    }
    apply_order(graph, &order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_assigns_in_order() {
        let edges = vec![Edge::new(100, 5), Edge::new(5, 42), Edge::new(100, 42)];
        let r = first_touch_relabel(&edges);
        assert_eq!(r.num_vertices, 3);
        assert_eq!(
            r.edges,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]
        );
        assert_eq!(r.new_to_old, vec![100, 5, 42], "permutation maps back");
    }

    #[test]
    fn first_touch_empty() {
        let r = first_touch_relabel(&[]);
        assert!(r.edges.is_empty());
        assert_eq!(r.num_vertices, 0);
        assert!(r.new_to_old.is_empty());
    }

    #[test]
    fn first_touch_roundtrips_through_the_permutation() {
        let edges = vec![
            Edge::new(7, 7),
            Edge::new(0, 9),
            Edge::new(9, 7),
            Edge::new(3, 0),
        ];
        let r = first_touch_relabel(&edges);
        let restored: Vec<Edge> = r
            .edges
            .iter()
            .map(|e| Edge::new(r.new_to_old[e.src as usize], r.new_to_old[e.dst as usize]))
            .collect();
        assert_eq!(restored, edges);
    }

    #[test]
    fn shuffle_preserves_structure() {
        let g = Graph::new(5, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4)]);
        let s = shuffle_ids(&g, 1);
        assert_eq!(s.num_vertices(), 5);
        assert_eq!(s.num_edges(), 3);
        // Degree multiset is invariant under relabelling.
        let mut d1 = g.out_degrees();
        let mut d2 = s.out_degrees();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    fn bfs_relabel_is_permutation() {
        let g = Graph::new(6, vec![Edge::new(5, 3), Edge::new(3, 1), Edge::new(0, 2)]);
        let b = bfs_relabel(&g);
        assert_eq!(b.num_vertices(), 6);
        assert_eq!(b.num_edges(), 3);
        let mut ids: Vec<u64> = Vec::new();
        for e in b.edges() {
            ids.push(e.src);
            ids.push(e.dst);
        }
        ids.sort_unstable();
        ids.dedup();
        assert!(ids.iter().all(|&v| v < 6));
    }

    #[test]
    fn bfs_relabel_gives_adjacent_ids_to_neighbors() {
        // Path 0-1-2-3-4 shuffled, then BFS-relabelled: neighbouring IDs
        // should end up numerically close again.
        let path = Graph::new(5, (0..4).map(|v| Edge::new(v, v + 1)).collect()).symmetrized();
        let shuffled = shuffle_ids(&path, 9);
        let relabeled = bfs_relabel(&shuffled);
        let max_gap = relabeled
            .edges()
            .iter()
            .map(|e| e.src.abs_diff(e.dst))
            .max()
            .unwrap();
        assert!(
            max_gap <= 2,
            "BFS order keeps path IDs close, gap {max_gap}"
        );
    }

    #[test]
    fn degree_relabel_puts_hubs_first() {
        // Star: vertex 4 is the hub and must become vertex 0.
        let mut edges = Vec::new();
        for leaf in 0..4u64 {
            edges.push(Edge::new(4, leaf));
        }
        let g = Graph::new(5, edges);
        let d = degree_relabel(&g);
        assert_eq!(d.num_vertices(), 5);
        for e in d.edges() {
            assert_eq!(e.src, 0, "hub relabelled to 0");
        }
        // Structure is preserved.
        let mut d1 = g.out_degrees();
        let mut d2 = d.out_degrees();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    fn degree_relabel_is_deterministic_permutation() {
        let g = crate::rmat(
            &crate::RmatConfig {
                scale: 6,
                edges: 200,
                ..Default::default()
            },
            7,
        );
        let a = degree_relabel(&g);
        let b = degree_relabel(&g);
        assert_eq!(a.edges(), b.edges());
        let mut seen = vec![false; g.num_vertices() as usize];
        let und = Csr::undirected_simple_of(&a);
        for v in 0..und.num_vertices() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }
}
