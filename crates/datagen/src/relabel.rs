//! Vertex relabelling utilities.
//!
//! The SC/DC partitioners proposed by the paper bet that vertex IDs encode
//! locality ("assuming that vertex IDs may capture a metric of locality",
//! §3). These helpers create or destroy that correlation on purpose:
//! [`first_touch_relabel`] assigns IDs in discovery order (what a crawler
//! produces) and [`shuffle_ids`] randomly (no locality); the advisor
//! ablation compares partitioner behaviour across the two.

use cutfit_graph::{Edge, Graph, VertexId};
use cutfit_util::num::vid_index;
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
        .map(|e| Edge::new(order[vid_index(e.src)], order[vid_index(e.dst)]))
        .collect();
    Graph::new_unchecked(graph.num_vertices(), edges)
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
}
