//! The six hash partitioning strategies of the paper (§3).
//!
//! Four ship with GraphX — Random Vertex Cut, Edge Partition 1D/2D, and
//! Canonical Random Vertex Cut — and two are the paper's proposals, Source
//! Cut and Destination Cut (plain modulo on the raw vertex ID, betting that
//! IDs encode locality). Semantics follow the GraphX source as described in
//! the paper, including 1D/2D's "mixing prime" multiplication and 2D's
//! next-perfect-square grid when `num_parts` is not a perfect square.

use cutfit_graph::io::ParseError;
use cutfit_graph::types::PartId;
use cutfit_graph::{GraphSource, VertexId};
use cutfit_util::hash::{graphx_mix, hash_pair};
use cutfit_util::num::ceil_sqrt;

use crate::strategy::{Partitioner, Rule};

/// The paper's six edge-partitioning strategies.
///
/// ```
/// use cutfit_partition::{GraphXStrategy, Partitioner, PartitionMetrics};
/// use cutfit_graph::{Graph, Edge};
///
/// let graph = Graph::new(4, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]);
/// let pg = GraphXStrategy::EdgePartition2D.partition(&graph, 4);
/// let metrics = PartitionMetrics::of(&pg);
/// assert_eq!(metrics.edges, 3);
/// assert_eq!(metrics.cut + metrics.non_cut, 4, "every endpoint vertex is accounted");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GraphXStrategy {
    /// `RVC`: hash of the ordered (src, dst) pair — collocates parallel
    /// same-direction edges; a random vertex cut.
    RandomVertexCut,
    /// `1D`: hash of the source vertex — collocates each vertex's whole
    /// out-edge list.
    EdgePartition1D,
    /// `2D`: grid of `ceil(sqrt(N))²` cells addressed by (src-hash,
    /// dst-hash); bounds vertex replication by `2·ceil(sqrt(N))`.
    EdgePartition2D,
    /// `CRVC`: hash of the direction-erased pair — collocates `(u,v)` with
    /// `(v,u)`.
    CanonicalRandomVertexCut,
    /// `SC`: raw `src % N` — the paper's locality-betting source cut.
    SourceCut,
    /// `DC`: raw `dst % N` — the paper's locality-betting destination cut.
    DestinationCut,
}

impl GraphXStrategy {
    /// All six strategies in the row order of Tables 2–3.
    pub fn all() -> [GraphXStrategy; 6] {
        [
            Self::RandomVertexCut,
            Self::EdgePartition1D,
            Self::EdgePartition2D,
            Self::CanonicalRandomVertexCut,
            Self::SourceCut,
            Self::DestinationCut,
        ]
    }

    /// Table abbreviation ("RVC", "1D", …).
    pub fn abbrev(&self) -> &'static str {
        match self {
            Self::RandomVertexCut => "RVC",
            Self::EdgePartition1D => "1D",
            Self::EdgePartition2D => "2D",
            Self::CanonicalRandomVertexCut => "CRVC",
            Self::SourceCut => "SC",
            Self::DestinationCut => "DC",
        }
    }

    /// Partition of a single edge — a pure function of the endpoints, as in
    /// GraphX's `PartitionStrategy.getPartition`.
    #[inline]
    // Every arm is reduced modulo `n`, the `u32` part count.
    #[allow(clippy::cast_possible_truncation)]
    pub fn partition_edge(&self, src: VertexId, dst: VertexId, num_parts: PartId) -> PartId {
        debug_assert!(num_parts > 0);
        let n = num_parts as u64;
        let part = match self {
            Self::RandomVertexCut => hash_pair(src, dst) % n,
            Self::EdgePartition1D => graphx_mix(src) % n,
            Self::EdgePartition2D => {
                // GraphX: arrange partitions in a ceil(sqrt(N)) grid; if N is
                // not a perfect square the trailing cells wrap with `% N`,
                // "potentially creating imbalanced partitioning" (§3). The
                // grid side is an exact integer ceil-sqrt — an f64 round-trip
                // can inflate it for large N.
                let side = ceil_sqrt(n);
                let col = graphx_mix(src) % side;
                let row = graphx_mix(dst) % side;
                (col * side + row) % n
            }
            Self::CanonicalRandomVertexCut => {
                let (a, b) = if src < dst { (src, dst) } else { (dst, src) };
                hash_pair(a, b) % n
            }
            Self::SourceCut => src % n,
            Self::DestinationCut => dst % n,
        };
        part as PartId
    }
}

impl std::fmt::Display for GraphXStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

impl Partitioner for GraphXStrategy {
    fn name(&self) -> &'static str {
        self.abbrev()
    }

    fn rule(&self, _: &dyn GraphSource, num_parts: PartId) -> Result<Rule<'_>, ParseError> {
        let strategy = *self;
        Ok(Rule::pure(move |e| {
            strategy.partition_edge(e.src, e.dst, num_parts)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::{Edge, Graph};

    #[test]
    fn all_assignments_in_range() {
        for strat in GraphXStrategy::all() {
            for n in [1u32, 2, 3, 7, 16, 128, 256] {
                for src in 0..50u64 {
                    for dst in 0..50u64 {
                        let p = strat.partition_edge(src, dst, n);
                        assert!(p < n, "{strat}: edge ({src},{dst}) -> {p} >= {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn rvc_separates_directions_crvc_does_not() {
        // With enough partitions some reversed pair must split under RVC.
        let n = 128;
        let rvc = GraphXStrategy::RandomVertexCut;
        let crvc = GraphXStrategy::CanonicalRandomVertexCut;
        let mut split = false;
        for u in 0..100u64 {
            let (v, w) = (u + 1, u + 2);
            assert_eq!(
                crvc.partition_edge(v, w, n),
                crvc.partition_edge(w, v, n),
                "CRVC collocates both directions"
            );
            if rvc.partition_edge(v, w, n) != rvc.partition_edge(w, v, n) {
                split = true;
            }
        }
        assert!(split, "RVC should separate at least one reversed pair");
    }

    #[test]
    fn one_d_collocates_out_edges() {
        let s = GraphXStrategy::EdgePartition1D;
        let p = s.partition_edge(42, 0, 64);
        for dst in 1..100u64 {
            assert_eq!(s.partition_edge(42, dst, 64), p);
        }
    }

    #[test]
    fn two_d_replication_bound() {
        // A vertex appears in at most 2·ceil(sqrt(N)) partitions under 2D:
        // one row and one column of the grid.
        let s = GraphXStrategy::EdgePartition2D;
        let n: u32 = 128;
        let side = (n as f64).sqrt().ceil() as u64; // 12
        for v in 0..50u64 {
            let mut parts = std::collections::BTreeSet::new();
            for other in 0..2000u64 {
                parts.insert(s.partition_edge(v, other, n));
                parts.insert(s.partition_edge(other, v, n));
            }
            assert!(
                parts.len() as u64 <= 2 * side,
                "vertex {v} hit {} parts, bound {}",
                parts.len(),
                2 * side
            );
        }
    }

    #[test]
    fn sc_dc_are_plain_modulo() {
        let sc = GraphXStrategy::SourceCut;
        let dc = GraphXStrategy::DestinationCut;
        assert_eq!(sc.partition_edge(130, 7, 128), 2);
        assert_eq!(dc.partition_edge(130, 7, 128), 7);
    }

    #[test]
    fn sc_preserves_id_locality() {
        // Consecutive source IDs land in consecutive partitions — the
        // locality bet the paper describes.
        let sc = GraphXStrategy::SourceCut;
        for v in 0..100u64 {
            assert_eq!(
                (sc.partition_edge(v, 5, 16) + 1) % 16,
                sc.partition_edge(v + 1, 5, 16)
            );
        }
    }

    #[test]
    fn single_partition_everything_is_zero() {
        for strat in GraphXStrategy::all() {
            assert_eq!(strat.partition_edge(123, 456, 1), 0);
        }
    }

    #[test]
    fn assign_edges_matches_per_edge() {
        let g = Graph::new(10, vec![Edge::new(1, 2), Edge::new(3, 4), Edge::new(5, 6)]);
        for strat in GraphXStrategy::all() {
            let assigned = strat.assign_edges(&g, 8);
            for (e, &p) in g.edges().iter().zip(&assigned) {
                assert_eq!(p, strat.partition_edge(e.src, e.dst, 8));
            }
        }
    }
}
