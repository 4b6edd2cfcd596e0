//! The five partitioning metrics of §3.1, plus the related quantities the
//! paper mentions (replication factor, vertices-to-same/other).
//!
//! Definitions follow the paper verbatim:
//!
//! * **Balance** — edges in the biggest partition / average edges per
//!   partition (average over *all* `N` partitions, empty ones included).
//! * **Non-Cut** — vertices residing in exactly one partition.
//! * **Cut** — vertices residing in more than one partition.
//! * **Communication Cost** — total number of replicas of cut vertices
//!   (each such replica implies messages every BSP superstep).
//! * **PartStDev** — population standard deviation of edges per partition.
//!
//! The paper notes an identity between these and the Mykhailenko et al.
//! "vertices to same/other" metrics: `CommCost + NonCut` equals the total
//! replica count, which also equals `VerticesToSame + VerticesToOther` when
//! *same* counts the master-collocated replica of each present vertex and
//! *other* counts the rest. [`PartitionMetrics`] exposes all of them and the
//! identity is enforced by tests.

use cutfit_graph::types::PartId;
use cutfit_graph::{Edge, Graph};
use cutfit_stats::Summary;

use crate::partitioned::PartitionedGraph;
use crate::replicas::ReplicaBitmap;

/// Which metric to read from a [`PartitionMetrics`] — used by the experiment
/// harness to correlate each metric against execution time (Figures 3–6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Max/avg edge-partition size ratio.
    Balance,
    /// Vertices in exactly one partition.
    NonCut,
    /// Vertices in more than one partition.
    Cut,
    /// Total replicas of cut vertices.
    CommCost,
    /// Standard deviation of edges per partition.
    PartStDev,
    /// Replicas per present vertex (not a paper table column, but standard).
    ReplicationFactor,
}

impl MetricKind {
    /// All kinds, in the column order of Tables 2–3 (plus replication).
    pub fn all() -> [MetricKind; 6] {
        [
            Self::Balance,
            Self::NonCut,
            Self::Cut,
            Self::CommCost,
            Self::PartStDev,
            Self::ReplicationFactor,
        ]
    }

    /// Column header as printed in the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Balance => "Balance",
            Self::NonCut => "NonCut",
            Self::Cut => "Cut",
            Self::CommCost => "CommCost",
            Self::PartStDev => "PartStDev",
            Self::ReplicationFactor => "ReplFactor",
        }
    }
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// All partitioning metrics for one (graph, partitioner, N) combination.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMetrics {
    /// Number of partitions.
    pub num_parts: u32,
    /// Total edges.
    pub edges: u64,
    /// Vertices with at least one replica (isolated vertices excluded).
    pub vertices_present: u64,
    /// Max / average edges per partition.
    pub balance: f64,
    /// Vertices in exactly one partition.
    pub non_cut: u64,
    /// Vertices in more than one partition.
    pub cut: u64,
    /// Total replicas of cut vertices.
    pub comm_cost: u64,
    /// Population standard deviation of edges per partition.
    pub part_stdev: f64,
    /// Total replicas (= `comm_cost + non_cut`).
    pub total_replicas: u64,
    /// Replicas per present vertex.
    pub replication_factor: f64,
    /// Master-collocated replicas (one per present vertex).
    pub vertices_to_same: u64,
    /// Non-master replicas (= `total_replicas - vertices_to_same`).
    pub vertices_to_other: u64,
    /// Edges in the largest partition.
    pub max_part_edges: u64,
    /// Edges in the smallest partition.
    pub min_part_edges: u64,
}

impl PartitionMetrics {
    /// Computes every metric from a built partitioning.
    pub fn of(pg: &PartitionedGraph) -> Self {
        Self::finish(
            pg.num_parts(),
            &pg.edge_counts(),
            (0..pg.num_vertices()).map(|v| pg.routing().replication(v)),
        )
    }

    /// Computes every metric straight from an edge assignment (as produced
    /// by [`crate::Partitioner::assign_edges`]) in one streaming pass —
    /// no [`PartitionedGraph`] is built.
    ///
    /// Per-vertex replica locations are bits in one packed bitmap of
    /// ⌈`num_parts` / 64⌉ words per vertex, so the pass costs two ORs per
    /// edge plus one popcount sweep — O(edges + vertices · ⌈parts / 64⌉)
    /// time and O(vertices · ⌈parts / 64⌉ + parts) memory — with no
    /// per-partition sorting, dedup, or routing-table construction. The
    /// result is identical to [`PartitionMetrics::of`] on the built graph
    /// (both funnel through the same finishing arithmetic; parity is pinned
    /// by tests across every strategy).
    ///
    /// # Panics
    /// Panics if `assignment.len() != graph.num_edges()` or any partition id
    /// is out of range.
    pub fn of_assignment(graph: &Graph, assignment: &[PartId], num_parts: PartId) -> Self {
        assert_eq!(
            assignment.len() as u64,
            graph.num_edges(),
            "one assignment per edge"
        );
        let mut acc = MetricsAccumulator::new(graph.num_vertices(), num_parts);
        acc.observe_chunk(graph.edges(), assignment);
        acc.finish()
    }

    /// Shared finishing arithmetic: per-partition edge counts plus the
    /// per-vertex replication sequence determine every metric. Both
    /// [`PartitionMetrics::of`] and [`PartitionMetrics::of_assignment`] end
    /// here, which is what makes their outputs identical by construction.
    fn finish<I: IntoIterator<Item = u32>>(
        num_parts: PartId,
        counts: &[u64],
        replication: I,
    ) -> Self {
        let summary = Summary::of_counts(counts.iter().copied());
        let edges: u64 = counts.iter().sum();
        let avg = edges as f64 / num_parts as f64;
        // Integer extrema straight from the counts: round-tripping through
        // the `f64` summary fields silently truncates above 2^53 and needs
        // an empty-sample special case (±inf sentinels).
        let max_part_edges = counts.iter().copied().max().unwrap_or(0);
        let min_part_edges = counts.iter().copied().min().unwrap_or(0);

        let mut non_cut = 0u64;
        let mut cut = 0u64;
        let mut comm_cost = 0u64;
        for k in replication {
            match k {
                0 => {}
                1 => non_cut += 1,
                k => {
                    cut += 1;
                    comm_cost += k as u64;
                }
            }
        }
        let vertices_present = non_cut + cut;
        let total_replicas = comm_cost + non_cut;
        Self {
            num_parts,
            edges,
            vertices_present,
            // A zero-edge partitioning is perfectly balanced by definition
            // (0/0 would otherwise surface as NaN and poison downstream
            // sorts); Summary likewise reports std_dev 0 for it.
            balance: if avg > 0.0 {
                max_part_edges as f64 / avg
            } else {
                1.0
            },
            non_cut,
            cut,
            comm_cost,
            part_stdev: summary.std_dev,
            total_replicas,
            replication_factor: if vertices_present > 0 {
                total_replicas as f64 / vertices_present as f64
            } else {
                0.0
            },
            vertices_to_same: vertices_present,
            vertices_to_other: total_replicas - vertices_present,
            max_part_edges,
            min_part_edges,
        }
    }

    /// Reads one metric as a float (for correlation computations).
    pub fn get(&self, kind: MetricKind) -> f64 {
        match kind {
            MetricKind::Balance => self.balance,
            MetricKind::NonCut => self.non_cut as f64,
            MetricKind::Cut => self.cut as f64,
            MetricKind::CommCost => self.comm_cost as f64,
            MetricKind::PartStDev => self.part_stdev,
            MetricKind::ReplicationFactor => self.replication_factor,
        }
    }
}

/// Incremental builder behind [`PartitionMetrics::of_assignment`], exposed
/// so chunked [`GraphSource`](cutfit_graph::GraphSource) sweeps can fold
/// (edge, partition) observations in as chunks stream past and discard the
/// assignments immediately — working state is one replica bitmap,
/// O(vertices · ⌈parts / 64⌉ + parts) (8 B per vertex up to 64 parts, 32 B
/// at 256), never O(edges). Feeding the same observations in any chunking
/// yields the same [`PartitionMetrics`], because everything funnels through
/// the identical finishing arithmetic.
pub struct MetricsAccumulator {
    num_parts: PartId,
    counts: Vec<u64>,
    replicas: ReplicaBitmap,
}

impl MetricsAccumulator {
    /// Starts an empty accumulation over `num_vertices` vertices.
    ///
    /// # Panics
    /// Panics if `num_parts == 0`, or if `num_vertices` (possibly a file
    /// header's claim) is too large for the bitmap's size to be computed.
    pub fn new(num_vertices: u64, num_parts: PartId) -> Self {
        MetricsAccumulator {
            num_parts,
            counts: vec![0u64; num_parts as usize],
            replicas: ReplicaBitmap::new(num_vertices, num_parts),
        }
    }

    /// Folds in one edge's assignment.
    ///
    /// # Panics
    /// Panics if `p >= num_parts`.
    #[inline]
    pub(crate) fn observe(&mut self, e: &Edge, p: PartId) {
        assert!(p < self.num_parts, "partition id {p} out of range");
        self.counts[p as usize] += 1;
        self.replicas.insert(e.src, p);
        self.replicas.insert(e.dst, p);
    }

    /// Folds in a chunk of aligned edges and assignments.
    ///
    /// # Panics
    /// Panics if the slices differ in length or any id is out of range.
    pub(crate) fn observe_chunk(&mut self, edges: &[Edge], assignment: &[PartId]) {
        assert_eq!(edges.len(), assignment.len(), "one assignment per edge");
        for (e, &p) in edges.iter().zip(assignment) {
            self.observe(e, p);
        }
    }

    /// Finishes into the exact metrics [`PartitionMetrics::of`] would
    /// report for the same assignment.
    pub fn finish(self) -> PartitionMetrics {
        PartitionMetrics::finish(self.num_parts, &self.counts, self.replicas.replication())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphx::GraphXStrategy;
    use crate::strategy::Partitioner;
    use cutfit_graph::{Edge, Graph};

    fn star(n: u64) -> Graph {
        Graph::new(n, (1..n).map(|v| Edge::new(0, v)).collect())
    }

    #[test]
    fn star_under_source_cut_has_no_cut_vertices() {
        // All edges share source 0 -> all in one partition -> nothing is cut.
        let pg = GraphXStrategy::SourceCut.partition(&star(10), 4);
        let m = PartitionMetrics::of(&pg);
        assert_eq!(m.cut, 0);
        assert_eq!(m.non_cut, 10);
        assert_eq!(m.comm_cost, 0);
        assert_eq!(m.total_replicas, 10);
        assert_eq!(m.max_part_edges, 9);
        assert_eq!(m.min_part_edges, 0);
        // Max 9 edges, average 9/4.
        assert!((m.balance - 4.0).abs() < 1e-12);
    }

    #[test]
    fn star_under_destination_cut_cuts_the_hub() {
        let pg = GraphXStrategy::DestinationCut.partition(&star(9), 4);
        let m = PartitionMetrics::of(&pg);
        // Hub 0 is replicated into every partition; leaves are non-cut.
        assert_eq!(m.cut, 1);
        assert_eq!(m.non_cut, 8);
        assert_eq!(m.comm_cost, 4);
        assert!((m.replication_factor - 12.0 / 9.0).abs() < 1e-12);
        // Leaves 1..9 spread perfectly over 4 partitions.
        assert!((m.balance - 1.0).abs() < 1e-12);
        assert_eq!(m.part_stdev, 0.0);
    }

    #[test]
    fn identity_comm_cost_plus_non_cut_is_total_replicas() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 3);
        for strat in GraphXStrategy::all() {
            for n in [2u32, 7, 16, 128] {
                let m = PartitionMetrics::of(&strat.partition(&g, n));
                assert_eq!(m.comm_cost + m.non_cut, m.total_replicas, "{strat} n={n}");
                assert_eq!(
                    m.vertices_to_same + m.vertices_to_other,
                    m.total_replicas,
                    "{strat} n={n}"
                );
                assert_eq!(m.cut + m.non_cut, m.vertices_present);
            }
        }
    }

    #[test]
    fn isolated_vertices_do_not_count() {
        let g = Graph::new(10, vec![Edge::new(0, 1)]);
        let m = PartitionMetrics::of(&GraphXStrategy::RandomVertexCut.partition(&g, 2));
        assert_eq!(m.vertices_present, 2);
        assert_eq!(m.non_cut, 2);
    }

    #[test]
    fn get_matches_fields() {
        let pg = GraphXStrategy::EdgePartition1D.partition(&star(20), 4);
        let m = PartitionMetrics::of(&pg);
        assert_eq!(m.get(MetricKind::Cut), m.cut as f64);
        assert_eq!(m.get(MetricKind::CommCost), m.comm_cost as f64);
        assert_eq!(m.get(MetricKind::Balance), m.balance);
        assert_eq!(m.get(MetricKind::PartStDev), m.part_stdev);
        assert_eq!(m.get(MetricKind::NonCut), m.non_cut as f64);
        assert_eq!(m.get(MetricKind::ReplicationFactor), m.replication_factor);
    }

    #[test]
    fn single_partition_is_perfectly_balanced() {
        let g = star(50);
        let m = PartitionMetrics::of(&GraphXStrategy::RandomVertexCut.partition(&g, 1));
        assert_eq!(m.balance, 1.0);
        assert_eq!(m.cut, 0);
        assert_eq!(m.part_stdev, 0.0);
    }

    #[test]
    fn of_assignment_equals_of_for_every_strategy() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 5);
        for strat in GraphXStrategy::all() {
            // One-word and multi-word replica sets, both sides of each edge.
            for n in [1u32, 4, 63, 64, 65, 100, 128, 129, 256, 257] {
                let assignment = strat.assign_edges(&g, n);
                let streamed = PartitionMetrics::of_assignment(&g, &assignment, n);
                let built = PartitionMetrics::of(&strat.partition(&g, n));
                assert_eq!(streamed, built, "{strat} n={n}");
            }
        }
    }

    #[test]
    fn empty_partitioning_is_balanced_not_nan() {
        // Zero edges: balance is 1.0 by definition and PartStDev 0.0, so
        // downstream rankings never see a NaN (0/0) from degenerate inputs.
        let g = Graph::new(7, Vec::new());
        for m in [
            PartitionMetrics::of_assignment(&g, &[], 4),
            PartitionMetrics::of(&GraphXStrategy::SourceCut.partition(&g, 4)),
        ] {
            assert_eq!(m.balance, 1.0);
            assert_eq!(m.part_stdev, 0.0);
            assert_eq!(m.replication_factor, 0.0);
            assert_eq!(m.vertices_present, 0);
            assert!(MetricKind::all().iter().all(|&k| m.get(k).is_finite()));
        }
    }

    #[test]
    #[should_panic(expected = "one assignment per edge")]
    fn of_assignment_rejects_mismatched_length() {
        let g = star(4);
        PartitionMetrics::of_assignment(&g, &[0], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn of_assignment_rejects_bad_part_id() {
        let g = Graph::new(2, vec![Edge::new(0, 1)]);
        PartitionMetrics::of_assignment(&g, &[9], 2);
    }
}
