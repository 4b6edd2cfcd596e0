//! The vertex-cut partitioned graph: per-partition edge blocks, local vertex
//! tables, routing tables, and master assignment.
//!
//! Mirrors GraphX's runtime representation: edges live in exactly one
//! partition; every endpoint vertex is *replicated* into each partition that
//! holds one of its edges; a routing table records, per vertex, the set of
//! partitions holding a replica; and one replica per vertex is designated
//! the **master**, where vertex-program updates are applied before being
//! broadcast back to the mirrors (GraphX's `ReplicatedVertexView`).
//!
//! Materialization is a counting-sort pipeline ([`PartitionedGraph::build`],
//! [`PartitionedGraph::build_threaded`]): no hashing, no comparison sorts,
//! no per-edge binary searches — every table is scattered into exactly
//! pre-counted flat storage. The pre-rewrite implementation is retained as
//! [`PartitionedGraph::build_reference`] so tests can pin the fast path
//! field-for-field against it.

use cutfit_graph::types::PartId;
use cutfit_graph::{Graph, VertexId};
use cutfit_util::exec::{run_ranges, DisjointSlice};
use cutfit_util::hash::hash64;

/// Sentinel for "vertex has no replica anywhere" (isolated vertices).
pub const NO_PART: PartId = PartId::MAX;

/// One edge partition: edges re-indexed into a local vertex table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgePartition {
    /// Edges as (local src, local dst) indices into `vertices`.
    pub edges: Vec<(u32, u32)>,
    /// Sorted global IDs of the vertices replicated into this partition.
    pub vertices: Vec<VertexId>,
}

impl EdgePartition {
    /// Number of edges stored here.
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Number of vertex replicas stored here.
    pub fn num_vertices(&self) -> u64 {
        self.vertices.len() as u64
    }

    /// Global ID of a local vertex index.
    #[inline]
    pub fn global(&self, local: u32) -> VertexId {
        self.vertices[local as usize]
    }

    /// Local index of a global vertex ID, if replicated here.
    #[inline]
    pub fn local(&self, global: VertexId) -> Option<u32> {
        self.vertices.binary_search(&global).ok().map(|i| i as u32)
    }

    /// Bytes of partition structure resident on its executor: 8 per edge
    /// (two local `u32` ids) plus 8 per replica id entry. Vertex state is
    /// accounted separately — it depends on the running program.
    pub fn structure_bytes(&self) -> u64 {
        self.num_edges() * 8 + self.num_vertices() * 8
    }
}

/// Per-vertex replica locations, CSR-packed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    offsets: Vec<u64>,
    parts: Vec<PartId>,
}

impl RoutingTable {
    /// Partitions holding a replica of `v`, sorted ascending.
    #[inline]
    pub fn parts_of(&self, v: VertexId) -> &[PartId] {
        &self.parts[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Number of replicas of `v` (0 for isolated vertices).
    #[inline]
    pub fn replication(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Total number of (vertex, partition) replica pairs.
    pub fn total_replicas(&self) -> u64 {
        self.parts.len() as u64
    }
}

/// A fully built vertex-cut partitioning of a graph.
#[derive(Debug, Clone)]
pub struct PartitionedGraph {
    num_parts: PartId,
    num_vertices: u64,
    parts: Vec<EdgePartition>,
    routing: RoutingTable,
    masters: Vec<PartId>,
}

impl PartitionedGraph {
    /// Builds the representation from a per-edge assignment (as produced by
    /// [`crate::Partitioner::assign_edges`]) with a counting-sort pipeline:
    /// edges are scattered once into a flat per-partition buffer by
    /// prefix-sum cursors, replica sets are discovered with a stamp array
    /// (no sorting or hashing), and the routing table, sorted local vertex
    /// tables, and masters all fall out of one counting transpose.
    ///
    /// # Panics
    /// Panics if `assignment.len() != graph.num_edges()` or any partition id
    /// is out of range.
    pub fn build(graph: &Graph, assignment: &[PartId], num_parts: PartId) -> Self {
        Self::build_threaded(graph, assignment, num_parts, 1)
    }

    /// Like [`PartitionedGraph::build`], but shards the per-partition work
    /// (replica discovery, local re-indexing) across up to `threads`
    /// workers (`0` auto-sizes from the host). The result is
    /// **bit-identical** to the sequential build at any thread count: the
    /// edge scatter is stable, each partition is processed by exactly one
    /// worker, and the routing transpose is order-independent.
    pub fn build_threaded(
        graph: &Graph,
        assignment: &[PartId],
        num_parts: PartId,
        threads: usize,
    ) -> Self {
        let threads = crate::sweep::resolve_threads(threads);
        assert_eq!(
            assignment.len(),
            graph.num_edges() as usize,
            "one assignment per edge"
        );
        assert!(num_parts > 0, "need at least one partition");
        let np = num_parts as usize;
        let n = graph.num_vertices() as usize;

        // Pass 1: exact per-partition edge counts -> prefix-sum offsets.
        // Also the only place assignments are validated, so the panic
        // fires on the calling thread for every build variant.
        let mut edge_offsets = vec![0usize; np + 1];
        for &p in assignment {
            assert!(p < num_parts, "partition id {p} out of range");
            edge_offsets[p as usize + 1] += 1;
        }
        for i in 0..np {
            edge_offsets[i + 1] += edge_offsets[i];
        }

        // Pass 2: scatter the global endpoint pairs into one flat buffer,
        // grouped by partition. The scatter is stable: within a partition,
        // edges keep their original edge-list order.
        let mut cursor = edge_offsets[..np].to_vec();
        let mut flat: Vec<(VertexId, VertexId)> = vec![(0, 0); assignment.len()];
        for (e, &p) in graph.edges().iter().zip(assignment) {
            let c = &mut cursor[p as usize];
            flat[*c] = (e.src, e.dst);
            *c += 1;
        }

        // Pass 3 (sharded over partitions): discover each partition's
        // replica set in one sweep over its edge block. A per-worker stamp
        // array dedups endpoints in O(1) each — the stamp is the partition
        // id itself, which never collides across the partitions one worker
        // processes (and NO_PART is out of range for valid ids).
        let mut replica_lists: Vec<Vec<VertexId>> = vec![Vec::new(); np];
        {
            let cells = DisjointSlice::new(&mut replica_lists);
            let flat = &flat;
            let edge_offsets = &edge_offsets;
            run_ranges(np, threads, |parts| {
                let mut seen = vec![NO_PART; n];
                for p in parts {
                    let block = &flat[edge_offsets[p]..edge_offsets[p + 1]];
                    let stamp = p as PartId;
                    let mut verts = Vec::with_capacity((block.len() * 2).min(n));
                    for &(s, d) in block {
                        if seen[s as usize] != stamp {
                            seen[s as usize] = stamp;
                            verts.push(s);
                        }
                        if seen[d as usize] != stamp {
                            seen[d as usize] = stamp;
                            verts.push(d);
                        }
                    }
                    // SAFETY: partition ranges are disjoint across workers.
                    unsafe { *cells.get_mut(p) = verts };
                }
            });
        }

        // Pass 4 (O(replicas + n), no comparison sorts): counting
        // transpose. Scattering partition ids in ascending-p order sorts
        // each vertex's routing slice by construction; walking vertices in
        // ascending order then sorts each partition's vertex table by
        // construction. Masters come from the same sweep.
        let mut offsets = vec![0u64; n + 1];
        for verts in &replica_lists {
            for &v in verts {
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut rcursor: Vec<u64> = offsets[..n].to_vec();
        let mut routing_parts = vec![0 as PartId; offsets[n] as usize];
        for (p, verts) in replica_lists.iter().enumerate() {
            for &v in verts {
                let c = &mut rcursor[v as usize];
                routing_parts[*c as usize] = p as PartId;
                *c += 1;
            }
        }
        let routing = RoutingTable {
            offsets,
            parts: routing_parts,
        };

        let mut vertex_tables: Vec<Vec<VertexId>> = replica_lists
            .iter()
            .map(|l| Vec::with_capacity(l.len()))
            .collect();
        drop(replica_lists);
        let mut masters = vec![NO_PART; n];
        for v in 0..n as u64 {
            let replicas = routing.parts_of(v);
            if !replicas.is_empty() {
                masters[v as usize] = replicas[(hash64(v) % replicas.len() as u64) as usize];
            }
            for &p in replicas {
                vertex_tables[p as usize].push(v);
            }
        }

        // Pass 5 (sharded over partitions): dense global->local remap,
        // built in one sweep over the sorted vertex table, then O(1)
        // re-indexing per endpoint — replacing the per-edge binary search.
        // Stale remap entries from a worker's previous partition are never
        // read: every endpoint of this block was just written.
        let mut parts = vec![EdgePartition::default(); np];
        {
            let part_cells = DisjointSlice::new(&mut parts);
            let table_cells = DisjointSlice::new(&mut vertex_tables);
            let flat = &flat;
            let edge_offsets = &edge_offsets;
            run_ranges(np, threads, |range| {
                let mut local = vec![0u32; n];
                for p in range {
                    // SAFETY: partition ranges are disjoint across workers.
                    let vertices = unsafe { std::mem::take(table_cells.get_mut(p)) };
                    for (i, &v) in vertices.iter().enumerate() {
                        local[v as usize] = i as u32;
                    }
                    let block = &flat[edge_offsets[p]..edge_offsets[p + 1]];
                    let edges = block
                        .iter()
                        .map(|&(s, d)| (local[s as usize], local[d as usize]))
                        .collect();
                    // SAFETY: as above.
                    unsafe { *part_cells.get_mut(p) = EdgePartition { edges, vertices } };
                }
            });
        }

        Self {
            num_parts,
            num_vertices: graph.num_vertices(),
            parts,
            routing,
            masters,
        }
    }

    /// The pre-counting-sort build, retained as the pinned reference
    /// implementation: Vec-of-Vec bucketing, per-partition endpoint sort +
    /// dedup, and per-edge binary-search re-indexing.
    ///
    /// Property tests pin [`PartitionedGraph::build`] and
    /// [`PartitionedGraph::build_threaded`] equal to this field-for-field.
    /// Not intended for production callers.
    pub fn build_reference(graph: &Graph, assignment: &[PartId], num_parts: PartId) -> Self {
        assert_eq!(
            assignment.len(),
            graph.num_edges() as usize,
            "one assignment per edge"
        );
        assert!(num_parts > 0, "need at least one partition");
        let np = num_parts as usize;
        let n = graph.num_vertices() as usize;

        // Pass 1: count edges per partition.
        let mut counts = vec![0usize; np];
        for &p in assignment {
            assert!(p < num_parts, "partition id {p} out of range");
            counts[p as usize] += 1;
        }

        // Pass 2: bucket global edges per partition.
        let mut global_edges: Vec<Vec<(VertexId, VertexId)>> =
            counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (e, &p) in graph.edges().iter().zip(assignment) {
            global_edges[p as usize].push((e.src, e.dst));
        }

        // Pass 3: per partition, build the local vertex table and re-index.
        let mut parts = Vec::with_capacity(np);
        for bucket in &global_edges {
            let mut vertices: Vec<VertexId> = Vec::with_capacity(bucket.len() * 2);
            for &(s, d) in bucket {
                vertices.push(s);
                vertices.push(d);
            }
            vertices.sort_unstable();
            vertices.dedup();
            // `vertices` holds every endpoint once, sorted: the number of
            // smaller ones is the endpoint's index.
            let local = |v: VertexId| vertices.partition_point(|&x| x < v) as u32;
            let edges = bucket.iter().map(|&(s, d)| (local(s), local(d))).collect();
            parts.push(EdgePartition { edges, vertices });
        }

        // Pass 4: routing table (vertex -> sorted partition list).
        let mut offsets = vec![0u64; n + 1];
        for part in &parts {
            for &v in &part.vertices {
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut routing_parts = vec![0 as PartId; offsets[n] as usize];
        for (p, part) in parts.iter().enumerate() {
            for &v in &part.vertices {
                routing_parts[cursor[v as usize] as usize] = p as PartId;
                cursor[v as usize] += 1;
            }
        }
        // Partition lists are visited in ascending p, so each vertex's slice
        // is already sorted.
        let routing = RoutingTable {
            offsets,
            parts: routing_parts,
        };

        // Pass 5: masters — a deterministic hash-choice among the replicas,
        // mirroring GraphX's hash-partitioned vertex RDD.
        let masters = (0..n as u64)
            .map(|v| {
                let replicas = routing.parts_of(v);
                if replicas.is_empty() {
                    NO_PART
                } else {
                    replicas[(hash64(v) % replicas.len() as u64) as usize]
                }
            })
            .collect();

        Self {
            num_parts,
            num_vertices: graph.num_vertices(),
            parts,
            routing,
            masters,
        }
    }

    /// Number of partitions (including empty ones).
    pub fn num_parts(&self) -> PartId {
        self.num_parts
    }

    /// Number of vertices of the underlying graph (including isolated ones).
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Total number of edges across partitions.
    pub fn num_edges(&self) -> u64 {
        self.parts.iter().map(|p| p.num_edges()).sum()
    }

    /// The edge partitions, indexed by partition id.
    pub fn parts(&self) -> &[EdgePartition] {
        &self.parts
    }

    /// The vertex routing table.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Master partition of `v`, or `None` for isolated vertices.
    pub fn master_of(&self, v: VertexId) -> Option<PartId> {
        match self.masters[v as usize] {
            NO_PART => None,
            p => Some(p),
        }
    }

    /// Raw master table, indexed by vertex id; isolated vertices hold
    /// [`NO_PART`]. Exposed so executors can build per-run routing indexes
    /// without an `Option` unwrap per vertex.
    pub fn masters(&self) -> &[PartId] {
        &self.masters
    }

    /// Per-partition edge counts (length `num_parts`).
    pub fn edge_counts(&self) -> Vec<u64> {
        self.parts.iter().map(|p| p.num_edges()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphx::GraphXStrategy;
    use crate::strategy::Partitioner;
    use cutfit_graph::Edge;

    fn sample_graph() -> Graph {
        Graph::new(
            6,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(3, 0),
                Edge::new(4, 0),
            ],
        )
    }

    #[test]
    fn build_preserves_edges() {
        let g = sample_graph();
        let pg = GraphXStrategy::SourceCut.partition(&g, 3);
        assert_eq!(pg.num_edges(), g.num_edges());
        assert_eq!(pg.num_parts(), 3);
        // SC: edges from src 0 and 3 -> parts 0; 1,4 -> 1; 2 -> 2.
        assert_eq!(pg.edge_counts(), vec![2, 2, 1]);
    }

    #[test]
    fn local_indices_roundtrip() {
        let g = sample_graph();
        let pg = GraphXStrategy::RandomVertexCut.partition(&g, 2);
        for part in pg.parts() {
            for &(ls, ld) in &part.edges {
                let s = part.global(ls);
                let d = part.global(ld);
                assert_eq!(part.local(s), Some(ls));
                assert_eq!(part.local(d), Some(ld));
            }
        }
    }

    #[test]
    fn routing_matches_partition_membership() {
        let g = sample_graph();
        let pg = GraphXStrategy::CanonicalRandomVertexCut.partition(&g, 4);
        for v in 0..g.num_vertices() {
            let from_routing: Vec<PartId> = pg.routing().parts_of(v).to_vec();
            let from_parts: Vec<PartId> = pg
                .parts()
                .iter()
                .enumerate()
                .filter(|(_, part)| part.local(v).is_some())
                .map(|(i, _)| i as PartId)
                .collect();
            assert_eq!(from_routing, from_parts, "vertex {v}");
        }
    }

    #[test]
    fn masters_are_replicas() {
        let g = sample_graph();
        let pg = GraphXStrategy::EdgePartition2D.partition(&g, 4);
        for v in 0..g.num_vertices() {
            match pg.master_of(v) {
                Some(m) => assert!(pg.routing().parts_of(v).contains(&m)),
                None => assert!(pg.routing().parts_of(v).is_empty()),
            }
        }
    }

    #[test]
    fn isolated_vertex_has_no_master() {
        let g = Graph::new(3, vec![Edge::new(0, 1)]);
        let pg = GraphXStrategy::SourceCut.partition(&g, 2);
        assert_eq!(pg.master_of(2), None);
        assert_eq!(pg.routing().replication(2), 0);
        assert!(pg.master_of(0).is_some());
    }

    #[test]
    #[should_panic(expected = "one assignment per edge")]
    fn build_rejects_mismatched_assignment() {
        let g = sample_graph();
        PartitionedGraph::build(&g, &[0, 1], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn build_rejects_bad_part_id() {
        let g = Graph::new(2, vec![Edge::new(0, 1)]);
        PartitionedGraph::build(&g, &[5], 2);
    }

    /// Field-for-field equality, used to pin the counting-sort build
    /// against the retained reference.
    fn assert_same(a: &PartitionedGraph, b: &PartitionedGraph) {
        assert_eq!(a.num_parts(), b.num_parts());
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.parts(), b.parts());
        assert_eq!(a.routing(), b.routing());
        assert_eq!(a.masters(), b.masters());
    }

    #[test]
    fn build_matches_reference_on_sample() {
        let g = sample_graph();
        for np in [1u32, 2, 3, 7] {
            let assignment = GraphXStrategy::RandomVertexCut.assign_edges(&g, np);
            let reference = PartitionedGraph::build_reference(&g, &assignment, np);
            assert_same(&PartitionedGraph::build(&g, &assignment, np), &reference);
        }
    }

    #[test]
    fn build_threaded_is_bit_identical_to_sequential() {
        let g = sample_graph();
        let assignment = GraphXStrategy::EdgePartition2D.assign_edges(&g, 4);
        let seq = PartitionedGraph::build(&g, &assignment, 4);
        for threads in [1usize, 2, 4, 0] {
            let par = PartitionedGraph::build_threaded(&g, &assignment, 4, threads);
            assert_same(&par, &seq);
        }
    }

    #[test]
    fn build_handles_isolated_vertices_and_empty_partitions() {
        // Vertices 3 and 4 are isolated; partition 1 is empty.
        let g = Graph::new(5, vec![Edge::new(0, 1), Edge::new(1, 2)]);
        let assignment = vec![0, 2];
        let reference = PartitionedGraph::build_reference(&g, &assignment, 4);
        for threads in [1usize, 3] {
            let pg = PartitionedGraph::build_threaded(&g, &assignment, 4, threads);
            assert_same(&pg, &reference);
            assert_eq!(pg.master_of(3), None);
            assert_eq!(pg.parts()[1].num_edges(), 0);
            assert_eq!(pg.parts()[1].num_vertices(), 0);
        }
    }

    #[test]
    fn build_empty_graph() {
        let g = Graph::new(0, vec![]);
        let pg = PartitionedGraph::build(&g, &[], 3);
        assert_eq!(pg.num_edges(), 0);
        assert_eq!(pg.routing().total_replicas(), 0);
        assert_same(&pg, &PartitionedGraph::build_reference(&g, &[], 3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn build_threaded_rejects_bad_part_id() {
        let g = Graph::new(2, vec![Edge::new(0, 1)]);
        PartitionedGraph::build_threaded(&g, &[5], 2, 2);
    }

    #[test]
    fn total_replicas_counts_pairs() {
        let g = Graph::new(2, vec![Edge::new(0, 1), Edge::new(1, 0)]);
        // RVC may split the two directions into different partitions.
        let pg = GraphXStrategy::RandomVertexCut.partition(&g, 8);
        let r = pg.routing().total_replicas();
        assert!(r == 2 || r == 4, "either collocated or split: {r}");
    }
}
