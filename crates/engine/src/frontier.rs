//! Frontier-driven sparse execution support.
//!
//! Converging programs (SSSP, CC, max-label, …) spend their tail supersteps
//! with a handful of active vertices, yet a dense scan still walks every
//! edge of every partition checking the activity predicate. This module
//! holds everything the engine needs to execute those supersteps in
//! O(active) instead of O(V + E):
//!
//! * [`FrontierAdjacency`] — a per-vertex table of its local index in every
//!   replica partition (one cheap pass over the partition tables, made when
//!   the engine first plans a scan from a frontier), plus per-partition
//!   incident-edge CSRs (separately for src and dst endpoints), each built
//!   on its partition's second sparse-eligible superstep, so short
//!   dense-dominated runs never pay for them;
//! * [`FrontierBuffers`] — the per-run frontier bookkeeping: the current
//!   frontier grouped by home partition, per-partition frontier-local and
//!   touched-slot lists, and the gather scratch, all reused across
//!   supersteps and jobs;
//! * [`plan_sparse_scan`] / [`gather_edges`] — the per-superstep frontier
//!   distribution, the dense/sparse switch, and the incident-edge gather.
//!
//! **Bit-identity.** A sparse scan must reproduce the dense scan exactly —
//! vertex states *and* the metered bill. Two facts make that hold: the
//! gathered edge set equals the set the dense predicate would match (so the
//! `matched` edge-scan count, and thus compute billing, is identical), and
//! gathered edge indices are visited in ascending order per partition (so
//! every partial slot receives its messages in the same order as the dense
//! walk, and float merges produce the same bit patterns).

use std::sync::OnceLock;

use cutfit_graph::VertexId;
use cutfit_partition::PartitionedGraph;
use cutfit_util::num::{part_index, vid_index};

use crate::program::ActiveDirection;

/// Incident-edge CSR of one partition: for every local vertex, the indices
/// into the partition's edge table where it appears as src / as dst.
/// Counting-sort construction scatters edges in table order, so each
/// local's group is automatically ascending.
pub(crate) struct PartAdjacency {
    src_offsets: Vec<u32>,
    src_edges: Vec<u32>,
    dst_offsets: Vec<u32>,
    dst_edges: Vec<u32>,
}

impl PartAdjacency {
    fn build(num_locals: usize, edges: &[(u32, u32)]) -> Self {
        let (src_offsets, src_edges) = group_indices(num_locals, edges, |&(ls, _)| ls);
        let (dst_offsets, dst_edges) = group_indices(num_locals, edges, |&(_, ld)| ld);
        Self {
            src_offsets,
            src_edges,
            dst_offsets,
            dst_edges,
        }
    }

    /// Edge indices where `local` is the source, ascending.
    #[inline]
    pub(crate) fn src_edges_of(&self, local: u32) -> &[u32] {
        let l = local as usize;
        &self.src_edges[self.src_offsets[l] as usize..self.src_offsets[l + 1] as usize]
    }

    /// Edge indices where `local` is the destination, ascending.
    #[inline]
    pub(crate) fn dst_edges_of(&self, local: u32) -> &[u32] {
        let l = local as usize;
        &self.dst_edges[self.dst_offsets[l] as usize..self.dst_offsets[l + 1] as usize]
    }
}

/// Counting sort of `items`' indices by `key` (each below `num_keys`):
/// CSR offsets, one group per key, and the indices grouped by key, in
/// ascending index order within each group.
pub(crate) fn group_indices<T>(
    num_keys: usize,
    items: &[T],
    key: impl Fn(&T) -> u32,
) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; num_keys + 1];
    for item in items {
        offsets[key(item) as usize + 1] += 1;
    }
    for k in 0..num_keys {
        offsets[k + 1] += offsets[k];
    }
    let mut cursor = offsets.clone();
    let mut grouped = vec![0u32; items.len()];
    for (i, item) in items.iter().enumerate() {
        let k = key(item) as usize;
        grouped[cursor[k] as usize] = i as u32;
        cursor[k] += 1;
    }
    (offsets, grouped)
}

/// The run-scoped sparse-scan index: the replica-local table that turns
/// "vertex v is active" into "local l of partition p is active" without
/// binary searches, plus lazily built per-partition incident-edge CSRs.
/// Each CSR is built at most once — during sequential scan planning, when
/// its partition shows repeated sparse demand (see `plan_sparse_scan`) —
/// so a run (or a whole prepared-run session) whose frontiers never
/// settle into a partition never pays that partition's O(E_p) build.
pub(crate) struct FrontierAdjacency {
    parts: Vec<OnceLock<PartAdjacency>>,
    /// CSR offsets into `replica_locals`, one group per vertex.
    replica_offsets: Vec<u64>,
    /// For each vertex, its local index in each replica partition, aligned
    /// with `RoutingTable::parts_of` (ascending partition order).
    replica_locals: Vec<u32>,
}

impl FrontierAdjacency {
    pub(crate) fn build(pg: &PartitionedGraph) -> Self {
        let n = pg.num_vertices() as usize;
        let parts = (0..pg.parts().len()).map(|_| OnceLock::new()).collect();
        let mut replica_offsets = vec![0u64; n + 1];
        for v in 0..n as u64 {
            replica_offsets[vid_index(v) + 1] =
                replica_offsets[vid_index(v)] + pg.routing().parts_of(v).len() as u64;
        }
        let mut cursor: Vec<u64> = replica_offsets[..n].to_vec();
        let mut replica_locals = vec![0u32; replica_offsets[n] as usize];
        // Partitions are visited ascending and `parts_of` lists partitions
        // ascending, so each vertex's cursor fills its group in exactly
        // `parts_of` order — the two stay index-aligned by construction.
        for part in pg.parts() {
            for (local, &v) in part.vertices.iter().enumerate() {
                let slot = &mut cursor[vid_index(v)];
                replica_locals[*slot as usize] = local as u32;
                *slot += 1;
            }
        }
        Self {
            parts,
            replica_offsets,
            replica_locals,
        }
    }

    /// Local index of `v` in each of its replica partitions, aligned with
    /// `RoutingTable::parts_of(v)`.
    #[inline]
    pub(crate) fn locals_of(&self, v: VertexId) -> &[u32] {
        &self.replica_locals[self.replica_offsets[vid_index(v)] as usize
            ..self.replica_offsets[vid_index(v) + 1] as usize]
    }

    /// Partition `p`'s incident-edge CSR, built on first use.
    pub(crate) fn ensure_part(&self, p: usize, pg: &PartitionedGraph) -> &PartAdjacency {
        self.parts[p].get_or_init(|| {
            let part = &pg.parts()[p];
            PartAdjacency::build(part.vertices.len(), &part.edges)
        })
    }

    /// Partition `p`'s incident-edge CSR, if already built.
    #[inline]
    pub(crate) fn part(&self, p: usize) -> Option<&PartAdjacency> {
        self.parts[p].get()
    }
}

/// How one partition is scanned this superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanKind {
    /// Every edge, no activity predicate — the first message superstep
    /// (everything starts active) and every superstep of `always_active`
    /// programs. Provably equal to a dense scan over an all-true bitset.
    Full,
    /// Every edge, filtered by the activity bitset.
    Dense,
    /// Only the frontier's incident edges, gathered and visited in
    /// ascending edge-index order.
    Sparse,
}

/// Program-independent frontier bookkeeping, allocated once and reused
/// across supersteps and jobs (lists are drained or cleared in place, so
/// capacity is retained).
pub(crate) struct FrontierBuffers {
    /// Current frontier, grouped by home partition. Lock-free under the
    /// pool: each home partition belongs to exactly one thread.
    pub(crate) frontier: Vec<Vec<VertexId>>,
    /// Vertices whose inbox slot was first written this superstep, grouped
    /// by home — swapped in as the next frontier after the apply.
    pub(crate) touched_inbox: Vec<Vec<VertexId>>,
    /// Per partition: local indices of frontier vertices replicated there.
    pub(crate) part_frontier: Vec<Vec<u32>>,
    /// Per partition: partial slots first written by a sparse scan — the
    /// shuffle drains exactly these instead of sweeping all locals.
    pub(crate) touched_partials: Vec<Vec<u32>>,
    /// Per partition: gathered incident-edge index scratch.
    pub(crate) gather: Vec<Vec<u32>>,
    /// Per partition: frontier-incident degree sum (the sparse cost bound).
    pub(crate) deg_sum: Vec<u64>,
    /// Per partition: the scan kind chosen this superstep.
    pub(crate) scan_kind: Vec<ScanKind>,
    /// Per partition: edges the scan visited this superstep (the metered
    /// edge-scan count).
    pub(crate) matched: Vec<u64>,
    /// Per partition: supersteps that wanted a sparse scan so far this run.
    /// The CSR build is deferred until the second one — a lone sparse-
    /// eligible superstep (a converging run's final trickle) is cheaper to
    /// scan densely once than to build an O(E_p) index for.
    pub(crate) sparse_wants: Vec<u32>,
}

impl FrontierBuffers {
    pub(crate) fn new(num_parts: usize) -> Self {
        Self {
            frontier: vec![Vec::new(); num_parts],
            touched_inbox: vec![Vec::new(); num_parts],
            part_frontier: vec![Vec::new(); num_parts],
            touched_partials: vec![Vec::new(); num_parts],
            gather: vec![Vec::new(); num_parts],
            deg_sum: vec![0; num_parts],
            scan_kind: vec![ScanKind::Full; num_parts],
            matched: vec![0; num_parts],
            sparse_wants: vec![0; num_parts],
        }
    }

    /// Clears every list — a previous run may have aborted (out of memory)
    /// mid-superstep with lists half-populated.
    pub(crate) fn reset(&mut self) {
        for list in self
            .frontier
            .iter_mut()
            .chain(self.touched_inbox.iter_mut())
        {
            list.clear();
        }
        for list in self
            .part_frontier
            .iter_mut()
            .chain(self.touched_partials.iter_mut())
            .chain(self.gather.iter_mut())
        {
            list.clear();
        }
        self.deg_sum.fill(0);
        self.sparse_wants.fill(0);
    }
}

/// A partition goes sparse when its frontier-incident degree sum is at most
/// `1/SPARSE_SCAN_FACTOR` of its edge count — the direction-optimizing-BFS
/// style switch, biased toward dense because the sparse path pays a gather
/// and a sort on top of each visited edge.
pub(crate) const SPARSE_SCAN_FACTOR: u64 = 4;

/// Distributes the frontier to its replica partitions (filling
/// `part_frontier` and `deg_sum`) and picks each partition's scan kind,
/// lazily building the incident-edge CSR of partitions that keep asking
/// for sparse scans (`sparse_wants` defers the build past a partition's
/// first eligible superstep, which runs dense instead — either choice is
/// exact, so this is purely a cost call). Returns the frontier size, for
/// telemetry.
///
/// `deg_sum` holds each partition's *upper bound* on frontier-incident
/// edges: the sum of the frontier replicas' whole-graph degrees, which
/// dominates their in-partition degrees. Bounding with global degrees keeps
/// planning free of the CSRs (only the per-vertex degree tables the engine
/// already carries), so partitions that always choose dense never build
/// one; the bias is toward dense, where being wrong costs least. Two fast
/// paths bound the planning cost itself: an empty frontier skips
/// everything, and a frontier whose total degree already exceeds the
/// whole graph's dense threshold goes dense without the O(frontier ×
/// replication) distribution pass.
pub(crate) fn plan_sparse_scan(
    pg: &PartitionedGraph,
    adj: &FrontierAdjacency,
    dir: ActiveDirection,
    force_sparse: bool,
    degrees: (&[u32], &[u32]),
    fb: &mut FrontierBuffers,
) -> u64 {
    let (out_deg, in_deg) = degrees;
    let FrontierBuffers {
        frontier,
        part_frontier,
        deg_sum,
        scan_kind,
        sparse_wants,
        ..
    } = fb;
    let degree_of = |v: VertexId| -> u64 {
        match dir {
            ActiveDirection::Either => {
                u64::from(out_deg[vid_index(v)]) + u64::from(in_deg[vid_index(v)])
            }
            ActiveDirection::Out | ActiveDirection::Both => u64::from(out_deg[vid_index(v)]),
            ActiveDirection::In => u64::from(in_deg[vid_index(v)]),
        }
    };
    let mut active = 0u64;
    let mut frontier_degree = 0u64;
    for flist in frontier.iter() {
        active += flist.len() as u64;
        for &v in flist {
            frontier_degree += degree_of(v);
        }
    }
    if !force_sparse && frontier_degree.saturating_mul(SPARSE_SCAN_FACTOR) > pg.num_edges() {
        // Dense-everywhere superstep: no partition's bound can beat the
        // aggregate, so skip the distribution pass entirely.
        scan_kind.fill(ScanKind::Dense);
        return active;
    }

    for list in part_frontier.iter_mut() {
        list.clear();
    }
    deg_sum.fill(0);
    for flist in frontier.iter() {
        for &v in flist {
            let degree = degree_of(v);
            let replica_parts = pg.routing().parts_of(v);
            for (&p, &local) in replica_parts.iter().zip(adj.locals_of(v)) {
                let pi = part_index(p);
                deg_sum[pi] += degree;
                part_frontier[pi].push(local);
            }
        }
    }
    for (p, kind) in scan_kind.iter_mut().enumerate() {
        let edges = pg.parts()[p].edges.len() as u64;
        let eligible = force_sparse || deg_sum[p].saturating_mul(SPARSE_SCAN_FACTOR) <= edges;
        *kind = if !eligible {
            ScanKind::Dense
        } else if part_frontier[p].is_empty() || adj.part(p).is_some() {
            // Nothing to gather, or the CSR already exists: sparse is free.
            ScanKind::Sparse
        } else if force_sparse || sparse_wants[p] > 0 {
            // Second sparse-eligible superstep (or a forced mode): the
            // tail is persistent, so the build will amortize. Scans may
            // run on the pool; build here, sequentially.
            adj.ensure_part(p, pg);
            ScanKind::Sparse
        } else {
            sparse_wants[p] = 1;
            ScanKind::Dense
        };
    }
    active
}

/// Gathers into `out` the edge indices a sparse scan of this partition must
/// visit, ascending: exactly the edges the dense activity predicate would
/// match — except for `Both`, where the gather covers active-src edges and
/// the scan filters on the destination bit.
///
/// `flist` holds the partition-local indices of frontier vertices. Each
/// vertex appears at most once (the frontier records first inbox writes),
/// so per-local incident lists are disjoint for a single endpoint role;
/// only the `Either` union (and self-loops within it) can produce
/// duplicates, removed by the dedup after the sort.
pub(crate) fn gather_edges(
    pa: &PartAdjacency,
    flist: &[u32],
    dir: ActiveDirection,
    out: &mut Vec<u32>,
) {
    out.clear();
    match dir {
        ActiveDirection::Either => {
            for &local in flist {
                out.extend_from_slice(pa.src_edges_of(local));
                out.extend_from_slice(pa.dst_edges_of(local));
            }
            out.sort_unstable();
            out.dedup();
        }
        ActiveDirection::Out | ActiveDirection::Both => {
            for &local in flist {
                out.extend_from_slice(pa.src_edges_of(local));
            }
            out.sort_unstable();
        }
        ActiveDirection::In => {
            for &local in flist {
                out.extend_from_slice(pa.dst_edges_of(local));
            }
            out.sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_datagen::{rmat, RmatConfig};
    use cutfit_partition::{GraphXStrategy, Partitioner};

    fn sample() -> PartitionedGraph {
        let g = rmat(&RmatConfig::default(), 8);
        GraphXStrategy::EdgePartition2D.partition(&g, 8)
    }

    #[test]
    fn incident_csr_lists_every_edge_once_ascending() {
        let pg = sample();
        let adj = FrontierAdjacency::build(&pg);
        for (p, part) in pg.parts().iter().enumerate() {
            assert!(adj.part(p).is_none(), "CSRs start unbuilt");
            let pa = adj.ensure_part(p, &pg);
            let mut seen_src = 0usize;
            let mut seen_dst = 0usize;
            for local in 0..part.vertices.len() as u32 {
                for list in [pa.src_edges_of(local), pa.dst_edges_of(local)] {
                    assert!(list.windows(2).all(|w| w[0] < w[1]), "ascending, unique");
                }
                for &e in pa.src_edges_of(local) {
                    assert_eq!(part.edges[e as usize].0, local);
                    seen_src += 1;
                }
                for &e in pa.dst_edges_of(local) {
                    assert_eq!(part.edges[e as usize].1, local);
                    seen_dst += 1;
                }
            }
            assert_eq!(seen_src, part.edges.len());
            assert_eq!(seen_dst, part.edges.len());
            assert!(adj.part(p).is_some(), "first use builds the CSR");
        }
    }

    #[test]
    fn replica_locals_align_with_routing() {
        let pg = sample();
        let adj = FrontierAdjacency::build(&pg);
        for v in 0..pg.num_vertices() {
            let replica_parts = pg.routing().parts_of(v);
            let locals = adj.locals_of(v);
            assert_eq!(replica_parts.len(), locals.len());
            for (&p, &local) in replica_parts.iter().zip(locals) {
                assert_eq!(
                    pg.parts()[part_index(p)].vertices[local as usize],
                    v,
                    "local {local} of partition {p} must resolve back to {v}"
                );
            }
        }
    }

    #[test]
    fn gather_matches_the_dense_predicate_for_every_direction() {
        let pg = sample();
        let adj = FrontierAdjacency::build(&pg);
        let n = pg.num_vertices() as usize;
        // A deterministic, scattered frontier: every 7th vertex.
        let active: Vec<bool> = (0..n).map(|v| v % 7 == 0).collect();
        for dir in [
            ActiveDirection::Either,
            ActiveDirection::Out,
            ActiveDirection::In,
            ActiveDirection::Both,
        ] {
            for (p, part) in pg.parts().iter().enumerate() {
                let flist: Vec<u32> = (0..part.vertices.len() as u32)
                    .filter(|&local| active[vid_index(part.vertices[local as usize])])
                    .collect();
                let mut gathered = Vec::new();
                gather_edges(adj.ensure_part(p, &pg), &flist, dir, &mut gathered);
                if dir == ActiveDirection::Both {
                    gathered.retain(|&e| {
                        let (_, ld) = part.edges[e as usize];
                        active[vid_index(part.vertices[ld as usize])]
                    });
                }
                let dense: Vec<u32> = part
                    .edges
                    .iter()
                    .enumerate()
                    .filter(|(_, &(ls, ld))| {
                        let s = active[vid_index(part.vertices[ls as usize])];
                        let d = active[vid_index(part.vertices[ld as usize])];
                        match dir {
                            ActiveDirection::Either => s || d,
                            ActiveDirection::Out => s,
                            ActiveDirection::In => d,
                            ActiveDirection::Both => s && d,
                        }
                    })
                    .map(|(e, _)| e as u32)
                    .collect();
                assert_eq!(gathered, dense, "direction {dir:?}, partition {p}");
            }
        }
    }

    /// Whole-graph degree tables, derived from the partition tables the
    /// same way the engine's `degree_tables` does.
    fn degrees(pg: &PartitionedGraph) -> (Vec<u32>, Vec<u32>) {
        let mut out_deg = vec![0u32; pg.num_vertices() as usize];
        let mut in_deg = vec![0u32; pg.num_vertices() as usize];
        for part in pg.parts() {
            for &(ls, ld) in &part.edges {
                out_deg[vid_index(part.vertices[ls as usize])] += 1;
                in_deg[vid_index(part.vertices[ld as usize])] += 1;
            }
        }
        (out_deg, in_deg)
    }

    #[test]
    fn plan_goes_sparse_on_small_frontiers_and_dense_on_full_ones() {
        let pg = sample();
        let adj = FrontierAdjacency::build(&pg);
        let (out_deg, in_deg) = degrees(&pg);
        let np = pg.num_parts() as usize;
        let mut bufs = FrontierBuffers::new(np);
        // Empty frontier: all partitions sparse (nothing to scan at all),
        // and no partition builds its CSR for it.
        let active = plan_sparse_scan(
            &pg,
            &adj,
            ActiveDirection::Either,
            false,
            (&out_deg, &in_deg),
            &mut bufs,
        );
        assert_eq!(active, 0);
        assert!(bufs.scan_kind.iter().all(|&k| k == ScanKind::Sparse));
        assert!((0..np).all(|p| adj.part(p).is_none()));
        // Full frontier: the frontier degree sum counts each edge at least
        // twice under Either, so the dense short-circuit fires and no
        // partition builds its CSR.
        for v in 0..pg.num_vertices() {
            let q = pg.routing().parts_of(v).first().copied().unwrap_or(0);
            bufs.frontier[part_index(q)].push(v);
        }
        let active = plan_sparse_scan(
            &pg,
            &adj,
            ActiveDirection::Either,
            false,
            (&out_deg, &in_deg),
            &mut bufs,
        );
        assert_eq!(active, pg.num_vertices());
        assert!(bufs.scan_kind.iter().all(|&k| k == ScanKind::Dense));
        assert!((0..np).all(|p| adj.part(p).is_none()));
        // Forcing sparse overrides the threshold and builds every CSR a
        // frontier replica lands in.
        plan_sparse_scan(
            &pg,
            &adj,
            ActiveDirection::Either,
            true,
            (&out_deg, &in_deg),
            &mut bufs,
        );
        assert!(bufs.scan_kind.iter().all(|&k| k == ScanKind::Sparse));
        assert!((0..np).all(|p| adj.part(p).is_some() == !bufs.part_frontier[p].is_empty()));
    }
}
