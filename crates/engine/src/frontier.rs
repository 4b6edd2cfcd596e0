//! Frontier-driven sparse supersteps.
//!
//! Converging programs (SSSP, CC, max-label, …) spend their tail supersteps
//! with a handful of active vertices, yet a dense scan still walks every
//! edge of every partition checking the activity predicate. This module
//! holds what the engine needs to run such a superstep in O(frontier degree)
//! instead of O(V + E):
//!
//! * [`Incidence`] — per vertex, every appearance as an endpoint of a
//!   partition-local edge, with the other endpoint's global id beside it:
//!   a frontier vertex's row is everything a walk needs to form its
//!   triplets from the global state, degree and activity tables, without
//!   reading a partition's edge or vertex table. One index for the whole
//!   cut, built when a run first keeps asking for sparse supersteps;
//! * [`FrontierBuffers`] — the per-run frontier bookkeeping: the current
//!   and the next frontier grouped by home partition and the per-partition
//!   scan counts, all reused across supersteps and jobs;
//! * [`plan_scan`] — the per-superstep choice between the dense walk and
//!   the frontier walk.
//!
//! **Bit-identity.** A sparse superstep reproduces the dense one exactly —
//! vertex states *and* the metered bill — because the walk takes each edge
//! the dense predicate matches exactly once (so the per-partition `matched`
//! counts, and thus compute billing, agree), and its messages are sorted by
//! (receiver, partition, edge, receiving endpoint) before they merge: one
//! partial per source partition in edge order, then the partials in
//! partition order — the dense superstep's two levels, bit for bit.

use cutfit_graph::types::PartId;
use cutfit_graph::VertexId;
use cutfit_partition::PartitionedGraph;
use cutfit_util::num::vid_index;

use crate::program::ActiveDirection;

/// One appearance of a vertex as an endpoint of a partition-local edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Occurrence {
    /// The edge partition holding the edge.
    pub(crate) part: PartId,
    /// The edge's index in that partition's edge table.
    pub(crate) edge: u32,
    /// Global id of the edge's other endpoint.
    pub(crate) other: VertexId,
}

/// The cut-wide incidence index: every vertex's [`Occurrence`]s, those
/// where it is the source before those where it is the destination, each
/// group in ascending (partition, edge) order — close to the order the
/// walk's messages are sorted into.
pub(crate) struct Incidence {
    /// `2·V + 1` offsets into `occurrences`: vertex `v`'s source group
    /// starts at `[2v]`, its destination group at `[2v + 1]`.
    offsets: Vec<usize>,
    occurrences: Vec<Occurrence>,
}

impl Incidence {
    /// Counting sort of both endpoints of every partition-local edge by
    /// (vertex, role); partitions and edges are visited ascending, so each
    /// group fills in ascending (partition, edge) order.
    pub(crate) fn build(pg: &PartitionedGraph) -> Self {
        let n = vid_index(pg.num_vertices());
        let mut offsets = vec![0usize; 2 * n + 1];
        for part in pg.parts() {
            for &(ls, ld) in &part.edges {
                offsets[2 * vid_index(part.vertices[ls as usize]) + 1] += 1;
                offsets[2 * vid_index(part.vertices[ld as usize]) + 2] += 1;
            }
        }
        for group in 0..2 * n {
            offsets[group + 1] += offsets[group];
        }
        let mut cursor = offsets[..2 * n].to_vec();
        let nowhere = Occurrence {
            part: 0,
            edge: 0,
            other: 0,
        };
        let mut occurrences = vec![nowhere; offsets[2 * n]];
        for (part, table) in (0..).zip(pg.parts()) {
            for (edge, &(ls, ld)) in (0..).zip(&table.edges) {
                let (src, dst) = (table.vertices[ls as usize], table.vertices[ld as usize]);
                for (group, other) in [(2 * vid_index(src), dst), (2 * vid_index(dst) + 1, src)] {
                    occurrences[cursor[group]] = Occurrence { part, edge, other };
                    cursor[group] += 1;
                }
            }
        }
        Self {
            offsets,
            occurrences,
        }
    }

    /// `v`'s occurrences as `(where it is the source, where it is the
    /// destination)`; a self-loop appears once in each.
    #[inline]
    pub(crate) fn of(&self, v: VertexId) -> (&[Occurrence], &[Occurrence]) {
        let group = 2 * vid_index(v);
        let at = |i: usize| self.offsets[i];
        (
            &self.occurrences[at(group)..at(group + 1)],
            &self.occurrences[at(group + 1)..at(group + 2)],
        )
    }
}

/// Program-independent frontier bookkeeping, allocated once and reused
/// across supersteps and jobs (lists are drained or cleared in place, so
/// capacity is retained).
pub(crate) struct FrontierBuffers {
    /// Current frontier, grouped by home partition. Lock-free under the
    /// pool: each home partition belongs to exactly one thread.
    pub(crate) frontier: Vec<Vec<VertexId>>,
    /// Vertices that received a message this superstep, grouped by home —
    /// swapped in as the next frontier when the superstep ends.
    pub(crate) touched_inbox: Vec<Vec<VertexId>>,
    /// Per partition: edges the scan visited this superstep (the metered
    /// edge-scan count); every scan writes every cell.
    pub(crate) matched: Vec<u64>,
    /// Supersteps of this run that met the sparse threshold while the
    /// incidence index was unbuilt (see [`INCIDENCE_BUILD_AFTER`]).
    pub(crate) sparse_wanted: u32,
}

impl FrontierBuffers {
    pub(crate) fn new(num_parts: usize) -> Self {
        Self {
            frontier: vec![Vec::new(); num_parts],
            touched_inbox: vec![Vec::new(); num_parts],
            matched: vec![0; num_parts],
            sparse_wanted: 0,
        }
    }

    /// Clears every list — a previous run may have aborted (out of memory,
    /// a panicking program) mid-superstep with lists half-populated.
    pub(crate) fn reset(&mut self) {
        for list in self
            .frontier
            .iter_mut()
            .chain(self.touched_inbox.iter_mut())
        {
            list.clear();
        }
        self.sparse_wanted = 0;
    }
}

/// A superstep walks its frontier when the frontier's degree sum is at most
/// `1/SPARSE_SCAN_FACTOR` of the graph's edge count — the
/// direction-optimizing-BFS switch, taken once per superstep. Per edge it
/// takes, the walk reads a 16-byte [`Occurrence`] and two random state rows
/// and sorts the messages it produces, where the dense walk streams 8-byte
/// edges and tests two activity bits on all of them; after it the fold
/// visits only the receivers, where the shuffle sweeps every partial buffer.
/// Whole supersteps from `RunTrace` spans (one thread, 64 partitions): with
/// every vertex active the sparse shape costs 4–5 × the dense one (CC on
/// `road-sssp`'s graph: 100–120 ms against 23 ms); SSSP on
/// `tailored-session`'s YouTube cut ties where the walk takes E/6 edges and
/// is a third slower where it takes 0.44 E. A quarter sits between.
pub(crate) const SPARSE_SCAN_FACTOR: u64 = 4;

/// The incidence index is built on a run's fourth superstep that meets the
/// sparse threshold (the first three scan densely — either choice is exact,
/// so this is purely a cost call): a converging tail that long amortizes
/// the O(E) build, and a three-superstep advisor probe never pays it.
pub(crate) const INCIDENCE_BUILD_AFTER: u32 = 4;

/// Sums the frontier — its size, for telemetry, and its degree under `dir`
/// — and decides this superstep's scan: true for a frontier walk. `degrees`
/// are the whole-graph (out, in) tables, `built` says whether the incidence
/// index exists, and `force_sparse` walks every frontier (the equivalence
/// tests' pinned shape).
pub(crate) fn plan_scan(
    num_edges: u64,
    built: bool,
    dir: ActiveDirection,
    force_sparse: bool,
    degrees: (&[u32], &[u32]),
    fb: &mut FrontierBuffers,
) -> (u64, bool) {
    let (out_deg, in_deg) = degrees;
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
    for flist in fb.frontier.iter() {
        active += flist.len() as u64;
        for &v in flist {
            frontier_degree += degree_of(v);
        }
    }
    if !force_sparse {
        if frontier_degree.saturating_mul(SPARSE_SCAN_FACTOR) > num_edges {
            return (active, false);
        }
        if !built {
            fb.sparse_wanted += 1;
            if fb.sparse_wanted < INCIDENCE_BUILD_AFTER {
                return (active, false);
            }
        }
    }
    (active, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_datagen::{rmat, RmatConfig};
    use cutfit_partition::{GraphXStrategy, Partitioner};
    use cutfit_util::num::part_index;

    fn sample() -> PartitionedGraph {
        let g = rmat(&RmatConfig::default(), 8);
        GraphXStrategy::EdgePartition2D.partition(&g, 8)
    }

    #[test]
    fn incidence_lists_every_edge_once_per_endpoint_ascending() {
        let pg = sample();
        let incidence = Incidence::build(&pg);
        let mut seen = 0u64;
        for v in 0..pg.num_vertices() {
            let (as_src, as_dst) = incidence.of(v);
            for (group, is_src) in [(as_src, true), (as_dst, false)] {
                let keys: Vec<_> = group.iter().map(|at| (at.part, at.edge)).collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "ascending, unique");
                for at in group {
                    let part = &pg.parts()[part_index(at.part)];
                    let (ls, ld) = part.edges[at.edge as usize];
                    let (src, dst) = (part.vertices[ls as usize], part.vertices[ld as usize]);
                    let expected = if is_src { (v, at.other) } else { (at.other, v) };
                    assert_eq!((src, dst), expected, "vertex {v}, {at:?}");
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, 2 * pg.num_edges());
    }

    /// Whole-graph degree tables, derived from the partition tables the
    /// same way the engine's index does.
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
    fn plan_walks_small_frontiers_once_they_persist_and_never_full_ones() {
        let pg = sample();
        let (out_deg, in_deg) = degrees(&pg);
        let mut bufs = FrontierBuffers::new(pg.num_parts() as usize);
        let plan = |bufs: &mut FrontierBuffers, built: bool, force: bool| {
            let dir = ActiveDirection::Either;
            plan_scan(pg.num_edges(), built, dir, force, (&out_deg, &in_deg), bufs)
        };
        // An empty frontier meets the threshold, but the walk — and with it
        // the index — is asked for only by the fourth superstep that does.
        for wanted in 1..INCIDENCE_BUILD_AFTER {
            assert_eq!(plan(&mut bufs, false, false), (0, false));
            assert_eq!(bufs.sparse_wanted, wanted);
        }
        assert_eq!(plan(&mut bufs, false, false), (0, true));
        // Built once, the index serves every later eligible superstep — also
        // of a later run on the same handle, whose count starts over.
        bufs.reset();
        assert_eq!(plan(&mut bufs, true, false), (0, true));
        assert_eq!(bufs.sparse_wanted, 0);
        // Full frontier: its degree sum counts each edge twice under
        // Either, so the superstep is dense unless sparse is forced.
        for v in 0..pg.num_vertices() {
            let q = pg.routing().parts_of(v).first().copied().unwrap_or(0);
            bufs.frontier[part_index(q)].push(v);
        }
        assert_eq!(plan(&mut bufs, true, false), (pg.num_vertices(), false));
        assert_eq!(plan(&mut bufs, true, true), (pg.num_vertices(), true));
    }

    #[test]
    fn forcing_sparse_walks_at_once() {
        let pg = sample();
        let (out_deg, in_deg) = degrees(&pg);
        let mut bufs = FrontierBuffers::new(pg.num_parts() as usize);
        let dir = ActiveDirection::Out;
        let (_, walk) = plan_scan(
            pg.num_edges(),
            false,
            dir,
            true,
            (&out_deg, &in_deg),
            &mut bufs,
        );
        assert!(walk && bufs.sparse_wanted == 0);
    }
}
