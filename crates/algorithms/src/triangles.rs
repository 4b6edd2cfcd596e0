//! Triangle counting via GraphX's neighbour-set dataflow (TR).
//!
//! GraphX's `TriangleCount` is *not* a Pregel program: it (1) collects each
//! vertex's neighbour set, (2) ships the full set to every replica of the
//! vertex, (3) intersects the endpoint sets of every edge locally, and
//! (4) aggregates counts back. Steps 2–3 move **per-vertex state whose size
//! is the vertex's degree** — orders of magnitude more than PageRank's 8-byte
//! ranks. This is the mechanism behind the paper's Figure 5 finding: TR
//! runtime tracks the number of **Cut vertices** (each one forces a set
//! reduction and re-broadcast across partitions), while plain Communication
//! Cost correlates poorly (43 % / 34 %).
//!
//! GraphX requires the input in canonical orientation (src < dst, deduped);
//! [`canonicalize`] performs it, and the kernel rests on it: with no loops
//! and each pair once, a partial set's size is a local degree and a full set
//! is a row of one undirected [`Csr`], the same under any cut. So is each
//! edge's triangle count. A [`TriangleIndex`] holds both, built once per
//! graph — a session keeps one for all its canonical cuts — and the kernel
//! ([`triangle_count_indexed`]) only aggregates them per partition: phases
//! 1–2 keep local degrees in one `u32` column (partition `p` at
//! `starts[p]..`), and phase 4 looks each edge up in its source's row, in
//! step with the partition's (src, dst)-ordered run of that source's edges,
//! with no intersection. A probe bills the same run without the counts
//! ([`triangle_bill_supported`]): phase 4 ships a partial wherever a local
//! edge closes a triangle, so it reads one bit per edge of the edge list,
//! kept by the index beside the supports, instead of looking the edge up.
//! One function bills the four phases for both. An index refuses a graph
//! with a loop or a repeated pair, and the kernel a cut whose edge the
//! index does not hold: both panic.

use cutfit_cluster::{ClusterConfig, ClusterSim, SimError, SimReport};
use cutfit_graph::types::PartId;
use cutfit_graph::{Csr, Edge, Graph, VertexId};
use cutfit_partition::{PartitionedGraph, Partitioner};
use cutfit_util::num::{part_index, vid_index};

/// Marker type for naming consistency with the Pregel algorithms.
#[derive(Debug, Clone, Copy)]
pub struct TriangleCount;

/// Result of a metered triangle count.
#[derive(Debug, Clone)]
pub struct TriangleResult {
    /// Total triangles in the (canonicalized) graph.
    pub total: u64,
    /// Triangles through each vertex.
    pub per_vertex: Vec<u64>,
    /// Simulated-cluster accounting.
    pub sim: SimReport,
}

/// Canonical orientation: loops dropped, directions erased, duplicates
/// removed — GraphX's required preprocessing for `TriangleCount`.
pub fn canonicalize(graph: &Graph) -> Graph {
    let mut edges: Vec<Edge> = graph
        .edges()
        .iter()
        .filter(|e| !e.is_loop())
        .map(|e| e.canonical())
        .collect();
    edges.sort_unstable();
    edges.dedup();
    Graph::new_unchecked(graph.num_vertices(), edges)
}

/// What Triangle Count reads of a canonical graph and no cut changes: the
/// undirected neighbour [`Csr`], and per CSR entry — neighbour `w` in the
/// row of `u` — the edge's *support* `|N(u) ∩ N(w)|`, the triangles through
/// the edge `{u, w}`. Beside them, for probes, one *supported* bit per edge
/// of the graph's edge list: whether its support is non-zero.
#[derive(Debug)]
pub struct TriangleIndex {
    full: Csr,
    support: Vec<u32>,
    /// Bit `g % 64` of word `g / 64`: edge `g` of the edge list has a
    /// non-zero support. Built by the first probe
    /// ([`triangle_bill_supported`]); empty until then.
    supported: Vec<u64>,
}

impl TriangleIndex {
    /// Indexes the graph `pg` was cut from, which every cut of that graph
    /// shares. Panics on a cut holding a self-loop or a repeated pair:
    /// partition [`canonicalize`]'s output.
    pub fn of_cut(pg: &PartitionedGraph) -> Self {
        let edges = pg.parts().iter().flat_map(|part| {
            (part.edges.iter()).map(|&(ls, ld)| Edge::new(part.global(ls), part.global(ld)))
        });
        Self::build(pg.num_vertices(), edges)
    }

    /// The index of `edges` over `num_vertices` vertices: the rows, then one
    /// stamping pass over the edges in row order (each row's entries above
    /// its own vertex: the canonical edge list) that counts each edge's
    /// support once and writes it to both of the edge's entries.
    // Supports are bounded by degrees, which fit `u32` like the cut's
    // local vertex ids.
    #[allow(clippy::cast_possible_truncation)]
    fn build(num_vertices: u64, edges: impl Iterator<Item = Edge> + Clone) -> Self {
        let full = Csr::undirected_of(num_vertices, edges);
        let simple = (0..num_vertices).all(|v| full.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        assert!(simple, "not a canonical cut: a loop or a repeated pair");
        let mut support = vec![0u32; full.num_entries()];
        // `back[w]`: the next of w's entries below w. Rows are visited in
        // ascending order, so they fill in row order.
        let mut back: Vec<usize> = (0..num_vertices).map(|w| full.entries(w).start).collect();
        let mut stamp = vec![false; vid_index(num_vertices)];
        for u in 0..num_vertices {
            let nu = full.neighbors(u);
            nu.iter().for_each(|&x| stamp[vid_index(x)] = true);
            let above = nu.partition_point(|&w| w < u);
            for (entry, &w) in full.entries(u).zip(nu).skip(above) {
                let nw = full.neighbors(w);
                let count = if nw.len() >= 16 * nu.len() {
                    let found = |x: &&VertexId| nw.binary_search(x).is_ok();
                    nu.iter().filter(found).count()
                } else {
                    nw.iter().filter(|&&x| stamp[vid_index(x)]).count()
                } as u32;
                support[entry] = count;
                support[back[vid_index(w)]] = count;
                back[vid_index(w)] += 1;
            }
            nu.iter().for_each(|&x| stamp[vid_index(x)] = false);
        }
        Self {
            full,
            support,
            supported: Vec::new(),
        }
    }

    /// The support of each of `edges`, looked up in its source's row.
    /// `at` is where the previous edge's destination sat in its source's
    /// row: a run of one source's edges in (src, dst) order searches only
    /// what is left of the row. Panics on an edge the index does not hold.
    fn supports<'a>(
        &'a self,
        edges: impl Iterator<Item = (VertexId, VertexId)> + 'a,
    ) -> impl Iterator<Item = u32> + 'a {
        let mut at: Option<(VertexId, VertexId, usize)> = None;
        edges.map(move |(u, w)| {
            let row = self.full.neighbors(u);
            let from = match at {
                Some((src, dst, k)) if src == u && dst < w => k + 1,
                _ => 0,
            };
            let k = from + row[from..].partition_point(|&x| x < w);
            assert!(
                row.get(k) == Some(&w),
                "edge ({u}, {w}) is not in the indexed graph"
            );
            at = Some((u, w, k));
            self.support[self.full.entries(u).start + k]
        })
    }

    /// Builds the supported bits, unless built: one per edge of the edge
    /// list `pg` was cut from by `assignment`, in the list's own order —
    /// each edge read off the cut where the assignment placed it — with
    /// every edge looked up in the index. Every later probe bills a cut of
    /// the same edge list, so the bits are built once. Panics if the cut
    /// holds an edge the index does not or `assignment` is not the cut's.
    fn ensure_supported(&mut self, pg: &PartitionedGraph, assignment: &[PartId]) {
        if self.supported.is_empty() && !assignment.is_empty() {
            let mut next = vec![0; pg.parts().len()];
            let edge_list = assignment.iter().map(|&p| {
                let (part, k) = (&pg.parts()[part_index(p)], &mut next[part_index(p)]);
                let (ls, ld) = part.edges[*k];
                *k += 1;
                (part.global(ls), part.global(ld))
            });
            let mut bits = vec![0u64; assignment.len().div_ceil(64)];
            for (g, support) in self.supports(edge_list).enumerate() {
                bits[g / 64] |= u64::from(support > 0) << (g % 64);
            }
            self.supported = bits;
        }
    }

    /// Flips edge `g`'s supported bit: a seeded fault for the tests.
    #[cfg(test)]
    pub(crate) fn flip_supported(&mut self, g: usize) {
        self.supported[g / 64] ^= 1 << (g % 64);
    }
}

/// Counts triangles over an already-partitioned *canonical* graph. Panics on
/// a cut holding a self-loop or a repeated pair: partition [`canonicalize`]'s
/// output. Builds the cut's [`TriangleIndex`]; a caller counting several
/// cuts of one graph builds it once and calls [`triangle_count_indexed`].
pub fn triangle_count_partitioned(
    pg: &PartitionedGraph,
    cluster: &ClusterConfig,
    charge_load: bool,
) -> Result<TriangleResult, SimError> {
    triangle_count_indexed(pg, &TriangleIndex::of_cut(pg), cluster, charge_load)
}

/// Counts triangles over `pg`, a cut of the canonical graph `index` was
/// built from, billing the four phases of GraphX's dataflow. Panics when
/// the cut holds an edge the index does not: it was cut from another graph.
pub fn triangle_count_indexed(
    pg: &PartitionedGraph,
    index: &TriangleIndex,
    cluster: &ClusterConfig,
    charge_load: bool,
) -> Result<TriangleResult, SimError> {
    let (sim, edge_count_sum, mut per_vertex) =
        four_phases(pg, index, cluster, charge_load, EdgeSupports::Counted)?;
    // Each triangle is seen once per its three edges; per vertex, once per
    // its two incident triangle edges.
    debug_assert_eq!(edge_count_sum % 3, 0);
    for c in &mut per_vertex {
        debug_assert_eq!(*c % 2, 0);
        *c /= 2;
    }
    Ok(TriangleResult {
        total: edge_count_sum / 3,
        per_vertex,
        sim,
    })
}

/// Bills [`triangle_count_indexed`]'s run on `pg` without counting: the
/// same [`SimReport`], or the same error, bit for bit. `assignment` is the
/// cut's edge assignment, aligned with the edge list of the canonical graph
/// `index` was built from. Phase 4 ships a partial from a (partition, local
/// vertex) pair iff some local edge of the vertex closes a triangle, so it
/// reads the index's supported bit of each edge, at the edge's place in the
/// edge list, instead of looking the edge up. The first call on `index`
/// builds the bits from this cut, looking every edge up once.
///
/// # Panics
/// Panics if `assignment` is not the cut's, or — on the call that builds
/// the bits — if the cut holds an edge the index does not.
pub fn triangle_bill_supported(
    pg: &PartitionedGraph,
    index: &mut TriangleIndex,
    assignment: &[PartId],
    cluster: &ClusterConfig,
    charge_load: bool,
) -> Result<SimReport, SimError> {
    let global_of = pg.global_order(assignment);
    index.ensure_supported(pg, assignment);
    let supports = EdgeSupports::Supported(&global_of);
    four_phases(pg, index, cluster, charge_load, supports).map(|(sim, ..)| sim)
}

/// How phase 4 learns which edges close triangles.
enum EdgeSupports<'a> {
    /// Each edge's support, looked up in the index and summed into the
    /// counts: a job.
    Counted,
    /// Each edge's supported bit, read at its place in the edge list — the
    /// cut's edge `e`, partition-major, is edge `global_of[e]` — and no
    /// count: a probe.
    Supported(&'a [u32]),
}

/// The four phases of GraphX's dataflow on `pg`, billed: the report, and,
/// when `supports` counts, the sum of every edge's support and each
/// vertex's sum over its edges (empty otherwise).
fn four_phases(
    pg: &PartitionedGraph,
    index: &TriangleIndex,
    cluster: &ClusterConfig,
    charge_load: bool,
    supports: EdgeSupports<'_>,
) -> Result<(SimReport, u64, Vec<u64>), SimError> {
    let full = &index.full;
    assert_eq!(
        (pg.num_vertices(), pg.num_edges() * 2),
        (full.num_vertices(), full.num_entries() as u64),
        "the cut is not of the indexed graph"
    );
    let np = pg.num_parts();
    let mut sim = ClusterSim::new(cluster.clone(), np);
    let overhead = cluster.cost.message_overhead_bytes;
    if charge_load {
        sim.charge_load(cutfit_cluster::load_bytes(
            pg.num_vertices(),
            pg.num_edges(),
        ));
    }
    let masters = pg.masters();
    let exec_of_part: Vec<u32> = (0..np).map(|p| cluster.executor_of(p)).collect();
    let exec_of = |p: PartId| exec_of_part[p as usize];

    // --- Phase 1: partition-local partial neighbour sets, kept as sizes. ---
    // Per partition, also what the full sets will weigh there (`set_bytes`)
    // and what phase 4 reads of them: both endpoint sets of every edge, so
    // each local vertex's set once per local edge (`read_bytes`).
    let mut starts = Vec::with_capacity(part_index(np) + 1);
    starts.push(0);
    let mut local_degree = vec![0u32; pg.parts().iter().map(|part| part.vertices.len()).sum()];
    let mut set_bytes = Vec::with_capacity(part_index(np));
    let mut read_bytes = Vec::with_capacity(part_index(np));
    for (p, part) in (0..).zip(pg.parts()) {
        let i = part_index(p);
        starts.push(starts[i] + part.vertices.len());
        let degree = &mut local_degree[starts[i]..starts[i + 1]];
        for &(ls, ld) in &part.edges {
            degree[ls as usize] += 1;
            degree[ld as usize] += 1;
        }
        let (mut set, mut read) = (0, 0);
        for (&v, &d) in part.vertices.iter().zip(&*degree) {
            set += full.degree(v) * 8;
            read += u64::from(d) * full.degree(v) * 8;
        }
        set_bytes.push(set);
        read_bytes.push(read);
        sim.ledger().edge_scans(p, part.num_edges());
        sim.ledger().local_bytes(p, part.num_edges() * 16);
    }
    sim.end_superstep()?;

    // --- Phase 2: reduce partial sets to each vertex's master (union). ---
    // Every local vertex has an edge in its partition, hence a master.
    let ledger = sim.ledger();
    for (p, part) in (0..).zip(pg.parts()) {
        let i = part_index(p);
        let degree = &local_degree[starts[i]..starts[i + 1]];
        for (&v, &d) in part.vertices.iter().zip(degree) {
            let master = masters[vid_index(v)];
            let bytes = u64::from(d) * 8;
            if p != master {
                ledger.send_exec(exec_of(p), exec_of(master), 1, bytes + overhead);
            }
            ledger.vertex_ops(master, 1);
            ledger.local_bytes(master, bytes);
        }
    }
    charge_set_residency(&mut sim, pg, &set_bytes);
    sim.end_superstep()?;

    // --- Phase 3: broadcast complete sets to every mirror. ---
    let ledger = sim.ledger();
    for v in 0..pg.num_vertices() {
        let master = masters[vid_index(v)];
        let bytes = full.degree(v) * 8 + overhead;
        for &p in pg.routing().parts_of(v) {
            if p != master {
                ledger.send_exec(exec_of(master), exec_of(p), 1, bytes);
            }
        }
    }
    charge_set_residency(&mut sim, pg, &set_bytes);
    sim.end_superstep()?;

    // --- Phase 4: per-edge intersection counts, shipped to masters. ---
    // Each edge's count is its support in the index; a probe knows only
    // whether it is non-zero, which is all the bill reads.
    let counted_vertices = match supports {
        EdgeSupports::Counted => vid_index(pg.num_vertices()),
        EdgeSupports::Supported(_) => 0,
    };
    let mut per_vertex = vec![0u64; counted_vertices];
    let mut edge_count_sum = 0u64;
    let widest = pg.parts().iter().map(|part| part.vertices.len()).max();
    let mut local_counts = vec![0u64; widest.unwrap_or(0)];
    let mut first_edge = 0;
    let ledger = sim.ledger();
    for ((p, part), &read) in (0..).zip(pg.parts()).zip(&read_bytes) {
        let counts = &mut local_counts[..part.vertices.len()];
        let edges = first_edge..first_edge + part.edges.len();
        first_edge = edges.end;
        match supports {
            EdgeSupports::Counted => {
                let ends = part
                    .edges
                    .iter()
                    .map(|&(ls, ld)| (part.global(ls), part.global(ld)));
                for (&(ls, ld), cnt) in part.edges.iter().zip(index.supports(ends)) {
                    let cnt = u64::from(cnt);
                    counts[ls as usize] += cnt;
                    counts[ld as usize] += cnt;
                    edge_count_sum += cnt;
                }
            }
            EdgeSupports::Supported(global_of) => {
                for (&(ls, ld), &g) in part.edges.iter().zip(&global_of[edges]) {
                    let bit = index.supported[g as usize / 64] >> (g % 64) & 1;
                    counts[ls as usize] |= bit;
                    counts[ld as usize] |= bit;
                }
            }
        }
        ledger.local_bytes(p, read);
        ledger.edge_scans(p, part.num_edges());
        // Ship non-zero per-vertex partial counts to masters.
        for (&v, cnt) in part.vertices.iter().zip(counts.iter_mut()) {
            let cnt = std::mem::take(cnt);
            if cnt == 0 {
                continue;
            }
            let master = masters[vid_index(v)];
            if p != master {
                ledger.send_exec(exec_of(p), exec_of(master), 1, 8 + overhead);
            }
            ledger.vertex_ops(master, 1);
            if let Some(total) = per_vertex.get_mut(vid_index(v)) {
                *total += cnt;
            }
        }
    }
    sim.end_superstep()?;
    Ok((sim.into_report(), edge_count_sum, per_vertex))
}

/// Convenience: canonicalize, partition with `partitioner`, count.
pub fn triangle_count(
    graph: &Graph,
    partitioner: &dyn Partitioner,
    num_parts: PartId,
    cluster: &ClusterConfig,
) -> Result<TriangleResult, SimError> {
    let canon = canonicalize(graph);
    let pg = partitioner.partition(&canon, num_parts);
    triangle_count_partitioned(&pg, cluster, true)
}

/// Memory accounting for the set-carrying phases: neighbour sets dominate.
fn charge_set_residency(sim: &mut ClusterSim, pg: &PartitionedGraph, set_bytes: &[u64]) {
    sim.clear_resident();
    for ((p, part), &sets) in (0..).zip(pg.parts()).zip(set_bytes) {
        sim.set_resident(p, part.structure_bytes() + sets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::analysis::count_triangles;
    use cutfit_graph::csr::sorted_intersection_count;
    use cutfit_partition::{all_partitioners, GraphXStrategy};
    use proptest::prelude::*;

    fn cluster() -> ClusterConfig {
        ClusterConfig::paper_cluster()
    }

    /// The per-vertex-`Vec` dataflow the kernel replaced, kept as the
    /// equivalence grid's reference: partial sets per (partition, local
    /// vertex) and full sets per vertex, each sorted and deduplicated.
    fn reference_triangle_count_partitioned(
        pg: &PartitionedGraph,
        cluster: &ClusterConfig,
        charge_load: bool,
    ) -> Result<TriangleResult, SimError> {
        let n = pg.num_vertices() as usize;
        let np = pg.num_parts();
        let mut sim = ClusterSim::new(cluster.clone(), np);
        let overhead = cluster.cost.message_overhead_bytes;
        if charge_load {
            sim.charge_load(cutfit_cluster::load_bytes(
                pg.num_vertices(),
                pg.num_edges(),
            ));
        }

        // --- Phase 1: partition-local partial neighbour sets. ---
        let mut partials: Vec<Vec<Vec<VertexId>>> = Vec::with_capacity(np as usize);
        for (p, part) in pg.parts().iter().enumerate() {
            let mut sets: Vec<Vec<VertexId>> = vec![Vec::new(); part.vertices.len()];
            for &(ls, ld) in &part.edges {
                sets[ls as usize].push(part.global(ld));
                sets[ld as usize].push(part.global(ls));
            }
            for s in &mut sets {
                s.sort_unstable();
                s.dedup();
            }
            sim.ledger().edge_scans(p as PartId, part.num_edges());
            sim.ledger().local_bytes(p as PartId, part.num_edges() * 16);
            partials.push(sets);
        }
        sim.end_superstep()?;

        // --- Phase 2: reduce partial sets to each vertex's master (union). ---
        let masters = pg.masters();
        let mut full: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for (p, part) in pg.parts().iter().enumerate() {
            for (local, set) in partials[p].iter().enumerate() {
                if set.is_empty() {
                    continue;
                }
                let v = part.global(local as u32);
                let master = masters[v as usize];
                let bytes = set.len() as u64 * 8 + overhead;
                if p as PartId != master {
                    sim.ledger().send_exec(
                        cluster.executor_of(p as PartId),
                        cluster.executor_of(master),
                        1,
                        bytes,
                    );
                }
                sim.ledger().vertex_ops(master, 1);
                sim.ledger().local_bytes(master, set.len() as u64 * 8);
                full[v as usize].extend_from_slice(set);
            }
        }
        for set in &mut full {
            set.sort_unstable();
            set.dedup();
        }
        reference_residency(&mut sim, pg, &full);
        sim.end_superstep()?;

        // --- Phase 3: broadcast complete sets to every mirror. ---
        for v in 0..n as u64 {
            let replicas = pg.routing().parts_of(v);
            if replicas.len() < 2 {
                continue;
            }
            let master = masters[v as usize];
            let bytes = full[v as usize].len() as u64 * 8 + overhead;
            let master_exec = cluster.executor_of(master);
            for &p in replicas {
                if p != master {
                    sim.ledger()
                        .send_exec(master_exec, cluster.executor_of(p), 1, bytes);
                }
            }
        }
        reference_residency(&mut sim, pg, &full);
        sim.end_superstep()?;

        // --- Phase 4: per-edge intersections, counts shipped to masters. ---
        let mut per_vertex = vec![0u64; n];
        let mut edge_count_sum = 0u64;
        for (p, part) in pg.parts().iter().enumerate() {
            let mut local_counts = vec![0u64; part.vertices.len()];
            for &(ls, ld) in &part.edges {
                let u = part.global(ls);
                let w = part.global(ld);
                let cnt = sorted_intersection_count(&full[u as usize], &full[w as usize]);
                local_counts[ls as usize] += cnt;
                local_counts[ld as usize] += cnt;
                edge_count_sum += cnt;
                sim.ledger().local_bytes(
                    p as PartId,
                    (full[u as usize].len() + full[w as usize].len()) as u64 * 8,
                );
            }
            sim.ledger().edge_scans(p as PartId, part.num_edges());
            for (local, &cnt) in local_counts.iter().enumerate() {
                if cnt == 0 {
                    continue;
                }
                let v = part.global(local as u32);
                let master = masters[v as usize];
                if p as PartId != master {
                    sim.ledger().send_exec(
                        cluster.executor_of(p as PartId),
                        cluster.executor_of(master),
                        1,
                        8 + overhead,
                    );
                }
                sim.ledger().vertex_ops(master, 1);
                per_vertex[v as usize] += cnt;
            }
        }
        sim.end_superstep()?;

        for c in &mut per_vertex {
            *c /= 2;
        }
        Ok(TriangleResult {
            total: edge_count_sum / 3,
            per_vertex,
            sim: sim.into_report(),
        })
    }

    fn reference_residency(sim: &mut ClusterSim, pg: &PartitionedGraph, full: &[Vec<VertexId>]) {
        sim.clear_resident();
        for (p, part) in pg.parts().iter().enumerate() {
            let set_bytes: u64 = part
                .vertices
                .iter()
                .map(|&v| full[v as usize].len() as u64 * 8)
                .sum();
            sim.set_resident(p as PartId, part.structure_bytes() + set_bytes);
        }
    }

    /// The grid's graph families, by index: RMAT, a triad-heavy social
    /// graph, a star hub with chords between its leaves, K₈, a few triangles
    /// among many isolated vertices, and the empty graph.
    fn family(index: usize, seed: u64) -> Graph {
        let mut rng = cutfit_util::Xoshiro256pp::seed_from_u64(seed);
        let random_edges = |rng: &mut cutfit_util::Xoshiro256pp, span: u64, count: usize| {
            (0..count)
                .map(|_| Edge::new(rng.range_u64(span), rng.range_u64(span)))
                .collect::<Vec<_>>()
        };
        match index {
            0 => cutfit_datagen::rmat(
                &cutfit_datagen::RmatConfig {
                    scale: 7,
                    edges: 1200,
                    ..Default::default()
                },
                seed,
            ),
            1 => cutfit_datagen::undirected_social(
                &cutfit_datagen::UndirectedSocialConfig {
                    vertices: 300,
                    edges_per_vertex: 4.0,
                    triad_probability: 0.7,
                },
                seed,
            ),
            2 => {
                let leaves = 200;
                let mut edges: Vec<Edge> = (1..=leaves).map(|v| Edge::new(0, v)).collect();
                edges.extend(
                    random_edges(&mut rng, leaves, 150)
                        .iter()
                        .map(|e| Edge::new(e.src + 1, e.dst + 1)),
                );
                Graph::new(leaves + 1, edges)
            }
            3 => Graph::new(
                8,
                (0..8)
                    .flat_map(|a| (a + 1..8).map(move |b| Edge::new(a, b)))
                    .collect(),
            ),
            4 => Graph::new(120, random_edges(&mut rng, 15, 40)),
            _ => Graph::new(rng.range_u64(10), vec![]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn flat_kernel_bills_exactly_what_the_reference_bills(seed in 0u64..1_000) {
            for index in 0..6 {
                let canon = canonicalize(&family(index, seed));
                for partitioner in all_partitioners() {
                    for parts in [1, 2, 7, 64] {
                        let pg = partitioner.partition(&canon, parts);
                        let cell = format!("family {index}, {}, {parts} parts", partitioner.name());
                        let fast = triangle_count_partitioned(&pg, &cluster(), true).unwrap();
                        let slow = reference_triangle_count_partitioned(&pg, &cluster(), true)
                            .unwrap();
                        prop_assert_eq!(fast.sim, slow.sim, "{}", cell);
                        prop_assert_eq!(fast.total, slow.total, "{}", cell);
                        prop_assert_eq!(fast.per_vertex, slow.per_vertex, "{}", cell);
                    }
                }
            }
        }
    }

    #[test]
    fn one_index_counts_every_cut_like_a_per_call_index() {
        for index in 0..6 {
            let canon = canonicalize(&family(index, 11));
            // Indexed from a cut none of the counted ones equals.
            let shared =
                TriangleIndex::of_cut(&GraphXStrategy::RandomVertexCut.partition(&canon, 3));
            for strategy in GraphXStrategy::all() {
                for parts in [1, 7, 64] {
                    let pg = strategy.partition(&canon, parts);
                    let cell = format!("family {index}, {strategy}, {parts} parts");
                    let indexed = triangle_count_indexed(&pg, &shared, &cluster(), false).unwrap();
                    let per_call = triangle_count_partitioned(&pg, &cluster(), false).unwrap();
                    assert_eq!(indexed.sim, per_call.sim, "{cell}");
                    assert_eq!(indexed.total, per_call.total, "{cell}");
                    assert_eq!(indexed.per_vertex, per_call.per_vertex, "{cell}");
                }
            }
        }
    }

    #[test]
    fn a_cut_of_another_graph_is_refused() {
        let canon = canonicalize(&family(1, 5));
        let index = TriangleIndex::of_cut(&GraphXStrategy::SourceCut.partition(&canon, 2));
        let mut edges = canon.edges().to_vec();
        // Same vertices and edge count, one edge moved: the index misses it.
        let last = edges.pop().unwrap();
        let moved = (0..canon.num_vertices())
            .flat_map(|a| (a + 1..canon.num_vertices()).map(move |b| Edge::new(a, b)))
            .find(|e| !canon.edges().contains(e))
            .unwrap();
        assert_ne!(moved, last);
        edges.push(moved);
        let other = canonicalize(&Graph::new(canon.num_vertices(), edges));
        for strategy in GraphXStrategy::all() {
            let pg = strategy.partition(&other, 4);
            let run =
                std::panic::catch_unwind(|| triangle_count_indexed(&pg, &index, &cluster(), false));
            assert!(run.is_err(), "{strategy} counted a cut of another graph");
        }
        let fewer = GraphXStrategy::SourceCut.partition(&family(1, 6), 4);
        let run =
            std::panic::catch_unwind(|| triangle_count_indexed(&fewer, &index, &cluster(), false));
        assert!(run.is_err(), "a cut with another edge count was counted");
    }

    #[test]
    fn every_edge_reversed_counts_like_canonical() {
        // Supports sit on both of an edge's entries, so a simple cut in any
        // orientation and edge order counts what its canonical twin counts.
        let canon = canonicalize(&family(1, 3));
        let mut reversed: Vec<Edge> = canon.edges().iter().map(|e| e.reversed()).collect();
        reversed.reverse();
        let reversed = Graph::new(canon.num_vertices(), reversed);
        for strategy in GraphXStrategy::all() {
            let a = triangle_count_partitioned(&strategy.partition(&canon, 7), &cluster(), true);
            let b = triangle_count_partitioned(&strategy.partition(&reversed, 7), &cluster(), true);
            let (a, b) = (a.unwrap(), b.unwrap());
            assert_eq!(
                (a.total, a.per_vertex),
                (b.total, b.per_vertex),
                "{strategy}"
            );
        }
    }

    /// One triangle stored in both orientations, as `Graph::new` keeps it.
    fn both_orientations() -> Graph {
        let one_way = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)];
        Graph::new(3, one_way.iter().flat_map(|&e| [e, e.reversed()]).collect())
    }

    #[test]
    #[should_panic(expected = "canonical cut")]
    fn a_cut_of_a_non_canonical_graph_is_refused() {
        let pg = GraphXStrategy::SourceCut.partition(&both_orientations(), 2);
        let _ = triangle_count_partitioned(&pg, &cluster(), true);
    }

    #[test]
    fn every_partitioner_refuses_loops_and_repeated_pairs() {
        let mut with_loop = canonicalize(&both_orientations()).edges().to_vec();
        with_loop.push(Edge::new(1, 1));
        for graph in [both_orientations(), Graph::new(3, with_loop)] {
            for partitioner in all_partitioners() {
                let pg = partitioner.partition(&graph, 2);
                let run =
                    std::panic::catch_unwind(|| triangle_count_partitioned(&pg, &cluster(), true));
                assert!(
                    run.is_err(),
                    "{} counted a non-canonical cut",
                    partitioner.name()
                );
            }
        }
    }

    #[test]
    fn counts_match_oracle_on_random_graphs() {
        for seed in [1, 2, 3] {
            let g = cutfit_datagen::rmat(
                &cutfit_datagen::RmatConfig {
                    scale: 8,
                    edges: 2048,
                    ..Default::default()
                },
                seed,
            );
            let expected = count_triangles(&g);
            for strat in GraphXStrategy::all() {
                let r = triangle_count(&g, &strat, 8, &cluster()).unwrap();
                assert_eq!(r.total, expected, "{strat} seed {seed}");
            }
        }
    }

    #[test]
    fn per_vertex_counts_sum_to_three_total() {
        let g = cutfit_datagen::undirected_social(
            &cutfit_datagen::UndirectedSocialConfig {
                vertices: 500,
                edges_per_vertex: 4.0,
                triad_probability: 0.5,
            },
            9,
        );
        let r = triangle_count(&g, &GraphXStrategy::EdgePartition2D, 8, &cluster()).unwrap();
        let sum: u64 = r.per_vertex.iter().sum();
        assert_eq!(sum, 3 * r.total, "each triangle touches three vertices");
        assert!(r.total > 0);
    }

    #[test]
    fn triangle_of_three() {
        let g = Graph::new(3, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)]);
        let r = triangle_count(&g, &GraphXStrategy::SourceCut, 2, &cluster()).unwrap();
        assert_eq!(r.total, 1);
        assert_eq!(r.per_vertex, vec![1, 1, 1]);
    }

    #[test]
    fn duplicate_and_reverse_edges_do_not_inflate() {
        let g = Graph::new(
            3,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 0),
                Edge::new(1, 2),
                Edge::new(2, 1),
                Edge::new(2, 0),
                Edge::new(0, 2),
            ],
        );
        let r = triangle_count(&g, &GraphXStrategy::RandomVertexCut, 4, &cluster()).unwrap();
        assert_eq!(r.total, 1);
    }

    #[test]
    fn set_shipping_dominates_bytes() {
        // TR must ship far more bytes than CC on the same graph+partitioning:
        // neighbour sets vs 8-byte labels.
        let g = cutfit_datagen::undirected_social(
            &cutfit_datagen::UndirectedSocialConfig {
                vertices: 2000,
                edges_per_vertex: 8.0,
                triad_probability: 0.3,
            },
            4,
        );
        let tr = triangle_count(&g, &GraphXStrategy::RandomVertexCut, 16, &cluster()).unwrap();
        let pg = GraphXStrategy::RandomVertexCut.partition(&g, 16);
        let cc =
            crate::cc::connected_components(&pg, &cluster(), 100, &Default::default()).unwrap();
        // The paper's mechanism: TR ships *neighbour sets* (size ∝ degree)
        // while CC ships 8-byte labels — per message, TR is much fatter.
        let tr_per_msg = tr.sim.remote_bytes as f64 / tr.sim.messages as f64;
        let cc_per_msg = cc.sim.remote_bytes as f64 / cc.sim.messages as f64;
        assert!(
            tr_per_msg > 2.0 * cc_per_msg,
            "TR {tr_per_msg} B/msg vs CC {cc_per_msg} B/msg"
        );
    }

    #[test]
    fn four_phases_plus_empty_graph() {
        let g = Graph::new(5, vec![]);
        let r = triangle_count(&g, &GraphXStrategy::SourceCut, 2, &cluster()).unwrap();
        assert_eq!(r.total, 0);
        assert_eq!(r.sim.supersteps, 4);
    }
}
