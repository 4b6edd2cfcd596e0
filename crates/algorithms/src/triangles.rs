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
//! is a row of one undirected [`Csr`], the same under any cut. So phases 1–2
//! keep local degrees in one `u32` column (partition `p` at `starts[p]..`),
//! and phase 4 stamps a source's row once per run of its edges (partitions
//! keep (src, dst) order), or binary-searches when one row is ≥ 16× the
//! other. A non-canonical cut shows as a repeated row entry, and panics.

use cutfit_cluster::{ClusterConfig, ClusterSim, SimError, SimReport};
use cutfit_graph::types::PartId;
use cutfit_graph::{Csr, Edge, Graph, VertexId};
use cutfit_partition::{PartitionedGraph, Partitioner};

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

/// Counts triangles over an already-partitioned *canonical* graph. Panics on
/// a cut holding a self-loop or a repeated pair: partition [`canonicalize`]'s
/// output.
pub fn triangle_count_partitioned(
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
    let masters = pg.masters();
    let exec_of_part: Vec<u32> = (0..np).map(|p| cluster.executor_of(p)).collect();
    let exec_of = |p: PartId| exec_of_part[p as usize];

    // --- Phase 1: partition-local partial neighbour sets, kept as sizes. ---
    let mut starts = vec![0];
    let mut local_degree = vec![0u32; pg.routing().total_replicas() as usize];
    for (p, part) in pg.parts().iter().enumerate() {
        starts.push(starts[p] + part.vertices.len());
        let degree = &mut local_degree[starts[p]..starts[p + 1]];
        for &(ls, ld) in &part.edges {
            degree[ls as usize] += 1;
            degree[ld as usize] += 1;
        }
        sim.ledger().edge_scans(p as PartId, part.num_edges());
        sim.ledger().local_bytes(p as PartId, part.num_edges() * 16);
    }
    sim.end_superstep()?;

    // --- Phase 2: reduce partial sets to each vertex's master (union). ---
    // Every local vertex has an edge in its partition, hence a master.
    let ledger = sim.ledger();
    for (p, part) in pg.parts().iter().enumerate() {
        let degree = &local_degree[starts[p]..starts[p + 1]];
        for (&v, &d) in part.vertices.iter().zip(degree) {
            let master = masters[v as usize];
            let bytes = u64::from(d) * 8;
            if p as PartId != master {
                ledger.send_exec(exec_of(p as PartId), exec_of(master), 1, bytes + overhead);
            }
            ledger.vertex_ops(master, 1);
            ledger.local_bytes(master, bytes);
        }
    }
    let edges = pg.parts().iter().flat_map(|part| {
        (part.edges.iter()).map(|&(ls, ld)| Edge::new(part.global(ls), part.global(ld)))
    });
    let full = Csr::undirected_of(pg.num_vertices(), edges);
    let simple = (0..n as VertexId).all(|v| full.neighbors(v).windows(2).all(|w| w[0] < w[1]));
    assert!(simple, "not a canonical cut: a loop or a repeated pair");
    charge_set_residency(&mut sim, pg, &full);
    sim.end_superstep()?;

    // --- Phase 3: broadcast complete sets to every mirror. ---
    let ledger = sim.ledger();
    for v in 0..n as VertexId {
        let master = masters[v as usize];
        let bytes = full.degree(v) * 8 + overhead;
        for &p in pg.routing().parts_of(v) {
            if p != master {
                ledger.send_exec(exec_of(master), exec_of(p), 1, bytes);
            }
        }
    }
    charge_set_residency(&mut sim, pg, &full);
    sim.end_superstep()?;

    // --- Phase 4: per-edge intersections, counts shipped to masters. ---
    // `stamp` marks the row of `stamped`. Rows do not depend on the cut, so
    // the marks stay valid across partitions until another source needs it.
    let mut per_vertex = vec![0u64; n];
    let mut edge_count_sum = 0u64;
    let mut stamp = vec![false; n];
    let mut stamped: Option<VertexId> = None;
    let ledger = sim.ledger();
    for (p, part) in pg.parts().iter().enumerate() {
        let mut local_counts = vec![0u64; part.vertices.len()];
        let mut set_bytes = 0;
        for &(ls, ld) in &part.edges {
            let (u, w) = (part.global(ls), part.global(ld));
            let (nu, nw) = (full.neighbors(u), full.neighbors(w));
            let mut rows = [nu, nw];
            rows.sort_by_key(|row| row.len());
            let [short, long] = rows;
            let cnt = if long.len() >= 16 * short.len() {
                let found = |x: &&VertexId| long.binary_search(x).is_ok();
                short.iter().filter(found).count()
            } else {
                if stamped != Some(u) {
                    for &x in stamped.map_or(&[][..], |s| full.neighbors(s)) {
                        stamp[x as usize] = false;
                    }
                    nu.iter().for_each(|&x| stamp[x as usize] = true);
                    stamped = Some(u);
                }
                nw.iter().filter(|&&x| stamp[x as usize]).count()
            } as u64;
            local_counts[ls as usize] += cnt;
            local_counts[ld as usize] += cnt;
            edge_count_sum += cnt;
            set_bytes += (nu.len() + nw.len()) as u64 * 8;
        }
        ledger.local_bytes(p as PartId, set_bytes);
        ledger.edge_scans(p as PartId, part.num_edges());
        // Ship non-zero per-vertex partial counts to masters.
        for (&v, &cnt) in part.vertices.iter().zip(&local_counts) {
            if cnt == 0 {
                continue;
            }
            let master = masters[v as usize];
            if p as PartId != master {
                ledger.send_exec(exec_of(p as PartId), exec_of(master), 1, 8 + overhead);
            }
            ledger.vertex_ops(master, 1);
            per_vertex[v as usize] += cnt;
        }
    }
    sim.end_superstep()?;

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
        sim: sim.into_report(),
    })
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
fn charge_set_residency(sim: &mut ClusterSim, pg: &PartitionedGraph, full: &Csr) {
    sim.clear_resident();
    for (p, part) in pg.parts().iter().enumerate() {
        let set_bytes: u64 = part.vertices.iter().map(|&v| full.degree(v) * 8).sum();
        sim.set_resident(p as PartId, part.structure_bytes() + set_bytes);
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
