//! Property-based tests on partitioning invariants (proptest).

use cutfit::partition::{all_partitioners, Rule};
use cutfit::prelude::*;
use cutfit::util::Xoshiro256pp;
use proptest::prelude::*;

/// Strategy for small random multigraphs.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2u64..200, 0usize..600).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..n), m).prop_map(move |pairs| {
            Graph::new(n, pairs.into_iter().map(|(s, d)| Edge::new(s, d)).collect())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn assignments_cover_every_edge_and_stay_in_range(
        graph in arb_graph(),
        num_parts in 1u32..300,
    ) {
        for partitioner in all_partitioners() {
            let assignment = partitioner.assign_edges(&graph, num_parts);
            prop_assert_eq!(assignment.len() as u64, graph.num_edges());
            prop_assert!(
                assignment.iter().all(|&p| p < num_parts),
                "{} out of range", partitioner.name()
            );
        }
    }

    #[test]
    fn partitioned_graph_preserves_every_edge(
        graph in arb_graph(),
        num_parts in 1u32..64,
    ) {
        let pg = GraphXStrategy::RandomVertexCut.partition(&graph, num_parts);
        prop_assert_eq!(pg.num_edges(), graph.num_edges());
        // Multiset of edges is preserved.
        let mut original: Vec<Edge> = graph.edges().to_vec();
        let mut rebuilt: Vec<Edge> = pg
            .parts()
            .iter()
            .flat_map(|part| {
                part.edges
                    .iter()
                    .map(move |&(ls, ld)| Edge::new(part.global(ls), part.global(ld)))
            })
            .collect();
        original.sort_unstable();
        rebuilt.sort_unstable();
        prop_assert_eq!(original, rebuilt);
    }

    #[test]
    fn metric_identities_hold_for_all_partitioners(
        graph in arb_graph(),
        num_parts in 1u32..64,
    ) {
        for partitioner in all_partitioners() {
            let pg = partitioner.partition(&graph, num_parts);
            let m = PartitionMetrics::of(&pg);
            // The paper's §3.1 identity: replicas split two ways.
            prop_assert_eq!(m.comm_cost + m.non_cut, m.total_replicas);
            prop_assert_eq!(m.vertices_to_same + m.vertices_to_other, m.total_replicas);
            prop_assert_eq!(m.cut + m.non_cut, m.vertices_present);
            prop_assert_eq!(m.total_replicas, pg.routing().total_replicas());
            prop_assert!(m.balance >= 1.0 - 1e-12 || m.edges == 0);
            prop_assert!(m.replication_factor >= 1.0 - 1e-12 || m.vertices_present == 0);
            // Replication cannot exceed the partition count.
            prop_assert!(m.replication_factor <= num_parts as f64 + 1e-12);
            prop_assert_eq!(m.edges, graph.num_edges());
        }
    }

    #[test]
    fn two_d_replication_bound_holds(
        graph in arb_graph(),
        num_parts in 1u32..300,
    ) {
        let pg = GraphXStrategy::EdgePartition2D.partition(&graph, num_parts);
        let bound = 2 * (num_parts as f64).sqrt().ceil() as u32;
        for v in 0..graph.num_vertices() {
            prop_assert!(
                pg.routing().replication(v) <= bound,
                "vertex {} replicated {} times, bound {}",
                v, pg.routing().replication(v), bound
            );
        }
    }

    #[test]
    fn one_d_and_sc_collocate_out_edges(
        graph in arb_graph(),
        num_parts in 1u32..64,
    ) {
        // Every vertex's out-edges land in a single partition under 1D/SC.
        for strategy in [GraphXStrategy::EdgePartition1D, GraphXStrategy::SourceCut] {
            let assignment = strategy.assign_edges(&graph, num_parts);
            let mut seen: std::collections::BTreeMap<u64, u32> = Default::default();
            for (e, &p) in graph.edges().iter().zip(&assignment) {
                if let Some(&prev) = seen.get(&e.src) {
                    prop_assert_eq!(prev, p, "{} split vertex {}", strategy, e.src);
                } else {
                    seen.insert(e.src, p);
                }
            }
        }
    }

    #[test]
    fn crvc_collocates_both_directions(
        graph in arb_graph(),
        num_parts in 1u32..64,
    ) {
        let strategy = GraphXStrategy::CanonicalRandomVertexCut;
        for e in graph.edges() {
            prop_assert_eq!(
                strategy.partition_edge(e.src, e.dst, num_parts),
                strategy.partition_edge(e.dst, e.src, num_parts)
            );
        }
    }

    #[test]
    fn masters_are_always_replicas(
        graph in arb_graph(),
        num_parts in 1u32..64,
    ) {
        let pg = GraphXStrategy::DestinationCut.partition(&graph, num_parts);
        for v in 0..graph.num_vertices() {
            match pg.master_of(v) {
                Some(m) => prop_assert!(pg.routing().parts_of(v).contains(&m)),
                None => prop_assert_eq!(pg.routing().replication(v), 0),
            }
        }
    }

    #[test]
    fn assignment_metrics_match_built_metrics(
        graph in arb_graph(),
        num_parts in 1u32..200,
    ) {
        // Build-free streaming metrics must equal the built-graph metrics
        // field for field, for every partitioner family — with one-word
        // (up to 64 parts) and multi-word replica sets.
        for partitioner in all_partitioners() {
            let assignment = partitioner.assign_edges(&graph, num_parts);
            let streamed = PartitionMetrics::of_assignment(&graph, &assignment, num_parts);
            let built = PartitionMetrics::of(
                &PartitionedGraph::build(&graph, &assignment, num_parts),
            );
            prop_assert_eq!(&streamed, &built, "{}", partitioner.name());
        }
    }

    #[test]
    fn threaded_assignment_is_bit_identical(
        graph in arb_graph(),
        num_parts in 1u32..64,
    ) {
        // Every strategy must produce the same assignment at every thread
        // count (streaming strategies fall back to sequential; the hash
        // family parallelises over chunked edge ranges).
        for partitioner in all_partitioners() {
            let sequential = partitioner.assign_edges(&graph, num_parts);
            for threads in [1usize, 2, 4, 0] {
                prop_assert_eq!(
                    &partitioner.assign_edges_threaded(&graph, num_parts, threads),
                    &sequential,
                    "{} at {} threads", partitioner.name(), threads
                );
            }
        }
    }

    #[test]
    fn exact_ceil_sqrt_agrees_with_f64_on_part_id_range(n in 1u64..(u32::MAX as u64 + 1)) {
        // 2D's grid side: the exact integer path must satisfy the defining
        // inequality everywhere, and over the valid PartId range the old
        // f64 round-trip happens to agree — pinning that the replacement
        // changed no assignment.
        let s = cutfit::util::num::ceil_sqrt(n);
        prop_assert!(s * s >= n && (s - 1) * (s - 1) < n);
        prop_assert_eq!(s, (n as f64).sqrt().ceil() as u64);
    }

    #[test]
    fn single_partition_degenerates_cleanly(graph in arb_graph()) {
        for partitioner in all_partitioners() {
            let pg = partitioner.partition(&graph, 1);
            let m = PartitionMetrics::of(&pg);
            prop_assert_eq!(m.cut, 0, "{}", partitioner.name());
            prop_assert_eq!(m.comm_cost, 0);
            prop_assert!((m.balance - 1.0).abs() < 1e-12 || m.edges == 0);
            prop_assert_eq!(m.part_stdev, 0.0);
        }
    }
}

/// The `Pure` label is checked, not trusted: a rule that claims to be a
/// function of the edge alone must give every edge the same verdict
/// wherever it stands in the list, so assigning a permutation of the edge
/// list yields the same permutation of the original assignment. A rule
/// with edge-to-edge state fails this, and must say `Ordered`.
#[test]
fn a_pure_rule_commutes_with_any_permutation_of_the_edge_list() {
    let rmat = cutfit::datagen::rmat(
        &cutfit::datagen::RmatConfig {
            scale: 9,
            edges: 4096,
            ..Default::default()
        },
        11,
    );
    // Self-loops, duplicate edges, and isolated vertices 6 and 7.
    let pairs = [
        (0, 0),
        (0, 1),
        (0, 1),
        (1, 0),
        (2, 5),
        (5, 5),
        (3, 4),
        (4, 3),
        (0, 1),
        (5, 2),
    ];
    let small = Graph::new(8, pairs.iter().map(|&(s, d)| Edge::new(s, d)).collect());
    let mut ordered = Vec::new();
    for (label, graph) in [("rmat", &rmat), ("small", &small)] {
        let mut order: Vec<usize> = (0..graph.edges().len()).collect();
        Xoshiro256pp::seed_from_u64(0x5eed).shuffle(&mut order);
        let permuted = Graph::new(
            graph.num_vertices(),
            order.iter().map(|&i| graph.edges()[i]).collect(),
        );
        for num_parts in [1u32, 7, 64] {
            for partitioner in all_partitioners() {
                let name = partitioner.name();
                match partitioner.rule(graph, num_parts).expect("resident") {
                    Rule::Ordered(_) => ordered.push(name),
                    Rule::Pure(_) => {
                        let original = partitioner.assign_edges(graph, num_parts);
                        let want: Vec<u32> = order.iter().map(|&i| original[i]).collect();
                        let got = partitioner.assign_edges(&permuted, num_parts);
                        assert_eq!(got, want, "{name} on {label} at {num_parts} parts");
                    }
                }
            }
        }
    }
    ordered.sort_unstable();
    ordered.dedup();
    assert_eq!(ordered, ["Greedy", "HDRF"], "the rules that carry state");
}
