//! Property tests pinning the counting-sort materialization
//! ([`PartitionedGraph::build`] / [`PartitionedGraph::build_threaded`])
//! field-for-field against the retained reference implementation
//! ([`PartitionedGraph::build_reference`]) across all ten partitioners —
//! including graphs with isolated vertices (which must keep `NO_PART`
//! masters and empty routing slices) and every thread count the engine
//! uses.

use cutfit_graph::{Edge, Graph};
use cutfit_partition::{all_partitioners, PartitionedGraph};
use proptest::prelude::*;

/// Graphs with up to 80 vertices and up to 300 edges; vertex count is
/// independent of the edge endpoints, so isolated vertices (and entirely
/// empty graphs) occur routinely.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (1u64..80, 0usize..300).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..n), m).prop_map(move |pairs| {
            Graph::new(n, pairs.into_iter().map(|(s, d)| Edge::new(s, d)).collect())
        })
    })
}

/// Field-for-field equality over every public accessor: partitions (edges
/// and sorted vertex tables), routing slices, and the raw master table.
fn assert_same(label: &str, a: &PartitionedGraph, b: &PartitionedGraph) {
    assert_eq!(a.num_parts(), b.num_parts(), "{label}: num_parts");
    assert_eq!(a.num_vertices(), b.num_vertices(), "{label}: num_vertices");
    assert_eq!(a.parts(), b.parts(), "{label}: parts");
    assert_eq!(a.routing(), b.routing(), "{label}: routing");
    assert_eq!(a.masters(), b.masters(), "{label}: masters");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn counting_sort_build_matches_reference_for_all_partitioners(
        graph in arb_graph(),
        partitioner_index in 0usize..10,
        num_parts in 1u32..48,
    ) {
        let partitioner = &all_partitioners()[partitioner_index];
        let assignment = partitioner.assign_edges(&graph, num_parts);
        let reference = PartitionedGraph::build_reference(&graph, &assignment, num_parts);
        let built = PartitionedGraph::build(&graph, &assignment, num_parts);
        assert_same(partitioner.name(), &built, &reference);

        // Isolated vertices must surface as NO_PART masters in both paths.
        for v in 0..graph.num_vertices() {
            prop_assert_eq!(
                built.master_of(v).is_none(),
                built.routing().parts_of(v).is_empty(),
                "vertex {} master vs routing", v
            );
        }
    }

    #[test]
    fn build_threaded_is_bit_identical_at_every_thread_count(
        graph in arb_graph(),
        partitioner_index in 0usize..10,
        num_parts in 1u32..48,
    ) {
        let partitioner = &all_partitioners()[partitioner_index];
        let assignment = partitioner.assign_edges(&graph, num_parts);
        let sequential = PartitionedGraph::build(&graph, &assignment, num_parts);
        for threads in [1usize, 2, 4, 0] {
            let threaded =
                PartitionedGraph::build_threaded(&graph, &assignment, num_parts, threads);
            assert_same(
                &format!("{} threads={}", partitioner.name(), threads),
                &threaded,
                &sequential,
            );
        }
    }
}
