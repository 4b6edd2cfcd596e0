//! Property tests for [`cutfit_partition::PartitionMetrics`]: the integer
//! partition-size extrema must agree with the float `Summary` on inputs
//! small enough for `f64` to be exact (below 2^53 the comparison is lossless;
//! above it the integer path is the one that stays correct), and the
//! build-free streaming pass must agree with the built-graph path
//! everywhere.

use cutfit_graph::{Edge, Graph};
use cutfit_partition::{GraphXStrategy, PartitionMetrics, PartitionedGraph, Partitioner};
use cutfit_stats::Summary;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1u64..80, 0usize..300).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..n), m).prop_map(move |pairs| {
            Graph::new(n, pairs.into_iter().map(|(s, d)| Edge::new(s, d)).collect())
        })
    })
}

fn arb_strategy() -> impl Strategy<Value = GraphXStrategy> {
    proptest::sample::select(GraphXStrategy::all().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn integer_extrema_match_summary_on_small_inputs(
        graph in arb_graph(),
        strategy in arb_strategy(),
        num_parts in 1u32..48,
    ) {
        let pg = strategy.partition(&graph, num_parts);
        let m = PartitionMetrics::of(&pg);
        let counts = pg.edge_counts();
        let summary = Summary::of_counts(counts.iter().copied());

        // The integer path must agree with both the raw counts and the
        // float summary while the counts are exactly representable.
        prop_assert_eq!(m.max_part_edges, counts.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(m.min_part_edges, counts.iter().copied().min().unwrap_or(0));
        prop_assert_eq!(m.max_part_edges, summary.max as u64);
        prop_assert_eq!(m.min_part_edges, summary.min as u64);
        prop_assert!(m.min_part_edges <= m.max_part_edges);
        prop_assert_eq!(m.edges, counts.iter().sum::<u64>());
    }

    #[test]
    fn of_assignment_equals_of_across_the_bitmask_boundary(
        graph in arb_graph(),
        strategy in arb_strategy(),
        num_parts in 1u32..300, // one-word and multi-word replica sets
    ) {
        // Same strategy, same graph: the streaming pass (one replica word
        // per vertex at <= 64 parts, up to five here) must reproduce the
        // built-graph metrics exactly — including the f64 fields, which
        // funnel through the same arithmetic.
        let assignment = strategy.assign_edges(&graph, num_parts);
        let streamed = PartitionMetrics::of_assignment(&graph, &assignment, num_parts);
        let built = PartitionMetrics::of(&PartitionedGraph::build(&graph, &assignment, num_parts));
        prop_assert_eq!(streamed, built);
    }
}
