//! Property-based tests on engine/algorithm correctness: the distributed
//! execution must compute exactly what the sequential references compute,
//! for arbitrary graphs and partitionings.

use cutfit::partition::all_partitioners;
use cutfit::prelude::*;
use cutfit_algorithms::{reference_components, reference_sssp, sssp, Sssp};
use cutfit_graph::analysis::count_triangles;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2u64..120, 0usize..400).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..n), m).prop_map(move |pairs| {
            Graph::new(n, pairs.into_iter().map(|(s, d)| Edge::new(s, d)).collect())
        })
    })
}

fn arb_strategy() -> impl Strategy<Value = GraphXStrategy> {
    proptest::sample::select(GraphXStrategy::all().to_vec())
}

fn cluster() -> ClusterConfig {
    ClusterConfig::paper_cluster()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cc_equals_union_find(
        graph in arb_graph(),
        strategy in arb_strategy(),
        num_parts in 1u32..32,
    ) {
        let pg = strategy.partition(&graph, num_parts);
        let r = cutfit::algorithms::connected_components(
            &pg, &cluster(), 100_000, &Default::default(),
        ).expect("fits");
        prop_assert!(r.converged);
        prop_assert_eq!(r.states, reference_components(&graph));
    }

    #[test]
    fn triangles_equal_oracle(
        graph in arb_graph(),
        partitioner in 0..all_partitioners().len(),
        num_parts in 1u32..32,
    ) {
        let partitioner = &all_partitioners()[partitioner];
        let r = triangle_count(&graph, partitioner.as_ref(), num_parts, &cluster())
            .expect("fits");
        prop_assert_eq!(r.total, count_triangles(&graph), "{}", partitioner.name());
        let sum: u64 = r.per_vertex.iter().sum();
        prop_assert_eq!(sum, 3 * r.total);
    }

    #[test]
    fn sssp_equals_reverse_bfs(
        graph in arb_graph(),
        strategy in arb_strategy(),
        num_parts in 1u32..32,
        seed in 0u64..1000,
    ) {
        let landmarks = Sssp::pick_landmarks(graph.num_vertices(), 2, seed);
        let pg = strategy.partition(&graph, num_parts);
        let r = sssp(&pg, &cluster(), landmarks.clone(), 100_000, &Default::default())
            .expect("fits");
        prop_assert!(r.converged);
        prop_assert_eq!(r.states, reference_sssp(&graph, &landmarks));
    }

    #[test]
    fn pagerank_mass_is_conserved_without_dangling_or_sourceless_vertices(
        n in 3u64..60,
        seed in 0u64..1000,
    ) {
        // A cycle plus random chords: every vertex has in- and out-edges,
        // so total rank mass converges to exactly n (standard PR identity).
        let mut edges: Vec<Edge> = (0..n).map(|v| Edge::new(v, (v + 1) % n)).collect();
        let mut rng = cutfit::util::Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..n {
            let a = rng.range_u64(n);
            let b = rng.range_u64(n);
            if a != b {
                edges.push(Edge::new(a, b));
            }
        }
        let graph = Graph::new(n, edges);
        let pg = GraphXStrategy::RandomVertexCut.partition(&graph, 8);
        let r = cutfit::algorithms::pagerank(&pg, &cluster(), 60, &Default::default())
            .expect("fits");
        let total: f64 = r.states.iter().sum();
        prop_assert!(
            (total - n as f64).abs() < 1e-6 * n as f64,
            "rank mass {} vs vertices {}", total, n
        );
    }

    #[test]
    fn sim_time_is_positive_and_finite(
        graph in arb_graph(),
        strategy in arb_strategy(),
    ) {
        let pg = strategy.partition(&graph, 8);
        let r = cutfit::algorithms::pagerank(&pg, &cluster(), 3, &Default::default())
            .expect("fits");
        prop_assert!(r.sim.total_seconds.is_finite());
        prop_assert!(r.sim.total_seconds > 0.0);
        prop_assert!(r.sim.compute_seconds >= 0.0);
        prop_assert!(r.sim.network_seconds >= 0.0);
        let parts_sum = r.sim.compute_seconds
            + r.sim.network_seconds
            + r.sim.storage_seconds
            + r.sim.overhead_seconds;
        prop_assert!(
            (parts_sum - r.sim.total_seconds).abs() < 1e-9 * r.sim.total_seconds.max(1.0),
            "breakdown {} vs total {}", parts_sum, r.sim.total_seconds
        );
    }

    #[test]
    fn more_partitions_never_lose_edges(
        graph in arb_graph(),
        np_small in 1u32..8,
        np_large in 8u32..128,
    ) {
        for np in [np_small, np_large] {
            let pg = GraphXStrategy::EdgePartition2D.partition(&graph, np);
            prop_assert_eq!(pg.num_edges(), graph.num_edges());
        }
    }
}
