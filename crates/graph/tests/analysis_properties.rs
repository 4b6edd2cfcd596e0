//! Property tests for the graph-analysis substrate.

use cutfit_graph::analysis::{
    bfs::{estimate_diameter, exact_diameter, Diameter},
    count_triangles, strongly_connected_components,
    triangles::count_triangles_brute_force,
    weakly_connected_components, DegreeStats,
};
use cutfit_graph::{Csr, Edge, Graph};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2u64..60, 0usize..200).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..n), m).prop_map(move |pairs| {
            Graph::new(n, pairs.into_iter().map(|(s, d)| Edge::new(s, d)).collect())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn triangle_algorithms_agree(graph in arb_graph()) {
        prop_assert_eq!(count_triangles(&graph), count_triangles_brute_force(&graph));
    }

    #[test]
    fn symmetrized_graph_has_full_reciprocity(graph in arb_graph()) {
        let s = graph.symmetrized();
        prop_assert!((cutfit_graph::analysis::reciprocity(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scc_refines_wcc(graph in arb_graph()) {
        let wcc = weakly_connected_components(&graph);
        let scc = strongly_connected_components(&graph);
        // Every SCC sits inside one WCC, so there are at least as many.
        prop_assert!(scc.count >= wcc.count);
        // And vertices in the same SCC share a WCC label.
        for a in 0..graph.num_vertices() as usize {
            for b in (a + 1)..graph.num_vertices() as usize {
                if scc.labels[a] == scc.labels[b] {
                    prop_assert_eq!(wcc.labels[a], wcc.labels[b]);
                }
            }
        }
    }

    #[test]
    fn scc_equals_wcc_on_symmetric_graphs(graph in arb_graph()) {
        let s = graph.symmetrized();
        prop_assert_eq!(
            strongly_connected_components(&s).count,
            weakly_connected_components(&s).count
        );
    }

    #[test]
    fn wcc_labels_are_component_minima(graph in arb_graph()) {
        let wcc = weakly_connected_components(&graph);
        for (v, &l) in wcc.labels.iter().enumerate() {
            prop_assert!(l <= v as u64, "label can only be a smaller id");
            prop_assert_eq!(wcc.labels[l as usize], l, "label is its own root");
        }
    }

    #[test]
    fn double_sweep_never_exceeds_exact_diameter(graph in arb_graph()) {
        match (estimate_diameter(&graph, 4), exact_diameter(&graph)) {
            (Diameter::Finite(est), Some(exact)) => prop_assert!(est <= exact),
            (Diameter::Infinite, None) => {}
            (est, exact) => prop_assert!(
                false, "connectivity disagreement: {est:?} vs {exact:?}"
            ),
        }
    }

    #[test]
    fn degrees_sum_to_edge_count(graph in arb_graph()) {
        let stats = DegreeStats::of(&graph);
        let out_sum: u64 = stats.out_degrees.iter().map(|&d| d as u64).sum();
        let in_sum: u64 = stats.in_degrees.iter().map(|&d| d as u64).sum();
        prop_assert_eq!(out_sum, graph.num_edges());
        prop_assert_eq!(in_sum, graph.num_edges());
    }

    #[test]
    fn csr_roundtrips_the_edge_multiset(graph in arb_graph()) {
        // Rows read in vertex order: sorted rows make the pairs sorted too.
        let rows = |csr: &Csr| -> Vec<(u64, u64)> {
            (0..graph.num_vertices())
                .flat_map(|v| csr.neighbors(v).iter().map(move |&w| (v, w)))
                .collect()
        };
        let sorted = |mut pairs: Vec<(u64, u64)>| {
            pairs.sort_unstable();
            pairs
        };
        let edges = graph.edges();
        let out = sorted(edges.iter().map(|e| (e.src, e.dst)).collect());
        let inn = sorted(edges.iter().map(|e| (e.dst, e.src)).collect());
        let both = sorted(out.iter().chain(&inn).copied().collect());
        let mut simple = both.clone();
        simple.retain(|(a, b)| a != b);
        simple.dedup();
        prop_assert_eq!(rows(&Csr::out_of(&graph)), out);
        prop_assert_eq!(rows(&Csr::in_of(&graph)), inn);
        prop_assert_eq!(
            rows(&Csr::undirected_of(graph.num_vertices(), edges.iter().copied())),
            both
        );
        prop_assert_eq!(rows(&Csr::undirected_simple_of(&graph)), simple);
    }

    #[test]
    fn text_roundtrip_preserves_graph(graph in arb_graph()) {
        let mut buf = Vec::new();
        cutfit_graph::io::write_edge_list(&graph, &mut buf).unwrap();
        let parsed = cutfit_graph::io::read_edge_list(&buf[..]).unwrap();
        prop_assert_eq!(parsed.edges(), graph.edges());
    }
}
