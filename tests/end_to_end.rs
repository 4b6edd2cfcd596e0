//! End-to-end integration: dataset profiles → partitioning → algorithms,
//! validated against single-threaded reference implementations.

use cutfit::prelude::*;
use cutfit_algorithms::{reference_components, reference_pagerank, reference_sssp, sssp, Sssp};
use cutfit_graph::analysis::count_triangles;

const SCALE: f64 = 0.0015;

fn cluster() -> ClusterConfig {
    ClusterConfig::paper_cluster()
}

#[test]
fn pagerank_matches_reference_on_every_profile() {
    for profile in DatasetProfile::all() {
        let graph = profile.generate(SCALE, 11);
        let pg = GraphXStrategy::EdgePartition2D.partition(&graph, 32);
        let engine = cutfit::algorithms::pagerank(&pg, &cluster(), 5, &Default::default())
            .expect("fits in memory");
        let reference = reference_pagerank(&graph, 5);
        for (v, (a, b)) in engine.states.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * b.abs().max(1.0),
                "{}: vertex {v}: engine {a} vs reference {b}",
                profile.name
            );
        }
    }
}

#[test]
fn connected_components_match_union_find_on_every_profile() {
    for profile in DatasetProfile::all() {
        let graph = profile.generate(SCALE, 13);
        let reference = reference_components(&graph);
        let pg = GraphXStrategy::CanonicalRandomVertexCut.partition(&graph, 16);
        let r =
            cutfit::algorithms::connected_components(&pg, &cluster(), 100_000, &Default::default())
                .expect("fits in memory");
        assert!(r.converged, "{}", profile.name);
        assert_eq!(r.states, reference, "{}", profile.name);
    }
}

#[test]
fn triangle_counts_match_oracle_on_every_profile() {
    for profile in DatasetProfile::all() {
        let graph = profile.generate(SCALE, 17);
        let expected = count_triangles(&graph);
        let r = triangle_count(&graph, &GraphXStrategy::DestinationCut, 16, &cluster())
            .expect("fits in memory");
        assert_eq!(r.total, expected, "{}", profile.name);
    }
}

#[test]
fn sssp_matches_reverse_bfs_on_social_profiles() {
    for profile in DatasetProfile::social() {
        let graph = profile.generate(SCALE, 19);
        let landmarks = Sssp::pick_landmarks(graph.num_vertices(), 3, 23);
        let reference = reference_sssp(&graph, &landmarks);
        let pg = GraphXStrategy::EdgePartition1D.partition(&graph, 16);
        let r = sssp(&pg, &cluster(), landmarks, 10_000, &Default::default())
            .expect("social graphs converge quickly");
        assert!(r.converged, "{}", profile.name);
        assert_eq!(r.states, reference, "{}", profile.name);
    }
}

#[test]
fn algorithm_results_are_invariant_to_partitioner_and_granularity() {
    let graph = DatasetProfile::pocek().generate(SCALE, 29);
    let reference = reference_components(&graph);
    for strategy in GraphXStrategy::all() {
        for np in [1u32, 7, 32, 128] {
            let pg = strategy.partition(&graph, np);
            let r = cutfit::algorithms::connected_components(
                &pg,
                &cluster(),
                100_000,
                &Default::default(),
            )
            .expect("fits");
            assert_eq!(r.states, reference, "{strategy} @ {np}");
        }
    }
}

#[test]
fn streaming_partitioners_run_the_full_pipeline_too() {
    use cutfit::partition::{Dbh, GreedyVertexCut, Hdrf};
    let graph = DatasetProfile::youtube().generate(SCALE, 31);
    let reference = reference_components(&graph);
    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(Dbh),
        Box::new(GreedyVertexCut::default()),
        Box::new(Hdrf::default()),
    ];
    for p in partitioners {
        let pg = p.partition(&graph, 16);
        let r =
            cutfit::algorithms::connected_components(&pg, &cluster(), 100_000, &Default::default())
                .expect("fits");
        assert_eq!(r.states, reference, "{}", p.name());
    }
}

#[test]
fn experiment_harness_full_grid_smoke() {
    let config = ExperimentConfig {
        scale: 0.001,
        seed: 5,
        num_parts: vec![16, 32],
        datasets: vec![DatasetProfile::youtube(), DatasetProfile::pocek()],
        partitioners: GraphXStrategy::all().to_vec(),
        cluster: cluster(),
        executor: ExecutorMode::Sequential,
        scale_memory: false,
    };
    for algo in Algorithm::paper_suite(3) {
        let result = run_experiment(&algo, &config);
        assert_eq!(result.observations.len(), 2 * 2 * 6, "{}", algo.abbrev());
        let completed = result
            .observations
            .iter()
            .filter(|o| o.time_s.is_some())
            .count();
        assert!(completed > 0, "{} all failed", algo.abbrev());
        // Times are positive and finite.
        for o in &result.observations {
            if let Some(t) = o.time_s {
                assert!(t.is_finite() && t > 0.0);
            }
        }
    }
}

/// One cell of the grid below: `run` under `Parallel { threads: 3 }` must
/// equal its `Sequential` run in states and whole `SimReport`, and `agrees`
/// holds the answer against the oracle. With `faulty`, the same run under
/// the faulty scenario must change the bill and not the answer.
fn check_pooled_cell<S: PartialEq + std::fmt::Debug>(
    cell: &str,
    faulty: bool,
    run: impl Fn(&ClusterConfig, &PregelConfig) -> cutfit::engine::PregelResult<S>,
    agrees: impl Fn(&[S]) -> bool,
) {
    let pooled = PregelConfig {
        executor: ExecutorMode::Parallel { threads: 3 },
        ..Default::default()
    };
    let seq = run(&cluster(), &PregelConfig::default());
    let par = run(&cluster(), &pooled);
    assert!(
        agrees(&par.states),
        "{cell}: answer differs from the oracle"
    );
    assert_eq!(par.states, seq.states, "{cell}: states across executors");
    assert_eq!(par.sim, seq.sim, "{cell}: bill across executors");
    if faulty {
        let mut degraded = cluster();
        degraded.scenario = ScenarioConfig::faulty(41);
        let hurt = run(&degraded, &pooled);
        assert_eq!(hurt.states, seq.states, "{cell}: faults changed the answer");
        assert_ne!(hurt.sim, seq.sim, "{cell}: faults must show in the bill");
    }
}

#[test]
fn extension_algorithms_match_their_oracles_on_streaming_cuts_in_a_pool() {
    use cutfit::partition::{Dbh, GreedyVertexCut, Hdrf, HybridCut};
    use cutfit_algorithms::hits::{hits, reference_hits};
    use cutfit_algorithms::label_propagation::{label_propagation, reference_label_propagation};
    use cutfit_algorithms::{kcore, reference_kcore};

    let graph = DatasetProfile::youtube().generate(0.001, 37);
    let hits_oracle = reference_hits(&graph, 4);
    let lpa_oracle = reference_label_propagation(&graph, 4);
    let kcore_oracle = reference_kcore(&graph);
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * b.abs().max(1.0);

    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(Hdrf::default()),
        Box::new(GreedyVertexCut::default()),
        Box::new(Dbh),
        Box::new(HybridCut::default()),
    ];
    for (row, p) in partitioners.iter().enumerate() {
        let pg = p.partition(&graph, 7);
        // The first row repeats every algorithm under the faulty scenario.
        let faulty = row == 0;
        check_pooled_cell(
            &format!("HITS on {}", p.name()),
            faulty,
            |cluster, opts| hits(&pg, cluster, 4, opts).expect("fits"),
            |states| {
                states.len() == hits_oracle.len()
                    && states
                        .iter()
                        .zip(&hits_oracle)
                        .all(|(a, b)| close(a.authority, b.authority) && close(a.hub, b.hub))
            },
        );
        check_pooled_cell(
            &format!("LPA on {}", p.name()),
            faulty,
            |cluster, opts| label_propagation(&pg, cluster, 4, opts).expect("fits"),
            |states| states == lpa_oracle,
        );
        check_pooled_cell(
            &format!("k-core on {}", p.name()),
            faulty,
            // Always active: 60 rounds reach the fixpoint on this graph.
            |cluster, opts| kcore(&graph, p.as_ref(), 7, cluster, 60, opts).expect("fits"),
            |states| states == kcore_oracle,
        );
    }
}
