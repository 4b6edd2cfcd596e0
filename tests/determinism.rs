//! Determinism guarantees: identical seeds produce identical graphs,
//! partitionings, results, *and* simulated bills — across repeated runs and
//! across sequential/parallel execution.

use cutfit::prelude::*;

#[test]
fn generation_is_bit_identical_across_calls() {
    for profile in DatasetProfile::all() {
        let a = profile.generate(0.002, 99);
        let b = profile.generate(0.002, 99);
        assert_eq!(a, b, "{}", profile.name);
    }
}

#[test]
fn different_seeds_give_different_graphs() {
    for profile in DatasetProfile::all() {
        let a = profile.generate(0.002, 1);
        let b = profile.generate(0.002, 2);
        assert_ne!(a, b, "{}", profile.name);
    }
}

#[test]
fn simulated_bill_is_reproducible() {
    let graph = DatasetProfile::soc_live_journal().generate(0.001, 7);
    let pg = GraphXStrategy::EdgePartition2D.partition(&graph, 32);
    let cluster = ClusterConfig::paper_cluster();
    let a = cutfit::algorithms::pagerank(&pg, &cluster, 10, &Default::default()).unwrap();
    let b = cutfit::algorithms::pagerank(&pg, &cluster, 10, &Default::default()).unwrap();
    assert_eq!(a.sim, b.sim);
    assert_eq!(a.states, b.states);
}

#[test]
fn parallel_executor_is_bit_identical_for_every_algorithm() {
    let graph = DatasetProfile::pocek().generate(0.002, 3);
    let cluster = ClusterConfig::paper_cluster();
    let mut seq_ws = Workspace::new(graph.clone(), cluster.clone(), ExecutorMode::Sequential);
    let mut par_ws = Workspace::new(graph, cluster, ExecutorMode::Parallel { threads: 8 });
    for algo in Algorithm::paper_suite(17) {
        let strategy = GraphXStrategy::CanonicalRandomVertexCut;
        let seq = seq_ws.run_job_isolated(&algo, strategy, 32);
        let par = par_ws.run_job_isolated(&algo, strategy, 32);
        assert_eq!(
            seq.result.expect("fits"),
            par.result.expect("fits"),
            "{}: parallel scan must not change the metered bill",
            algo.abbrev()
        );
        assert_eq!(seq.supersteps, par.supersteps, "{}", algo.abbrev());
    }
}

#[test]
fn assignment_does_not_depend_on_edge_order_for_hash_strategies() {
    // Hash strategies are pure per-edge functions: permuting the edge list
    // permutes the assignment identically.
    let graph = DatasetProfile::youtube().generate(0.002, 21);
    let mut reversed_edges = graph.edges().to_vec();
    reversed_edges.reverse();
    let reversed = Graph::new(graph.num_vertices(), reversed_edges);
    for strategy in GraphXStrategy::all() {
        let mut a = strategy.assign_edges(&graph, 64);
        let mut b = strategy.assign_edges(&reversed, 64);
        b.reverse();
        a.iter_mut().for_each(|_| {});
        assert_eq!(a, b, "{strategy}");
    }
}

#[test]
fn landmark_selection_is_stable() {
    use cutfit_algorithms::Sssp;
    assert_eq!(
        Sssp::pick_landmarks(100_000, 5, 42),
        Sssp::pick_landmarks(100_000, 5, 42)
    );
    assert_ne!(
        Sssp::pick_landmarks(100_000, 5, 42),
        Sssp::pick_landmarks(100_000, 5, 43)
    );
}
