//! Frontier-driven execution equivalence grid.
//!
//! The engine promises that scan mode is *unobservable* except in wall
//! clock: for every program, `Sparse` and `Auto` produce bit-identical
//! vertex states AND a bit-identical metered [`SimReport`] compared to
//! `Dense` — across every executor mode. This file pins that promise on
//! the full {algorithm} × {scan mode} × {executor} grid, plus sanity
//! checks on the frontier telemetry the sparse path exposes.

use cutfit::algorithms::{label_propagation, Sssp};
use cutfit::engine::PregelResult;
use cutfit::prelude::*;

fn scan_modes() -> [ScanMode; 3] {
    [ScanMode::Dense, ScanMode::Sparse, ScanMode::Auto]
}

fn executors() -> [ExecutorMode; 6] {
    [
        ExecutorMode::Sequential,
        // Pool entry with one shard covering every partition.
        ExecutorMode::Parallel { threads: 1 },
        ExecutorMode::Parallel { threads: 2 },
        // Uneven shards (16 partitions → 6/6/4): sparse touched lists
        // straddle shard boundaries.
        ExecutorMode::Parallel { threads: 3 },
        ExecutorMode::Parallel { threads: 4 },
        ExecutorMode::Auto,
    ]
}

fn opts(scan_mode: ScanMode, executor: ExecutorMode) -> PregelConfig {
    PregelConfig {
        scan_mode,
        executor,
        ..Default::default()
    }
}

/// Runs one algorithm over the whole scan-mode × executor grid and asserts
/// every cell is bit-identical to the Dense/Sequential baseline in states,
/// metered report, and superstep count.
fn assert_grid_identical<S, F>(name: &str, run: F)
where
    S: PartialEq + std::fmt::Debug,
    F: Fn(&PregelConfig) -> PregelResult<S>,
{
    let baseline = run(&opts(ScanMode::Dense, ExecutorMode::Sequential));
    for scan_mode in scan_modes() {
        for executor in executors() {
            let r = run(&opts(scan_mode, executor));
            assert_eq!(
                baseline.states, r.states,
                "{name}: states drifted under {scan_mode:?}/{executor:?}"
            );
            assert_eq!(
                baseline.sim, r.sim,
                "{name}: SimReport drifted under {scan_mode:?}/{executor:?}"
            );
            assert_eq!(
                baseline.supersteps, r.supersteps,
                "{name}: superstep count drifted under {scan_mode:?}/{executor:?}"
            );
        }
    }
}

#[test]
fn pagerank_is_bit_identical_across_the_grid() {
    let g = DatasetProfile::youtube().generate(0.002, 42);
    let pg = GraphXStrategy::CanonicalRandomVertexCut.partition(&g, 16);
    let cluster = ClusterConfig::paper_cluster();
    assert_grid_identical("PR", |o| {
        pagerank(&pg, &cluster, 8, o).expect("fits in memory")
    });
}

#[test]
fn sssp_is_bit_identical_across_the_grid() {
    let g = DatasetProfile::youtube().generate(0.002, 42);
    let pg = GraphXStrategy::EdgePartition2D.partition(&g, 16);
    let cluster = ClusterConfig::paper_cluster();
    let landmarks = Sssp::pick_landmarks(g.num_vertices(), 3, 7);
    assert_grid_identical("SSSP", |o| {
        sssp(&pg, &cluster, landmarks.clone(), 10_000, o).expect("fits in memory")
    });
}

#[test]
fn connected_components_is_bit_identical_across_the_grid() {
    let g = DatasetProfile::road_net_pa().generate(0.002, 42);
    let pg = GraphXStrategy::EdgePartition1D.partition(&g, 16);
    let cluster = ClusterConfig::paper_cluster();
    assert_grid_identical("CC", |o| {
        connected_components(&pg, &cluster, 10_000, o).expect("fits in memory")
    });
}

#[test]
fn label_propagation_is_bit_identical_across_the_grid() {
    let g = DatasetProfile::pocek().generate(0.002, 42);
    let pg = GraphXStrategy::RandomVertexCut.partition(&g, 16);
    let cluster = ClusterConfig::paper_cluster();
    assert_grid_identical("LP", |o| {
        label_propagation(&pg, &cluster, 6, o).expect("fits in memory")
    });
}

#[test]
fn frontier_profile_reports_the_converging_tail() {
    let g = DatasetProfile::road_net_pa().generate(0.002, 42);
    let pg = GraphXStrategy::EdgePartition2D.partition(&g, 16);
    let cluster = ClusterConfig::paper_cluster();
    let landmarks = Sssp::pick_landmarks(g.num_vertices(), 1, 7);
    let r =
        sssp(&pg, &cluster, landmarks, 10_000, &PregelConfig::default()).expect("fits in memory");
    let p = r.sim.frontier_profile();

    // One telemetry sample per message superstep (including the final empty
    // one that proves convergence), none for setup.
    assert_eq!(p.supersteps, r.supersteps + 1);
    // Superstep one is all-active by protocol.
    assert_eq!(p.peak_active_fraction, 1.0);
    // A single-landmark BFS on a sparse road network activates a shrinking
    // wavefront: the mean must sit strictly between "nothing" and "dense".
    assert!(p.mean_active_fraction > 0.0 && p.mean_active_fraction < 1.0);
    assert!(p.mean_scanned_fraction > 0.0 && p.mean_scanned_fraction <= 1.0);
    assert!(p.low_active_supersteps <= p.supersteps);

    // The profile is derived from mode-invariant integers, so it is itself
    // identical across scan modes.
    for scan_mode in scan_modes() {
        let r2 = sssp(
            &pg,
            &cluster,
            Sssp::pick_landmarks(g.num_vertices(), 1, 7),
            10_000,
            &opts(scan_mode, ExecutorMode::Sequential),
        )
        .expect("fits in memory");
        assert_eq!(p, r2.sim.frontier_profile(), "{scan_mode:?}");
    }
}

mod properties {
    use super::*;
    use cutfit::algorithms::connected_components;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// SSSP is the adversarial case for sparse scans — converging,
        /// variable-size state (exercising incremental residency deltas),
        /// and `ToSrc`-only messages — so it anchors the random-graph
        /// equivalence property, with forced-`Sparse` pinning the sparse
        /// machinery even where `Auto` would choose dense.
        #[test]
        fn sssp_scan_modes_agree_on_arbitrary_graphs(
            graph in arb_graph(),
            strategy in arb_strategy(),
            num_parts in 1u32..32,
            seed in 0u64..1000,
        ) {
            let landmarks = Sssp::pick_landmarks(graph.num_vertices(), 2, seed);
            let pg = strategy.partition(&graph, num_parts);
            let cluster = ClusterConfig::paper_cluster();
            let dense = sssp(
                &pg, &cluster, landmarks.clone(), 100_000,
                &opts(ScanMode::Dense, ExecutorMode::Sequential),
            ).expect("fits");
            for scan_mode in [ScanMode::Sparse, ScanMode::Auto] {
                for executor in [ExecutorMode::Sequential, ExecutorMode::Parallel { threads: 3 }] {
                    let r = sssp(
                        &pg, &cluster, landmarks.clone(), 100_000,
                        &opts(scan_mode, executor),
                    ).expect("fits");
                    prop_assert_eq!(&dense.states, &r.states);
                    prop_assert_eq!(&dense.sim, &r.sim);
                    prop_assert_eq!(dense.supersteps, r.supersteps);
                }
            }
        }

        /// CC activates in `Either` direction (the union-gather path).
        #[test]
        fn cc_scan_modes_agree_on_arbitrary_graphs(
            graph in arb_graph(),
            strategy in arb_strategy(),
            num_parts in 1u32..32,
        ) {
            let pg = strategy.partition(&graph, num_parts);
            let cluster = ClusterConfig::paper_cluster();
            let dense = connected_components(
                &pg, &cluster, 100_000,
                &opts(ScanMode::Dense, ExecutorMode::Sequential),
            ).expect("fits");
            for scan_mode in [ScanMode::Sparse, ScanMode::Auto] {
                let r = connected_components(
                    &pg, &cluster, 100_000,
                    &opts(scan_mode, ExecutorMode::Parallel { threads: 2 }),
                ).expect("fits");
                prop_assert!(r.converged);
                prop_assert_eq!(&dense.states, &r.states);
                prop_assert_eq!(&dense.sim, &r.sim);
            }
        }
    }
}

#[test]
fn always_active_programs_report_a_full_frontier() {
    let g = DatasetProfile::youtube().generate(0.002, 42);
    let pg = GraphXStrategy::RandomVertexCut.partition(&g, 8);
    let cluster = ClusterConfig::paper_cluster();
    let r = pagerank(&pg, &cluster, 5, &PregelConfig::default()).expect("fits in memory");
    let p = r.sim.frontier_profile();
    assert_eq!(p.supersteps, r.supersteps);
    assert_eq!(p.peak_active_fraction, 1.0);
    assert_eq!(p.mean_active_fraction, 1.0);
    assert_eq!(p.mean_scanned_fraction, 1.0);
    assert_eq!(p.low_active_supersteps, 0);
}
