//! Smoke tests mirroring each of the eight `examples/*.rs` flows on tiny
//! graphs, so `cargo test` exercises every documented entry point without
//! paying the examples' full default scales. CI additionally builds the
//! example binaries themselves and runs `quickstart` and `phase_split` end
//! to end.

use cutfit::prelude::*;

/// `examples/quickstart.rs`: generate, partition, measure, run PageRank,
/// read the bill.
#[test]
fn quickstart_flow() {
    let graph = DatasetProfile::youtube().generate(0.001, 42);
    assert!(graph.num_vertices() > 0);
    assert!(graph.num_edges() > 0);

    let partitioned = GraphXStrategy::EdgePartition2D.partition(&graph, 16);
    let metrics = PartitionMetrics::of(&partitioned);
    assert_eq!(metrics.edges, graph.num_edges());
    assert!(metrics.balance >= 1.0);

    let cluster = ClusterConfig::paper_cluster();
    let result = pagerank(&partitioned, &cluster, 10, &Default::default()).expect("fits");
    assert_eq!(result.states.len(), graph.num_vertices() as usize);
    assert!(result.states.iter().all(|r| r.is_finite() && *r > 0.0));
    assert!(result.sim.total_seconds > 0.0);
}

/// `examples/tailored_pipeline.rs`: heuristic and measured advisor
/// recommendations, then a run under the recommended partitioning.
#[test]
fn tailored_pipeline_flow() {
    let graph = DatasetProfile::pocek().generate(0.002, 7);
    let advisor = Advisor::scaled(0.002);

    let heuristic = advisor.recommend(AlgorithmClass::EdgeBound, &graph, 16);
    assert!(!heuristic.rationale.is_empty());

    let measured = advisor.recommend_measured(AlgorithmClass::EdgeBound, &graph, 16, &[]);
    assert_eq!(measured.ranking.len(), GraphXStrategy::all().len());

    let pg = heuristic.strategy.partition(&graph, 16);
    let r = pagerank(&pg, &ClusterConfig::paper_cluster(), 5, &Default::default()).expect("fits");
    assert_eq!(r.states.len(), graph.num_vertices() as usize);
}

/// `examples/custom_algorithm.rs`: a user-written [`VertexProgram`] driven
/// through [`run_pregel`]. This one sums neighbour ids to each destination —
/// small enough to verify against a sequential oracle.
#[test]
fn custom_algorithm_flow() {
    struct NeighbourIdSum;

    impl VertexProgram for NeighbourIdSum {
        type State = u64;
        type Msg = u64;

        fn name(&self) -> &'static str {
            "neighbour-id-sum"
        }

        fn initial_state(&self, _v: VertexId, _ctx: &cutfit::engine::InitCtx<'_>) -> u64 {
            0
        }

        fn initial_msg(&self) -> u64 {
            0
        }

        fn apply(&self, _v: VertexId, state: &mut u64, msg: &u64) {
            *state += msg;
        }

        fn send(&self, t: &Triplet<'_, u64>) -> Messages<u64> {
            Messages::ToDst(t.src + 1)
        }

        fn merge(&self, a: u64, b: u64) -> u64 {
            a + b
        }
    }

    let graph = Graph::new(
        5,
        vec![
            Edge::new(0, 1),
            Edge::new(2, 1),
            Edge::new(3, 4),
            Edge::new(4, 3),
        ],
    );
    let pg = GraphXStrategy::RandomVertexCut.partition(&graph, 4);
    let r = run_pregel(
        &NeighbourIdSum,
        &pg,
        &ClusterConfig::paper_cluster(),
        &PregelConfig {
            max_iterations: 1,
            ..Default::default()
        },
    )
    .expect("fits");
    // After one superstep each vertex holds the sum of (src + 1) over its
    // in-edges: vertex 1 gets (0+1) + (2+1), vertices 3 and 4 get each other.
    assert_eq!(r.states, vec![0, 4, 0, 5, 4]);
}

/// `examples/partitioner_comparison.rs`: all six strategies measured and run
/// on one dataset.
#[test]
fn partitioner_comparison_flow() {
    let graph = DatasetProfile::youtube().generate(0.001, 11);
    let cluster = ClusterConfig::paper_cluster();
    for strategy in GraphXStrategy::all() {
        let pg = strategy.partition(&graph, 8);
        let metrics = PartitionMetrics::of(&pg);
        assert_eq!(metrics.edges, graph.num_edges(), "{strategy}");
        let r = pagerank(&pg, &cluster, 3, &Default::default()).expect("fits");
        assert!(r.sim.total_seconds > 0.0, "{strategy}");
    }
}

/// `examples/out_of_core.rs`: convert to the binary container, stream a
/// sweep over it with bounded edge memory, then serve jobs from a
/// binary-backed workspace billed by bytes on disk.
#[test]
fn out_of_core_flow() {
    use cutfit::graph::{binfmt, BinaryFileSource, GraphSource};

    let graph = DatasetProfile::pocek().generate(0.001, 42);
    let dir = std::env::temp_dir().join(format!("cutfit-ooc-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.cfb");
    let bin_bytes = binfmt::write_binary_file(&graph, &path).expect("write container");
    assert!(bin_bytes < graph.num_edges() * std::mem::size_of::<Edge>() as u64);

    let source = BinaryFileSource::open(&path).expect("container opens");
    assert_eq!(source.num_edges(), graph.num_edges());
    let strategies = GraphXStrategy::all();
    let (streamed, stats) =
        cutfit::partition::sweep_metrics_source(&source, &strategies, 16, 1 << 12, 0)
            .expect("container streams");
    assert_eq!(stats.edges, graph.num_edges());
    assert_eq!(
        streamed,
        cutfit::partition::sweep_metrics(&graph, &strategies, 16, 1),
        "streamed sweep matches the resident sweep"
    );

    let mut ws = Workspace::from_binary_file(
        &path,
        ClusterConfig::paper_cluster(),
        ExecutorMode::Sequential,
    )
    .expect("container loads");
    assert_eq!(ws.graph().as_ref(), &graph, "lossless load");
    assert_eq!(ws.load_source_bytes(), bin_bytes);
    let report = ws.run_workload(&[Job::fixed(
        Algorithm::PageRank { iterations: 3 },
        GraphXStrategy::EdgePartition2D,
        16,
    )]);
    assert_eq!(report.failures(), 0);
    assert!(report.provisioning_seconds() > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// `examples/converging_frontier.rs`: SSSP from hub landmarks traced via
/// `frontier_trace`, then the dense-vs-auto race on a road network — states
/// and simulated bills bit-identical, only the wall clock moves.
#[test]
fn converging_frontier_flow() {
    let cluster = ClusterConfig::paper_cluster();
    let run = |pg: &PartitionedGraph, landmarks: Vec<VertexId>, scan_mode| {
        let opts = PregelConfig {
            executor: ExecutorMode::Sequential,
            scan_mode,
            checkpoint_interval: Some(25),
            ..Default::default()
        };
        sssp(pg, &cluster, landmarks, 100_000, &opts).expect("fits")
    };

    // Part one: hub-landmark SSSP on a scale-free graph, frontier traced.
    let config = cutfit::datagen::RmatConfig {
        scale: 9,
        edges: 1 << 10,
        ..Default::default()
    };
    let graph = cutfit::datagen::rmat(&config, 42);
    let hub = graph
        .in_degrees()
        .iter()
        .enumerate()
        .max_by_key(|&(v, &d)| (d, std::cmp::Reverse(v)))
        .map(|(v, _)| v as VertexId)
        .expect("non-empty graph");
    let pg = GraphXStrategy::EdgePartition2D.partition(&graph, 16);
    let dense = run(&pg, vec![hub], ScanMode::Dense);
    let auto = run(&pg, vec![hub], ScanMode::Auto);
    assert_eq!(dense.states, auto.states);
    assert_eq!(dense.sim, auto.sim);
    assert!(auto.supersteps > 1, "hub landmark must actually propagate");
    // One trace sample per message superstep, wavefront collapsing to zero.
    assert_eq!(auto.sim.frontier_trace.len() as u64, auto.supersteps + 1);
    let first = auto.sim.frontier_trace.first().expect("non-empty trace");
    let last = auto.sim.frontier_trace.last().expect("non-empty trace");
    assert_eq!(first.active_vertices, graph.num_vertices());
    assert!(last.active_vertices < first.active_vertices);

    // Part two: the road-network race, where the tail is the whole run.
    let road = DatasetProfile::road_net_pa().generate(0.0005, 42);
    let road_pg = GraphXStrategy::EdgePartition2D.partition(&road, 16);
    let dense = run(&road_pg, vec![0], ScanMode::Dense);
    let auto = run(&road_pg, vec![0], ScanMode::Auto);
    assert_eq!(dense.states, auto.states);
    assert_eq!(dense.sim, auto.sim);
    let profile = auto.sim.frontier_profile();
    assert!(
        profile.low_active_supersteps > profile.supersteps / 2,
        "a road-network wavefront should spend most supersteps below 1% active \
         ({} of {})",
        profile.low_active_supersteps,
        profile.supersteps
    );
}

/// `examples/oom_postmortem.rs`: long-lineage SSSP on a road network dies of
/// simulated memory exhaustion; checkpointing fixes it; a bounded-iteration
/// job under the same budget is fine.
#[test]
fn oom_postmortem_flow() {
    let scale = 0.006;
    let graph = DatasetProfile::road_net_ca().generate(scale, 42);
    let cluster = ClusterConfig::paper_cluster().with_memory_scale(scale);
    let pg = GraphXStrategy::EdgePartition2D.partition(&graph, 32);
    let landmarks = cutfit::algorithms::Sssp::pick_landmarks(graph.num_vertices(), 5, 7);

    match sssp(
        &pg,
        &cluster,
        landmarks.clone(),
        10_000,
        &Default::default(),
    ) {
        Err(SimError::OutOfMemory {
            required_gb,
            capacity_gb,
            ..
        }) => {
            assert!(required_gb > capacity_gb);
        }
        Ok(r) => panic!(
            "expected the paper's OOM, converged in {} supersteps",
            r.supersteps
        ),
    }

    let mut checkpointed = cluster.clone();
    checkpointed.cost.lineage_heap_fraction_per_superstep = 0.0;
    checkpointed.cost.lineage_retention = 0.0;
    let r = sssp(&pg, &checkpointed, landmarks, 10_000, &Default::default())
        .expect("checkpointing truncates the lineage");
    assert!(r.converged);

    let pr = pagerank(&pg, &cluster, 10, &Default::default())
        .expect("bounded iteration count stays within budget");
    assert_eq!(pr.supersteps, 10);
}

/// `examples/phase_split.rs`: SSSP and capped CC on a 2D road cut through
/// `run_traced` with the host's clock; the spans explain the superstep loop.
#[test]
fn phase_split_flow() {
    use cutfit::algorithms::{ConnectedComponents, Sssp};
    use cutfit::engine::Phase;
    use cutfit::util::clock::Clock;

    let graph = DatasetProfile::road_net_pa().generate(0.002, 42);
    let landmarks = Sssp::pick_landmarks(graph.num_vertices(), 5, 42);
    let pg = std::sync::Arc::new(GraphXStrategy::EdgePartition2D.partition(&graph, 16));
    let mut cluster = ClusterConfig::paper_cluster();
    cluster.scenario.checkpoint_interval = 25;
    let mut prepared = PreparedRun::new(pg, &cluster, ExecutorMode::Sequential);
    let opts = |max_iterations| PregelConfig {
        max_iterations,
        ..PregelConfig::default()
    };
    let clock = Clock::system();
    let (r, trace) = prepared
        .run_traced(&Sssp::new(landmarks), &opts(10_000), &clock)
        .expect("fits");
    assert!(r.converged);
    assert_eq!(trace.span(Phase::Plan).calls, r.supersteps + 1);
    assert!(trace.span(Phase::Fold).calls > 0, "a road tail folds");
    assert!(trace.total_nanos() > 0);
    let (r, trace) = prepared
        .run_traced(&ConnectedComponents, &opts(10), &clock)
        .expect("fits");
    assert_eq!(trace.span(Phase::Plan).calls, r.supersteps);
    assert_eq!(
        trace.span(Phase::BuildClasses).calls,
        0,
        "built by the first job"
    );
}
