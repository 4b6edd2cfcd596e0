//! Session determinism: serving a job from the workspace cache must be
//! bit-identical — vertex states *and* metered `SimReport` — to the first
//! dispatch of a fresh workspace, across executor modes and partitioners.
//! The cache may only make dispatch cheaper, never change what a job
//! computes or what it is billed.

use cutfit::algorithms::PageRank;
use cutfit::prelude::*;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2u64..100, 0usize..300).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..n), m).prop_map(move |pairs| {
            Graph::new(n, pairs.into_iter().map(|(s, d)| Edge::new(s, d)).collect())
        })
    })
}

fn arb_strategy() -> impl Strategy<Value = GraphXStrategy> {
    proptest::sample::select(vec![
        GraphXStrategy::RandomVertexCut,
        GraphXStrategy::EdgePartition2D,
        GraphXStrategy::DestinationCut,
        GraphXStrategy::CanonicalRandomVertexCut,
        GraphXStrategy::SourceCut,
    ])
}

fn arb_mode() -> impl Strategy<Value = ExecutorMode> {
    proptest::sample::select(vec![
        ExecutorMode::Sequential,
        ExecutorMode::Parallel { threads: 4 },
        ExecutorMode::Auto,
    ])
}

fn cluster() -> ClusterConfig {
    ClusterConfig::paper_cluster()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Workspace-cached dispatch (miss, then hit, on a cut earlier jobs
    /// may have run on) equals the first dispatch of a fresh sequential
    /// workspace in `SimReport`, metrics, and supersteps — for a
    /// fixed-size-state Pregel program (PR), a convergent one (CC), and
    /// the non-Pregel dataflow (TR, canonical orientation).
    #[test]
    fn cached_jobs_bill_identically_to_fresh_runs(
        graph in arb_graph(),
        strategy in arb_strategy(),
        mode in arb_mode(),
        num_parts in 1u32..24,
    ) {
        let mut ws = Workspace::new(graph.clone(), cluster(), mode);
        for algo in [
            Algorithm::PageRank { iterations: 4 },
            Algorithm::ConnectedComponents { max_iterations: 6 },
            Algorithm::Triangles,
        ] {
            let fresh = Workspace::new(graph.clone(), cluster(), ExecutorMode::Sequential)
                .run_job_isolated(&algo, strategy, num_parts);
            let miss = ws.run_job_isolated(&algo, strategy, num_parts);
            let hit = ws.run_job_isolated(&algo, strategy, num_parts);
            prop_assert!(hit.cache_hit, "{}", algo.abbrev());
            for job in [&miss, &hit] {
                prop_assert_eq!(
                    job.result.as_ref().unwrap(), fresh.result.as_ref().unwrap(),
                    "{}: cached bill must equal fresh bill", algo.abbrev()
                );
                prop_assert_eq!(&job.metrics, &fresh.metrics);
                prop_assert_eq!(job.supersteps, fresh.supersteps);
            }
        }
    }

    /// Vertex states through a reused `PreparedRun` over the workspace's
    /// memoized materialization equal a fresh uncached `run_pregel` —
    /// repeatedly, so buffer reuse across dispatches is provably inert.
    #[test]
    fn cached_states_equal_fresh_states(
        graph in arb_graph(),
        strategy in arb_strategy(),
        mode in arb_mode(),
        num_parts in 1u32..24,
    ) {
        let mut ws = Workspace::new(graph, cluster(), mode);
        let pg = ws.materialized(strategy, num_parts);
        let opts = PregelConfig {
            executor: mode,
            max_iterations: 4,
            ..Default::default()
        };
        let fresh = run_pregel(&PageRank, &pg, &cluster(), &opts).unwrap();
        let mut prepared = PreparedRun::new(pg.clone(), &cluster(), mode);
        for round in 0..2 {
            let r = prepared.run(&PageRank, &opts).unwrap();
            prop_assert_eq!(&r.states, &fresh.states, "round {}", round);
            prop_assert_eq!(&r.sim, &fresh.sim, "round {}", round);
        }
    }

    /// Serving-mode dispatch is deterministic: two workspaces fed the same
    /// workload produce identical per-job bills and identical session
    /// charges, and within one workspace a repeat of the active cut's job
    /// re-bills exactly the same simulated time.
    #[test]
    fn serving_dispatch_is_deterministic(
        graph in arb_graph(),
        strategy in arb_strategy(),
        mode in arb_mode(),
        num_parts in 1u32..24,
    ) {
        let jobs = [
            Job::fixed(Algorithm::PageRank { iterations: 3 }, strategy, num_parts),
            Job::fixed(
                Algorithm::ConnectedComponents { max_iterations: 5 },
                strategy,
                num_parts,
            ),
            Job::fixed(Algorithm::PageRank { iterations: 3 }, strategy, num_parts),
        ];
        let mut a = Workspace::new(graph.clone(), cluster(), mode);
        let mut b = Workspace::new(graph, cluster(), mode);
        let ra = a.run_workload(&jobs);
        let rb = b.run_workload(&jobs);
        prop_assert_eq!(ra.jobs.len(), rb.jobs.len());
        for (x, y) in ra.jobs.iter().zip(&rb.jobs) {
            prop_assert_eq!(x.result.as_ref().unwrap(), y.result.as_ref().unwrap());
            prop_assert_eq!(x.provisioning_seconds, y.provisioning_seconds);
            prop_assert_eq!(x.cache_hit, y.cache_hit);
        }
        prop_assert_eq!(a.session_report(), b.session_report());
        // Jobs 0 and 2 are the same job on the same (active) cut: the
        // repeat is a provisioning-free cache hit with an identical bill.
        prop_assert!(ra.jobs[2].cache_hit);
        prop_assert_eq!(ra.jobs[2].provisioning_seconds, 0.0);
        prop_assert_eq!(
            ra.jobs[2].result.as_ref().unwrap(),
            ra.jobs[0].result.as_ref().unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `ClusterSim::reset` scrubs *all* scenario state — pending fault
    /// draws, drifted clocks, the checkpoint ledger and replay window — so
    /// a reset sim bills bit-identically to a freshly constructed one,
    /// including after a mid-recovery `SimError` abort.
    #[test]
    fn reset_scrubs_scenario_state_bit_identically(
        seed in 0u64..u64::MAX,
        drift_mils in 0u64..30,
        fail_pct in 0u64..40,
        ckpt in 0u64..4,
    ) {
        let scenario = ScenarioConfig {
            seed,
            heterogeneity: 0.5,
            clock_drift: drift_mils as f64 / 1000.0,
            failure_prob: fail_pct as f64 / 100.0,
            checkpoint_interval: ckpt,
            ..Default::default()
        };
        let cfg = cluster().with_scenario(scenario);
        // A fixed serving-shaped charge pattern: resident state, remote
        // traffic, edge scans, six supersteps.
        let charge = |sim: &mut ClusterSim| -> Result<f64, SimError> {
            let mut total = 0.0;
            for p in 0..8u32 {
                sim.set_resident(p, 2_000_000 + u64::from(p) * 100_000);
            }
            for _ in 0..6 {
                sim.ledger().send_exec(0, 1, 10, 50_000);
                sim.ledger().send_exec(2, 3, 4, 20_000);
                sim.ledger().edge_scans(0, 1_000);
                total += sim.end_superstep()?;
            }
            Ok(total)
        };
        let mut fresh = ClusterSim::new(cfg.clone(), 8);
        let expected = charge(&mut fresh).unwrap();
        let expected_report = fresh.report().clone();

        let mut reused = ClusterSim::new(cfg.clone(), 8);
        charge(&mut reused).unwrap();
        reused.reset();
        prop_assert_eq!(reused.report(), &SimReport::default());
        let replay = charge(&mut reused).unwrap();
        prop_assert_eq!(replay, expected, "reset sim must re-bill exactly");
        prop_assert_eq!(reused.report(), &expected_report);

        // Mid-recovery abort: a forced failure whose restore buffer blows
        // the heap aborts with `SimError`, and reset still yields a sim
        // bit-identical to fresh under the same (tight) config.
        let mut tight = cfg;
        tight.executor_memory_gb = 1.0;
        tight.usable_memory_fraction = 1.0;
        tight.cost.memory_overhead_factor = 1.0;
        tight.scenario.forced_failure = Some((0, 0));
        let mut aborted = ClusterSim::new(tight.clone(), 8);
        aborted.set_resident(0, 700_000_000);
        prop_assert!(
            aborted.end_superstep().is_err(),
            "restore must overflow the tight heap"
        );
        aborted.reset();
        prop_assert_eq!(aborted.report(), &SimReport::default());
        let mut fresh_tight = ClusterSim::new(tight, 8);
        let a = charge(&mut aborted).unwrap();
        let b = charge(&mut fresh_tight).unwrap();
        prop_assert_eq!(a, b, "post-abort reset must re-bill like fresh");
        prop_assert_eq!(aborted.report(), fresh_tight.report());
    }
}

/// The experiment grid shares one workspace per dataset; every cell must
/// still equal the first dispatch of a fresh workspace on a pooled
/// executor, so neither the shared cuts nor the executor mode move a cell.
#[test]
fn experiment_grid_equals_standalone_runs() {
    let config = ExperimentConfig {
        scale: 0.002,
        seed: 42,
        num_parts: vec![8, 16],
        datasets: vec![DatasetProfile::youtube()],
        partitioners: vec![
            GraphXStrategy::RandomVertexCut,
            GraphXStrategy::EdgePartition2D,
            GraphXStrategy::DestinationCut,
        ],
        cluster: ClusterConfig::paper_cluster(),
        executor: ExecutorMode::Sequential,
        scale_memory: false,
    };
    for algo in [Algorithm::PageRank { iterations: 3 }, Algorithm::Triangles] {
        let result = run_experiment(&algo, &config);
        let graph = DatasetProfile::youtube().generate(config.scale, config.seed);
        for obs in &result.observations {
            let strategy = GraphXStrategy::all()
                .into_iter()
                .find(|s| s.abbrev() == obs.partitioner)
                .unwrap();
            let pooled = ExecutorMode::Parallel { threads: 3 };
            let fresh = Workspace::new(graph.clone(), config.cluster.clone(), pooled)
                .run_job_isolated(&algo, strategy, obs.num_parts);
            assert_eq!(obs.time_s, fresh.time_s(), "{}", obs.partitioner);
            assert!(obs.time_s.is_some(), "{}", obs.partitioner);
            assert_eq!(obs.metrics, fresh.metrics);
            assert_eq!(obs.supersteps, fresh.supersteps);
        }
    }
}

/// What one probe bills when run in full: the probe's own program through
/// `PreparedRun::run`, or Triangle Count's per-call dataflow, on a fresh
/// cut. `None` when it fails.
fn probe_time(probe: &Algorithm, pg: PartitionedGraph, cluster: &ClusterConfig) -> Option<f64> {
    use cutfit::algorithms::triangles::triangle_count_partitioned;
    use cutfit::algorithms::{ConnectedComponents, HitsProgram, Sssp};
    fn run<P: VertexProgram>(
        pg: PartitionedGraph,
        c: &ClusterConfig,
        p: &P,
        cap: u64,
    ) -> Option<f64> {
        let opts = PregelConfig {
            max_iterations: cap,
            charge_initial_load: false,
            ..Default::default()
        };
        let mut prepared = PreparedRun::new(std::sync::Arc::new(pg), c, ExecutorMode::Sequential);
        prepared.run(p, &opts).ok().map(|r| r.sim.total_seconds)
    }
    match *probe {
        Algorithm::PageRank { iterations } => run(pg, cluster, &PageRank, iterations),
        Algorithm::Hits { iterations } => run(pg, cluster, &HitsProgram, iterations),
        Algorithm::ConnectedComponents { max_iterations } => {
            run(pg, cluster, &ConnectedComponents, max_iterations)
        }
        Algorithm::Sssp {
            num_landmarks,
            seed,
            max_iterations,
        } => {
            let landmarks = Sssp::pick_landmarks(pg.num_vertices(), num_landmarks, seed);
            run(pg, cluster, &Sssp::new(landmarks), max_iterations)
        }
        Algorithm::Triangles => triangle_count_partitioned(&pg, cluster, false)
            .ok()
            .map(|r| r.sim.total_seconds),
        _ => unreachable!("not probed here"),
    }
}

/// The session's probed advice, refereed by probes run in full: every
/// candidate cut partitioned afresh, every probe through the engine (TR
/// through its per-call dataflow). The session must pick the same cuts,
/// bill the same advice bit for bit, and count one cache miss per distinct
/// cut and a hit for every other lookup.
#[test]
fn probed_advice_equals_probes_run_in_full() {
    let cluster = ClusterConfig::paper_cluster();
    let graphs = [
        cutfit::datagen::rmat(&cutfit::datagen::RmatConfig::default(), 9),
        DatasetProfile::youtube().generate(0.002, 42),
    ];
    let algorithms = [
        Algorithm::PageRank { iterations: 10 },
        Algorithm::Hits { iterations: 10 },
        Algorithm::ConnectedComponents { max_iterations: 10 },
        Algorithm::Triangles,
        Algorithm::paper_suite(7).remove(3),
    ];
    for graph in graphs {
        let canon = cutfit::algorithms::triangles::canonicalize(&graph);
        let mut ws = Workspace::new(graph.clone(), cluster.clone(), ExecutorMode::Sequential)
            .with_advice_mode(AdviceMode::Probed);
        let (mut advice, mut seen, mut hits) = (0.0, std::collections::BTreeSet::new(), 0);
        for num_parts in [8, 16] {
            for algorithm in &algorithms {
                let key = ws.resolve(algorithm, &CutChoice::AdvisedAt { num_parts });
                let target = if algorithm.needs_canonical() {
                    &canon
                } else {
                    &graph
                };
                let mut best: Option<(GraphXStrategy, f64)> = None;
                for strategy in GraphXStrategy::all() {
                    let pg = strategy.partition(target, num_parts);
                    let time = probe_time(&algorithm.probe(), pg, &cluster);
                    if let Some(t) = time {
                        advice += t;
                        if best.map_or(true, |(_, b)| t < b) {
                            best = Some((strategy, t));
                        }
                    }
                    if !seen.insert((strategy, num_parts, algorithm.needs_canonical())) {
                        hits += 1;
                    }
                }
                let expected = best.map_or(GraphXStrategy::all()[0], |(s, _)| s);
                let what = format!("{} at {num_parts} parts", algorithm.abbrev());
                assert_eq!(key.strategy, expected, "{what}");
                assert_eq!(
                    ws.advice_seconds(),
                    advice,
                    "{what}: the advice bill drifted"
                );
                let stats = CacheStats {
                    cache_hits: hits,
                    cache_misses: seen.len() as u64,
                    cut_switches: 0,
                };
                assert_eq!(ws.stats(), stats, "{what}");
            }
        }
    }
}
