//! Scenario determinism pins: a degraded cluster — heterogeneous speeds,
//! stragglers, clock drift, contention, failures with checkpoint/replay
//! recovery — must stay a *pure function* of `(ScenarioConfig, work)`.
//! Same seed ⇒ bit-identical `SimReport` and vertex states across executor
//! modes and repeated runs; zeroed knobs ⇒ field-for-field the idealized
//! sim; faults change the bill, never the answer; and every failure path
//! is an `Err`, not a panic, leaving the sim resettable.

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

const MODES: [ExecutorMode; 3] = [
    ExecutorMode::Sequential,
    ExecutorMode::Parallel { threads: 4 },
    ExecutorMode::Auto,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every scenario preset replays bit-identically: for any seed, the
    /// preset's `SimReport` *and* vertex states are the same under
    /// Sequential, Parallel{4}, and Auto execution, and under repetition.
    /// Scenario randomness is counter-based, so executor scheduling can
    /// never reorder its draws.
    #[test]
    fn every_preset_is_bit_reproducible_across_modes_and_repeats(
        graph in arb_graph(),
        strategy in arb_strategy(),
        num_parts in 1u32..16,
        seed in 0u64..u64::MAX,
        preset_idx in 0usize..6,
    ) {
        let presets = ScenarioConfig::presets(seed);
        let (name, scenario) = presets[preset_idx];
        let cluster = ClusterConfig::paper_cluster().with_scenario(scenario);
        let pg = strategy.partition(&graph, num_parts);
        let opts = |mode| PregelConfig {
            executor: mode,
            max_iterations: 4,
            ..Default::default()
        };
        let baseline = run_pregel(&PageRank, &pg, &cluster, &opts(MODES[0])).unwrap();
        for mode in MODES {
            for round in 0..2 {
                let r = run_pregel(&PageRank, &pg, &cluster, &opts(mode)).unwrap();
                prop_assert_eq!(
                    &r.states, &baseline.states,
                    "{name}: states, {mode:?} round {round}"
                );
                prop_assert_eq!(
                    &r.sim, &baseline.sim,
                    "{name}: bill, {mode:?} round {round}"
                );
            }
        }
    }

    /// Backward-compat pin: a zeroed `ScenarioConfig` — whatever its seed —
    /// bills field-for-field identically to today's scenario-free cluster.
    /// The seed alone must be inert.
    #[test]
    fn zeroed_scenario_is_field_for_field_legacy(
        graph in arb_graph(),
        strategy in arb_strategy(),
        mode in proptest::sample::select(MODES.to_vec()),
        num_parts in 1u32..16,
        seed in 0u64..u64::MAX,
    ) {
        let zeroed = ScenarioConfig { seed, ..Default::default() };
        prop_assert!(zeroed.is_off());
        let legacy = ClusterConfig::paper_cluster();
        let scenic = ClusterConfig::paper_cluster().with_scenario(zeroed);
        let mut legacy_ws = Workspace::new(graph.clone(), legacy, mode);
        let mut scenic_ws = Workspace::new(graph, scenic, mode);
        for algo in [
            Algorithm::PageRank { iterations: 4 },
            Algorithm::ConnectedComponents { max_iterations: 6 },
            Algorithm::Triangles,
        ] {
            let a = legacy_ws.run_job_isolated(&algo, strategy, num_parts);
            let b = scenic_ws.run_job_isolated(&algo, strategy, num_parts);
            prop_assert_eq!(
                a.result.as_ref().unwrap(), b.result.as_ref().unwrap(), "{}", algo.abbrev()
            );
            prop_assert_eq!(&a.metrics, &b.metrics);
            prop_assert_eq!(a.supersteps, b.supersteps);
        }
    }

    /// Distinct seeds produce distinct fault and straggler schedules (over
    /// a 256-superstep × 8-executor window), while the same seed always
    /// reproduces its own schedule exactly.
    #[test]
    fn distinct_seeds_give_distinct_fault_schedules(seed in 0u64..u64::MAX) {
        let other = seed ^ 0x9E37_79B9_7F4A_7C15;
        let schedule = |s: &ScenarioConfig| -> Vec<bool> {
            (0..256u64)
                .flat_map(|step| (0..8u32).map(move |e| (step, e)))
                .map(|(step, e)| s.fails(step, e))
                .collect()
        };
        let slow = |s: &ScenarioConfig| -> Vec<bool> {
            (0..256u64)
                .flat_map(|step| (0..8u32).map(move |e| (step, e)))
                .map(|(step, e)| s.straggles(step, e))
                .collect()
        };
        let a = ScenarioConfig::faulty(seed);
        prop_assert_eq!(schedule(&a), schedule(&a), "same seed replays itself");
        prop_assert_ne!(
            schedule(&a),
            schedule(&ScenarioConfig::faulty(other)),
            "fault schedules must depend on the seed"
        );
        let s = ScenarioConfig::straggler(seed);
        prop_assert_eq!(slow(&s), slow(&s));
        prop_assert_ne!(
            slow(&s),
            slow(&ScenarioConfig::straggler(other)),
            "straggler schedules must depend on the seed"
        );
    }
}

/// Recovery correctness, exhaustively: inject an executor failure at
/// *every* superstep index of a short PageRank run (first and last
/// executor, with a 2-superstep checkpoint interval) and require the final
/// vertex states to be bit-identical to the failure-free run — recovery
/// may only ever add cost, never change the answer.
#[test]
fn failure_at_every_superstep_preserves_states() {
    let n = 48u64;
    let edges = (0..n)
        .flat_map(|v| [Edge::new(v, (v + 1) % n), Edge::new(v, (v * 7 + 3) % n)])
        .collect();
    let graph = Graph::new(n, edges);
    let pg = GraphXStrategy::RandomVertexCut.partition(&graph, 8);
    let cluster = ClusterConfig::paper_cluster();
    let opts = PregelConfig {
        executor: ExecutorMode::Sequential,
        max_iterations: 5,
        ..Default::default()
    };
    let clean = run_pregel(&PageRank, &pg, &cluster, &opts).unwrap();
    let supersteps = clean.sim.supersteps;
    assert!(supersteps >= 5, "short run still has supersteps to kill");
    for step in 0..supersteps {
        for exec in [0, cluster.executors - 1] {
            let scenario = ScenarioConfig {
                forced_failure: Some((step, exec)),
                checkpoint_interval: 2,
                ..Default::default()
            };
            let faulted = cluster.clone().with_scenario(scenario);
            let r = run_pregel(&PageRank, &pg, &faulted, &opts)
                .unwrap_or_else(|e| panic!("step {step} exec {exec}: {e}"));
            assert_eq!(
                r.states, clean.states,
                "step {step} exec {exec}: states must survive recovery"
            );
            assert_eq!(r.sim.executor_failures, 1, "step {step} exec {exec}");
            // Executor 0 always hosts resident partitions under this cut,
            // so its restore read alone guarantees a nonzero recovery bill
            // even when the failure lands on a checkpoint boundary (empty
            // replay window).
            if exec == 0 {
                assert!(
                    r.sim.recovery_seconds > 0.0,
                    "step {step} exec {exec}: recovery must be billed"
                );
            }
            assert!(
                r.sim.total_seconds > clean.sim.total_seconds,
                "step {step} exec {exec}: recovery + checkpoints only add cost"
            );
            assert_eq!(r.sim.messages, clean.sim.messages, "metered work unchanged");
            assert_eq!(r.sim.remote_bytes, clean.sim.remote_bytes);
        }
    }
}

/// A memory configuration where live data fits but live data plus the
/// recovery restore buffer does not: the replay is an `OutOfMemory` error
/// — never a panic — and the sim resets to a usable fresh state.
#[test]
fn recovery_oom_is_an_error_and_the_sim_stays_resettable() {
    let mut cfg = ClusterConfig::paper_cluster();
    cfg.executor_memory_gb = 1.0;
    cfg.usable_memory_fraction = 1.0;
    cfg.cost.memory_overhead_factor = 1.0;
    cfg.scenario.forced_failure = Some((0, 0));
    let mut sim = ClusterSim::new(cfg, 8);
    sim.set_resident(0, 700_000_000); // fits live; 2× during restore does not
    let err = sim.end_superstep().expect_err("restore buffer must OOM");
    let SimError::OutOfMemory { executor, .. } = err;
    assert_eq!(executor, 0);
    sim.reset();
    assert_eq!(sim.report(), &SimReport::default(), "reset is bit-fresh");
    sim.end_superstep()
        .expect("after reset no resident bytes remain, so the restore fits");
}

/// A scenario failure striking *during* `charge_repartition` (the cut-
/// switch shuffle a serving session bills) surfaces as an error too, and
/// the aborted sim can be reset and recharged.
#[test]
fn repartition_failure_is_an_error_and_recharges_after_reset() {
    let mut cfg = ClusterConfig::paper_cluster();
    cfg.executor_memory_gb = 1.0;
    cfg.usable_memory_fraction = 1.0;
    cfg.cost.memory_overhead_factor = 1.0;
    cfg.scenario.forced_failure = Some((0, 0));
    let mut sim = ClusterSim::new(cfg, 8);
    sim.set_resident(0, 700_000_000);
    let err = sim
        .charge_repartition(1_000_000)
        .expect_err("recovery inside the repartition superstep must OOM");
    let SimError::OutOfMemory { executor, .. } = err;
    assert_eq!(executor, 0);
    assert!(
        sim.report().recovery_seconds > 0.0,
        "the attempted recovery is still billed"
    );
    sim.reset();
    assert_eq!(sim.report(), &SimReport::default());
    let secs = sim
        .charge_repartition(1_000_000)
        .expect("with no resident snapshot the forced failure's restore fits");
    assert!(secs > 0.0);
    assert_eq!(
        sim.report().executor_failures,
        1,
        "the scenario fault still fires after reset — only *state* is scrubbed"
    );
}
