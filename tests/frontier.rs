//! Referees for the sparse superstep where it can go wrong.
//!
//! The oracle grid (`tests/oracle_grid.rs`) pins every algorithm's states
//! and bill equal across executors, superstep shapes and shard orders on
//! tiny graphs. This file pins the same promise for four programs on
//! larger cuts and on arbitrary graphs, and adds what the library's
//! programs cannot show: a program for every (active direction, answer)
//! pair whose bits show merge order and whose bill shows grouping, a hub
//! whose partials merge inside and across partitions, jobs that die
//! mid-superstep, and the frontier telemetry and phase trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cutfit::algorithms::{label_propagation, Sssp};
use cutfit::engine::pregel::{with_scan_mode, ScanMode};
use cutfit::engine::{ActiveDirection, InitCtx, Phase, PregelResult, RunTrace};
use cutfit::prelude::*;
use cutfit::util::clock::Clock;

const SCAN_MODES: [ScanMode; 3] = [ScanMode::Dense, ScanMode::Sparse, ScanMode::Auto];

const EXECUTORS: [ExecutorMode; 6] = [
    ExecutorMode::Sequential,
    // Pool entry with one shard covering every partition.
    ExecutorMode::Parallel { threads: 1 },
    ExecutorMode::Parallel { threads: 2 },
    // Uneven shards (16 partitions → 6/6/4): sparse touched lists
    // straddle shard boundaries.
    ExecutorMode::Parallel { threads: 3 },
    ExecutorMode::Parallel { threads: 4 },
    ExecutorMode::Auto,
];

/// Runs `run` under `executor` with the superstep shape forced.
fn shaped<R>(
    scan_mode: ScanMode,
    executor: ExecutorMode,
    run: impl FnOnce(&PregelConfig) -> R,
) -> R {
    let opts = PregelConfig {
        executor,
        ..Default::default()
    };
    with_scan_mode(scan_mode, || run(&opts))
}

/// Runs one algorithm over the whole scan-shape × executor grid and asserts
/// every cell is bit-identical to the Dense/Sequential baseline in states,
/// metered report, and superstep count.
fn assert_grid_identical<S, F>(name: &str, run: F)
where
    S: PartialEq + std::fmt::Debug,
    F: Fn(&PregelConfig) -> PregelResult<S>,
{
    let baseline = shaped(ScanMode::Dense, ExecutorMode::Sequential, &run);
    for scan_mode in SCAN_MODES {
        for executor in EXECUTORS {
            let r = shaped(scan_mode, executor, &run);
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
    for scan_mode in SCAN_MODES {
        let landmarks = Sssp::pick_landmarks(g.num_vertices(), 1, 7);
        let r2 = with_scan_mode(scan_mode, || {
            sssp(&pg, &cluster, landmarks, 10_000, &PregelConfig::default())
        })
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
        /// equivalence property, with the forced sparse shape pinning the
        /// sparse machinery even where the automatic choice would be dense.
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
            let run = |o: &PregelConfig| sssp(&pg, &cluster, landmarks.clone(), 100_000, o);
            let dense = shaped(ScanMode::Dense, ExecutorMode::Sequential, run).expect("fits");
            for scan_mode in [ScanMode::Sparse, ScanMode::Auto] {
                for executor in [ExecutorMode::Sequential, ExecutorMode::Parallel { threads: 3 }] {
                    let r = shaped(scan_mode, executor, run).expect("fits");
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
            let run = |o: &PregelConfig| connected_components(&pg, &cluster, 100_000, o);
            let dense = shaped(ScanMode::Dense, ExecutorMode::Sequential, run).expect("fits");
            for scan_mode in [ScanMode::Sparse, ScanMode::Auto] {
                let r = shaped(scan_mode, ExecutorMode::Parallel { threads: 2 }, run)
                    .expect("fits");
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

/// Which endpoints a [`Seep`] edge answers.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Answer {
    None,
    ToSrc,
    ToDst,
    Both,
}

/// Min-label propagation carrying an `f64` mass: the label settles the way
/// connected components does, so frontiers shrink to a wavefront, while the
/// masses of a receiver's messages are *summed* — their merge order shows in
/// the bits — and a message's billed size is read off the summed mass, so
/// how messages were grouped into partials shows in the bill. State row:
/// `[label, mass]`, a two-cell row of the flat column.
struct Seep {
    direction: ActiveDirection,
    answer: Answer,
}

impl Seep {
    /// `from`'s label and a share of its mass, irregular in the edge and
    /// different for the two endpoints of a self-loop.
    fn offer(from: &[f64], share: f64, src: VertexId, dst: VertexId) -> (f64, f64) {
        (
            from[0],
            from[1] * share + share / (3 + 7 * src + 13 * dst) as f64,
        )
    }
}

impl VertexProgram for Seep {
    type State = [f64];
    type Msg = (f64, f64);

    fn name(&self) -> &'static str {
        "seep"
    }

    fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> Vec<f64> {
        vec![v as f64, 1.0 + (v % 7) as f64 / 7.0]
    }

    fn initial_msg(&self) -> (f64, f64) {
        (f64::INFINITY, 0.0)
    }

    fn apply(&self, _v: VertexId, state: &mut [f64], msg: &(f64, f64)) {
        state[0] = state[0].min(msg.0);
        state[1] = state[1] * 0.5 + msg.1;
    }

    fn send(&self, t: &Triplet<'_, [f64]>) -> Messages<(f64, f64)> {
        let (s, d) = (t.src_state, t.dst_state);
        let down = || Self::offer(s, 0.1, t.src, t.dst);
        let up = || Self::offer(d, 0.15, t.src, t.dst);
        match self.answer {
            Answer::ToDst if s[0] < d[0] => Messages::ToDst(down()),
            Answer::ToSrc if d[0] < s[0] => Messages::ToSrc(up()),
            // Both ways while the labels differ; a self-loop answers itself
            // twice — two messages for one slot — until its mass has decayed.
            Answer::Both if s[0] != d[0] || (t.src == t.dst && s[1] > 0.05) => {
                Messages::Both(up(), down())
            }
            _ => Messages::None,
        }
    }

    fn merge(&self, a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
        (a.0.min(b.0), a.1 + b.1)
    }

    fn msg_bytes(&self, msg: &(f64, f64)) -> u64 {
        16 + msg.1.to_bits() % 7
    }

    fn active_direction(&self) -> ActiveDirection {
        self.direction
    }
}

/// A dense core with duplicate edges and self-loops, a two-way chain of
/// `hops` vertices hanging off it (the wavefront that keeps frontiers small
/// for as many supersteps), and five isolated vertices.
fn knotted(hops: u64) -> Graph {
    let core = cutfit::datagen::rmat(
        &cutfit::datagen::RmatConfig {
            scale: 5,
            edges: 160,
            ..Default::default()
        },
        11,
    );
    let mut edges = core.edges().to_vec();
    edges.extend([3, 3, 9, 17].map(|v| Edge::new(v, v)));
    edges.extend_from_slice(&core.edges()[..12]);
    let tail = 32..32 + hops;
    edges.push(Edge::new(31, tail.start));
    edges.push(Edge::new(tail.start, 31));
    for v in tail.start..tail.end - 1 {
        edges.extend([
            Edge::new(v, v + 1),
            Edge::new(v + 1, v),
            Edge::new(v, v + 1),
        ]);
    }
    edges.push(Edge::new(50, 50));
    Graph::new(tail.end + 5, edges)
}

/// Every edge answers both ways, every superstep: each vertex halves its
/// value and adds what its neighbours sent. Not `always_active`, so the
/// frontier protocol runs — with every vertex in the frontier.
struct Echo;

impl VertexProgram for Echo {
    type State = f64;
    type Msg = f64;

    fn name(&self) -> &'static str {
        "echo"
    }

    fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> f64 {
        1.0 / (1 + v) as f64
    }

    fn initial_msg(&self) -> f64 {
        0.0
    }

    fn apply(&self, _v: VertexId, state: &mut f64, msg: &f64) {
        *state = *state * 0.5 + msg;
    }

    fn send(&self, t: &Triplet<'_, f64>) -> Messages<f64> {
        let weight = 1.0 / (3 + 7 * t.src + 13 * t.dst) as f64;
        Messages::Both(t.dst_state * weight, t.src_state * weight * 0.7)
    }

    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn msg_bytes(&self, msg: &f64) -> u64 {
        8 + msg.to_bits() % 5
    }
}

/// Vertex 0 hears from 24 neighbours over 40 edges (every fifth twice, a
/// few both ways) and from itself over two self-loops; the neighbours form
/// a ring, so no vertex is quiet.
fn hub() -> Graph {
    let mut edges = vec![Edge::new(0, 0)];
    for v in 1..=24 {
        edges.push(Edge::new(v, 0));
        if v % 5 == 0 {
            edges.push(Edge::new(v, 0));
        }
        if v % 4 == 0 {
            edges.push(Edge::new(0, v));
        }
        edges.push(Edge::new(v, v % 24 + 1));
    }
    edges.push(Edge::new(0, 0));
    Graph::new(25, edges)
}

/// Runs `program` on every GraphX cut of `g` under `Sequential` and
/// `Parallel{2,3}` × all three scan modes and asserts states, superstep
/// count and the whole [`SimReport`] equal the sequential dense run's.
/// Returns how many `Auto` cells folded at least one superstep.
fn assert_fold_equals_dense<P>(program: &P, g: &Graph, max_iterations: u64, what: &str) -> u32
where
    P: VertexProgram,
    PregelResult<cutfit::engine::OwnedState<P>>: std::fmt::Debug,
    cutfit::engine::OwnedState<P>: PartialEq + std::fmt::Debug,
{
    let cluster = ClusterConfig::paper_cluster();
    let opts = |executor| PregelConfig {
        executor,
        max_iterations,
        ..Default::default()
    };
    let mut folded_under_auto = 0;
    for strategy in GraphXStrategy::all() {
        let pg = Arc::new(strategy.partition(g, 7));
        let dense = with_scan_mode(ScanMode::Dense, || {
            run_pregel(program, &pg, &cluster, &opts(ExecutorMode::Sequential))
        })
        .expect("fits");
        for executor in [
            ExecutorMode::Sequential,
            ExecutorMode::Parallel { threads: 2 },
            ExecutorMode::Parallel { threads: 3 },
        ] {
            for scan_mode in SCAN_MODES {
                let mut prepared = PreparedRun::new(pg.clone(), &cluster, executor);
                let (r, trace) = with_scan_mode(scan_mode, || {
                    prepared.run_traced(program, &opts(executor), &Clock::Null)
                })
                .expect("fits");
                let what = format!("{what} {strategy} {executor:?} {scan_mode:?}");
                assert_eq!(r.states, dense.states, "{what}");
                assert_eq!(r.supersteps, dense.supersteps, "{what}");
                assert_eq!(r.sim, dense.sim, "{what}: the bill drifted");
                let (plans, folds) = (trace.span(Phase::Plan).calls, trace.span(Phase::Fold).calls);
                match scan_mode {
                    ScanMode::Dense => assert_eq!(folds, 0, "{what}"),
                    // Only the first superstep (all-active by protocol) is
                    // dense.
                    ScanMode::Sparse => assert_eq!(folds, plans - 1, "{what}"),
                    ScanMode::Auto => folded_under_auto += (folds > 0) as u32,
                }
            }
        }
    }
    folded_under_auto
}

#[test]
fn fold_is_bit_identical_to_shuffle_and_apply_across_the_grid() {
    let g = knotted(20);
    let mut folded_under_auto = 0;
    for direction in [
        ActiveDirection::Either,
        ActiveDirection::Out,
        ActiveDirection::In,
        ActiveDirection::Both,
    ] {
        for answer in [Answer::None, Answer::ToSrc, Answer::ToDst, Answer::Both] {
            // Thirty supersteps see the chain's wavefront out; a vertex
            // with two self-loops answers itself for ever.
            let what = format!("{direction:?} {answer:?}");
            folded_under_auto +=
                assert_fold_equals_dense(&Seep { direction, answer }, &g, 30, &what);
        }
    }
    // The grid is only a referee for `Auto` if `Auto` folds: the chain's
    // wavefront must have taken a good share of the cells sparse.
    assert!(folded_under_auto >= 100, "{folded_under_auto} of 288 cells");
}

#[test]
fn a_hub_hearing_from_many_partitions_folds_to_the_dense_bits_and_bill() {
    let g = hub();
    // The case the fold's two-level merge exists for: vertex 0's messages
    // arrive from at least three partitions, several of them from one — so
    // partials are merged both inside and across partitions. Every cut but
    // the one keyed on the destination spreads them so.
    for strategy in GraphXStrategy::all() {
        let assignment = strategy.assign_edges(&g, 7);
        let mut per_part = [0u32; 7];
        for (e, &p) in g.edges().iter().zip(&assignment) {
            per_part[p as usize] += (e.dst == 0) as u32;
        }
        let holding = per_part.iter().filter(|&&n| n > 0).count();
        let most = per_part.iter().max().copied().unwrap_or(0);
        assert!(
            (holding >= 3 && most >= 2) || strategy == GraphXStrategy::DestinationCut,
            "{strategy}: {per_part:?}"
        );
    }
    assert_fold_equals_dense(&Echo, &g, 6, "echo");
}

/// Where a [`Snag`] panics.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Site {
    Send,
    Merge,
    Apply,
}

/// [`Seep`] answering both ways, panicking at the `fuse`-th call of `site`.
struct Snag {
    site: Site,
    fuse: AtomicU64,
}

const SEEP: Seep = Seep {
    direction: ActiveDirection::Either,
    answer: Answer::Both,
};

impl Snag {
    fn new(site: Site, fuse: u64) -> Self {
        Self {
            site,
            fuse: AtomicU64::new(fuse),
        }
    }

    fn burn(&self, site: Site) {
        if site == self.site {
            assert_ne!(self.fuse.fetch_sub(1, Ordering::Relaxed), 1, "program bug");
        }
    }

    /// Calls of `site` so far, for a snag made with an endless fuse.
    fn burnt(&self) -> u64 {
        u64::MAX - self.fuse.load(Ordering::Relaxed)
    }
}

impl VertexProgram for Snag {
    type State = [f64];
    type Msg = (f64, f64);

    fn name(&self) -> &'static str {
        "snag"
    }

    fn initial_state(&self, v: VertexId, ctx: &InitCtx<'_>) -> Vec<f64> {
        SEEP.initial_state(v, ctx)
    }

    fn initial_msg(&self) -> (f64, f64) {
        SEEP.initial_msg()
    }

    fn apply(&self, v: VertexId, state: &mut [f64], msg: &(f64, f64)) {
        self.burn(Site::Apply);
        SEEP.apply(v, state, msg)
    }

    fn send(&self, t: &Triplet<'_, [f64]>) -> Messages<(f64, f64)> {
        self.burn(Site::Send);
        SEEP.send(t)
    }

    fn merge(&self, a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
        self.burn(Site::Merge);
        SEEP.merge(a, b)
    }

    fn msg_bytes(&self, msg: &(f64, f64)) -> u64 {
        SEEP.msg_bytes(msg)
    }
}

#[test]
fn a_job_that_dies_mid_superstep_leaves_nothing_to_the_next_one() {
    let pg = Arc::new(GraphXStrategy::EdgePartition2D.partition(&knotted(40), 7));
    // Long enough a chain that retained lineage exhausts executor memory
    // before the wavefront reaches its end.
    let long = Arc::new(GraphXStrategy::EdgePartition2D.partition(&knotted(160), 7));
    let cluster = ClusterConfig::paper_cluster();
    // Every superstep after the first folds.
    with_scan_mode(ScanMode::Sparse, || {
        for executor in [
            ExecutorMode::Sequential,
            ExecutorMode::Parallel { threads: 2 },
            ExecutorMode::Parallel { threads: 3 },
        ] {
            let opts = PregelConfig {
                executor,
                ..Default::default()
            };
            let fresh = run_pregel(&SEEP, &pg, &cluster, &opts).expect("fits");

            // A panic out of the program halfway through the sparse
            // supersteps: out of `send` mid-emit, out of `merge` and `apply`
            // mid-fold — with records half drained, bits half set and meters
            // half filled.
            for site in [Site::Send, Site::Merge, Site::Apply] {
                let calls = |max_iterations| {
                    let counting = Snag::new(site, u64::MAX);
                    let capped = PregelConfig {
                        max_iterations,
                        ..opts.clone()
                    };
                    run_pregel(&counting, &pg, &cluster, &capped).expect("fits");
                    counting.burnt()
                };
                // One superstep in, the job has done its only dense superstep.
                let (dense, all) = (calls(1), calls(opts.max_iterations));
                assert!(
                    all > dense + 1,
                    "{site:?}: {dense} of {all} calls are dense"
                );
                let mut prepared = PreparedRun::new(pg.clone(), &cluster, executor);
                let snag = Snag::new(site, dense + (all - dense) / 2);
                let doomed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    prepared.run(&snag, &opts).map(|r| r.supersteps)
                }));
                assert!(doomed.is_err(), "{executor:?} {site:?}: must have panicked");
                let after = prepared.run(&SEEP, &opts).expect("fits");
                assert_eq!(after.states, fresh.states, "{executor:?} {site:?}");
                assert_eq!(after.sim, fresh.sim, "{executor:?} {site:?}: stale state");
            }

            // Out of memory at the end of a superstep that was folded.
            let mut prepared = PreparedRun::new(long.clone(), &cluster, executor);
            let to_the_end = PregelConfig {
                max_iterations: 1000,
                ..opts.clone()
            };
            let doomed = prepared.run(&SEEP, &to_the_end).map(|r| r.supersteps);
            let Err(SimError::OutOfMemory { superstep, .. }) = doomed else {
                panic!("{executor:?}: ran {doomed:?} supersteps within memory");
            };
            assert!(superstep > 100, "lineage, not the graph, fills memory");
            let capped = PregelConfig {
                max_iterations: 50,
                ..opts.clone()
            };
            let after = prepared.run(&SEEP, &capped).expect("fifty supersteps fit");
            let fresh = run_pregel(&SEEP, &long, &cluster, &capped).expect("fifty supersteps fit");
            assert_eq!(after.states, fresh.states, "{executor:?}");
            assert_eq!(after.sim, fresh.sim, "{executor:?}: the aborted job leaked");
        }
    });
}

/// The span of `phase` under a clock that steps `step` per read: two reads
/// per execution, one step between them.
fn stepped(trace: &RunTrace, phase: Phase, step: u64) -> u64 {
    let span = trace.span(phase);
    assert_eq!(span.nanos, span.calls * step, "{phase:?}");
    span.calls
}

#[test]
fn a_simulated_clock_traces_exactly_the_superstep_counts() {
    const STEP: u64 = 1_000;
    // Labels seep down the chain and settle: a converging job with a long
    // thin tail.
    let program = Seep {
        direction: ActiveDirection::Either,
        answer: Answer::ToDst,
    };
    let pg = Arc::new(GraphXStrategy::EdgePartition2D.partition(&knotted(40), 7));
    let cluster = ClusterConfig::paper_cluster();
    for scan_mode in SCAN_MODES {
        let opts = PregelConfig::default();
        let untraced =
            with_scan_mode(scan_mode, || run_pregel(&program, &pg, &cluster, &opts)).expect("fits");
        assert!(untraced.converged);
        // One loop iteration per superstep, and the empty one that proves
        // convergence.
        let iterations = untraced.supersteps + 1;
        let mut prepared = PreparedRun::new(pg.clone(), &cluster, ExecutorMode::Sequential);
        for job in 0..3 {
            // Three-superstep probes first, as an advisor sends them.
            let opts = PregelConfig {
                max_iterations: if job < 2 { 3 } else { opts.max_iterations },
                ..opts.clone()
            };
            let clock = Clock::simulated(STEP);
            let (r, trace) =
                with_scan_mode(scan_mode, || prepared.run_traced(&program, &opts, &clock))
                    .expect("fits");
            let calls = |phase| stepped(&trace, phase, STEP);
            let total: u64 = Phase::ALL.iter().map(|&phase| calls(phase)).sum();
            assert_eq!(trace.total_nanos(), total * STEP);
            let folds = calls(Phase::Fold);
            assert_eq!((calls(Phase::Emit), calls(Phase::Sort)), (folds, folds));
            // The handle's first job builds the class table; its first
            // sparse superstep the incidence index, which a probe is too
            // short to ask for unless sparse is forced.
            assert_eq!(calls(Phase::BuildClasses), (job == 0) as u64);
            let builds = calls(Phase::BuildIncidence);
            if job < 2 {
                assert_eq!((r.supersteps, r.converged), (3, false));
                assert_eq!((calls(Phase::Plan), calls(Phase::Sim)), (3, 3));
                let forced = scan_mode == ScanMode::Sparse;
                assert_eq!(folds, 2 * forced as u64, "{scan_mode:?}");
                assert_eq!(builds, (forced && job == 0) as u64, "{scan_mode:?}");
                continue;
            }
            assert_eq!(r.states, untraced.states, "{scan_mode:?}");
            assert_eq!(r.sim, untraced.sim, "{scan_mode:?}: tracing is billed");
            assert_eq!(calls(Phase::Plan), iterations);
            assert_eq!(calls(Phase::Sim), iterations);
            assert_eq!(calls(Phase::DenseScan), iterations - folds);
            assert_eq!(calls(Phase::Shuffle), iterations - folds);
            // The last iteration moves no message and so applies none; it
            // is a dense one only when every superstep is.
            let dense_end = (folds == 0) as u64;
            assert_eq!(calls(Phase::Apply), iterations - folds - dense_end);
            match scan_mode {
                ScanMode::Dense => assert_eq!((folds, builds), (0, 0)),
                ScanMode::Sparse => assert_eq!((folds, builds), (iterations - 1, 0)),
                // The chain's tail quiets one vertex a superstep: the last
                // few frontiers are small enough to walk.
                ScanMode::Auto => assert!(folds > 0 && builds == 1, "{folds} {builds}"),
            }
        }
    }
}
