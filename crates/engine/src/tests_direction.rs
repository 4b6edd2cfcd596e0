//! Tests for `ActiveDirection` semantics and activity bookkeeping: the
//! engine must scan exactly the edges GraphX would scan, because metered
//! scan counts feed the cost model — whichever walk scans them.

use std::sync::Arc;

use cutfit_cluster::{ClusterConfig, SimError};
use cutfit_graph::{Edge, Graph, VertexId};
use cutfit_partition::{GraphXStrategy, Partitioner};

use crate::pregel::{run_pregel, ExecutorMode, PregelConfig, PreparedRun, ScanMode};
use crate::program::{ActiveDirection, InitCtx, Messages, Triplet, VertexProgram};

/// A program that counts, via the sim report, how many edges get scanned:
/// only vertex 0 is ever active after the first round (it keeps sending to
/// itself), everything else goes quiet immediately.
struct OnlyZeroActive {
    direction: ActiveDirection,
}

impl VertexProgram for OnlyZeroActive {
    type State = u64;
    type Msg = u64;

    fn name(&self) -> &'static str {
        "only-zero-active"
    }

    fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> u64 {
        v
    }

    fn initial_msg(&self) -> u64 {
        0
    }

    fn apply(&self, _v: VertexId, state: &mut u64, msg: &u64) {
        *state = state.wrapping_add(*msg);
    }

    fn send(&self, t: &Triplet<'_, u64>) -> Messages<u64> {
        // Keep vertex 0 perpetually active; nothing else receives messages.
        if t.src == 0 {
            Messages::ToSrc(1)
        } else {
            Messages::None
        }
    }

    fn merge(&self, a: u64, b: u64) -> u64 {
        a + b
    }

    fn active_direction(&self) -> ActiveDirection {
        self.direction
    }
}

/// Fan graph: 0 -> 1..=3 plus 4 -> 0 plus a detached edge 5 -> 6.
fn fan() -> Graph {
    Graph::new(
        7,
        vec![
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(0, 3),
            Edge::new(4, 0),
            Edge::new(5, 6),
        ],
    )
}

fn run(direction: ActiveDirection, iterations: u64) -> cutfit_cluster::SimReport {
    let pg = GraphXStrategy::SourceCut.partition(&fan(), 2);
    let r = run_pregel(
        &OnlyZeroActive { direction },
        &pg,
        &ClusterConfig::paper_cluster(),
        &PregelConfig {
            max_iterations: iterations,
            charge_initial_load: false,
            ..Default::default()
        },
    )
    .expect("small graph fits");
    r.sim
}

#[test]
fn out_direction_scans_only_active_sources_after_warmup() {
    // Round 1 scans everything (all active). Rounds 2+ scan only 0's
    // out-edges (3 of them) under Out.
    let two = run(ActiveDirection::Out, 2);
    let three = run(ActiveDirection::Out, 3);
    // Exactly 3 more edge scans per extra round, observable through message
    // counts: each extra round ships exactly 1 message (the 0 -> 0 self
    // message aggregated from 3 scans) plus 1 broadcastless apply.
    assert_eq!(three.supersteps, two.supersteps + 1);
    assert!(three.messages > two.messages);
}

#[test]
fn in_direction_scans_edges_with_active_destination() {
    // After warmup only vertex 0 is active; under In, the scanned edge set
    // is {4 -> 0}, whose send produces nothing (src != 0 branch sends only
    // for src == 0 ... which is not scanned) — so the computation converges.
    let pg = GraphXStrategy::SourceCut.partition(&fan(), 2);
    let r = run_pregel(
        &OnlyZeroActive {
            direction: ActiveDirection::In,
        },
        &pg,
        &ClusterConfig::paper_cluster(),
        &PregelConfig {
            max_iterations: 50,
            charge_initial_load: false,
            ..Default::default()
        },
    )
    .expect("fits");
    assert!(r.converged, "In-direction starves the self-loop driver");
    assert!(r.supersteps < 5);
}

#[test]
fn both_direction_requires_both_endpoints_active() {
    let pg = GraphXStrategy::SourceCut.partition(&fan(), 2);
    let r = run_pregel(
        &OnlyZeroActive {
            direction: ActiveDirection::Both,
        },
        &pg,
        &ClusterConfig::paper_cluster(),
        &PregelConfig {
            max_iterations: 50,
            charge_initial_load: false,
            ..Default::default()
        },
    )
    .expect("fits");
    // After round 1 only vertex 0 stays active; its out-edges have inactive
    // destinations, so nothing is scanned and the run converges.
    assert!(r.converged);
    assert!(r.supersteps <= 2);
}

#[test]
fn either_direction_keeps_the_driver_alive() {
    let r = run(ActiveDirection::Either, 10);
    // The self-driving vertex keeps producing messages forever.
    assert_eq!(r.supersteps, 10 + 1, "setup + 10 message rounds");
}

/// always_active forces full scans even when no messages arrive anywhere.
struct Sterile;

impl VertexProgram for Sterile {
    type State = u32;
    type Msg = u32;

    fn name(&self) -> &'static str {
        "sterile"
    }

    fn initial_state(&self, _v: VertexId, _ctx: &InitCtx<'_>) -> u32 {
        0
    }

    fn initial_msg(&self) -> u32 {
        0
    }

    fn apply(&self, _v: VertexId, _state: &mut u32, _msg: &u32) {}

    fn send(&self, _t: &Triplet<'_, u32>) -> Messages<u32> {
        Messages::None
    }

    fn merge(&self, a: u32, _b: u32) -> u32 {
        a
    }

    fn always_active(&self) -> bool {
        true
    }
}

#[test]
fn sterile_program_still_converges_on_zero_messages() {
    // Even with always_active, a program that sends nothing terminates: the
    // zero-message check fires before activity is refreshed.
    let pg = GraphXStrategy::RandomVertexCut.partition(&fan(), 2);
    let r = run_pregel(
        &Sterile,
        &pg,
        &ClusterConfig::paper_cluster(),
        &PregelConfig {
            max_iterations: 50,
            ..Default::default()
        },
    )
    .expect("fits");
    assert!(r.converged);
    assert_eq!(r.supersteps, 0);
}

#[test]
fn initial_broadcast_is_metered() {
    // Setup must bill one shipment per non-master replica: a star under DC
    // replicates the hub into every partition.
    let star = Graph::new(9, (1..9).map(|v| Edge::new(0, v)).collect());
    let pg = GraphXStrategy::DestinationCut.partition(&star, 4);
    let r = run_pregel(
        &Sterile,
        &pg,
        &ClusterConfig::paper_cluster(),
        &PregelConfig {
            max_iterations: 1,
            charge_initial_load: false,
            ..Default::default()
        },
    )
    .expect("fits");
    // Hub is in 4 partitions -> 3 mirror shipments; leaves are single-copy.
    assert_eq!(r.sim.messages, 3);
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
/// masses of a slot's messages are *summed* — their merge order shows in
/// the bits. State row: `[label, mass]`, a two-cell row of the flat column.
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

    fn active_direction(&self) -> ActiveDirection {
        self.direction
    }
}

/// A dense core with duplicate edges and self-loops, a two-way chain of
/// `hops` vertices hanging off it (the wavefront that keeps frontiers small
/// for as many supersteps), and five isolated vertices.
fn knotted(hops: u64) -> Graph {
    let core = cutfit_datagen::rmat(
        &cutfit_datagen::RmatConfig {
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

#[test]
fn frontier_walk_is_bit_identical_to_the_dense_walk_across_the_grid() {
    let g = knotted(20);
    let cluster = ClusterConfig::paper_cluster();
    let executors = [
        ExecutorMode::Sequential,
        ExecutorMode::Parallel { threads: 2 },
        ExecutorMode::Parallel { threads: 3 },
    ];
    let mut walked_under_auto = 0;
    for strategy in GraphXStrategy::all() {
        let pg = Arc::new(strategy.partition(&g, 7));
        for direction in [
            ActiveDirection::Either,
            ActiveDirection::Out,
            ActiveDirection::In,
            ActiveDirection::Both,
        ] {
            for answer in [Answer::None, Answer::ToSrc, Answer::ToDst, Answer::Both] {
                let program = Seep { direction, answer };
                // Thirty supersteps see the chain's wavefront out; a vertex
                // with two self-loops answers itself for ever.
                let opts = |scan_mode, executor| PregelConfig {
                    scan_mode,
                    executor,
                    max_iterations: 30,
                    ..Default::default()
                };
                let dense = run_pregel(
                    &program,
                    &pg,
                    &cluster,
                    &opts(ScanMode::Dense, ExecutorMode::Sequential),
                )
                .expect("fits");
                for executor in executors {
                    for scan_mode in [ScanMode::Auto, ScanMode::Dense, ScanMode::Sparse] {
                        let mut prepared = PreparedRun::new(pg.clone(), &cluster, executor);
                        let r = prepared
                            .run(&program, &opts(scan_mode, executor))
                            .expect("fits");
                        let what = format!(
                            "{strategy} {direction:?} {answer:?} {executor:?} {scan_mode:?}"
                        );
                        assert_eq!(r.states, dense.states, "{what}");
                        assert_eq!(r.supersteps, dense.supersteps, "{what}");
                        assert_eq!(r.sim, dense.sim, "{what}: the bill drifted");
                        match scan_mode {
                            ScanMode::Dense => assert!(!prepared.has_walked(), "{what}"),
                            ScanMode::Sparse => {
                                assert_eq!(prepared.has_walked(), r.supersteps > 0, "{what}")
                            }
                            ScanMode::Auto => walked_under_auto += prepared.has_walked() as u32,
                        }
                    }
                }
            }
        }
    }
    // The grid is only a referee for `Auto` if `Auto` walks: the chain's
    // wavefront must have taken a good share of the cells sparse.
    assert!(walked_under_auto >= 100, "{walked_under_auto} of 288 cells");
}

#[test]
fn three_superstep_probes_never_build_the_incidence_index() {
    let pg = Arc::new(GraphXStrategy::EdgePartition2D.partition(&knotted(40), 7));
    let cluster = ClusterConfig::paper_cluster();
    let program = Seep {
        direction: ActiveDirection::Either,
        answer: Answer::ToDst,
    };
    let mut prepared = PreparedRun::new(pg, &cluster, ExecutorMode::Sequential);
    let probe = PregelConfig {
        max_iterations: 3,
        ..Default::default()
    };
    for _ in 0..4 {
        prepared.run(&program, &probe).expect("fits");
        assert!(
            !prepared.has_walked(),
            "the count starts over with each run"
        );
    }
    prepared
        .run(&program, &PregelConfig::default())
        .expect("fits");
    assert!(prepared.has_walked(), "a long tail builds it");
}

/// [`Seep`] whose `send` panics once a label has travelled `after` hops
/// down the chain — mid-emission of a frontier walk, with records pushed
/// and edges counted.
struct Snag {
    after: f64,
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
        SEEP.apply(v, state, msg)
    }

    fn send(&self, t: &Triplet<'_, [f64]>) -> Messages<(f64, f64)> {
        assert!(
            t.src < 32 || t.src as f64 - t.src_state[0] < self.after,
            "vertex program bug"
        );
        SEEP.send(t)
    }

    fn merge(&self, a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
        SEEP.merge(a, b)
    }
}

const SEEP: Seep = Seep {
    direction: ActiveDirection::Either,
    answer: Answer::Both,
};

#[test]
fn a_job_that_dies_mid_walk_leaves_nothing_to_the_next_one() {
    let pg = Arc::new(GraphXStrategy::EdgePartition2D.partition(&knotted(40), 7));
    // Long enough a chain that retained lineage exhausts executor memory
    // before the wavefront reaches its end.
    let long = Arc::new(GraphXStrategy::EdgePartition2D.partition(&knotted(160), 7));
    let cluster = ClusterConfig::paper_cluster();
    for executor in [
        ExecutorMode::Sequential,
        ExecutorMode::Parallel { threads: 3 },
    ] {
        let opts = PregelConfig {
            executor,
            scan_mode: ScanMode::Sparse,
            ..Default::default()
        };
        let fresh = run_pregel(&SEEP, &pg, &cluster, &opts).expect("fits");

        // A panic out of `send`, several frontier walks into the job.
        let mut prepared = PreparedRun::new(pg.clone(), &cluster, executor);
        let doomed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prepared
                .run(&Snag { after: 6.0 }, &opts)
                .map(|r| r.supersteps)
        }));
        assert!(
            doomed.is_err(),
            "{executor:?}: the program must have panicked"
        );
        assert!(prepared.has_walked());
        let after = prepared.run(&SEEP, &opts).expect("fits");
        assert_eq!(after.states, fresh.states, "{executor:?}");
        assert_eq!(
            after.sim, fresh.sim,
            "{executor:?}: stale walk state billed"
        );

        // Out of memory at the end of a superstep whose scan was a walk.
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
}

/// A `[T]` program whose rows are not all one length.
struct Ragged;

impl VertexProgram for Ragged {
    type State = [u32];
    type Msg = u32;

    fn name(&self) -> &'static str {
        "ragged"
    }

    fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> Vec<u32> {
        vec![0; if v == 3 { 1 } else { 2 }]
    }

    fn initial_msg(&self) -> u32 {
        0
    }

    fn apply(&self, _v: VertexId, _state: &mut [u32], _msg: &u32) {}

    fn send(&self, _t: &Triplet<'_, [u32]>) -> Messages<u32> {
        Messages::None
    }

    fn merge(&self, a: u32, _b: u32) -> u32 {
        a
    }
}

#[test]
#[should_panic(expected = "ragged: the initial state of vertex 3 has 1 cells, vertex 0's has 2")]
fn slice_state_rows_of_unequal_length_name_the_vertex() {
    let pg = GraphXStrategy::SourceCut.partition(&fan(), 2);
    let _ = run_pregel(
        &Ragged,
        &pg,
        &ClusterConfig::paper_cluster(),
        &PregelConfig::default(),
    );
}
