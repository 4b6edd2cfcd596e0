//! Tests for `ActiveDirection` semantics and activity bookkeeping: the
//! engine must scan exactly the edges GraphX would scan, because metered
//! scan counts feed the cost model — whichever walk scans them. (The
//! dense-against-sparse differential grid is `tests/frontier.rs`.)

use cutfit_cluster::ClusterConfig;
use cutfit_graph::{Edge, Graph, VertexId};
use cutfit_partition::{GraphXStrategy, Partitioner};

use crate::pregel::{run_pregel, PregelConfig};
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
