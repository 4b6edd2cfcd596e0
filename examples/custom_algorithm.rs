//! Writing your own Pregel program against the engine API: a two-hop
//! neighbourhood size estimator (each vertex learns how many vertices are
//! within two hops, following edges in both directions).
//!
//! Demonstrates the full `VertexProgram` surface: states, messages, merge,
//! activity, and the byte-sizing hooks the cost model uses.
//!
//! ```text
//! cargo run --release --example custom_algorithm
//! ```

use cutfit::prelude::*;

/// Superstep-phased state: after round 1 every vertex knows its degree;
/// after round 2 it knows the sum of its neighbours' degrees.
#[derive(Debug, Clone, Default)]
struct TwoHop {
    round: u8,
    neighbors: u64,
    two_hop_upper_bound: u64,
}

struct TwoHopProgram;

impl VertexProgram for TwoHopProgram {
    type State = TwoHop;
    type Msg = u64;

    fn name(&self) -> &'static str {
        "two-hop-size"
    }

    fn initial_state(&self, _v: VertexId, _ctx: &cutfit::engine::InitCtx<'_>) -> TwoHop {
        TwoHop::default()
    }

    fn initial_msg(&self) -> u64 {
        0
    }

    fn apply(&self, _v: VertexId, state: &mut TwoHop, msg: &u64) {
        match state.round {
            0 => {}
            1 => state.neighbors = *msg,
            _ => state.two_hop_upper_bound = state.neighbors + *msg,
        }
        state.round = state.round.saturating_add(1);
    }

    fn send(&self, t: &cutfit::engine::Triplet<'_, TwoHop>) -> Messages<u64> {
        match t.src_state.round.min(t.dst_state.round) {
            // Round 1: count edges (1 per direction) to learn degrees.
            1 => Messages::Both(1, 1),
            // Round 2: exchange degrees to bound the two-hop neighbourhood.
            2 => Messages::Both(t.dst_state.neighbors, t.src_state.neighbors),
            _ => Messages::None,
        }
    }

    fn merge(&self, a: u64, b: u64) -> u64 {
        a + b
    }

    fn always_active(&self) -> bool {
        true
    }
}

fn main() {
    let graph = DatasetProfile::youtube().generate(0.002, 7);
    let pg = GraphXStrategy::CanonicalRandomVertexCut.partition(&graph, 32);
    let result = run_pregel(
        &TwoHopProgram,
        &pg,
        &ClusterConfig::paper_cluster(),
        &PregelConfig {
            max_iterations: 2,
            ..Default::default()
        },
    )
    .expect("two supersteps fit easily");

    let mut top: Vec<(usize, u64)> = result
        .states
        .iter()
        .map(|s| s.two_hop_upper_bound)
        .enumerate()
        .collect();
    top.sort_by_key(|&(_, size)| std::cmp::Reverse(size));
    println!("largest two-hop neighbourhoods (upper bound, multigraph counting):");
    for (v, size) in top.iter().take(5) {
        println!("  vertex {v:>6}: ~{size} vertices within 2 hops");
    }
    println!(
        "ran {} supersteps, shipped {} messages, simulated {:.3}s",
        result.supersteps, result.sim.messages, result.sim.total_seconds
    );
}
