//! Static PageRank (GraphX `staticPageRank` semantics).
//!
//! `rank' = 0.15 + 0.85 · Σ_{u→v} rank(u) / outDegree(u)`, iterated a fixed
//! number of rounds from `rank = 1.0`. Every vertex recomputes every round
//! (GraphX's static variant), so the algorithm is communication-bound: each
//! superstep ships one partial sum per (vertex, partition) pair — precisely
//! the paper's Communication Cost metric. The paper measures 10 iterations.

use cutfit_cluster::{ClusterConfig, SimError};
use cutfit_engine::{
    run_pregel, ActiveDirection, InitCtx, Messages, PregelConfig, PregelResult, Triplet,
    VertexProgram,
};
use cutfit_graph::{Csr, Graph, VertexId};
use cutfit_partition::PartitionedGraph;

/// The damping ("reset") probability GraphX uses.
pub const RESET_PROB: f64 = 0.15;

/// The PageRank vertex program.
#[derive(Debug, Clone, Copy)]
pub struct PageRank;

impl VertexProgram for PageRank {
    type State = f64;
    type Msg = f64;

    fn name(&self) -> &'static str {
        "PageRank"
    }

    fn initial_state(&self, _v: VertexId, _ctx: &InitCtx<'_>) -> f64 {
        1.0
    }

    fn initial_msg(&self) -> f64 {
        // NaN marks "no inbound mass yet": the initial apply keeps the
        // starting rank so the first superstep sends rank 1.0.
        f64::NAN
    }

    fn apply(&self, _v: VertexId, state: &mut f64, msg: &f64) {
        if !msg.is_nan() {
            *state = RESET_PROB + (1.0 - RESET_PROB) * msg;
        }
    }

    fn send(&self, t: &Triplet<'_, f64>) -> Messages<f64> {
        // GraphX stores 1/outDegree as the edge weight.
        Messages::ToDst(t.src_state / t.src_out_degree as f64)
    }

    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn active_direction(&self) -> ActiveDirection {
        ActiveDirection::Out
    }

    fn always_active(&self) -> bool {
        true
    }

    fn fixed_state_bytes(&self) -> Option<u64> {
        // A rank is always one f64 record.
        Some(std::mem::size_of::<f64>() as u64)
    }
}

/// Runs `iterations` rounds of static PageRank over a partitioned graph.
pub fn pagerank(
    pg: &PartitionedGraph,
    cluster: &ClusterConfig,
    iterations: u64,
    opts: &PregelConfig,
) -> Result<PregelResult<f64>, SimError> {
    let opts = PregelConfig {
        max_iterations: iterations,
        ..opts.clone()
    };
    run_pregel(&PageRank, pg, cluster, &opts)
}

/// Reference implementation: dense synchronous iteration, no partitioning.
pub fn reference_pagerank(graph: &Graph, iterations: u64) -> Vec<f64> {
    let n = graph.num_vertices() as usize;
    let out_deg = graph.out_degrees();
    let csr_in = Csr::in_of(graph);
    let mut ranks = vec![1.0f64; n];
    for _ in 0..iterations {
        let mut next = vec![f64::NAN; n];
        for v in 0..n {
            let mut sum = f64::NAN;
            for &u in csr_in.neighbors(v as u64) {
                let contrib = ranks[u as usize] / out_deg[u as usize] as f64;
                sum = if sum.is_nan() { contrib } else { sum + contrib };
            }
            // Mirror the engine exactly: vertices with no inbound mass
            // receive no message and keep their rank.
            next[v] = if sum.is_nan() {
                ranks[v]
            } else {
                RESET_PROB + (1.0 - RESET_PROB) * sum
            };
        }
        ranks = next;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::Edge;
    use cutfit_partition::{GraphXStrategy, Partitioner};

    fn chain_with_hub() -> Graph {
        Graph::new(
            5,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 0),
                Edge::new(3, 0),
                Edge::new(4, 0),
            ],
        )
    }

    #[test]
    fn matches_reference_exactly_enough() {
        let g = chain_with_hub();
        let pg = GraphXStrategy::RandomVertexCut.partition(&g, 4);
        let engine = pagerank(
            &pg,
            &ClusterConfig::paper_cluster(),
            10,
            &Default::default(),
        )
        .unwrap();
        let reference = reference_pagerank(&g, 10);
        for (a, b) in engine.states.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert_eq!(engine.supersteps, 10);
    }

    #[test]
    fn hub_receives_highest_rank() {
        let g = chain_with_hub();
        let pg = GraphXStrategy::CanonicalRandomVertexCut.partition(&g, 2);
        let r = pagerank(
            &pg,
            &ClusterConfig::paper_cluster(),
            10,
            &Default::default(),
        )
        .unwrap();
        let max_idx = r
            .states
            .iter()
            .enumerate()
            .max_by(|a, b| cutfit_util::num::nan_last_cmp(*a.1, *b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 0, "vertex 0 has three in-edges");
    }

    #[test]
    fn rank_of_source_only_vertex_is_reset_prob() {
        let g = Graph::new(2, vec![Edge::new(0, 1)]);
        let pg = GraphXStrategy::SourceCut.partition(&g, 2);
        let r = pagerank(
            &pg,
            &ClusterConfig::paper_cluster(),
            10,
            &Default::default(),
        )
        .unwrap();
        // Vertex 0 never receives mass: keeps rank 1.0 (GraphX static PR
        // only updates vertices with inbound edges).
        assert_eq!(r.states[0], 1.0);
        // Vertex 1 receives 1.0/1 every round: settles at 0.15 + 0.85·1.
        assert!((r.states[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partitioner_does_not_change_ranks() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 7);
        let reference = reference_pagerank(&g, 5);
        for strat in GraphXStrategy::all() {
            let pg = strat.partition(&g, 8);
            let r = pagerank(&pg, &ClusterConfig::paper_cluster(), 5, &Default::default()).unwrap();
            for (v, (a, b)) in r.states.iter().zip(&reference).enumerate() {
                assert!((a - b).abs() < 1e-9, "{strat}: vertex {v}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn ten_iterations_cost_eleven_supersteps_of_overhead() {
        let g = chain_with_hub();
        let pg = GraphXStrategy::RandomVertexCut.partition(&g, 2);
        let r = pagerank(
            &pg,
            &ClusterConfig::paper_cluster(),
            10,
            &Default::default(),
        )
        .unwrap();
        // Setup superstep + 10 iterations.
        assert_eq!(r.sim.supersteps, 11);
    }
}
