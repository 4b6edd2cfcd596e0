//! Connected components by min-label propagation (GraphX
//! `ConnectedComponents` semantics): every vertex adopts the smallest vertex
//! id reachable over the graph treated as undirected.
//!
//! The algorithm is the paper's example of a *convergent* computation: after
//! a few supersteps most vertices stop changing, their edges stop being
//! scanned (activity tracking), and load shifts — which is why the paper
//! finds finer partitioning (config ii) helps CC by up to 22 %.

use cutfit_cluster::{ClusterConfig, SimError};
use cutfit_engine::{
    run_pregel, InitCtx, Messages, PregelConfig, PregelResult, Triplet, VertexProgram,
};
use cutfit_graph::analysis::weakly_connected_components;
use cutfit_graph::{Graph, VertexId};
use cutfit_partition::PartitionedGraph;

/// The connected-components vertex program.
#[derive(Debug, Clone, Copy)]
pub struct ConnectedComponents;

impl VertexProgram for ConnectedComponents {
    type State = u64;
    type Msg = u64;

    fn name(&self) -> &'static str {
        "ConnectedComponents"
    }

    fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> u64 {
        v
    }

    fn initial_msg(&self) -> u64 {
        // Identity of min-merge: delivering it leaves the initial label.
        u64::MAX
    }

    fn apply(&self, _v: VertexId, state: &mut u64, msg: &u64) {
        *state = (*state).min(*msg);
    }

    fn send(&self, t: &Triplet<'_, u64>) -> Messages<u64> {
        // Labels flow both ways across each edge (GraphX CC treats edges as
        // undirected), but only where they improve the other side.
        match (t.src_state < t.dst_state, t.dst_state < t.src_state) {
            (true, _) => Messages::ToDst(*t.src_state),
            (_, true) => Messages::ToSrc(*t.dst_state),
            _ => Messages::None,
        }
    }

    fn merge(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }

    fn fixed_state_bytes(&self) -> Option<u64> {
        // A component label is always one u64 record.
        Some(std::mem::size_of::<u64>() as u64)
    }
}

/// Runs connected components to fixpoint or `max_iterations`.
pub fn connected_components(
    pg: &PartitionedGraph,
    cluster: &ClusterConfig,
    max_iterations: u64,
    opts: &PregelConfig,
) -> Result<PregelResult<u64>, SimError> {
    let opts = PregelConfig {
        max_iterations,
        ..opts.clone()
    };
    run_pregel(&ConnectedComponents, pg, cluster, &opts)
}

/// Reference labels by union-find (exact fixpoint).
pub fn reference_components(graph: &Graph) -> Vec<u64> {
    weakly_connected_components(graph).labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::Edge;
    use cutfit_partition::{GraphXStrategy, Partitioner};

    #[test]
    fn labels_match_union_find() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8);
        let reference = reference_components(&g);
        for strat in GraphXStrategy::all() {
            let pg = strat.partition(&g, 8);
            let r = connected_components(
                &pg,
                &ClusterConfig::paper_cluster(),
                10_000,
                &Default::default(),
            )
            .unwrap();
            assert!(r.converged, "{strat} should reach fixpoint");
            assert_eq!(r.states, reference, "{strat}");
        }
    }

    #[test]
    fn counts_components() {
        let g = Graph::new(6, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(4, 3)]);
        let pg = GraphXStrategy::CanonicalRandomVertexCut.partition(&g, 4);
        let r = connected_components(
            &pg,
            &ClusterConfig::paper_cluster(),
            100,
            &Default::default(),
        )
        .unwrap();
        let mut labels = r.states.clone();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels, vec![0, 3, 5]);
    }

    #[test]
    fn direction_is_ignored() {
        // Labels must propagate against edge direction too.
        let g = Graph::new(3, vec![Edge::new(2, 1), Edge::new(1, 0)]);
        let pg = GraphXStrategy::SourceCut.partition(&g, 2);
        let r = connected_components(
            &pg,
            &ClusterConfig::paper_cluster(),
            100,
            &Default::default(),
        )
        .unwrap();
        assert_eq!(r.states, vec![0, 0, 0]);
    }

    #[test]
    fn iteration_cap_leaves_partial_labels() {
        // A long path needs ~n supersteps; a cap of 2 leaves far labels big.
        let g = Graph::new(20, (0..19).map(|v| Edge::new(v, v + 1)).collect());
        let pg = GraphXStrategy::EdgePartition1D.partition(&g, 2);
        let r = connected_components(&pg, &ClusterConfig::paper_cluster(), 2, &Default::default())
            .unwrap();
        assert!(!r.converged);
        assert_eq!(r.states[0], 0);
        assert!(r.states[19] > 0, "label 0 cannot reach the end in 2 steps");
    }
}
