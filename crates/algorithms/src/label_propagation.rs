//! Synchronous Label Propagation community detection (extension beyond the
//! paper's four algorithms; GraphX ships the same algorithm in its `lib`).
//!
//! Each vertex starts in its own community and repeatedly adopts the most
//! frequent label among its neighbours (smallest label wins ties, making
//! the computation deterministic). Messages carry label multisets, so the
//! per-message payload sits between PageRank's 8 bytes and Triangle
//! Count's full neighbour sets — a useful intermediate point for studying
//! the paper's CommCost-vs-Cut dichotomy.

use cutfit_cluster::{ClusterConfig, SimError};
use cutfit_engine::{
    run_pregel, InitCtx, Messages, PregelConfig, PregelResult, Triplet, VertexProgram,
};
use cutfit_graph::{Csr, Graph, VertexId};
use cutfit_partition::PartitionedGraph;
use cutfit_util::num::vid_index;

/// The label-propagation vertex program.
#[derive(Debug, Clone, Copy)]
pub struct LabelPropagation;

/// A label histogram: sorted `(label, count)` pairs.
pub(crate) type LabelVotes = Vec<(u64, u32)>;

fn merge_votes(a: LabelVotes, b: LabelVotes) -> LabelVotes {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Winner: highest count, then smallest label (deterministic tiebreak).
fn winning_label(votes: &LabelVotes) -> Option<u64> {
    votes
        .iter()
        .max_by(|x, y| x.1.cmp(&y.1).then(y.0.cmp(&x.0)))
        .map(|&(label, _)| label)
}

impl VertexProgram for LabelPropagation {
    type State = u64;
    type Msg = LabelVotes;

    fn name(&self) -> &'static str {
        "LabelPropagation"
    }

    fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> u64 {
        v
    }

    fn initial_msg(&self) -> LabelVotes {
        Vec::new()
    }

    fn apply(&self, _v: VertexId, state: &mut u64, msg: &LabelVotes) {
        if let Some(label) = winning_label(msg) {
            *state = label;
        }
    }

    fn send(&self, t: &Triplet<'_, u64>) -> Messages<LabelVotes> {
        // Labels flow both ways: communities ignore edge direction.
        Messages::Both(vec![(*t.dst_state, 1)], vec![(*t.src_state, 1)])
    }

    fn merge(&self, a: LabelVotes, b: LabelVotes) -> LabelVotes {
        merge_votes(a, b)
    }

    fn always_active(&self) -> bool {
        // Synchronous LPA oscillates rather than quiescing; it runs a fixed
        // number of rounds, like GraphX's implementation.
        true
    }

    fn state_bytes(&self, _state: &u64) -> u64 {
        8
    }

    fn fixed_state_bytes(&self) -> Option<u64> {
        // A label is always one u64 record.
        Some(8)
    }

    fn msg_bytes(&self, msg: &LabelVotes) -> u64 {
        8 + 12 * msg.len() as u64
    }
}

/// Runs `iterations` rounds of synchronous label propagation.
pub fn label_propagation(
    pg: &PartitionedGraph,
    cluster: &ClusterConfig,
    iterations: u64,
    opts: &PregelConfig,
) -> Result<PregelResult<u64>, SimError> {
    let opts = PregelConfig {
        max_iterations: iterations,
        ..opts.clone()
    };
    run_pregel(&LabelPropagation, pg, cluster, &opts)
}

/// Reference implementation: dense synchronous rounds over CSR adjacency.
pub fn reference_label_propagation(graph: &Graph, iterations: u64) -> Vec<u64> {
    let n = vid_index(graph.num_vertices());
    let out = Csr::out_of(graph);
    let inn = Csr::in_of(graph);
    let mut labels: Vec<u64> = (0..n as u64).collect();
    for _ in 0..iterations {
        let mut next = labels.clone();
        #[allow(clippy::needless_range_loop)] // v indexes labels and next
        for v in 0..n {
            let mut votes: LabelVotes = Vec::new();
            for &w in out
                .neighbors(v as u64)
                .iter()
                .chain(inn.neighbors(v as u64))
            {
                votes = merge_votes(votes, vec![(labels[vid_index(w)], 1)]);
            }
            if let Some(l) = winning_label(&votes) {
                next[v] = l;
            }
        }
        labels = next;
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::Edge;
    use cutfit_partition::{GraphXStrategy, Partitioner};

    #[test]
    fn merge_votes_sums_counts() {
        let a = vec![(1, 2), (5, 1)];
        let b = vec![(1, 1), (3, 4)];
        assert_eq!(merge_votes(a, b), vec![(1, 3), (3, 4), (5, 1)]);
    }

    #[test]
    fn winner_prefers_count_then_small_label() {
        assert_eq!(winning_label(&vec![(3, 2), (7, 2), (9, 1)]), Some(3));
        assert_eq!(winning_label(&vec![]), None);
    }

    #[test]
    fn two_cliques_find_two_communities() {
        // Two 4-cliques joined by one bridge edge.
        let mut edges = Vec::new();
        for a in 0..4u64 {
            for b in (a + 1)..4 {
                edges.push(Edge::new(a, b));
            }
        }
        for a in 4..8u64 {
            for b in (a + 1)..8 {
                edges.push(Edge::new(a, b));
            }
        }
        edges.push(Edge::new(3, 4));
        let g = Graph::new(8, edges).symmetrized();
        let pg = GraphXStrategy::CanonicalRandomVertexCut.partition(&g, 4);
        let r = label_propagation(&pg, &ClusterConfig::paper_cluster(), 8, &Default::default())
            .unwrap();
        let mut labels = r.states.clone();
        labels.sort_unstable();
        labels.dedup();
        assert!(
            labels.len() <= 3,
            "two cliques collapse to few communities: {labels:?}"
        );
        assert_eq!(r.states[0], r.states[1]);
        assert_eq!(r.states[5], r.states[6]);
    }

    #[test]
    fn matches_reference() {
        let g = cutfit_datagen::rmat(
            &cutfit_datagen::RmatConfig {
                scale: 7,
                edges: 512,
                ..Default::default()
            },
            3,
        );
        let reference = reference_label_propagation(&g, 4);
        for strategy in [GraphXStrategy::RandomVertexCut, GraphXStrategy::SourceCut] {
            let pg = strategy.partition(&g, 8);
            let r = label_propagation(&pg, &ClusterConfig::paper_cluster(), 4, &Default::default())
                .unwrap();
            assert_eq!(r.states, reference, "{strategy}");
        }
    }

    #[test]
    fn message_sizing_reflects_vote_count() {
        let lp = LabelPropagation;
        assert_eq!(lp.msg_bytes(&vec![]), 8);
        assert_eq!(lp.msg_bytes(&vec![(1, 1), (2, 1)]), 32);
    }
}
