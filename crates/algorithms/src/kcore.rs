//! K-core decomposition by iterated h-index (Lü et al., Nature Comm. 2016;
//! Montresor et al. for the distributed formulation) — an extension beyond
//! the paper's four algorithms.
//!
//! Every vertex maintains a coreness estimate, initially its degree; each
//! round it replaces the estimate with the **h-index** of its neighbours'
//! estimates (the largest `h` such that at least `h` neighbours claim ≥ `h`).
//! The sequence is monotonically non-increasing and converges to the exact
//! coreness. Message payloads are estimate vectors, so the algorithm sits
//! between PageRank and Triangle Count on the paper's per-vertex-state
//! spectrum — another probe for the CommCost-vs-Cut dichotomy.
//!
//! Like GraphX's `TriangleCount`, the computation is defined on the
//! **canonical** (undirected, simple) graph: [`kcore`] canonicalizes and
//! partitions internally so each neighbour's estimate is counted exactly
//! once.

use cutfit_cluster::{ClusterConfig, SimError};
use cutfit_engine::{
    run_pregel, InitCtx, Messages, PregelConfig, PregelResult, Triplet, VertexProgram,
};
use cutfit_graph::types::PartId;
use cutfit_graph::{Csr, Graph, VertexId};
use cutfit_partition::Partitioner;

use crate::triangles::canonicalize;

/// The k-core vertex program (run it on a canonical graph; see module docs).
#[derive(Debug, Clone, Copy)]
pub struct KCore;

/// The h-index of a multiset of estimates: the largest `h` with at least
/// `h` values ≥ `h`.
pub fn h_index(values: &[u32]) -> u32 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut h = 0u32;
    for (i, &v) in sorted.iter().enumerate() {
        if v as usize > i {
            h = (i + 1) as u32;
        } else {
            break;
        }
    }
    h
}

impl VertexProgram for KCore {
    /// Current coreness estimate.
    type State = u32;
    /// Neighbours' estimates collected this round.
    type Msg = Vec<u32>;

    fn name(&self) -> &'static str {
        "KCore"
    }

    fn initial_state(&self, v: VertexId, ctx: &InitCtx<'_>) -> u32 {
        // On a canonical graph, undirected degree = out + in.
        ctx.out_degrees[v as usize] + ctx.in_degrees[v as usize]
    }

    fn initial_msg(&self) -> Vec<u32> {
        Vec::new()
    }

    fn apply(&self, _v: VertexId, state: &mut u32, msg: &Vec<u32>) {
        if !msg.is_empty() {
            // The h-index of neighbour estimates never needs to raise the
            // estimate; clamping keeps the sequence monotone.
            *state = (*state).min(h_index(msg));
        }
    }

    fn send(&self, t: &Triplet<'_, u32>) -> Messages<Vec<u32>> {
        Messages::Both(vec![*t.dst_state], vec![*t.src_state])
    }

    fn merge(&self, mut a: Vec<u32>, mut b: Vec<u32>) -> Vec<u32> {
        a.append(&mut b);
        a
    }

    fn always_active(&self) -> bool {
        // Estimates must keep flowing until a global fixpoint; callers give
        // an iteration budget (tens of rounds suffice in practice).
        true
    }

    fn state_bytes(&self, _state: &u32) -> u64 {
        12
    }

    fn fixed_state_bytes(&self) -> Option<u64> {
        // An h-index estimate always serializes to the same record size.
        Some(12)
    }

    fn msg_bytes(&self, msg: &Vec<u32>) -> u64 {
        8 + 4 * msg.len() as u64
    }
}

/// Canonicalizes `graph`, partitions it with `partitioner`, and runs the
/// h-index iteration for `iterations` rounds. Returns per-vertex coreness.
pub fn kcore(
    graph: &Graph,
    partitioner: &dyn Partitioner,
    num_parts: PartId,
    cluster: &ClusterConfig,
    iterations: u64,
    opts: &PregelConfig,
) -> Result<PregelResult<u32>, SimError> {
    let canon = canonicalize(graph);
    let pg = partitioner.partition(&canon, num_parts);
    let opts = PregelConfig {
        max_iterations: iterations,
        ..opts.clone()
    };
    run_pregel(&KCore, &pg, cluster, &opts)
}

/// Reference coreness by classic peeling: repeatedly remove a vertex of
/// minimum remaining degree; its coreness is the running maximum of removal
/// degrees. O(V² + E) — a test oracle, not a production path.
pub fn reference_kcore(graph: &Graph) -> Vec<u32> {
    let canon = canonicalize(graph);
    reference_kcore_adj(&Csr::undirected_simple_of(&canon))
}

/// The peeling oracle on a prebuilt undirected simple adjacency.
pub fn reference_kcore_adj(und: &Csr) -> Vec<u32> {
    let n = und.num_vertices() as usize;
    let mut degree: Vec<u32> = (0..n as u64).map(|v| und.degree(v) as u32).collect();
    let mut coreness = vec![0u32; n];
    let mut removed = vec![false; n];
    let mut core_so_far = 0u32;
    while let Some(v) = (0..n).filter(|&v| !removed[v]).min_by_key(|&v| degree[v]) {
        core_so_far = core_so_far.max(degree[v]);
        coreness[v] = core_so_far;
        removed[v] = true;
        for &w in und.neighbors(v as u64) {
            if !removed[w as usize] && degree[w as usize] > 0 {
                degree[w as usize] -= 1;
            }
        }
    }
    coreness
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::Edge;
    use cutfit_partition::GraphXStrategy;

    fn run(graph: &Graph, strategy: GraphXStrategy, parts: PartId) -> Vec<u32> {
        kcore(
            graph,
            &strategy,
            parts,
            &ClusterConfig::paper_cluster(),
            60,
            &Default::default(),
        )
        .expect("fits")
        .states
    }

    #[test]
    fn h_index_examples() {
        assert_eq!(h_index(&[]), 0);
        assert_eq!(h_index(&[0, 0]), 0);
        assert_eq!(h_index(&[1]), 1);
        assert_eq!(h_index(&[5, 4, 3, 2, 1]), 3);
        assert_eq!(h_index(&[9, 9, 9]), 3);
        assert_eq!(h_index(&[1, 1, 1, 1]), 1);
    }

    /// A clique of 4 (coreness 3 each) with a pendant path.
    fn clique_with_tail() -> Graph {
        let mut edges = Vec::new();
        for a in 0..4u64 {
            for b in (a + 1)..4 {
                edges.push(Edge::new(a, b));
            }
        }
        edges.push(Edge::new(3, 4));
        edges.push(Edge::new(4, 5));
        Graph::new(6, edges).symmetrized()
    }

    #[test]
    fn clique_members_have_core_three() {
        let states = run(
            &clique_with_tail(),
            GraphXStrategy::CanonicalRandomVertexCut,
            4,
        );
        assert_eq!(&states[0..3], &[3, 3, 3]);
        assert_eq!(states[5], 1, "pendant tail");
    }

    #[test]
    fn matches_reference_peeling() {
        let g = cutfit_datagen::rmat(
            &cutfit_datagen::RmatConfig {
                scale: 7,
                edges: 1024,
                ..Default::default()
            },
            5,
        );
        let reference = reference_kcore(&g);
        for strategy in [GraphXStrategy::EdgePartition2D, GraphXStrategy::SourceCut] {
            assert_eq!(run(&g, strategy, 8), reference, "{strategy}");
        }
    }

    #[test]
    fn partitioner_invariant() {
        let g = clique_with_tail();
        assert_eq!(
            run(&g, GraphXStrategy::SourceCut, 2),
            run(&g, GraphXStrategy::RandomVertexCut, 8)
        );
    }

    #[test]
    fn double_triangle_cores() {
        // Two triangles sharing one vertex: everyone has coreness 2.
        let g = Graph::new(
            5,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 0),
                Edge::new(2, 3),
                Edge::new(3, 4),
                Edge::new(4, 2),
            ],
        );
        assert_eq!(
            run(&g, GraphXStrategy::DestinationCut, 3),
            vec![2, 2, 2, 2, 2]
        );
    }
}
