//! HITS (hubs and authorities) — an extension beyond the paper's four
//! algorithms, exercising the same edge-bound communication profile as
//! PageRank with a two-field state. Useful for checking that the paper's
//! "optimize CommCost for edge-bound algorithms" heuristic generalises.

use cutfit_cluster::{ClusterConfig, SimError};
use cutfit_engine::{
    run_pregel, ActiveDirection, InitCtx, Messages, PregelConfig, PregelResult, Triplet,
    VertexProgram,
};
use cutfit_graph::{Csr, Graph, VertexId};
use cutfit_partition::PartitionedGraph;

/// Hub and authority scores of one vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HitsScore {
    /// Authority: endorsement received from hubs pointing here.
    pub authority: f64,
    /// Hub: quality of the pages this vertex points to.
    pub hub: f64,
}

/// The HITS vertex program (synchronous, un-normalised per step; callers
/// normalise at the end — scores stay finite for the iteration counts the
/// benches use).
#[derive(Debug, Clone, Copy)]
pub struct HitsProgram;

impl VertexProgram for HitsProgram {
    type State = HitsScore;
    /// (authority contribution, hub contribution) partial sums.
    type Msg = (f64, f64);

    fn name(&self) -> &'static str {
        "HITS"
    }

    fn initial_state(&self, _v: VertexId, _ctx: &InitCtx<'_>) -> HitsScore {
        HitsScore {
            authority: 1.0,
            hub: 1.0,
        }
    }

    fn initial_msg(&self) -> (f64, f64) {
        (f64::NAN, f64::NAN)
    }

    fn apply(&self, _v: VertexId, state: &mut HitsScore, msg: &(f64, f64)) {
        if !msg.0.is_nan() {
            *state = HitsScore {
                authority: msg.0,
                hub: msg.1,
            };
        }
    }

    fn send(&self, t: &Triplet<'_, HitsScore>) -> Messages<(f64, f64)> {
        // src's hub endorses dst's authority; dst's authority feeds src's hub.
        Messages::Both((0.0, t.dst_state.authority), (t.src_state.hub, 0.0))
    }

    fn merge(&self, a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
        (a.0 + b.0, a.1 + b.1)
    }

    fn active_direction(&self) -> ActiveDirection {
        ActiveDirection::Either
    }

    fn always_active(&self) -> bool {
        true
    }

    fn fixed_state_bytes(&self) -> Option<u64> {
        // A score pair is always two f64 records.
        Some(std::mem::size_of::<HitsScore>() as u64)
    }
}

/// Runs `iterations` HITS rounds and normalises both scores by their maxima.
pub fn hits(
    pg: &PartitionedGraph,
    cluster: &ClusterConfig,
    iterations: u64,
    opts: &PregelConfig,
) -> Result<PregelResult<HitsScore>, SimError> {
    let opts = PregelConfig {
        max_iterations: iterations,
        ..opts.clone()
    };
    let mut result = run_pregel(&HitsProgram, pg, cluster, &opts)?;
    normalize(&mut result.states);
    Ok(result)
}

/// Reference implementation (dense iteration + the same normalisation).
pub fn reference_hits(graph: &Graph, iterations: u64) -> Vec<HitsScore> {
    let n = graph.num_vertices() as usize;
    let csr_out = Csr::out_of(graph);
    let csr_in = Csr::in_of(graph);
    let mut scores = vec![
        HitsScore {
            authority: 1.0,
            hub: 1.0
        };
        n
    ];
    for _ in 0..iterations {
        let mut next = scores.clone();
        #[allow(clippy::needless_range_loop)] // v indexes three arrays
        for v in 0..n {
            // Vertices receiving no messages keep their scores (engine
            // semantics: apply only runs on message receipt).
            if csr_in.neighbors(v as u64).is_empty() && csr_out.neighbors(v as u64).is_empty() {
                continue;
            }
            let authority: f64 = csr_in
                .neighbors(v as u64)
                .iter()
                .map(|&u| scores[u as usize].hub)
                .sum();
            let hub: f64 = csr_out
                .neighbors(v as u64)
                .iter()
                .map(|&w| scores[w as usize].authority)
                .sum();
            next[v] = HitsScore { authority, hub };
        }
        scores = next;
    }
    normalize(&mut scores);
    scores
}

fn normalize(scores: &mut [HitsScore]) {
    let max_a = scores.iter().map(|s| s.authority).fold(0.0f64, f64::max);
    let max_h = scores.iter().map(|s| s.hub).fold(0.0f64, f64::max);
    for s in scores.iter_mut() {
        if max_a > 0.0 {
            s.authority /= max_a;
        }
        if max_h > 0.0 {
            s.hub /= max_h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::Edge;
    use cutfit_partition::{GraphXStrategy, Partitioner};

    #[test]
    fn matches_reference() {
        let g = cutfit_datagen::rmat(
            &cutfit_datagen::RmatConfig {
                scale: 7,
                edges: 512,
                ..Default::default()
            },
            5,
        );
        // Multigraph duplicate edges contribute repeatedly in both paths.
        let reference = reference_hits(&g, 5);
        let pg = GraphXStrategy::EdgePartition2D.partition(&g, 8);
        let r = hits(&pg, &ClusterConfig::paper_cluster(), 5, &Default::default()).unwrap();
        for (v, (a, b)) in r.states.iter().zip(&reference).enumerate() {
            assert!(
                (a.authority - b.authority).abs() < 1e-9 && (a.hub - b.hub).abs() < 1e-9,
                "vertex {v}: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn star_authority_concentrates_at_hub_target() {
        // Everyone points at 0: vertex 0 is the authority, leaves are hubs.
        let g = Graph::new(5, (1..5).map(|v| Edge::new(v, 0)).collect());
        let pg = GraphXStrategy::CanonicalRandomVertexCut.partition(&g, 2);
        let r = hits(&pg, &ClusterConfig::paper_cluster(), 4, &Default::default()).unwrap();
        assert_eq!(r.states[0].authority, 1.0, "normalised max");
        assert!(r.states[0].hub < 1e-12);
        assert_eq!(r.states[1].hub, 1.0);
    }

    #[test]
    fn scores_are_normalised() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 3);
        let pg = GraphXStrategy::RandomVertexCut.partition(&g, 4);
        let r = hits(&pg, &ClusterConfig::paper_cluster(), 3, &Default::default()).unwrap();
        assert!(r
            .states
            .iter()
            .all(|s| (0.0..=1.0).contains(&s.authority) && (0.0..=1.0).contains(&s.hub)));
    }
}
