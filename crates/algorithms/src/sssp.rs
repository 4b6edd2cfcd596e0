//! Multi-landmark shortest paths (GraphX `ShortestPaths` semantics).
//!
//! Each vertex maintains a vector of hop distances to `K` landmark vertices;
//! distances propagate *against* edge direction (a distance map at `dst`
//! improves `src` through edge `src → dst`), exactly as in GraphX's
//! implementation, so a vertex learns its distance *to* each landmark
//! following out-edges. The paper averages five runs with five random
//! landmark sources each, and reports that Spark ran out of memory on the
//! road networks — our simulation reproduces that through lineage-retention
//! memory accounting (the road networks need hundreds of supersteps).

use cutfit_cluster::{ClusterConfig, SimError};
use cutfit_engine::{
    run_pregel, InitCtx, MessageSizing, Messages, PregelConfig, PregelResult, Triplet,
    VertexProgram,
};
use cutfit_graph::{Csr, Graph, VertexId};
use cutfit_partition::PartitionedGraph;
use cutfit_util::hash::hash64;
use cutfit_util::num::vid_index;

/// Unreachable marker.
pub(crate) const INF: u32 = u32::MAX;

/// The shortest-paths vertex program for a fixed landmark set.
#[derive(Debug, Clone)]
pub struct Sssp {
    /// Landmark vertices, in presentation order.
    pub landmarks: Vec<VertexId>,
}

impl Sssp {
    /// Creates the program for the given landmarks.
    pub fn new(landmarks: Vec<VertexId>) -> Self {
        Self { landmarks }
    }

    /// Deterministically picks `k` distinct landmarks for a graph of `n`
    /// vertices from `seed` (the paper samples 5 random sources per run);
    /// all `n` when `k` exceeds it, so none from an empty graph.
    pub fn pick_landmarks(n: u64, k: usize, seed: u64) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = Vec::with_capacity(k);
        let mut i = 0u64;
        while out.len() < k.min(vid_index(n)) {
            let candidate = hash64(seed.wrapping_add(i)) % n;
            if !out.contains(&candidate) {
                out.push(candidate);
            }
            i += 1;
        }
        out
    }
}

impl VertexProgram for Sssp {
    /// One hop distance per landmark: a fixed-length row of the engine's
    /// flat state column.
    type State = [u32];
    type Msg = Vec<u32>;

    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> Vec<u32> {
        self.landmarks
            .iter()
            .map(|&l| if l == v { 0 } else { INF })
            .collect()
    }

    fn initial_msg(&self) -> Vec<u32> {
        vec![INF; self.landmarks.len()]
    }

    fn apply(&self, _v: VertexId, state: &mut [u32], msg: &Vec<u32>) {
        for (s, &m) in state.iter_mut().zip(msg) {
            *s = (*s).min(m);
        }
    }

    fn send(&self, t: &Triplet<'_, [u32]>) -> Messages<Vec<u32>> {
        // dst's distances, one hop further, offered to src — built only
        // when some landmark improves: the scan calls this once per edge
        // and most offers improve nothing.
        let one_further = |&d: &u32| d.saturating_add(1);
        let (src, dst) = (t.src_state, t.dst_state);
        if dst.iter().map(one_further).zip(src).any(|(c, &s)| c < s) {
            Messages::ToSrc(dst.iter().map(one_further).collect())
        } else {
            Messages::None
        }
    }

    fn merge(&self, mut a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
        for (x, &y) in a.iter_mut().zip(&b) {
            *x = (*x).min(y);
        }
        a
    }

    fn state_bytes(&self, state: &[u32]) -> u64 {
        // Serialized as a map of (landmark id, distance) pairs, as GraphX
        // ships `Map[VertexId, Int]`.
        8 + 12 * state.iter().filter(|&&d| d != INF).count() as u64
    }

    fn msg_bytes(&self, msg: &Vec<u32>) -> u64 {
        8 + 12 * msg.iter().filter(|&&d| d != INF).count() as u64
    }

    fn message_sizing(&self) -> Option<MessageSizing<Vec<u32>>> {
        // `msg_bytes` counts the finite distances, and a merge — the
        // element-wise minimum — is finite wherever either operand is: a
        // partial's finite set is the union of its messages'. One mask bit
        // per landmark.
        let finite = |msg: &Vec<u32>| {
            (0..)
                .zip(msg)
                .fold(0u64, |mask, (i, &d)| mask | u64::from(d != INF) << i)
        };
        (self.landmarks.len() <= 64).then_some(MessageSizing::Masked {
            mask: finite,
            base: 8,
            per_entry: 12,
        })
    }
}

/// Runs shortest paths to the given landmarks over a partitioned graph.
pub fn sssp(
    pg: &PartitionedGraph,
    cluster: &ClusterConfig,
    landmarks: Vec<VertexId>,
    max_iterations: u64,
    opts: &PregelConfig,
) -> Result<PregelResult<Vec<u32>>, SimError> {
    let opts = PregelConfig {
        max_iterations,
        ..opts.clone()
    };
    run_pregel(&Sssp::new(landmarks), pg, cluster, &opts)
}

/// Reference: per landmark, a BFS over *reversed* edges gives every vertex's
/// distance to that landmark along forward edges.
pub fn reference_sssp(graph: &Graph, landmarks: &[VertexId]) -> Vec<Vec<u32>> {
    let rev = Csr::in_of(graph);
    let n = vid_index(graph.num_vertices());
    let mut result = vec![vec![INF; landmarks.len()]; n];
    for (i, &l) in landmarks.iter().enumerate() {
        let dist = cutfit_graph::analysis::bfs_distances(&rev, l);
        for v in 0..n {
            result[v][i] = dist[v];
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::Edge;
    use cutfit_partition::{GraphXStrategy, Partitioner};

    fn cluster() -> ClusterConfig {
        ClusterConfig::paper_cluster()
    }

    #[test]
    fn distances_match_reference() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8);
        let landmarks = Sssp::pick_landmarks(g.num_vertices(), 3, 7);
        let reference = reference_sssp(&g, &landmarks);
        for strat in [
            GraphXStrategy::RandomVertexCut,
            GraphXStrategy::EdgePartition2D,
            GraphXStrategy::DestinationCut,
        ] {
            let pg = strat.partition(&g, 8);
            let r = sssp(
                &pg,
                &cluster(),
                landmarks.clone(),
                10_000,
                &Default::default(),
            )
            .unwrap();
            assert!(r.converged, "{strat}");
            assert_eq!(r.states, reference, "{strat}");
        }
    }

    #[test]
    fn path_distances_are_hops() {
        // 0 -> 1 -> 2 -> 3, landmark 3: dist(v) = 3 - v.
        let g = Graph::new(4, (0..3).map(|v| Edge::new(v, v + 1)).collect());
        let pg = GraphXStrategy::SourceCut.partition(&g, 2);
        let r = sssp(&pg, &cluster(), vec![3], 100, &Default::default()).unwrap();
        assert_eq!(r.states, vec![vec![3], vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn unreachable_stays_inf() {
        let g = Graph::new(3, vec![Edge::new(0, 1)]);
        let pg = GraphXStrategy::SourceCut.partition(&g, 2);
        let r = sssp(&pg, &cluster(), vec![2], 100, &Default::default()).unwrap();
        assert_eq!(r.states[0], vec![INF], "no path 0 -> 2");
        assert_eq!(r.states[2], vec![0]);
    }

    #[test]
    fn no_landmarks_leave_one_empty_row_per_vertex() {
        let g = Graph::new(3, vec![Edge::new(0, 1)]);
        let pg = GraphXStrategy::SourceCut.partition(&g, 2);
        let r = sssp(&pg, &cluster(), Vec::new(), 100, &Default::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.states, vec![Vec::<u32>::new(); 3]);
    }

    #[test]
    fn landmarks_are_distinct_and_deterministic() {
        let a = Sssp::pick_landmarks(1000, 5, 42);
        let b = Sssp::pick_landmarks(1000, 5, 42);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5);
        assert!(a.iter().all(|&v| v < 1000));
    }

    #[test]
    fn more_landmarks_ship_more_bytes() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8).symmetrized();
        let pg = GraphXStrategy::EdgePartition2D.partition(&g, 8);
        let one = sssp(
            &pg,
            &cluster(),
            Sssp::pick_landmarks(256, 1, 1),
            1000,
            &Default::default(),
        )
        .unwrap();
        let five = sssp(
            &pg,
            &cluster(),
            Sssp::pick_landmarks(256, 5, 1),
            1000,
            &Default::default(),
        )
        .unwrap();
        assert!(five.sim.remote_bytes > one.sim.remote_bytes);
    }
}
