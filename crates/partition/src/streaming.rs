//! Streaming vertex-cut baselines from the literature (§5 related work):
//! degree-based hashing, PowerGraph's greedy heuristic, and HDRF.
//!
//! These are not part of the paper's six-strategy grid, but the paper's
//! related-work section frames them as the natural next step; the ablation
//! benchmark (`ablation_streaming`) compares them against the six on the
//! same metrics to test whether the paper's conclusions generalise.

use cutfit_graph::io::ParseError;
use cutfit_graph::types::PartId;
use cutfit_graph::{Edge, GraphSource, VertexId};
use cutfit_util::hash::hash64;
use cutfit_util::num::vid_index;

use crate::replicas::{set_bits, ReplicaBitmap};
use crate::strategy::{Partitioner, Rule};

/// One O(V)-memory counting pass over a source: per-vertex out- and
/// in-degrees, the tables DBH's and Hybrid's rules are functions of.
fn degree_tables(source: &dyn GraphSource) -> Result<(Vec<u32>, Vec<u32>), ParseError> {
    let n = vid_index(source.num_vertices());
    let mut out = vec![0u32; n];
    let mut inn = vec![0u32; n];
    // Bounded chunks: the counting pass must not re-materialize the edges.
    source.for_each_chunk(1 << 16, &mut |chunk| {
        for e in chunk {
            out[vid_index(e.src)] += 1;
            inn[vid_index(e.dst)] += 1;
        }
    })?;
    Ok((out, inn))
}

/// Degree-Based Hashing (Xie et al., NIPS'14): hash each edge by its
/// lower-degree endpoint, so high-degree vertices (whose replication is
/// unavoidable) absorb the cuts and low-degree vertices stay whole.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dbh;

impl Partitioner for Dbh {
    fn name(&self) -> &'static str {
        "DBH"
    }

    // A hash modulo the `u32` part count is below it.
    #[allow(clippy::cast_possible_truncation)]
    fn rule(&self, source: &dyn GraphSource, num_parts: PartId) -> Result<Rule<'_>, ParseError> {
        let (out, inn) = degree_tables(source)?;
        let degree = move |v: VertexId| u64::from(out[vid_index(v)]) + u64::from(inn[vid_index(v)]);
        Ok(Rule::pure(move |e| {
            let key = if degree(e.src) <= degree(e.dst) {
                e.src
            } else {
                e.dst
            };
            (hash64(key) % num_parts as u64) as PartId
        }))
    }
}

/// PowerGraph's greedy streaming vertex cut (Gonzalez et al., OSDI'12).
///
/// Processes edges in order, maintaining the replica set `A(v)` of every
/// vertex and per-partition loads:
///
/// 1. if `A(u) ∩ A(v)` is non-empty → least-loaded common partition;
/// 2. else if both are non-empty → least-loaded partition of the union;
/// 3. else if one is non-empty → least-loaded partition of that set;
/// 4. else → least-loaded partition overall.
///
/// A load cap (`balance_slack` × running average) guards against the
/// snowball pathology on dense clustered graphs, where the affinity rules
/// otherwise funnel every edge into one partition; candidates above the cap
/// fall through to the next rule.
#[derive(Debug, Clone, Copy)]
pub struct GreedyVertexCut {
    /// Maximum partition load as a multiple of the running average.
    pub balance_slack: f64,
}

impl Default for GreedyVertexCut {
    fn default() -> Self {
        Self { balance_slack: 1.5 }
    }
}

/// The sequential decision state of [`GreedyVertexCut`]:
/// O(V · ⌈parts / 64⌉ + parts) memory.
struct GreedyState {
    num_parts: PartId,
    balance_slack: f64,
    loads: Vec<u64>,
    // A(v) as packed bits: `A(u) ∩ A(v)` and `A(u) ∪ A(v)` are a word-wise
    // AND / OR, and walking their set bits visits candidates in ascending
    // partition order.
    replicas: ReplicaBitmap,
    seen: u64,
}

impl GreedyState {
    fn new(num_vertices: u64, num_parts: PartId, balance_slack: f64) -> Self {
        GreedyState {
            num_parts,
            balance_slack,
            loads: vec![0u64; num_parts as usize],
            replicas: ReplicaBitmap::new(num_vertices, num_parts),
            seen: 0,
        }
    }

    fn push(&mut self, e: &Edge) -> PartId {
        let np = self.num_parts as usize;
        // Load cap: affinity candidates above it are skipped, letting
        // the decision fall through to less loaded rules.
        // A float load cap: `as` saturates, and a cap past `u64::MAX` is no cap.
        #[allow(clippy::cast_possible_truncation)]
        let cap = ((self.seen as f64 / np as f64) * self.balance_slack).ceil() as u64 + 1;
        self.seen += 1;
        let loads = &self.loads;
        let pick = {
            let a = self.replicas.words(e.src);
            let b = self.replicas.words(e.dst);
            let ok = |p: &PartId| loads[*p as usize] < cap;
            let common = set_bits(a.iter().zip(b).map(|(x, y)| x & y)).filter(ok);
            let union = set_bits(a.iter().zip(b).map(|(x, y)| x | y)).filter(ok);
            least_loaded(common, loads)
                .or_else(|| least_loaded(union, loads))
                .or_else(|| least_loaded(0..self.num_parts, loads))
                .unwrap_or(0) // `None` only if there are no partitions at all
        };
        self.loads[pick as usize] += 1;
        self.replicas.insert(e.src, pick);
        self.replicas.insert(e.dst, pick);
        pick
    }
}

impl Partitioner for GreedyVertexCut {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn rule(&self, source: &dyn GraphSource, num_parts: PartId) -> Result<Rule<'_>, ParseError> {
        let mut state = GreedyState::new(source.num_vertices(), num_parts, self.balance_slack);
        Ok(Rule::ordered(move |e| state.push(e)))
    }
}

/// HDRF — High-Degree (are) Replicated First (Petroni et al., CIKM'15).
///
/// Scores every partition for every edge by a replication-affinity term that
/// prefers partitions already holding the *lower*-degree endpoint, plus a
/// load-balance term weighted by `lambda`; the highest score wins.
#[derive(Debug, Clone, Copy)]
pub struct Hdrf {
    /// Balance pressure (the HDRF paper explores 1–100; see `Default`).
    pub lambda: f64,
}

impl Default for Hdrf {
    fn default() -> Self {
        // The HDRF paper explores λ ∈ [1, 100]; λ = 1 lets replication
        // affinity snowball into one partition on dense clustered graphs,
        // so we default to a balance-safe value from their sweet-spot range.
        Self { lambda: 4.0 }
    }
}

/// The sequential decision state of [`Hdrf`].
struct HdrfState {
    num_parts: PartId,
    lambda: f64,
    loads: Vec<u64>,
    // The extrema of `loads`, kept as edges land instead of rescanned per
    // edge: a load only ever grows by one, so the maximum is monotone and
    // the minimum moves up by exactly one when the last partition sitting
    // at it (`at_min_load` counts them) takes an edge.
    max_load: u64,
    min_load: u64,
    at_min_load: usize,
    replicas: ReplicaBitmap,
    // Partial degrees, updated as edges stream in (the streaming-setting
    // approximation the HDRF paper uses).
    partial_degree: Vec<u64>,
}

impl HdrfState {
    fn new(num_vertices: u64, num_parts: PartId, lambda: f64) -> Self {
        HdrfState {
            num_parts,
            lambda,
            loads: vec![0u64; num_parts as usize],
            max_load: 0,
            min_load: 0,
            at_min_load: num_parts as usize,
            replicas: ReplicaBitmap::new(num_vertices, num_parts),
            partial_degree: vec![0u64; vid_index(num_vertices)],
        }
    }

    fn push(&mut self, e: &Edge) -> PartId {
        let eps = 1.0;
        let (s, d) = (vid_index(e.src), vid_index(e.dst));
        self.partial_degree[s] += 1;
        self.partial_degree[d] += 1;
        let (ds, dd) = (self.partial_degree[s] as f64, self.partial_degree[d] as f64);
        let theta_s = ds / (ds + dd);
        let theta_d = 1.0 - theta_s;
        let max_load = self.max_load as f64;
        let min_load = self.min_load as f64;

        let mut best = 0 as PartId;
        let mut best_score = f64::NEG_INFINITY;
        for p in 0..self.num_parts {
            let g_s = if self.replicas.contains(e.src, p) {
                1.0 + (1.0 - theta_s)
            } else {
                0.0
            };
            let g_d = if self.replicas.contains(e.dst, p) {
                1.0 + (1.0 - theta_d)
            } else {
                0.0
            };
            let bal = self.lambda * (max_load - self.loads[p as usize] as f64)
                / (eps + max_load - min_load);
            let score = g_s + g_d + bal;
            if score > best_score {
                best_score = score;
                best = p;
            }
        }
        self.place(best);
        self.replicas.insert(e.src, best);
        self.replicas.insert(e.dst, best);
        best
    }

    /// Adds one edge to partition `p`'s load and updates the extrema.
    fn place(&mut self, p: PartId) {
        let load = &mut self.loads[p as usize];
        *load += 1;
        self.max_load = self.max_load.max(*load);
        if *load == self.min_load + 1 {
            self.at_min_load -= 1;
            if self.at_min_load == 0 {
                self.min_load += 1;
                self.at_min_load = self.loads.iter().filter(|&&l| l == self.min_load).count();
            }
        }
    }
}

impl Partitioner for Hdrf {
    fn name(&self) -> &'static str {
        "HDRF"
    }

    fn rule(&self, source: &dyn GraphSource, num_parts: PartId) -> Result<Rule<'_>, ParseError> {
        let mut state = HdrfState::new(source.num_vertices(), num_parts, self.lambda);
        Ok(Rule::ordered(move |e| state.push(e)))
    }
}

/// PowerLyra-style hybrid cut (Chen et al., EuroSys'15): low-degree
/// vertices keep their in-edges together (edge-cut-like locality, assigned
/// by destination hash), while high-degree vertices' in-edges are spread by
/// source hash (vertex-cut-like balance for the skewed tail). The paper's
/// related work (§5, Verma et al.) compares exactly this family against
/// GraphX's strategies.
#[derive(Debug, Clone, Copy)]
pub struct HybridCut {
    /// In-degree above which a destination counts as high-degree; the
    /// PowerLyra default is 100.
    pub threshold: u32,
}

impl Default for HybridCut {
    fn default() -> Self {
        Self { threshold: 100 }
    }
}

impl Partitioner for HybridCut {
    fn name(&self) -> &'static str {
        "Hybrid"
    }

    // A hash modulo the `u32` part count is below it.
    #[allow(clippy::cast_possible_truncation)]
    fn rule(&self, source: &dyn GraphSource, num_parts: PartId) -> Result<Rule<'_>, ParseError> {
        let (_, in_deg) = degree_tables(source)?;
        let threshold = self.threshold;
        Ok(Rule::pure(move |e| {
            let key = if in_deg[vid_index(e.dst)] > threshold {
                e.src // high-degree destination: spread by source
            } else {
                e.dst // low-degree destination: collocate its in-edges
            };
            (hash64(key) % num_parts as u64) as PartId
        }))
    }
}

fn least_loaded<I: IntoIterator<Item = PartId>>(parts: I, loads: &[u64]) -> Option<PartId> {
    parts.into_iter().min_by_key(|&p| (loads[p as usize], p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;
    use crate::GraphXStrategy;
    use cutfit_datagen::{rmat, RmatConfig};
    use cutfit_graph::Graph;

    fn skewed() -> Graph {
        rmat(
            &RmatConfig {
                scale: 10,
                edges: 8 * 1024,
                ..Default::default()
            },
            42,
        )
    }

    fn insert_sorted(v: &mut Vec<PartId>, p: PartId) {
        if let Err(pos) = v.binary_search(&p) {
            v.insert(pos, p);
        }
    }

    /// Oracle for [`GreedyVertexCut`]: the four rules spelled out over
    /// sorted-`Vec` replica sets, intersection by `contains`.
    fn reference_greedy(graph: &Graph, num_parts: PartId, balance_slack: f64) -> Vec<PartId> {
        let np = num_parts as usize;
        let mut loads = vec![0u64; np];
        let mut replicas: Vec<Vec<PartId>> = vec![Vec::new(); graph.num_vertices() as usize];
        let mut out = Vec::new();
        for (seen, e) in graph.edges().iter().enumerate() {
            let (s, d) = (e.src as usize, e.dst as usize);
            let cap = ((seen as f64 / np as f64) * balance_slack).ceil() as u64 + 1;
            let (a, b) = (&replicas[s], &replicas[d]);
            let ok = |p: &PartId| loads[*p as usize] < cap;
            let common = a
                .iter()
                .filter(|p| b.contains(p))
                .filter(|p| ok(p))
                .copied();
            let union = a.iter().chain(b.iter()).filter(|p| ok(p)).copied();
            let pick = least_loaded(common, &loads)
                .or_else(|| least_loaded(union, &loads))
                .unwrap_or_else(|| least_loaded(0..num_parts, &loads).unwrap());
            loads[pick as usize] += 1;
            insert_sorted(&mut replicas[s], pick);
            insert_sorted(&mut replicas[d], pick);
            out.push(pick);
        }
        out
    }

    /// Oracle for [`Hdrf`]: sorted-`Vec` replica sets, and both load extrema
    /// rescanned for every edge.
    fn reference_hdrf(graph: &Graph, num_parts: PartId, lambda: f64) -> Vec<PartId> {
        let eps = 1.0;
        let n = graph.num_vertices() as usize;
        let mut loads = vec![0u64; num_parts as usize];
        let mut replicas: Vec<Vec<PartId>> = vec![Vec::new(); n];
        let mut partial_degree = vec![0u64; n];
        let mut out = Vec::new();
        for e in graph.edges() {
            let (s, d) = (e.src as usize, e.dst as usize);
            partial_degree[s] += 1;
            partial_degree[d] += 1;
            let (ds, dd) = (partial_degree[s] as f64, partial_degree[d] as f64);
            let theta_s = ds / (ds + dd);
            let theta_d = 1.0 - theta_s;
            let max_load = loads.iter().copied().max().unwrap_or(0) as f64;
            let min_load = loads.iter().copied().min().unwrap_or(0) as f64;

            let mut best = 0 as PartId;
            let mut best_score = f64::NEG_INFINITY;
            for p in 0..num_parts {
                let g_s = if replicas[s].contains(&p) {
                    1.0 + (1.0 - theta_s)
                } else {
                    0.0
                };
                let g_d = if replicas[d].contains(&p) {
                    1.0 + (1.0 - theta_d)
                } else {
                    0.0
                };
                let bal =
                    lambda * (max_load - loads[p as usize] as f64) / (eps + max_load - min_load);
                let score = g_s + g_d + bal;
                if score > best_score {
                    best_score = score;
                    best = p;
                }
            }
            loads[best as usize] += 1;
            insert_sorted(&mut replicas[s], best);
            insert_sorted(&mut replicas[d], best);
            out.push(best);
        }
        out
    }

    /// Hub-heavy RMAT (hub–hub edges with large replica sets on both ends),
    /// a star (one set grows to every partition), a clique in both
    /// directions (every intersection non-empty), and self-loops.
    fn oracle_graphs() -> Vec<(&'static str, Graph)> {
        let clique = (0..24u64)
            .flat_map(|u| {
                (0..24)
                    .filter(move |&v| v != u)
                    .map(move |v| Edge::new(u, v))
            })
            .collect();
        let loops = (0..40u64).map(|v| Edge::new(v % 5, v % 5)).collect();
        let rmat_config = RmatConfig {
            scale: 8,
            edges: 2048,
            ..Default::default()
        };
        vec![
            ("rmat", rmat(&rmat_config, 7)),
            (
                "star",
                Graph::new(400, (1..400).map(|v| Edge::new(0, v)).collect()),
            ),
            ("clique", Graph::new(24, clique)),
            ("loops", Graph::new(5, loops)),
        ]
    }

    /// Part counts on both sides of every replica-word edge up to five words.
    const ORACLE_PARTS: [PartId; 12] = [1, 2, 7, 63, 64, 65, 127, 128, 129, 200, 256, 300];

    /// `assign_edges` and `assign_source` at every chunking against `want`.
    fn assert_matches_oracle(
        p: &dyn Partitioner,
        g: &Graph,
        n: PartId,
        want: &[PartId],
        ctx: &str,
    ) {
        assert_eq!(p.assign_edges(g, n), want, "{} {ctx} n={n}", p.name());
        for chunk in [1usize, 97, 1 << 20] {
            let mut got = Vec::new();
            p.assign_source(g, n, chunk, &mut |_, a| got.extend_from_slice(a))
                .expect("resident sources cannot fail");
            assert_eq!(got, want, "{} {ctx} n={n} chunk={chunk}", p.name());
        }
    }

    #[test]
    fn greedy_equals_the_sorted_set_oracle() {
        for (name, g) in oracle_graphs() {
            for n in ORACLE_PARTS {
                // Slack 1.0 keeps the cap tight, so rules fall through.
                for balance_slack in [1.5, 1.0] {
                    let want = reference_greedy(&g, n, balance_slack);
                    let ctx = format!("{name} slack={balance_slack}");
                    assert_matches_oracle(&GreedyVertexCut { balance_slack }, &g, n, &want, &ctx);
                }
            }
        }
    }

    #[test]
    fn hdrf_equals_the_sorted_set_oracle() {
        for (name, g) in oracle_graphs() {
            for n in ORACLE_PARTS {
                for lambda in [4.0, 1.0] {
                    let want = reference_hdrf(&g, n, lambda);
                    let ctx = format!("{name} lambda={lambda}");
                    assert_matches_oracle(&Hdrf { lambda }, &g, n, &want, &ctx);
                }
            }
        }
    }

    #[test]
    fn hdrf_extrema_track_the_loads() {
        let g = skewed();
        for n in [1u32, 3, 64, 65] {
            let mut state = HdrfState::new(g.num_vertices(), n, 1.0);
            for e in g.edges() {
                state.push(e);
                let min = state.loads.iter().copied().min().unwrap();
                assert_eq!(state.max_load, state.loads.iter().copied().max().unwrap());
                assert_eq!(state.min_load, min);
                let at_min = state.loads.iter().filter(|&&l| l == min).count();
                assert_eq!(state.at_min_load, at_min);
            }
        }
    }

    #[test]
    fn assignments_are_in_range() {
        let g = skewed();
        for p in [
            Box::new(Dbh) as Box<dyn Partitioner>,
            Box::new(GreedyVertexCut::default()),
            Box::new(Hdrf::default()),
        ] {
            for n in [2u32, 7, 16] {
                let a = p.assign_edges(&g, n);
                assert_eq!(a.len(), g.num_edges() as usize);
                assert!(a.iter().all(|&x| x < n), "{} out of range", p.name());
            }
        }
    }

    #[test]
    fn greedy_collocates_shared_endpoints() {
        // A path assigned greedily should mostly reuse partitions along the
        // chain, yielding far fewer cut vertices than random.
        let g = Graph::new(101, (0..100).map(|v| Edge::new(v, v + 1)).collect());
        let greedy = PartitionMetrics::of(&GreedyVertexCut::default().partition(&g, 8));
        let random = PartitionMetrics::of(&GraphXStrategy::RandomVertexCut.partition(&g, 8));
        assert!(
            greedy.comm_cost < random.comm_cost,
            "greedy {} vs random {}",
            greedy.comm_cost,
            random.comm_cost
        );
    }

    #[test]
    fn hdrf_beats_random_on_replication() {
        let g = skewed();
        let hdrf = PartitionMetrics::of(&Hdrf::default().partition(&g, 16));
        let random = PartitionMetrics::of(&GraphXStrategy::RandomVertexCut.partition(&g, 16));
        assert!(
            hdrf.replication_factor < random.replication_factor,
            "hdrf {} vs random {}",
            hdrf.replication_factor,
            random.replication_factor
        );
    }

    #[test]
    fn hdrf_is_balanced() {
        let g = skewed();
        let m = PartitionMetrics::of(&Hdrf::default().partition(&g, 16));
        assert!(m.balance < 1.5, "balance {}", m.balance);
    }

    #[test]
    fn dbh_cuts_high_degree_endpoint() {
        // Star: hub 0 has high degree, leaves degree 1; DBH hashes by the
        // leaf, so each leaf stays whole and the hub absorbs all cuts.
        let g = Graph::new(64, (1..64).map(|v| Edge::new(0, v)).collect());
        let m = PartitionMetrics::of(&Dbh.partition(&g, 8));
        assert_eq!(m.cut, 1, "only the hub is cut");
        assert_eq!(m.non_cut, 63);
    }

    #[test]
    fn hybrid_cut_spreads_only_hub_in_edges() {
        // Star into vertex 0 (in-degree 63 < threshold 100): all in-edges
        // collocate; with threshold 10 they spread by source.
        let g = Graph::new(64, (1..64).map(|v| Edge::new(v, 0)).collect());
        let collocated = HybridCut { threshold: 100 }.assign_edges(&g, 8);
        assert!(collocated.windows(2).all(|w| w[0] == w[1]));
        let spread = HybridCut { threshold: 10 }.assign_edges(&g, 8);
        let mut distinct = spread.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > 1, "hub in-edges must spread");
    }

    #[test]
    fn hybrid_cut_keeps_low_degree_vertices_whole() {
        let g = skewed();
        let m = PartitionMetrics::of(&HybridCut::default().partition(&g, 16));
        let rvc = PartitionMetrics::of(&GraphXStrategy::RandomVertexCut.partition(&g, 16));
        assert!(
            m.non_cut > rvc.non_cut,
            "hybrid {} vs rvc {}",
            m.non_cut,
            rvc.non_cut
        );
    }

    #[test]
    fn streaming_partitioners_are_deterministic() {
        let g = skewed();
        assert_eq!(
            Hdrf::default().assign_edges(&g, 8),
            Hdrf::default().assign_edges(&g, 8)
        );
        assert_eq!(
            GreedyVertexCut::default().assign_edges(&g, 8),
            GreedyVertexCut::default().assign_edges(&g, 8)
        );
    }
}
