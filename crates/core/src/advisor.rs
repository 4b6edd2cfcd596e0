//! The tailoring advisor: the paper's conclusions as an API.
//!
//! §4 and §6 of the paper distil the evaluation into rules of thumb:
//!
//! * algorithms whose complexity tracks the **edge count** (PageRank, CC,
//!   SSSP) should pick the partitioner minimising **Communication Cost**;
//!   concretely, DC wins on smaller datasets and 2D on large ones;
//! * algorithms with heavy **per-vertex state** (Triangle Count) should
//!   compare partitioners on **Cut vertices** instead;
//! * granularity should be coarse for non-convergent, communication-bound
//!   iteration (PR) and fine for convergent or compute-heavy work (CC up to
//!   22 % faster, TR up to 40 % at 256 partitions).
//!
//! [`Advisor::recommend`] applies those heuristics from dataset summary
//! statistics alone; [`Advisor::recommend_measured`] measures the
//! class-appropriate metric for each candidate and picks the winner —
//! trading a preprocessing pass for a data-backed choice. That pass is
//! assignment-first: one fused parallel edge scan scores every candidate
//! ([`cutfit_partition::sweep_metrics`]); no candidate's full
//! `PartitionedGraph` is ever built.

use cutfit_algorithms::AlgorithmClass;
use cutfit_graph::types::PartId;
use cutfit_graph::Graph;
use cutfit_partition::{GraphXStrategy, MetricKind};

/// Partitioning-granularity advice (the paper's configs i vs ii).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GranularityHint {
    /// Prefer fewer, larger partitions (e.g. 1× cluster cores).
    Coarse,
    /// Prefer more, smaller partitions (e.g. 2× cluster cores).
    Fine,
}

/// A heuristic recommendation.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The partitioning strategy to use.
    pub strategy: GraphXStrategy,
    /// The metric this algorithm class should optimise.
    pub metric: MetricKind,
    /// Granularity advice.
    pub granularity: GranularityHint,
    /// Human-readable justification quoting the underlying rule.
    pub rationale: String,
}

/// A measured recommendation: every candidate's metric value, plus the
/// winner.
#[derive(Debug, Clone)]
pub struct MeasuredChoice {
    /// Winning strategy.
    pub strategy: GraphXStrategy,
    /// Metric used for the comparison.
    pub metric: MetricKind,
    /// `(strategy, metric value)` for every candidate, ascending by value.
    pub ranking: Vec<(GraphXStrategy, f64)>,
}

/// Total ascending order for ranking metric/time values: NaN (either sign —
/// `total_cmp` alone would put -NaN *first*) sorts after every number, so a
/// broken measurement can never panic the sort or be crowned the winner.
/// The shared definition lives in [`cutfit_util::num::nan_last_cmp`]; this
/// alias keeps the advisor's call sites reading as ranking.
use cutfit_util::num::nan_last_cmp as rank_order;

/// The tailoring advisor.
///
/// ```
/// use cutfit_core::prelude::*;
///
/// let graph = DatasetProfile::youtube().generate(0.002, 42);
/// let advisor = Advisor::scaled(0.002);
/// let rec = advisor.recommend(AlgorithmClass::EdgeBound, &graph, 128);
/// assert_eq!(rec.metric, MetricKind::CommCost);
/// assert_eq!(rec.strategy, GraphXStrategy::DestinationCut); // small dataset
/// ```
#[derive(Debug, Clone)]
pub struct Advisor {
    /// Edge count above which a dataset counts as "large" (the paper's
    /// DC-vs-2D boundary sits between socLiveJournal's 69 M and
    /// follow-jul's 137 M edges at full scale). Scale this with your data.
    pub large_edges_threshold: u64,
}

impl Default for Advisor {
    fn default() -> Self {
        Self {
            large_edges_threshold: 100_000_000,
        }
    }
}

impl Advisor {
    /// An advisor whose size threshold is scaled by the same factor as a
    /// generated dataset (so profile-generated graphs classify the same way
    /// their full-size originals would).
    pub fn scaled(scale: f64) -> Self {
        Self {
            large_edges_threshold: (100_000_000.0 * scale) as u64,
        }
    }

    /// Applies the paper's heuristics to dataset summary statistics.
    pub fn recommend(
        &self,
        class: AlgorithmClass,
        graph: &Graph,
        num_parts: PartId,
    ) -> Recommendation {
        let edges = graph.num_edges();
        match class {
            AlgorithmClass::EdgeBound => {
                let large = edges >= self.large_edges_threshold;
                let strategy = if large {
                    GraphXStrategy::EdgePartition2D
                } else {
                    GraphXStrategy::DestinationCut
                };
                Recommendation {
                    strategy,
                    metric: MetricKind::CommCost,
                    granularity: GranularityHint::Fine,
                    rationale: format!(
                        "edge-bound computation: optimise CommCost; {} edges is {} the \
                         large-dataset threshold ({}), so {} ({} partitions requested)",
                        edges,
                        if large { "above" } else { "below" },
                        self.large_edges_threshold,
                        if large {
                            "2D bounds replication by 2·sqrt(N)"
                        } else {
                            "DC exploits ID locality on small data"
                        },
                        num_parts,
                    ),
                }
            }
            AlgorithmClass::VertexStateBound => Recommendation {
                strategy: GraphXStrategy::CanonicalRandomVertexCut,
                metric: MetricKind::Cut,
                granularity: GranularityHint::Fine,
                rationale: format!(
                    "per-vertex-state-bound computation: compare partitioners by Cut \
                     vertices; CRVC collocates both edge directions and wins most \
                     fine-grained Triangle-Count configurations in the paper \
                     ({num_parts} partitions requested)"
                ),
            },
        }
    }

    /// Measures the class-appropriate metric for every candidate and
    /// returns the full ranking. `candidates` defaults to the paper's six
    /// when empty.
    ///
    /// This is **assignment-first**: all candidates are scored by one fused
    /// parallel edge scan ([`cutfit_partition::sweep_metrics`]) feeding the
    /// streaming metrics pass — no
    /// [`PartitionedGraph`](cutfit_partition::PartitionedGraph) is ever
    /// built, so
    /// the "measured" mode costs a preprocessing scan rather than six full
    /// partitioning builds. Ties rank in candidate (paper table) order: the
    /// sort is stable and total (`f64::total_cmp`, NaNs explicitly ordered
    /// after every number), so a degenerate metric value can never panic
    /// the comparison or win the ranking.
    pub fn recommend_measured(
        &self,
        class: AlgorithmClass,
        graph: &Graph,
        num_parts: PartId,
        candidates: &[GraphXStrategy],
    ) -> MeasuredChoice {
        self.recommend_measured_threaded(class, graph, num_parts, candidates, 0)
    }

    /// [`Advisor::recommend_measured`] with explicit worker-pool control:
    /// `threads == 0` auto-sizes from the host, `1` stays on the calling
    /// thread (e.g. inside timing harnesses that must not oversubscribe).
    /// The ranking is bit-identical at every thread count.
    pub fn recommend_measured_threaded(
        &self,
        class: AlgorithmClass,
        graph: &Graph,
        num_parts: PartId,
        candidates: &[GraphXStrategy],
        threads: usize,
    ) -> MeasuredChoice {
        let metric = match class {
            AlgorithmClass::EdgeBound => MetricKind::CommCost,
            AlgorithmClass::VertexStateBound => MetricKind::Cut,
        };
        let all = GraphXStrategy::all();
        let candidates: &[GraphXStrategy] = if candidates.is_empty() {
            &all
        } else {
            candidates
        };
        let measured = cutfit_partition::sweep_metrics(graph, candidates, num_parts, threads);
        let mut ranking: Vec<(GraphXStrategy, f64)> = candidates
            .iter()
            .zip(&measured)
            .map(|(&s, metrics)| (s, metrics.get(metric)))
            .collect();
        ranking.sort_by(|a, b| rank_order(a.1, b.1));
        MeasuredChoice {
            strategy: ranking[0].0,
            metric,
            ranking,
        }
    }

    /// The paper's granularity advice, typed on the two axes its table
    /// actually varies over: the algorithm's complexity class and whether
    /// its iteration converges (vertex activity dies out —
    /// [`cutfit_algorithms::Algorithm::converges`]). Non-convergent edge-bound iteration (PR)
    /// pays full communication every superstep and prefers **coarse** cuts;
    /// convergent (CC, up to 22 % faster fine-grained) or per-vertex-state-
    /// heavy (TR, up to 40 % at 256 partitions) work prefers **fine**.
    pub fn granularity_typed(class: AlgorithmClass, converges: bool) -> GranularityHint {
        match (class, converges) {
            (AlgorithmClass::EdgeBound, false) => GranularityHint::Coarse,
            _ => GranularityHint::Fine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_algorithms::Algorithm;
    use cutfit_datagen::{rmat, RmatConfig};
    use cutfit_partition::{PartitionMetrics, Partitioner};

    fn small_graph() -> Graph {
        rmat(&RmatConfig::default(), 1)
    }

    #[test]
    fn edge_bound_small_dataset_gets_dc() {
        let r = Advisor::default().recommend(AlgorithmClass::EdgeBound, &small_graph(), 128);
        assert_eq!(r.strategy, GraphXStrategy::DestinationCut);
        assert_eq!(r.metric, MetricKind::CommCost);
        assert!(r.rationale.contains("below"));
    }

    #[test]
    fn edge_bound_large_dataset_gets_2d() {
        let advisor = Advisor {
            large_edges_threshold: 1_000,
        };
        let r = advisor.recommend(AlgorithmClass::EdgeBound, &small_graph(), 128);
        assert_eq!(r.strategy, GraphXStrategy::EdgePartition2D);
    }

    #[test]
    fn vertex_state_bound_uses_cut_metric() {
        let r = Advisor::default().recommend(AlgorithmClass::VertexStateBound, &small_graph(), 256);
        assert_eq!(r.metric, MetricKind::Cut);
    }

    #[test]
    fn measured_mode_ranks_all_six() {
        let choice = Advisor::default().recommend_measured(
            AlgorithmClass::EdgeBound,
            &small_graph(),
            16,
            &[],
        );
        assert_eq!(choice.ranking.len(), 6);
        assert_eq!(choice.metric, MetricKind::CommCost);
        // Ranking ascending: the winner has the smallest metric.
        for w in choice.ranking.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(choice.strategy, choice.ranking[0].0);
    }

    #[test]
    fn measured_mode_respects_candidate_list() {
        let cands = [GraphXStrategy::SourceCut, GraphXStrategy::EdgePartition1D];
        let choice = Advisor::default().recommend_measured(
            AlgorithmClass::VertexStateBound,
            &small_graph(),
            8,
            &cands,
        );
        assert_eq!(choice.ranking.len(), 2);
        assert!(cands.contains(&choice.strategy));
    }

    #[test]
    fn measured_mode_survives_an_empty_graph() {
        // Zero edges: every metric ties at its degenerate value (balance 1,
        // CommCost/Cut 0). The sort must neither panic on a NaN nor invent
        // an ordering — ties resolve in candidate (paper table) order.
        let graph = Graph::new(100, Vec::new());
        for class in [AlgorithmClass::EdgeBound, AlgorithmClass::VertexStateBound] {
            let choice = Advisor::default().recommend_measured(class, &graph, 16, &[]);
            assert_eq!(choice.ranking.len(), 6);
            assert!(choice.ranking.iter().all(|(_, v)| *v == 0.0));
            assert_eq!(choice.strategy, GraphXStrategy::RandomVertexCut);
            let order: Vec<GraphXStrategy> = choice.ranking.iter().map(|&(s, _)| s).collect();
            assert_eq!(order, GraphXStrategy::all().to_vec(), "stable tie-break");
        }
    }

    #[test]
    fn measured_mode_ties_keep_candidate_order() {
        let graph = Graph::new(4, Vec::new());
        let cands = [GraphXStrategy::DestinationCut, GraphXStrategy::SourceCut];
        let choice =
            Advisor::default().recommend_measured(AlgorithmClass::EdgeBound, &graph, 8, &cands);
        assert_eq!(choice.strategy, GraphXStrategy::DestinationCut);
        assert_eq!(choice.ranking[1].0, GraphXStrategy::SourceCut);
    }

    #[test]
    fn measured_mode_matches_the_built_path() {
        // The assignment-first sweep must reproduce exactly what building
        // each candidate and measuring it would have said.
        let graph = small_graph();
        for class in [AlgorithmClass::EdgeBound, AlgorithmClass::VertexStateBound] {
            let choice = Advisor::default().recommend_measured(class, &graph, 16, &[]);
            for &(s, v) in &choice.ranking {
                let built = PartitionMetrics::of(&s.partition(&graph, 16));
                assert_eq!(v, built.get(choice.metric), "{s}");
            }
        }
    }

    #[test]
    fn rank_order_puts_nan_of_either_sign_last() {
        let mut v = [(0, f64::NAN), (1, -f64::NAN), (2, 1.0), (3, f64::INFINITY)];
        v.sort_by(|a, b| rank_order(a.1, b.1));
        let order: Vec<i32> = v.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, vec![2, 3, 1, 0], "finite < inf < both NaNs");
    }

    #[test]
    fn scaled_threshold() {
        let a = Advisor::scaled(0.01);
        assert_eq!(a.large_edges_threshold, 1_000_000);
    }

    #[test]
    fn granularity_typed_agrees_with_the_algorithms() {
        // The paper's table (PR coarse; CC, SSSP and TR fine) and the
        // extensions: HITS is PR-shaped — always-active, edge-bound — and
        // LPA and k-core are vertex-state-bound like TR.
        let cases = [
            ("PR", GranularityHint::Coarse),
            ("CC", GranularityHint::Fine),
            ("TR", GranularityHint::Fine),
            ("SSSP", GranularityHint::Fine),
            ("HITS", GranularityHint::Coarse),
            ("LPA", GranularityHint::Fine),
            ("KCORE", GranularityHint::Fine),
        ];
        let mut suites = Algorithm::paper_suite(1);
        suites.extend(Algorithm::extension_suite());
        assert_eq!(suites.len(), cases.len());
        for (algo, (abbrev, expected)) in suites.iter().zip(cases) {
            assert_eq!(algo.abbrev(), abbrev, "suite order");
            assert_eq!(
                Advisor::granularity_typed(algo.class(), algo.converges()),
                expected,
                "{abbrev}"
            );
        }
    }
}
