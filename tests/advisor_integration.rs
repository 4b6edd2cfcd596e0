//! Advisor behaviour across the dataset catalogue: the recommendations must
//! be actionable and the measured mode must actually minimise its metric.

use cutfit::prelude::*;

const SCALE: f64 = 0.002;

/// The strategy a [`AdviceMode::Probed`] workspace advises for `algorithm`
/// at 32 parts: every candidate ranked by the simulated time of the
/// algorithm's own short probe.
fn probed_pick(graph: &Graph, algorithm: &Algorithm) -> GraphXStrategy {
    let cluster = ClusterConfig::paper_cluster();
    Workspace::new(graph.clone(), cluster, ExecutorMode::Sequential)
        .with_advice_mode(AdviceMode::Probed)
        .resolve(algorithm, &CutChoice::AdvisedAt { num_parts: 32 })
        .strategy
}

#[test]
fn measured_choice_minimises_the_class_metric() {
    let advisor = Advisor::scaled(SCALE);
    for profile in DatasetProfile::all() {
        let graph = profile.generate(SCALE, 42);
        for class in [AlgorithmClass::EdgeBound, AlgorithmClass::VertexStateBound] {
            let choice = advisor.recommend_measured(class, &graph, 32, &[]);
            // Winner's metric value is the minimum of the ranking.
            let winner_value = choice.ranking[0].1;
            for &(s, v) in &choice.ranking {
                assert!(
                    v >= winner_value,
                    "{}: {s} has {v} < winner {winner_value}",
                    profile.name
                );
            }
            // And it matches a direct measurement.
            let direct =
                PartitionMetrics::of(&choice.strategy.partition(&graph, 32)).get(choice.metric);
            assert_eq!(direct, winner_value, "{}", profile.name);
        }
    }
}

#[test]
fn heuristic_tracks_dataset_size() {
    let advisor = Advisor::scaled(SCALE);
    let small = DatasetProfile::youtube().generate(SCALE, 42);
    let large = DatasetProfile::follow_dec().generate(SCALE, 42);
    let r_small = advisor.recommend(AlgorithmClass::EdgeBound, &small, 128);
    let r_large = advisor.recommend(AlgorithmClass::EdgeBound, &large, 128);
    assert_eq!(r_small.strategy, GraphXStrategy::DestinationCut);
    assert_eq!(r_large.strategy, GraphXStrategy::EdgePartition2D);
    assert!(!r_small.rationale.is_empty());
}

#[test]
fn measured_pick_avoids_the_worst_on_ordinary_social_graphs() {
    let advisor = Advisor::scaled(SCALE);
    let cluster = ClusterConfig::paper_cluster();
    let graph = DatasetProfile::pocek().generate(SCALE, 42);
    let choice = advisor.recommend_measured(AlgorithmClass::EdgeBound, &graph, 32, &[]);
    let mut times = std::collections::HashMap::new();
    for strategy in GraphXStrategy::all() {
        let pg = strategy.partition(&graph, 32);
        let r = cutfit::algorithms::pagerank(&pg, &cluster, 10, &Default::default()).expect("fits");
        times.insert(strategy.abbrev(), r.sim.total_seconds);
    }
    let picked = times[choice.strategy.abbrev()];
    let worst = times.values().copied().fold(0.0f64, f64::max);
    assert!(
        picked < worst,
        "picked {} ({picked}) must beat the worst ({worst})",
        choice.strategy
    );
}

#[test]
fn the_1d_trap_on_crawl_graphs_is_real() {
    // Regression pin for the paper's own tension between Table 2 and
    // Figure 3: on the follow crawls, 1D/SC minimise CommCost (superstar
    // sources collocate their whole out-edge lists) yet lose at runtime to
    // 2D/DC because of the load imbalance they create. Metric-only
    // selection falls into this trap; the probed workspace does not.
    let advisor = Advisor::scaled(SCALE);
    let cluster = ClusterConfig::paper_cluster();
    let graph = DatasetProfile::follow_jul().generate(SCALE, 42);

    let metric_pick = advisor.recommend_measured(AlgorithmClass::EdgeBound, &graph, 32, &[]);
    assert!(
        matches!(
            metric_pick.strategy,
            GraphXStrategy::EdgePartition1D | GraphXStrategy::SourceCut
        ),
        "CommCost is minimised by the out-edge collocators, got {}",
        metric_pick.strategy
    );

    let mut times = std::collections::HashMap::new();
    for strategy in GraphXStrategy::all() {
        let pg = strategy.partition(&graph, 32);
        let r = cutfit::algorithms::pagerank(&pg, &cluster, 10, &Default::default()).expect("fits");
        times.insert(strategy.abbrev(), r.sim.total_seconds);
    }
    let best = times.values().copied().fold(f64::INFINITY, f64::min);
    assert!(
        times[metric_pick.strategy.abbrev()] > best,
        "the trap: min-CommCost is not the fastest on a crawl graph"
    );

    let probe_pick = probed_pick(&graph, &Algorithm::PageRank { iterations: 10 });
    assert!(
        times[probe_pick.abbrev()] < times[metric_pick.strategy.abbrev()],
        "the probe mode escapes the trap"
    );
}

#[test]
fn simulated_pick_lands_near_the_oracle_for_pagerank() {
    // The probe-based mode optimises predicted time directly and should
    // recover most of the best-vs-worst spread everywhere.
    let cluster = ClusterConfig::paper_cluster();
    let algorithm = Algorithm::PageRank { iterations: 10 };
    for profile in [DatasetProfile::pocek(), DatasetProfile::follow_jul()] {
        let graph = profile.generate(SCALE, 42);
        let choice = probed_pick(&graph, &algorithm);
        let mut times = std::collections::HashMap::new();
        for strategy in GraphXStrategy::all() {
            let pg = strategy.partition(&graph, 32);
            let r =
                cutfit::algorithms::pagerank(&pg, &cluster, 10, &Default::default()).expect("fits");
            times.insert(strategy.abbrev(), r.sim.total_seconds);
        }
        let picked = times[choice.abbrev()];
        let worst = times.values().copied().fold(0.0f64, f64::max);
        let best = times.values().copied().fold(f64::INFINITY, f64::min);
        assert!(
            picked <= best + 0.35 * (worst - best),
            "{}: probe picked {choice} ({picked}) vs oracle range [{best}, {worst}]",
            profile.name,
        );
    }
}

#[test]
fn recommendations_cover_both_metric_families() {
    let advisor = Advisor::default();
    let graph = DatasetProfile::youtube().generate(SCALE, 42);
    let edge = advisor.recommend(AlgorithmClass::EdgeBound, &graph, 64);
    let vertex = advisor.recommend(AlgorithmClass::VertexStateBound, &graph, 64);
    assert_eq!(edge.metric, MetricKind::CommCost);
    assert_eq!(vertex.metric, MetricKind::Cut);
}
