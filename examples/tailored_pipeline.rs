//! The "cut to fit" workflow end to end: let the advisor tailor the
//! partitioning to the computation and the dataset, then verify the choice
//! against a naive default (GraphX's RandomVertexCut).
//!
//! ```text
//! cargo run --release --example tailored_pipeline
//! ```

use cutfit::prelude::*;
use cutfit::util::fmt::human_seconds;

fn time_s(ws: &mut Workspace, algo: &Algorithm, strategy: GraphXStrategy) -> f64 {
    ws.run_job_isolated(algo, strategy, 128)
        .time_s()
        .expect("fits in memory")
}

fn main() {
    let cluster = ClusterConfig::paper_cluster();
    let scale = 0.005;
    let advisor = Advisor::scaled(scale);

    for (profile, algo) in [
        (
            DatasetProfile::pocek(),
            Algorithm::PageRank { iterations: 10 },
        ),
        (
            DatasetProfile::follow_jul(),
            Algorithm::ConnectedComponents { max_iterations: 10 },
        ),
        (DatasetProfile::orkut(), Algorithm::Triangles),
    ] {
        let graph = profile.generate(scale, 42);
        println!(
            "=== {} on {} ({} edges) ===",
            algo.abbrev(),
            profile.name,
            graph.num_edges()
        );

        // Heuristic recommendation: from the paper's rules, no preprocessing.
        let heuristic = advisor.recommend(algo.class(), &graph, 128);
        println!("advisor (heuristic): {}", heuristic.strategy);
        println!("  rationale: {}", heuristic.rationale);

        // Measured recommendation: build candidates, compare the right metric.
        let measured = advisor.recommend_measured(algo.class(), &graph, 128, &[]);
        println!(
            "advisor (measured {}): {}  (ranking: {})",
            measured.metric,
            measured.strategy,
            measured
                .ranking
                .iter()
                .map(|(s, v)| format!("{s}={v:.0}"))
                .collect::<Vec<_>>()
                .join(", ")
        );

        // Verify against the naive default, one-shot billing for both runs.
        let mut ws = Workspace::new(graph, cluster.clone(), ExecutorMode::Sequential);
        let t_default = time_s(&mut ws, &algo, GraphXStrategy::RandomVertexCut);
        let t_tailored = time_s(&mut ws, &algo, measured.strategy);
        println!(
            "runtime: RVC default {}, tailored {} -> {:.1}% {}\n",
            human_seconds(t_default),
            human_seconds(t_tailored),
            (t_default - t_tailored).abs() / t_default * 100.0,
            if t_tailored <= t_default {
                "saved by tailoring"
            } else {
                "lost (metric was misleading here)"
            }
        );
    }
}
