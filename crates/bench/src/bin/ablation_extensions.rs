//! Experiment E11d — extension-algorithm taxonomy validation (ours): run
//! the three algorithms the paper never measured (HITS, Label Propagation,
//! k-core) over the dataset × partitioner grid and check which metric
//! predicts their runtime.
//!
//! The paper's conclusion predicts the outcome: algorithms shipping
//! fixed-size per-vertex state (HITS, like PageRank) should follow
//! CommCost; algorithms shipping degree-proportional state (k-core, like
//! Triangle Count) should follow vertex-oriented metrics instead. This
//! binary tests that prediction out of sample.

use cutfit_bench::figure::within_dataset_spearman;
use cutfit_bench::runner::{emit, pct, BenchArgs};
use cutfit_core::prelude::*;
use cutfit_core::util::table::{Align, AsciiTable};

fn main() {
    let args = BenchArgs::parse(
        "ablation_extensions",
        "taxonomy validation on HITS / LPA / k-core",
        0.004,
        &[128],
    );
    args.banner("Ablation: does the paper's taxonomy predict new algorithms?");
    let np = args.parts[0];

    let mut t = AsciiTable::new([
        "algorithm",
        "class",
        "Balance",
        "NonCut",
        "Cut",
        "CommCost",
        "PartStDev",
        "ReplFactor",
        "best-within-dataset",
    ])
    .aligns(&[
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Left,
    ]);

    for algorithm in Algorithm::extension_suite() {
        let config = ExperimentConfig {
            scale: args.scale,
            seed: args.seed,
            num_parts: vec![np],
            datasets: args.profiles(),
            partitioners: GraphXStrategy::all().to_vec(),
            cluster: ClusterConfig::paper_cluster(),
            executor: args.executor(),
            scale_memory: false,
        };
        let result = run_experiment(&algorithm, &config);

        // Within-dataset mean Spearman per metric: the partitioner-ranking
        // question the advisor needs answered.
        let mut best: Option<(MetricKind, f64)> = None;
        let mut cells: Vec<String> = vec![
            algorithm.abbrev().to_string(),
            format!("{:?}", algorithm.class()),
        ];
        for metric in MetricKind::all() {
            let mean = within_dataset_spearman(&result, metric, np);
            if let Some(m) = mean {
                if best.map_or(true, |(_, b)| m > b) {
                    best = Some((metric, m));
                }
            }
            cells.push(pct(mean));
        }
        cells.push(
            best.map(|(k, _)| k.label().to_string())
                .unwrap_or_else(|| "n/a".to_string()),
        );
        t.row(cells);
    }
    emit(&t, args.csv);
    if !args.csv {
        println!(
            "prediction from the paper's taxonomy: HITS (EdgeBound) should rank\n\
             best under CommCost/ReplFactor; k-core and LPA (VertexStateBound)\n\
             should shift toward vertex- and balance-oriented metrics, as\n\
             Triangle Count does in Figure 5."
        );
    }
}
