//! Experiment E11c — granularity sweep (our extension of the paper's
//! config (i)/(ii) comparison): per algorithm and dataset, sweep the
//! partition count across a range and report how the best strategy and the
//! runtime move. The paper shows that granularity changes both the runtime
//! *and the identity of the best partitioner*; this binary maps the whole
//! curve instead of two points.

use cutfit_bench::runner::{emit, BenchArgs};
use cutfit_core::prelude::*;
use cutfit_core::util::fmt::human_seconds;
use cutfit_core::util::table::{Align, AsciiTable};

fn main() {
    let args = BenchArgs::parse(
        "ablation_granularity",
        "partition-count sweep per algorithm and dataset",
        0.005,
        &[32, 64, 128, 256, 512],
    );
    args.banner("Ablation: granularity sweep");
    let cluster = ClusterConfig::paper_cluster();

    let datasets = match &args.datasets {
        Some(_) => args.profiles(),
        None => vec![
            DatasetProfile::pocek(),
            DatasetProfile::orkut(),
            DatasetProfile::follow_dec(),
        ],
    };
    let algorithms = [
        Algorithm::PageRank { iterations: 10 },
        Algorithm::ConnectedComponents { max_iterations: 10 },
    ];

    let mut tables: Vec<AsciiTable> = algorithms
        .iter()
        .map(|_| {
            AsciiTable::new(["dataset", "parts", "best", "best time", "worst time"]).aligns(&[
                Align::Left,
                Align::Right,
                Align::Left,
                Align::Right,
                Align::Right,
            ])
        })
        .collect();
    for profile in &datasets {
        let graph = profile.generate(args.scale, args.seed);
        for &np in &args.parts {
            // One workspace per (dataset, granularity): PR and CC run on the
            // same six cuts, so each is built once. A workspace keeps every
            // cut it builds, so one per dataset would hold all thirty at
            // once: about 0.75 GiB at the default scale.
            let mut ws = Workspace::new(graph.clone(), cluster.clone(), args.executor());
            for (algorithm, t) in algorithms.iter().zip(&mut tables) {
                let mut best: Option<(&'static str, f64)> = None;
                let mut worst = 0.0f64;
                for strategy in GraphXStrategy::all() {
                    let Some(time) = ws.run_job_isolated(algorithm, strategy, np).time_s() else {
                        continue;
                    };
                    worst = worst.max(time);
                    if best.map_or(true, |(_, bt)| time < bt) {
                        best = Some((strategy.abbrev(), time));
                    }
                }
                if let Some((name, time)) = best {
                    t.row([
                        profile.name.to_string(),
                        np.to_string(),
                        name.to_string(),
                        human_seconds(time),
                        human_seconds(worst),
                    ]);
                }
            }
        }
    }
    for (algorithm, t) in algorithms.iter().zip(&tables) {
        if !args.csv {
            println!("--- {} ---", algorithm.abbrev());
        }
        emit(t, args.csv);
    }
    if !args.csv {
        println!(
            "paper finding to compare: \"partitioning depends on (i) the number of\n\
             partitions, (ii) the application operation and (iii) the properties of\n\
             the graph\" — the best column should not be constant down a dataset."
        );
    }
}
