//! Experiment E11b — streaming-partitioner ablation (our extension):
//! compare the paper's six hash strategies against four vertex-cut
//! baselines from the literature (DBH, PowerGraph-Greedy, HDRF, Hybrid) on
//! the same metrics and on PageRank runtime.
//!
//! Question answered: do the paper's conclusions (optimise CommCost for
//! edge-bound work) still select the right partitioner when smarter,
//! stateful partitioners join the candidate set?

use cutfit_bench::runner::{emit, BenchArgs};
use cutfit_core::partition::all_partitioners;
use cutfit_core::prelude::*;
use cutfit_core::util::fmt::{human_seconds, thousands};
use cutfit_core::util::table::{Align, AsciiTable};

fn main() {
    let args = BenchArgs::parse(
        "ablation_streaming",
        "hash vs streaming partitioners (metrics + PageRank runtime)",
        0.005,
        &[128],
    );
    args.banner("Ablation: streaming vertex cuts vs the paper's six");
    let np = args.parts[0];
    let cluster = ClusterConfig::paper_cluster();

    for profile in args.profiles() {
        let graph = profile.generate(args.scale, args.seed);
        if !args.csv {
            println!(
                "--- {} ({} vertices, {} edges) ---",
                profile.name,
                thousands(graph.num_vertices()),
                thousands(graph.num_edges())
            );
        }
        let mut t = AsciiTable::new([
            "partitioner",
            "Balance",
            "Cut",
            "CommCost",
            "ReplFactor",
            "PR time",
        ])
        .aligns(&[
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
        for partitioner in all_partitioners() {
            let pg = partitioner.partition_threaded(&graph, np, args.worker_threads());
            let m = PartitionMetrics::of(&pg);
            let pr = cutfit_core::algorithms::pagerank(
                &pg,
                &cluster,
                10,
                &PregelConfig {
                    executor: args.executor(),
                    ..Default::default()
                },
            )
            .expect("PageRank fits in memory");
            t.row([
                partitioner.name().to_string(),
                format!("{:.2}", m.balance),
                thousands(m.cut),
                thousands(m.comm_cost),
                format!("{:.3}", m.replication_factor),
                human_seconds(pr.sim.total_seconds),
            ]);
        }
        emit(&t, args.csv);
    }
    if !args.csv {
        println!(
            "expected shape:\n\
             - DBH/Greedy/HDRF/Hybrid cut replication well below the six hash\n\
             \x20 strategies at balance <= 1.6 and win PageRank outright."
        );
    }
}
