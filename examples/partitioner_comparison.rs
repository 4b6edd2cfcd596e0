//! Compare all six partitioning strategies of the paper on one dataset:
//! the five characterization metrics side by side with the simulated
//! PageRank runtime each partitioning produces.
//!
//! ```text
//! cargo run --release --example partitioner_comparison [dataset] [scale]
//! ```

use cutfit::prelude::*;
use cutfit::util::fmt::{human_seconds, thousands};
use cutfit::util::table::{Align, AsciiTable};

fn main() {
    let mut args = std::env::args().skip(1);
    let dataset = args.next().unwrap_or_else(|| "Pocek".to_string());
    let scale: f64 = args
        .next()
        .map(|s| s.parse().expect("scale must be a float"))
        .unwrap_or(0.005);
    let profile = DatasetProfile::by_name(&dataset).unwrap_or_else(|| {
        eprintln!("unknown dataset {dataset}; try one of:");
        for p in DatasetProfile::all() {
            eprintln!("  {}", p.name);
        }
        std::process::exit(2);
    });

    let graph = profile.generate(scale, 42);
    let cluster = ClusterConfig::paper_cluster();
    let num_parts = 128;
    println!(
        "{}: {} vertices, {} edges, {num_parts} partitions\n",
        profile.name,
        thousands(graph.num_vertices()),
        thousands(graph.num_edges())
    );

    let mut table = AsciiTable::new([
        "strategy",
        "Balance",
        "NonCut",
        "Cut",
        "CommCost",
        "PartStDev",
        "PR time",
    ])
    .aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let mut best: Option<(GraphXStrategy, f64)> = None;
    for strategy in GraphXStrategy::all() {
        let pg = strategy.partition(&graph, num_parts);
        let m = PartitionMetrics::of(&pg);
        let pr = cutfit::algorithms::pagerank(&pg, &cluster, 10, &Default::default())
            .expect("fits in memory");
        let t = pr.sim.total_seconds;
        if best.map_or(true, |(_, bt)| t < bt) {
            best = Some((strategy, t));
        }
        table.row([
            strategy.abbrev().to_string(),
            format!("{:.2}", m.balance),
            thousands(m.non_cut),
            thousands(m.cut),
            thousands(m.comm_cost),
            format!("{:.1}", m.part_stdev),
            human_seconds(t),
        ]);
    }
    println!("{}", table.render());
    let (winner, time) = best.expect("six strategies ran");
    println!(
        "fastest for PageRank here: {winner} at {} — compare its CommCost column:\n\
         the paper's point is exactly that this metric predicts the winner.",
        human_seconds(time)
    );
}
