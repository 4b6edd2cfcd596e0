//! Experiment E10 — §4's infrastructure study: PageRank on follow-dec at
//! 256 partitions under three hardware configurations.
//!
//! * configuration (ii): 1 Gbps network, HDFS on HDD (baseline);
//! * configuration (iii): 40 Gbps network, HDD — paper: ~15 % faster;
//! * configuration (iv): 40 Gbps network, local SSD — paper: ~20 % faster.
//!
//! The paper's conclusion: the better the infrastructure, the bigger the
//! relative payoff of choosing a good partitioner — which this binary also
//! quantifies by printing the best-vs-worst partitioner gap per config.

use cutfit_bench::runner::{emit, BenchArgs};
use cutfit_core::prelude::*;
use cutfit_core::util::fmt::human_seconds;
use cutfit_core::util::table::{Align, AsciiTable};

fn main() {
    let args = BenchArgs::parse(
        "infra_experiment",
        "network/storage upgrade study (paper section 4, configs ii-iv)",
        0.01,
        &[256],
    );
    args.banner("Infrastructure experiment: PageRank on follow-dec");

    let profile = match &args.datasets {
        Some(names) if !names.is_empty() => {
            DatasetProfile::by_name(&names[0]).expect("known dataset")
        }
        _ => DatasetProfile::follow_dec(),
    };
    let graph = profile.generate(args.scale, args.seed);
    let np = args.parts[0];
    let algorithm = Algorithm::PageRank { iterations: 10 };

    let configs = [
        ClusterConfig::config_ii(),
        ClusterConfig::config_iii(),
        ClusterConfig::config_iv(),
    ];

    let mut t = AsciiTable::new([
        "config",
        "partitioner",
        "time",
        "vs config-ii",
        "network",
        "storage",
    ])
    .aligns(&[
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let mut spread = AsciiTable::new(["config", "best", "worst", "partitioner payoff"]).aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);

    // Per configuration, the fastest and slowest of the six finite runs.
    // One workspace per cluster: the cluster fixes the bill, the cuts are
    // built once for all six cells.
    let results: Vec<Option<((&'static str, SimReport), f64)>> = configs
        .iter()
        .map(|cluster| {
            let mut ws = Workspace::new(graph.clone(), cluster.clone(), args.executor());
            let mut times: Vec<(&'static str, SimReport)> = Vec::new();
            for strategy in GraphXStrategy::all() {
                match ws.run_job_isolated(&algorithm, strategy, np).result {
                    // A non-finite simulated time means a broken run, not a
                    // fast one — log it and keep ranking the rest instead of
                    // letting a NaN abort the whole sweep below.
                    Ok(sim) if !sim.total_seconds.is_finite() => eprintln!(
                        "skipping {} on {}: non-finite simulated time {}",
                        strategy.abbrev(),
                        cluster.name,
                        sim.total_seconds
                    ),
                    Ok(sim) => times.push((strategy.abbrev(), sim)),
                    Err(e) => eprintln!("skipping {} on {}: {e}", strategy.abbrev(), cluster.name),
                }
            }
            let worst = times
                .iter()
                .map(|(_, s)| s.total_seconds)
                .fold(0.0f64, f64::max);
            let best = times
                .into_iter()
                .min_by(|a, b| a.1.total_seconds.total_cmp(&b.1.total_seconds))?;
            Some((best, worst))
        })
        .collect();

    // A configuration whose six runs all failed prints `fail` in every cell.
    let fail = || "fail".to_string();
    let base = results[0].as_ref().map(|((_, sim), _)| sim.total_seconds);
    for (cluster, result) in configs.iter().zip(&results) {
        let Some(((name, best), worst)) = result else {
            t.row([cluster.name.clone(), fail(), fail(), fail(), fail(), fail()]);
            spread.row([cluster.name.clone(), fail(), fail(), fail()]);
            continue;
        };
        let vs_base = base.map_or_else(fail, |base| {
            format!("{:+.1}%", (best.total_seconds - base) / base * 100.0)
        });
        t.row([
            cluster.name.clone(),
            name.to_string(),
            human_seconds(best.total_seconds),
            vs_base,
            human_seconds(best.network_seconds),
            human_seconds(best.storage_seconds),
        ]);
        spread.row([
            cluster.name.clone(),
            human_seconds(best.total_seconds),
            human_seconds(*worst),
            format!("{:.1}%", (worst - best.total_seconds) / worst * 100.0),
        ]);
    }
    emit(&t, args.csv);
    if !args.csv {
        println!("partitioner choice payoff per configuration (best vs worst of the six):");
    }
    emit(&spread, args.csv);
    if !args.csv {
        println!(
            "paper: config (iii) ~15% faster than (ii), config (iv) ~20% faster;\n\
             and better infrastructure amplifies the relative partitioner payoff."
        );
    }
}
