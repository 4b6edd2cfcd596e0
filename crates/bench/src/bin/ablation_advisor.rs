//! Experiment E11a — advisor validation (our extension of the paper's §6):
//!
//! 1. For every (algorithm, dataset) pair, compare the advisor's heuristic
//!    pick and its measured pick against the empirically fastest of the six
//!    partitioners; report the "regret" (time lost vs the oracle).
//! 2. Validate the SC/DC locality bet: destroy vertex-ID locality by
//!    shuffling IDs and show how much the modulo partitioners degrade while
//!    the hash partitioners stay put.

use cutfit_bench::runner::{emit, BenchArgs};
use cutfit_core::prelude::*;
use cutfit_core::util::table::{Align, AsciiTable};

fn main() {
    let args = BenchArgs::parse(
        "ablation_advisor",
        "advisor validation + ID-locality ablation",
        0.005,
        &[128],
    );
    args.banner("Ablation: advisor quality and the SC/DC locality bet");
    let np = args.parts[0];
    let cluster = ClusterConfig::paper_cluster();
    let advisor = Advisor::scaled(args.scale);

    // --- Part 1: advisor vs oracle. ---
    let algorithms = [
        Algorithm::PageRank { iterations: 10 },
        Algorithm::ConnectedComponents { max_iterations: 10 },
        Algorithm::Triangles,
    ];
    let mut t = AsciiTable::new([
        "algorithm",
        "dataset",
        "oracle",
        "heuristic",
        "measured",
        "heuristic regret",
        "measured regret",
    ])
    .aligns(&[
        Align::Left,
        Align::Left,
        Align::Left,
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
    ]);
    let mut heuristic_regrets = Vec::new();
    let mut measured_regrets = Vec::new();
    for profile in args.profiles() {
        let graph = profile.generate(args.scale, args.seed);
        for algorithm in &algorithms {
            let mut times: Vec<(GraphXStrategy, f64)> = Vec::new();
            for strategy in GraphXStrategy::all() {
                match algorithm.run(&graph, &strategy, np, &cluster, args.executor()) {
                    // A non-finite time is a broken run; log and skip it
                    // rather than letting a NaN abort the oracle ranking.
                    Ok(out) if !out.sim.total_seconds.is_finite() => {
                        eprintln!(
                            "skipping {} on {} ({}): non-finite simulated time {}",
                            strategy.abbrev(),
                            profile.name,
                            algorithm.abbrev(),
                            out.sim.total_seconds
                        );
                    }
                    Ok(out) => times.push((strategy, out.sim.total_seconds)),
                    Err(_) => continue,
                }
            }
            if times.is_empty() {
                continue;
            }
            let oracle = times
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .copied()
                .expect("non-empty");
            let heuristic = advisor.recommend(algorithm.class(), &graph, np).strategy;
            let measured = advisor
                .recommend_measured_threaded(
                    algorithm.class(),
                    &graph,
                    np,
                    &[],
                    args.worker_threads(),
                )
                .strategy;
            let time_of = |s: GraphXStrategy| {
                times
                    .iter()
                    .find(|(x, _)| *x == s)
                    .map(|(_, t)| *t)
                    .unwrap_or(f64::NAN)
            };
            let regret = |s: GraphXStrategy| (time_of(s) - oracle.1) / oracle.1 * 100.0;
            heuristic_regrets.push(regret(heuristic));
            measured_regrets.push(regret(measured));
            t.row([
                algorithm.abbrev().to_string(),
                profile.name.to_string(),
                oracle.0.abbrev().to_string(),
                heuristic.abbrev().to_string(),
                measured.abbrev().to_string(),
                format!("{:+.1}%", regret(heuristic)),
                format!("{:+.1}%", regret(measured)),
            ]);
        }
    }
    emit(&t, args.csv);
    if !args.csv {
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        println!(
            "average regret vs oracle: heuristic {:+.1}%, measured {:+.1}%\n",
            avg(&heuristic_regrets),
            avg(&measured_regrets)
        );
    }

    // --- Part 2: the locality bet. ---
    if !args.csv {
        println!("ID-locality ablation: CommCost with natural vs shuffled vertex IDs");
        println!("(SC/DC bet on ID locality; hash strategies are invariant by design)");
    }
    let mut l = AsciiTable::new([
        "dataset",
        "partitioner",
        "CommCost natural",
        "CommCost shuffled",
        "degradation",
    ])
    .aligns(&[
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for profile in [DatasetProfile::road_net_pa(), DatasetProfile::follow_jul()] {
        let natural = profile.generate(args.scale, args.seed);
        let shuffled = cutfit_core::datagen::relabel::shuffle_ids(&natural, args.seed + 1);
        // Metrics only — the build-free fused sweep scores all six
        // strategies per graph in one edge scan.
        let strategies = GraphXStrategy::all();
        let threads = args.worker_threads();
        let nat = cutfit_core::partition::sweep_metrics(&natural, &strategies, np, threads);
        let shuf = cutfit_core::partition::sweep_metrics(&shuffled, &strategies, np, threads);
        for ((strategy, a), b) in strategies.iter().zip(&nat).zip(&shuf) {
            l.row([
                profile.name.to_string(),
                strategy.abbrev().to_string(),
                cutfit_core::util::fmt::thousands(a.comm_cost),
                cutfit_core::util::fmt::thousands(b.comm_cost),
                format!(
                    "{:+.1}%",
                    (b.comm_cost as f64 - a.comm_cost as f64) / a.comm_cost as f64 * 100.0
                ),
            ]);
        }
    }
    emit(&l, args.csv);

    // --- Part 3: granularity advice sanity check. ---
    if !args.csv {
        println!("granularity advice (paper: PR coarse, CC/TR fine):");
        let suites = Algorithm::paper_suite(args.seed)
            .into_iter()
            .chain(Algorithm::extension_suite());
        for a in suites {
            let hint = Advisor::granularity_typed(a.class(), a.converges());
            println!("  {}: {hint:?}", a.abbrev());
        }
    }
}
