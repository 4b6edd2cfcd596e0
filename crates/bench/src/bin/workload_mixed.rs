//! Mixed-workload serving comparison — the paper's tailor-vs-one-size-
//! fits-all argument, end to end: serve the four-algorithm suite (PR, CC,
//! TR, SSSP) from one `Workspace` per serving policy and compare **total
//! simulated cost including provisioning** (initial load + a repartition
//! shuffle every time a job switches the active cut).
//!
//! Policies:
//! * one fixed cut per GraphX strategy (the one-size-fits-all baselines) —
//!   TR still forces a canonical-orientation materialization, so even a
//!   fixed-strategy session pays one cut switch for it;
//! * `advised (metric)` — the advisor tailors the strategy per job by the
//!   class metric (one fused scan, memoized) at the same granularity;
//! * `advised (probed)` — the advisor ranks candidates by short probes of
//!   each job through the session cache.
//!
//! The policy grid is served once per scenario preset (`uniform` first,
//! then `heterogeneous`, `straggler`, `congested`, `faulty`, `messy`) and
//! billed with straggler slack, checkpoint writes and failure recovery
//! included. The question the degraded presets answer: does tailoring the
//! cut survive contact with a realistic cluster, or do faults and
//! stragglers wash out the partitioning signal? Each grid prints its own
//! tailored-vs-best-fixed verdict.
//!
//! Jobs are submitted grouped by resolved cut (`Workspace::resolve`), the
//! scheduling the serving layer enables: it minimizes repartition charges
//! for every policy alike, keeping the comparison fair. Every fault
//! schedule, speed grade and drift rate is a pure function of `--seed`, so
//! two runs with the same arguments print identical tables.

use cutfit_bench::runner::{emit, BenchArgs};
use cutfit_core::prelude::*;
use cutfit_core::util::fmt::human_seconds;
use cutfit_core::util::table::{Align, AsciiTable};

fn serve(mut ws: Workspace, jobs: &[Job]) -> (WorkloadReport, Workspace) {
    let ordered = ws.schedule(jobs);
    let report = ws.run_workload(&ordered);
    (report, ws)
}

/// Frontier health across the workload's successful jobs: the
/// superstep-weighted mean active fraction, plus how many supersteps ran
/// with under 1% of vertices active — the tail the sparse scan path turns
/// into O(active) work.
fn frontier(report: &WorkloadReport) -> String {
    let profiles: Vec<_> = report
        .jobs
        .iter()
        .filter_map(|j| j.result.as_ref().ok())
        .map(|r| r.frontier_profile())
        .filter(|p| p.supersteps > 0)
        .collect();
    let steps: u64 = profiles.iter().map(|p| p.supersteps).sum();
    if steps == 0 {
        return "-".to_string();
    }
    let active_sum: f64 = profiles
        .iter()
        .map(|p| p.mean_active_fraction * p.supersteps as f64)
        .sum();
    let low: u64 = profiles.iter().map(|p| p.low_active_supersteps).sum();
    format!("{:.0}% act, {low} lo", 100.0 * active_sum / steps as f64)
}

fn main() {
    let args = BenchArgs::parse(
        "workload_mixed",
        "serve PR+CC+TR+SSSP under fixed vs tailored cuts, per scenario preset",
        0.005,
        &[64],
    );
    args.banner("Mixed workload: fixed cut vs tailored cuts under each scenario preset");
    let np = args.parts[0];

    let datasets = match &args.datasets {
        Some(_) => args.profiles(),
        None => vec![DatasetProfile::pocek(), DatasetProfile::youtube()],
    };

    for profile in &datasets {
        let graph = profile.generate(args.scale, args.seed);
        let suite = Algorithm::paper_suite(args.seed);

        for (scenario_name, scenario) in ScenarioConfig::presets(args.seed) {
            if !args.csv {
                println!(
                    "--- {} / scenario `{scenario_name}` (scale {}, {np} parts) ---",
                    profile.name, args.scale
                );
            }
            let cluster = ClusterConfig::paper_cluster().with_scenario(scenario);
            let session = |mode| {
                Workspace::new(graph.clone(), cluster.clone(), args.executor())
                    .with_base_parts(np)
                    .with_advice_mode(mode)
            };

            let mut t = AsciiTable::new([
                "policy",
                "PR",
                "CC",
                "TR",
                "SSSP",
                "jobs",
                "provisioning",
                "recovery",
                "slack",
                "ckpt",
                "total",
                "switches",
                "fails",
                "frontier",
            ])
            .aligns(&[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
            ]);

            let mut best_fixed: Option<(&'static str, f64)> = None;
            let mut row = |policy: String, report: &WorkloadReport, ws: &Workspace| {
                let time_of = |abbrev: &str| {
                    report
                        .jobs
                        .iter()
                        .find(|j| j.algorithm == abbrev)
                        .and_then(|j| j.time_s())
                        .map(human_seconds)
                        .unwrap_or_else(|| "fail".to_string())
                };
                t.row([
                    policy,
                    time_of("PR"),
                    time_of("CC"),
                    time_of("TR"),
                    time_of("SSSP"),
                    human_seconds(report.job_seconds()),
                    human_seconds(report.provisioning_seconds()),
                    human_seconds(report.recovery_seconds() + ws.session_report().recovery_seconds),
                    human_seconds(report.straggler_slack_seconds()),
                    (report.checkpoint_bytes() / 1_000_000).to_string() + " MB",
                    human_seconds(report.total_seconds()),
                    report.cut_switches().to_string(),
                    report.failures().to_string(),
                    frontier(report),
                ]);
            };

            for strategy in GraphXStrategy::all() {
                let jobs: Vec<Job> = suite
                    .iter()
                    .map(|a| Job::fixed(a.clone(), strategy, np))
                    .collect();
                let (report, ws) = serve(session(AdviceMode::Measured), &jobs);
                let total = report.total_seconds();
                if report.failures() == 0 && best_fixed.map_or(true, |(_, best)| total < best) {
                    best_fixed = Some((strategy.abbrev(), total));
                }
                row(format!("fixed {}", strategy.abbrev()), &report, &ws);
            }

            // The paper's metric mode: candidates ranked by the class
            // metric (one fused scan). Shown for the Figure-3-vs-Table-2
            // tension — a metric winner can lose at runtime.
            let jobs: Vec<Job> = suite
                .iter()
                .map(|a| Job::advised_at(a.clone(), np))
                .collect();
            let (metric_advised, metric_ws) = serve(session(AdviceMode::Measured), &jobs);
            row("advised (metric)".to_string(), &metric_advised, &metric_ws);

            // The serving layer's headline mode: candidates ranked by short
            // probes through the session cache, memoized per algorithm.
            let (advised, ws) = serve(session(AdviceMode::Probed), &jobs);
            row("advised (probed)".to_string(), &advised, &ws);
            emit(&t, args.csv);

            match best_fixed {
                Some((name, best)) if advised.failures() == 0 => {
                    let tailored = advised.total_seconds();
                    let delta = (best - tailored) / best * 100.0;
                    let recovery =
                        advised.recovery_seconds() + ws.session_report().recovery_seconds;
                    println!(
                        "[{scenario_name}] tailored {} vs best fixed cut ({name}) {} \
                         -> {delta:+.1}% [{} cuts cached; one-time advice probes: {} \
                         simulated; recovery {}, slack {}, {} executor failures]",
                        human_seconds(tailored),
                        human_seconds(best),
                        ws.cached_cuts(),
                        human_seconds(ws.advice_seconds()),
                        human_seconds(recovery),
                        human_seconds(advised.straggler_slack_seconds()),
                        advised.executor_failures(),
                    );
                    if tailored <= best {
                        println!(
                            "[{scenario_name}] tailoring wins (or ties): repartition \
                             charges amortize."
                        );
                    } else {
                        println!(
                            "[{scenario_name}] fixed cut wins: repartition charges \
                             outweigh tailoring."
                        );
                    }
                }
                Some(_) => {
                    println!("[{scenario_name}] tailored run lost jobs to failures; no verdict.")
                }
                None => println!(
                    "[{scenario_name}] every fixed policy lost jobs to failures; no verdict."
                ),
            }
            println!();
        }
    }
}
