//! Scenario campaign — the mixed-workload serving comparison of
//! `workload_mixed`, re-run under *degraded* clusters: the same PR+CC+TR+
//! SSSP policy grid (every fixed GraphX cut, advisor-tailored metric mode,
//! advisor-tailored probed mode) is served once per scenario preset
//! (`uniform`, `heterogeneous`, `straggler`, `congested`, `faulty`,
//! `messy`) and billed with provisioning, straggler slack, checkpoint
//! writes, and failure recovery included.
//!
//! The question the campaign answers: does the paper's tailor-the-cut
//! argument survive contact with a realistic cluster, or do faults and
//! stragglers wash out the partitioning signal? Each scenario cell prints
//! its own tailored-vs-best-fixed verdict so the answer is legible per
//! degradation mode, not just in aggregate.
//!
//! Scenarios are deterministic: every fault schedule, speed grade, and
//! drift rate is a pure function of the `--seed` flag, so two runs with
//! the same arguments produce bit-identical tables; `--csv` prints them
//! machine-readably.

use cutfit_bench::runner::{emit, BenchArgs};
use cutfit_core::prelude::*;
use cutfit_core::util::fmt::human_seconds;
use cutfit_core::util::table::{Align, AsciiTable};

fn serve(mut ws: Workspace, jobs: &[Job]) -> (WorkloadReport, Workspace) {
    let ordered = ws.schedule(jobs);
    let report = ws.run_workload(&ordered);
    (report, ws)
}

fn main() {
    let args = BenchArgs::parse(
        "scenario_campaign",
        "serve PR+CC+TR+SSSP under fixed vs tailored cuts across degraded-cluster scenarios",
        0.005,
        &[64],
    );
    args.banner("Scenario campaign: tailoring under faults, stragglers, drift, and recovery");
    let np = args.parts[0];

    let datasets = match &args.datasets {
        Some(_) => args.profiles(),
        None => vec![DatasetProfile::pocek()],
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

            let mut t = AsciiTable::new([
                "policy",
                "jobs",
                "provisioning",
                "recovery",
                "slack",
                "ckpt",
                "total",
                "switches",
                "fails",
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
            ]);

            let mut best_fixed: Option<(&'static str, f64)> = None;
            let mut row = |policy: String, report: &WorkloadReport, ws: &Workspace| {
                let session = ws.session_report();
                t.row([
                    policy,
                    human_seconds(report.job_seconds()),
                    human_seconds(report.provisioning_seconds()),
                    human_seconds(report.recovery_seconds() + session.recovery_seconds),
                    human_seconds(report.straggler_slack_seconds()),
                    (report.checkpoint_bytes() / 1_000_000).to_string() + " MB",
                    human_seconds(report.total_seconds()),
                    report.cut_switches().to_string(),
                    report.failures().to_string(),
                ]);
            };

            for strategy in GraphXStrategy::all() {
                let jobs: Vec<Job> = suite
                    .iter()
                    .map(|a| Job::fixed(a.clone(), strategy, np))
                    .collect();
                let ws = Workspace::new(graph.clone(), cluster.clone(), args.executor())
                    .with_base_parts(np);
                let (report, ws) = serve(ws, &jobs);
                let total = report.total_seconds();
                if report.failures() == 0 && best_fixed.is_none_or(|(_, best)| total < best) {
                    best_fixed = Some((strategy.abbrev(), total));
                }
                row(format!("fixed {}", strategy.abbrev()), &report, &ws);
            }

            let jobs: Vec<Job> = suite
                .iter()
                .map(|a| Job::advised_at(a.clone(), np))
                .collect();
            let metric_ws =
                Workspace::new(graph.clone(), cluster.clone(), args.executor()).with_base_parts(np);
            let (metric_advised, metric_ws) = serve(metric_ws, &jobs);
            row("advised (metric)".to_string(), &metric_advised, &metric_ws);

            let ws = Workspace::new(graph.clone(), cluster.clone(), args.executor())
                .with_base_parts(np)
                .with_advice_mode(AdviceMode::Probed);
            let (advised, ws) = serve(ws, &jobs);
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
                         -> {delta:+.1}% [recovery {}, slack {}, {} executor failures]",
                        human_seconds(tailored),
                        human_seconds(best),
                        human_seconds(recovery),
                        human_seconds(advised.straggler_slack_seconds()),
                        advised.executor_failures(),
                    );
                    if tailored <= best {
                        println!(
                            "[{scenario_name}] tailoring wins (or ties) under this degradation."
                        );
                    } else {
                        println!("[{scenario_name}] fixed cut wins under this degradation.");
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
