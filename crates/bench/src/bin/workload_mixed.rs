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
//! * `advised` — the advisor tailors the strategy per job (measured mode,
//!   memoized) at the same granularity.
//!
//! Jobs are submitted grouped by resolved cut (`Workspace::resolve`), the
//! scheduling the serving layer enables: it minimizes repartition charges
//! for every policy alike, keeping the comparison fair.

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
        "workload_mixed",
        "serve PR+CC+TR+SSSP under fixed cuts vs advisor-tailored cuts",
        0.005,
        &[64],
    );
    args.banner("Mixed workload: fixed cut vs tailored cuts (provisioning included)");
    let cluster = ClusterConfig::paper_cluster();
    let np = args.parts[0];

    let datasets = match &args.datasets {
        Some(_) => args.profiles(),
        None => vec![DatasetProfile::pocek(), DatasetProfile::youtube()],
    };

    for profile in &datasets {
        if !args.csv {
            println!(
                "--- {} (scale {}, {np} parts) ---",
                profile.name, args.scale
            );
        }
        let graph = profile.generate(args.scale, args.seed);
        let suite = Algorithm::paper_suite(args.seed);

        let mut t = AsciiTable::new([
            "policy",
            "PR",
            "CC",
            "TR",
            "SSSP",
            "jobs",
            "provisioning",
            "total",
            "switches",
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
        ]);

        let mut best_fixed: Option<(&'static str, f64)> = None;
        let mut row = |policy: String, report: &WorkloadReport| {
            let time_of = |abbrev: &str| {
                report
                    .jobs
                    .iter()
                    .find(|j| j.algorithm == abbrev)
                    .and_then(|j| j.time_s())
                    .map(human_seconds)
                    .unwrap_or_else(|| "fail".to_string())
            };
            // Frontier health across the workload's successful jobs: the
            // superstep-weighted mean active fraction, plus how many
            // supersteps ran with under 1% of vertices active — the tail
            // the sparse scan path turns into O(active) work.
            let profiles: Vec<_> = report
                .jobs
                .iter()
                .filter_map(|j| j.result.as_ref().ok())
                .map(|r| r.frontier_profile())
                .filter(|p| p.supersteps > 0)
                .collect();
            let steps: u64 = profiles.iter().map(|p| p.supersteps).sum();
            let frontier = if steps == 0 {
                "-".to_string()
            } else {
                let active_sum: f64 = profiles
                    .iter()
                    .map(|p| p.mean_active_fraction * p.supersteps as f64)
                    .sum();
                let low: u64 = profiles.iter().map(|p| p.low_active_supersteps).sum();
                format!("{:.0}% act, {low} lo", 100.0 * active_sum / steps as f64)
            };
            t.row([
                policy,
                time_of("PR"),
                time_of("CC"),
                time_of("TR"),
                time_of("SSSP"),
                human_seconds(report.job_seconds()),
                human_seconds(report.provisioning_seconds()),
                human_seconds(report.total_seconds()),
                report.cut_switches().to_string(),
                frontier,
            ]);
        };

        for strategy in GraphXStrategy::all() {
            let jobs: Vec<Job> = suite
                .iter()
                .map(|a| Job::fixed(a.clone(), strategy, np))
                .collect();
            let ws =
                Workspace::new(graph.clone(), cluster.clone(), args.executor()).with_base_parts(np);
            let (report, _) = serve(ws, &jobs);
            let total = report.total_seconds();
            if report.failures() == 0 && best_fixed.is_none_or(|(_, best)| total < best) {
                best_fixed = Some((strategy.abbrev(), total));
            }
            row(format!("fixed {}", strategy.abbrev()), &report);
        }

        // The paper's metric mode: candidates ranked by the class metric
        // (one fused scan). Shown for the Figure-3-vs-Table-2 tension —
        // a metric winner can lose at runtime.
        let jobs: Vec<Job> = suite
            .iter()
            .map(|a| Job::advised_at(a.clone(), np))
            .collect();
        let metric_ws =
            Workspace::new(graph.clone(), cluster.clone(), args.executor()).with_base_parts(np);
        let (metric_advised, _) = serve(metric_ws, &jobs);
        row("advised (metric)".to_string(), &metric_advised);

        // The serving layer's headline mode: candidates ranked by short
        // class-proxy probes through the session cache, memoized per
        // class.
        let ws = Workspace::new(graph.clone(), cluster.clone(), args.executor())
            .with_base_parts(np)
            .with_advice_mode(AdviceMode::Probed);
        let (advised, ws) = serve(ws, &jobs);
        row("advised (probed)".to_string(), &advised);
        emit(&t, args.csv);

        if let Some((name, best)) = best_fixed {
            let tailored = advised.total_seconds();
            let delta = (best - tailored) / best * 100.0;
            println!(
                "tailored {} vs best fixed cut ({name}) {} -> {delta:+.1}% \
                 [{} cuts cached; one-time advice probes: {} simulated]",
                human_seconds(tailored),
                human_seconds(best),
                ws.cached_cuts(),
                human_seconds(ws.advice_seconds()),
            );
            if tailored <= best {
                println!("tailoring wins (or ties): repartition charges amortize.");
            } else {
                println!("fixed cut wins here: repartition charges outweigh tailoring.");
            }
        }
        println!();
    }
}
