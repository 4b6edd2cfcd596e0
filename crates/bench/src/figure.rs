//! Shared implementation of the Figure 3–6 binaries: run one algorithm over
//! the dataset × partitioner × granularity grid, print the time-vs-metric
//! scatter, the correlation table, the best partitioner per dataset, and
//! the granularity effect — everything the paper reads off each figure.

use cutfit_core::prelude::*;
use cutfit_core::util::fmt::human_seconds;
use cutfit_core::util::table::{Align, AsciiTable};

use cutfit_core::stats::spearman;

use crate::runner::{emit, pct, BenchArgs};

/// Mean Spearman correlation of (metric, time) computed separately per
/// dataset — the size-independent ranking quality of a metric.
pub fn within_dataset_spearman(
    result: &ExperimentResult,
    metric: MetricKind,
    num_parts: u32,
) -> Option<f64> {
    let mut datasets: Vec<&str> = Vec::new();
    for (o, _) in result.at(num_parts) {
        if !datasets.contains(&o.dataset) {
            datasets.push(o.dataset);
        }
    }
    let mut rs = Vec::new();
    for d in datasets {
        let (xs, ys): (Vec<f64>, Vec<f64>) = result
            .at(num_parts)
            .filter(|(o, _)| o.dataset == d)
            .map(|(o, time)| (o.metrics.get(metric), time))
            .unzip();
        if let Some(r) = spearman(&xs, &ys) {
            rs.push(r);
        }
    }
    if rs.is_empty() {
        None
    } else {
        Some(rs.iter().sum::<f64>() / rs.len() as f64)
    }
}

/// What distinguishes one figure binary from another.
pub struct FigureSpec {
    /// Binary name (for usage output).
    pub bin: &'static str,
    /// Figure title.
    pub title: &'static str,
    /// The metric the paper identifies as the best predictor.
    pub headline_metric: MetricKind,
    /// Default dataset scale.
    pub default_scale: f64,
    /// Whether executor memory scales with the dataset (Figure 6 needs
    /// this to reproduce the road-network out-of-memory failures).
    pub scale_memory: bool,
    /// Number of repeats with different algorithm seeds, averaged (the
    /// paper's SSSP uses 5 landmark draws).
    pub repeats: u64,
    /// Builds the algorithm for a given seed.
    pub algorithm: fn(seed: u64) -> Algorithm,
}

/// Runs a figure end to end.
pub fn run_figure(spec: &FigureSpec) {
    let args = BenchArgs::parse(spec.bin, spec.title, spec.default_scale, &[128, 256]);
    args.banner(spec.title);

    // The first run, then the remaining repeats folded into it; times are
    // averaged below.
    let config = ExperimentConfig {
        scale: args.scale,
        seed: args.seed,
        num_parts: args.parts.clone(),
        datasets: args.profiles(),
        partitioners: GraphXStrategy::all().to_vec(),
        cluster: ClusterConfig::paper_cluster(),
        executor: args.executor(),
        scale_memory: spec.scale_memory,
    };
    let run = |r: u64| run_experiment(&(spec.algorithm)(args.seed + r), &config);
    let mut result = run(0);
    for r in 1..spec.repeats {
        for (a, b) in result.observations.iter_mut().zip(run(r).observations) {
            debug_assert_eq!(a.dataset, b.dataset);
            debug_assert_eq!(a.partitioner, b.partitioner);
            a.time_s = match (a.time_s, b.time_s) {
                (Some(x), Some(y)) => Some(x + y),
                // A cell that failed in any repeat is reported failed.
                _ => None,
            };
            a.failure = a.failure.take().or(b.failure);
        }
    }
    if spec.repeats > 1 {
        for o in &mut result.observations {
            if let Some(t) = &mut o.time_s {
                *t /= spec.repeats as f64;
            }
        }
    }

    // 1. Correlation of execution time with every metric, per granularity.
    if !args.csv {
        println!("correlation of execution time with each partitioning metric:");
    }
    let mut corr = AsciiTable::new([
        "parts",
        "Balance",
        "NonCut",
        "Cut",
        "CommCost",
        "PartStDev",
        "ReplFactor",
        "paper-headline",
    ])
    .aligns(&[
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Left,
    ]);
    for &np in &args.parts {
        corr.row([
            np.to_string(),
            pct(result.correlation(MetricKind::Balance, np)),
            pct(result.correlation(MetricKind::NonCut, np)),
            pct(result.correlation(MetricKind::Cut, np)),
            pct(result.correlation(MetricKind::CommCost, np)),
            pct(result.correlation(MetricKind::PartStDev, np)),
            pct(result.correlation(MetricKind::ReplicationFactor, np)),
            format!("{} (paper's predictor)", spec.headline_metric.label()),
        ]);
    }
    emit(&corr, args.csv);

    // 1b. Within-dataset rank correlation: removes the dataset-size effect
    // that dominates the pooled Pearson above, isolating how well each
    // metric ranks *partitioners* inside one dataset — the decision the
    // advisor actually has to make.
    if !args.csv {
        println!("within-dataset mean Spearman correlation (partitioner ranking quality):");
    }
    let mut within = AsciiTable::new([
        "parts",
        "Balance",
        "NonCut",
        "Cut",
        "CommCost",
        "PartStDev",
        "ReplFactor",
    ])
    .aligns(&[
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for &np in &args.parts {
        let mut cells = vec![np.to_string()];
        for metric in MetricKind::all() {
            cells.push(pct(within_dataset_spearman(&result, metric, np)));
        }
        within.row(cells);
    }
    emit(&within, args.csv);

    // 2. Scatter series: time vs headline metric.
    if !args.csv {
        println!(
            "scatter series (x = {}, y = simulated execution time):",
            spec.headline_metric.label()
        );
    }
    let mut scatter = AsciiTable::new(["parts", "dataset", "partitioner", "x-metric", "time"])
        .aligns(&[
            Align::Right,
            Align::Left,
            Align::Left,
            Align::Right,
            Align::Right,
        ]);
    for &np in &args.parts {
        for (o, time) in result.at(np) {
            scatter.row([
                np.to_string(),
                o.dataset.to_string(),
                o.partitioner.to_string(),
                format!("{:.0}", o.metrics.get(spec.headline_metric)),
                human_seconds(time),
            ]);
        }
    }
    emit(&scatter, args.csv);

    // 3. Best partitioner per dataset, per granularity.
    if !args.csv {
        println!("best partitioner per dataset:");
    }
    let mut best = AsciiTable::new(["parts", "dataset", "best", "time"]).aligns(&[
        Align::Right,
        Align::Left,
        Align::Left,
        Align::Right,
    ]);
    for &np in &args.parts {
        for (dataset, partitioner, time) in result.best_per_dataset(np) {
            best.row([
                np.to_string(),
                dataset.to_string(),
                partitioner.to_string(),
                human_seconds(time),
            ]);
        }
    }
    emit(&best, args.csv);

    // 4. Granularity effect: best time per dataset, coarse vs fine.
    if args.parts.len() >= 2 {
        let (coarse, fine) = (args.parts[0], args.parts[1]);
        if !args.csv {
            println!("granularity effect (best time at {coarse} vs {fine} partitions):");
        }
        let mut g = AsciiTable::new(["dataset", "coarse", "fine", "fine vs coarse"]).aligns(&[
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
        let coarse_best = result.best_per_dataset(coarse);
        let fine_best = result.best_per_dataset(fine);
        for (d, _, tc) in &coarse_best {
            if let Some((_, _, tf)) = fine_best.iter().find(|(fd, _, _)| fd == d) {
                g.row([
                    d.to_string(),
                    human_seconds(*tc),
                    human_seconds(*tf),
                    format!("{:+.1}%", (tf - tc) / tc * 100.0),
                ]);
            }
        }
        emit(&g, args.csv);
    }

    // 5. Failures (the paper: SSSP on the road networks never finished).
    let failures: Vec<&Observation> = result
        .observations
        .iter()
        .filter(|o| o.failure.is_some())
        .collect();
    if !failures.is_empty() && !args.csv {
        println!("runs that did not complete (excluded from plots, as in the paper):");
        let mut seen: Vec<(&str, &str)> = Vec::new();
        for o in failures {
            if !seen.contains(&(o.dataset, o.partitioner)) {
                seen.push((o.dataset, o.partitioner));
                println!(
                    "  {} / {} @ {} parts: {}",
                    o.dataset,
                    o.partitioner,
                    o.num_parts,
                    o.failure.as_deref().unwrap_or("unknown")
                );
            }
        }
        println!();
    }
}
