//! The experiment grid harness behind Figures 3–6 and the appendix tables.
//!
//! One [`run_experiment`] call reproduces one figure: it runs an algorithm
//! over every (dataset, partitioner, granularity) combination, records the
//! simulated execution time next to the partitioning metrics, and computes
//! the Pearson correlation of time against each metric — the number the
//! paper annotates each figure with.

use cutfit_algorithms::Algorithm;
use cutfit_cluster::ClusterConfig;
use cutfit_datagen::DatasetProfile;
use cutfit_engine::ExecutorMode;
use cutfit_graph::types::PartId;
use cutfit_partition::{GraphXStrategy, MetricKind, PartitionMetrics};
use cutfit_stats::{pearson, spearman};
use cutfit_util::table::{Align, AsciiTable};

/// Grid parameters for one experiment (one figure of the paper).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Dataset scale factor (1.0 = the paper's full sizes).
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
    /// Granularities to sweep (the paper: 128 and 256).
    pub num_parts: Vec<PartId>,
    /// Datasets to include.
    pub datasets: Vec<DatasetProfile>,
    /// Partitioning strategies to compare.
    pub partitioners: Vec<GraphXStrategy>,
    /// Simulated cluster.
    pub cluster: ClusterConfig,
    /// Engine executor. Every mode produces bit-identical observations —
    /// [`ExecutorMode::Auto`] simply runs the grid on all available cores.
    pub executor: ExecutorMode,
    /// When true, executor memory scales with `scale` so that memory
    /// pressure matches the full-size system (needed for the SSSP
    /// out-of-memory reproduction).
    pub scale_memory: bool,
}

impl ExperimentConfig {
    /// The paper's full grid at the given scale: nine datasets, six
    /// partitioners, 128 and 256 partitions, the base cluster.
    pub fn paper_grid(scale: f64, seed: u64) -> Self {
        Self {
            scale,
            seed,
            num_parts: vec![128, 256],
            datasets: DatasetProfile::all(),
            partitioners: GraphXStrategy::all().to_vec(),
            cluster: ClusterConfig::paper_cluster(),
            executor: ExecutorMode::Sequential,
            scale_memory: false,
        }
    }
}

/// One grid cell: a single run.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Dataset name.
    pub dataset: &'static str,
    /// Partitioner abbreviation.
    pub partitioner: &'static str,
    /// Number of partitions.
    pub num_parts: PartId,
    /// Simulated execution time in seconds (`None` if the run failed).
    pub time_s: Option<f64>,
    /// Failure description (e.g. out of memory), if any.
    pub failure: Option<String>,
    /// Metrics of the executed partitioning.
    pub metrics: PartitionMetrics,
    /// Supersteps executed (0 on failure).
    pub supersteps: u64,
}

/// All observations of one experiment plus derived summaries.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Algorithm abbreviation (PR, CC, TR, SSSP).
    pub algorithm: &'static str,
    /// Every grid cell.
    pub observations: Vec<Observation>,
}

impl ExperimentResult {
    /// Successful observations at a given granularity, each with its time.
    pub fn at(&self, num_parts: PartId) -> impl Iterator<Item = (&Observation, f64)> {
        self.observations
            .iter()
            .filter(move |o| o.num_parts == num_parts)
            .filter_map(|o| Some((o, o.time_s?)))
    }

    /// Pearson correlation between execution time and a metric across all
    /// successful observations at `num_parts` — the figure annotation.
    pub fn correlation(&self, metric: MetricKind, num_parts: PartId) -> Option<f64> {
        let (xs, ys): (Vec<f64>, Vec<f64>) = self.series(metric, num_parts).into_iter().unzip();
        pearson(&xs, &ys)
    }

    /// Spearman (rank) correlation, as a robustness companion.
    pub fn rank_correlation(&self, metric: MetricKind, num_parts: PartId) -> Option<f64> {
        let (xs, ys): (Vec<f64>, Vec<f64>) = self.series(metric, num_parts).into_iter().unzip();
        spearman(&xs, &ys)
    }

    /// The fastest partitioner per dataset at `num_parts`.
    pub fn best_per_dataset(&self, num_parts: PartId) -> Vec<(&'static str, &'static str, f64)> {
        let mut datasets: Vec<&'static str> = Vec::new();
        for o in self
            .observations
            .iter()
            .filter(|o| o.num_parts == num_parts)
        {
            if !datasets.contains(&o.dataset) {
                datasets.push(o.dataset);
            }
        }
        datasets
            .into_iter()
            .filter_map(|d| {
                self.at(num_parts)
                    .filter(|(o, _)| o.dataset == d)
                    .min_by(|(_, a), (_, b)| cutfit_util::num::nan_last_cmp(*a, *b))
                    .map(|(o, time)| (d, o.partitioner, time))
            })
            .collect()
    }

    /// Scatter series (metric value, time) for plotting one configuration.
    pub fn series(&self, metric: MetricKind, num_parts: PartId) -> Vec<(f64, f64)> {
        self.at(num_parts)
            .map(|(o, time)| (o.metrics.get(metric), time))
            .collect()
    }

    /// Renders the full observation table.
    pub fn render(&self) -> String {
        let mut t = AsciiTable::new([
            "dataset",
            "partitioner",
            "parts",
            "time",
            "supersteps",
            "commcost",
            "cut",
            "balance",
            "status",
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
        for o in &self.observations {
            t.row([
                o.dataset.to_string(),
                o.partitioner.to_string(),
                o.num_parts.to_string(),
                o.time_s
                    .map(cutfit_util::fmt::human_seconds)
                    .unwrap_or_else(|| "-".to_string()),
                o.supersteps.to_string(),
                cutfit_util::fmt::thousands(o.metrics.comm_cost),
                cutfit_util::fmt::thousands(o.metrics.cut),
                format!("{:.2}", o.metrics.balance),
                o.failure.clone().unwrap_or_else(|| "ok".to_string()),
            ]);
        }
        t.render()
    }
}

/// Runs the full grid for one algorithm.
///
/// The grid is served by one [`Workspace`](crate::session::Workspace) per
/// dataset: the graph is generated once, its canonical orientation (TR,
/// k-core) is computed once, and every distinct (strategy, granularity)
/// cut is materialized exactly once and reused across the cells that share
/// it. Cells run with one-shot billing
/// ([`Workspace::run_job_isolated`](crate::session::Workspace::run_job_isolated)),
/// so each observation is bit-identical to what a standalone
/// [`Algorithm::run`] would have measured. Metrics of failed cells come
/// from the memoized cut — the partitioning *actually executed* (for TR
/// that is the canonical graph's cut) — with no extra assignment pass.
pub fn run_experiment(algorithm: &Algorithm, config: &ExperimentConfig) -> ExperimentResult {
    let cluster = if config.scale_memory {
        config.cluster.clone().with_memory_scale(config.scale)
    } else {
        config.cluster.clone()
    };
    let mut observations = Vec::new();
    for profile in &config.datasets {
        let graph = profile.generate(config.scale, config.seed);
        let mut workspace = crate::session::Workspace::new(graph, cluster.clone(), config.executor);
        for &np in &config.num_parts {
            for &strategy in &config.partitioners {
                let job = workspace.run_job_isolated(algorithm, strategy, np);
                observations.push(Observation {
                    dataset: profile.name,
                    partitioner: strategy.abbrev(),
                    num_parts: np,
                    time_s: job.time_s(),
                    failure: job.failure(),
                    metrics: job.metrics,
                    supersteps: job.supersteps,
                });
            }
        }
    }
    ExperimentResult {
        algorithm: algorithm.abbrev(),
        observations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 0.002,
            seed: 42,
            num_parts: vec![8, 16],
            // Datasets of very different density, so the size-driven
            // time-vs-CommCost relationship is visible even at this scale.
            datasets: vec![DatasetProfile::youtube(), DatasetProfile::pocek()],
            partitioners: vec![
                GraphXStrategy::RandomVertexCut,
                GraphXStrategy::EdgePartition2D,
                GraphXStrategy::DestinationCut,
            ],
            cluster: ClusterConfig::paper_cluster(),
            executor: ExecutorMode::Sequential,
            scale_memory: false,
        }
    }

    #[test]
    fn grid_covers_all_cells() {
        let r = run_experiment(&Algorithm::PageRank { iterations: 3 }, &tiny_config());
        assert_eq!(r.algorithm, "PR");
        assert_eq!(r.observations.len(), 2 * 2 * 3);
        assert!(r.observations.iter().all(|o| o.time_s.is_some()));
    }

    #[test]
    fn correlation_is_computable_and_strongish() {
        let r = run_experiment(&Algorithm::PageRank { iterations: 3 }, &tiny_config());
        let corr = r
            .correlation(MetricKind::CommCost, 8)
            .expect("enough points");
        assert!(
            corr > 0.0,
            "more communication should cost more time: {corr}"
        );
        assert!(r.rank_correlation(MetricKind::CommCost, 8).is_some());
    }

    #[test]
    fn auto_executor_reproduces_sequential_grid() {
        // The executor mode must never change an observation: same times,
        // same metrics, same supersteps, cell for cell.
        let algo = Algorithm::PageRank { iterations: 3 };
        let seq = run_experiment(&algo, &tiny_config());
        let auto = run_experiment(
            &algo,
            &ExperimentConfig {
                executor: ExecutorMode::Auto,
                ..tiny_config()
            },
        );
        assert_eq!(seq.observations.len(), auto.observations.len());
        for (a, b) in seq.observations.iter().zip(&auto.observations) {
            assert_eq!(a.time_s, b.time_s, "{}/{}", a.dataset, a.partitioner);
            assert_eq!(a.supersteps, b.supersteps);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn best_per_dataset_lists_each_once() {
        let r = run_experiment(
            &Algorithm::ConnectedComponents { max_iterations: 10 },
            &tiny_config(),
        );
        let best = r.best_per_dataset(16);
        assert_eq!(best.len(), 2);
        let names: Vec<&str> = best.iter().map(|(d, _, _)| *d).collect();
        assert!(names.contains(&"YouTube"));
        assert!(names.contains(&"Pocek"));
    }

    #[test]
    fn render_contains_all_rows() {
        let r = run_experiment(&Algorithm::PageRank { iterations: 2 }, &tiny_config());
        let table = r.render();
        assert_eq!(table.lines().count(), 2 + r.observations.len());
        assert!(table.contains("YouTube"));
    }

    #[test]
    fn series_matches_observation_count() {
        let r = run_experiment(&Algorithm::PageRank { iterations: 2 }, &tiny_config());
        assert_eq!(r.series(MetricKind::CommCost, 8).len(), 6);
    }
}
