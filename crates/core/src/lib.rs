//! # cutfit-core — tailor the partitioning to the computation
//!
//! The public facade of the `cutfit` workspace: re-exports the full stack
//! (graphs, generators, partitioners, the simulated cluster, the Pregel
//! engine, algorithms, statistics) and adds the two pieces the paper
//! contributes on top:
//!
//! * [`advisor::Advisor`] — encodes the paper's conclusions as actionable
//!   heuristics ("communication-bound algorithm on a large dataset → 2D;
//!   small dataset → DC; per-vertex-state-heavy → compare by Cut") and a
//!   measured mode that picks the partitioner minimising the right metric
//!   for a concrete graph;
//! * [`experiment::run_experiment`] — the grid harness behind Figures 3–6:
//!   dataset × partitioner × granularity runs, correlation of simulated
//!   time against every partitioning metric, best-partitioner tables;
//! * [`session::Workspace`] — the serving layer: one loaded graph, cuts
//!   memoized per (strategy, granularity, orientation) with their metrics
//!   and engine [`PreparedRun`] handles, jobs
//!   dispatched advisor-tailored with end-to-end workload accounting
//!   (initial load + repartition charges on cut switches).

pub mod advisor;
pub mod experiment;
pub mod session;

pub use advisor::{Advisor, GranularityHint, MeasuredChoice, Recommendation};
pub use experiment::{run_experiment, ExperimentConfig, ExperimentResult, Observation};
pub use session::{
    AdviceMode, CacheStats, CutChoice, CutKey, Job, JobOutcome, WorkloadReport, Workspace,
};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::advisor::{Advisor, GranularityHint, MeasuredChoice, Recommendation};
    pub use crate::experiment::{run_experiment, ExperimentConfig, ExperimentResult, Observation};
    pub use crate::session::{
        AdviceMode, CacheStats, CutChoice, CutKey, Job, JobOutcome, WorkloadReport, Workspace,
    };
    pub use cutfit_algorithms::{
        connected_components, pagerank, sssp, triangle_count, Algorithm, AlgorithmClass,
    };
    pub use cutfit_cluster::{
        ClusterConfig, ClusterSim, FrontierProfile, ScenarioConfig, SimError, SimReport, Storage,
    };
    pub use cutfit_datagen::{DatasetProfile, ProfileKind};
    pub use cutfit_engine::{
        run_pregel, ExecutorMode, Messages, PregelConfig, PreparedRun, Triplet, VertexProgram,
    };
    pub use cutfit_graph::{Edge, Graph, GraphBuilder, VertexId};
    pub use cutfit_partition::{
        assign_all, sweep_metrics, GraphXStrategy, MetricKind, PartitionMetrics, PartitionedGraph,
        Partitioner,
    };
}

pub use cutfit_algorithms as algorithms;
pub use cutfit_cluster as cluster;
pub use cutfit_datagen as datagen;
pub use cutfit_engine as engine;
pub use cutfit_graph as graph;
pub use cutfit_partition as partition;
pub use cutfit_stats as stats;
pub use cutfit_util as util;

pub use prelude::*;
