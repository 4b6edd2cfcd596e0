//! The four workloads, and what they share: the shape of a run and the
//! oracles the answers are checked against.

use std::path::Path;
use std::sync::Arc;

use cutfit_core::cluster::{ClusterConfig, SimReport};
use cutfit_core::engine::{ExecutorMode, PreparedRun};
use cutfit_core::graph::binfmt::read_binary_file;
use cutfit_core::graph::Graph;
use cutfit_core::partition::{GraphXStrategy, PartitionMetrics, PartitionedGraph, Partitioner};

use crate::ctx::{Ctx, Digest, Pass};

pub mod rmat_pagerank;
pub mod road_sssp;
pub mod select_stream;
pub mod tailored_session;

pub const NAMES: [&str; 4] = [
    "rmat-pagerank",
    "road-sssp",
    "select-stream",
    "tailored-session",
];

/// Partition count of every executed cut (the paper's coarse
/// configuration on its 64-core cluster).
pub const PARTS: u32 = 64;

/// One workload. A run is `setup` (several times, timed as `setup_s`),
/// then repetitions of `cold` followed by `warm`; traced repetitions add
/// `extras`. The library only ever sees what `setup` wrote and built,
/// never the seed.
pub trait Workload {
    /// Files on disk, oracle answers, job parameters.
    type Input;
    /// What a cold pass leaves behind for the warm pass to reuse.
    type Handles;

    /// Generates the graph from `seed`, writes the input files into `dir`,
    /// computes the oracle answers.
    fn setup(seed: u64, dir: &Path, ctx: &mut Ctx) -> Pass<Self::Input>;

    /// From the input file to a complete, checked result set, holding
    /// nothing from earlier repetitions.
    fn cold(input: &Self::Input, ctx: &mut Ctx) -> Pass<Self::Handles>;

    /// The same requests again on the handles of the cold pass.
    fn warm(input: &Self::Input, handles: &mut Self::Handles, ctx: &mut Ctx) -> Pass<()>;

    /// Traced repetitions only, after the warm pass and outside both
    /// passes' time: informational measurements (two-thread variants, the
    /// cut's metrics) that no end-to-end number contains.
    fn extras(input: &Self::Input, handles: &mut Self::Handles, ctx: &mut Ctx) -> Pass<()>;

    /// `(edges of the graph, results one repetition produces)`: the
    /// numerator of `edges_per_s`.
    fn work(input: &Self::Input) -> (u64, u64);
}

/// What identifies a graph: vertex count, edge count and a digest of the
/// edge list in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphId {
    pub vertices: u64,
    pub edges: u64,
    pub digest: u64,
}

impl GraphId {
    pub fn of(graph: &Graph) -> Self {
        GraphId {
            vertices: graph.num_vertices(),
            edges: graph.num_edges(),
            digest: Digest::new()
                .words(graph.edges().iter().flat_map(|e| [e.src, e.dst]))
                .0,
        }
    }
}

/// The one-shot path both engine workloads start cold with: container →
/// `EdgePartition2D` assignment → `PartitionedGraph` → `PreparedRun`.
pub fn decode_cut_prepare(
    container: &Path,
    generated: &GraphId,
    cluster: &ClusterConfig,
    ctx: &mut Ctx,
) -> Pass<PreparedRun> {
    let graph = ctx.op("graph.binfmt.decode", || {
        read_binary_file(container).map_err(|e| e.to_string())
    })?;
    ctx.span("bench.check", |ctx| {
        // Digesting every edge costs a tenth of the decode: once per run.
        let same = if ctx.pin_answers {
            GraphId::of(&graph) == *generated
        } else {
            (graph.num_vertices(), graph.num_edges()) == (generated.vertices, generated.edges)
        };
        ctx.expect("the container round-trips to the generated graph", same);
    });
    let assignment = ctx.call("partition.assign", || {
        GraphXStrategy::EdgePartition2D.assign_edges(&graph, PARTS)
    })?;
    let pg = ctx.call("partition.build", || {
        PartitionedGraph::build(&graph, &assignment, PARTS)
    })?;
    drop((graph, assignment));
    let pg = Arc::new(pg);
    ctx.call("engine.prepare", || {
        PreparedRun::new(pg, cluster, ExecutorMode::Sequential)
    })
}

/// Extras both engine workloads record: how dense the container is, and
/// the metrics of the cut that ran.
pub fn cut_extras(
    container_bytes: u64,
    prepared: &PreparedRun,
    ctx: &mut Ctx,
) -> Pass<PartitionMetrics> {
    let pg = prepared.graph().clone();
    ctx.count_max(
        "graph.binfmt.bytes_per_edge",
        container_bytes as f64 / pg.num_edges() as f64,
    );
    let metrics = ctx.call("partition.metrics", || PartitionMetrics::of(&pg))?;
    count_cut(ctx, &metrics);
    Ok(metrics)
}

/// PageRank agrees with the oracle to a relative 1e-9 on every vertex.
pub fn ranks_close(got: &[f64], oracle: &[f64]) -> bool {
    got.len() == oracle.len()
        && got
            .iter()
            .zip(oracle)
            .all(|(g, o)| (g - o).abs() <= 1e-9 * o.abs())
}

/// Oracle for connected components under a superstep cap: `rounds` rounds
/// of synchronous min-label exchange across every edge, both ways. With
/// the cap out of reach it is `reference_components`.
pub fn capped_components(graph: &Graph, rounds: u64) -> Vec<u64> {
    let mut labels: Vec<u64> = (0..graph.num_vertices()).collect();
    for _ in 0..rounds {
        let mut next = labels.clone();
        for e in graph.edges() {
            let (s, d) = (e.src as usize, e.dst as usize);
            next[d] = next[d].min(labels[s]);
            next[s] = next[s].min(labels[d]);
        }
        if next == labels {
            break;
        }
        labels = next;
    }
    labels
}

/// Capped labels are consistent with the fixpoint oracle: every vertex
/// carries the id of a vertex of its own component, never smaller than
/// the component's smallest.
pub fn labels_within_components(labels: &[u64], fixpoint: &[u64]) -> bool {
    labels.len() == fixpoint.len()
        && labels
            .iter()
            .zip(fixpoint)
            .all(|(&l, &f)| l >= f && fixpoint.get(l as usize) == Some(&f))
}

pub fn digest_f64s(values: &[f64]) -> u64 {
    Digest::new().words(values.iter().map(|v| v.to_bits())).0
}

pub fn digest_u64s(values: &[u64]) -> u64 {
    Digest::new().words(values.iter().copied()).0
}

pub fn digest_distances(states: &[Vec<u32>]) -> u64 {
    Digest::new()
        .words(states.iter().flatten().map(|&d| u64::from(d)))
        .0
}

pub fn digest_metrics(m: &PartitionMetrics) -> u64 {
    Digest::new()
        .words([
            u64::from(m.num_parts),
            m.edges,
            m.vertices_present,
            m.balance.to_bits(),
            m.non_cut,
            m.cut,
            m.comm_cost,
            m.part_stdev.to_bits(),
            m.total_replicas,
            m.replication_factor.to_bits(),
            m.vertices_to_same,
            m.vertices_to_other,
            m.max_part_edges,
            m.min_part_edges,
        ])
        .0
}

/// Adds one job's simulated bill to the repetition's exact counts.
pub fn count_bill(ctx: &mut Ctx, sim: &SimReport) {
    ctx.count("sim_s", sim.total_seconds);
    ctx.count("cluster.sim_compute_s", sim.compute_seconds);
    ctx.count("cluster.sim_network_s", sim.network_seconds);
    ctx.count("cluster.sim_storage_s", sim.storage_seconds);
    ctx.count("cluster.remote_bytes", sim.remote_bytes as f64);
    ctx.count("cluster.checkpoint_bytes", sim.checkpoint_bytes as f64);
    ctx.count_max(
        "cluster.peak_executor_memory_gb",
        sim.peak_executor_memory_gb,
    );
}

/// [`count_bill`] plus what a Pregel job did: the denominators of
/// `engine.superstep_ms` and `engine.scan_edges_per_s`.
pub fn count_job(ctx: &mut Ctx, sim: &SimReport) {
    count_bill(ctx, sim);
    ctx.count("engine.supersteps", sim.supersteps as f64);
    ctx.count("engine.messages", sim.messages as f64);
    let scanned: u64 = sim.frontier_trace.iter().map(|s| s.scanned_edges).sum();
    ctx.count("engine.scanned_edges", scanned as f64);
}

/// The frontier profile of the workload's main job.
pub fn count_frontier(ctx: &mut Ctx, sim: &SimReport) {
    let profile = sim.frontier_profile();
    ctx.count_max(
        "engine.mean_active_x1000",
        (profile.mean_active_fraction * 1000.0).round(),
    );
    ctx.count_max(
        "engine.low_active_supersteps",
        profile.low_active_supersteps as f64,
    );
}

/// The executed cut's metrics, the paper's predictors of `sim_s`.
pub fn count_cut(ctx: &mut Ctx, m: &PartitionMetrics) {
    ctx.count_max("partition.replication_factor", m.replication_factor);
    ctx.count_max("partition.comm_cost", m.comm_cost as f64);
    ctx.count_max("partition.balance", m.balance);
}

pub fn pin_sim(ctx: &mut Ctx, job: &str, sim: &SimReport, supersteps: u64) {
    ctx.answer(format!("{job}.supersteps"), supersteps);
    ctx.answer(format!("{job}.sim_s"), sim.total_seconds.to_bits());
    ctx.answer(format!("{job}.messages"), sim.messages);
    ctx.answer(format!("{job}.remote_bytes"), sim.remote_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_core::algorithms::reference_components;
    use cutfit_core::graph::Edge;

    fn path(n: u64) -> Graph {
        Graph::new(n, (1..n).map(|v| Edge::new(v, v - 1)).collect())
    }

    #[test]
    fn capped_components_stop_at_the_cap_and_reach_the_fixpoint() {
        let g = path(8);
        assert_eq!(capped_components(&g, 2), vec![0, 0, 0, 1, 2, 3, 4, 5]);
        let fixpoint = reference_components(&g);
        assert_eq!(capped_components(&g, 100), fixpoint);
        assert!(labels_within_components(
            &capped_components(&g, 2),
            &fixpoint
        ));
        // A label from another component is caught.
        let two = Graph::new(4, vec![Edge::new(0, 1), Edge::new(2, 3)]);
        assert!(!labels_within_components(
            &[0, 0, 0, 2],
            &reference_components(&two)
        ));
    }

    #[test]
    fn ranks_close_is_relative() {
        assert!(ranks_close(&[1.0, 2e9], &[1.0 + 5e-10, 2e9 + 1.0]));
        assert!(!ranks_close(&[1.0], &[1.0 + 1e-8]));
        assert!(!ranks_close(&[1.0], &[1.0, 1.0]));
    }
}
