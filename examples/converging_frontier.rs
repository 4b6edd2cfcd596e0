//! Frontier collapse on a converging algorithm, traced superstep by
//! superstep — and what the frontier-driven engine does about it.
//!
//! Part one runs single-source shortest paths from the graph's biggest
//! hubs on an RMAT graph, then prints the active-vertex and scanned-edge
//! fraction of every superstep from [`SimReport::frontier_trace`]: after a
//! few wavefront supersteps the frontier collapses to a sliver. Scale-free
//! graphs have tiny diameters, though, so the collapse is quick and the
//! tail is short.
//!
//! Part two is the paper's own SSSP-hostile shape: a road network, whose
//! huge diameter makes SSSP run for *hundreds* of supersteps with a thin
//! wavefront — almost the whole run is tail. That is where frontier-driven
//! execution pays: those supersteps walk only the frontier's edges and fold
//! the messages by receiver instead of scanning every edge table.
//!
//! Each run goes through [`PreparedRun::run_traced`] with the host's clock,
//! and the example prints how many supersteps folded and where the wall
//! time went, phase by phase. The simulated bill is the same whichever
//! shape a superstep takes; the trace sits beside it.
//!
//! ```text
//! cargo run --release --example converging_frontier [rmat_scale] [edge_factor] [road_scale]
//! ```

use std::sync::Arc;

use cutfit::algorithms::Sssp;
use cutfit::engine::{Phase, PregelResult};
use cutfit::prelude::*;
use cutfit::util::clock::Clock;

/// Runs SSSP to its fixpoint through a traced handle and prints how many
/// supersteps folded and each phase's share of the wall time.
fn traced_sssp(
    pg: PartitionedGraph,
    cluster: &ClusterConfig,
    landmarks: &[VertexId],
) -> PregelResult<Vec<u32>> {
    let mut prepared = PreparedRun::new(Arc::new(pg), cluster, ExecutorMode::Sequential);
    let opts = PregelConfig {
        max_iterations: 100_000,
        ..Default::default()
    };
    let (r, trace) = prepared
        .run_traced(&Sssp::new(landmarks.to_vec()), &opts, &Clock::system())
        .expect("fits in memory");
    println!(
        "\n{} of {} supersteps walked their frontier and folded",
        trace.span(Phase::Fold).calls,
        r.supersteps
    );
    for phase in Phase::ALL {
        let span = trace.span(phase);
        if span.calls > 0 {
            println!(
                "  {:<16}{:>10.2} ms {:>8} calls",
                phase.name(),
                span.nanos as f64 / 1e6,
                span.calls
            );
        }
    }
    r
}

fn print_profile(report: &SimReport) {
    let profile = report.frontier_profile();
    println!(
        "frontier profile: peak {:.1}% active, mean {:.1}% active, \
         {} of {} supersteps below 1% active; simulated bill {:.3}s",
        100.0 * profile.peak_active_fraction,
        100.0 * profile.mean_active_fraction,
        profile.low_active_supersteps,
        profile.supersteps,
        report.total_seconds,
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(14);
    let edge_factor: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);
    let road_scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.05);
    // Hundred-superstep runs accrue shuffle lineage; periodic checkpoints
    // truncate it so the simulated cluster doesn't OOM.
    let mut cluster = ClusterConfig::paper_cluster();
    cluster.scenario.checkpoint_interval = 25;

    // ---- Part one: the collapse, traced on a scale-free graph ----------
    let config = cutfit::datagen::RmatConfig {
        scale,
        edges: (1u64 << scale) * edge_factor,
        ..Default::default()
    };
    let graph = cutfit::datagen::rmat(&config, 42);
    println!(
        "RMAT scale {scale}: {} vertices / {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Shortest paths propagate along *reverse* edges (each vertex learns
    // its distance TO the landmark), so the biggest in-degree hubs are the
    // landmarks every vertex with a path can actually reach.
    let mut by_in_degree: Vec<(u32, VertexId)> = graph
        .in_degrees()
        .iter()
        .enumerate()
        .map(|(v, &d)| (d, v as VertexId))
        .collect();
    by_in_degree.sort_unstable_by_key(|&(d, v)| (std::cmp::Reverse(d), v));
    let landmarks: Vec<VertexId> = by_in_degree.iter().take(3).map(|&(_, v)| v).collect();
    let pg = GraphXStrategy::EdgePartition2D.partition(&graph, 16);

    let r = traced_sssp(pg, &cluster, &landmarks);
    println!(
        "\nSSSP from {} hub landmark(s): {} supersteps to convergence",
        landmarks.len(),
        r.supersteps
    );
    println!("superstep    active vertices      scanned edges");
    for (i, s) in r.sim.frontier_trace.iter().enumerate() {
        let bar_len = (s.active_fraction() * 40.0).ceil() as usize;
        println!(
            "{i:>9}  {:>10} ({:>5.1}%)  {:>9} ({:>5.1}%)  {}",
            s.active_vertices,
            100.0 * s.active_fraction(),
            s.scanned_edges,
            100.0 * s.scanned_fraction(),
            "#".repeat(bar_len),
        );
    }
    println!();
    print_profile(&r.sim);

    // ---- Part two: the payoff, on the paper's road-network shape -------
    let profile = cutfit::datagen::DatasetProfile::road_net_pa();
    let road = profile.generate(road_scale, 42);
    println!(
        "\n{} at scale {road_scale}: {} vertices / {} edges",
        profile.name,
        road.num_vertices(),
        road.num_edges()
    );
    let road_pg = GraphXStrategy::EdgePartition2D.partition(&road, 16);

    let r = traced_sssp(road_pg, &cluster, &[0]);
    println!(
        "SSSP from one corner: {} supersteps — a wavefront crawling across \
         the grid, almost all of them tail",
        r.supersteps
    );
    print_profile(&r.sim);
}
