//! Frontier collapse on a converging algorithm, traced superstep by
//! superstep — and what the frontier-driven engine does about it.
//!
//! Part one runs single-source shortest paths from the graph's biggest
//! hubs on an RMAT graph, then prints the active-vertex and scanned-edge
//! fraction of every superstep from [`SimReport::frontier_trace`]: after a
//! few wavefront supersteps the frontier collapses to a sliver, and a
//! dense engine keeps paying O(V + E) per superstep for it. Scale-free
//! graphs have tiny diameters, though, so the collapse is quick and the
//! tail is short — the dense and sparse wall clocks land close together.
//!
//! Part two is the paper's own SSSP-hostile shape: a road network, whose
//! huge diameter makes SSSP run for *hundreds* of supersteps with a thin
//! wavefront — almost the whole run is tail. That is where frontier-driven
//! execution changes the game, and the dense-vs-auto wall clocks show it.
//!
//! In both parts the states and the simulated bill are bit-identical by
//! construction; scan mode only moves the wall clock.
//!
//! ```text
//! cargo run --release --example converging_frontier [rmat_scale] [edge_factor] [road_scale]
//! ```

use std::time::Instant;

use cutfit::engine::PregelResult;
use cutfit::prelude::*;

type SsspResult = PregelResult<Vec<u32>>;

/// Times one SSSP run per scan mode, asserting states and bills match.
/// Returns the auto-mode result plus the (dense, auto) wall clocks.
fn race(
    pg: &PartitionedGraph,
    cluster: &ClusterConfig,
    landmarks: &[VertexId],
) -> (SsspResult, std::time::Duration, std::time::Duration) {
    let run = |scan_mode| {
        let opts = PregelConfig {
            executor: ExecutorMode::Sequential,
            scan_mode,
            ..Default::default()
        };
        let wall = Instant::now();
        let r = sssp(pg, cluster, landmarks.to_vec(), 100_000, &opts).expect("fits in memory");
        (r, wall.elapsed())
    };
    let (dense, dense_wall) = run(ScanMode::Dense);
    let (auto, auto_wall) = run(ScanMode::Auto);
    // Same computation, same bill — the scan mode may only move the clock
    // on *our* wall, never inside the simulation.
    assert_eq!(dense.states, auto.states);
    assert_eq!(dense.sim, auto.sim);
    (auto, dense_wall, auto_wall)
}

fn print_clocks(dense_wall: std::time::Duration, auto_wall: std::time::Duration, bill: f64) {
    println!("\ndense scan:  {dense_wall:>10.2?} wall   (simulated bill {bill:.3}s)");
    println!("auto scan:   {auto_wall:>10.2?} wall   (simulated bill {bill:.3}s — identical)");
    println!(
        "frontier-driven speedup: {:.1}x",
        dense_wall.as_secs_f64() / auto_wall.as_secs_f64().max(1e-9)
    );
}

fn print_profile(report: &SimReport) {
    let profile = report.frontier_profile();
    println!(
        "frontier profile: peak {:.1}% active, mean {:.1}% active, \
         {} of {} supersteps below 1% active",
        100.0 * profile.peak_active_fraction,
        100.0 * profile.mean_active_fraction,
        profile.low_active_supersteps,
        profile.supersteps,
    );
}

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(14);
    let edge_factor: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let road_scale: f64 = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
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

    let (auto, dense_wall, auto_wall) = race(&pg, &cluster, &landmarks);
    println!(
        "\nSSSP from {} hub landmark(s): {} supersteps to convergence",
        landmarks.len(),
        auto.supersteps
    );
    println!("superstep    active vertices      scanned edges");
    for (i, s) in auto.sim.frontier_trace.iter().enumerate() {
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
    print_profile(&auto.sim);
    print_clocks(dense_wall, auto_wall, auto.sim.total_seconds);

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

    let (auto, dense_wall, auto_wall) = race(&road_pg, &cluster, &[0]);
    println!(
        "SSSP from one corner: {} supersteps — a wavefront crawling across \
         the grid, almost all of them tail",
        auto.supersteps
    );
    print_profile(&auto.sim);
    print_clocks(dense_wall, auto_wall, auto.sim.total_seconds);
}
