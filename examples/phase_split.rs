//! Where a converging job's wall time goes, phase by phase.
//!
//! Runs the `road-sssp` benchmark workload's two jobs — SSSP from five
//! landmarks to its fixpoint and connected components capped at ten
//! supersteps, on a quarter-size RoadNet-PA cut 2D into 64 partitions,
//! checkpointing every 25 supersteps — through
//! [`PreparedRun::run_traced`] with the host's clock, and prints each job's
//! [`RunTrace`](cutfit::engine::RunTrace): summed milliseconds and call
//! counts per phase of the superstep loop. A warm-up pass runs first so the
//! handle's lazily built index parts are in place, as they are for the
//! benchmark's warm pass; their one-time cost is printed from that pass.
//!
//! ```text
//! cargo run --release --example phase_split [scale] [seed]
//! ```

use std::sync::Arc;
use std::time::Instant;

use cutfit::algorithms::{ConnectedComponents, Sssp};
use cutfit::engine::{Phase, RunTrace};
use cutfit::prelude::*;
use cutfit::util::clock::Clock;

fn print_trace(job: &str, supersteps: u64, wall_ms: f64, trace: &RunTrace) {
    println!("{job}: {supersteps} supersteps, {wall_ms:.1} ms");
    for phase in Phase::ALL {
        let span = trace.span(phase);
        if span.calls > 0 {
            let ms = span.nanos as f64 / 1e6;
            println!(
                "  {:<16}{ms:>10.1} ms {:>8} calls",
                phase.name(),
                span.calls
            );
        }
    }
    let traced_ms = trace.total_nanos() as f64 / 1e6;
    println!("  {:<16}{:>10.1} ms", "untraced", wall_ms - traced_ms);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.25);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);

    let graph = DatasetProfile::road_net_pa().generate(scale, seed);
    let landmarks = Sssp::pick_landmarks(graph.num_vertices(), 5, seed);
    let pg = Arc::new(GraphXStrategy::EdgePartition2D.partition(&graph, 64));
    let mut cluster = ClusterConfig::paper_cluster();
    cluster.scenario.checkpoint_interval = 25;
    println!(
        "RoadNet-PA × {scale}: {} vertices, {} edges, 2D into 64 partitions",
        graph.num_vertices(),
        graph.num_edges()
    );

    let mut prepared = PreparedRun::new(pg, &cluster, ExecutorMode::Sequential);
    let opts = |max_iterations| PregelConfig {
        max_iterations,
        ..PregelConfig::default()
    };
    let sssp = Sssp::new(landmarks);
    for pass in ["cold", "warm"] {
        println!("\n{pass} pass");
        let clock = Clock::system();
        let wall = Instant::now();
        let (r, trace) = prepared
            .run_traced(&sssp, &opts(10_000), &clock)
            .expect("checkpoints keep the lineage within memory");
        print_trace(
            "sssp",
            r.supersteps,
            wall.elapsed().as_secs_f64() * 1e3,
            &trace,
        );
        let wall = Instant::now();
        let (r, trace) = prepared
            .run_traced(&ConnectedComponents, &opts(10), &clock)
            .expect("ten supersteps fit");
        print_trace(
            "cc",
            r.supersteps,
            wall.elapsed().as_secs_f64() * 1e3,
            &trace,
        );
    }
}
