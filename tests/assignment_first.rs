//! The assignment-first pipeline on realistic workloads: parity between the
//! build-free streaming metrics and the built-graph metrics, bit-identical
//! parallel assignment, and the fused sweep, on RMAT plus the paper's
//! dataset profiles (the property tests in `partition_properties.rs` cover
//! the same invariants on adversarial random multigraphs).

use cutfit::partition::{all_partitioners, assign_all, sweep_metrics};
use cutfit::prelude::*;

const SCALE: f64 = 0.002;

fn workloads() -> Vec<(String, Graph)> {
    let mut graphs = vec![(
        "rmat-10".to_string(),
        cutfit::datagen::rmat(
            &cutfit::datagen::RmatConfig {
                scale: 10,
                edges: 8 * 1024,
                ..Default::default()
            },
            42,
        ),
    )];
    for profile in [
        DatasetProfile::youtube(),
        DatasetProfile::pocek(),
        DatasetProfile::road_net_pa(),
    ] {
        graphs.push((profile.name.to_string(), profile.generate(SCALE, 42)));
    }
    graphs
}

#[test]
fn parallel_assignment_is_bit_identical_on_real_workloads() {
    for (name, graph) in workloads() {
        for partitioner in all_partitioners() {
            let sequential = partitioner.assign_edges(&graph, 64);
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    partitioner.assign_edges_threaded(&graph, 64, threads),
                    sequential,
                    "{} on {name} at {threads} threads",
                    partitioner.name()
                );
            }
        }
    }
}

#[test]
fn streaming_metrics_match_built_metrics_on_real_workloads() {
    // All six GraphX strategies plus the streaming baselines, at partition
    // counts with one-word and multi-word replica sets.
    for (name, graph) in workloads() {
        for partitioner in all_partitioners() {
            for num_parts in [2u32, 16, 64, 129] {
                let assignment = partitioner.assign_edges(&graph, num_parts);
                let streamed = PartitionMetrics::of_assignment(&graph, &assignment, num_parts);
                let built =
                    PartitionMetrics::of(&PartitionedGraph::build(&graph, &assignment, num_parts));
                assert_eq!(
                    streamed,
                    built,
                    "{} on {name} at {num_parts} parts",
                    partitioner.name()
                );
            }
        }
    }
}

#[test]
fn fused_sweep_matches_independent_assignment() {
    let strategies = GraphXStrategy::all();
    for (name, graph) in workloads() {
        for threads in [1usize, 4] {
            let fused = assign_all(&graph, &strategies, 64, threads);
            let metrics = sweep_metrics(&graph, &strategies, 64, threads);
            for (k, strategy) in strategies.iter().enumerate() {
                assert_eq!(
                    fused[k],
                    strategy.assign_edges(&graph, 64),
                    "{strategy} on {name}"
                );
                assert_eq!(
                    metrics[k],
                    PartitionMetrics::of_assignment(&graph, &fused[k], 64),
                    "{strategy} on {name}"
                );
            }
        }
    }
}
