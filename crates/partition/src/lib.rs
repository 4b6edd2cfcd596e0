//! Vertex-cut edge partitioning: strategies, the partitioned-graph
//! representation, and the characterization metrics of the paper.
//!
//! GraphX partitions a graph by distributing its **edges** across `N`
//! partitions and replicating every vertex into each partition that holds
//! one of its edges (a *vertex cut*). Which edges land together is decided
//! by a [`Partitioner`]; the paper studies four partitioners that ship with
//! GraphX plus two it proposes ([`GraphXStrategy`]), and we add four
//! vertex-cut baselines from the literature ([`streaming`]) for ablations.
//! Each strategy is one [`Rule`]; the [`Partitioner`] trait's provided
//! methods apply it to a resident graph, on several threads, or to a
//! chunked source.
//!
//! The quality of a partitioning is summarised by the five metrics of §3.1
//! ([`PartitionMetrics`]): Balance, Non-Cut vertices, Cut vertices,
//! Communication Cost, and the standard deviation of edge-partition sizes.
//!
//! The pipeline is **assignment-first**: a raw per-edge assignment is the
//! cheap currency — metrics come straight from it in one streaming pass
//! ([`PartitionMetrics::of_assignment`]), and whole candidate sets are
//! scored by one fused edge scan ([`sweep::sweep_metrics`]). The full
//! [`PartitionedGraph`] (local id maps, routing tables, masters) is built
//! only when a computation will actually *run* on the partitioning.

pub mod graphx;
pub mod metrics;
pub mod partitioned;
mod replicas;
pub mod strategy;
pub mod streaming;
pub mod sweep;

pub use graphx::GraphXStrategy;
pub use metrics::{MetricKind, MetricsAccumulator, PartitionMetrics};
pub use partitioned::{EdgePartition, PartitionedGraph, RoutingTable, NO_PART};
pub use strategy::{all_partitioners, Partitioner, Rule};
pub use streaming::{Dbh, GreedyVertexCut, Hdrf, HybridCut};
pub use sweep::{assign_all, assign_all_source, sweep_metrics, sweep_metrics_source};
