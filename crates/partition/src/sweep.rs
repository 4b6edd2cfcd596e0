//! The fused multi-strategy sweep: evaluate many candidate partitionings in
//! one pass over the edge list, without ever building a
//! [`PartitionedGraph`](crate::PartitionedGraph).
//!
//! The paper's selection story only works if choosing a partitioner is a
//! *cheap* preprocessing step. Ranking the six hash strategies by a §3.1
//! metric needs nothing but each strategy's per-edge assignment — yet the
//! naive path assigns, buckets, sorts, deduplicates, and routes six full
//! partitioned graphs just to read one scalar each. This module keeps the
//! sweep assignment-first:
//!
//! * [`assign_all`] scans the edge list **once**, asking every candidate
//!   strategy for its verdict on each edge while the edge is hot in cache,
//!   parallelised over chunked edge ranges;
//! * [`sweep_metrics`] feeds those assignments through the streaming
//!   [`PartitionMetrics::of_assignment`] pass, yielding the exact metrics
//!   [`PartitionMetrics::of`] would compute on the built graph.
//!
//! Only pure hash strategies ([`GraphXStrategy`]) can be fused this way —
//! streaming partitioners (Greedy, HDRF) are order-dependent and must see
//! edges one at a time; score those with
//! [`Partitioner::assign_edges`](crate::Partitioner::assign_edges) followed
//! by [`PartitionMetrics::of_assignment`] instead.
//!
//! [`sweep_metrics`] and [`sweep_metrics_source`] stay two bodies, and
//! neither is user-selected: a resident graph takes the first, a file the
//! second. The resident body judges an edge under all six strategies while
//! it is hot and folds whole assignments; the streamed body works chunk by
//! chunk so that nothing O(E) is ever held. Routing the resident sweep
//! through the streamed body was measured on `benchmark/`'s `select-stream`
//! (same answers): `partition.sweep_resident_s` rose 5–20 % at 16 Ki-edge
//! chunks over four alternating traced pairs (0.61→0.65, 0.52→0.60,
//! 0.55→0.58, 0.50→0.60 s) and 32–79 % with the graph as one chunk. That
//! workload times one body in `cold_s` and the other in `warm_s`, and pins
//! their metrics equal field for field.

use cutfit_graph::io::ParseError;
use cutfit_graph::types::PartId;
use cutfit_graph::{Edge, Graph, GraphSource, StreamStats};
use cutfit_util::exec::{run_chunked, run_ranges, DisjointSlice};

use crate::graphx::GraphXStrategy;
use crate::metrics::{MetricsAccumulator, PartitionMetrics};

/// The workspace-wide "`0` means auto-size from the host" resolution,
/// re-exported from [`cutfit_util::exec`] for the partitioning APIs that
/// take a plain thread count.
pub use cutfit_util::exec::resolve_threads;

/// Assigns every edge under every candidate strategy in a single scan over
/// the edge list, parallelised over chunked edge ranges (`threads == 0`
/// auto-sizes the pool; `1` runs inline).
///
/// Returns one assignment vector per strategy, in `strategies` order, each
/// bit-identical to `strategies[i].assign_edges(graph, num_parts)`.
pub fn assign_all(
    graph: &Graph,
    strategies: &[GraphXStrategy],
    num_parts: PartId,
    threads: usize,
) -> Vec<Vec<PartId>> {
    let edges = graph.edges();
    let threads = resolve_threads(threads);
    let mut outs: Vec<Vec<PartId>> = strategies
        .iter()
        .map(|_| vec![0 as PartId; edges.len()])
        .collect();
    {
        let cells: Vec<DisjointSlice<'_, PartId>> =
            outs.iter_mut().map(|o| DisjointSlice::new(o)).collect();
        run_ranges(edges.len(), threads, |range| {
            for i in range {
                let e = &edges[i];
                for (k, strategy) in strategies.iter().enumerate() {
                    // SAFETY: edge ranges are disjoint across threads, so
                    // index i of every strategy's output has one writer.
                    unsafe {
                        *cells[k].get_mut(i) = strategy.partition_edge(e.src, e.dst, num_parts);
                    }
                }
            }
        });
    }
    outs
}

/// Build-free metrics for every candidate strategy: one fused
/// [`assign_all`] edge scan, then a streaming
/// [`PartitionMetrics::of_assignment`] pass per strategy (fanned out over
/// the pool when `threads` allows).
///
/// Equivalent to `PartitionMetrics::of(&s.partition(graph, num_parts))` for
/// each `s`, at a fraction of the cost: no per-partition edge bucketing,
/// vertex-table sorting, or routing-table construction happens anywhere.
pub fn sweep_metrics(
    graph: &Graph,
    strategies: &[GraphXStrategy],
    num_parts: PartId,
    threads: usize,
) -> Vec<PartitionMetrics> {
    let threads = resolve_threads(threads);
    let assignments = assign_all(graph, strategies, num_parts, threads);
    // One result shard per worker: shard `t` holds the metrics of the
    // `t`-th contiguous run of strategies, so concatenation is in order.
    let mut shards: Vec<Vec<PartitionMetrics>> = vec![Vec::new(); threads];
    run_chunked(strategies.len(), threads, &mut shards, |range, shard| {
        shard.extend(
            range.map(|k| PartitionMetrics::of_assignment(graph, &assignments[k], num_parts)),
        );
    });
    shards.into_iter().flatten().collect()
}

/// Refills `buf` with `strategy`'s verdict on every edge of `chunk`.
fn assign_chunk(
    strategy: GraphXStrategy,
    chunk: &[Edge],
    num_parts: PartId,
    buf: &mut Vec<PartId>,
) {
    buf.clear();
    buf.extend(
        chunk
            .iter()
            .map(|e| strategy.partition_edge(e.src, e.dst, num_parts)),
    );
}

/// [`sweep_metrics`] without a resident edge list: chunks stream off the
/// source once, each strategy's [`MetricsAccumulator`] folds its per-chunk
/// assignments in (fanned out over the pool across strategies), and the
/// assignments are dropped on the spot. Working memory is
/// O(strategies · (V · ⌈parts / 64⌉ + parts + chunk)) — one replica bitmap
/// and one chunk of assignments per strategy; the returned metrics are
/// exactly what [`sweep_metrics`] computes on the materialized graph
/// (pinned by tests).
///
/// Also returns the pass's [`StreamStats`] so callers can bill or assert
/// the bounded-memory claim.
pub fn sweep_metrics_source(
    source: &dyn GraphSource,
    strategies: &[GraphXStrategy],
    num_parts: PartId,
    chunk_edges: usize,
    threads: usize,
) -> Result<(Vec<PartitionMetrics>, StreamStats), ParseError> {
    let threads = resolve_threads(threads);
    let n = source.num_vertices();
    // Each strategy owns an accumulator and a chunk-sized assignment buffer:
    // assigning the whole chunk before folding it in keeps the bitmap's
    // read-modify-writes off the hash's dependency chain.
    let mut accs: Vec<(MetricsAccumulator, Vec<PartId>)> = strategies
        .iter()
        .map(|_| (MetricsAccumulator::new(n, num_parts), Vec::new()))
        .collect();
    let stats = source.for_each_chunk(chunk_edges, &mut |chunk| {
        let cells = DisjointSlice::new(&mut accs);
        run_ranges(strategies.len(), threads, |range| {
            for k in range {
                // SAFETY: strategy indices are disjoint across threads.
                let (acc, buf) = unsafe { &mut *cells.get_mut(k) };
                assign_chunk(strategies[k], chunk, num_parts, buf);
                acc.observe_chunk(chunk, buf);
            }
        });
    })?;
    Ok((accs.into_iter().map(|(a, _)| a.finish()).collect(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Partitioner;
    use cutfit_graph::Edge;

    fn graph() -> Graph {
        cutfit_datagen::rmat(
            &cutfit_datagen::RmatConfig {
                scale: 9,
                edges: 4096,
                ..Default::default()
            },
            7,
        )
    }

    #[test]
    fn assign_all_matches_per_strategy_assignment() {
        let g = graph();
        let strategies = GraphXStrategy::all();
        for threads in [1usize, 2, 4, 0] {
            let fused = assign_all(&g, &strategies, 16, threads);
            for (k, s) in strategies.iter().enumerate() {
                assert_eq!(fused[k], s.assign_edges(&g, 16), "{s} threads={threads}");
            }
        }
    }

    #[test]
    fn sweep_metrics_matches_built_metrics() {
        let g = graph();
        let strategies = GraphXStrategy::all();
        let swept = sweep_metrics(&g, &strategies, 32, 2);
        for (k, s) in strategies.iter().enumerate() {
            let built = PartitionMetrics::of(&s.partition(&g, 32));
            assert_eq!(swept[k], built, "{s}");
        }
    }

    #[test]
    fn sweep_handles_empty_graph_and_candidate_subsets() {
        let g = Graph::new(10, Vec::new());
        let subset = [GraphXStrategy::SourceCut, GraphXStrategy::EdgePartition2D];
        let swept = sweep_metrics(&g, &subset, 8, 1);
        assert_eq!(swept.len(), 2);
        for m in &swept {
            assert_eq!(m.edges, 0);
            assert_eq!(m.balance, 1.0, "empty partitioning is balanced");
            assert_eq!(m.part_stdev, 0.0);
        }
        assert!(assign_all(&g, &[], 8, 2).is_empty());
    }

    #[test]
    fn sweep_metrics_source_matches_resident() {
        let g = graph();
        let strategies = GraphXStrategy::all();
        let resident = sweep_metrics(&g, &strategies, 32, 1);
        for (chunk, threads) in [(64usize, 1usize), (511, 3), (1 << 20, 0)] {
            let (streamed, stats) =
                sweep_metrics_source(&g, &strategies, 32, chunk, threads).unwrap();
            assert_eq!(streamed, resident, "chunk={chunk} threads={threads}");
            assert_eq!(stats.edges, g.num_edges());
        }
    }

    #[test]
    fn resolve_threads_contract() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn single_edge_graph_sweeps_cleanly() {
        let g = Graph::new(3, vec![Edge::new(0, 2)]);
        let swept = sweep_metrics(&g, &GraphXStrategy::all(), 4, 3);
        for m in swept {
            assert_eq!(m.edges, 1);
            assert_eq!(m.vertices_present, 2);
            assert_eq!(m.cut, 0);
        }
    }
}
