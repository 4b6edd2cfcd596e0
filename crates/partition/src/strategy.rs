//! The [`Partitioner`] abstraction: one [`Rule`] per strategy, three
//! drivers that apply it.

use cutfit_graph::io::ParseError;
use cutfit_graph::types::PartId;
use cutfit_graph::{Edge, Graph, GraphSource, StreamStats};
use cutfit_util::exec::{fill_chunks, resolve_threads};

use crate::partitioned::PartitionedGraph;

/// A partitioner's decision, specialised to one source and one part count:
/// fills `out[i]` with the partition of `edges[i]` (the slices are aligned).
///
/// Dispatch is per chunk; the per-edge closure handed to [`Rule::pure`] or
/// [`Rule::ordered`] is monomorphized inside the box.
#[allow(clippy::type_complexity)] // the two signatures are what the type says
pub enum Rule<'a> {
    /// A function of the edge and of tables fixed before the first edge
    /// (endpoint hashes, degree tables): any range of the edge list, in any
    /// order, on any thread, gives the same verdicts.
    Pure(Box<dyn Fn(&[Edge], &mut [PartId]) + Sync + 'a>),
    /// Carries state from edge to edge (replica sets, loads): must see the
    /// whole edge list once, in source order, on one thread.
    Ordered(Box<dyn FnMut(&[Edge], &mut [PartId]) + 'a>),
}

impl<'a> Rule<'a> {
    /// A [`Rule::Pure`] from a per-edge function.
    pub fn pure(per_edge: impl Fn(&Edge) -> PartId + Sync + 'a) -> Self {
        Rule::Pure(Box::new(move |edges, out| fill(edges, out, &per_edge)))
    }

    /// A [`Rule::Ordered`] from a per-edge state machine.
    pub fn ordered(mut per_edge: impl FnMut(&Edge) -> PartId + 'a) -> Self {
        Rule::Ordered(Box::new(move |edges, out| fill(edges, out, &mut per_edge)))
    }

    /// Judges the next chunk of the edge list.
    fn apply(&mut self, edges: &[Edge], out: &mut [PartId]) {
        match self {
            Rule::Pure(f) => f(edges, out),
            Rule::Ordered(f) => f(edges, out),
        }
    }
}

fn fill(edges: &[Edge], out: &mut [PartId], mut per_edge: impl FnMut(&Edge) -> PartId) {
    for (slot, e) in out.iter_mut().zip(edges) {
        *slot = per_edge(e);
    }
}

/// Assigns every edge of a graph to one of `num_parts` partitions.
///
/// A strategy defines its [`Rule`] once; the resident, threaded and
/// streamed drivers below are the only code that applies it, so their
/// assignments are bit-identical for every thread count, chunk size and
/// kind of source. Every strategy decides edge by edge, so every one of
/// them streams in O(chunk) edge memory.
///
/// The trait is object-safe so experiment grids can iterate over
/// heterogeneous strategy sets.
pub trait Partitioner {
    /// Short display name ("RVC", "2D", "HDRF", …) as used in the paper's
    /// tables.
    fn name(&self) -> &'static str;

    /// The strategy's decision for `source` cut into `num_parts`. Tables a
    /// rule needs (DBH's and Hybrid's degrees) are built here, from passes
    /// over `source` in bounded chunks; every value the rule writes must be
    /// `< num_parts`.
    fn rule(&self, source: &dyn GraphSource, num_parts: PartId) -> Result<Rule<'_>, ParseError>;

    /// Returns the partition of every edge, aligned with `graph.edges()`.
    fn assign_edges(&self, graph: &Graph, num_parts: PartId) -> Vec<PartId> {
        self.assign_edges_threaded(graph, num_parts, 1)
    }

    /// Like [`Partitioner::assign_edges`], but a [`Rule::Pure`] fills up to
    /// `threads` disjoint ranges of the edge list at once (`0` means
    /// auto-size from the host); a [`Rule::Ordered`] runs on the caller's
    /// thread whatever `threads` says.
    // A resident graph is a source whose passes cannot fail.
    #[allow(clippy::expect_used)]
    fn assign_edges_threaded(
        &self,
        graph: &Graph,
        num_parts: PartId,
        threads: usize,
    ) -> Vec<PartId> {
        let edges = graph.edges();
        let mut out = vec![0 as PartId; edges.len()];
        match self.rule(graph, num_parts).expect("resident source") {
            Rule::Pure(f) => fill_chunks(&mut out, resolve_threads(threads), |offset, chunk| {
                f(&edges[offset..offset + chunk.len()], chunk)
            }),
            Rule::Ordered(mut f) => f(edges, &mut out),
        }
        out
    }

    /// Streams a [`GraphSource`] through the partitioner in bounded-size
    /// chunks: `sink` receives each chunk of edges alongside their
    /// assignments (aligned, same length), in source order, and may discard
    /// them immediately — so the caller's peak edge memory is O(chunk),
    /// beside the rule's own O(V) tables.
    fn assign_source(
        &self,
        source: &dyn GraphSource,
        num_parts: PartId,
        chunk_edges: usize,
        sink: &mut dyn FnMut(&[Edge], &[PartId]),
    ) -> Result<StreamStats, ParseError> {
        let mut rule = self.rule(source, num_parts)?;
        let mut buf: Vec<PartId> = Vec::new();
        source.for_each_chunk(chunk_edges, &mut |chunk| {
            buf.resize(chunk.len(), 0);
            rule.apply(chunk, &mut buf);
            sink(chunk, &buf);
        })
    }

    /// Convenience: assign edges and build the full vertex-cut
    /// representation with routing tables.
    fn partition(&self, graph: &Graph, num_parts: PartId) -> PartitionedGraph {
        let assignment = self.assign_edges(graph, num_parts);
        PartitionedGraph::build(graph, &assignment, num_parts)
    }

    /// Like [`Partitioner::partition`], but fans both the edge assignment
    /// ([`Partitioner::assign_edges_threaded`]) and the materialization
    /// ([`PartitionedGraph::build_threaded`]) out over up to `threads`
    /// workers (`0` means auto). Bit-identical to [`Partitioner::partition`]
    /// at every thread count.
    fn partition_threaded(
        &self,
        graph: &Graph,
        num_parts: PartId,
        threads: usize,
    ) -> PartitionedGraph {
        let assignment = self.assign_edges_threaded(graph, num_parts, threads);
        PartitionedGraph::build_threaded(graph, &assignment, num_parts, threads)
    }
}

/// The paper's six strategies plus the four baselines from the related
/// literature, boxed for grid experiments. Order: the six as in Tables 2–3,
/// then DBH, Greedy, HDRF, Hybrid.
pub fn all_partitioners() -> Vec<Box<dyn Partitioner>> {
    let mut v: Vec<Box<dyn Partitioner>> = crate::graphx::GraphXStrategy::all()
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn Partitioner>)
        .collect();
    v.push(Box::new(crate::streaming::Dbh));
    v.push(Box::new(crate::streaming::GreedyVertexCut::default()));
    v.push(Box::new(crate::streaming::Hdrf::default()));
    v.push(Box::new(crate::streaming::HybridCut::default()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_partitioners_has_ten_unique_names() {
        let names: Vec<&str> = all_partitioners().iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 10);
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "duplicate names in {names:?}");
    }

    #[test]
    fn boxed_partitioner_delegates() {
        let p: Box<dyn Partitioner> = Box::new(crate::graphx::GraphXStrategy::SourceCut);
        assert_eq!(p.name(), "SC");
        let g = Graph::new(4, vec![cutfit_graph::Edge::new(1, 2)]);
        assert_eq!(p.assign_edges(&g, 4), vec![1]);
    }
}
