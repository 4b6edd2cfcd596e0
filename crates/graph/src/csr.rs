//! Compressed sparse row adjacency built from an edge list.
//!
//! Analyses that walk neighbourhoods (BFS, triangles, SCC) need O(1) access
//! to a vertex's neighbours; [`Csr`] provides that with two flat arrays and
//! is built in O(V + E) by counting sort: exact per-vertex counts, one
//! prefix sum, one stable scatter into a single exactly-sized allocation.
//! Neighbour lists are sorted so that set intersections (triangle counting)
//! can run by linear merge.
//!
//! Every stage — counting, scatter, per-vertex sorting, deduplication — can
//! fan out over the shared `cutfit_util::exec` pool (the `*_threaded`
//! constructors); the scatter stays stable under threading (per-worker
//! prefix-sum cursors), so the result is bit-identical to the sequential
//! build at any thread count.

use crate::graph::Graph;
use crate::types::{Edge, VertexId};
use cutfit_util::exec::{fill_chunks, resolve_threads, run_chunked, run_cut_slices, DisjointSlice};

/// Up to two (source, target) adjacency entries contributed by one edge.
type Pairs = (usize, [(VertexId, VertexId); 2]);

/// Compressed sparse row adjacency: `neighbors(v)` is a sorted slice.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
}

impl Csr {
    /// Builds out-neighbour adjacency (`v -> {w : (v, w) in E}`).
    pub fn out_of(graph: &Graph) -> Self {
        Self::out_of_threaded(graph, 1)
    }

    /// [`Csr::out_of`] on up to `threads` workers (`0` = auto); bit-identical
    /// to the sequential build.
    pub fn out_of_threaded(graph: &Graph, threads: usize) -> Self {
        Self::build(graph.num_vertices(), graph.edges(), threads, |e| {
            (1, [(e.src, e.dst), (0, 0)])
        })
    }

    /// Builds in-neighbour adjacency (`v -> {u : (u, v) in E}`).
    pub fn in_of(graph: &Graph) -> Self {
        Self::in_of_threaded(graph, 1)
    }

    /// [`Csr::in_of`] on up to `threads` workers (`0` = auto); bit-identical
    /// to the sequential build.
    pub fn in_of_threaded(graph: &Graph, threads: usize) -> Self {
        Self::build(graph.num_vertices(), graph.edges(), threads, |e| {
            (1, [(e.dst, e.src), (0, 0)])
        })
    }

    /// Builds undirected adjacency over the *simple* version of the graph:
    /// both directions merged, duplicates and self-loops removed.
    pub fn undirected_simple_of(graph: &Graph) -> Self {
        Self::undirected_simple_of_threaded(graph, 1)
    }

    /// [`Csr::undirected_simple_of`] on up to `threads` workers (`0` =
    /// auto); bit-identical to the sequential build.
    pub fn undirected_simple_of_threaded(graph: &Graph, threads: usize) -> Self {
        let threads = resolve_threads(threads);
        let mut csr = Self::build(graph.num_vertices(), graph.edges(), threads, |e| {
            if e.is_loop() {
                (0, [(0, 0), (0, 0)])
            } else {
                (2, [(e.src, e.dst), (e.dst, e.src)])
            }
        });
        csr.dedup_neighbors(threads);
        csr
    }

    /// Counting-sort construction: `pairs_of` maps an edge to its 0–2
    /// adjacency entries. Per-worker counting plus per-(worker, vertex)
    /// prefix-sum cursors keep the scatter stable, so entries of a vertex
    /// appear in edge-list order regardless of the worker count.
    fn build<F>(n: u64, edges: &[Edge], threads: usize, pairs_of: F) -> Self
    where
        F: Fn(&Edge) -> Pairs + Sync,
    {
        let n = n as usize;
        let threads = resolve_threads(threads).clamp(1, edges.len().max(1));

        // Pass 1: exact per-(worker, source) entry counts.
        let mut counts: Vec<Vec<u64>> = (0..threads).map(|_| vec![0u64; n]).collect();
        run_chunked(edges.len(), threads, &mut counts, |range, cnt| {
            for e in &edges[range] {
                let (k, ps) = pairs_of(e);
                for &(s, _) in &ps[..k] {
                    cnt[s as usize] += 1;
                }
            }
        });

        // Merge into global offsets, then turn each worker's count row into
        // its private scatter cursors: worker t writes vertex v's entries at
        // offsets[v] + (entries of v counted by workers < t).
        let mut offsets = vec![0u64; n + 1];
        for cnt in &counts {
            for (v, &c) in cnt.iter().enumerate() {
                offsets[v + 1] += c;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        for v in 0..n {
            let mut next = offsets[v];
            for cnt in counts.iter_mut() {
                let c = cnt[v];
                cnt[v] = next;
                next += c;
            }
        }

        // Pass 2: stable scatter into one exactly-sized allocation.
        let mut targets = vec![0 as VertexId; offsets[n] as usize];
        {
            let cells = DisjointSlice::new(&mut targets);
            run_chunked(edges.len(), threads, &mut counts, |range, cursor| {
                for e in &edges[range] {
                    let (k, ps) = pairs_of(e);
                    for &(s, d) in &ps[..k] {
                        let c = &mut cursor[s as usize];
                        // SAFETY: per-(worker, vertex) scatter regions are
                        // disjoint by the cursor construction above.
                        unsafe { *cells.get_mut(*c as usize) = d };
                        *c += 1;
                    }
                }
            });
        }

        let mut csr = Self { offsets, targets };
        csr.sort_neighbors(threads);
        csr
    }

    /// Sorts every vertex's neighbour block, fanned out over vertex ranges
    /// (each range's blocks are contiguous in `targets`, so ranges shard
    /// the buffer without overlap).
    fn sort_neighbors(&mut self, threads: usize) {
        let (cuts, vert_ranges) = vertex_cuts(&self.offsets, threads);
        let offsets = &self.offsets;
        run_cut_slices(&mut self.targets, &cuts, |k, piece| {
            let base = cuts[k] as u64;
            for v in vert_ranges[k].clone() {
                let lo = (offsets[v] - base) as usize;
                let hi = (offsets[v + 1] - base) as usize;
                piece[lo..hi].sort_unstable();
            }
        });
    }

    /// Removes duplicate neighbours (blocks must already be sorted):
    /// exact unique counts per vertex, one prefix sum, then a parallel
    /// compaction into a single exactly-sized allocation.
    fn dedup_neighbors(&mut self, threads: usize) {
        let n = self.offsets.len() - 1;
        let threads = threads.clamp(1, n.max(1));

        let mut new_offsets = vec![0u64; n + 1];
        {
            let csr = &*self;
            fill_chunks(&mut new_offsets[1..], threads, |offset, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    let mut uniq = 0u64;
                    let mut prev: Option<VertexId> = None;
                    for &t in csr.neighbors((offset + i) as u64) {
                        if prev != Some(t) {
                            uniq += 1;
                            prev = Some(t);
                        }
                    }
                    *slot = uniq;
                }
            });
        }
        for v in 0..n {
            new_offsets[v + 1] += new_offsets[v];
        }

        let mut new_targets = vec![0 as VertexId; new_offsets[n] as usize];
        {
            let csr = &*self;
            let (cuts, vert_ranges) = vertex_cuts(&new_offsets, threads);
            let new_offsets = &new_offsets;
            run_cut_slices(&mut new_targets, &cuts, |k, piece| {
                let base = cuts[k];
                let mut at = new_offsets[vert_ranges[k].start] as usize - base;
                for v in vert_ranges[k].clone() {
                    let mut prev: Option<VertexId> = None;
                    for &t in csr.neighbors(v as u64) {
                        if prev != Some(t) {
                            piece[at] = t;
                            at += 1;
                            prev = Some(t);
                        }
                    }
                }
            });
        }
        self.offsets = new_offsets;
        self.targets = new_targets;
    }

    #[inline]
    fn bounds(&self, v: VertexId) -> (usize, usize) {
        (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        )
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Total number of stored adjacency entries.
    #[inline]
    pub fn num_entries(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Sorted neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = self.bounds(v);
        &self.targets[lo..hi]
    }

    /// Degree of `v` in this adjacency.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        let (lo, hi) = self.bounds(v);
        (hi - lo) as u64
    }
}

/// Vertex ranges of roughly equal count plus the positions in a CSR value
/// buffer where each range's blocks begin and end — the shard boundaries
/// (one per worker, at most `threads`) for the range-parallel passes over
/// whichever offsets array describes that buffer.
fn vertex_cuts(offsets: &[u64], threads: usize) -> (Vec<usize>, Vec<std::ops::Range<usize>>) {
    let n = offsets.len() - 1;
    let chunk = n.div_ceil(threads.clamp(1, n.max(1))).max(1);
    let mut cuts = vec![0usize];
    let mut vert_ranges = Vec::new();
    let mut v = 0;
    while v < n {
        let end = (v + chunk).min(n);
        vert_ranges.push(v..end);
        cuts.push(offsets[end] as usize);
        v = end;
    }
    (cuts, vert_ranges)
}

/// Counts common elements of two sorted slices by linear merge.
pub fn sorted_intersection_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Graph::new(
            4,
            vec![
                Edge::new(0, 2),
                Edge::new(0, 1),
                Edge::new(1, 3),
                Edge::new(2, 3),
            ],
        )
    }

    #[test]
    fn out_adjacency_sorted() {
        let csr = Csr::out_of(&diamond());
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[3]);
        assert_eq!(csr.neighbors(3), &[] as &[VertexId]);
        assert_eq!(csr.degree(0), 2);
    }

    #[test]
    fn in_adjacency() {
        let csr = Csr::in_of(&diamond());
        assert_eq!(csr.neighbors(3), &[1, 2]);
        assert_eq!(csr.neighbors(0), &[] as &[VertexId]);
    }

    #[test]
    fn undirected_simple_merges_and_dedups() {
        let g = Graph::new(
            3,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 0),
                Edge::new(0, 1),
                Edge::new(1, 1),
                Edge::new(1, 2),
            ],
        );
        let csr = Csr::undirected_simple_of(&g);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.neighbors(1), &[0, 2]);
        assert_eq!(csr.neighbors(2), &[1]);
        assert_eq!(csr.num_entries(), 4);
    }

    #[test]
    fn empty_graph_csr() {
        let g = Graph::new(3, vec![]);
        let csr = Csr::out_of(&g);
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_entries(), 0);
        assert_eq!(csr.neighbors(1), &[] as &[VertexId]);
    }

    #[test]
    fn threaded_builds_are_bit_identical() {
        // A graph with skewed degrees, duplicates, and loops so every code
        // path (stable scatter, range sort, dedup compaction) is exercised.
        let mut edges = Vec::new();
        for i in 0..200u64 {
            edges.push(Edge::new(i % 7, (i * 13 + 1) % 50));
            edges.push(Edge::new((i * 31) % 50, i % 7));
        }
        edges.push(Edge::new(3, 3));
        edges.push(Edge::new(0, 1));
        edges.push(Edge::new(0, 1));
        let g = Graph::new(50, edges);
        let seq_out = Csr::out_of(&g);
        let seq_in = Csr::in_of(&g);
        let seq_und = Csr::undirected_simple_of(&g);
        for threads in [2usize, 3, 8, 0] {
            let out = Csr::out_of_threaded(&g, threads);
            let inn = Csr::in_of_threaded(&g, threads);
            let und = Csr::undirected_simple_of_threaded(&g, threads);
            assert_eq!(out.offsets, seq_out.offsets, "out threads={threads}");
            assert_eq!(out.targets, seq_out.targets, "out threads={threads}");
            assert_eq!(inn.offsets, seq_in.offsets, "in threads={threads}");
            assert_eq!(inn.targets, seq_in.targets, "in threads={threads}");
            assert_eq!(und.offsets, seq_und.offsets, "und threads={threads}");
            assert_eq!(und.targets, seq_und.targets, "und threads={threads}");
        }
    }

    #[test]
    fn targets_allocation_is_exact() {
        let g = diamond();
        let csr = Csr::out_of(&g);
        assert_eq!(csr.targets.capacity(), csr.targets.len());
        let und = Csr::undirected_simple_of(&g);
        assert_eq!(und.targets.capacity(), und.targets.len());
    }

    #[test]
    fn intersection_count() {
        assert_eq!(sorted_intersection_count(&[1, 3, 5, 7], &[3, 4, 5, 6]), 2);
        assert_eq!(sorted_intersection_count(&[], &[1]), 0);
        assert_eq!(sorted_intersection_count(&[2, 2], &[2]), 1);
    }
}
