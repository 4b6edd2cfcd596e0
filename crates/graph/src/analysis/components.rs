//! Connected components — Table 1's "Conn.Comp." column.
//!
//! The paper uses weakly connected components for undirected datasets and
//! GraphX's strongly-connected-components for directed ones. We provide
//! both: WCC via a union-find with path halving and union by size, SCC via
//! an iterative Tarjan (explicit stack, so million-vertex graphs don't
//! overflow the call stack).

use crate::csr::Csr;
use crate::graph::Graph;
use crate::types::VertexId;
use cutfit_util::num::{vid_index, vid_u32};

/// Component labelling: `labels[v]` identifies the component of `v`;
/// labels are the smallest vertex id in the component for WCC, and
/// arbitrary-but-distinct ids for SCC.
#[derive(Debug, Clone)]
pub struct ComponentLabels {
    /// Per-vertex component label.
    pub labels: Vec<VertexId>,
    /// Number of distinct components.
    pub count: u64,
}

impl ComponentLabels {
    /// Size of each component as `(label, size)`, **ascending by label** —
    /// a deterministic order, so downstream reports never depend on hash
    /// iteration.
    pub fn sizes(&self) -> Vec<(VertexId, u64)> {
        let mut sorted = self.labels.clone();
        sorted.sort_unstable();
        let mut sizes: Vec<(VertexId, u64)> = Vec::new();
        for &l in &sorted {
            match sizes.last_mut() {
                Some((label, n)) if *label == l => *n += 1,
                _ => sizes.push((l, 1)),
            }
        }
        sizes
    }

    /// Size of the largest component.
    pub fn largest(&self) -> u64 {
        self.sizes().iter().map(|&(_, n)| n).max().unwrap_or(0)
    }
}

/// Union-find with path halving and union by size.
#[derive(Debug, Clone)]
pub(crate) struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..vid_u32(n as u64)).collect(),
            size: vec![1; n],
        }
    }

    /// Finds the representative of `x` with path halving.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Unions the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        true
    }
}

/// Weakly connected components: edge direction ignored. Labels are the
/// minimum vertex id of each component — the same convention GraphX's
/// `ConnectedComponents` converges to, so results can be compared directly
/// with the Pregel implementation in `cutfit-algorithms`.
pub fn weakly_connected_components(graph: &Graph) -> ComponentLabels {
    let n = vid_index(graph.num_vertices());
    let mut uf = UnionFind::new(n);
    for e in graph.edges() {
        uf.union(vid_u32(e.src), vid_u32(e.dst));
    }
    // Map each root to the minimum vertex id in its set.
    let mut min_of_root: Vec<VertexId> = (0..n as u64).collect();
    for v in 0..vid_u32(n as u64) {
        let r = uf.find(v) as usize;
        min_of_root[r] = min_of_root[r].min(v as u64);
    }
    let mut labels = vec![0 as VertexId; n];
    let mut count = 0u64;
    for v in 0..vid_u32(n as u64) {
        let r = uf.find(v);
        labels[v as usize] = min_of_root[r as usize];
        // Each set has exactly one self-rooted member: count those instead
        // of collecting roots into an (unordered) set.
        if r == v {
            count += 1;
        }
    }
    ComponentLabels { labels, count }
}

/// Strongly connected components via iterative Tarjan.
pub fn strongly_connected_components(graph: &Graph) -> ComponentLabels {
    let n = vid_index(graph.num_vertices());
    let csr = Csr::out_of(graph);
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut labels = vec![0 as VertexId; n];
    let mut next_index = 0u32;
    let mut count = 0u64;

    // Explicit DFS frames: (vertex, next-neighbour cursor).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for start in 0..vid_u32(n as u64) {
        if index[start as usize] != UNVISITED {
            continue;
        }
        frames.push((start, 0));
        index[start as usize] = next_index;
        lowlink[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            let neigh = csr.neighbors(v as u64);
            if *cursor < neigh.len() {
                // Below `n`, which `vid_u32` bounded above.
                #[allow(clippy::cast_possible_truncation)]
                let w = neigh[*cursor] as u32;
                *cursor += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // v roots an SCC: pop it off the Tarjan stack. Tarjan's
                    // invariant guarantees v is on the stack, so the loop
                    // always terminates via the `w == v` break.
                    while let Some(w) = stack.pop() {
                        on_stack[w as usize] = false;
                        labels[w as usize] = count;
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                }
            }
        }
    }
    ComponentLabels { labels, count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    #[test]
    fn wcc_counts_components() {
        // {0,1,2} connected, {3,4} connected, {5} isolated.
        let g = Graph::new(6, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4)]);
        let cc = weakly_connected_components(&g);
        assert_eq!(cc.count, 3);
        assert_eq!(cc.labels[0], 0);
        assert_eq!(cc.labels[2], 0);
        assert_eq!(cc.labels[4], 3);
        assert_eq!(cc.labels[5], 5);
        assert_eq!(cc.largest(), 3);
    }

    #[test]
    fn wcc_ignores_direction() {
        let g = Graph::new(3, vec![Edge::new(2, 1), Edge::new(0, 1)]);
        assert_eq!(weakly_connected_components(&g).count, 1);
    }

    #[test]
    fn scc_of_cycle_is_single() {
        let g = Graph::new(3, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)]);
        assert_eq!(strongly_connected_components(&g).count, 1);
    }

    #[test]
    fn scc_of_path_is_singletons() {
        let g = Graph::new(3, vec![Edge::new(0, 1), Edge::new(1, 2)]);
        assert_eq!(strongly_connected_components(&g).count, 3);
    }

    #[test]
    fn scc_mixed() {
        // Cycle {0,1} plus tail 2 -> 0 and dangling 3.
        let g = Graph::new(4, vec![Edge::new(0, 1), Edge::new(1, 0), Edge::new(2, 0)]);
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.count, 3);
        assert_eq!(scc.labels[0], scc.labels[1]);
        assert_ne!(scc.labels[0], scc.labels[2]);
    }

    #[test]
    fn scc_agrees_with_wcc_on_symmetric_graphs() {
        let g =
            Graph::new(7, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(4, 5)]).symmetrized();
        assert_eq!(
            strongly_connected_components(&g).count,
            weakly_connected_components(&g).count
        );
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // 200k-vertex directed path: recursion would overflow, iteration must not.
        let n = 200_000u64;
        let edges: Vec<Edge> = (0..n - 1).map(|v| Edge::new(v, v + 1)).collect();
        let g = Graph::new(n, edges);
        assert_eq!(strongly_connected_components(&g).count, n);
        assert_eq!(weakly_connected_components(&g).count, 1);
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
    }
}
