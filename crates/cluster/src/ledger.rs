//! Per-superstep traffic and work accounting.
//!
//! The engine records *what it did* — how many edges it scanned in each
//! partition, how many vertex programs it ran, how many message bytes it
//! moved between which partitions — and the ledger aggregates those
//! quantities per partition and per executor pair so the simulator can bill
//! them under a cost model.

use cutfit_util::num::part_index;

/// Work performed inside a single partition during one superstep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct PartWork {
    /// Edge triplets scanned (message generation).
    pub edge_scans: u64,
    /// Vertex-program applications / per-vertex reductions.
    pub vertex_ops: u64,
    /// Bytes of state processed locally (serialization, set unions, …).
    pub local_bytes: u64,
}

/// All work of one superstep, aggregated by partition and executor pair.
#[derive(Debug, Clone)]
pub struct SuperstepLedger {
    parts: Vec<PartWork>,
    executors: u32,
    /// Row-major `executors × executors` byte matrix; `[from][to]`. All
    /// index arithmetic is `usize`-wide (`executors²` overflows `u32` from
    /// 65 536 executors up), and the matrix is allocated on the first
    /// recorded transfer so a ledger for a huge executor grid can be
    /// constructed — and queried while empty — without reserving
    /// `executors²` memory.
    exec_bytes: Vec<u64>,
    /// Message counts, same layout (allocated together with `exec_bytes`).
    exec_msgs: Vec<u64>,
    /// Frontier telemetry for this superstep, recorded by engines that track
    /// vertex activity: `(active_vertices, total_vertices, scanned_edges,
    /// total_edges)`. `None` for supersteps with no frontier semantics
    /// (setup, repartition shuffles).
    frontier: Option<(u64, u64, u64, u64)>,
}

impl SuperstepLedger {
    /// Creates an empty ledger for `num_parts` partitions on `executors`
    /// executors, with `executor_of` mapping partitions to executors.
    pub fn new(num_parts: u32, executors: u32) -> Self {
        Self {
            parts: vec![PartWork::default(); num_parts as usize],
            executors,
            exec_bytes: Vec::new(),
            exec_msgs: Vec::new(),
            frontier: None,
        }
    }

    /// Row-major index of the `[from][to]` executor pair, widened to
    /// `usize` before multiplying.
    #[inline]
    fn pair_index(&self, from: u32, to: u32) -> usize {
        from as usize * self.executors as usize + to as usize
    }

    /// Clears all counters for the next superstep.
    pub fn reset(&mut self) {
        self.parts.fill(PartWork::default());
        self.exec_bytes.fill(0);
        self.exec_msgs.fill(0);
        self.frontier = None;
    }

    /// Records `n` edge scans in `part`.
    #[inline]
    pub fn edge_scans(&mut self, part: u32, n: u64) {
        self.parts[part_index(part)].edge_scans += n;
    }

    /// Records `n` vertex operations in `part`.
    #[inline]
    pub fn vertex_ops(&mut self, part: u32, n: u64) {
        self.parts[part_index(part)].vertex_ops += n;
    }

    /// Records `bytes` of local state processing in `part`.
    #[inline]
    pub fn local_bytes(&mut self, part: u32, bytes: u64) {
        self.parts[part_index(part)].local_bytes += bytes;
    }

    /// Records this superstep's frontier telemetry: how many vertices were
    /// active when the scan started and how many edges the scan actually
    /// visited, against the graph's totals. Every quantity is an exact
    /// integer that is identical across scan/executor modes, so the derived
    /// profile never perturbs report equality. Overwrites any earlier record
    /// for the same superstep; cleared by [`SuperstepLedger::reset`].
    #[inline]
    pub fn record_frontier(
        &mut self,
        active_vertices: u64,
        total_vertices: u64,
        scanned_edges: u64,
        total_edges: u64,
    ) {
        self.frontier = Some((active_vertices, total_vertices, scanned_edges, total_edges));
    }

    /// The frontier telemetry recorded this superstep, if any.
    pub(crate) fn frontier_sample(&self) -> Option<(u64, u64, u64, u64)> {
        self.frontier
    }

    /// Records a message batch of `msgs` records / `bytes` payload flowing
    /// from executor `from_exec` to executor `to_exec` (possibly the same).
    #[inline]
    pub fn send_exec(&mut self, from_exec: u32, to_exec: u32, msgs: u64, bytes: u64) {
        if self.exec_bytes.is_empty() {
            let cells = self.executors as usize * self.executors as usize;
            self.exec_bytes = vec![0; cells];
            self.exec_msgs = vec![0; cells];
        }
        let idx = self.pair_index(from_exec, to_exec);
        self.exec_bytes[idx] += bytes;
        self.exec_msgs[idx] += msgs;
    }

    /// Per-partition work records.
    pub(crate) fn part_work(&self) -> &[PartWork] {
        &self.parts
    }

    /// Total message records this superstep.
    pub(crate) fn total_messages(&self) -> u64 {
        self.exec_msgs.iter().sum()
    }

    /// Total bytes crossing executor boundaries.
    pub fn remote_bytes(&self) -> u64 {
        if self.exec_bytes.is_empty() {
            return 0;
        }
        let e = self.executors;
        let mut sum = 0;
        for from in 0..e {
            for to in 0..e {
                if from != to {
                    sum += self.exec_bytes[self.pair_index(from, to)];
                }
            }
        }
        sum
    }

    /// Total bytes staying within an executor.
    pub(crate) fn local_shuffle_bytes(&self) -> u64 {
        if self.exec_bytes.is_empty() {
            return 0;
        }
        (0..self.executors)
            .map(|x| self.exec_bytes[self.pair_index(x, x)])
            .sum()
    }

    /// Outgoing remote bytes per executor.
    pub(crate) fn out_bytes_per_exec(&self) -> Vec<u64> {
        let e = self.executors;
        if self.exec_bytes.is_empty() {
            return vec![0; e as usize];
        }
        (0..e)
            .map(|from| {
                (0..e)
                    .filter(|&to| to != from)
                    .map(|to| self.exec_bytes[self.pair_index(from, to)])
                    .sum()
            })
            .collect()
    }

    /// Incoming remote bytes per executor.
    pub(crate) fn in_bytes_per_exec(&self) -> Vec<u64> {
        let e = self.executors;
        if self.exec_bytes.is_empty() {
            return vec![0; e as usize];
        }
        (0..e)
            .map(|to| {
                (0..e)
                    .filter(|&from| from != to)
                    .map(|from| self.exec_bytes[self.pair_index(from, to)])
                    .sum()
            })
            .collect()
    }

    /// Number of executors with outgoing remote traffic this superstep —
    /// the simultaneous-sender count a contention model scales with.
    // At most `executors`, a `u32`.
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) fn busy_executors(&self) -> u32 {
        if self.exec_bytes.is_empty() {
            return 0;
        }
        (0..self.executors)
            .filter(|&from| {
                (0..self.executors)
                    .any(|to| to != from && self.exec_bytes[self.pair_index(from, to)] > 0)
            })
            .count() as u32
    }

    /// True when nothing was recorded this superstep.
    pub fn is_empty(&self) -> bool {
        self.total_messages() == 0
            && self
                .parts
                .iter()
                .all(|w| w.edge_scans == 0 && w.vertex_ops == 0 && w.local_bytes == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_resets() {
        let mut l = SuperstepLedger::new(4, 2);
        l.edge_scans(0, 10);
        l.vertex_ops(1, 5);
        l.local_bytes(2, 100);
        assert_eq!(l.part_work()[0].edge_scans, 10);
        assert_eq!(l.part_work()[1].vertex_ops, 5);
        assert_eq!(l.part_work()[2].local_bytes, 100);
        assert!(!l.is_empty());
        l.reset();
        assert!(l.is_empty());
    }

    #[test]
    fn remote_vs_local_bytes() {
        let mut l = SuperstepLedger::new(4, 2);
        l.send_exec(0, 0, 1, 100); // local
        l.send_exec(0, 1, 2, 200); // remote
        l.send_exec(1, 0, 1, 50); // remote
        assert_eq!(l.remote_bytes(), 250);
        assert_eq!(l.local_shuffle_bytes(), 100);
        assert_eq!(l.total_messages(), 4);
        assert_eq!(l.out_bytes_per_exec(), [200, 50]);
    }

    #[test]
    fn large_executor_count_constructs_correctly() {
        // Regression: `executors * executors` used to be computed in `u32`,
        // which overflows from 65 536 executors up (65 536² = 2³²) — the
        // matrix silently wrapped to a zero-length allocation and the first
        // `send_exec` panicked. Index arithmetic is now `usize`-wide and the
        // matrices are lazily allocated, so even a million-executor ledger
        // constructs and answers queries while empty.
        let mut l = SuperstepLedger::new(8, 1_000_000);
        assert!(l.is_empty());
        assert_eq!(l.remote_bytes(), 0);
        assert_eq!(l.local_shuffle_bytes(), 0);
        assert_eq!(l.out_bytes_per_exec().len(), 1_000_000);
        assert_eq!(l.in_bytes_per_exec().len(), 1_000_000);
        l.edge_scans(3, 17);
        assert_eq!(l.part_work()[3].edge_scans, 17);
        l.reset();
        assert!(l.is_empty());
    }

    #[test]
    fn lazy_matrices_record_after_first_send() {
        let mut l = SuperstepLedger::new(2, 300); // 90 000 cells, alloc on use
        assert!(l.exec_bytes.is_empty(), "nothing allocated before a send");
        l.send_exec(299, 0, 2, 64);
        l.send_exec(0, 0, 1, 8);
        assert_eq!(l.remote_bytes(), 64);
        assert_eq!(l.local_shuffle_bytes(), 8);
        assert_eq!(l.total_messages(), 3);
        assert_eq!(l.out_bytes_per_exec()[299], 64);
    }

    #[test]
    fn busy_executors_counts_remote_senders_only() {
        let mut l = SuperstepLedger::new(4, 3);
        assert_eq!(l.busy_executors(), 0, "empty ledger: nobody transmits");
        l.send_exec(1, 1, 5, 500); // local traffic does not hit the wire
        assert_eq!(l.busy_executors(), 0);
        l.send_exec(0, 1, 1, 10);
        l.send_exec(0, 2, 1, 20);
        assert_eq!(l.busy_executors(), 1, "one sender, two destinations");
        l.send_exec(2, 0, 1, 5);
        assert_eq!(l.busy_executors(), 2);
        l.reset();
        assert_eq!(l.busy_executors(), 0);
    }

    #[test]
    fn per_exec_in_out() {
        let mut l = SuperstepLedger::new(4, 3);
        l.send_exec(0, 1, 1, 10);
        l.send_exec(0, 2, 1, 20);
        l.send_exec(2, 0, 1, 5);
        assert_eq!(l.out_bytes_per_exec(), vec![30, 0, 5]);
        assert_eq!(l.in_bytes_per_exec(), vec![5, 10, 20]);
    }
}
