//! The metered Pregel loop.
//!
//! A run is a setup superstep followed by message supersteps, each planned
//! as *dense* — scan → shuffle → apply — or *sparse* — emit → sort → fold.
//! Every pooled phase is **one kernel**: a method of the private `Run` whose
//! body `cutfit_util::exec` hands a *shard* — a contiguous range of edge
//! partitions for the dense scan, of home (master) partitions for the rest.
//! At one thread the pool calls the body inline with the whole range, so
//! [`ExecutorMode::Sequential`] is the one-shard case of the same code and
//! the debug-build [`DisjointSlice`] owner check watches every mode.
//!
//! * **Scan** (shard: partitions) — one edge loop over every partition's
//!   edge table, with or without the activity predicate, pre-aggregating
//!   into the partition's partial buffer.
//! * **Shuffle** (shard: homes) — partitions outermost in ascending order,
//!   which fixes every vertex's merge order; per partition the shard visits
//!   its contiguous slice of the home-grouped locals, or — when it is the
//!   whole home range — the partial buffer itself by iterator.
//! * **Apply** (shard: homes) — exactly the vertices the shuffle wrote,
//!   each state updated in place in the run's state column.
//! * **Emit** (shard: homes; see the `frontier` module) — the frontier's
//!   incidence rows become message records stamped with their receiver and
//!   its home. **Sort** — all records by (home, receiver, partition, edge,
//!   endpoint): one run per receiver, in the dense merge order.
//! * **Fold** (shard: home ranges of the sorted records) — each run is
//!   merged, billed and applied to its receiver's state row in one pass; a
//!   sparse superstep touches no partial buffer, inbox, edge or vertex
//!   table.
//!
//! What the kernels read is precomputed: the private `ScanIndex` holds each
//! vertex's home partition (isolated-vertex hash fallback folded in), the
//! partition→executor map and the degree tables, so supersteps do no
//! searches, routing lookups or hashing. Three parts are built on first
//! need: the grouping of locals by home (a multi-shard shuffle reads it),
//! the broadcast-class table (the first run) and the incidence index (the
//! first run whose frontier stays small for four supersteps). What the
//! kernels write is allocated once per run and self-cleaning — partials and
//! inbox entries are *taken*, records *drained* — so supersteps allocate no
//! O(vertices + replicas) buffer.
//!
//! A superstep is billed by table, not by replica (see the `bill` module),
//! in integer counters accumulated per thread, and every vertex merges its
//! messages in ascending source-partition order under any sharding: every
//! thread count and scan mode is bit-identical in vertex states and the
//! metered [`SimReport`]. Where the wall time went is summed per phase
//! into a [`RunTrace`] beside the result (see the `trace` module).

use std::borrow::Borrow;
use std::cell::Cell;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use cutfit_cluster::{ClusterConfig, ClusterSim, SimError, SimReport};
use cutfit_graph::types::PartId;
use cutfit_graph::VertexId;
use cutfit_partition::{EdgePartition, PartitionedGraph, NO_PART};
use cutfit_util::clock::Clock;
use cutfit_util::exec::{drain_cut_slices, run_chunked, run_ranges, DisjointSlice};
use cutfit_util::hash::hash64;
use cutfit_util::num::{part_index, vid_index};

use crate::bill::{
    bill_superstep, AppliedBytes, BillScratch, BroadcastClasses, CutTables, MeterDelta,
    PartialBytes, SteadyShape, StepEdges, SuperstepBill,
};
use crate::frontier::{plan_scan, FrontierBuffers, Incidence, Occurrence};
use crate::message_trace::{Capture, MessageTrace, PartCapture, Recorder};
use crate::program::{
    ActiveDirection, InitCtx, Messages, OwnedState, Triplet, VertexProgram, VertexState,
};
use crate::trace::{Phase, Probe, RunTrace};

/// How partitions are scanned within a superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorMode {
    /// One partition after another on the calling thread.
    Sequential,
    /// All phases (scan, shuffle, apply) run on a pool of OS threads.
    /// Results are bit-identical to sequential execution: threads own
    /// disjoint partition/vertex sets, merges happen in deterministic
    /// source-partition order, and all metering is integral.
    Parallel {
        /// Number of worker threads.
        threads: usize,
    },
    /// Like [`ExecutorMode::Parallel`] with the pool sized from
    /// [`std::thread::available_parallelism`].
    Auto,
}

impl ExecutorMode {
    /// Number of worker threads this mode resolves to (≥ 1).
    pub fn threads(&self) -> usize {
        match self {
            ExecutorMode::Sequential => 1,
            ExecutorMode::Parallel { threads } => (*threads).max(1),
            ExecutorMode::Auto => cutfit_util::exec::auto_threads(),
        }
    }
}

/// Which superstep shapes a run may take. Every shape is bit-identical in
/// states and [`SimReport`]; only the wall clock differs.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Every superstep scans every partition's edge table.
    Dense,
    /// Every superstep after the first walks its frontier and folds.
    Sparse,
    /// One measured decision per superstep: what every run does.
    Auto,
}

thread_local! {
    static SCAN_MODE: Cell<ScanMode> = const { Cell::new(ScanMode::Auto) };
}

/// Runs `f` with every run started on this thread inside it planned as
/// `mode` says, and restores the previous mode on return and on unwind.
/// The equivalence tests' hook for pinning one superstep shape; the mode
/// is read once, when a run starts.
#[doc(hidden)]
pub fn with_scan_mode<R>(mode: ScanMode, f: impl FnOnce() -> R) -> R {
    struct Restore(ScanMode);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCAN_MODE.with(|m| m.set(self.0));
        }
    }
    let _restore = Restore(SCAN_MODE.with(|m| m.replace(mode)));
    f()
}

/// Engine options.
#[derive(Debug, Clone)]
pub struct PregelConfig {
    /// Maximum number of message supersteps (the paper runs PR and CC for
    /// 10 iterations).
    pub max_iterations: u64,
    /// Executor mode for the scan/shuffle/apply phases.
    pub executor: ExecutorMode,
    /// Whether to charge the initial dataset load from storage.
    pub charge_initial_load: bool,
}

impl Default for PregelConfig {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            executor: ExecutorMode::Sequential,
            charge_initial_load: true,
        }
    }
}

/// Outcome of a Pregel run.
#[derive(Debug, Clone)]
pub struct PregelResult<V> {
    /// Final state of every vertex (isolated vertices hold their
    /// initial-apply value).
    pub states: Vec<V>,
    /// Message supersteps executed (not counting setup).
    pub supersteps: u64,
    /// True if the computation reached a fixpoint (no messages), false if
    /// it stopped at `max_iterations`.
    pub converged: bool,
    /// Simulated-cluster accounting.
    pub sim: SimReport,
}

/// One partition's local vertices grouped by home partition. Edge and
/// local→global tables are *not* duplicated here — the loop reads them
/// straight from the [`PartitionedGraph`], which keeps the index
/// self-contained (no borrows) so a [`PreparedRun`] can own both the
/// `Arc`'d graph and its index.
struct PartIndex {
    /// CSR offsets into `home_locals`, one group per home partition.
    home_offsets: Vec<u32>,
    /// Local vertex indices grouped by the home partition of their global
    /// vertex, ascending within each group.
    home_locals: Vec<u32>,
}

/// Counting sort of `items`' indices by `key` (each below `num_keys`):
/// CSR offsets, one group per key, and the indices grouped by key, in
/// ascending index order within each group.
fn group_indices<T>(num_keys: usize, items: &[T], key: impl Fn(&T) -> u32) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; num_keys + 1];
    for item in items {
        offsets[key(item) as usize + 1] += 1;
    }
    for k in 0..num_keys {
        offsets[k + 1] += offsets[k];
    }
    let mut cursor = offsets.clone();
    let mut grouped = vec![0u32; items.len()];
    for (i, item) in (0u32..).zip(items) {
        let k = key(item) as usize;
        grouped[cursor[k] as usize] = i;
        cursor[k] += 1;
    }
    (offsets, grouped)
}

impl PartIndex {
    /// Groups `part`'s local indices by home partition; local order is
    /// preserved within each group.
    fn build(part: &EdgePartition, home: &[PartId], np: usize) -> Self {
        let (home_offsets, home_locals) =
            group_indices(np, &part.vertices, |&v| home[vid_index(v)]);
        Self {
            home_offsets,
            home_locals,
        }
    }

    /// Local indices of this partition whose vertices are mastered at a
    /// home in `homes`. Groups are adjacent, so a home *range* is one
    /// contiguous slice: home-ascending, local-ascending within a home.
    #[inline]
    fn locals_of_homes(&self, homes: &Range<usize>) -> &[u32] {
        &self.home_locals
            [self.home_offsets[homes.start] as usize..self.home_offsets[homes.end] as usize]
    }
}

/// Immutable run-scoped index precomputed from the [`PartitionedGraph`] so
/// the superstep loop does no routing lookups, hashing, or binary searches.
/// The parts every superstep reads are built eagerly; the broadcast classes
/// are built by the first run on the index, the incidence index by the
/// first run that needs it.
struct ScanIndex {
    /// Master partition per vertex, with the isolated-vertex hash fallback
    /// folded in (GraphX hash-partitions the vertex RDD; vertices without
    /// edges still live somewhere).
    home: Vec<PartId>,
    /// Executor hosting each partition.
    exec_of_part: Vec<u32>,
    /// Global out/in degree per vertex, derived from the partitioned edge
    /// tables (the engine never touches the original edge list).
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    /// Per-partition local groupings by home; empty unless built for a
    /// multi-shard shuffle.
    parts: Vec<PartIndex>,
    /// Built by the first run (a handle that never runs never pays for it);
    /// every setup superstep and every apply phase bills through it.
    classes: OnceLock<BroadcastClasses>,
    /// What a frontier walk reads, built by the first run whose frontier
    /// stays small (always-active programs and three-superstep probes never
    /// do; see `frontier::plan_scan`).
    incidence: OnceLock<Incidence>,
}

impl ScanIndex {
    /// Builds the eager parts. The home groupings are read only by a
    /// shuffle split into several home shards — the one-shard shuffle
    /// sweeps each partial buffer whole — so they are built only when
    /// `shards` is set.
    // A hash modulo the `u32` part count is below it.
    #[allow(clippy::cast_possible_truncation)]
    fn build(pg: &PartitionedGraph, cluster: &ClusterConfig, shards: bool) -> Self {
        let np = pg.num_parts() as usize;
        let home: Vec<PartId> = pg
            .masters()
            .iter()
            .enumerate()
            .map(|(v, &m)| {
                if m == NO_PART {
                    (hash64(v as u64) % np as u64) as PartId
                } else {
                    m
                }
            })
            .collect();
        let group = |part| PartIndex::build(part, &home, np);
        let parts = if shards {
            pg.parts().iter().map(group).collect()
        } else {
            Vec::new()
        };
        let mut out_deg = vec![0u32; vid_index(pg.num_vertices())];
        let mut in_deg = vec![0u32; vid_index(pg.num_vertices())];
        for part in pg.parts() {
            for &(ls, ld) in &part.edges {
                out_deg[vid_index(part.vertices[ls as usize])] += 1;
                in_deg[vid_index(part.vertices[ld as usize])] += 1;
            }
        }
        Self {
            home,
            exec_of_part: (0..pg.num_parts())
                .map(|p| cluster.executor_of(p))
                .collect(),
            out_deg,
            in_deg,
            parts,
            classes: OnceLock::new(),
            incidence: OnceLock::new(),
        }
    }

    fn classes(&self, pg: &PartitionedGraph) -> &BroadcastClasses {
        self.classes
            .get_or_init(|| BroadcastClasses::build(pg, &self.home, &self.exec_of_part))
    }
}

/// Program-independent run scratch: the metering sim, the activity bitset,
/// frontier bookkeeping, and per-thread metering deltas — one delta per
/// worker the run may use, so their count *is* the thread budget. A
/// [`PreparedRun`] keeps one of these alive across jobs so back-to-back
/// dispatches allocate nothing here (the message-typed inbox/partial
/// buffers are per-program and stay per-run).
struct RunBuffers {
    sim: ClusterSim,
    active: Vec<bool>,
    frontier: FrontierBuffers,
    deltas: Vec<MeterDelta>,
}

impl RunBuffers {
    /// Buffers for `pg` on `cluster`, with `executor`'s thread count
    /// clamped to the partition count.
    fn new(pg: &PartitionedGraph, cluster: &ClusterConfig, executor: ExecutorMode) -> Self {
        let np = pg.num_parts() as usize;
        Self {
            sim: ClusterSim::new(cluster.clone(), pg.num_parts()),
            active: vec![false; vid_index(pg.num_vertices())],
            frontier: FrontierBuffers::new(np),
            deltas: (0..executor.threads().min(np.max(1)))
                .map(|_| MeterDelta::new(cluster.executors, np))
                .collect(),
        }
    }
}

/// Runs `program` over `pg` on the simulated `cluster`.
///
/// Returns [`SimError::OutOfMemory`] if the modelled memory demand exceeds
/// an executor's budget — partial results are discarded, as they would be
/// on the real system.
///
/// This is the one-shot entry point: it builds the run-scoped index and
/// buffers, runs, and throws them away. Callers dispatching several jobs
/// against the same cut should build a [`PreparedRun`] once instead.
pub fn run_pregel<P: VertexProgram>(
    program: &P,
    pg: &PartitionedGraph,
    cluster: &ClusterConfig,
    opts: &PregelConfig,
) -> Result<PregelResult<OwnedState<P>>, SimError> {
    let mut buffers = RunBuffers::new(pg, cluster, opts.executor);
    let index = ScanIndex::build(pg, cluster, buffers.deltas.len() > 1);
    let mut probe = Probe::new(&Clock::Null);
    let (states, supersteps, converged) =
        execute(program, pg, &index, &mut buffers, opts, &mut probe, None)?;
    Ok(PregelResult {
        states: states.into_rows(vid_index(pg.num_vertices())),
        supersteps,
        converged,
        sim: buffers.sim.into_report(),
    })
}

/// A run-scoped handle over one materialized cut: the routing index, degree
/// tables, and program-independent buffers (metering sim included), built
/// once and shared by every job dispatched against the same
/// [`PartitionedGraph`]. Back-to-back jobs on one cut skip all routing
/// setup — the serving layer's cache-hit path is [`PreparedRun::run`],
/// which only allocates the message-typed buffers of the program it
/// executes, plus — once per handle — the index parts built on first need:
/// the broadcast-class table (paid by the handle's first job) and the
/// incidence index (by the first job with a lasting small frontier). A job
/// that fails or panics mid-phase leaves no meter state behind: every
/// accumulator is cleared before the next superstep uses it.
///
/// The handle is prepared for a maximum parallelism at construction
/// ([`ExecutorMode::threads`] of the mode passed to [`PreparedRun::new`]);
/// a run requesting more threads is clamped to that budget. Results are
/// bit-identical at every thread count, so clamping never changes states
/// or the metered [`SimReport`].
pub struct PreparedRun {
    pg: Arc<PartitionedGraph>,
    index: ScanIndex,
    buffers: RunBuffers,
}

impl PreparedRun {
    /// Builds the routing index, degree tables, and reusable buffers for
    /// `pg` on `cluster`, sized for `executor`'s thread budget.
    pub fn new(pg: Arc<PartitionedGraph>, cluster: &ClusterConfig, executor: ExecutorMode) -> Self {
        let buffers = RunBuffers::new(&pg, cluster, executor);
        Self {
            index: ScanIndex::build(&pg, cluster, buffers.deltas.len() > 1),
            buffers,
            pg,
        }
    }

    /// The cut this handle was prepared for.
    pub fn graph(&self) -> &Arc<PartitionedGraph> {
        &self.pg
    }

    /// The cluster the metering sim bills against.
    pub fn cluster(&self) -> &ClusterConfig {
        self.buffers.sim.config()
    }

    /// The thread budget the handle was prepared for.
    pub fn threads(&self) -> usize {
        self.buffers.deltas.len()
    }

    /// Runs `program` on the prepared cut. Bit-identical — vertex states
    /// *and* [`SimReport`] — to [`run_pregel`] on the same graph, cluster,
    /// and options, for any sequence of prior runs through this handle:
    /// the metering sim is [`ClusterSim::reset`] (allocations kept) and
    /// every reused buffer is re-initialized before the loop starts.
    pub fn run<P: VertexProgram>(
        &mut self,
        program: &P,
        opts: &PregelConfig,
    ) -> Result<PregelResult<OwnedState<P>>, SimError> {
        self.run_traced(program, opts, &Clock::Null)
            .map(|(result, _)| result)
    }

    /// [`PreparedRun::run`], timing the loop's phases on `clock`: the same
    /// result, with where the wall time went beside it.
    pub fn run_traced<P: VertexProgram>(
        &mut self,
        program: &P,
        opts: &PregelConfig,
        clock: &Clock,
    ) -> Result<(PregelResult<OwnedState<P>>, RunTrace), SimError> {
        let Self { pg, index, buffers } = self;
        buffers.sim.reset();
        let mut probe = Probe::new(clock);
        let (states, supersteps, converged) =
            execute(program, pg, index, buffers, opts, &mut probe, None)?;
        let result = PregelResult {
            states: states.into_rows(vid_index(pg.num_vertices())),
            supersteps,
            converged,
            sim: buffers.sim.report().clone(),
        };
        Ok((result, probe.into_trace()))
    }

    /// [`PreparedRun::run`] for a caller that keeps only the bill: the same
    /// [`SimReport`] and superstep count, and no owned state rows are made
    /// from the state column.
    pub fn bill<P: VertexProgram>(
        &mut self,
        program: &P,
        opts: &PregelConfig,
    ) -> Result<(SimReport, u64), SimError> {
        let Self { pg, index, buffers } = self;
        buffers.sim.reset();
        let mut probe = Probe::new(&Clock::Null);
        let (_, supersteps, _) = execute(program, pg, index, buffers, opts, &mut probe, None)?;
        Ok((buffers.sim.report().clone(), supersteps))
    }

    /// [`PreparedRun::bill`], recording the run's [`MessageTrace`] beside
    /// the bill: what [`PreparedRun::bill_traced`] needs to bill the same
    /// run on any other cut of the graph. `assignment` is this cut's edge
    /// assignment, aligned with the graph's edge list. The bill and the
    /// superstep count are the unrecorded run's; a run that fails records
    /// nothing.
    ///
    /// # Panics
    /// Panics if `program` declares no
    /// [`VertexProgram::message_sizing`], or if `assignment` is not this
    /// cut's.
    pub fn record<P: VertexProgram>(
        &mut self,
        program: &P,
        opts: &PregelConfig,
        assignment: &[PartId],
    ) -> Result<(SimReport, u64, MessageTrace), SimError> {
        let Some(sizing) = program.message_sizing() else {
            panic!(
                "{}: a program without a message sizing cannot be traced",
                program.name()
            );
        };
        let Self { pg, index, buffers } = self;
        let fixed_state = program.fixed_state_bytes();
        let mut recorder = Recorder::new(pg, assignment, &sizing, fixed_state);
        buffers.sim.reset();
        let mut probe = Probe::new(&Clock::Null);
        let recording = Some(&mut recorder);
        let (_, supersteps, converged) =
            execute(program, pg, index, buffers, opts, &mut probe, recording)?;
        let report = buffers.sim.report().clone();
        Ok((report, supersteps, recorder.finish(converged)))
    }

    /// The bill and superstep count [`PreparedRun::bill`] returns for the
    /// program `trace` was recorded from (see [`PreparedRun::record`]),
    /// computed from the trace and this cut's tables, with no engine run.
    /// `assignment` is this cut's edge assignment, aligned with the
    /// graph's edge list. The ledger is fed what the run would feed it (see
    /// [`PreparedRun::bill_steady`]), each message superstep from its
    /// record: the scanned edges per partition, the frontier sample, one
    /// partial per distinct (partition, receiver) and the applied
    /// vertices' state sizes. An out-of-memory error comes back as the
    /// run's would. `opts.executor` is not read.
    ///
    /// # Panics
    /// Panics if `trace` was recorded on another graph, if `assignment` is
    /// not this cut's, or if `opts` asks for supersteps past a cap the
    /// recorded run stopped at.
    pub fn bill_traced(
        &mut self,
        trace: &MessageTrace,
        assignment: &[PartId],
        opts: &PregelConfig,
    ) -> Result<(SimReport, u64), SimError> {
        trace.check(&self.pg, assignment, opts.max_iterations);
        let global_of = self.pg.global_order(assignment);
        let fixed = trace.fixed_state;
        let setup = |v: usize| fixed.unwrap_or_else(|| trace.setup_bytes.get(v));
        self.bill_without_running(
            opts,
            (fixed, &setup),
            trace.partials,
            |i, cut, scratch, delta| {
                let step = trace.supersteps.get(usize::try_from(i).ok()?)?;
                let bill = SuperstepBill {
                    edges: StepEdges::Traced {
                        step,
                        global_of: &global_of,
                    },
                    partials: trace.partials,
                    applied: match fixed {
                        Some(bytes) => AppliedBytes::Fixed(bytes),
                        None => AppliedBytes::Each(&step.applied),
                    },
                };
                delta.reset();
                Some((step.active, bill_superstep(cut, &bill, scratch, delta)))
            },
        )
    }

    /// The bill and superstep count [`PreparedRun::bill`] returns for a
    /// program of steady `shape` (see [`VertexProgram::steady_shape`]),
    /// computed in closed form from the cut's tables, with no engine run.
    /// The ledger is fed what the run would feed it: the load if `opts`
    /// charges it, the setup superstep without building a state column,
    /// then per message superstep, up to `opts.max_iterations` of them,
    /// the edges scanned per partition, the frontier sample and the
    /// superstep's partials and applied states — here every edge scanned,
    /// all vertices active, and every superstep the same: a traced
    /// superstep whose every edge messages the shape's receivers. An
    /// out-of-memory error comes back as the run's would. `opts.executor`
    /// is not read.
    pub fn bill_steady(
        &mut self,
        shape: &SteadyShape,
        opts: &PregelConfig,
    ) -> Result<(SimReport, u64), SimError> {
        let n = self.pg.num_vertices();
        let bill = SuperstepBill {
            edges: StepEdges::Every(shape.receivers),
            partials: PartialBytes::Fixed(shape.msg_bytes),
            applied: AppliedBytes::Fixed(shape.state_bytes),
        };
        let size = shape.state_bytes;
        let mut msg_count = None;
        self.bill_without_running(
            opts,
            (Some(size), &|_| size),
            bill.partials,
            |_, cut, scratch, delta| {
                // Every superstep leaves the delta as the first did.
                let count = *msg_count.get_or_insert_with(|| {
                    delta.reset();
                    bill_superstep(cut, &bill, scratch, delta)
                });
                Some((n, count))
            },
        )
    }

    /// What [`PreparedRun::bill_traced`] and [`PreparedRun::bill_steady`]
    /// share: the sim fed as a run under `opts` would feed it — the load if
    /// charged, the setup superstep with `setup`'s state sizes (the fixed
    /// size, else vertex `v`'s bytes), then per message superstep `i`, up
    /// to `opts.max_iterations` of them, what `superstep(i, ..)` leaves in
    /// the delta and the scratch's scan counts, with the active count and
    /// the message count it returns; until a superstep moves no message,
    /// or `superstep` knows no superstep `i`.
    fn bill_without_running(
        &mut self,
        opts: &PregelConfig,
        setup: (Option<u64>, &dyn Fn(usize) -> u64),
        partials: PartialBytes,
        mut superstep: impl FnMut(
            u64,
            &CutTables<'_>,
            &mut BillScratch,
            &mut MeterDelta,
        ) -> Option<(u64, u64)>,
    ) -> Result<(SimReport, u64), SimError> {
        let Self { pg, index, buffers } = self;
        let sim = &mut buffers.sim;
        sim.reset();
        let (n, edges) = (pg.num_vertices(), pg.num_edges());
        let classes = index.classes(pg);
        let msg_overhead = sim.config().cost.message_overhead_bytes;
        if opts.charge_initial_load {
            sim.charge_load(cutfit_cluster::load_bytes(n, edges));
        }
        let (fixed, state_bytes) = setup;
        classes.bill_setup(pg, &index.home, sim, msg_overhead, fixed, state_bytes)?;
        let mut supersteps = 0u64;
        if opts.max_iterations == 0 {
            return Ok((sim.report().clone(), supersteps));
        }
        let delta = &mut buffers.deltas[0];
        delta.class_sent.resize(classes.len(), (0, 0));
        let cut = CutTables {
            pg,
            classes,
            home: &index.home,
            exec_of_part: &index.exec_of_part,
            msg_overhead,
        };
        let mut scratch = BillScratch::new(pg, partials);
        while supersteps < opts.max_iterations {
            let Some((active, msg_count)) = superstep(supersteps, &cut, &mut scratch, delta) else {
                break;
            };
            for (p, &m) in (0..).zip(&scratch.matched) {
                sim.ledger().edge_scans(p, m);
            }
            let scanned = scratch.matched.iter().sum();
            sim.ledger().record_frontier(active, n, scanned, edges);
            delta.flush_ledger(classes, sim.ledger());
            delta.flush_resident(sim);
            sim.end_superstep()?;
            if msg_count == 0 {
                break;
            }
            supersteps += 1;
        }
        Ok((sim.report().clone(), supersteps))
    }
}

/// The superstep loop shared by [`run_pregel`] (transient index/buffers)
/// and [`PreparedRun::run`] (cached index, reused buffers): setup, then
/// plan → (scan → shuffle → apply | emit → sort → fold) until no message
/// flows or `opts` caps the iterations. The worker count is
/// `opts.executor`'s, clamped to the buffers' thread budget. With a
/// `recorder` (only [`PreparedRun::record`] passes one) the scan and the
/// walk note what they did and every billed superstep is recorded; the
/// kernels take the recording path per partition or per superstep, never
/// per edge.
fn execute<P: VertexProgram>(
    program: &P,
    pg: &PartitionedGraph,
    index: &ScanIndex,
    buffers: &mut RunBuffers,
    opts: &PregelConfig,
    probe: &mut Probe<'_>,
    mut recorder: Option<&mut Recorder<P::Msg>>,
) -> Result<(Column<P::State>, u64, bool), SimError> {
    // Message-typed inbox/partials are allocated per run (the message type
    // changes with the program); everything program-independent comes from
    // the reusable `RunBuffers` and is re-initialized in place.
    let RunBuffers {
        sim,
        active,
        frontier: fb,
        deltas,
    } = buffers;
    let n = pg.num_vertices();
    let unbuilt = index.classes.get().is_none();
    let classes = probe.time_if(unbuilt, Phase::BuildClasses, || index.classes(pg));
    for delta in deltas.iter_mut() {
        delta.class_sent.resize(classes.len(), (0, 0));
    }
    let cx = Ctx {
        program,
        pg,
        index,
        class_of: &classes.class_of,
        msg_overhead: sim.config().cost.message_overhead_bytes,
        threads: opts.executor.threads().min(deltas.len()),
    };
    let all_active = program.always_active();
    // Only a converging program plans scans from its frontier, unless a
    // test pinned every superstep dense; everything else takes the dense
    // paths throughout.
    let scan_mode = SCAN_MODE.with(Cell::get);
    let plans_frontier = !all_active && scan_mode != ScanMode::Dense;

    if opts.charge_initial_load {
        sim.charge_load(cutfit_cluster::load_bytes(n, pg.num_edges()));
    }
    let states = cx.setup(classes, sim)?;
    if let Some(recorder) = recorder.as_deref_mut() {
        recorder.setup(|v| program.state_bytes(states.row(v)));
    }

    fb.reset();
    if !all_active {
        // The frontier protocol keeps `active` equal to the current
        // frontier set from the second message superstep on. The first
        // superstep is implicitly all-active (`frontier_all`) and never
        // reads the bitset, so a clean all-false start suffices — and
        // always-active programs never touch it at all.
        active.fill(false);
    }
    let mut run = Run {
        states,
        partials: pg
            .parts()
            .iter()
            .map(|part| vec![None; part.vertices.len()])
            .collect(),
        inbox: vec![None; vid_index(n)],
        walk_shards: Vec::new(),
        active,
        fb,
        deltas: &mut deltas[..cx.threads],
        cx,
    };
    let mut frontier_all = true;

    let mut supersteps = 0u64;
    let mut converged = false;
    while supersteps < opts.max_iterations {
        // Plan: size the frontier and pick the superstep's shape. While
        // every vertex is active (superstep one, always-active programs)
        // it is the dense one without the activity predicate.
        let (active_count, sparse) = probe.time(Phase::Plan, || {
            if frontier_all {
                (n, false)
            } else if plans_frontier {
                plan_scan(
                    pg.num_edges(),
                    index.incidence.get().is_some(),
                    program.active_direction(),
                    scan_mode == ScanMode::Sparse,
                    (&index.out_deg, &index.in_deg),
                    run.fb,
                )
            } else {
                (run.fb.frontier.iter().map(|f| f.len() as u64).sum(), false)
            }
        });

        // Either shape leaves the edges it visited in `matched`, the
        // receivers in `touched_inbox` and its bill in the deltas.
        let msg_count = if sparse {
            let unbuilt = index.incidence.get().is_none();
            let build = || index.incidence.get_or_init(|| Incidence::build(pg));
            let incidence = probe.time_if(unbuilt, Phase::BuildIncidence, build);
            match recorder.as_deref_mut() {
                Some(recorder) => {
                    probe.time(Phase::Emit, || run.emit::<true>(incidence));
                    run.note_walk(&mut recorder.capture);
                }
                None => probe.time(Phase::Emit, || run.emit::<false>(incidence)),
            }
            probe.time(Phase::Sort, || run.sort());
            probe.time(Phase::Fold, || run.fold())
        } else {
            let capture = recorder.as_deref_mut().map(|r| &mut r.capture);
            probe.time(Phase::DenseScan, || run.scan_tables(!frontier_all, capture));
            let msg_count = probe.time(Phase::Shuffle, || run.shuffle());
            if msg_count > 0 {
                probe.time(Phase::Apply, || run.apply(!all_active && !frontier_all));
            }
            msg_count
        };

        // Bill it. Frontier telemetry — active vertices at scan time and
        // edges the scan visited — is mode-invariant: `matched` is pinned
        // equal across modes, and the frontier is exactly the set of
        // vertices that received messages last superstep.
        probe.time(Phase::Sim, || {
            for (p, &m) in (0..).zip(&run.fb.matched) {
                sim.ledger().edge_scans(p, m);
            }
            let scanned: u64 = run.fb.matched.iter().sum();
            sim.ledger()
                .record_frontier(active_count, n, scanned, pg.num_edges());
            for delta in run.deltas.iter() {
                delta.flush_ledger(classes, sim.ledger());
                delta.flush_resident(sim);
            }
            sim.end_superstep()
        })?;
        if let Some(recorder) = recorder.as_deref_mut() {
            let states = &run.states;
            recorder.end_superstep(pg, active_count, |v| program.state_bytes(states.row(v)));
        }
        if msg_count == 0 {
            converged = true;
            break;
        }
        // The vertices that received messages are exactly next superstep's
        // frontier: swap the touched lists in and recycle the old frontier
        // lists as next superstep's touched scratch. Always-active programs
        // stay in `frontier_all` forever and just recycle the scratch.
        if !all_active {
            std::mem::swap(&mut run.fb.frontier, &mut run.fb.touched_inbox);
            frontier_all = false;
        }
        for list in run.fb.touched_inbox.iter_mut() {
            list.clear();
        }
        supersteps += 1;
    }

    // The message buffers go before a caller makes owned rows: a `[T]`
    // column's rows are as many allocations again as it has vertices.
    drop((run.partials, run.inbox, run.walk_shards));
    Ok((run.states, supersteps, converged))
}

/// What every phase of one run reads and none writes.
struct Ctx<'a, P: VertexProgram> {
    program: &'a P,
    pg: &'a PartitionedGraph,
    index: &'a ScanIndex,
    /// Each vertex's broadcast class, from `index`'s class table.
    class_of: &'a [u32],
    /// Framing bytes billed per message on top of its payload.
    msg_overhead: u64,
    /// Worker count, within the buffers' thread budget.
    threads: usize,
}

/// One run's superstep state: the shared context plus everything the
/// phases write. Each phase is one method — one body, driven through the
/// pool at any thread count; at one thread the pool runs the body inline
/// as a single shard covering the whole range.
struct Run<'a, P: VertexProgram> {
    cx: Ctx<'a, P>,
    states: Column<P::State>,
    /// Per partition, per local vertex: the dense scan's pre-aggregated
    /// message. The shuffle *takes* every partial and the apply *takes*
    /// every inbox entry, so both are all-`None` again when a superstep
    /// ends; a sparse superstep touches neither.
    partials: Vec<Vec<Option<P::Msg>>>,
    inbox: Vec<Option<P::Msg>>,
    /// One per worker, from the run's first sparse superstep on: what its
    /// emission shards produce, collected in shard 0's buffer for the sort
    /// and the fold. A run that never walks allocates none.
    walk_shards: Vec<WalkShard<P::Msg>>,
    active: &'a mut [bool],
    fb: &'a mut FrontierBuffers,
    deltas: &'a mut [MeterDelta],
}

/// One state per vertex: a `Vec` of the states themselves for a sized state
/// type, one flat `Vec` of equally long rows for a `[T]` one.
struct Column<S: VertexState + ?Sized> {
    cells: Vec<S::Cell>,
    /// Cells per row, taken from vertex 0's initial state.
    stride: usize,
}

impl<S: VertexState + ?Sized> Column<S> {
    /// Every vertex's initial state with the initial message applied.
    fn build<P: VertexProgram<State = S>>(program: &P, ctx: &InitCtx<'_>) -> Self {
        let init_msg = program.initial_msg();
        let mut column = Self {
            cells: Vec::new(),
            stride: 0,
        };
        for v in 0..ctx.num_vertices {
            let row = program.initial_state(v, ctx);
            let took = S::cells_of(row.borrow());
            if v == 0 {
                column.stride = took;
                // One exact allocation, as collecting the states would make.
                column.cells = Vec::with_capacity(took * vid_index(ctx.num_vertices));
            }
            assert_eq!(
                took,
                column.stride,
                "{}: the initial state of vertex {v} has {took} cells, vertex 0's has {}",
                program.name(),
                column.stride
            );
            S::push_row(&mut column.cells, row);
            program.apply(v, column.row_mut(vid_index(v)), &init_msg);
        }
        column
    }

    #[inline]
    fn row(&self, v: usize) -> &S {
        S::row(&self.cells, self.stride, v)
    }

    fn row_mut(&mut self, v: usize) -> &mut S {
        S::row_mut(&mut self.cells[v * self.stride..(v + 1) * self.stride])
    }

    /// The column's `rows` rows, owned (the count is not derivable from a
    /// column of zero-length rows).
    fn into_rows(self, rows: usize) -> Vec<S::Owned> {
        S::into_rows(self.cells, self.stride, rows)
    }
}

/// One message a frontier walk produced. Sorting by `(home, to, part, edge,
/// to_dst)` — unique per record, so a total order however the emission was
/// sharded — puts each receiver's messages in one run, by source partition
/// and in edge order inside one (a self-loop's source-side message first):
/// the dense merge order, slot merge by edge, then inbox merge by partition.
struct Record<M> {
    /// The receiver's home partition.
    home: PartId,
    /// The receiving vertex.
    to: VertexId,
    /// The edge partition holding the edge.
    part: PartId,
    /// Index into the partition's edge table.
    edge: u32,
    /// The receiving endpoint: the edge's destination, else its source.
    to_dst: bool,
    msg: M,
}

/// What one emission shard writes: its messages and its share of each
/// partition's edge-scan count — and, in a recording run, the edges it
/// took. Owned by the run, not the reusable buffers.
struct WalkShard<M> {
    records: Vec<Record<M>>,
    matched: Vec<u64>,
    taken: Vec<(PartId, u32)>,
}

/// Folds `msg` into `slot` with the program's combiner; true when the slot
/// was empty, i.e. this is its first message of the superstep.
#[inline]
fn deposit<P: VertexProgram>(program: &P, slot: &mut Option<P::Msg>, msg: P::Msg) -> bool {
    let first = slot.is_none();
    *slot = Some(match slot.take() {
        Some(acc) => program.merge(acc, msg),
        None => msg,
    });
    first
}

impl<P: VertexProgram> Ctx<'_, P> {
    /// The setup superstep: initial apply on every vertex, billed by
    /// [`BroadcastClasses::bill_setup`]. Returns the initial states.
    fn setup(
        &self,
        classes: &BroadcastClasses,
        sim: &mut ClusterSim,
    ) -> Result<Column<P::State>, SimError> {
        let (program, pg, index) = (self.program, self.pg, self.index);
        let ctx = InitCtx {
            out_degrees: &index.out_deg,
            in_degrees: &index.in_deg,
            num_vertices: pg.num_vertices(),
        };
        let states = Column::build(program, &ctx);
        let fixed = program.fixed_state_bytes();
        let state_bytes = |v: usize| program.state_bytes(states.row(v));
        classes.bill_setup(pg, &index.home, sim, self.msg_overhead, fixed, state_bytes)?;
        Ok(states)
    }

    /// Phases 3 and 4 for one vertex, written once for the dense apply and
    /// the sparse fold: runs the program on `v`, mastered at `q`, and meters
    /// one vertex op, the new state's bytes, and its trip to `v`'s mirrors
    /// on `v`'s broadcast class — no walk over the replicas. Residency moves
    /// as signed per-partition deltas of [`VertexProgram::state_bytes`] and
    /// alone reads the routing table: only for a vertex whose state changed
    /// size, so never for fixed-size states.
    #[inline]
    fn apply_vertex(
        &self,
        (v, q): (VertexId, usize),
        state: &mut P::State,
        msg: &P::Msg,
        delta: &mut MeterDelta,
    ) {
        let old_bytes = self.program.state_bytes(state);
        self.program.apply(v, state, msg);
        let state_size = self.program.state_bytes(state);
        delta.vertex_ops[q] += 1;
        delta.local_bytes[q] += state_size;
        delta.broadcast(self.class_of[vid_index(v)], state_size + self.msg_overhead);
        let grew = state_size as i64 - old_bytes as i64;
        if grew != 0 {
            for &p in self.pg.routing().parts_of(v) {
                delta.resident[part_index(p)] += grew;
            }
        }
    }

    /// The dense walk's edge loop over one partition's edge table,
    /// monomorphised by its activity predicate over the endpoints' global
    /// indices. Returns the edges that passed the predicate — the metered
    /// edge-scan count. `note` sees each such edge's index and messages
    /// (a recording run's capture; a no-op otherwise).
    ///
    /// `out` is a parameter of its own and the tables are sliced once up
    /// front so the compiler can see that the loop's stores never move
    /// them: reaching either through the context per edge measured ≈ 9 %
    /// on the full scan.
    #[inline]
    fn scan_edges(
        &self,
        part: &EdgePartition,
        states: &Column<P::State>,
        wanted: impl Fn(usize, usize) -> bool,
        out: &mut [Option<P::Msg>],
        mut note: impl FnMut(u32, &Messages<P::Msg>),
    ) -> u64 {
        let program = self.program;
        let (out_deg, in_deg) = (self.index.out_deg.as_slice(), self.index.in_deg.as_slice());
        let mut emit = |local: u32, msg| {
            deposit(program, &mut out[local as usize], msg);
        };
        let mut matched = 0u64;
        for (edge, &(ls, ld)) in (0u32..).zip(&part.edges) {
            let src = part.vertices[ls as usize];
            let dst = part.vertices[ld as usize];
            let (s, d) = (vid_index(src), vid_index(dst));
            if !wanted(s, d) {
                continue;
            }
            matched += 1;
            let triplet = Triplet {
                src,
                dst,
                src_state: states.row(s),
                dst_state: states.row(d),
                src_out_degree: out_deg[s],
                dst_in_degree: in_deg[d],
            };
            let msgs = program.send(&triplet);
            note(edge, &msgs);
            match msgs {
                Messages::None => {}
                Messages::ToSrc(m) => emit(ls, m),
                Messages::ToDst(m) => emit(ld, m),
                Messages::Both(ms, md) => {
                    emit(ls, ms);
                    emit(ld, md);
                }
            }
        }
        matched
    }
}

impl<P: VertexProgram> Run<'_, P> {
    /// Phase 1, dense — every partition in the shard walks its edge table
    /// and pre-aggregates the messages into its partial buffer (map-side
    /// combine), testing the activity bitset per edge when `filtered` and
    /// taking every edge otherwise (the first message superstep and every
    /// superstep of an always-active program: provably a dense walk over an
    /// all-true bitset). With a `capture` every partition also notes what
    /// its scan did.
    fn scan_tables(&mut self, filtered: bool, capture: Option<&mut Capture<P::Msg>>) {
        let Self {
            cx,
            states,
            active,
            partials,
            fb,
            ..
        } = self;
        let (cx, states, active) = (&*cx, &*states, &**active);
        let dir = cx.program.active_direction();
        let wanted = move |s: usize, d: usize| match dir {
            ActiveDirection::Either => active[s] || active[d],
            ActiveDirection::Out => active[s],
            ActiveDirection::In => active[d],
            ActiveDirection::Both => active[s] && active[d],
        };
        let num_parts = partials.len();
        let partial_cells = DisjointSlice::new(partials.as_mut_slice());
        let matched_cells = DisjointSlice::new(fb.matched.as_mut_slice());
        let (recording, mask) = (capture.is_some(), capture.as_ref().and_then(|c| c.mask));
        let mut no_capture: [PartCapture; 0] = [];
        let capture_cells = DisjointSlice::new(match capture {
            Some(capture) => capture.parts.as_mut_slice(),
            None => &mut no_capture,
        });
        run_ranges(num_parts, cx.threads, |parts| {
            for p in parts {
                let part = &cx.pg.parts()[p];
                // SAFETY: partition ranges are disjoint across shards, so
                // partition p's partial buffer, matched count and capture
                // are this shard's alone (a capture is read only when
                // recording, when there is one per partition).
                let (out, matched, capture) = unsafe {
                    let capture = if recording {
                        Some(capture_cells.get_mut(p))
                    } else {
                        None
                    };
                    (partial_cells.get_mut(p), matched_cells.get_mut(p), capture)
                };
                *matched = match (filtered, capture) {
                    (true, None) => cx.scan_edges(part, states, wanted, out, |_, _| {}),
                    (false, None) => cx.scan_edges(part, states, |_, _| true, out, |_, _| {}),
                    (true, Some(cap)) => {
                        let note = |edge, msgs: &_| cap.scanned(edge, msgs, mask);
                        cx.scan_edges(part, states, wanted, out, note)
                    }
                    (false, Some(cap)) => {
                        let note = |edge, msgs: &_| cap.scanned(edge, msgs, mask);
                        cx.scan_edges(part, states, |_, _| true, out, note)
                    }
                };
            }
        });
    }

    /// Sparse phase 1 — emit (shard: homes): every frontier vertex's
    /// incidence row is read under the program's [`ActiveDirection`]; an
    /// edge both of whose endpoints could claim it (`Either` with both
    /// active — a self-loop included) is taken from its source's side only,
    /// so each edge the dense predicate matches is taken exactly once. A
    /// taken edge counts on its partition's cell of `matched`; what `send`
    /// returns becomes records, all collected in shard 0's buffer. With
    /// `RECORD` each shard also lists the edges it took, for
    /// [`Run::note_walk`].
    fn emit<const RECORD: bool>(&mut self, incidence: &Incidence) {
        let Self {
            cx,
            states,
            active,
            fb,
            walk_shards,
            ..
        } = self;
        let (cx, states, active) = (&*cx, &*states, &**active);
        let frontier = &fb.frontier;
        let num_parts = frontier.len();
        if walk_shards.is_empty() {
            walk_shards.resize_with(cx.threads, || WalkShard {
                records: Vec::new(),
                matched: vec![0; num_parts],
                taken: Vec::new(),
            });
        }
        run_chunked(num_parts, cx.threads, walk_shards, |homes, shard| {
            let program = cx.program;
            let home = cx.index.home.as_slice();
            let (out_deg, in_deg) = (cx.index.out_deg.as_slice(), cx.index.in_deg.as_slice());
            let WalkShard {
                records,
                matched,
                taken,
            } = shard;
            let mut take = |src: VertexId, dst: VertexId, at: &Occurrence| {
                let (s, d) = (vid_index(src), vid_index(dst));
                matched[part_index(at.part)] += 1;
                if RECORD {
                    taken.push((at.part, at.edge));
                }
                let triplet = Triplet {
                    src,
                    dst,
                    src_state: states.row(s),
                    dst_state: states.row(d),
                    src_out_degree: out_deg[s],
                    dst_in_degree: in_deg[d],
                };
                let mut emit = |to_dst, msg| {
                    let to = if to_dst { dst } else { src };
                    records.push(Record {
                        home: home[vid_index(to)],
                        to,
                        part: at.part,
                        edge: at.edge,
                        to_dst,
                        msg,
                    })
                };
                match program.send(&triplet) {
                    Messages::None => {}
                    Messages::ToSrc(m) => emit(false, m),
                    Messages::ToDst(m) => emit(true, m),
                    Messages::Both(ms, md) => {
                        emit(false, ms);
                        emit(true, md);
                    }
                }
            };
            let is_active = |v: VertexId| active[vid_index(v)];
            let dir = program.active_direction();
            for &v in homes.flat_map(|q| &frontier[q]) {
                let (as_src, as_dst) = incidence.of(v);
                match dir {
                    ActiveDirection::Either => {
                        as_src.iter().for_each(|at| take(v, at.other, at));
                        for at in as_dst.iter().filter(|at| !is_active(at.other)) {
                            take(at.other, v, at);
                        }
                    }
                    ActiveDirection::Out => as_src.iter().for_each(|at| take(v, at.other, at)),
                    ActiveDirection::In => as_dst.iter().for_each(|at| take(at.other, v, at)),
                    ActiveDirection::Both => {
                        for at in as_src.iter().filter(|at| is_active(at.other)) {
                            take(v, at.other, at);
                        }
                    }
                }
            }
        });

        fb.matched.fill(0);
        let mut all = std::mem::take(&mut walk_shards[0].records);
        for shard in walk_shards.iter_mut() {
            all.append(&mut shard.records);
            for (total, cell) in fb.matched.iter_mut().zip(&mut shard.matched) {
                *total += std::mem::take(cell);
            }
        }
        walk_shards[0].records = all;
    }

    /// Notes what [`Run::emit`] did into a recording run's `capture`: the
    /// edges the shards took, and the messages in shard 0's records.
    fn note_walk(&mut self, capture: &mut Capture<P::Msg>) {
        let Capture { parts, mask } = capture;
        for shard in self.walk_shards.iter_mut() {
            for (part, edge) in shard.taken.drain(..) {
                parts[part_index(part)].taken(edge);
            }
        }
        for r in &self.walk_shards[0].records {
            parts[part_index(r.part)].messaged(r.edge, r.to_dst, &r.msg, *mask);
        }
    }

    /// Sparse phase 2 — sort the records into receiver runs (see [`Record`]).
    fn sort(&mut self) {
        let key = |r: &Record<_>| (r.home, r.to, r.part, r.edge, r.to_dst);
        self.walk_shards[0].records.sort_unstable_by_key(key);
    }

    /// Sparse phase 3 — fold (shard: home ranges of the sorted records, cut
    /// at home boundaries): clears the old frontier's activity bits
    /// list-wise, then takes the records by value. Each (receiver,
    /// partition) sub-run merges in edge order into the partial the dense
    /// scan would have left in the receiver's slot, billed as the shuffle
    /// bills that slot; a receiver's partials merge in partition order; the
    /// receiver is applied, its activity bit set, and itself pushed on its
    /// home's touched list — the next frontier, ascending by id under any
    /// sharding. Returns the partials: what a shuffle would have moved.
    fn fold(&mut self) -> u64 {
        let Self {
            cx,
            states,
            active,
            fb,
            deltas,
            walk_shards,
            ..
        } = self;
        let (cx, fb) = (&*cx, &mut **fb);
        let records = &mut walk_shards[0].records;
        let (frontier, num_parts) = (&fb.frontier, fb.frontier.len());
        let shard_homes = num_parts.div_ceil(cx.threads).max(1);
        let cuts: Vec<usize> = (0..=num_parts.div_ceil(shard_homes))
            .map(|k| records.partition_point(|r| part_index(r.home) < k * shard_homes))
            .collect();
        let stride = states.stride;
        let state_cells = DisjointSlice::new(states.cells.as_mut_slice());
        let active_cells = DisjointSlice::new(active);
        let touched_cells = DisjointSlice::new(fb.touched_inbox.as_mut_slice());
        deltas.iter_mut().for_each(MeterDelta::reset);
        drain_cut_slices(records, &cuts, deltas, |k, shard, delta| {
            let (program, msg_overhead) = (cx.program, cx.msg_overhead);
            let exec_of_part = cx.index.exec_of_part.as_slice();
            // SAFETY: the cuts fall on home boundaries, so every receiver in
            // this shard's records is mastered in the shard's home range,
            // as is every vertex of `frontier[q]` for a home q in it; home
            // ranges are disjoint across shards, so those vertices' state,
            // activity bit and home's touched list are this shard's alone.
            let own = |v: VertexId, q: usize| unsafe {
                (
                    P::State::row_mut(state_cells.row_mut(vid_index(v), stride)),
                    active_cells.get_mut(vid_index(v)),
                    touched_cells.get_mut(q),
                )
            };
            let homes = k * shard_homes..((k + 1) * shard_homes).min(num_parts);
            for (q, old) in homes.clone().zip(&frontier[homes]) {
                for &fv in old {
                    *own(fv, q).1 = false;
                }
            }
            let mut shard = shard.peekable();
            let mut inbox = None;
            while let Some(first) = shard.next() {
                let (v, q, part) = (first.to, part_index(first.home), first.part);
                let mut partial = first.msg;
                while let Some(next) = shard.next_if(|r| r.to == v && r.part == part) {
                    partial = program.merge(partial, next.msg);
                }
                let bytes = program.msg_bytes(&partial) + msg_overhead;
                delta.send_exec(exec_of_part[part_index(part)], exec_of_part[q], 1, bytes);
                delta.local_bytes[q] += bytes;
                delta.msgs += 1;
                deposit(program, &mut inbox, partial);
                if shard.peek().is_some_and(|r| r.to == v) {
                    continue;
                }
                let Some(msg) = inbox.take() else { continue };
                let (state, is_active, touched) = own(v, q);
                cx.apply_vertex((v, q), state, &msg, delta);
                *is_active = true;
                touched.push(v);
            }
        });
        deltas.iter().map(|d| d.msgs).sum()
    }

    /// Dense phase 2 — shuffle: every partial whose vertex is mastered in
    /// the shard's home range moves to that vertex's inbox entry, merged
    /// with what earlier partitions sent, and is billed. Partitions are
    /// visited outermost in ascending order and hold at most one slot per
    /// vertex, so every vertex merges its messages in ascending
    /// source-partition order whatever the sharding. Vertices whose inbox
    /// entry goes `None → Some` are recorded per home partition — the next
    /// frontier. Returns the number of messages moved.
    ///
    /// Per partition the shard visits its contiguous slice of the
    /// home-grouped locals — or, when it is the whole home range (always so
    /// at one thread), the partial buffer itself by iterator, which needs
    /// no grouping and no per-slot indexing. A delivered message is counted
    /// on its home's cell of the delta's scratch row, billed once per
    /// source partition.
    fn shuffle(&mut self) -> u64 {
        let Self {
            cx,
            partials,
            inbox,
            fb,
            deltas,
            ..
        } = self;
        let cx = &*cx;
        let num_parts = partials.len();
        let partial_cells: Vec<DisjointSlice<'_, Option<P::Msg>>> =
            partials.iter_mut().map(|p| DisjointSlice::new(p)).collect();
        let inbox_cells = DisjointSlice::new(inbox.as_mut_slice());
        let touched_cells = DisjointSlice::new(fb.touched_inbox.as_mut_slice());
        deltas.iter_mut().for_each(MeterDelta::reset);
        run_chunked(num_parts, cx.threads, deltas, |homes, delta| {
            // Sliced once per shard, not reached through `cx` per message.
            let (program, msg_overhead) = (cx.program, cx.msg_overhead);
            let home = cx.index.home.as_slice();
            let exec_of_part = cx.index.exec_of_part.as_slice();
            for (p, slots) in partial_cells.iter().enumerate() {
                let globals = cx.pg.parts()[p].vertices.as_slice();
                // SAFETY: home ranges are disjoint across shards, so a
                // vertex mastered in `homes` is this shard's alone — and
                // with it the vertex's slot in every partial buffer.
                // `slot_of` is called only for locals mastered in `homes`.
                let slot_of = |local: usize| unsafe { slots.get_mut(local) };
                let row = delta.row.as_mut_slice();
                let mut delivered = false;
                let mut deliver = |local: usize, slot: &mut Option<P::Msg>| {
                    let Some(msg) = slot.take() else { return };
                    let v = vid_index(globals[local]);
                    let q = part_index(home[v]);
                    // `from_exec` is fixed per source partition: count the
                    // message on q's cell, bill the row after the partition.
                    let cell = &mut row[q];
                    cell.0 += 1;
                    cell.1 += program.msg_bytes(&msg) + msg_overhead;
                    delivered = true;
                    // SAFETY: every slot handed to `deliver` belongs to a
                    // vertex mastered in `homes`; by the same argument v's
                    // inbox entry and q's touched list are this shard's.
                    let (entry, touched_q) =
                        unsafe { (inbox_cells.get_mut(v), touched_cells.get_mut(q)) };
                    if deposit(program, entry, msg) {
                        touched_q.push(v as VertexId);
                    }
                };
                if homes.len() == num_parts {
                    // SAFETY: the shard is the whole home range, so no
                    // other shard exists to touch any slot.
                    let all = unsafe { slots.as_mut_slice() };
                    for (local, slot) in all.iter_mut().enumerate() {
                        deliver(local, slot);
                    }
                } else {
                    for &local in cx.index.parts[p].locals_of_homes(&homes) {
                        deliver(local as usize, slot_of(local as usize));
                    }
                }
                if delivered {
                    delta.flush_row(exec_of_part[p], exec_of_part, homes.clone());
                }
            }
        });
        deltas.iter().map(|d| d.msgs).sum()
    }

    /// Dense phases 3 and 4 — apply at masters, broadcast to mirrors: for
    /// every home partition in the shard, [`Ctx::apply_vertex`] on exactly
    /// the vertices whose inbox entry the shuffle wrote — no O(V) inbox
    /// sweep — metered on top of what the shuffle left in the deltas. With
    /// `clear_frontier` the old frontier's activity bits are cleared
    /// list-wise first (no O(V) bitset reset), then every applied vertex's
    /// bit is set: the touched lists are the next frontier. Applies are
    /// independent per vertex and all metering is commutative-integral, so
    /// visit order never shows in states or bills.
    fn apply(&mut self, clear_frontier: bool) {
        let Self {
            cx,
            states,
            inbox,
            active,
            fb,
            deltas,
            ..
        } = self;
        let (cx, fb) = (&*cx, &**fb);
        let all_active = cx.program.always_active();
        let inbox_cells = DisjointSlice::new(inbox.as_mut_slice());
        let stride = states.stride;
        let state_cells = DisjointSlice::new(states.cells.as_mut_slice());
        let active_cells = DisjointSlice::new(active);
        run_chunked(fb.frontier.len(), cx.threads, deltas, |homes, delta| {
            // SAFETY: `frontier[q]` and `touched_inbox[q]` hold only
            // vertices mastered at q, and every q in `homes` is this
            // shard's alone — so are those vertices' inbox entry, state and
            // activity bit.
            let own = |v: VertexId| unsafe {
                let v = vid_index(v);
                (
                    inbox_cells.get_mut(v),
                    P::State::row_mut(state_cells.row_mut(v, stride)),
                    active_cells.get_mut(v),
                )
            };
            for q in homes {
                if clear_frontier {
                    for &fv in &fb.frontier[q] {
                        *own(fv).2 = false;
                    }
                }
                for &tv in &fb.touched_inbox[q] {
                    let (slot, state, is_active) = own(tv);
                    let Some(msg) = slot.take() else { continue };
                    cx.apply_vertex((tv, q), state, &msg, delta);
                    if !all_active {
                        *is_active = true;
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bill::{MessageSizing, Receivers};
    use cutfit_graph::{Edge, Graph};
    use cutfit_partition::{GraphXStrategy, Partitioner};
    use std::borrow::BorrowMut;

    /// Max-id label propagation: converges to the component-wise max.
    struct MaxLabel;
    impl VertexProgram for MaxLabel {
        type State = u64;
        type Msg = u64;
        fn name(&self) -> &'static str {
            "max-label"
        }
        fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> u64 {
            v
        }
        fn initial_msg(&self) -> u64 {
            0
        }
        fn apply(&self, _v: VertexId, state: &mut u64, msg: &u64) {
            *state = (*state).max(*msg);
        }
        fn send(&self, t: &Triplet<'_, u64>) -> Messages<u64> {
            match (t.src_state > t.dst_state, t.dst_state > t.src_state) {
                (true, _) => Messages::ToDst(*t.src_state),
                (_, true) => Messages::ToSrc(*t.dst_state),
                _ => Messages::None,
            }
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
        fn fixed_state_bytes(&self) -> Option<u64> {
            Some(8)
        }
    }

    fn two_components() -> Graph {
        Graph::new(
            7,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(4, 5),
            ],
        )
    }

    fn cfg() -> ClusterConfig {
        ClusterConfig::paper_cluster()
    }

    #[test]
    fn max_label_converges_per_component() {
        let pg = GraphXStrategy::RandomVertexCut.partition(&two_components(), 4);
        let r = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.states, vec![3, 3, 3, 3, 5, 5, 6]);
        assert!(r.supersteps >= 3, "information must travel the path");
        assert!(r.sim.total_seconds > 0.0);
    }

    #[test]
    fn isolated_vertices_keep_initial_state() {
        let g = Graph::new(3, vec![Edge::new(0, 1)]);
        let pg = GraphXStrategy::SourceCut.partition(&g, 2);
        let r = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        assert_eq!(r.states[2], 2);
    }

    #[test]
    fn max_iterations_caps_supersteps() {
        let g = Graph::new(50, (0..49).map(|v| Edge::new(v, v + 1)).collect());
        let pg = GraphXStrategy::EdgePartition1D.partition(&g, 4);
        let opts = PregelConfig {
            max_iterations: 5,
            ..Default::default()
        };
        let r = run_pregel(&MaxLabel, &pg, &cfg(), &opts).unwrap();
        assert_eq!(r.supersteps, 5);
        assert!(!r.converged);
    }

    #[test]
    fn parallel_equals_sequential() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 9);
        let pg = GraphXStrategy::EdgePartition2D.partition(&g, 16);
        let seq = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        let par = run_pregel(
            &MaxLabel,
            &pg,
            &cfg(),
            &PregelConfig {
                executor: ExecutorMode::Parallel { threads: 4 },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seq.states, par.states);
        assert_eq!(seq.supersteps, par.supersteps);
        assert_eq!(seq.sim, par.sim, "metering must be identical too");
    }

    #[test]
    fn auto_equals_sequential() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8);
        let pg = GraphXStrategy::CanonicalRandomVertexCut.partition(&g, 8);
        let seq = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        let auto = run_pregel(
            &MaxLabel,
            &pg,
            &cfg(),
            &PregelConfig {
                executor: ExecutorMode::Auto,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(ExecutorMode::Auto.threads() >= 1);
        assert_eq!(seq.states, auto.states);
        assert_eq!(seq.sim, auto.sim);
    }

    /// MaxLabel with a fat fixed-size state, for memory-accounting tests.
    struct FatLabel;
    impl VertexProgram for FatLabel {
        type State = u64;
        type Msg = u64;
        fn name(&self) -> &'static str {
            "fat-label"
        }
        fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> u64 {
            v
        }
        fn initial_msg(&self) -> u64 {
            0
        }
        fn apply(&self, _v: VertexId, state: &mut u64, msg: &u64) {
            *state = (*state).max(*msg);
        }
        fn send(&self, t: &Triplet<'_, u64>) -> Messages<u64> {
            if t.src_state > t.dst_state {
                Messages::ToDst(*t.src_state)
            } else {
                Messages::None
            }
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
        fn state_bytes(&self, _state: &u64) -> u64 {
            1 << 20 // 1 MB per vertex
        }
        fn fixed_state_bytes(&self) -> Option<u64> {
            Some(1 << 20)
        }
    }

    #[test]
    fn isolated_vertices_count_toward_resident_memory() {
        // Same single edge; one graph carries 98 extra isolated vertices.
        // Their 1 MB states must surface in peak executor memory, charged at
        // the hash-fallback homes.
        let small = Graph::new(2, vec![Edge::new(0, 1)]);
        let sparse = Graph::new(100, vec![Edge::new(0, 1)]);
        let run = |g: &Graph| {
            let pg = GraphXStrategy::RandomVertexCut.partition(g, 4);
            run_pregel(&FatLabel, &pg, &cfg(), &PregelConfig::default()).unwrap()
        };
        let base = run(&small).sim.peak_executor_memory_gb;
        let with_isolated = run(&sparse).sim.peak_executor_memory_gb;
        // 98 isolated MB spread over 4 partitions: the busiest executor
        // gains at least a couple dozen MB even under a skewed hash.
        assert!(
            with_isolated > base + 0.02,
            "isolated vertices must be resident somewhere: {with_isolated} vs {base}"
        );
    }

    /// A program whose state grows as labels arrive — exercises the
    /// incremental (delta-based) residency path for variable-size states.
    struct GrowingTrail;
    impl VertexProgram for GrowingTrail {
        type State = Vec<u64>;
        type Msg = u64;
        fn name(&self) -> &'static str {
            "growing-trail"
        }
        fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> Vec<u64> {
            vec![v]
        }
        fn initial_msg(&self) -> u64 {
            0
        }
        fn apply(&self, _v: VertexId, state: &mut Vec<u64>, msg: &u64) {
            if state.last() != Some(msg) {
                state.push(*msg);
            }
        }
        fn send(&self, t: &Triplet<'_, Vec<u64>>) -> Messages<u64> {
            let (s, d) = (t.src_state.last().unwrap(), t.dst_state.last().unwrap());
            if s > d {
                Messages::ToDst(*s)
            } else {
                Messages::None
            }
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
        fn state_bytes(&self, state: &Vec<u64>) -> u64 {
            8 * state.len() as u64
        }
    }

    #[test]
    fn variable_state_metering_is_mode_independent() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8);
        let pg = GraphXStrategy::EdgePartition1D.partition(&g, 8);
        let seq = run_pregel(&GrowingTrail, &pg, &cfg(), &PregelConfig::default()).unwrap();
        let par = run_pregel(
            &GrowingTrail,
            &pg,
            &cfg(),
            &PregelConfig {
                executor: ExecutorMode::Parallel { threads: 3 },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seq.states, par.states);
        assert_eq!(
            seq.sim, par.sim,
            "incremental residency deltas must be order-independent"
        );
        assert!(
            seq.sim.peak_executor_memory_gb > 0.0,
            "growing states must register in memory accounting"
        );
    }

    #[test]
    fn worse_partitioning_ships_more_remote_bytes() {
        // CRVC collocates both directions; RVC splits them — on a symmetric
        // graph RVC must replicate more and thus ship more bytes.
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 11).symmetrized();
        let crvc = GraphXStrategy::CanonicalRandomVertexCut.partition(&g, 32);
        let rvc = GraphXStrategy::RandomVertexCut.partition(&g, 32);
        let opts = PregelConfig {
            max_iterations: 3,
            ..Default::default()
        };
        let a = run_pregel(&MaxLabel, &crvc, &cfg(), &opts).unwrap();
        let b = run_pregel(&MaxLabel, &rvc, &cfg(), &opts).unwrap();
        assert!(
            b.sim.remote_bytes > a.sim.remote_bytes,
            "rvc {} vs crvc {}",
            b.sim.remote_bytes,
            a.sim.remote_bytes
        );
    }

    #[test]
    fn activity_tracking_reduces_scans_over_time() {
        // After convergence regions stop being scanned: total messages are
        // finite even with a generous iteration cap.
        let g = two_components();
        let pg = GraphXStrategy::CanonicalRandomVertexCut.partition(&g, 2);
        let r = run_pregel(
            &MaxLabel,
            &pg,
            &cfg(),
            &PregelConfig {
                max_iterations: 1000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.converged);
        assert!(r.supersteps < 10);
    }

    #[test]
    fn oom_is_reported() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 10);
        let pg = GraphXStrategy::RandomVertexCut.partition(&g, 8);
        let tiny = ClusterConfig {
            executor_memory_gb: 1e-6,
            ..ClusterConfig::paper_cluster()
        };
        let err = run_pregel(&MaxLabel, &pg, &tiny, &PregelConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
    }

    /// MaxLabel without the fixed-size declaration: its setup sums each
    /// class's bytes per vertex instead of multiplying by the population.
    struct MaxLabelUndeclared;
    impl VertexProgram for MaxLabelUndeclared {
        type State = u64;
        type Msg = u64;
        fn name(&self) -> &'static str {
            "max-label-undeclared"
        }
        fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> u64 {
            v
        }
        fn initial_msg(&self) -> u64 {
            0
        }
        fn apply(&self, _v: VertexId, state: &mut u64, msg: &u64) {
            *state = (*state).max(*msg);
        }
        fn send(&self, t: &Triplet<'_, u64>) -> Messages<u64> {
            match (t.src_state > t.dst_state, t.dst_state > t.src_state) {
                (true, _) => Messages::ToDst(*t.src_state),
                (_, true) => Messages::ToSrc(*t.dst_state),
                _ => Messages::None,
            }
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
    }

    /// The billing oracle: a plain sequential Pregel loop that bills the way
    /// the engine did before the broadcast-class table — one ledger call per
    /// (vertex, mirror) pair for every state broadcast, setup included, and
    /// one per shuffled message — straight into the sim's ledger. Dense
    /// scans only; messages merge in ascending source-partition order, so
    /// states are comparable too. It keeps one owned state per vertex,
    /// whatever column the engine stores them in.
    fn reference_run<P: VertexProgram>(
        program: &P,
        pg: &PartitionedGraph,
        cluster: &ClusterConfig,
        opts: &PregelConfig,
    ) -> Result<PregelResult<OwnedState<P>>, SimError>
    where
        OwnedState<P>: BorrowMut<P::State>,
    {
        let n = pg.num_vertices();
        let index = ScanIndex::build(pg, cluster, false);
        let (home, exec_of_part) = (&index.home, &index.exec_of_part);
        let overhead = cluster.cost.message_overhead_bytes;
        let mut sim = ClusterSim::new(cluster.clone(), pg.num_parts());
        if opts.charge_initial_load {
            sim.charge_load(cutfit_cluster::load_bytes(n, pg.num_edges()));
        }
        let broadcast = |sim: &mut ClusterSim, v: VertexId, bytes: u64| {
            let h = home[vid_index(v)];
            for &p in pg.routing().parts_of(v) {
                if p != h {
                    let (from, to) = (exec_of_part[part_index(h)], exec_of_part[part_index(p)]);
                    sim.ledger().send_exec(from, to, 1, bytes);
                }
            }
        };

        let ctx = InitCtx {
            out_degrees: &index.out_deg,
            in_degrees: &index.in_deg,
            num_vertices: n,
        };
        let init_msg = program.initial_msg();
        let mut states: Vec<OwnedState<P>> = (0..n)
            .map(|v| {
                let mut state = program.initial_state(v, &ctx);
                program.apply(v, state.borrow_mut(), &init_msg);
                state
            })
            .collect();
        let mut resident: Vec<u64> = pg.parts().iter().map(|p| p.structure_bytes()).collect();
        for v in 0..n {
            let size = program.state_bytes(states[vid_index(v)].borrow());
            sim.ledger().vertex_ops(home[vid_index(v)], 1);
            broadcast(&mut sim, v, size + overhead);
            for &p in pg.routing().parts_of(v) {
                resident[part_index(p)] += size;
            }
            if pg.masters()[vid_index(v)] == NO_PART {
                resident[part_index(home[vid_index(v)])] += size;
            }
        }
        for (p, &bytes) in resident.iter().enumerate() {
            sim.set_resident(p as PartId, bytes);
        }
        sim.end_superstep()?;

        let dir = program.active_direction();
        let mut active = vec![true; vid_index(n)];
        let mut active_count = n;
        let (mut supersteps, mut converged) = (0u64, false);
        while supersteps < opts.max_iterations {
            let mut partials: Vec<Vec<Option<P::Msg>>> = Vec::new();
            let mut scanned = 0u64;
            for (p, part) in pg.parts().iter().enumerate() {
                let mut out = vec![None; part.vertices.len()];
                let mut matched = 0u64;
                for &(ls, ld) in &part.edges {
                    let (src, dst) = (part.vertices[ls as usize], part.vertices[ld as usize]);
                    let (s, d) = (vid_index(src), vid_index(dst));
                    let wanted = match dir {
                        ActiveDirection::Either => active[s] || active[d],
                        ActiveDirection::Out => active[s],
                        ActiveDirection::In => active[d],
                        ActiveDirection::Both => active[s] && active[d],
                    };
                    if !wanted {
                        continue;
                    }
                    matched += 1;
                    let triplet = Triplet {
                        src,
                        dst,
                        src_state: states[s].borrow(),
                        dst_state: states[d].borrow(),
                        src_out_degree: index.out_deg[s],
                        dst_in_degree: index.in_deg[d],
                    };
                    match program.send(&triplet) {
                        Messages::None => {}
                        Messages::ToSrc(m) => drop(deposit(program, &mut out[ls as usize], m)),
                        Messages::ToDst(m) => drop(deposit(program, &mut out[ld as usize], m)),
                        Messages::Both(ms, md) => {
                            deposit(program, &mut out[ls as usize], ms);
                            deposit(program, &mut out[ld as usize], md);
                        }
                    }
                }
                sim.ledger().edge_scans(p as PartId, matched);
                scanned += matched;
                partials.push(out);
            }
            sim.ledger()
                .record_frontier(active_count, n, scanned, pg.num_edges());

            let mut inbox: Vec<Option<P::Msg>> = vec![None; vid_index(n)];
            let mut msg_count = 0u64;
            for (p, out) in partials.into_iter().enumerate() {
                for (local, slot) in out.into_iter().enumerate() {
                    let Some(msg) = slot else { continue };
                    let v = vid_index(pg.parts()[p].vertices[local]);
                    let bytes = program.msg_bytes(&msg) + overhead;
                    let to = exec_of_part[part_index(home[v])];
                    sim.ledger().send_exec(exec_of_part[p], to, 1, bytes);
                    sim.ledger().local_bytes(home[v], bytes);
                    msg_count += 1;
                    deposit(program, &mut inbox[v], msg);
                }
            }
            if msg_count == 0 {
                converged = true;
                sim.end_superstep()?;
                break;
            }

            let mut grown = vec![0i64; pg.num_parts() as usize];
            active_count = 0;
            for v in 0..n {
                let got = inbox[vid_index(v)].take();
                if !program.always_active() {
                    active[vid_index(v)] = got.is_some();
                }
                let Some(msg) = got else { continue };
                active_count += 1;
                let state: &mut P::State = states[vid_index(v)].borrow_mut();
                let old_bytes = program.state_bytes(state);
                program.apply(v, state, &msg);
                let size = program.state_bytes(state);
                sim.ledger().vertex_ops(home[vid_index(v)], 1);
                sim.ledger().local_bytes(home[vid_index(v)], size);
                broadcast(&mut sim, v, size + overhead);
                for &p in pg.routing().parts_of(v) {
                    grown[part_index(p)] += size as i64 - old_bytes as i64;
                }
            }
            if program.always_active() {
                active_count = n;
            }
            for (p, &delta) in grown.iter().enumerate() {
                sim.adjust_resident(p as PartId, delta);
            }
            supersteps += 1;
            sim.end_superstep()?;
        }
        Ok(PregelResult {
            states,
            supersteps,
            converged,
            sim: sim.into_report(),
        })
    }

    /// SSSP's shape (the algorithms crate sits above this one): hop
    /// distances to a few landmarks, offered against edge direction; the
    /// serialized state is a map of the reached landmarks, so it grows at
    /// most once per landmark.
    struct Hops(Vec<VertexId>);
    impl Hops {
        fn map_bytes(dist: &[u32]) -> u64 {
            8 + 12 * dist.iter().filter(|&&d| d != u32::MAX).count() as u64
        }
    }
    impl VertexProgram for Hops {
        type State = [u32];
        type Msg = Vec<u32>;
        fn name(&self) -> &'static str {
            "hops"
        }
        fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> Vec<u32> {
            let dist = |&l: &VertexId| if l == v { 0 } else { u32::MAX };
            self.0.iter().map(dist).collect()
        }
        fn initial_msg(&self) -> Vec<u32> {
            vec![u32::MAX; self.0.len()]
        }
        fn apply(&self, _v: VertexId, state: &mut [u32], msg: &Vec<u32>) {
            for (s, &m) in state.iter_mut().zip(msg) {
                *s = (*s).min(m);
            }
        }
        fn send(&self, t: &Triplet<'_, [u32]>) -> Messages<Vec<u32>> {
            let offer: Vec<u32> = t.dst_state.iter().map(|d| d.saturating_add(1)).collect();
            if offer.iter().zip(t.src_state).any(|(c, s)| c < s) {
                Messages::ToSrc(offer)
            } else {
                Messages::None
            }
        }
        fn merge(&self, a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
            a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect()
        }
        fn state_bytes(&self, state: &[u32]) -> u64 {
            Self::map_bytes(state)
        }
        fn msg_bytes(&self, msg: &Vec<u32>) -> u64 {
            Self::map_bytes(msg)
        }
        fn message_sizing(&self) -> Option<MessageSizing<Vec<u32>>> {
            Some(MessageSizing::Masked {
                mask: |msg| {
                    (0..)
                        .zip(msg)
                        .fold(0, |m, (i, &d)| m | u64::from(d != u32::MAX) << i)
                },
                base: 8,
                per_entry: 12,
            })
        }
    }

    /// RMAT with isolated vertices appended, cut seven ways — the six
    /// GraphX strategies and one stateful vertex-cut streamer — each cut
    /// beside its edge assignment.
    fn oracle_assigned(
        scale: u32,
        num_parts: PartId,
    ) -> Vec<(String, PartitionedGraph, Vec<PartId>)> {
        let config = cutfit_datagen::RmatConfig {
            scale,
            edges: 8 << scale,
            ..Default::default()
        };
        let g = cutfit_datagen::rmat(&config, 7);
        let g = Graph::new(g.num_vertices() + 7, g.edges().to_vec());
        let mut partitioners: Vec<Box<dyn Partitioner>> = GraphXStrategy::all()
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn Partitioner>)
            .collect();
        partitioners.push(Box::new(cutfit_partition::Hdrf::default()));
        partitioners
            .iter()
            .map(|p| {
                let assignment = p.assign_edges(&g, num_parts);
                let pg = PartitionedGraph::build(&g, &assignment, num_parts);
                (p.name().to_string(), pg, assignment)
            })
            .collect()
    }

    fn oracle_cuts(scale: u32, num_parts: PartId) -> Vec<(String, PartitionedGraph)> {
        let cuts = oracle_assigned(scale, num_parts).into_iter();
        cuts.map(|(name, pg, _)| (name, pg)).collect()
    }

    fn on_executors(executors: u32) -> ClusterConfig {
        ClusterConfig {
            executors,
            ..ClusterConfig::paper_cluster()
        }
    }

    /// Every executor × scan mode of `program` on `pg` must equal the
    /// oracle in states and in the whole `SimReport`.
    fn assert_bills_like_the_reference<P: VertexProgram>(
        program: &P,
        pg: &PartitionedGraph,
        cluster: &ClusterConfig,
        what: &str,
    ) where
        OwnedState<P>: BorrowMut<P::State> + PartialEq + std::fmt::Debug,
    {
        let oracle = reference_run(program, pg, cluster, &PregelConfig::default()).unwrap();
        for executor in [
            ExecutorMode::Sequential,
            ExecutorMode::Parallel { threads: 2 },
            ExecutorMode::Parallel { threads: 3 },
        ] {
            let opts = PregelConfig {
                executor,
                ..Default::default()
            };
            for scan_mode in [ScanMode::Auto, ScanMode::Dense, ScanMode::Sparse] {
                let r =
                    with_scan_mode(scan_mode, || run_pregel(program, pg, cluster, &opts)).unwrap();
                let what = format!("{what} {} {executor:?} {scan_mode:?}", program.name());
                assert_eq!(r.states, oracle.states, "{what}");
                assert_eq!(r.supersteps, oracle.supersteps, "{what}");
                assert_eq!(r.converged, oracle.converged, "{what}");
                assert_eq!(r.sim, oracle.sim, "{what}: the bill drifted");
            }
        }
    }

    #[test]
    fn class_billing_equals_the_per_replica_walk() {
        // 10 partitions are a multiple of none of 3, 4, 7 and 64, so the
        // round-robin partition→executor map leaves executors unevenly
        // loaded (and 54 of 64 idle); one executor makes every pair local.
        let cuts = oracle_cuts(7, 10);
        for executors in [1, 3, 4, 7, 64] {
            let cluster = on_executors(executors);
            for (cut, pg) in &cuts {
                let what = format!("{cut} on {executors} executors:");
                assert_bills_like_the_reference(&MaxLabel, pg, &cluster, &what);
                assert_bills_like_the_reference(&GrowingTrail, pg, &cluster, &what);
                assert_bills_like_the_reference(&Hops(vec![0, 5, 17]), pg, &cluster, &what);
            }
        }
    }

    #[test]
    fn class_table_setup_bills_like_the_per_replica_walk() {
        // With no message superstep the report is the load plus the setup
        // superstep alone. The fixed-size arm (class populations × a
        // constant), the variable-size arm (summed per vertex — the same
        // program without its declaration, then one whose sizes differ)
        // and the oracle's walk over every (vertex, mirror) pair must agree,
        // isolated vertices and their hash-fallback residency included.
        let setup_only = PregelConfig {
            max_iterations: 0,
            ..Default::default()
        };
        for (cut, pg) in &oracle_cuts(9, 16) {
            let oracle = reference_run(&MaxLabel, pg, &cfg(), &setup_only).unwrap();
            let declared = run_pregel(&MaxLabel, pg, &cfg(), &setup_only).unwrap();
            let swept = run_pregel(&MaxLabelUndeclared, pg, &cfg(), &setup_only).unwrap();
            assert_eq!(declared.supersteps, 0);
            assert_eq!(declared.sim, oracle.sim, "{cut}: fixed-size setup drifted");
            assert_eq!(swept.sim, oracle.sim, "{cut}: variable-size setup drifted");
            let hops = Hops(vec![3, 11]);
            let oracle = reference_run(&hops, pg, &cfg(), &setup_only).unwrap();
            let r = run_pregel(&hops, pg, &cfg(), &setup_only).unwrap();
            assert_eq!(r.sim, oracle.sim, "{cut}: mixed-size setup drifted");
        }
    }

    /// An always-active sum of neighbour ids sent to the endpoints its
    /// shape names: every superstep bills the same.
    struct Steady(Receivers);
    impl VertexProgram for Steady {
        type State = u64;
        type Msg = u64;
        fn name(&self) -> &'static str {
            "steady"
        }
        fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> u64 {
            v
        }
        fn initial_msg(&self) -> u64 {
            0
        }
        fn apply(&self, _v: VertexId, state: &mut u64, msg: &u64) {
            *state = state.wrapping_add(*msg);
        }
        fn send(&self, t: &Triplet<'_, u64>) -> Messages<u64> {
            match self.0 {
                Receivers::Src => Messages::ToSrc(t.dst),
                Receivers::Dst => Messages::ToDst(t.src),
                Receivers::Both => Messages::Both(t.dst, t.src),
            }
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.wrapping_add(b)
        }
        fn always_active(&self) -> bool {
            true
        }
        fn fixed_state_bytes(&self) -> Option<u64> {
            Some(8)
        }
        fn steady_shape(&self) -> Option<SteadyShape> {
            Some(SteadyShape {
                receivers: self.0,
                msg_bytes: 8,
                state_bytes: 8,
            })
        }
        fn message_sizing(&self) -> Option<MessageSizing<u64>> {
            Some(MessageSizing::Fixed(8))
        }
    }

    #[test]
    fn closed_form_bills_every_receiver_shape_like_a_run() {
        // Each shape through a handle whose classes the closed form builds,
        // then one whose classes a run built, at a thread budget of three.
        let cuts = oracle_cuts(7, 10);
        for executors in [1, 4, 64] {
            let cluster = on_executors(executors);
            for (cut, pg) in &cuts {
                let pg = Arc::new(pg.clone());
                let mode = ExecutorMode::Parallel { threads: 3 };
                for receivers in [Receivers::Src, Receivers::Dst, Receivers::Both] {
                    let program = Steady(receivers);
                    let shape = program.steady_shape().unwrap();
                    let opts = PregelConfig {
                        max_iterations: 3,
                        executor: mode,
                        ..Default::default()
                    };
                    let mut fresh = PreparedRun::new(pg.clone(), &cluster, mode);
                    let closed = fresh.bill_steady(&shape, &opts).unwrap();
                    let ran = fresh.run(&program, &opts).unwrap();
                    let what = format!("{cut}, {executors} executors, {receivers:?}");
                    assert_eq!(closed, (ran.sim.clone(), ran.supersteps), "{what}");
                    assert_eq!(fresh.bill_steady(&shape, &opts).unwrap(), closed, "{what}");
                    assert_eq!(fresh.bill(&program, &opts).unwrap(), closed, "{what}");
                }
            }
        }
    }

    #[test]
    fn traced_bills_equal_the_run_and_the_closed_form() {
        // Recorded once per program on the first cut, at a thread budget of
        // three, and billed on every cut: Steady's receiver shapes (`Both`
        // sends two messages per edge, a self-loop's both to one vertex),
        // whose closed form is the every-edge case of the same bill, and
        // Hops' masked partials and growing states.
        let cuts = oracle_assigned(7, 10);
        let mode = ExecutorMode::Parallel { threads: 3 };
        let opts = PregelConfig {
            max_iterations: 3,
            executor: mode,
            ..Default::default()
        };
        let record = |program: &dyn Fn(&mut PreparedRun) -> MessageTrace| {
            let (_, pg, _) = &cuts[0];
            program(&mut PreparedRun::new(Arc::new(pg.clone()), &cfg(), mode))
        };
        let hops = Hops(vec![0, 5, 17]);
        let hops_trace = record(&|r| r.record(&hops, &opts, &cuts[0].2).unwrap().2);
        for executors in [1, 4, 64] {
            let cluster = on_executors(executors);
            for (cut, pg, assignment) in &cuts {
                let mut prepared = PreparedRun::new(Arc::new(pg.clone()), &cluster, mode);
                let what = format!("{cut}, {executors} executors");
                for receivers in [Receivers::Src, Receivers::Dst, Receivers::Both] {
                    let program = Steady(receivers);
                    let trace = record(&|r| r.record(&program, &opts, &cuts[0].2).unwrap().2);
                    let traced = prepared.bill_traced(&trace, assignment, &opts).unwrap();
                    let shape = program.steady_shape().unwrap();
                    assert_eq!(
                        traced,
                        prepared.bill_steady(&shape, &opts).unwrap(),
                        "{what}"
                    );
                    assert_eq!(traced, prepared.bill(&program, &opts).unwrap(), "{what}");
                }
                let traced = prepared.bill_traced(&hops_trace, assignment, &opts);
                assert_eq!(traced, prepared.bill(&hops, &opts), "{what} hops");
            }
        }
    }

    #[test]
    fn classes_expand_to_each_vertexs_mirror_executors() {
        for executors in [1, 3, 7, 64] {
            let cluster = on_executors(executors);
            for (cut, pg) in &oracle_cuts(8, 10) {
                let index = ScanIndex::build(pg, &cluster, false);
                let classes = index.classes(pg);
                assert_eq!(classes.class_of.len(), index.home.len());
                let mut population = vec![0u64; classes.len()];
                for (v, &h) in index.home.iter().enumerate() {
                    let class = classes.class_of[v] as usize;
                    population[class] += 1;
                    let mut walked: Vec<u32> = pg
                        .routing()
                        .parts_of(v as VertexId)
                        .iter()
                        .filter(|&&p| p != h)
                        .map(|&p| cluster.executor_of(p))
                        .collect();
                    walked.sort_unstable();
                    let expanded: Vec<u32> = classes
                        .mirrors_of(class)
                        .iter()
                        .flat_map(|&(exec, count)| (0..count).map(move |_| exec))
                        .collect();
                    assert_eq!(expanded, walked, "{cut}, {executors} executors, vertex {v}");
                    if !walked.is_empty() {
                        assert_eq!(classes.master_exec[class], cluster.executor_of(h));
                    }
                }
                assert_eq!(population, classes.population, "{cut}");
                assert_eq!(classes.home_counts.iter().sum::<u64>(), pg.num_vertices());
                let isolated = pg.masters().iter().filter(|&&m| m == NO_PART).count();
                assert!(isolated >= 7, "{cut}: the appended vertices have no edge");
                assert_eq!(classes.isolated_counts.iter().sum::<u64>(), isolated as u64);
            }
        }
    }

    #[test]
    fn meter_delta_reset_clears_every_accumulator() {
        // What a phase abandoned halfway leaves behind: classes hit but not
        // flushed, a row counted but not billed.
        let mut delta = MeterDelta::new(4, 8);
        delta.class_sent.resize(5, (0, 0));
        delta.broadcast(3, 40);
        delta.broadcast(3, 24);
        delta.broadcast(1, 8);
        assert_eq!(delta.class_sent[3], (2, 64));
        assert_eq!(delta.touched_classes, [3, 1]);
        delta.row[6] = (2, 100);
        delta.flush_row(1, &[0, 1, 2, 3, 0, 1, 2, 3], 4..8);
        assert_eq!((delta.msgs, delta.local_bytes[6]), (2, 100));
        assert_eq!(
            delta.exec_msgs[4 + 2],
            2,
            "executor 1 → partition 6's executor 2"
        );
        delta.row[2] = (1, 9);
        delta.vertex_ops[0] = 7;
        delta.resident[5] = -3;
        delta.reset();
        let fresh = MeterDelta::new(4, 8);
        assert!(delta.class_sent.iter().all(|&cell| cell == (0, 0)));
        assert!(delta.touched_classes.is_empty());
        assert_eq!(delta.row, fresh.row);
        assert_eq!(delta.vertex_ops, fresh.vertex_ops);
        assert_eq!(delta.local_bytes, fresh.local_bytes);
        assert_eq!(delta.resident, fresh.resident);
        assert_eq!(delta.msgs, 0);
        assert!(delta
            .exec_msgs
            .iter()
            .chain(&delta.exec_bytes)
            .all(|&c| c == 0));
    }

    #[test]
    fn hundred_thousand_executors_size_nothing_by_their_square() {
        // The engine-side twin of the ledger's
        // `large_executor_count_constructs_correctly`: 100 000² matrix cells
        // would be 80 GB per table. Index, class table and per-thread
        // deltas must construct — and count broadcasts — without one; the
        // matrices appear with the first recorded transfer, not before.
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8);
        let pg = GraphXStrategy::EdgePartition2D.partition(&g, 16);
        let cluster = on_executors(100_000);
        let mut buffers = RunBuffers::new(&pg, &cluster, ExecutorMode::Parallel { threads: 2 });
        let index = ScanIndex::build(&pg, &cluster, true);
        let classes = index.classes(&pg);
        let mirrors = pg.routing().total_replicas() - pg.num_vertices();
        assert!(classes.mirrors.len() as u64 <= mirrors);
        assert!(classes.len() as u64 <= pg.num_vertices());
        for delta in buffers.deltas.iter_mut() {
            delta.class_sent.resize(classes.len(), (0, 0));
            delta.broadcast(classes.class_of[0], 16);
            assert!(delta.exec_bytes.is_empty() && delta.exec_msgs.is_empty());
            delta.reset();
            assert!(delta.exec_bytes.is_empty());
        }
    }

    #[test]
    fn prepared_run_is_bit_identical_to_run_pregel_and_reusable() {
        // One PreparedRun dispatching a sequence of jobs must reproduce
        // run_pregel bit for bit (states and SimReport) on every dispatch,
        // in every executor mode. `true` is the fixed-size-state MaxLabel,
        // `false` the variable-size-state GrowingTrail (a different message
        // flow through the same reused buffers). The first sequence opens
        // with the fixed-size program; the second — SSSP → PageRank → SSSP
        // in shape — opens with the variable-size one, so whichever arm of
        // the setup bills first, the handle's class table serves the other.
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 9);
        let pg = Arc::new(GraphXStrategy::EdgePartition2D.partition(&g, 16));
        for mode in [
            ExecutorMode::Sequential,
            ExecutorMode::Parallel { threads: 4 },
            ExecutorMode::Auto,
        ] {
            let opts = PregelConfig {
                executor: mode,
                ..Default::default()
            };
            let fresh = run_pregel(&MaxLabel, &pg, &cfg(), &opts).unwrap();
            let fresh_trail = run_pregel(&GrowingTrail, &pg, &cfg(), &opts).unwrap();
            for sequence in [&[true, true, true, false, true][..], &[false, true, false]] {
                let mut prepared = PreparedRun::new(pg.clone(), &cfg(), mode);
                for (round, &fixed) in sequence.iter().enumerate() {
                    if fixed {
                        let r = prepared.run(&MaxLabel, &opts).unwrap();
                        assert_eq!(r.states, fresh.states, "round {round}");
                        assert_eq!(r.sim, fresh.sim, "round {round}: metering drifted");
                        assert_eq!(r.supersteps, fresh.supersteps);
                        assert_eq!(r.converged, fresh.converged);
                    } else {
                        let r = prepared.run(&GrowingTrail, &opts).unwrap();
                        assert_eq!(r.states, fresh_trail.states, "round {round}");
                        assert_eq!(r.sim, fresh_trail.sim, "round {round}: metering drifted");
                    }
                }
            }
        }
    }

    #[test]
    fn home_range_slice_equals_filter_by_home() {
        // The multi-shard shuffle takes one contiguous slice of
        // `home_locals` per (partition, home range). It must hold exactly
        // the locals mastered in the range, each home's in ascending local
        // order — the order the one-shard sweep meets them in.
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8);
        let pg = GraphXStrategy::RandomVertexCut.partition(&g, 8);
        let index = ScanIndex::build(&pg, &cfg(), true);
        for (part, grouped) in pg.parts().iter().zip(&index.parts) {
            let home_of = |local: u32| index.home[vid_index(part.vertices[local as usize])];
            for homes in [0..8, 0..3, 3..6, 6..8, 5..5] {
                let mut by_filter = Vec::new();
                for q in homes.clone() {
                    let locals = 0..part.vertices.len() as u32;
                    by_filter.extend(locals.filter(|&local| part_index(home_of(local)) == q));
                }
                assert_eq!(grouped.locals_of_homes(&homes), by_filter, "{homes:?}");
            }
        }
    }

    #[test]
    fn prepared_run_clamps_threads_to_its_budget() {
        // A handle prepared for one thread has no home groupings; a
        // parallel request runs as one shard — with identical results, not
        // a panic.
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8);
        let pg = Arc::new(GraphXStrategy::RandomVertexCut.partition(&g, 8));
        let seq = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        let mut prepared = PreparedRun::new(pg, &cfg(), ExecutorMode::Sequential);
        assert_eq!(prepared.threads(), 1);
        let r = prepared
            .run(
                &MaxLabel,
                &PregelConfig {
                    executor: ExecutorMode::Parallel { threads: 4 },
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(r.states, seq.states);
        assert_eq!(r.sim, seq.sim);
    }

    #[test]
    fn prepared_run_recovers_after_oom() {
        // An OOM abort must not poison the reused sim/buffers: raising the
        // budget (fresh handle) or re-running a smaller program works, and
        // a failed dispatch leaves the next one bit-identical to fresh.
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 10);
        let pg = Arc::new(GraphXStrategy::RandomVertexCut.partition(&g, 8));
        let tiny = ClusterConfig {
            executor_memory_gb: 1e-6,
            ..ClusterConfig::paper_cluster()
        };
        let mut prepared = PreparedRun::new(pg.clone(), &tiny, ExecutorMode::Sequential);
        assert!(matches!(
            prepared.run(&MaxLabel, &PregelConfig::default()),
            Err(SimError::OutOfMemory { .. })
        ));
        // FatLabel OOMs too; MaxLabel keeps OOMing — what matters is that
        // the *same* error reproduces (no residual ledger state shifting
        // the failure point).
        let a = prepared
            .run(&MaxLabel, &PregelConfig::default())
            .unwrap_err();
        let b = run_pregel(&MaxLabel, &pg, &tiny, &PregelConfig::default()).unwrap_err();
        assert_eq!(a, b, "failure must be reproducible through a reused handle");

        // A budget the 1 MB/vertex FatLabel exceeds and MaxLabel fits: the
        // job after the OOM bills exactly what a fresh run bills.
        let roomy = ClusterConfig {
            executor_memory_gb: 0.1,
            ..ClusterConfig::paper_cluster()
        };
        let mut prepared = PreparedRun::new(pg.clone(), &roomy, ExecutorMode::Sequential);
        assert!(matches!(
            prepared.run(&FatLabel, &PregelConfig::default()),
            Err(SimError::OutOfMemory { .. })
        ));
        let after = prepared.run(&MaxLabel, &PregelConfig::default()).unwrap();
        let fresh = run_pregel(&MaxLabel, &pg, &roomy, &PregelConfig::default()).unwrap();
        assert_eq!(after.states, fresh.states);
        assert_eq!(after.sim, fresh.sim, "the aborted job leaked into the bill");
    }

    /// MaxLabel whose `apply` panics at one vertex once messages flow — the
    /// apply phase dies with broadcasts counted and not yet flushed.
    struct PanicsAt(VertexId);
    impl VertexProgram for PanicsAt {
        type State = u64;
        type Msg = u64;
        fn name(&self) -> &'static str {
            "panics-at"
        }
        fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> u64 {
            v
        }
        fn initial_msg(&self) -> u64 {
            0
        }
        fn apply(&self, v: VertexId, state: &mut u64, msg: &u64) {
            assert!(v != self.0 || *msg == 0, "vertex program bug");
            *state = (*state).max(*msg);
        }
        fn send(&self, t: &Triplet<'_, u64>) -> Messages<u64> {
            MaxLabel.send(t)
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
        fn fixed_state_bytes(&self) -> Option<u64> {
            Some(8)
        }
    }

    #[test]
    fn prepared_run_recovers_after_a_panicking_program() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 10);
        let pg = Arc::new(GraphXStrategy::EdgePartition2D.partition(&g, 8));
        for mode in [
            ExecutorMode::Sequential,
            ExecutorMode::Parallel { threads: 3 },
        ] {
            let opts = PregelConfig {
                executor: mode,
                ..Default::default()
            };
            let fresh = run_pregel(&MaxLabel, &pg, &cfg(), &opts).unwrap();
            let mut prepared = PreparedRun::new(pg.clone(), &cfg(), mode);
            // The last vertex a home's apply visits, so the counts of all
            // the others are stranded in the delta.
            let last = *pg.parts()[0].vertices.last().unwrap();
            let doomed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                prepared.run(&PanicsAt(last), &opts).map(|r| r.supersteps)
            }));
            assert!(doomed.is_err(), "{mode:?}: the program must have panicked");
            let after = prepared.run(&MaxLabel, &opts).unwrap();
            assert_eq!(after.states, fresh.states, "{mode:?}");
            assert_eq!(after.sim, fresh.sim, "{mode:?}: stale meter state billed");
        }
    }

    #[test]
    fn executor_mode_resolves_thread_counts() {
        assert_eq!(ExecutorMode::Sequential.threads(), 1);
        assert_eq!(ExecutorMode::Parallel { threads: 0 }.threads(), 1);
        assert_eq!(ExecutorMode::Parallel { threads: 6 }.threads(), 6);
        assert!(ExecutorMode::Auto.threads() >= 1);
    }

    #[test]
    fn scenario_faults_change_only_the_bill_never_the_states() {
        use cutfit_cluster::ScenarioConfig;
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 9);
        let pg = GraphXStrategy::EdgePartition2D.partition(&g, 16);
        let clean = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        let messy_cfg = cfg().with_scenario(ScenarioConfig::messy(77));
        let messy = run_pregel(&MaxLabel, &pg, &messy_cfg, &PregelConfig::default()).unwrap();
        assert_eq!(clean.states, messy.states);
        assert_eq!(clean.supersteps, messy.supersteps);
        assert_eq!(clean.sim.messages, messy.sim.messages);
        assert_eq!(clean.sim.remote_bytes, messy.sim.remote_bytes);
        assert!(messy.sim.total_seconds > clean.sim.total_seconds);
    }

    #[test]
    fn scenario_runs_are_mode_invariant_and_repeatable() {
        use cutfit_cluster::ScenarioConfig;
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 9);
        let pg = GraphXStrategy::RandomVertexCut.partition(&g, 16);
        let cluster = cfg().with_scenario(ScenarioConfig::messy(13));
        let seq = run_pregel(&MaxLabel, &pg, &cluster, &PregelConfig::default()).unwrap();
        for mode in [
            ExecutorMode::Sequential,
            ExecutorMode::Parallel { threads: 4 },
            ExecutorMode::Auto,
        ] {
            let opts = PregelConfig {
                executor: mode,
                ..Default::default()
            };
            let r = run_pregel(&MaxLabel, &pg, &cluster, &opts).unwrap();
            assert_eq!(r.states, seq.states, "{mode:?}");
            assert_eq!(r.sim, seq.sim, "fault schedule must be mode-invariant");
        }
    }
}
