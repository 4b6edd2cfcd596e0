//! The allocation referee: how often a run asks the allocator for memory,
//! counted by a `#[global_allocator]` that wraps the system one.
//!
//! Two floors are pinned for the engine. A converging program with a fixed-length `[T]`
//! state (SSSP) allocates once per message it sends — the message's own
//! `Vec` — plus a constant per superstep and per partition: nothing per
//! applied vertex, because `apply` updates a row of the flat state column in
//! place. An always-active program on a warm [`PreparedRun`] (PageRank)
//! allocates O(partitions) per superstep, never O(vertices). Triangle
//! Count's four-phase dataflow allocates O(partitions) per run: flat
//! columns and one neighbour CSR, never a set per (partition, vertex); a
//! warm TR probe, billed from the index's supported bits, allocates
//! O(partitions) too, never one per edge.
//!
//! The allocator also notes the largest single request, which referees
//! untrusted input: opening a container whose header lies about its edge
//! count must fail as a typed error without ever asking for more than
//! O(file size) bytes.
//!
//! Counts are per thread, so the tests cannot disturb each other, and the
//! jobs run under [`ExecutorMode::Sequential`], inline on the test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cutfit::algorithms::suite::{Reused, TraceSlot};
use cutfit::algorithms::triangles::{canonicalize, triangle_count_partitioned};
use cutfit::algorithms::{ConnectedComponents, PageRank, Sssp};
use cutfit::engine::InitCtx;
use cutfit::graph::io::ParseError;
use cutfit::graph::{binfmt, source::materialize, BinaryFileSource};
use cutfit::partition::Dbh;
use cutfit::prelude::*;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(bytes)));
}

// SAFETY: every method forwards to `System` unchanged; the only addition is
// two thread-local counter updates, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `job` and returns how many times this thread allocated (or grew an
/// allocation) meanwhile, with the job's result.
fn allocations_of<R>(job: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = job();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// Runs `job` and returns the largest single request (in bytes) this thread
/// made of the allocator meanwhile, with the job's result.
fn largest_allocation_of<R>(job: impl FnOnce() -> R) -> (usize, R) {
    LARGEST.with(|n| n.set(0));
    let result = job();
    (LARGEST.with(Cell::get), result)
}

/// Allowed allocations per superstep and per partition, on top of what the
/// program itself allocates: pool bookkeeping, the debug-build owner tables
/// of the disjoint-slice wrappers, buffers that are still growing.
const SLACK: u64 = 32;

/// [`Sssp`], counting the messages its `send` builds.
struct CountedSssp {
    inner: Sssp,
    sent: AtomicU64,
}

impl VertexProgram for CountedSssp {
    type State = [u32];
    type Msg = Vec<u32>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial_state(&self, v: VertexId, ctx: &InitCtx<'_>) -> Vec<u32> {
        self.inner.initial_state(v, ctx)
    }

    fn initial_msg(&self) -> Vec<u32> {
        self.inner.initial_msg()
    }

    fn apply(&self, v: VertexId, state: &mut [u32], msg: &Vec<u32>) {
        self.inner.apply(v, state, msg)
    }

    fn send(&self, t: &Triplet<'_, [u32]>) -> Messages<Vec<u32>> {
        let messages = self.inner.send(t);
        if messages != Messages::None {
            self.sent.fetch_add(1, Ordering::Relaxed);
        }
        messages
    }

    fn merge(&self, a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
        self.inner.merge(a, b)
    }

    fn state_bytes(&self, state: &[u32]) -> u64 {
        self.inner.state_bytes(state)
    }

    fn msg_bytes(&self, msg: &Vec<u32>) -> u64 {
        self.inner.msg_bytes(msg)
    }
}

/// A `side × side` grid with every lattice edge in both directions.
fn grid(side: u64) -> Graph {
    let at = |x: u64, y: u64| y * side + x;
    let mut edges = Vec::new();
    for y in 0..side {
        for x in 0..side {
            for (nx, ny) in [(x + 1, y), (x, y + 1)] {
                if nx < side && ny < side {
                    edges.extend([
                        Edge::new(at(x, y), at(nx, ny)),
                        Edge::new(at(nx, ny), at(x, y)),
                    ]);
                }
            }
        }
    }
    Graph::new(side * side, edges)
}

#[test]
fn sssp_allocates_per_message_never_per_applied_vertex() {
    const SIDE: u64 = 80;
    const PARTS: u32 = 4;
    let pg = Arc::new(GraphXStrategy::EdgePartition2D.partition(&grid(SIDE), PARTS));
    let mut cluster = ClusterConfig::paper_cluster();
    cluster.scenario.checkpoint_interval = 25;
    // Four corners and the centre: five wavefronts cross every vertex.
    let last = SIDE * SIDE - 1;
    let landmarks = vec![0, SIDE - 1, last - (SIDE - 1), last, last / 2 + SIDE / 2];
    let program = CountedSssp {
        inner: Sssp::new(landmarks),
        sent: AtomicU64::new(0),
    };
    let opts = |max_iterations| PregelConfig {
        max_iterations,
        executor: ExecutorMode::Sequential,
        ..Default::default()
    };
    let mut prepared = PreparedRun::new(pg, &cluster, ExecutorMode::Sequential);
    // Warm the handle (class table, incidence index, buffer capacities),
    // then measure: a run to the fixpoint, and the same run stopped after
    // setup — the difference is what the supersteps allocate, with the
    // initial states and the owned result rows on both sides of it.
    prepared.run(&program, &opts(10_000)).expect("fits");
    program.sent.store(0, Ordering::Relaxed);
    let (whole, result) = allocations_of(|| prepared.run(&program, &opts(10_000)).expect("fits"));
    let sent = program.sent.load(Ordering::Relaxed);
    let (setup, _) = allocations_of(|| prepared.run(&program, &opts(0)).expect("fits"));
    let supersteps = whole - setup;

    assert!(result.converged);
    let floor = SLACK * (result.supersteps + u64::from(PARTS));
    assert!(
        supersteps >= sent && supersteps <= sent + floor,
        "{supersteps} allocations over {} supersteps for {sent} messages (floor {floor})",
        result.supersteps
    );
    // The bound can tell: every frontier vertex was applied the superstep
    // before, and one allocation per apply would be many floors deep.
    let applied: u64 = result.sim.frontier_trace[1..]
        .iter()
        .map(|sample| sample.active_vertices)
        .sum();
    assert!(applied > 4 * floor, "{applied} applies against {floor}");
}

#[test]
fn warm_pagerank_allocates_by_partition_not_by_vertex() {
    const PARTS: u32 = 8;
    let g = cutfit::datagen::rmat(&cutfit::datagen::RmatConfig::default(), 12);
    let vertices = g.num_vertices();
    let pg = Arc::new(GraphXStrategy::EdgePartition2D.partition(&g, PARTS));
    let cluster = ClusterConfig::paper_cluster();
    let opts = |max_iterations| PregelConfig {
        max_iterations,
        executor: ExecutorMode::Sequential,
        ..Default::default()
    };
    let mut prepared = PreparedRun::new(pg, &cluster, ExecutorMode::Sequential);
    prepared.run(&PageRank, &opts(10)).expect("fits");
    let (long, _) = allocations_of(|| prepared.run(&PageRank, &opts(10)).expect("fits"));
    let (short, _) = allocations_of(|| prepared.run(&PageRank, &opts(2)).expect("fits"));
    let per_superstep = (long - short) / 8;
    let floor = SLACK * u64::from(PARTS);
    assert!(
        per_superstep <= floor,
        "{per_superstep} allocations per superstep on {PARTS} partitions"
    );
    assert!(vertices > 8 * floor, "{vertices} vertices against {floor}");
    // A whole warm job: message and state buffers, one per partition.
    assert!(
        short <= 10 * floor,
        "{short} allocations in a two-superstep job"
    );
}

#[test]
fn a_warm_traced_bill_allocates_by_partition_not_by_edge() {
    const PARTS: u32 = 8;
    let g = cutfit::datagen::rmat(&cutfit::datagen::RmatConfig::default(), 12);
    let assignment = GraphXStrategy::EdgePartition2D.assign_edges(&g, PARTS);
    let pg = Arc::new(PartitionedGraph::build(&g, &assignment, PARTS));
    let cluster = ClusterConfig::paper_cluster();
    let opts = PregelConfig {
        max_iterations: 10,
        executor: ExecutorMode::Sequential,
        ..Default::default()
    };
    let sssp = Sssp::new(Sssp::pick_landmarks(g.num_vertices(), 5, 7));
    let mut prepared = PreparedRun::new(pg, &cluster, ExecutorMode::Sequential);
    let (_, cc_steps, cc) = prepared
        .record(&ConnectedComponents, &opts, &assignment)
        .expect("fits");
    let (_, sssp_steps, sssp) = prepared.record(&sssp, &opts, &assignment).expect("fits");
    for (name, trace, supersteps) in [("CC", cc, cc_steps), ("SSSP", sssp, sssp_steps)] {
        // Warm: the class table is the handle's, built by the recordings.
        let (allocations, billed) = allocations_of(|| {
            prepared
                .bill_traced(&trace, &assignment, &opts)
                .expect("fits")
        });
        assert_eq!(billed.1, supersteps, "{name}");
        if name == "CC" {
            // Fixed-size messages and states: three bits per edge for each
            // recorded superstep (the last may be the one that moved no
            // message), nothing per vertex or per message.
            let per_superstep = 24 * g.num_edges().div_ceil(64);
            assert!(trace.heap_bytes() <= per_superstep * (supersteps + 1));
        }
        let floor = SLACK * (supersteps + u64::from(PARTS));
        assert!(
            allocations <= floor,
            "{name}: {allocations} allocations over {supersteps} supersteps (floor {floor})"
        );
        // The bound can tell: one allocation per vertex or per edge would
        // be many floors deep.
        assert!(g.num_vertices() > 8 * floor, "{name}: floor {floor}");
    }
}

#[test]
fn a_warm_triangle_probe_allocates_by_partition_not_by_edge() {
    const PARTS: u32 = 8;
    let g = canonicalize(&cutfit::datagen::rmat(
        &cutfit::datagen::RmatConfig::default(),
        12,
    ));
    let assignment = GraphXStrategy::EdgePartition2D.assign_edges(&g, PARTS);
    let pg = Arc::new(PartitionedGraph::build(&g, &assignment, PARTS));
    let cluster = ClusterConfig::paper_cluster();
    let mode = ExecutorMode::Sequential;
    let mut triangles = None;
    let mut probe = || {
        let reused = Reused {
            prepared: &mut None,
            triangles: &mut triangles,
        };
        let traced = TraceSlot {
            trace: &mut None,
            assignment: &mut || assignment.clone(),
        };
        Algorithm::Triangles
            .probe_on_cut(&pg, reused, traced, &cluster, mode, mode)
            .expect("fits")
    };
    // Warm: the index and its supported bits are the session's, built by
    // the first probe.
    probe();
    let (allocations, (_, supersteps)) = allocations_of(&mut probe);
    assert_eq!(supersteps, 4);
    let floor = 2 * u64::from(PARTS) + SLACK;
    assert!(
        allocations <= floor,
        "{allocations} allocations on {PARTS} partitions (floor {floor})"
    );
    // The bound can tell: one allocation per vertex or per edge would be
    // many floors deep.
    assert!(g.num_vertices() > 8 * floor, "floor {floor}");
}

#[test]
fn triangle_count_allocates_by_partition_not_by_vertex() {
    let g = canonicalize(&cutfit::datagen::rmat(
        &cutfit::datagen::RmatConfig::default(),
        12,
    ));
    let cluster = ClusterConfig::paper_cluster();
    for parts in [8u32, 64] {
        let pg = GraphXStrategy::EdgePartition2D.partition(&g, parts);
        let (allocations, r) =
            allocations_of(|| triangle_count_partitioned(&pg, &cluster, true).expect("fits"));
        assert!(r.total > 0);
        let floor = 2 * u64::from(parts) + SLACK;
        assert!(
            allocations <= floor,
            "{allocations} allocations on {parts} partitions (floor {floor})"
        );
        // The bound can tell: one set per (partition, local vertex) would
        // be many floors deep.
        let replicas = pg.routing().total_replicas();
        assert!(replicas > 8 * floor, "{replicas} replicas against {floor}");
    }
}

/// A container header declaring `num_edges`, with a valid checksum, followed
/// by `tail` — what `binfmt::write_binary` would have written, had the graph
/// had that many edges.
fn container_claiming(num_edges: u64, tail: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    binfmt::write_binary(&Graph::new(4, Vec::new()), &mut bytes).expect("in-memory write");
    bytes[24..32].copy_from_slice(&num_edges.to_le_bytes());
    let fnv1a64 = bytes[..32].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    bytes[32..40].copy_from_slice(&fnv1a64.to_le_bytes());
    bytes.extend_from_slice(tail);
    bytes
}

#[test]
fn a_header_that_lies_about_its_edge_count_is_refused_without_a_large_allocation() {
    let dir = std::env::temp_dir().join("cutfit-allocations-header-lie");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("lie.cfb");
    // Sixty bytes claiming 2^44 edges: unchecked, `materialize` reserves
    // 2^48 bytes for them and the process aborts.
    std::fs::write(&path, container_claiming(1 << 44, &[0; 20])).expect("temp file");
    let cluster = ClusterConfig::paper_cluster;
    let pipelined = |s: BinaryFileSource| s.with_decode_threads(2).with_read_ahead(4);
    let assign = |s: BinaryFileSource| Dbh.assign_source(&s, 4, 1024, &mut |_, _| {}).map(|_| ());
    type Path<'a> = (&'a str, Box<dyn Fn() -> Result<(), ParseError> + 'a>);
    let paths: Vec<Path<'_>> = vec![
        (
            "open",
            Box::new(|| BinaryFileSource::open(&path).map(|_| ())),
        ),
        (
            "Workspace::from_binary_file",
            Box::new(|| {
                Workspace::from_binary_file(&path, cluster(), ExecutorMode::Sequential).map(|_| ())
            }),
        ),
        (
            "Workspace::from_binary_source, pipelined",
            Box::new(|| {
                let source = pipelined(BinaryFileSource::open(&path)?);
                Workspace::from_binary_source(source, cluster(), ExecutorMode::Sequential)
                    .map(|_| ())
            }),
        ),
        (
            "assign_source",
            Box::new(|| assign(BinaryFileSource::open(&path)?)),
        ),
        (
            "assign_source, pipelined",
            Box::new(|| assign(pipelined(BinaryFileSource::open(&path)?))),
        ),
    ];
    for (name, run) in &paths {
        let (largest, outcome) = largest_allocation_of(run);
        match outcome {
            Err(ParseError::Corrupt { offset: 24, .. }) => {}
            Err(e) => panic!("{name}: {e}"),
            Ok(()) => panic!("{name}: accepted the lie"),
        }
        // A read buffer and a path, not a byte per claimed edge.
        assert!(largest <= 64 << 10, "{name}: asked for {largest} bytes");
    }

    // The control: an honest container passes the same door, and what
    // materializing it asks for is bounded by its size on disk (sixteen
    // resident bytes per edge, at least two stored).
    let g = cutfit::datagen::rmat(&cutfit::datagen::RmatConfig::default(), 10);
    let file_bytes = binfmt::write_binary_file(&g, &path).expect("temp file") as usize;
    for configure in [|s| s, pipelined] {
        let (largest, back) = largest_allocation_of(|| {
            materialize(&configure(BinaryFileSource::open(&path).expect("honest")))
        });
        assert_eq!(back.expect("honest").edges(), g.edges());
        assert!(
            largest <= 8 * file_bytes + (64 << 10),
            "{largest} bytes for a {file_bytes}-byte file"
        );
    }
    std::fs::remove_file(&path).expect("temp file");
}
