//! GraphX-style Pregel execution over vertex-cut partitioned graphs, with
//! every unit of work metered into a simulated cluster.
//!
//! The engine reproduces GraphX's BSP dataflow faithfully, because the
//! paper's results hinge on *where* that dataflow pays communication:
//!
//! 1. **Scan** — each edge partition scans its triplets (restricted by the
//!    program's active direction) and pre-aggregates messages per local
//!    vertex (GraphX's map-side combine);
//! 2. **Shuffle up** — each partition ships one combined message per
//!    (vertex, partition) pair to the vertex's *master* replica: this is
//!    the traffic the paper's Communication Cost metric counts;
//! 3. **Apply** — the vertex program runs at the master for every vertex
//!    that received messages;
//! 4. **Broadcast down** — updated states ship from the master back to all
//!    mirror replicas (GraphX's `ReplicatedVertexView` update).
//!
//! Algorithms really execute — the returned states are exact — while a
//! [`cutfit_cluster::ClusterSim`] bills the metered work into simulated
//! seconds.
//!
//! The superstep loop runs on precomputed run-scoped indexes and reusable
//! buffers (see [`pregel`]). Each of its phases is one kernel that the
//! worker pool hands a contiguous range of partitions: several ranges under
//! [`ExecutorMode::Parallel`] and [`ExecutorMode::Auto`], the whole range
//! under [`ExecutorMode::Sequential`]. Converging programs additionally run
//! frontier-driven (see the `frontier` module): a superstep whose active set
//! has shrunk walks only the frontier's incidence rows, sorts the messages
//! by receiver and folds each receiver's run straight into its state,
//! making tail supersteps O(frontier degree) instead of O(V + E). Every
//! executor mode *and* either superstep shape produces bit-identical results,
//! vertex states and metered [`cutfit_cluster::SimReport`] alike: threads
//! own disjoint partition/vertex sets, per-vertex merges happen in
//! deterministic source-partition order (the sort reproduces the dense
//! superstep's merge order), and all metering is integral. Where the wall
//! time goes is reported beside the result, never inside it (see
//! [`trace`]).

mod bill;
mod frontier;
mod message_trace;
pub mod pregel;
pub mod program;
pub mod trace;

#[cfg(test)]
mod tests_direction;

pub use bill::{MessageSizing, Receivers, SteadyShape};
pub use message_trace::MessageTrace;
pub use pregel::{run_pregel, ExecutorMode, PregelConfig, PregelResult, PreparedRun};
pub use program::{
    ActiveDirection, InitCtx, Messages, OwnedState, Triplet, VertexProgram, VertexState,
};
pub use trace::{Phase, RunTrace, Span};
