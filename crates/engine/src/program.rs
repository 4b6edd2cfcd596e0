//! The vertex-program abstraction (GraphX `Pregel` signature).

use cutfit_graph::VertexId;

/// A vertex state the engine can store one of per vertex, named by its
/// *borrowed* form: the engine hands programs `&State` and `&mut State`, and
/// owned values ([`OwnedState`]) only cross its boundary — in from
/// [`VertexProgram::initial_state`], out in the result.
///
/// There are two implementations, split the way [`ToOwned`]'s are: every
/// sized `Clone + Send + Sync` type is stored as the `Vec<S>` of its values,
/// and a slice `[T]` — a state that is the same number of `T`s at every
/// vertex — as one flat `Vec<T>` of consecutive rows, so reading, comparing
/// and updating it touches no per-vertex heap object.
pub trait VertexState: ToOwned + Send + Sync {
    /// Element of the state column: the state itself, or one `T` of a row.
    type Cell: Send + Sync;

    /// Cells `state` takes in the column: one, or the slice's length.
    fn cells_of(state: &Self) -> usize;

    /// Appends `row` to `column`.
    fn push_row(column: &mut Vec<Self::Cell>, row: Self::Owned);

    /// Row `v` of a column whose rows are `stride` cells each.
    fn row(column: &[Self::Cell], stride: usize, v: usize) -> &Self;

    /// The cells of one row as the state they hold.
    fn row_mut(cells: &mut [Self::Cell]) -> &mut Self;

    /// The column's `rows` rows of `stride` cells, one owned state each.
    fn into_rows(column: Vec<Self::Cell>, stride: usize, rows: usize) -> Vec<Self::Owned>;
}

impl<S: Clone + Send + Sync> VertexState for S {
    type Cell = S;

    fn cells_of(_state: &S) -> usize {
        1
    }

    fn push_row(column: &mut Vec<S>, row: S) {
        column.push(row);
    }

    #[inline]
    fn row(column: &[S], _stride: usize, v: usize) -> &S {
        &column[v]
    }

    #[inline]
    fn row_mut(cells: &mut [S]) -> &mut S {
        &mut cells[0]
    }

    fn into_rows(column: Vec<S>, _stride: usize, _rows: usize) -> Vec<S> {
        column
    }
}

impl<T: Clone + Send + Sync> VertexState for [T] {
    type Cell = T;

    fn cells_of(state: &[T]) -> usize {
        state.len()
    }

    fn push_row(column: &mut Vec<T>, row: Vec<T>) {
        column.extend_from_slice(&row);
    }

    #[inline]
    fn row(column: &[T], stride: usize, v: usize) -> &[T] {
        &column[v * stride..(v + 1) * stride]
    }

    #[inline]
    fn row_mut(cells: &mut [T]) -> &mut [T] {
        cells
    }

    fn into_rows(column: Vec<T>, stride: usize, rows: usize) -> Vec<Vec<T>> {
        (0..rows)
            .map(|v| Self::row(&column, stride, v).to_vec())
            .collect()
    }
}

/// The owned form of `P`'s vertex state: `S` itself for a sized state,
/// `Vec<T>` for a `[T]` one.
pub type OwnedState<P> = <<P as VertexProgram>::State as ToOwned>::Owned;

/// Messages produced by scanning one edge triplet. An enum rather than a
/// vector: no algorithm in this workspace sends more than one message per
/// endpoint per edge, and avoiding the allocation keeps scans cheap.
#[derive(Debug, Clone, PartialEq)]
pub enum Messages<M> {
    /// Send nothing.
    None,
    /// Message to the source vertex.
    ToSrc(M),
    /// Message to the destination vertex.
    ToDst(M),
    /// Messages to both endpoints.
    Both(M, M),
}

/// Which endpoint must be active for an edge to be scanned — GraphX's
/// `activeDirection` optimisation that lets converged regions of the graph
/// stop costing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActiveDirection {
    /// Scan if either endpoint is active (label propagation).
    Either,
    /// Scan only if the source is active (PageRank-style push).
    Out,
    /// Scan only if the destination is active.
    In,
    /// Scan only if both endpoints are active.
    Both,
}

/// A read-only view of one edge and its endpoint states during a scan.
#[derive(Debug)]
pub struct Triplet<'a, V: ?Sized> {
    /// Source vertex id.
    pub src: VertexId,
    /// Destination vertex id.
    pub dst: VertexId,
    /// Source state (replica value, equal to the master's after broadcast).
    pub src_state: &'a V,
    /// Destination state.
    pub dst_state: &'a V,
    /// Global out-degree of the source (GraphX exposes this via edge
    /// attributes for PageRank's weight normalisation).
    pub src_out_degree: u32,
    /// Global in-degree of the destination.
    pub dst_in_degree: u32,
}

/// Initialisation context handed to [`VertexProgram::initial_state`].
#[derive(Debug)]
pub struct InitCtx<'a> {
    /// Global out-degrees.
    pub out_degrees: &'a [u32],
    /// Global in-degrees.
    pub in_degrees: &'a [u32],
    /// Total vertices.
    pub num_vertices: u64,
}

/// A Pregel vertex program: the GraphX `Pregel(vprog, sendMsg, mergeMsg)`
/// triple plus sizing callbacks used by the cluster cost model.
///
/// `merge` must be commutative and associative — the engine relies on this
/// to produce identical results under sequential and parallel execution
/// (property-tested in the workspace integration suite).
pub trait VertexProgram: Sync {
    /// Vertex state type, in its borrowed form (see [`VertexState`]): a
    /// sized type such as `f64`, or `[T]` for a fixed-length array per
    /// vertex.
    type State: ?Sized + VertexState;
    /// Message type.
    type Msg: Clone + Send + Sync;

    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// Initial state of vertex `v`. A `[T]` state must have the same
    /// length at every vertex; the engine panics, naming the vertex, if it
    /// does not.
    fn initial_state(&self, v: VertexId, ctx: &InitCtx<'_>) -> OwnedState<Self>;

    /// The message delivered to every vertex before the first superstep
    /// (GraphX's `initialMsg`).
    fn initial_msg(&self) -> Self::Msg;

    /// Vertex program: folds the merged inbound message into the vertex's
    /// state, in place.
    fn apply(&self, v: VertexId, state: &mut Self::State, msg: &Self::Msg);

    /// Scan function: messages emitted by one edge triplet.
    fn send(&self, triplet: &Triplet<'_, Self::State>) -> Messages<Self::Msg>;

    /// Commutative, associative message combiner.
    fn merge(&self, a: Self::Msg, b: Self::Msg) -> Self::Msg;

    /// Which endpoint activity triggers a scan of an edge.
    fn active_direction(&self) -> ActiveDirection {
        ActiveDirection::Either
    }

    /// When true, every vertex stays active every superstep — the semantics
    /// of GraphX's *static* PageRank, which recomputes all ranks each round
    /// regardless of message receipt. Programs returning true terminate via
    /// `max_iterations` only.
    fn always_active(&self) -> bool {
        false
    }

    /// Serialized size of a state value, used for broadcast billing and
    /// memory accounting. Defaults to the in-memory size.
    fn state_bytes(&self, state: &Self::State) -> u64 {
        std::mem::size_of_val(state) as u64
    }

    /// `Some(size)` when every state serializes to the same `size` bytes —
    /// i.e. [`VertexProgram::state_bytes`] is a constant function. Declaring
    /// it lets the engine account partition residency incrementally (one
    /// multiplication per partition at setup, zero work per superstep)
    /// instead of re-summing every replica's state each superstep.
    ///
    /// Programs whose state size varies (SSSP's distance maps, set-union
    /// states) must leave the default `None`.
    fn fixed_state_bytes(&self) -> Option<u64> {
        None
    }

    /// Serialized size of a message, used for shuffle billing.
    fn msg_bytes(&self, _msg: &Self::Msg) -> u64 {
        std::mem::size_of::<Self::Msg>() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl VertexProgram for Dummy {
        type State = u64;
        type Msg = u64;
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> u64 {
            v
        }
        fn initial_msg(&self) -> u64 {
            0
        }
        fn apply(&self, _v: VertexId, state: &mut u64, msg: &u64) {
            *state += msg;
        }
        fn send(&self, t: &Triplet<'_, u64>) -> Messages<u64> {
            Messages::ToDst(*t.src_state)
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a + b
        }
    }

    #[test]
    fn default_sizes_are_memory_sizes() {
        let d = Dummy;
        assert_eq!(d.state_bytes(&7), 8);
        assert_eq!(d.msg_bytes(&7), 8);
        assert_eq!(d.active_direction(), ActiveDirection::Either);
    }

    #[test]
    fn sized_and_slice_states_share_one_column_interface() {
        let mut ranks: Vec<f64> = Vec::new();
        assert_eq!(f64::cells_of(&0.5), 1);
        f64::push_row(&mut ranks, 0.5);
        f64::push_row(&mut ranks, 1.5);
        *f64::row_mut(&mut ranks[1..2]) += 1.0;
        assert_eq!(*f64::row(&ranks, 1, 1), 2.5);
        assert_eq!(f64::into_rows(ranks, 1, 2), vec![0.5, 2.5]);

        let mut dist: Vec<u32> = Vec::new();
        assert_eq!(<[u32]>::cells_of(&[1, 2, 3]), 3);
        <[u32]>::push_row(&mut dist, vec![1, 2, 3]);
        <[u32]>::push_row(&mut dist, vec![4, 5, 6]);
        <[u32]>::row_mut(&mut dist[3..6])[0] = 9;
        assert_eq!(<[u32]>::row(&dist, 3, 1), [9, 5, 6]);
        assert_eq!(dist, [1, 2, 3, 9, 5, 6], "one flat column, row after row");
        let rows = <[u32]>::into_rows(dist, 3, 2);
        assert_eq!(rows, vec![vec![1, 2, 3], vec![9, 5, 6]]);
        // Zero-length rows (SSSP without landmarks) are still one per vertex.
        assert_eq!(<[u32]>::into_rows(Vec::new(), 0, 2), vec![vec![]; 2]);
    }

    #[test]
    fn messages_enum_is_cheap() {
        assert!(std::mem::size_of::<Messages<u64>>() <= 24);
    }
}
