//! Shared worker-pool and sharding primitives.
//!
//! The engine's superstep loop and the partitioners' edge-assignment scans
//! parallelise the same way: split an index space into contiguous shards,
//! one per worker thread, with every output index owned by exactly one
//! shard so the threads never contend. *How* shards execute is decided in
//! one private function, `run_shards` (one shard: inline; permutation mode:
//! replayed in a seeded order; else one scoped thread per shard). The
//! public drivers only construct *what* a shard is:
//!
//! * [`run_ranges`] — equal contiguous index ranges;
//! * [`run_chunked`] — those ranges, each zipped with its own scratch state
//!   (the engine's metering deltas);
//! * [`fill_chunks`] — the ranges' sub-slices of an output slice, carved
//!   off by `split_at_mut` (the partitioners' per-edge assignments, the
//!   container decode's per-block slots);
//! * `run_cut_slices` / [`drain_cut_slices`] — pieces carved at caller-
//!   chosen cuts, checked once up front to be a monotone cover of the
//!   slice; the draining form hands each piece's items over by value.
//!
//! Beside them: [`DisjointSlice`], a shared-slice cell wrapper for phases
//! whose write indices are provably disjoint but not contiguous (the
//! engine's home-partition shards, the fused multi-strategy sweep).
//!
//! `run_shards` is the library's one place that starts threads, so every
//! parallel phase — the container decode's batches of blocks included —
//! runs through it and replays under [`with_shard_permutation`].
//!
//! Shard boundaries depend only on the lengths, cuts and thread count
//! passed in, and each output index is written by exactly one thread, so
//! results are bit-identical to a sequential run. Two layers enforce that:
//!
//! * **Debug overlap assertions** — in debug builds [`DisjointSlice`]
//!   records which thread first touched each index and panics the moment a
//!   second thread touches the same index within one phase, so a wrong
//!   shard handout fails loudly instead of racing silently.
//! * **Shard permutation harness** ([`with_shard_permutation`]) — replays
//!   every pool call's shards sequentially in an adversarial, seed-derived
//!   completion order (same shard boundaries, same shard↔state pairing).
//!   Any caller whose output is truly order-independent must be
//!   bit-identical under every seed; the shard-order axis of the oracle
//!   grid (`tests/oracle_grid.rs`) replays engine runs under it.

use std::cell::Cell;
use std::ops::Range;

/// Active adversarial shard order for the calling thread: `(seed, calls so
/// far)`. Each pool invocation draws a fresh permutation so different
/// phases of one run see different completion orders.
struct PermuteState {
    seed: u64,
    calls: u64,
}

thread_local! {
    static PERMUTE: Cell<Option<PermuteState>> = const { Cell::new(None) };
}

/// Runs `f` in **permutation mode**: every pool primitive called from this
/// thread inside `f` ([`run_ranges`], [`run_chunked`], [`fill_chunks`],
/// `run_cut_slices`, [`drain_cut_slices`]) executes its shards
/// *sequentially on the calling thread* in an adversarial order derived from
/// `seed`, instead of spawning workers. Shard boundaries and the
/// shard↔scratch-state pairing are exactly those of the parallel run — only
/// completion order moves — so a caller whose results are independent of
/// worker completion order must produce bit-identical output under every
/// seed. This is the loom-style replay harness behind the shard-order axis
/// of `tests/oracle_grid.rs`.
///
/// Nested pool calls each draw a fresh permutation; the mode is restored
/// (including on panic) when `f` returns.
pub fn with_shard_permutation<R>(seed: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<PermuteState>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PERMUTE.with(|p| p.set(self.0.take()));
        }
    }
    let prev = PERMUTE.with(|p| p.replace(Some(PermuteState { seed, calls: 0 })));
    let _restore = Restore(prev);
    f()
}

/// In permutation mode, the adversarial order for a pool call with `pieces`
/// shards (a permutation of `0..pieces`), advancing the per-call stream.
fn permuted_order(pieces: usize) -> Option<Vec<usize>> {
    PERMUTE.with(|p| {
        let mut state = p.take()?;
        let mut rng = crate::rng::Xoshiro256pp::seed_from_u64(crate::hash::hash_pair(
            state.seed,
            state.calls,
        ));
        state.calls += 1;
        p.set(Some(state));
        let mut order: Vec<usize> = (0..pieces).collect();
        // Fisher–Yates from the seeded stream: uniform over all orders.
        for i in (1..pieces).rev() {
            let j = rng.range_usize(i + 1);
            order.swap(i, j);
        }
        Some(order)
    })
}

/// Number of workers implied by the host (≥ 1) — the resolution behind
/// "auto" thread counts across the workspace.
// The one sanctioned read of host parallelism: results never depend on
// it, because chunk boundaries and merges are thread-count-invariant.
#[allow(clippy::disallowed_methods)]
pub fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a caller-facing thread count: `0` means auto-size from the
/// host ([`auto_threads`]), anything else is taken literally (≥ 1). The
/// one definition of the workspace-wide "0 = auto" convention.
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => auto_threads(),
        t => t,
    }
}

/// Runs `work(k, shard)` once per shard, and alone decides how: a single
/// shard inline on the calling thread, allocating nothing; in permutation
/// mode ([`with_shard_permutation`]) all of them on the calling thread in the
/// seeded order; otherwise one scoped worker each.
fn run_shards<S, F>(shards: impl ExactSizeIterator<Item = S>, work: F)
where
    S: Send,
    F: Fn(usize, S) + Sync,
{
    if shards.len() <= 1 {
        shards.enumerate().for_each(|(k, shard)| work(k, shard));
    } else if let Some(order) = permuted_order(shards.len()) {
        // Shard k keeps its index and its payload: only the order moves.
        let mut by_index: Vec<Option<S>> = shards.map(Some).collect();
        for k in order {
            if let Some(shard) = by_index[k].take() {
                work(k, shard);
            }
        }
    } else {
        std::thread::scope(|scope| {
            let work = &work;
            for (k, shard) in shards.enumerate() {
                scope.spawn(move || work(k, shard));
            }
        });
    }
}

/// `0..len` as at least one and at most `threads` ranges of equal size (the
/// last may be short): range `k` is `[k·chunk, min((k+1)·chunk, len))`, so
/// they are disjoint, cover every index once and depend on the arguments alone.
fn equal_ranges(len: usize, threads: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    let chunk = len.div_ceil(threads.clamp(1, len.max(1))).max(1);
    let pieces = len.div_ceil(chunk).max(1);
    (0..pieces).map(move |k| (k * chunk).min(len)..((k + 1) * chunk).min(len))
}

/// Carves the first `len` elements off `rest`: every piece leaves the
/// remaining tail, so an overlapping handout is unrepresentable.
fn carve<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (piece, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    piece
}

/// Splits `0..len` into at most `threads` contiguous chunks of equal size
/// (the last may be short) and runs `work` on each, in parallel when
/// `threads > 1`, inline on the calling thread otherwise.
pub fn run_ranges<F>(len: usize, threads: usize, work: F)
where
    F: Fn(Range<usize>) + Sync,
{
    run_shards(equal_ranges(len, threads), |_, range| work(range));
}

/// Like [`run_ranges`], but pairs the `t`-th chunk with `states[t]`, giving
/// each worker private scratch state (e.g. a metering accumulator) that the
/// caller merges deterministically afterwards.
///
/// The worker count is capped at `states.len()`, so every index is always
/// processed (fewer states than requested threads just means bigger
/// chunks); with one chunk (or `threads <= 1`) the whole range runs inline
/// against `states[0]`. Panics if `states` is empty.
pub fn run_chunked<S, F>(len: usize, threads: usize, states: &mut [S], work: F)
where
    S: Send,
    F: Fn(Range<usize>, &mut S) + Sync,
{
    assert!(!states.is_empty(), "every chunk pairs with one state");
    let ranges = equal_ranges(len, threads.min(states.len()));
    run_shards(ranges.zip(states), |_, (range, state)| work(range, state));
}

/// Fills `out` by splitting it into contiguous chunks, one per worker;
/// `fill` receives each chunk's global start offset and the chunk itself.
///
/// Chunk boundaries depend only on `(out.len(), threads)`, and each index
/// is written by exactly one worker, so the result is bit-identical to a
/// sequential fill for any pure `fill`.
pub fn fill_chunks<T, F>(out: &mut [T], threads: usize, fill: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let mut rest = out;
    let chunks = equal_ranges(rest.len(), threads).map(|r| (r.start, carve(&mut rest, r.len())));
    run_shards(chunks, |_, (start, chunk)| fill(start, chunk));
}

/// Splits `slice` at the caller-chosen ascending `cuts` and runs `work`
/// once per piece, one scoped worker per piece when there is more than
/// one — for shards that are contiguous but *uneven*, where
/// [`fill_chunks`]' equal-size split would tear a shard across two
/// workers (partition edge blocks cut at bucket offsets, a sorted record
/// buffer cut at owner boundaries).
///
/// `cuts` must start at `0`, end at `slice.len()`, and be non-decreasing;
/// piece `k` is `slice[cuts[k]..cuts[k + 1]]` and `work` receives
/// `(k, piece)`. The caller controls parallelism by the number of cuts it
/// passes. Each index belongs to exactly one piece, so the result is
/// bit-identical to running the pieces sequentially for any pure `work`.
///
/// # Panics
/// Panics if `cuts` is not a monotone cover of `slice` as described.
pub(crate) fn run_cut_slices<T, F>(slice: &mut [T], cuts: &[usize], work: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        cuts.first() == Some(&0) && cuts.last() == Some(&slice.len()),
        "cuts must cover the slice"
    );
    assert!(
        cuts.windows(2).all(|w| w[0] <= w[1]),
        "cuts must be non-decreasing"
    );
    let mut rest = slice;
    let pieces = cuts.windows(2).map(|w| carve(&mut rest, w[1] - w[0]));
    run_shards(pieces, work);
}

/// `run_cut_slices` for pieces that are consumed: `items` is emptied
/// (its capacity stays) and `work` receives `(k, piece k's items by value,
/// in order, states[k])` — for a sorted buffer whose runs are folded away
/// by owner, each shard with its own scratch state.
///
/// An item a worker does not take is dropped when its [`CutDrain`] is; if a
/// worker panics, items of pieces not yet started are leaked, never dropped
/// twice.
///
/// # Panics
/// Panics if `cuts` is not a monotone cover of `items`, or if there are
/// fewer `states` than pieces.
pub fn drain_cut_slices<T, S, F>(items: &mut Vec<T>, cuts: &[usize], states: &mut [S], work: F)
where
    T: Send,
    S: Send,
    F: Fn(usize, CutDrain<'_, T>, &mut S) + Sync,
{
    assert!(
        cuts.len() <= states.len() + 1,
        "every piece pairs with one state"
    );
    let len = items.len();
    // SAFETY: zero is within capacity and leaves no uninitialized element
    // inside the vector. From here on the vector no longer owns the `len`
    // items at the head of its spare capacity; the drains below do.
    unsafe { items.set_len(0) };
    let slots = &mut items.spare_capacity_mut()[..len];
    let states = DisjointSlice::new(states);
    run_cut_slices(slots, cuts, |k, piece| {
        let drain = CutDrain {
            slots: piece.iter_mut(),
        };
        // SAFETY: piece k goes to exactly one worker, and with it state k.
        work(k, drain, unsafe { states.get_mut(k) });
    });
}

/// One piece of a [`drain_cut_slices`] buffer, yielded by value.
pub struct CutDrain<'a, T> {
    /// Initialized items this drain owns and has not yielded.
    slots: std::slice::IterMut<'a, std::mem::MaybeUninit<T>>,
}

impl<T> Iterator for CutDrain<'_, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        // SAFETY: every slot was an element of the drained vector, and the
        // slice iterator hands each out once: this read is the item's only
        // move out.
        self.slots
            .next()
            .map(|slot| unsafe { slot.assume_init_read() })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl<T> Drop for CutDrain<'_, T> {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            // SAFETY: as in `next` — initialized, and not yielded.
            unsafe { slot.assume_init_drop() };
        }
    }
}

/// A slice shared by the worker threads of one phase, written at provably
/// disjoint indices: every index is owned by exactly one shard (home
/// partition, edge range, …) and every shard is processed by exactly one
/// thread.
///
/// In debug builds every access records the touching thread; a second
/// thread touching the same index within the phase (the lifetime of this
/// wrapper) panics immediately with the offending index, so a wrong shard
/// handout is a loud failure instead of a silent race. Release builds
/// carry no tracking state and no per-access cost.
pub struct DisjointSlice<'a, T> {
    cells: &'a [Cell<T>],
    /// Per-index owner token: 0 = untouched, otherwise the unique token of
    /// the first thread that accessed the index this phase.
    #[cfg(debug_assertions)]
    owners: Vec<std::sync::atomic::AtomicU64>,
}

// SAFETY: each index is accessed by at most one thread per phase (see the
// struct docs); `T: Send` makes moving values across those threads sound.
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}

/// A small, unique, nonzero token per OS thread (debug builds only) — the
/// identity recorded by [`DisjointSlice`]'s overlap checker.
#[cfg(debug_assertions)]
fn thread_token() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TOKEN.with(|t| *t)
}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wraps a mutable slice for disjoint-index sharing.
    pub fn new(slice: &'a mut [T]) -> Self {
        #[cfg(debug_assertions)]
        let owners = (0..slice.len())
            .map(|_| std::sync::atomic::AtomicU64::new(0))
            .collect();
        Self {
            cells: Cell::from_mut(slice).as_slice_of_cells(),
            #[cfg(debug_assertions)]
            owners,
        }
    }

    /// Records the calling thread as index `i`'s owner for this phase,
    /// panicking if another thread already is.
    #[cfg(debug_assertions)]
    fn claim(&self, i: usize) {
        use std::sync::atomic::Ordering;
        let token = thread_token();
        if let Err(prev) =
            self.owners[i].compare_exchange(0, token, Ordering::Relaxed, Ordering::Relaxed)
        {
            assert_eq!(
                prev, token,
                "DisjointSlice overlap: index {i} handed to two threads in one phase"
            );
        }
    }

    /// # Safety
    /// No two threads may access the same index during one phase.
    #[allow(clippy::mut_from_ref)] // exclusivity is the caller's `# Safety` contract
    #[inline]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        #[cfg(debug_assertions)]
        self.claim(i);
        &mut *self.cells[i].as_ptr()
    }

    /// Row `row` of the slice read as consecutive rows of `stride` cells —
    /// the accessor for a flat column sharded by row.
    ///
    /// # Safety
    /// No two threads may access the same row during one phase.
    #[allow(clippy::mut_from_ref)] // exclusivity is the caller's `# Safety` contract
    #[inline]
    pub unsafe fn row_mut(&self, row: usize, stride: usize) -> &mut [T] {
        let cells = &self.cells[row * stride..(row + 1) * stride];
        #[cfg(debug_assertions)]
        (row * stride..(row + 1) * stride).for_each(|i| self.claim(i));
        // SAFETY: as in `as_mut_slice`, pointer and length describe a
        // sub-slice of the wrapped `&mut [T]` (the index above bounds-checked
        // it); the caller vouches that no other thread touches this row.
        std::slice::from_raw_parts_mut(cells.as_ptr() as *mut T, stride)
    }

    /// The whole slice at once, for a phase that runs as a single shard: its
    /// one thread may then sweep by iterator instead of index by index.
    ///
    /// # Safety
    /// No other thread may access any index during this phase.
    #[allow(clippy::mut_from_ref)] // exclusivity is the caller's `# Safety` contract
    #[inline]
    pub unsafe fn as_mut_slice(&self) -> &mut [T] {
        #[cfg(debug_assertions)]
        (0..self.cells.len()).for_each(|i| self.claim(i));
        // SAFETY: `Cell<T>` has the layout of `T` and the cells were made
        // from a `&mut [T]` borrowed for the wrapper's lifetime, so pointer
        // and length describe that slice; the caller vouches that no other
        // thread touches it during the phase.
        std::slice::from_raw_parts_mut(self.cells.as_ptr() as *mut T, self.cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_threads_is_positive() {
        assert!(auto_threads() >= 1);
    }

    #[test]
    fn run_ranges_covers_every_index_once() {
        for threads in [1usize, 2, 3, 7] {
            for len in [0usize, 1, 5, 64, 65] {
                let mut hits = vec![0u8; len];
                let cells = DisjointSlice::new(&mut hits);
                run_ranges(len, threads, |range| {
                    for i in range {
                        // SAFETY: ranges are disjoint across threads.
                        unsafe { *cells.get_mut(i) += 1 };
                    }
                });
                assert!(hits.iter().all(|&h| h == 1), "threads={threads} len={len}");
            }
        }
    }

    #[test]
    fn run_chunked_pairs_each_range_with_one_state() {
        let len = 100;
        for threads in [1usize, 2, 4] {
            let mut sums = vec![0u64; threads];
            run_chunked(len, threads, &mut sums, |range, sum| {
                *sum += range.map(|i| i as u64).sum::<u64>();
            });
            assert_eq!(sums.iter().sum::<u64>(), (len as u64 - 1) * len as u64 / 2);
        }
    }

    #[test]
    fn run_chunked_never_drops_work_when_states_run_short() {
        // 8 requested threads but only 2 scratch states: the pool must cap
        // itself at 2 workers and still cover every index.
        let len = 100;
        let mut sums = vec![0u64; 2];
        run_chunked(len, 8, &mut sums, |range, sum| {
            *sum += range.map(|i| i as u64).sum::<u64>();
        });
        assert_eq!(sums.iter().sum::<u64>(), (len as u64 - 1) * len as u64 / 2);
    }

    #[test]
    fn fill_chunks_matches_sequential() {
        let expected: Vec<u64> = (0..1000).map(|i| i * 3 + 1).collect();
        for threads in [1usize, 2, 3, 8] {
            let mut out = vec![0u64; 1000];
            fill_chunks(&mut out, threads, |offset, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = (offset + k) as u64 * 3 + 1;
                }
            });
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn run_cut_slices_matches_sequential_for_uneven_pieces() {
        let expected: Vec<u64> = (0..100).map(|i| i * 7 + 3).collect();
        for cuts in [
            vec![0usize, 100],
            vec![0, 1, 99, 100],
            vec![0, 30, 30, 60, 100],
        ] {
            let mut out = vec![0u64; 100];
            run_cut_slices(&mut out, &cuts, |k, piece| {
                let base = cuts[k];
                for (i, slot) in piece.iter_mut().enumerate() {
                    *slot = (base + i) as u64 * 7 + 3;
                }
            });
            assert_eq!(out, expected, "cuts={cuts:?}");
        }
    }

    #[test]
    fn run_cut_slices_handles_empty_slice() {
        // A single cut means zero pieces: `work` must simply never run.
        let mut empty: Vec<u32> = Vec::new();
        run_cut_slices(&mut empty, &[0], |_, _: &mut [u32]| {
            panic!("no pieces to hand out")
        });
        // An empty piece is still a piece.
        let ran = std::sync::atomic::AtomicBool::new(false);
        run_cut_slices(&mut empty, &[0, 0], |k, piece| {
            assert_eq!(k, 0);
            assert!(piece.is_empty());
            ran.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(ran.load(std::sync::atomic::Ordering::Relaxed));
    }

    #[test]
    fn drain_cut_slices_hands_each_piece_over_by_value_with_its_state() {
        use std::sync::Arc;
        let token = Arc::new(());
        for cuts in [vec![0usize, 9], vec![0, 2, 2, 9], vec![0, 0, 5, 9]] {
            for seed in [None, Some(1u64), Some(2)] {
                let mut items: Vec<(usize, Arc<()>)> = (0..9).map(|i| (i, token.clone())).collect();
                let mut taken = vec![Vec::new(); cuts.len() - 1];
                let mut drain = || {
                    drain_cut_slices(&mut items, &cuts, &mut taken, |k, piece, taken| {
                        assert_eq!(piece.size_hint().0, cuts[k + 1] - cuts[k]);
                        // Every piece leaves its last item untaken.
                        let keep = (cuts[k + 1] - cuts[k]).saturating_sub(1);
                        taken.extend(piece.take(keep).map(|(i, _)| i));
                    });
                };
                match seed {
                    Some(seed) => with_shard_permutation(seed, &mut drain),
                    None => drain(),
                }
                assert!(items.is_empty() && items.capacity() >= 9);
                for (k, taken) in taken.iter().enumerate() {
                    let kept = (cuts[k]..cuts[k + 1].max(cuts[k] + 1) - 1).collect::<Vec<_>>();
                    assert_eq!(taken, &kept, "cuts={cuts:?} piece {k}");
                }
                // Taken or not, every item was dropped exactly once.
                assert_eq!(Arc::strong_count(&token), 1, "cuts={cuts:?}");
            }
        }
    }

    #[test]
    fn drain_cut_slices_drops_nothing_twice_when_a_worker_panics() {
        use std::sync::Arc;
        let token = Arc::new(());
        let mut items: Vec<Arc<()>> = (0..8).map(|_| token.clone()).collect();
        let mut states = [(), ()];
        let doomed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drain_cut_slices(&mut items, &[0, 4, 8], &mut states, |k, mut piece, _| {
                let _first = piece.next();
                assert_ne!(k, 1, "worker bug");
            });
        }));
        assert!(doomed.is_err() && items.is_empty());
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    #[should_panic(expected = "cover the slice")]
    fn run_cut_slices_rejects_partial_cover() {
        let mut out = vec![0u32; 4];
        run_cut_slices(&mut out, &[0, 2], |_, _| {});
    }

    #[test]
    fn permuted_shard_orders_are_bit_identical_to_parallel() {
        // Every primitive, several seeds: adversarial completion order must
        // not be observable in the output or the merged scratch states.
        let expected: Vec<u64> = (0..257).map(|i| i * 3 + 1).collect();
        for seed in 0..8u64 {
            for threads in [2usize, 4, 7] {
                let mut out = vec![0u64; 257];
                with_shard_permutation(seed, || {
                    fill_chunks(&mut out, threads, |offset, chunk| {
                        for (k, slot) in chunk.iter_mut().enumerate() {
                            *slot = (offset + k) as u64 * 3 + 1;
                        }
                    });
                });
                assert_eq!(out, expected, "fill_chunks seed={seed} threads={threads}");

                let mut hits = vec![0u8; 257];
                let cells = DisjointSlice::new(&mut hits);
                with_shard_permutation(seed, || {
                    run_ranges(257, threads, |range| {
                        for i in range {
                            // SAFETY: ranges are disjoint across shards.
                            unsafe { *cells.get_mut(i) += 1 };
                        }
                    });
                });
                drop(cells);
                assert!(hits.iter().all(|&h| h == 1), "run_ranges seed={seed}");

                let mut sums = vec![0u64; threads];
                with_shard_permutation(seed, || {
                    run_chunked(257, threads, &mut sums, |range, sum| {
                        *sum += range.map(|i| i as u64).sum::<u64>();
                    });
                });
                // Pairing by piece index survives permutation: the merged
                // total and the per-state split both match the plain run.
                let mut plain = vec![0u64; threads];
                run_chunked(257, threads, &mut plain, |range, sum| {
                    *sum += range.map(|i| i as u64).sum::<u64>();
                });
                assert_eq!(sums, plain, "run_chunked seed={seed} threads={threads}");
            }

            let mut out = vec![0u64; 100];
            let cuts = [0usize, 1, 40, 40, 99, 100];
            with_shard_permutation(seed, || {
                run_cut_slices(&mut out, &cuts, |k, piece| {
                    let base = cuts[k];
                    for (i, slot) in piece.iter_mut().enumerate() {
                        *slot = (base + i) as u64 * 7 + 3;
                    }
                });
            });
            let expected_cut: Vec<u64> = (0..100).map(|i| i * 7 + 3).collect();
            assert_eq!(out, expected_cut, "run_cut_slices seed={seed}");
        }
    }

    #[test]
    fn permutation_mode_restores_on_exit_and_panic() {
        with_shard_permutation(1, || {});
        // Back to normal: parallel path must be taken again (observable via
        // multiple distinct thread tokens not mattering — just smoke-run).
        let mut out = vec![0u64; 8];
        fill_chunks(&mut out, 2, |o, c| c.iter_mut().for_each(|s| *s = o as u64));
        let caught = std::panic::catch_unwind(|| {
            with_shard_permutation(2, || panic!("boom"));
        });
        assert!(caught.is_err());
        // The mode must not leak out of the panicked scope.
        let mut out = vec![0u64; 8];
        fill_chunks(&mut out, 2, |o, c| c.iter_mut().for_each(|s| *s = o as u64));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn disjoint_slice_overlap_is_caught_in_debug() {
        // Two threads deliberately touch the same index: the debug overlap
        // checker must panic in (at least) one of them, which the scope
        // propagates. The noise on stderr is the panic doing its job.
        let mut data = vec![0u32; 4];
        let cells = DisjointSlice::new(&mut data);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        // SAFETY: deliberately violated — that's the test.
                        unsafe { *cells.get_mut(0) += 1 };
                    });
                }
            });
        }));
        assert!(caught.is_err(), "overlap went undetected");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn disjoint_slice_allows_same_thread_repeats() {
        let mut data = vec![0u32; 2];
        let cells = DisjointSlice::new(&mut data);
        for _ in 0..10 {
            // SAFETY: single thread, single phase.
            unsafe { *cells.get_mut(1) += 1 };
        }
        // SAFETY: same single thread taking the whole slice.
        unsafe { cells.as_mut_slice()[0] = 7 };
        drop(cells);
        assert_eq!(data, vec![7, 10]);
    }

    #[test]
    fn disjoint_rows_are_written_by_their_owning_shard() {
        // Seven rows of three cells, sharded by row over three threads.
        let mut data = vec![0usize; 21];
        let cells = DisjointSlice::new(&mut data);
        run_ranges(7, 3, |rows| {
            for row in rows {
                // SAFETY: row ranges are disjoint across shards.
                let cells = unsafe { cells.row_mut(row, 3) };
                assert_eq!(cells.len(), 3);
                cells.fill(row);
            }
        });
        drop(cells);
        assert!((0..21).all(|i| data[i] == i / 3), "{data:?}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn disjoint_row_overlap_is_caught_in_debug() {
        // Row 1 at stride 2 covers index 2, which another thread already
        // owns through the element accessor.
        let mut data = vec![0u32; 6];
        let cells = DisjointSlice::new(&mut data);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: deliberately violated — that's the test.
            std::thread::scope(|scope| {
                scope.spawn(|| unsafe { *cells.get_mut(2) += 1 });
            });
            std::thread::scope(|scope| {
                scope.spawn(|| unsafe { cells.row_mut(1, 2)[0] += 1 });
            });
        }));
        assert!(caught.is_err(), "overlap went undetected");
    }

    #[test]
    fn fill_chunks_handles_empty_and_oversubscribed() {
        let mut empty: Vec<u32> = Vec::new();
        fill_chunks(&mut empty, 8, |offset, chunk| {
            assert_eq!(offset, 0);
            assert!(chunk.is_empty(), "no work to hand out");
        });
        let mut tiny = vec![0u32; 2];
        fill_chunks(&mut tiny, 16, |offset, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = (offset + k) as u32;
            }
        });
        assert_eq!(tiny, vec![0, 1]);
    }
}
