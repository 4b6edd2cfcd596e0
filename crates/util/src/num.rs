//! Exact integer arithmetic, checked id-narrowing, and total float order.
//!
//! The partitioners derive grid dimensions from partition counts; doing so
//! through `f64` round-trips (`(n as f64).sqrt().ceil()`) is a lossy path
//! that can misround for large inputs, the same defect class the metrics
//! code had with float extrema. These helpers stay in integers end to end.
//!
//! This module is also the home of the two determinism conventions that
//! the library's clippy policy enforces statically:
//!
//! * **Id narrowing** ([`vid_u32`], [`vid_index`], [`part_index`]): vertex
//!   and partition ids must not be narrowed with bare `as` casts
//!   (`clippy::cast_possible_truncation`) — a graph with more than
//!   `u32::MAX` vertices would silently wrap and corrupt results instead of
//!   failing loudly. These helpers panic with context on overflow;
//!   `vid_index` compiles to nothing on 64-bit hosts, and `vid_u32` to a
//!   compare-and-branch.
//! * **Float ordering** ([`nan_last_cmp`]): every sort or extremum over
//!   measured `f64`s routes through one NaN-last total order
//!   (`clippy::unwrap_used` rejects `partial_cmp().unwrap()`), so a broken
//!   measurement can neither panic a sort nor — as `f64::total_cmp` alone
//!   would allow for `-NaN` — be crowned the minimum.

/// Total ascending order for `f64` with NaN (either sign) **last**.
///
/// `f64::total_cmp` alone orders `-NaN` before every number; comparing
/// `is_nan()` first sends both NaN signs to the end, so `min_by`/`sort`
/// winners are always real numbers when any exist. Established in PR 3 for
/// the advisor's candidate ranking; shared here so every crate sorts floats
/// the same way.
#[inline]
pub fn nan_last_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(&b))
}

/// Narrows a vertex id (`u64`) to `u32`, panicking with context on ids that
/// would truncate. Union-find and the coarsening hierarchy store vertex ids
/// as `u32`; this is the loud boundary between the two widths.
#[inline]
pub fn vid_u32(v: u64) -> u32 {
    match u32::try_from(v) {
        Ok(x) => x,
        Err(_) => panic!("vertex id {v} exceeds u32 range"),
    }
}

/// Converts a vertex id (`u64`) to a slice index, panicking if the id does
/// not fit `usize` (only possible on 32-bit hosts; free on 64-bit).
#[inline]
pub fn vid_index(v: u64) -> usize {
    match usize::try_from(v) {
        Ok(x) => x,
        Err(_) => panic!("vertex id {v} exceeds usize range"),
    }
}

/// Converts a partition id (`u32`) to a slice index. Infallible on every
/// supported host (`usize` is at least 32 bits), but spelled as a helper so
/// id-indexing reads uniformly.
#[inline]
pub fn part_index(p: u32) -> usize {
    p as usize
}

/// Smallest `s` with `s * s >= n` (the exact integer ceiling square root).
///
/// Pure integer arithmetic: the `f64` seed is only a starting guess and is
/// corrected by exact comparisons, so the result is right for every `u64`,
/// including values a `sqrt().ceil()` round-trip would misround.
// The float seed is at most 2^32, and the loops below correct it exactly.
#[allow(clippy::cast_possible_truncation)]
pub fn ceil_sqrt(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    // Seed from the float sqrt, then walk to the exact floor square root.
    let mut x = (n as f64).sqrt() as u64;
    while x.checked_mul(x).map_or(true, |xx| xx > n) {
        x -= 1;
    }
    while (x + 1).checked_mul(x + 1).is_some_and(|xx| xx <= n) {
        x += 1;
    }
    if x * x == n {
        x
    } else {
        x + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_small_values() {
        for n in 0u64..10_000 {
            let s = ceil_sqrt(n);
            assert!(s * s >= n, "ceil_sqrt({n}) = {s} too small");
            assert!(
                s == 0 || (s - 1) * (s - 1) < n,
                "ceil_sqrt({n}) = {s} too big"
            );
        }
    }

    #[test]
    fn perfect_squares_are_exact() {
        for s in [0u64, 1, 2, 255, 256, 65_535, 65_536, 1 << 31] {
            assert_eq!(ceil_sqrt(s * s), s);
            if s > 1 {
                assert_eq!(ceil_sqrt(s * s - 1), s);
                assert_eq!(ceil_sqrt(s * s + 1), s + 1);
            }
        }
    }

    #[test]
    fn extreme_inputs_do_not_overflow() {
        // Near u64::MAX the floor sqrt is u32::MAX; (x+1)² would overflow —
        // the checked arithmetic must handle it.
        assert_eq!(ceil_sqrt(u64::MAX), 1 << 32);
        assert_eq!(ceil_sqrt((u32::MAX as u64).pow(2)), u32::MAX as u64);
        assert_eq!(ceil_sqrt((u32::MAX as u64).pow(2) + 1), 1 << 32);
    }

    #[test]
    fn nan_last_cmp_is_total_with_nans_last() {
        use std::cmp::Ordering;
        let neg_nan = f64::from_bits(f64::NAN.to_bits() | (1 << 63));
        let mut v = [3.0, f64::NAN, -1.0, neg_nan, f64::INFINITY, 0.0];
        v.sort_by(|a, b| nan_last_cmp(*a, *b));
        assert_eq!(&v[..4], &[-1.0, 0.0, 3.0, f64::INFINITY]);
        assert!(v[4].is_nan() && v[5].is_nan(), "both NaN signs sort last");
        assert_eq!(nan_last_cmp(2.0, f64::NAN), Ordering::Less);
        assert_eq!(nan_last_cmp(neg_nan, f64::NEG_INFINITY), Ordering::Greater);
        // min_by under this order can never crown a NaN while numbers exist.
        let m = [f64::NAN, 5.0, neg_nan]
            .into_iter()
            .min_by(|a, b| nan_last_cmp(*a, *b))
            .unwrap();
        assert_eq!(m, 5.0);
    }

    #[test]
    fn id_narrowing_helpers() {
        assert_eq!(vid_u32(0), 0);
        assert_eq!(vid_u32(u32::MAX as u64), u32::MAX);
        assert_eq!(vid_index(17), 17);
        assert_eq!(part_index(9), 9);
    }

    #[test]
    #[should_panic(expected = "exceeds u32 range")]
    fn vid_u32_panics_on_truncation() {
        vid_u32(u32::MAX as u64 + 1);
    }

    #[test]
    fn full_part_id_range_boundaries() {
        // PartId is u32: the partitioners only ever call this below 2^32.
        for n in [u32::MAX as u64, u32::MAX as u64 - 1, 1 << 31, (1 << 31) + 1] {
            let s = ceil_sqrt(n);
            assert!(s * s >= n && (s - 1) * (s - 1) < n, "n={n} s={s}");
        }
    }
}
