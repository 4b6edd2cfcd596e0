//! An injected clock: the one door through which deterministic crates see
//! time.
//!
//! The billed crates (engine, partition, graph, cluster, core) may not read
//! the wall clock — what they report must repeat bit for bit. What they may
//! do is accept a [`Clock`] the *caller* constructed and ask it for
//! [`Clock::now_nanos`]: a benchmark hands in [`Clock::system`], a test
//! [`Clock::simulated`], and everything else [`Clock::Null`], which never
//! reads anything. Time taken this way goes into a side channel (the
//! engine's `RunTrace`), never into a result.
//!
//! All arithmetic saturates: a clock that has run past `u64::MAX`
//! nanoseconds (584 years) stays there instead of wrapping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A source of monotonic nanoseconds.
#[derive(Debug)]
pub enum Clock {
    /// Always zero, without reading anything: tracing switched off.
    Null,
    /// The host's monotonic clock, counted from the clock's creation.
    System {
        /// When the clock was made.
        origin: Instant,
    },
    /// A clock that moves only when told to ([`Clock::advance`]) and by a
    /// fixed `step` after each read, so a trace taken with it is a pure
    /// function of how often the traced code looked at the clock.
    Simulated {
        /// Nanoseconds the next read returns.
        now: AtomicU64,
        /// Nanoseconds every read adds.
        step: u64,
    },
}

impl Clock {
    /// The host's monotonic clock, starting now.
    // The one sanctioned wall-clock read: library code times itself only
    // through a `Clock` it was handed.
    #[allow(clippy::disallowed_methods)]
    pub fn system() -> Self {
        Clock::System {
            origin: Instant::now(),
        }
    }

    /// A simulated clock at zero that advances `step_nanos` per read.
    pub fn simulated(step_nanos: u64) -> Self {
        Clock::Simulated {
            now: AtomicU64::new(0),
            step: step_nanos,
        }
    }

    /// Nanoseconds since the clock's origin.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        match self {
            Clock::Null => 0,
            Clock::System { origin } => {
                u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            Clock::Simulated { now, step } => bump(now, *step),
        }
    }

    /// Moves a simulated clock forward; the other sources ignore it (the
    /// host's clock advances itself, the null clock never does).
    pub fn advance(&self, nanos: u64) {
        if let Clock::Simulated { now, .. } = self {
            bump(now, nanos);
        }
    }
}

/// Adds `nanos` to `now`, saturating, and returns the value before. The
/// counter publishes no other data, hence `Relaxed`.
fn bump(now: &AtomicU64, nanos: u64) -> u64 {
    let add = |seen: u64| Some(seen.saturating_add(nanos));
    now.fetch_update(Ordering::Relaxed, Ordering::Relaxed, add)
        .unwrap_or_else(|seen| seen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_clock_stays_at_zero() {
        let clock = Clock::Null;
        clock.advance(5);
        assert_eq!((clock.now_nanos(), clock.now_nanos()), (0, 0));
    }

    #[test]
    fn simulated_clock_steps_per_read_and_on_demand() {
        let clock = Clock::simulated(7);
        assert_eq!(clock.now_nanos(), 0);
        assert_eq!(clock.now_nanos(), 7);
        clock.advance(100);
        assert_eq!(clock.now_nanos(), 114);
        let still = Clock::simulated(0);
        still.advance(3);
        assert_eq!((still.now_nanos(), still.now_nanos()), (3, 3));
    }

    #[test]
    fn simulated_clock_saturates_instead_of_wrapping() {
        let clock = Clock::simulated(u64::MAX / 2 + 1);
        assert_eq!(clock.now_nanos(), 0);
        assert_eq!(clock.now_nanos(), u64::MAX / 2 + 1);
        assert_eq!(clock.now_nanos(), u64::MAX);
        clock.advance(u64::MAX);
        assert_eq!(clock.now_nanos(), u64::MAX);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = Clock::system();
        let first = clock.now_nanos();
        assert!(clock.now_nanos() >= first);
    }
}
