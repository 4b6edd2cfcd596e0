//! Where a run's wall time goes: a side channel beside [`SimReport`].
//!
//! The engine may not read the wall clock — its results must repeat bit for
//! bit — so it times itself only through a [`Clock`] its caller hands to
//! [`PreparedRun::run_traced`]. The superstep loop brackets each [`Phase`]
//! with two reads on the calling thread (never inside a pooled phase) and
//! sums the differences into a [`RunTrace`], returned *beside* the result:
//! no [`SimReport`] field and no vertex state depends on it. Under
//! [`Clock::Null`] nothing is read and every span stays at zero
//! nanoseconds.
//!
//! [`SimReport`]: cutfit_cluster::SimReport
//! [`PreparedRun::run_traced`]: crate::PreparedRun::run_traced

use cutfit_util::clock::Clock;

/// What the superstep loop times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Sizing the frontier and choosing the superstep's walk.
    Plan,
    /// The dense walk over every partition's edge table.
    DenseScan,
    /// A sparse superstep's emission from the frontier's incidence rows.
    Emit,
    /// Sorting a sparse superstep's records by receiver.
    Sort,
    /// Folding the sorted records into their receivers' states.
    Fold,
    /// A dense superstep's delivery of partials to their masters.
    Shuffle,
    /// A dense superstep's apply and broadcast.
    Apply,
    /// Ledger flushes and the simulator's end-of-superstep bookkeeping
    /// (checkpoint billing included).
    Sim,
    /// Building the handle's broadcast-class table (its first run only).
    BuildClasses,
    /// Building the handle's incidence index (the first run that walks).
    BuildIncidence,
}

impl Phase {
    /// Every phase, in the order a superstep meets them.
    pub const ALL: [Phase; 10] = [
        Phase::Plan,
        Phase::DenseScan,
        Phase::Emit,
        Phase::Sort,
        Phase::Fold,
        Phase::Shuffle,
        Phase::Apply,
        Phase::Sim,
        Phase::BuildClasses,
        Phase::BuildIncidence,
    ];

    /// A short lower-case name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::DenseScan => "dense_scan",
            Phase::Emit => "emit",
            Phase::Sort => "sort",
            Phase::Fold => "fold",
            Phase::Shuffle => "shuffle",
            Phase::Apply => "apply",
            Phase::Sim => "sim",
            Phase::BuildClasses => "build_classes",
            Phase::BuildIncidence => "build_incidence",
        }
    }
}

/// Time summed over one phase's executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Nanoseconds between the two clock reads, summed (saturating).
    pub nanos: u64,
    /// How often the phase ran.
    pub calls: u64,
}

/// One run's time by [`Phase`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunTrace {
    spans: [Span; Phase::ALL.len()],
}

impl RunTrace {
    /// The time and call count of `phase`.
    pub fn span(&self, phase: Phase) -> Span {
        self.spans[phase as usize]
    }

    /// Nanoseconds over all phases.
    pub fn total_nanos(&self) -> u64 {
        let sum = |total: u64, span: &Span| total.saturating_add(span.nanos);
        self.spans.iter().fold(0, sum)
    }
}

/// A clock and the trace it fills: what the superstep loop carries.
pub(crate) struct Probe<'a> {
    clock: &'a Clock,
    trace: RunTrace,
}

impl<'a> Probe<'a> {
    pub(crate) fn new(clock: &'a Clock) -> Self {
        Self {
            clock,
            trace: RunTrace::default(),
        }
    }

    pub(crate) fn into_trace(self) -> RunTrace {
        self.trace
    }

    /// Runs `work` as one execution of `phase`.
    #[inline]
    pub(crate) fn time<R>(&mut self, phase: Phase, work: impl FnOnce() -> R) -> R {
        let start = self.clock.now_nanos();
        let result = work();
        let spent = self.clock.now_nanos().saturating_sub(start);
        let span = &mut self.trace.spans[phase as usize];
        span.nanos = span.nanos.saturating_add(spent);
        span.calls += 1;
        result
    }

    /// Runs `work` — as one execution of `phase` if `first`: for a lazy
    /// build, which only the first run to want it pays for.
    pub(crate) fn time_if<R>(&mut self, first: bool, phase: Phase, work: impl FnOnce() -> R) -> R {
        if first {
            self.time(phase, work)
        } else {
            work()
        }
    }
}
