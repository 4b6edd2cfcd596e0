//! Scenario layer: deterministic, seedable cluster "mess".
//!
//! The paper's tailor-vs-one-size comparison runs on an idealized cluster —
//! uniform executors, no stragglers, perfect clocks, a quiet network, and no
//! failures. [`ScenarioConfig`] layers realistic degradations onto a
//! [`ClusterConfig`](crate::ClusterConfig) so the advisor's verdicts can be
//! stress-tested instead of only benchmarked on the happy path:
//!
//! * **heterogeneous executor speeds** — each executor runs at a fixed,
//!   seeded slowdown factor, as on clusters mixing machine generations;
//! * **straggler supersteps** — an executor sporadically runs a superstep
//!   several times slower (GC pause, noisy neighbor, deep JIT deopt);
//! * **clock drift/skew** — per-executor clocks drift apart and the barrier
//!   pays the spread, as unsynchronized NTP domains do;
//! * **network contention** — wire time inflates when many executors send
//!   at once, modelling a shared, oversubscribed switch fabric;
//! * **executor failure + recovery** — an executor dies, restores its state
//!   from the last checkpoint, and replays every superstep since it.
//!
//! # Determinism
//!
//! Every stochastic decision is a *pure function* of `(seed, stream, superstep,
//! executor)`, hashed through the full-avalanche [`mix64`] finalizer — a
//! counter-based (splittable) RNG. There is no generator state to advance, so
//! draws are independent of evaluation order: the Sequential, `Parallel{n}`,
//! and Auto executor modes, repeated runs, and resumed sims all see the exact
//! same fault schedule for the same seed. Distinct streams keep the failure,
//! straggler, speed, drift, and contention schedules mutually independent.
//!
//! A zeroed config (the [`Default`]) disables every knob: the simulator takes
//! the identical arithmetic path as before this module existed, so
//! failure-free bills are bit-for-bit unchanged and the seed is inert.

use cutfit_util::rng::mix64;

// Stream tags decorrelate the per-purpose draw schedules. Arbitrary odd
// 64-bit constants; fixed forever so recorded seeds stay valid.
const STREAM_SPEED: u64 = 0x5BD1_E995_7B93_F001;
const STREAM_STRAGGLE: u64 = 0xC2B2_AE3D_27D4_EB4F;
const STREAM_DRIFT: u64 = 0x9E37_79B9_7F4A_7C55;
const STREAM_CONTEND: u64 = 0x1656_67B1_9E37_79F9;
const STREAM_FAIL: u64 = 0xD6E8_FEB8_6659_FD93;

/// Deterministic scenario knobs layered onto a cluster config. All fields
/// default to zero/`None`, which disables the scenario entirely.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScenarioConfig {
    /// Root seed for the splittable draw streams. Inert while every other
    /// knob is zero — an all-zero config is the failure-free baseline
    /// regardless of seed.
    pub seed: u64,
    /// Executor speed spread: executor `e` computes at a fixed factor drawn
    /// uniformly from `[1, 1 + heterogeneity)`. `0` = uniform cluster.
    pub heterogeneity: f64,
    /// Per-(superstep, executor) probability of a straggler event.
    pub straggler_prob: f64,
    /// Compute slowdown applied to a straggling executor for that superstep
    /// (clamped to at least 1).
    pub straggler_slowdown: f64,
    /// Maximum per-executor clock drift rate, seconds of drift per simulated
    /// second. Each executor drifts at a fixed seeded rate in
    /// `(-clock_drift, +clock_drift)`; the superstep barrier pays the
    /// accumulated spread between the fastest and slowest clock.
    pub clock_drift: f64,
    /// Network contention intensity: wire time inflates by up to this factor
    /// (scaled by a per-superstep draw and by how many executors transmit
    /// simultaneously). `0` = dedicated fabric.
    pub network_contention: f64,
    /// Per-(superstep, executor) probability of an executor failure. A failed
    /// executor restores from the last checkpoint and replays all supersteps
    /// since it — pure cost, never a result change.
    pub failure_prob: f64,
    /// Checkpoint every `n` supersteps: state is written to storage (billed)
    /// and shuffle lineage is truncated, bounding both recovery replay and
    /// lineage memory growth. `0` = never checkpoint (replay from job start).
    /// It bills on a failure-free cluster too: the `checkpointInterval`
    /// rescue for high-superstep jobs (the paper's SSSP) from lineage OOM.
    pub checkpoint_interval: u64,
    /// Deterministic fault injection for tests and chaos drills: executor
    /// `.1` fails at 0-based superstep `.0`, in addition to any
    /// `failure_prob` draws.
    pub forced_failure: Option<(u64, u32)>,
}

impl ScenarioConfig {
    /// The idealized baseline: no degradations at all (same as `Default`).
    pub fn uniform() -> Self {
        Self::default()
    }

    /// Mixed machine generations: executor speeds spread over ±60 %.
    pub fn heterogeneous(seed: u64) -> Self {
        Self {
            seed,
            heterogeneity: 0.6,
            ..Self::default()
        }
    }

    /// Sporadic stragglers: 12 % of (superstep, executor) cells run 8×
    /// slower — GC pauses and noisy neighbors.
    pub fn straggler(seed: u64) -> Self {
        Self {
            seed,
            straggler_prob: 0.12,
            straggler_slowdown: 8.0,
            ..Self::default()
        }
    }

    /// Oversubscribed fabric with unsynchronized clocks: wire time inflates
    /// up to 75 % under load and executor clocks drift up to ±1 %.
    pub fn congested(seed: u64) -> Self {
        Self {
            seed,
            network_contention: 0.75,
            clock_drift: 0.01,
            ..Self::default()
        }
    }

    /// Failure-prone executors with periodic checkpoints: 3 % of
    /// (superstep, executor) cells fail; state checkpoints every 4
    /// supersteps bound the recovery replay.
    pub fn faulty(seed: u64) -> Self {
        Self {
            seed,
            failure_prob: 0.03,
            checkpoint_interval: 4,
            ..Self::default()
        }
    }

    /// Everything at once: heterogeneity, stragglers, drift, contention,
    /// and failures with checkpointing.
    pub fn messy(seed: u64) -> Self {
        Self {
            seed,
            heterogeneity: 0.4,
            straggler_prob: 0.08,
            straggler_slowdown: 6.0,
            clock_drift: 0.005,
            network_contention: 0.5,
            failure_prob: 0.02,
            checkpoint_interval: 4,
            ..Self::default()
        }
    }

    /// The named presets, for sweeps and campaign grids.
    pub fn presets(seed: u64) -> Vec<(&'static str, ScenarioConfig)> {
        vec![
            ("uniform", Self::uniform()),
            ("heterogeneous", Self::heterogeneous(seed)),
            ("straggler", Self::straggler(seed)),
            ("congested", Self::congested(seed)),
            ("faulty", Self::faulty(seed)),
            ("messy", Self::messy(seed)),
        ]
    }

    /// True when every degradation is disabled and the sim must take the
    /// exact failure-free arithmetic path (checkpointing counts as a
    /// degradation for this purpose: it bills storage writes).
    pub fn is_off(&self) -> bool {
        self.heterogeneity == 0.0
            && self.straggler_prob == 0.0
            && self.clock_drift == 0.0
            && self.network_contention == 0.0
            && self.failure_prob == 0.0
            && self.checkpoint_interval == 0
            && self.forced_failure.is_none()
    }

    /// One counter-based draw: a pure function of the seed, a stream tag,
    /// and the (superstep, executor) coordinates — no generator state, so
    /// evaluation order cannot matter.
    #[inline]
    fn draw(&self, stream: u64, step: u64, exec: u32) -> u64 {
        let a = mix64(self.seed ^ stream);
        let b = mix64(a ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        mix64(b ^ u64::from(exec).wrapping_add(0xD1B5_4A32_D192_ED03))
    }

    /// A uniform `f64` in `[0, 1)` from one counter-based draw.
    #[inline]
    fn unit(&self, stream: u64, step: u64, exec: u32) -> f64 {
        (self.draw(stream, step, exec) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fixed compute slowdown of `exec`, in `[1, 1 + heterogeneity)`.
    #[inline]
    pub(crate) fn speed_factor(&self, exec: u32) -> f64 {
        1.0 + self.heterogeneity.max(0.0) * self.unit(STREAM_SPEED, 0, exec)
    }

    /// Fixed clock drift rate of `exec`, in `(-clock_drift, +clock_drift)`.
    #[inline]
    pub(crate) fn drift_rate(&self, exec: u32) -> f64 {
        self.clock_drift * (2.0 * self.unit(STREAM_DRIFT, 0, exec) - 1.0)
    }

    /// Does `exec` straggle during 0-based superstep `step`?
    #[inline]
    pub fn straggles(&self, step: u64, exec: u32) -> bool {
        self.straggler_prob > 0.0 && self.unit(STREAM_STRAGGLE, step, exec) < self.straggler_prob
    }

    /// Does `exec` fail during 0-based superstep `step`?
    #[inline]
    pub fn fails(&self, step: u64, exec: u32) -> bool {
        if self.forced_failure == Some((step, exec)) {
            return true;
        }
        self.failure_prob > 0.0 && self.unit(STREAM_FAIL, step, exec) < self.failure_prob
    }

    /// Cluster-wide contention level during `step`, in `[0, 1)`.
    #[inline]
    pub(crate) fn contention_level(&self, step: u64) -> f64 {
        self.unit(STREAM_CONTEND, step, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_seed_inert() {
        let zero = ScenarioConfig::default();
        assert!(zero.is_off());
        assert!(ScenarioConfig::uniform().is_off());
        let seeded = ScenarioConfig {
            seed: 0xDEAD_BEEF,
            ..ScenarioConfig::default()
        };
        assert!(seeded.is_off(), "seed alone must not enable anything");
        assert!(!seeded.straggles(0, 0));
        assert!(!seeded.fails(0, 0));
        assert_eq!(seeded.speed_factor(3), 1.0);
        assert_eq!(seeded.drift_rate(3), 0.0);
    }

    #[test]
    fn presets_are_on() {
        for (name, s) in ScenarioConfig::presets(7) {
            if name == "uniform" {
                assert!(s.is_off());
            } else {
                assert!(!s.is_off(), "{name} must enable something");
            }
        }
    }

    #[test]
    fn draws_are_pure_functions() {
        let s = ScenarioConfig::messy(42);
        for step in 0..16 {
            for exec in 0..4 {
                assert_eq!(s.fails(step, exec), s.fails(step, exec));
                assert_eq!(s.straggles(step, exec), s.straggles(step, exec));
            }
        }
        assert_eq!(s.speed_factor(2), s.speed_factor(2));
    }

    #[test]
    fn distinct_seeds_give_distinct_schedules() {
        let a = ScenarioConfig {
            failure_prob: 0.5,
            ..ScenarioConfig::faulty(1)
        };
        let b = ScenarioConfig {
            failure_prob: 0.5,
            ..ScenarioConfig::faulty(2)
        };
        let schedule = |s: &ScenarioConfig| {
            (0..64)
                .flat_map(|step| (0..4).map(move |exec| (step, exec)))
                .map(|(step, exec)| s.fails(step, exec))
                .collect::<Vec<_>>()
        };
        assert_ne!(schedule(&a), schedule(&b));
    }

    #[test]
    fn streams_are_decorrelated() {
        // The same (step, exec) cell must not fail and straggle in lockstep.
        let s = ScenarioConfig {
            seed: 11,
            straggler_prob: 0.5,
            straggler_slowdown: 2.0,
            failure_prob: 0.5,
            ..ScenarioConfig::default()
        };
        let agree = (0..256)
            .filter(|&step| s.fails(step, 0) == s.straggles(step, 0))
            .count();
        assert!(
            (64..192).contains(&agree),
            "independent coin flips should agree about half the time, got {agree}/256"
        );
    }

    #[test]
    fn speed_factors_spread_within_bounds() {
        let s = ScenarioConfig::heterogeneous(5);
        let factors: Vec<f64> = (0..8).map(|e| s.speed_factor(e)).collect();
        for &f in &factors {
            assert!((1.0..1.6).contains(&f), "factor {f} out of [1, 1.6)");
        }
        let spread = factors.iter().cloned().fold(f64::MIN, f64::max)
            - factors.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 0.05, "8 draws should spread, got {spread}");
    }

    #[test]
    fn drift_rates_are_signed_and_bounded() {
        let s = ScenarioConfig::congested(9);
        let rates: Vec<f64> = (0..16).map(|e| s.drift_rate(e)).collect();
        for &r in &rates {
            assert!(r.abs() < s.clock_drift);
        }
        assert!(rates.iter().any(|&r| r > 0.0) && rates.iter().any(|&r| r < 0.0));
    }

    #[test]
    fn forced_failure_fires_exactly_once() {
        let s = ScenarioConfig {
            forced_failure: Some((3, 1)),
            ..ScenarioConfig::default()
        };
        for step in 0..8 {
            for exec in 0..4 {
                assert_eq!(s.fails(step, exec), (step, exec) == (3, 1));
            }
        }
    }
}
