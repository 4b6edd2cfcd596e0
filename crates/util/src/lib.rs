//! Deterministic utilities shared by the `cutfit` workspace.
//!
//! The crates in this workspace need bit-for-bit reproducible results across
//! runs, platforms, and toolchain upgrades, because the experiment harness
//! compares generated datasets and partitionings against recorded paper
//! shapes. To that end this crate hand-rolls a small, well-known PRNG
//! ([`rng::Xoshiro256pp`]) and integer mixing functions ([`hash`]) rather than
//! depending on external crates whose output may change between versions.
//!
//! The same determinism requirement shapes the parallelism primitives
//! ([`exec`]): work is split into contiguous chunks whose boundaries depend
//! only on `(len, threads)`, with every output index owned by exactly one
//! worker, so the engine's supersteps and the partitioners' edge scans are
//! bit-identical at any thread count. [`num`] holds exact integer arithmetic
//! (ceiling square root), the checked id-narrowing helpers, and the NaN-last
//! total float order — the conventions the library's clippy policy
//! (`clippy.toml` and CI's clippy step) enforces statically for the places
//! where an `f64` round-trip or a bare `as` cast would be lossy. [`clock`]
//! is the injected time source through which those crates may time
//! themselves without reading the wall clock.

pub mod clock;
pub mod exec;
pub mod fmt;
pub mod hash;
pub mod num;
pub mod rng;
pub mod table;

pub use rng::Xoshiro256pp;
