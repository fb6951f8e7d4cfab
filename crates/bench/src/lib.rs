//! # mhw-bench
//!
//! The fork-sweep driver ([`sweep::fork_sweep`]): one frozen world
//! snapshot, one forked continuation per grid cell, fanned across a
//! worker pool. The `sweep` binary and the benchmark's posture-sweep
//! workload both run their grids through it.

pub mod sweep;
