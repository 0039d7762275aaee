//! # qos-bench — experiment binaries
//!
//! One experiment binary per table and figure in the paper's evaluation
//! (see DESIGN.md's experiment index and EXPERIMENTS.md for
//! measured-vs-paper results):
//!
//! | artifact | binary |
//! |---|---|
//! | Figure 3 (fps vs load) | `fig3` |
//! | §7 overhead (init ≈400 µs, pass ≈11 µs) | `overhead` |
//! | Feedback convergence (E4) | `convergence` |
//! | Administrative contention (E5) | `contention` |
//! | Fault localization (E6) | `localization` |
//! | Policy distribution (E7) | `distribution` |
//! | Multi-host matcher scaling | `scale` |
//!
//! Run a binary with `cargo run --release -p qos-bench --bin fig3`.
//! Binaries accepting `--json <path>` additionally write their result
//! rows as machine-readable JSON (see [`json`]). Performance claims come
//! from the repo's one benchmark, `benchmark/` (`BENCHMARK.json`).

#![warn(missing_docs)]

pub mod json;

pub use json::{bench_rows_to_json, emit_bench_json, BenchRow};
pub use qos_core::prelude::*;
