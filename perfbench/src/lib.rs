//! # perfbench — the repository's end-to-end benchmark
//!
//! One command runs one seeded workload through the program's public entry
//! points, checks that its outputs are correct, and prints every metric by
//! name with its unit; `--trace 1` gives the per-layer split instead. See
//! `perfbench/README.md` for the workloads, the metric map and what is out
//! of scope.

pub mod bench;
pub mod host;
pub mod report;
pub mod trace;
pub mod workload;
