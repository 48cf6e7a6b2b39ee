#![warn(missing_docs)]
//! Experiment harness: workload generators, index adapters, and the
//! cross-crate suites that gate the paper's claims (`tests/paper_claims.rs`
//! and the figure and crash tests it points to; `EXPERIMENTS.md` maps each
//! claim to its test).
//!
//! The harness also hosts the observability demo ([`obsdemo`]) and its
//! `obstop` binary, which runs a deterministic seeded workload across
//! every instrumented layer and prints the unified `pitree-obs` report
//! (see `OBSERVABILITY.md` at the workspace root). The [`adapters`]
//! additionally record whole-operation latency histograms
//! (`op.insert_ns` / `op.get_ns` / `op.delete_ns`) into the store's
//! registry.
//!
//! [`footprint`] is experiment E1's measurement, gated by
//! `tests/paper_claims.rs`.
//!
//! [`scenario`] holds the scenario matrix's generators, which `benchmark/`
//! draws its op streams from; `tests/scenario_twins.rs` gates every
//! scenario with its deterministic oracle twins. Timings live in
//! `benchmark/` alone.

pub mod adapters;
pub mod footprint;
pub mod obsdemo;
pub mod scenario;
pub mod workload;

pub use adapters::PiTreeIndex;
pub use scenario::{matrix, Access, EngineSet, KeyStream, Mix, MixOp, ScenarioSpec};
pub use workload::{KeyDist, Workload};
