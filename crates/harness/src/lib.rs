#![warn(missing_docs)]
//! Experiment harness: the key generator ([`workload`]), the forced
//! autocommit helper ([`adapters::commit`]), and the cross-crate suites
//! that gate the paper's claims (`tests/paper_claims.rs` and the figure and
//! crash tests it points to; `EXPERIMENTS.md` maps each claim to its test).
//! The Π-tree's [`ConcurrentIndex`](pitree_baselines::ConcurrentIndex)
//! adapter is `pitree-check`'s [`PiCheckIndex`](pitree_check::PiCheckIndex).
//!
//! The harness also hosts the observability demo ([`obsdemo`]) and its
//! `obstop` binary, which runs a deterministic seeded workload across
//! every instrumented layer and prints the unified `pitree-obs` report
//! (see `OBSERVABILITY.md` at the workspace root).
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

pub use scenario::{matrix, EngineSet, Mix, MixOp, ScenarioSpec};
pub use workload::{Access, KeyStream};
