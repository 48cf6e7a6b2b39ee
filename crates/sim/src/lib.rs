#![warn(missing_docs)]
//! # pitree-sim — deterministic simulation kit for the Π-tree workspace
//!
//! A FoundationDB-style simulation harness: every test is a pure function of
//! a 64-bit seed, so any failure is replayable bit-for-bit. Four pieces:
//!
//! * [`rng::SimRng`] — an in-repo seeded PRNG (SplitMix64-seeded
//!   xoshiro256**), replacing the external `rand` crate everywhere in the
//!   workspace. No external dependencies, stable across platforms.
//! * [`prop`] — a miniature property-test runner with a fixed seed corpus
//!   derived from the property name. Failing cases print their seed and are
//!   replayable with `PITREE_SIM_SEED=<seed>`; `PITREE_SIM_CASES=<n>` scales
//!   the corpus.
//! * [`fault::CrashPlan`] — a [`pitree_pagestore::FaultInjector`] that fires
//!   a simulated crash at the *n*-th durable-write boundary (page write or
//!   log append). After firing, every subsequent durable write also fails:
//!   the machine is dead, the durable image is frozen.
//! * [`schedule`] — a deterministic commit-schedule rig for the
//!   group-commit WAL: scripted committer-arrival schedules whose leader
//!   parks at a gated [`schedule::CountingStore`], so group formation
//!   reproduces byte-for-byte under a fixed seed.
//! * [`crash`] and [`mod@shake`] — the two closed loops built from those parts:
//!   the workspace's one crash oracle — a committed-model script runner, a
//!   boundary sweep that kills the system at the sampled durable writes of
//!   a workload (or of a *recovery*), and a recover-and-verify that checks
//!   the survivor against a `BTreeMap` reference model, all reporting a
//!   typed [`crash::Violation`]; `pitree-check`'s durability tests, the
//!   scenario twins and the harness crash matrix call it rather than
//!   restate it — and a seeded multi-thread schedule shaker for concurrent
//!   insert/delete/search + structure-change interleavings.
//!
//! The crate sits *above* the system crates (pagestore, wal, txnlock, core)
//! as a dev-dependency of each — the `FaultInjector` trait lives down in
//! `pitree-pagestore` so the substrate can consult it without depending on
//! the kit.

pub mod crash;
pub mod fault;
pub mod prop;
pub mod rng;
pub mod schedule;
pub mod shake;

pub use crash::{crash_during_recovery, crash_recover_verify, SweepConfig, Violation, Workload};
pub use fault::CrashPlan;
pub use rng::SimRng;
pub use schedule::{gen_schedule, run_schedule, CountingStore, ScheduleOutcome};
pub use shake::{shake, ShakeConfig, ShakeReport};
