//! Observability substrate for the Π-tree workspace.
//!
//! Every layer of the reproduction — latches, the buffer pool, the
//! write-ahead log, the lock manager, and the tree protocol itself —
//! records what it does through this crate, so that the claims of
//! Lomet & Salzberg's *Access Method Concurrency with Recovery* can be
//! checked with numbers rather than trust: intermediate states seen
//! (`tree.side_traversals`, §3), No-Wait-Rule restarts
//! (`tree.no_wait_restarts`, §4.1.2), relative durability
//! (`wal.forces` vs `action.commits`, §4.3.1), recovery pass cost
//! (`recovery.*_ns`), and so on. `OBSERVABILITY.md` at the workspace
//! root documents every exported metric.
//!
//! Like the rest of the workspace, the crate is std-only by design
//! (see DESIGN.md §5): no external dependencies, nothing to install.
//!
//! # Architecture
//!
//! * [`Registry`] — one metric namespace, typically one per assembled
//!   store. Owns counters and histograms; [`Registry::report`] renders a
//!   stable, diffable text table.
//! * [`Recorder`] — a cheap, cloneable handle onto a registry, held by
//!   every instrumented component. [`Recorder::counter`] /
//!   [`Recorder::hist`] get-or-create named instruments once at setup;
//!   the returned handles are lock-free on the hot path.
//! * [`Counter`] — a sharded, lock-free monotonic counter.
//! * [`Hist`] — a log2-bucket histogram with exact max and approximate
//!   p50/p95/p99, for latencies in nanoseconds.
//!
//! There is no event trace: no reader needed one (DESIGN.md §7).
//!
//! # Determinism contract
//!
//! Counters carry no wall-clock data, so a single-threaded run under a
//! fixed `pitree-sim` seed reports identical counters every time.
//! Histograms *do* observe wall time ([`Stopwatch`]); they are
//! aggregate-only and are excluded from the determinism contract. The
//! sim-gate test in `pitree-harness` (`obs_determinism.rs`) holds the
//! line: two runs of the same seeded workload must render a
//! byte-identical `== counters ==` section.

#![warn(missing_docs)]
#![expect(
    clippy::disallowed_types,
    reason = "the observability crate owns the wall clock behind Stopwatch and its own registry locks"
)]

mod counter;
mod hist;
mod registry;

pub use counter::Counter;
pub use hist::Hist;
pub use registry::{Recorder, Registry};

use std::time::Instant;

/// A started wall-clock timer for feeding latency histograms.
///
/// ```
/// let reg = pitree_obs::Registry::new();
/// let h = reg.recorder().hist("demo.ns");
/// let t = pitree_obs::Stopwatch::start();
/// // ... the measured region ...
/// h.record(t.elapsed_ns());
/// assert_eq!(h.count(), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`], saturated to `u64`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        let d = self.0.elapsed();
        d.as_nanos().min(u64::MAX as u128) as u64
    }
}
