//! `pitree-check`: the workspace's correctness tooling.
//!
//! Three oracles, one sequential model:
//!
//! 1. **Differential** ([`differential`]) — drive the Π-tree and the three
//!    `baselines` protocols with identical seeded single-threaded workloads
//!    and demand op-for-op agreement with the [`model`] spec: every created
//!    and existed flag, every read and every scan window.
//! 2. **Linearizability** ([`linear`]) — concurrent harness threads record
//!    invoke/return events through the `pitree-obs` logical-clock rings
//!    ([`history`]); a Wing–Gong search with per-key partition pruning
//!    decides whether some linear order of the history is a legal run of
//!    the model. This is the executable form of the paper's claim that
//!    searchers traversing *intermediate* SMO states still see exactly the
//!    committed record for every key (§1, §3.3).
//! 3. **Durability** ([`durability`]) — crash–recover sweeps over every
//!    sampled durable-write boundary, verifying committed-present /
//!    uncommitted-absent / well-formed after recovery (§4.3). The sweep is
//!    the workspace's one crash oracle, [`pitree_sim::crash`]; this crate
//!    adds the seeded-violation fixtures, the early-lock-release chain
//!    sweep, and a delta-debugging [`shrink`]er that minimizes a failing
//!    script by re-driving candidates through the same oracle.
//!
//! Each layer must also *reject* a deliberately broken implementation —
//! the fixtures in [`index`], [`durability::tail_drop_violation`],
//! [`durability::ack_before_durable_violation`] (a commit acknowledged at
//! publish, before the durable watermark covered it) and
//! [`durability::stale_read_violation`] (a read the committed model
//! contradicts) —
//! so the tests prove the oracles have teeth before trusting their green
//! light. `tests/check_props.rs` is the gate: every layer over a fixed
//! seed corpus, with pinned durability totals (`scripts/verify.sh` runs
//! it). A failure panics with its seed; calling the same oracle function
//! with that seed replays it.

#![warn(missing_docs)]

pub mod differential;
pub mod durability;
pub mod history;
pub mod index;
pub mod linear;
pub mod model;
pub mod shrink;

pub use differential::{
    differential_twin, run_differential, DiffConfig, DiffReport, DiffViolation,
};
pub use durability::{ack_before_durable_violation, elr_chain_violation};
pub use history::{Call, HistoryLog, OpKind, OpRet};
pub use index::{ModelIndex, PiCheckIndex, PiElrIndex};
pub use linear::{check_history, run_linearizability, LinConfig, LinReport, LinViolation};
pub use model::Model;

pub use pitree_baselines::ConcurrentIndex;

use pitree::PiTreeConfig;
use pitree_baselines::{Baseline, Protocol};

/// Every index the differential layer compares against the model: the
/// Π-tree (small nodes, so the workload crosses split/post/consolidate
/// paths) and the three baseline protocols over the same small nodes.
pub fn all_indexes() -> Vec<Box<dyn ConcurrentIndex>> {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    let baseline = |p| Box::new(Baseline::new(128, p, cfg)) as Box<dyn ConcurrentIndex>;
    vec![
        Box::new(PiCheckIndex::new(128, cfg)),
        baseline(Protocol::LockCoupling),
        baseline(Protocol::Optimistic),
        baseline(Protocol::SerialSmo),
    ]
}

/// The concurrent targets the linearizability layer drives: the Π-tree
/// with per-op forced commits, the same tree under early lock release
/// (commits published before they are durable, acks at the watermark),
/// and the lock-coupling baseline.
pub fn lin_targets() -> Vec<Box<dyn ConcurrentIndex>> {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    vec![
        Box::new(PiCheckIndex::new(256, cfg)),
        Box::new(PiElrIndex::new(256, cfg)),
        Box::new(Baseline::new(256, Protocol::LockCoupling, cfg)),
    ]
}
