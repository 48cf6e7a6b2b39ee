#![warn(missing_docs)]
//! Write-ahead logging, atomic actions, and crash recovery.
//!
//! This crate implements §4.3 of Lomet & Salzberg's "Access Method
//! Concurrency with Recovery" (SIGMOD 1992):
//!
//! * **WAL protocol** — log records describing page updates are appended
//!   before the pages reach disk; the buffer pool enforces this via the
//!   [`log::LogManager`]'s `WalFlush` hook.
//! * **Atomic actions** ([`action::AtomicAction`]) — short all-or-nothing
//!   groups of page updates with *relative durability* (§4.3.1): action
//!   commits are not forced; the next forced record carries them.
//! * **Recovery identities** (§4.3.2) — an action can be a separate
//!   transaction, a system transaction, or a nested top action; recovery
//!   treats them uniformly.
//! * **Recovery** ([`recovery::recover`]) — ARIES-style analysis / redo /
//!   undo with CLRs, supporting both page-oriented and logical UNDO (§4.2).
//! * **Instant restart** ([`instant::start_instant`]) — fuzzy checkpoints
//!   ([`recovery::take_checkpoint`]) bound the redo horizon; after analysis
//!   and undo the store opens for traffic, with redo running per page on
//!   first pin and/or in the background partitioned by buffer-pool shard
//!   ([`instant::InstantRecovery::drive`]). See `RECOVERY.md`.
//! * **The byte table** ([`table::ByteTable`]) — a log's records and bytes
//!   per record kind, redo operation and undo kind, from a scan.
//!
//! Everything here is tree-agnostic: log payloads are the physiological
//! [`pitree_pagestore::PageOp`]s, so the same recovery code serves the
//! B-link, TSB-, and hB-tree instantiations.

pub mod action;
pub mod codec;
pub mod instant;
pub mod log;
pub mod record;
pub mod recovery;
pub mod table;
#[cfg(test)]
mod testkit;

pub use action::AtomicAction;
pub use instant::{start_instant, InstantRecovery};
pub use log::{FileLogStore, LogManager, LogStore, MemLogStore};
pub use record::{ActionId, ActionIdentity, LogRecord, RecordKind, RecordRef, UndoInfo};
pub use recovery::{recover, take_checkpoint, LogicalUndoHandler, RecoveryStats};
pub use table::ByteTable;
