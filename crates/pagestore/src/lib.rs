#![warn(missing_docs)]
//! Page storage substrate for the Π-tree reproduction.
//!
//! This crate provides everything below the write-ahead log:
//!
//! * [`page`] — fixed-size slotted pages with a page LSN that doubles as the
//!   *state identifier* of §5.2 of the paper (commercial systems use LSNs for
//!   state ids, as the paper notes).
//! * [`pageops`] — the physiological page-operation vocabulary. Every tree
//!   structure change and record update in the repository is expressed as a
//!   sequence of these operations, which is what makes recovery tree-agnostic.
//! * [`latch`] — S / U / X latches with U→X promotion (§4.1.1). Latches are
//!   semaphores whose usage pattern guarantees absence of deadlock; they never
//!   interact with the database lock manager.
//! * [`disk`] — durable storage with an explicit volatile/durable split and a
//!   `crash()` operation used by the recovery test harness.
//! * [`buffer`] — a buffer pool of latched frames enforcing the WAL protocol
//!   (a dirty page may not reach disk before the log covering it).
//! * [`space`] — bitmap-page space management. Allocation state lives in
//!   ordinary pages so that recovery replays it with no special cases, and
//!   both de-allocation policies of §5.2.2 are supported.

pub mod buffer;
pub mod disk;
pub mod error;
pub mod fault;
pub mod ids;
pub mod latch;
pub mod page;
pub mod pageops;
pub mod space;
pub mod sync;

pub use buffer::{page_shard, BufferPool, PinnedPage, RedoHook};
pub use disk::{DiskManager, MemDisk};
pub use error::{StoreError, StoreResult};
pub use fault::{FaultInjector, FaultSite};
pub use ids::{Lsn, PageId};
pub use latch::{Latch, SGuard, UGuard, XGuard};
pub use page::{KeyRef, Page, PageType, PAGE_SIZE};
pub use pageops::PageOp;
pub use space::SpaceMap;
