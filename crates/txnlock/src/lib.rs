#![warn(missing_docs)]
//! Database lock manager and transactions for the Π-tree reproduction.
//!
//! Implements the parts of §4.1–§4.2 of Lomet & Salzberg (SIGMOD 1992) that
//! live *above* latches:
//!
//! * [`modes::LockMode`] — S/X, the IX page intention lock of a
//!   page-oriented-UNDO updater, and the **move lock** of §4.2.2
//!   (compatible with readers, conflicting with non-commutative updates).
//! * [`table::LockTable`] — named locks with FIFO queuing, conversion,
//!   waits-for deadlock detection, and a non-blocking `try_acquire` that
//!   lets tree operations obey the **No-Wait Rule** (§4.1.2).
//! * [`txn::TxnManager`] / [`txn::Txn`] — user transactions (strict 2PL,
//!   forced commits) and independent atomic actions (short 2PL lock scopes,
//!   relatively durable commits) over the same infrastructure, with commit
//!   hooks for deferred index-term postings.

pub mod modes;
pub mod table;
pub mod txn;

pub use modes::LockMode;
pub use table::{LockError, LockName, LockTable};
pub use txn::{ActiveRegistry, NoWait, PendingCommit, Txn, TxnManager};
