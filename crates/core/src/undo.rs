//! Non-page-oriented (logical) UNDO support (§4.2, §6).
//!
//! When the recovery method supports logical undo, record updates log a
//! `(tag, payload)` and undo compensates through the tree's own operations:
//! the record is re-located by key, wherever structure changes have moved it
//! since. Compensations are **idempotent, testable** operations (delete if
//! present / insert if absent), so a crash between a compensation and its
//! CLR marker is harmless — recovery simply re-runs it.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]

use crate::engine::{Engine, Structure};
use crate::node::node_full;
use crate::store::Store;
use crate::tree::PiTree;
use pitree_pagestore::page::Page;
use pitree_pagestore::sync::Mutex;
use pitree_pagestore::{PageOp, StoreError, StoreResult};
use pitree_wal::recovery::LogicalUndoHandler;
use std::sync::Arc;

/// Undo of an insert: payload is the key; compensation deletes it if
/// present.
pub const TAG_UNDO_INSERT: u8 = 1;
/// Undo of a delete: payload is the full entry; compensation re-inserts it
/// if absent.
pub const TAG_UNDO_DELETE: u8 = 2;
/// Undo of an update: payload is the previous entry; compensation restores
/// it if the key is still present.
pub const TAG_UNDO_UPDATE: u8 = 3;

impl PiTree {
    /// Execute one logical compensation. Runs as an independent system
    /// atomic action per attempt; splits (for a re-insert into a full leaf)
    /// are ordinary independent split actions.
    pub(crate) fn compensate(&self, tag: u8, payload: &[u8]) -> StoreResult<()> {
        let key = match tag {
            TAG_UNDO_INSERT => payload,
            TAG_UNDO_DELETE | TAG_UNDO_UPDATE => Page::entry_key(payload)?,
            t => return Err(StoreError::Corrupt(format!("unknown logical undo tag {t}"))),
        };
        loop {
            let d = self.descend(key, 0, true, false)?;
            let page = d.guard.page();
            // The compensating operation, and whether the leaf must split
            // before it fits.
            let (op, needs_split) = match (tag, page.keyed_find(key)?) {
                (TAG_UNDO_INSERT, Ok(_)) => (PageOp::KeyedRemove { key: key.to_vec() }, false),
                (TAG_UNDO_DELETE, Err(_)) => {
                    let full = node_full(page, payload, self.config().max_leaf_entries);
                    (
                        PageOp::KeyedInsert {
                            bytes: payload.to_vec(),
                        },
                        full,
                    )
                }
                (TAG_UNDO_UPDATE, Ok(slot)) => {
                    // Same key, so the same prefix: only the payload moves.
                    let (old, new) = (
                        page.entry_payload_at(slot).len(),
                        Page::entry_payload(payload)?.len(),
                    );
                    let full = new.saturating_sub(old) > page.free_space();
                    (
                        PageOp::KeyedUpdate {
                            bytes: payload.to_vec(),
                        },
                        full,
                    )
                }
                _ => return Ok(()), // testable state: nothing to compensate
            };
            if needs_split {
                self.split_independent(d, key)?;
                continue; // re-descend and retry
            }
            let mut act = self
                .store()
                .txns
                .begin(pitree_wal::ActionIdentity::SystemTransaction);
            let mut g = d.guard.promote().into_x();
            act.apply(&d.page, &mut g, op)?;
            drop(g);
            drop(d.page);
            act.commit()?;
            return Ok(());
        }
    }
}

impl<S: Structure> Engine<S> {
    /// A logical-undo handler borrowing this tree, for rolling back live
    /// transactions (`Txn::abort`).
    pub fn undo_handler(&self) -> UndoHandler<'_, S> {
        UndoHandler(self)
    }
}

/// [`LogicalUndoHandler`] over a live tree.
pub struct UndoHandler<'a, S: Structure>(&'a Engine<S>);

impl<S: Structure> std::fmt::Debug for UndoHandler<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UndoHandler").finish_non_exhaustive()
    }
}

impl<S: Structure> LogicalUndoHandler for UndoHandler<'_, S> {
    fn undo(&self, tag: u8, payload: &[u8]) -> StoreResult<()> {
        S::undo(self.0, tag, payload)
    }
}

/// A handler that opens the tree lazily — needed at restart, where the redo
/// plan must be installed before the tree (whose meta record may itself need
/// redo) can be opened, yet the undo pass needs a working tree.
pub struct DeferredHandler<S: Structure> {
    store: Arc<Store>,
    tree_id: u32,
    cfg: S::Config,
    tree: Mutex<Option<Engine<S>>>,
}

impl<S: Structure> std::fmt::Debug for DeferredHandler<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeferredHandler").finish_non_exhaustive()
    }
}

impl<S: Structure> DeferredHandler<S> {
    /// Build a handler for `tree_id` over `store`.
    pub fn new(store: Arc<Store>, tree_id: u32, cfg: S::Config) -> DeferredHandler<S> {
        DeferredHandler {
            store,
            tree_id,
            cfg,
            tree: Mutex::new(None),
        }
    }
}

impl<S: Structure> LogicalUndoHandler for DeferredHandler<S> {
    fn undo(&self, tag: u8, payload: &[u8]) -> StoreResult<()> {
        let mut guard = self.tree.lock();
        let tree = match &mut *guard {
            Some(t) => t,
            slot => slot.insert(Engine::open(
                Arc::clone(&self.store),
                self.tree_id,
                self.cfg,
            )?),
        };
        S::undo(tree, tag, payload)
    }
}
