//! Logical undo for hB-tree record writes: compensations re-locate the
//! point through the fragment graph, so records moved by splits are found
//! wherever they now live.

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

use crate::geometry::key_point;
use crate::node::HbView;
use crate::tree::{data_node_full, HbEngine};
use pitree_pagestore::page::{KeyRef, Page};
use pitree_pagestore::{PageOp, StoreError, StoreResult};
use pitree_wal::ActionIdentity;

/// Undo of an insert: payload is the point key; remove if present.
pub const TAG_HB_REMOVE: u8 = 32;
/// Undo of an update/delete: payload is the previous entry; restore it.
pub const TAG_HB_RESTORE: u8 = 33;

/// Run one hB logical-undo record as a system atomic action (testable and
/// idempotent: an already-compensated state is left alone).
pub(crate) fn undo(tree: &HbEngine, tag: u8, payload: &[u8]) -> StoreResult<()> {
    let key = match tag {
        TAG_HB_REMOVE => payload,
        TAG_HB_RESTORE => Page::entry_key(payload)?,
        t => return Err(StoreError::Corrupt(format!("unknown hB undo tag {t}"))),
    };
    let p = key_point(KeyRef::new(key))?;
    loop {
        let d = tree.descend(&p, 0, true, false)?;
        let present = d.guard.page().keyed_find(key)?.is_ok();
        let op = match (tag, present) {
            (TAG_HB_REMOVE, true) => PageOp::KeyedRemove { key: key.to_vec() },
            (TAG_HB_REMOVE, false) => return Ok(()), // nothing to compensate
            (_, true) => PageOp::KeyedUpdate {
                bytes: payload.to_vec(),
            },
            (_, false) => {
                // Re-insert; splitting first if the node is packed.
                if data_node_full(tree, d.guard.page(), payload) {
                    tree.split_independent(d, &p)?;
                    continue;
                }
                PageOp::KeyedInsert {
                    bytes: payload.to_vec(),
                }
            }
        };
        // The descent must have landed on the node whose space holds the
        // point; a node that does not is damage to report, not to write.
        if !HbView::read(d.guard.page())?.rect().contains(&p) {
            return Err(StoreError::Corrupt(format!(
                "hB undo: page {} does not contain the record's point",
                d.page.id()
            )));
        }
        let mut act = tree.store().txns.begin(ActionIdentity::SystemTransaction);
        let mut g = d.guard.promote().into_x();
        act.apply(&d.page, &mut g, op)?;
        drop(g);
        drop(d.page);
        act.commit()?;
        return Ok(());
    }
}
