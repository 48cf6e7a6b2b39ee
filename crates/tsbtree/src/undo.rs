//! Logical undo for TSB version writes.
//!
//! Undo of `put`/`delete` removes the version `(key, t)` wherever structure
//! changes have taken it — the current node, or (after a time split) the
//! history chain, or (after a key split) a sibling. Time splits duplicate
//! alive-at-T versions, so undo removes **every** copy. The compensation is
//! testable and idempotent: absent copies are skipped.

use crate::node::TsbHeaderRef;
use crate::tree::TsbEngine;
use pitree_pagestore::{PageOp, StoreError, StoreResult};
use pitree_wal::ActionIdentity;

/// Logical-undo tag: payload is the composite version key `key ⧺ t`.
pub const TAG_TSB_REMOVE_VERSION: u8 = 16;

/// Run one TSB logical-undo record.
pub(crate) fn undo(tree: &TsbEngine, tag: u8, payload: &[u8]) -> StoreResult<()> {
    match tag {
        TAG_TSB_REMOVE_VERSION => remove_version(tree, payload),
        t => Err(StoreError::Corrupt(format!("unknown TSB undo tag {t}"))),
    }
}

/// Remove every copy of the version with composite key `vkey`: from the
/// current node, then down the history chain — a time split may have left
/// a copy there too. Each removal is its own system atomic action.
fn remove_version(tree: &TsbEngine, vkey: &[u8]) -> StoreResult<()> {
    let (key, _time) = vkey.split_at(vkey.len().saturating_sub(8));
    let d = tree.descend(key, 0, true, false)?;
    let mut pin = d.page;
    let mut g = d.guard.promote().into_x();
    loop {
        let hist = TsbHeaderRef::read(&g)?.hist_side();
        if g.keyed_find(vkey)?.is_ok() {
            let mut act = tree.store().txns.begin(ActionIdentity::SystemTransaction);
            act.apply(&pin, &mut g, PageOp::KeyedRemove { key: vkey.to_vec() })?;
            drop(g);
            drop(pin);
            act.commit()?;
        } else {
            drop(g);
            drop(pin);
        }
        if !hist.is_valid() {
            return Ok(());
        }
        pin = tree.store().pool.fetch(hist)?;
        g = pin.x();
    }
}
