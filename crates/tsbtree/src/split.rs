//! TSB-tree structure changes: time splits, key splits and root growth —
//! the geometry the engine's independent split and posting actions run.
//!
//! Figure 1's rules, implemented literally:
//! * **time split** — a new *historic* node receives every version that
//!   started before the split time `T`, *including copies* of the versions
//!   alive at `T` (which also stay in the current node) and a copy of the
//!   old history pointer. The current node keeps only versions alive at `T`
//!   and points its history sibling at the new node.
//! * **key split** — a new *current* node receives the upper key range with
//!   all its versions, a copy of the key side pointer, **and a copy of the
//!   history sibling pointer**, making it "responsible for not merely its
//!   current key space, but for the entire history of this key space".
//!   Only key splits post index terms.

use crate::node::{split_version_key, version_key, Time, TsbHeader, TsbKind};
use crate::tree::TsbEngine;
use pitree::bound::KeyBound;
use pitree::engine::{move_entries, new_node, set_header, split_slot};
use pitree::node::IndexTerm;
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::{KeyRef, Page};
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::NoWait;

/// Number of distinct user keys among a data node's version entries.
pub(crate) fn distinct_keys(g: &Page) -> usize {
    let mut distinct = 0;
    let mut prev: Option<KeyRef<'_>> = None;
    for slot in 1..g.slot_count() {
        let (k, _) = split_version_key(g.entry_key_at(slot));
        if prev != Some(k) {
            distinct += 1;
            prev = Some(k);
        }
    }
    distinct
}

/// Time split at `T = now + 1`: all existing versions started before `T`.
pub(crate) fn time_split(
    tree: &TsbEngine,
    act: &mut NoWait<'_, '_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    hdr: &TsbHeader,
) -> StoreResult<()> {
    let t_split: Time = tree.structure().now() + 1;
    let hist_hdr = TsbHeader {
        kind: TsbKind::History,
        key_side: PageId::INVALID,
        // The new historic node contains a copy of the prior history
        // sibling pointer (Figure 1).
        t_hi: t_split,
        ..hdr.clone()
    };
    let (hist_pin, mut hg) = new_node(tree.store(), act, hist_hdr.encode())?;

    // Copy everything (all versions started before T).
    let slots = 1..g.slot_count();
    let entries: Vec<_> = slots.clone().map(|s| g.entry_at(s)).collect();
    if !entries.is_empty() {
        act.apply(&hist_pin, &mut hg, PageOp::KeyedInsertMany { entries })?;
    }
    // Remove from the current node every version that is dead at T (has a
    // successor version of the same key). The alive-at-T versions remain —
    // they now exist in both nodes, which is what makes as-of queries in
    // either rectangle self-contained.
    let dead: Vec<Vec<u8>> = slots
        .filter(|&s| {
            s + 1 < g.slot_count()
                && split_version_key(g.entry_key_at(s)).0
                    == split_version_key(g.entry_key_at(s + 1)).0
        })
        .map(|s| g.entry_key_at(s).to_vec())
        .collect();
    if !dead.is_empty() {
        act.apply(page, g, PageOp::KeyedRemoveMany { keys: dead })?;
    }
    let new_hdr = TsbHeader {
        hist_side: hist_pin.id(),
        t_lo: t_split,
        ..hdr.clone()
    };
    set_header(act, page, g, new_hdr.encode())?;
    tree.stats().splits.inc();
    Ok(())
}

/// Key split at [`split_slot`]'s choice for the pending entry — in a data
/// node, at the start of the chosen entry's user-key group. Returns the
/// split key and new node for index posting.
pub(crate) fn key_split(
    tree: &TsbEngine,
    act: &mut NoWait<'_, '_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    hdr: &TsbHeader,
    pending: &[u8],
) -> StoreResult<(Vec<u8>, PageId)> {
    let chosen = split_slot(g, pending);
    if hdr.kind != TsbKind::Current {
        let split_key = g.entry_key_at(chosen).to_vec();
        let new_pid = split_off(tree, act, page, g, hdr, chosen, split_key.clone())?;
        return Ok((split_key, new_pid));
    }
    // Find the start of the chosen entry's key group; when that entry
    // belongs to the first key group (one key dominating the node), fall
    // forward to the next group so both halves stay non-empty.
    let n = g.entry_count();
    let mut mid_key = split_version_key(g.entry_key_at(chosen)).0.to_vec();
    let mut first_slot = match g.keyed_find(&version_key(&mid_key, 0))? {
        Ok(s) | Err(s) => s,
    };
    if first_slot <= 1 {
        first_slot = (2..=n)
            .find(|s| split_version_key(g.entry_key_at(*s)).0 != mid_key.as_slice())
            .ok_or_else(|| StoreError::Corrupt("key split with one key group".into()))?;
        mid_key = split_version_key(g.entry_key_at(first_slot)).0.to_vec();
    }
    // The new current node gets copies of the key side pointer and the
    // history sibling pointer (Figure 1): it answers for the entire history
    // of its key space.
    let new_pid = split_off(tree, act, page, g, hdr, first_slot, mid_key.clone())?;
    Ok((mid_key, new_pid))
}

/// The key-dimension split both node kinds share (§3.2.1): entries from
/// `first_slot` up move to a new sibling whose space starts at `split_key`
/// and which inherits everything else — kind, time interval, both sibling
/// terms — from `hdr`; the old node's key sibling term now delegates
/// `[split_key, …)` to it.
fn split_off(
    tree: &TsbEngine,
    act: &mut NoWait<'_, '_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    hdr: &TsbHeader,
    first_slot: u16,
    split_key: Vec<u8>,
) -> StoreResult<PageId> {
    let new_hdr = TsbHeader {
        key_low: KeyBound::Key(split_key.clone()),
        ..hdr.clone()
    };
    let (new_pin, mut ng) = new_node(tree.store(), act, new_hdr.encode())?;
    let n = g.entry_count();
    move_entries(act, page, g, &new_pin, &mut ng, first_slot..=n)?;
    let old_hdr = TsbHeader {
        key_high: KeyBound::Key(split_key),
        key_side: new_pin.id(),
        ..hdr.clone()
    };
    set_header(act, page, g, old_hdr.encode())?;
    tree.stats().splits.inc();
    Ok(new_pin.id())
}

/// Grow the tree at the fixed root: contents move to n1, n1 key-splits
/// into n1/n2 to make room for the entry keyed `pending`, and both index
/// terms are posted to the root inline (§5.3).
pub(crate) fn grow_root(
    tree: &TsbEngine,
    act: &mut NoWait<'_, '_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    hdr: &TsbHeader,
    pending: &[u8],
) -> StoreResult<()> {
    let (n1_pin, mut n1g) = new_node(tree.store(), act, hdr.encode())?;
    let n = g.entry_count();
    move_entries(act, page, g, &n1_pin, &mut n1g, 1..=n)?;
    let root_hdr = TsbHeader {
        kind: TsbKind::Index,
        level: hdr.level + 1,
        ..TsbHeader::new_root_leaf()
    };
    set_header(act, page, g, root_hdr.encode())?;
    let bytes = IndexTerm::entry_for(b"", n1_pin.id());
    act.apply(page, g, PageOp::KeyedInsert { bytes })?;
    tree.stats().root_grows.inc();
    let (split_key, n2_pid) = key_split(tree, act, &n1_pin, &mut n1g, hdr, pending)?;
    let bytes = IndexTerm::entry_for(&split_key, n2_pid);
    act.apply(page, g, PageOp::KeyedInsert { bytes })?;
    Ok(())
}
