//! TSB-tree structure changes: time splits, key splits, index posting —
//! each an independent atomic action, per the Π-tree protocol.
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
use pitree::completion::Completion;
use pitree::engine::{move_entries, new_node, set_header, split_slot};
use pitree::node::{node_full, IndexTerm};
use pitree::stats::TreeStats;
use pitree::traverse::{DescentTarget, SavedPath};
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::Txn;

/// Number of distinct user keys among a data node's version entries.
fn distinct_keys(g: &Page) -> usize {
    let mut distinct = 0;
    let mut prev: Option<&[u8]> = None;
    for slot in 1..g.slot_count() {
        let (k, _) = split_version_key(g.entry_key_at(slot));
        if prev != Some(k) {
            distinct += 1;
            prev = Some(k);
        }
    }
    distinct
}

/// Split a full *current data node*, choosing between a time split and a key
/// split (TSB heuristic: mostly-historical content → time split), to make
/// room for the version keyed `pending_vkey`. One independent atomic action;
/// the caller retries its insert afterwards.
pub(crate) fn split_data_node(
    tree: &TsbEngine,
    d: DescentTarget<'_>,
    pending_vkey: &[u8],
) -> StoreResult<()> {
    let hdr = TsbHeader::read(d.guard.page())?;
    debug_assert_eq!(hdr.kind, TsbKind::Current);
    let mut g = d.guard.promote().into_x();

    // Mostly historical versions → time split; so does a node full of
    // versions of one key (a key split needs two distinct keys).
    let n = g.entry_count() as usize;
    let distinct = distinct_keys(&g);
    let by_time = (distinct * 2 <= n && distinct < n) || distinct < 2;

    let mut act = tree.store().txns.begin(tree.config().smo_identity);
    let posting = if by_time {
        time_split(tree, &mut act, &d.page, &mut g, &hdr)?;
        None
    } else if d.page.id() == tree.root_pid() {
        // Root growth posts both index terms inline.
        grow_root(tree, &mut act, &d.page, &mut g, pending_vkey)?;
        None
    } else {
        Some(key_split(
            tree,
            &mut act,
            &d.page,
            &mut g,
            &hdr,
            pending_vkey,
        )?)
    };
    drop(g);
    drop(d.page);
    act.commit()?;
    TreeStats::bump(&tree.stats().splits_independent);
    if let Some((split_key, new_pid)) = posting {
        tree.schedule(Completion::Post {
            level: 1,
            key: split_key,
            node: new_pid,
            path: Box::new(d.path.above(0)),
        });
    }
    Ok(())
}

/// Time split at `T = now + 1`: all existing versions started before `T`.
fn time_split(
    tree: &TsbEngine,
    act: &mut Txn<'_>,
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
    let all: Vec<Vec<u8>> = (1..g.slot_count())
        .map(|s| g.get(s).map(|e| e.to_vec()))
        .collect::<StoreResult<_>>()?;
    for e in &all {
        act.apply(&hist_pin, &mut hg, PageOp::KeyedInsert { bytes: e.clone() })?;
    }
    // Remove from the current node every version that is dead at T (has a
    // successor version of the same key). The alive-at-T versions remain —
    // they now exist in both nodes, which is what makes as-of queries in
    // either rectangle self-contained.
    for w in all.windows(2) {
        let (k0, _) = split_version_key(Page::entry_key(&w[0]));
        let (k1, _) = split_version_key(Page::entry_key(&w[1]));
        if k0 == k1 {
            let key = Page::entry_key(&w[0]).to_vec();
            act.apply(page, g, PageOp::KeyedRemove { key })?;
        }
    }
    let new_hdr = TsbHeader {
        hist_side: hist_pin.id(),
        t_lo: t_split,
        ..hdr.clone()
    };
    set_header(act, page, g, new_hdr.encode())?;
    TreeStats::bump(&tree.stats().splits);
    Ok(())
}

/// Key split of a non-root data node at the user-key boundary at or before
/// [`split_slot`]'s choice for the pending version. Returns the split key
/// and new node for index posting.
fn key_split(
    tree: &TsbEngine,
    act: &mut Txn<'_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    hdr: &TsbHeader,
    pending_vkey: &[u8],
) -> StoreResult<(Vec<u8>, PageId)> {
    let n = g.entry_count();
    // Find the start of the chosen entry's key group; when that entry
    // belongs to the first key group (one key dominating the node), fall
    // forward to the next group so both halves stay non-empty.
    let chosen = split_slot(g, pending_vkey);
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

/// Split a full *index node* to make room for the term keyed `pending_key`
/// (plain B-link key split).
fn index_split(
    tree: &TsbEngine,
    act: &mut Txn<'_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    pending_key: &[u8],
) -> StoreResult<(Vec<u8>, PageId)> {
    let hdr = TsbHeader::read(g)?;
    let mid = split_slot(g, pending_key);
    let split_key = g.entry_key_at(mid).to_vec();
    let new_pid = split_off(tree, act, page, g, &hdr, mid, split_key.clone())?;
    Ok((split_key, new_pid))
}

/// The key-dimension split both node kinds share (§3.2.1): entries from
/// `first_slot` up move to a new sibling whose space starts at `split_key`
/// and which inherits everything else — kind, time interval, both sibling
/// terms — from `hdr`; the old node's key sibling term now delegates
/// `[split_key, …)` to it.
fn split_off(
    tree: &TsbEngine,
    act: &mut Txn<'_>,
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
    TreeStats::bump(&tree.stats().splits);
    Ok(new_pin.id())
}

/// Grow the tree at the fixed root: contents move to n1, n1 splits into
/// n1/n2 (by key — for a data root, at a user-key boundary) to make room
/// for the entry keyed `pending_key`, and both index terms are posted to the
/// root inline.
fn grow_root(
    tree: &TsbEngine,
    act: &mut Txn<'_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    pending_key: &[u8],
) -> StoreResult<()> {
    let hdr = TsbHeader::read(g)?;
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
    TreeStats::bump(&tree.stats().root_grows);
    // Split n1 and post the pair (§5.3). A data node holding a single key
    // group cannot key-split: it time-splits instead, and the root keeps a
    // single child, which is fine.
    let (split_key, n2_pid) = if hdr.kind != TsbKind::Current {
        index_split(tree, act, &n1_pin, &mut n1g, pending_key)?
    } else if distinct_keys(&n1g) < 2 {
        return time_split(tree, act, &n1_pin, &mut n1g, &hdr);
    } else {
        key_split(tree, act, &n1_pin, &mut n1g, &hdr, pending_key)?
    };
    let bytes = IndexTerm::entry_for(&split_key, n2_pid);
    act.apply(page, g, PageOp::KeyedInsert { bytes })?;
    Ok(())
}

/// The completing index-term posting action for TSB key splits — the §5.3
/// steps under the CNS invariant (remembered parents need no verification,
/// but the posting is still testable and idempotent).
pub(crate) fn post_index_term(
    tree: &TsbEngine,
    level: u8,
    key: &[u8],
    node: PageId,
) -> StoreResult<()> {
    let stats = tree.stats();
    let mut act = tree.store().txns.begin(tree.config().smo_identity);
    let d = tree.descend(key, level, true, false)?;
    // Verify: already posted?
    if d.guard.page().keyed_find(key)?.is_ok() {
        TreeStats::bump(&stats.postings_noop);
        act.commit()?;
        return Ok(());
    }
    let mut cur_pin = d.page;
    let mut cur_guard = d.guard.promote().into_x();
    let term = IndexTerm::entry_for(key, node);
    while node_full(&cur_guard, term.len(), tree.config().max_index_entries) {
        if cur_pin.id() == tree.root_pid() {
            grow_root(tree, &mut act, &cur_pin, &mut cur_guard, key)?;
            // Re-descend within the grown root: route to the child covering
            // `key` and continue the space test there.
            let slot = cur_guard.keyed_floor(key)?.ok_or_else(|| {
                StoreError::Corrupt("grown TSB root does not route the posted key".into())
            })?;
            let pin = tree
                .store()
                .pool
                .fetch(IndexTerm::child_at(&cur_guard, slot)?)?;
            cur_guard = pin.x();
            cur_pin = pin;
            continue;
        }
        let cur_level = TsbHeader::read(&cur_guard)?.level;
        let (split_key, new_pid) = index_split(tree, &mut act, &cur_pin, &mut cur_guard, key)?;
        tree.schedule(Completion::Post {
            level: cur_level + 1,
            key: split_key.clone(),
            node: new_pid,
            path: Box::new(SavedPath::default()),
        });
        if key >= split_key.as_slice() {
            let pin = tree.store().pool.fetch(new_pid)?;
            cur_guard = pin.x();
            cur_pin = pin;
        }
    }
    act.apply(
        &cur_pin,
        &mut cur_guard,
        PageOp::KeyedInsert { bytes: term },
    )?;
    drop(cur_guard);
    drop(cur_pin);
    act.commit()?;
    TreeStats::bump(&stats.postings_done);
    Ok(())
}
