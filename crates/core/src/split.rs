//! The B-link's node split (§3.2) and root growth (§5.3 Space Test), and
//! the §4.2.1 policy for the leaf split an insert needs.
//!
//! A split follows the §3.2.1 steps exactly: allocate, partition the
//! directly-contained space, move the delegated entries, install the sibling
//! term, and *schedule* (never perform) the index-term posting for the next
//! level — posting is a separate atomic action (§5).
//!
//! Leaf splits triggered by an insert follow §4.2.1:
//! * logical UNDO — always an independent atomic action
//!   ([`crate::Engine::split_independent`]);
//! * page-oriented UNDO, transaction has not updated this leaf — an
//!   independent action run "independent of and before T", under a move
//!   lock held for the action's duration;
//! * page-oriented UNDO, transaction already updated this leaf — the split
//!   runs *inside* the transaction, the move lock is held to end of
//!   transaction, and the posting is deferred to commit (§4.2.2).

use crate::bound::KeyBound;
use crate::completion::Completion;
use crate::engine::{lock_err, move_entries, new_node, set_header, split_slot};
use crate::node::{HeaderRef, IndexTerm, NodeHeader};
use crate::traverse::{DescentTarget, SavedPath};
use crate::tree::PiTree;
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::{LockError, LockMode, NoWait, Txn};

/// What a split produced.
pub(crate) enum Split {
    /// Ordinary split: `new_pid` received the delegated upper subspace, and
    /// the split owes `post`, the posting of its index term.
    Normal { new_pid: PageId, post: Completion },
    /// The node was the root: its contents moved to `n1`, which was then
    /// split into `n1`/`n2`, and both index terms were posted to the root
    /// inline (§5.3's "pair of index terms").
    Grew { n1: PageId, n2: PageId },
}

/// The raw §3.2.1 split of a non-root node: partition at [`split_slot`]'s
/// choice for the entry keyed `pending_key`, move the delegated entries to a
/// freshly allocated sibling, install the sibling term. Returns the
/// partition key and the new node.
fn raw_split(
    tree: &PiTree,
    chain: &mut NoWait<'_, '_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    pending_key: &[u8],
) -> StoreResult<(Vec<u8>, PageId)> {
    let hdr = NodeHeader::read(g)?;
    let n = g.entry_count();
    if n < 2 {
        return Err(StoreError::Corrupt(format!(
            "cannot split node {} with {n} entries",
            page.id()
        )));
    }
    // Step 2: partition the directly-contained subspace.
    let first_moved = split_slot(g, pending_key);
    let split_key = g.entry_key_at(first_moved).to_vec();

    // Step 1: allocate space for the new node; it inherits the old sibling
    // term (§3.2.1 step 3).
    let new_hdr = NodeHeader {
        level: hdr.level,
        side: hdr.side,
        low: KeyBound::Key(split_key.clone()),
        high: hdr.high,
    };
    let (new_pin, mut ng) = new_node(tree.store(), chain, new_hdr.encode())?;
    let new_pid = new_pin.id();

    // Steps 3/4: move the delegated entries (records or index terms alike).
    move_entries(chain, page, g, &new_pin, &mut ng, first_moved..=n)?;

    // Step 5: the sibling term — side pointer plus delegation boundary.
    let old_hdr = NodeHeader {
        level: hdr.level,
        side: new_pid,
        low: hdr.low,
        high: KeyBound::Key(split_key.clone()),
    };
    set_header(chain, page, g, old_hdr.encode())?;
    tree.stats().splits.inc();
    Ok((split_key, new_pid))
}

/// Split `page` within `chain` to make room for the entry keyed
/// `pending_key`; `path` is the saved path above it. Handles the root case
/// by growing the tree ("the root does not move", §5.2.2): root contents
/// move to a new node n1, n1 is split into n1/n2, and both index terms are
/// posted to the root in the same atomic action (§5.3).
pub(crate) fn split_node(
    tree: &PiTree,
    chain: &mut NoWait<'_, '_>,
    page: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    pending_key: &[u8],
    path: &SavedPath,
) -> StoreResult<Split> {
    if page.id() != tree.root_pid() {
        let level = HeaderRef::read(g)?.level();
        let (key, new_pid) = raw_split(tree, chain, page, g, pending_key)?;
        let post = Completion::Post {
            level: level + 1,
            key,
            node: new_pid,
            path: Box::new(path.above(level)),
        };
        return Ok(Split::Normal { new_pid, post });
    }

    // ---- root growth ---------------------------------------------------------
    let hdr = NodeHeader::read(g)?;
    debug_assert!(!hdr.side.is_valid(), "the root never has a side pointer");
    let n1_hdr = NodeHeader {
        level: hdr.level,
        ..NodeHeader::new_root_leaf()
    };
    let (n1_pin, mut n1g) = new_node(tree.store(), chain, n1_hdr.encode())?;
    let n1 = n1_pin.id();

    // Move the root's contents wholesale into n1; the root rises one level
    // and indexes n1 for the whole space.
    let n = g.entry_count();
    move_entries(chain, page, g, &n1_pin, &mut n1g, 1..=n)?;
    let root_hdr = NodeHeader {
        level: hdr.level + 1,
        ..NodeHeader::new_root_leaf()
    };
    set_header(chain, page, g, root_hdr.encode())?;
    let bytes = IndexTerm::entry_for(b"", n1);
    chain.apply(page, g, PageOp::KeyedInsert { bytes })?;

    // n1 is as full as the root was: split it now and post the pair.
    let (split_key, n2) = raw_split(tree, chain, &n1_pin, &mut n1g, pending_key)?;
    let bytes = IndexTerm::entry_for(&split_key, n2);
    chain.apply(page, g, PageOp::KeyedInsert { bytes })?;
    tree.stats().root_grows.inc();
    Ok(Split::Grew { n1, n2 })
}

/// Split the leaf the blocked insert of `key` needs room in, under the
/// policy matrix of §4.2.1 (see the module docs). Consumes the descent; the
/// caller re-descends afterwards.
pub(crate) fn split_leaf_for_insert<'t>(
    tree: &'t PiTree,
    txn: &mut Txn<'_>,
    d: DescentTarget<'t>,
    key: &[u8],
) -> StoreResult<()> {
    use crate::config::UndoPolicy;
    let leaf_pid = d.page.id();
    let page_name = tree.page_lock(leaf_pid);

    let in_txn = match tree.config().undo {
        UndoPolicy::Logical => false,
        UndoPolicy::PageOriented => {
            // §4.2.1: if T "has not yet updated any record to be moved by
            // the split, the split can be performed in an action independent
            // of and before T". T's updates to this leaf are visible as an
            // IX (or stronger) page lock; a Move lock means T's own earlier
            // in-transaction split moved uncommitted records *into* this
            // leaf, which equally forces the in-transaction path. This test
            // is sound because records never migrate to a page their
            // updating transaction holds no lock on: independent moves wait
            // out all updaters (the move lock drains IX holders), and
            // in-transaction moves move-lock the receiving page.
            matches!(
                tree.store().txns.locks().holds(txn.id(), &page_name),
                Some(LockMode::IX) | Some(LockMode::X) | Some(LockMode::Move)
            )
        }
    };

    // Page-oriented UNDO needs the move lock; acquire it under the
    // triggering transaction's id so waits-for cycles stay detectable. For
    // the independent case it is released as soon as the split action
    // commits (action-duration); for the in-transaction case it is held to
    // end of transaction (§4.2.2).
    let mut took_move = false;
    if tree.config().undo == UndoPolicy::PageOriented
        && !matches!(
            tree.store().txns.locks().holds(txn.id(), &page_name),
            Some(LockMode::Move) | Some(LockMode::X)
        )
    {
        match txn.try_lock(&page_name, LockMode::Move) {
            Ok(()) => took_move = true,
            Err(LockError::WouldBlock) => {
                // No-Wait Rule: drop the latch, wait for in-flight updaters
                // of the to-be-moved records to finish, then retry the whole
                // insert (the caller loops).
                drop(d);
                tree.stats().no_wait_restarts.inc();
                txn.lock(&page_name, LockMode::Move).map_err(lock_err)?;
                if !in_txn {
                    // Action-duration only; the retry will re-take it.
                    txn.unlock(&page_name);
                }
                return Ok(());
            }
            Err(e) => return Err(lock_err(e)),
        }
    }

    if !in_txn {
        let r = tree.split_independent(d, key);
        if took_move {
            txn.unlock(&page_name); // action-duration move lock
        }
        return r;
    }

    // ---- split inside the transaction (§4.2.1 second case) ------------------
    let mut g = d.guard.promote().into_x();
    let split = split_node(tree, &mut txn.no_wait(), &d.page, &mut g, key, &d.path)?;
    tree.stats().splits_in_txn.inc();
    // Move-lock every page that received moved (uncommitted) records, held
    // to end of transaction: undo of the move must stay possible, so
    // non-commuting updates to those pages are blocked (§4.2.2), and
    // index-term postings into a move-locked node defer until T ends. The
    // pages are freshly allocated, so the locks cannot conflict.
    let lock_new = |pid: PageId| {
        // Under the relation granule the single lock already covers the new
        // pages (re-entrant no-op); per-page granule locks each.
        let r = txn.try_lock(&tree.page_lock(pid), LockMode::Move);
        debug_assert!(r.is_ok(), "fresh page cannot have conflicting holders");
    };
    match split {
        Split::Grew { n1, n2 } => {
            lock_new(n1);
            lock_new(n2);
        }
        Split::Normal { new_pid, post } => {
            lock_new(new_pid);
            // "The posting of the index term for splits cannot occur until
            // and unless T commits" (§4.2.2) — defer via commit hook.
            let q = tree.completions_arc();
            let stats = tree.stats_arc();
            txn.on_commit(move || {
                if q.push(post) {
                    stats.postings_scheduled.inc();
                }
            });
        }
    }
    // Move lock stays with the transaction until it ends.
    Ok(())
}
