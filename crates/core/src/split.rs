//! Node splitting (§3.2) and root growth (§5.3 Space Test), as atomic
//! actions.
//!
//! A split follows the §3.2.1 steps exactly: allocate, partition the
//! directly-contained space, move the delegated entries, install the sibling
//! term, and *schedule* (never perform) the index-term posting for the next
//! level — posting is a separate atomic action (§5).
//!
//! Leaf splits triggered by an insert follow §4.2.1:
//! * logical UNDO — always an independent atomic action;
//! * page-oriented UNDO, transaction has not updated this leaf — an
//!   independent action run "independent of and before T", under a move
//!   lock held for the action's duration;
//! * page-oriented UNDO, transaction already updated this leaf — the split
//!   runs *inside* the transaction, the move lock is held to end of
//!   transaction, and the posting is deferred to commit (§4.2.2).

use crate::bound::KeyBound;
use crate::completion::Completion;
use crate::engine::{lock_err, move_entries, new_node, set_header, split_slot};
use crate::node::{IndexTerm, NodeHeader};
use crate::stats::TreeStats;
use crate::traverse::DescentTarget;
use crate::tree::PiTree;
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::{LockError, LockMode, Txn};

/// What a split produced. For a non-root split the caller receives the new
/// sibling (still X-latched); for a root split ("Grew") both new children —
/// their index terms were already posted into the root within the same
/// action, so nothing is left to schedule.
pub(crate) enum SplitCandidates<'a> {
    /// Ordinary split: `new` is the sibling that received the delegated
    /// upper subspace.
    Normal {
        /// Pin on the new node.
        new_pin: PinnedPage<'a>,
        /// X guard on the new node.
        new_guard: XGuard<'a, Page>,
        /// The partition key: the new node's low bound.
        split_key: Vec<u8>,
        /// The new node's id.
        new_pid: PageId,
    },
    /// The node was the root: its contents moved to `n1`, which was then
    /// split into `n1`/`n2`, and both index terms were posted to the root
    /// inline (§5.3's "pair of index terms").
    Grew {
        /// The left child (old contents, lower subspace).
        n1: (PinnedPage<'a>, XGuard<'a, Page>),
        /// The right child (delegated upper subspace).
        n2: (PinnedPage<'a>, XGuard<'a, Page>),
        /// The partition key between them.
        split_key: Vec<u8>,
    },
}

/// The raw §3.2.1 split of a non-root node: partition at [`split_slot`]'s
/// choice for the entry keyed `pending_key`, move the delegated entries to a
/// freshly allocated sibling, install the sibling term. Returns the new node
/// (X-latched) and the partition key.
fn raw_split<'a>(
    tree: &'a PiTree,
    chain: &mut Txn<'_>,
    page: &PinnedPage<'a>,
    g: &mut XGuard<'a, Page>,
    pending_key: &[u8],
) -> StoreResult<(PinnedPage<'a>, XGuard<'a, Page>, Vec<u8>, PageId)> {
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
    TreeStats::bump(&tree.stats().splits);
    tree.recorder()
        .event(pitree_obs::EventKind::SmoSplit, page.id().0, new_pid.0);
    Ok((new_pin, ng, split_key, new_pid))
}

/// Split `page` within `chain` to make room for the entry keyed
/// `pending_key`. Handles the root case by growing the tree
/// ("the root does not move", §5.2.2): root contents move to a new node n1,
/// n1 is split into n1/n2, and both index terms are posted to the root in
/// the same atomic action (§5.3).
pub(crate) fn split_node<'a>(
    tree: &'a PiTree,
    chain: &mut Txn<'_>,
    page: &PinnedPage<'a>,
    g: &mut XGuard<'a, Page>,
    pending_key: &[u8],
) -> StoreResult<SplitCandidates<'a>> {
    if page.id() != tree.root_pid() {
        let (new_pin, new_guard, split_key, new_pid) =
            raw_split(tree, chain, page, g, pending_key)?;
        return Ok(SplitCandidates::Normal {
            new_pin,
            new_guard,
            split_key,
            new_pid,
        });
    }

    // ---- root growth ---------------------------------------------------------
    let hdr = NodeHeader::read(g)?;
    debug_assert!(!hdr.side.is_valid(), "the root never has a side pointer");
    let n1_hdr = NodeHeader {
        level: hdr.level,
        ..NodeHeader::new_root_leaf()
    };
    let (n1_pin, mut n1g) = new_node(tree.store(), chain, n1_hdr.encode())?;
    let n1_pid = n1_pin.id();

    // Move the root's contents wholesale into n1; the root rises one level
    // and indexes n1 for the whole space.
    let n = g.entry_count();
    move_entries(chain, page, g, &n1_pin, &mut n1g, 1..=n)?;
    let root_hdr = NodeHeader {
        level: hdr.level + 1,
        ..NodeHeader::new_root_leaf()
    };
    set_header(chain, page, g, root_hdr.encode())?;
    let bytes = IndexTerm::entry_for(b"", n1_pid);
    chain.apply(page, g, PageOp::KeyedInsert { bytes })?;

    // n1 is as full as the root was: split it now and post the pair.
    let (n2_pin, n2g, split_key, n2_pid) = raw_split(tree, chain, &n1_pin, &mut n1g, pending_key)?;
    let bytes = IndexTerm::entry_for(&split_key, n2_pid);
    chain.apply(page, g, PageOp::KeyedInsert { bytes })?;
    TreeStats::bump(&tree.stats().root_grows);
    tree.recorder()
        .event(pitree_obs::EventKind::SmoRootGrow, page.id().0, 0);
    Ok(SplitCandidates::Grew {
        n1: (n1_pin, n1g),
        n2: (n2_pin, n2g),
        split_key,
    })
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
    let leaf_level = d.level;
    let path = d.path.clone();

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
                TreeStats::bump(&tree.stats().no_wait_restarts);
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
        let r = independent_split(tree, d, key);
        if took_move {
            txn.unlock(&page_name); // action-duration move lock
        }
        return r;
    }

    let mut g = d.guard.promote().into_x();
    {
        // ---- split inside the transaction (§4.2.1 second case) --------------
        let cands = split_node(tree, txn, &d.page, &mut g, key)?;
        TreeStats::bump(&tree.stats().splits_in_txn);
        // Move-lock every page that received moved (uncommitted) records,
        // held to end of transaction: undo of the move must stay possible,
        // so non-commuting updates to those pages are blocked (§4.2.2), and
        // index-term postings into a move-locked node defer until T ends.
        // The pages are freshly allocated, so the locks cannot conflict.
        let lock_new = |pid: PageId| {
            // Under the relation granule the single lock already covers the
            // new pages (re-entrant no-op); per-page granule locks each.
            let r = txn.try_lock(&tree.page_lock(pid), LockMode::Move);
            debug_assert!(r.is_ok(), "fresh page cannot have conflicting holders");
        };
        match &cands {
            SplitCandidates::Normal { new_pid, .. } => lock_new(*new_pid),
            SplitCandidates::Grew { n1, n2, .. } => {
                lock_new(n1.0.id());
                lock_new(n2.0.id());
            }
        }
        if let SplitCandidates::Normal {
            split_key, new_pid, ..
        } = cands
        {
            // "The posting of the index term for splits cannot occur until
            // and unless T commits" (§4.2.2) — defer via commit hook.
            let q = tree.completions_arc();
            let stats = tree.stats_arc();
            let path = Box::new(path.above(leaf_level));
            txn.on_commit(move || {
                if q.push(Completion::Post {
                    level: leaf_level + 1,
                    key: split_key,
                    node: new_pid,
                    path,
                }) {
                    TreeStats::bump(&stats.postings_scheduled);
                }
            });
        }
        // Move lock stays with the transaction until it ends.
        Ok(())
    }
}

/// Split the node in `d`, to make room for the entry keyed `pending_key`, as
/// an independent atomic action: the common case for every index node, for
/// logical UNDO, and for §4.2.1's "independent of and before T" leaf splits.
/// Consumes the descent.
pub(crate) fn independent_split(
    tree: &PiTree,
    d: DescentTarget<'_>,
    pending_key: &[u8],
) -> StoreResult<()> {
    let level = d.level;
    let path = d.path.clone();
    let mut g = d.guard.promote().into_x();
    let mut act = tree.store().txns.begin(tree.config().smo_identity);
    let cands = match split_node(tree, &mut act, &d.page, &mut g, pending_key) {
        Ok(c) => c,
        Err(e) => {
            act.abort(None)?;
            return Err(e);
        }
    };
    TreeStats::bump(&tree.stats().splits_independent);
    let schedule = match &cands {
        SplitCandidates::Normal {
            split_key, new_pid, ..
        } => Some((split_key.clone(), *new_pid)),
        SplitCandidates::Grew { .. } => None,
    };
    drop(cands);
    drop(g);
    drop(d.page);
    act.commit()?;
    if let Some((split_key, new_pid)) = schedule {
        tree.schedule(Completion::Post {
            level: level + 1,
            key: split_key,
            node: new_pid,
            path: Box::new(path.above(level)),
        });
    }
    Ok(())
}
