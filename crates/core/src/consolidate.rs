//! Node consolidation (§3.3, §5) as a single atomic action.
//!
//! "We always move the node contents from contained node to containing
//! node. Then the index term for the contained node is deleted and the
//! contained node is de-allocated." Both the container and the contained
//! node must be referenced by index terms in the same parent, and the
//! contained node must not be multi-parent — conditions that keep the
//! change a two-level, single-parent affair.
//!
//! Consolidation is always an *independent* atomic action; with
//! page-oriented UNDO its record moves at the leaf level need move locks,
//! "two phased but only persist\[ing\] for the duration of this action"
//! (§4.2.1). The action is testable: every precondition is re-verified under
//! latches, and a stale schedule simply terminates.

use crate::completion::Completion;
use crate::config::{ConsolidationPolicy, DeallocPolicy, UndoPolicy};
use crate::engine::set_header;
use crate::node::{utilization, Guarded, IndexTerm, NodeHeader};
use crate::tree::PiTree;
use pitree_pagestore::page::{PageType, FLAG_FREED};
use pitree_pagestore::{PageOp, StoreResult};
use pitree_txnlock::{LockError, LockMode, NoWait};

/// How a consolidation attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsolidateOutcome {
    /// Contents moved, index term deleted, node de-allocated.
    Done,
    /// The testable-state checks found nothing to do (already consolidated,
    /// node refilled, or would overflow the container).
    NotNeeded,
    /// Structural preconditions fail (first child of its parent, chain
    /// mismatch, or a multi-parent contained node).
    CannotMerge,
    /// Move locks were unavailable without waiting; the action was requeued
    /// (No-Wait Rule — completions never block while holding latches).
    MoveDeferred,
}

/// Try to consolidate the node at `level` whose low key is `key` into its
/// containing node.
pub fn consolidate(tree: &PiTree, level: u8, key: &[u8]) -> StoreResult<ConsolidateOutcome> {
    let ConsolidationPolicy::Enabled { dealloc } = tree.config().consolidation else {
        return Ok(ConsolidateOutcome::NotNeeded);
    };
    let mut act = tree.store().txns.begin(tree.config().smo_identity);
    let (outcome, next) = merge(tree, &mut act.no_wait(), level, key, dealloc)?;
    act.commit()?;
    if let Some(next) = next {
        tree.completions().push(next);
    }
    Ok(outcome)
}

/// The consolidation action's body: every check and move, under latches it
/// releases before returning. Returns how it ended and the completion it
/// owes (the requeued merge, or the parent's), pushed once it commits.
fn merge(
    tree: &PiTree,
    act: &mut NoWait<'_, '_>,
    level: u8,
    key: &[u8],
    dealloc: DeallocPolicy,
) -> StoreResult<(ConsolidateOutcome, Option<Completion>)> {
    let stats = tree.stats();
    let pool = &tree.store().pool;

    // The root has no parent and is never consolidated away.
    let root_level = {
        let r = pool.fetch(tree.root_pid())?;
        let g = r.s();
        NodeHeader::read(&g)?.level
    };
    if level >= root_level {
        return Ok((ConsolidateOutcome::NotNeeded, None));
    }

    // Locate the (single) parent of the contained node.
    let d = tree.descend(key, level + 1, true, false)?;
    let parent_pin = d.page;
    let parent_guard = d.guard;

    // Testable state: the contained node's term must still be present.
    let slot = match parent_guard.page().keyed_find(key)? {
        Ok(s) => s,
        Err(_) => {
            stats.consolidations_noop.inc();
            return Ok((ConsolidateOutcome::NotNeeded, None));
        }
    };
    let n_term = IndexTerm::read(parent_guard.page(), slot)?;
    if n_term.multi_parent {
        // "the contained node must only be referenced by this parent" —
        // clipped terms mark multi-parent nodes, which we refuse (§3.3).
        return Ok((ConsolidateOutcome::CannotMerge, None));
    }
    if slot == 1 {
        // First term: the container lives under a different parent; both
        // must be children of the same parent node (§3.3).
        return Ok((ConsolidateOutcome::CannotMerge, None));
    }
    let c_term = IndexTerm::read(parent_guard.page(), slot - 1)?;

    // Promote the parent before touching children: promotion must not be
    // requested while holding latches on later-ordered resources (§4.1.1).
    let mut pg = match parent_guard {
        Guarded::U(u) => u.promote(),
        Guarded::X(x) => x,
        Guarded::S(_) => unreachable!("consolidate descends with U at target"),
    };
    stats.upper_exclusive.inc();
    if level > 0 {
        stats.upper_exclusive.add(2); // container + contained
    }

    // Latch container then contained ("containing nodes prior to the
    // contained nodes", §4.1.1).
    let c_pin = pool.fetch(c_term.child)?;
    let mut cg = c_pin.x();
    let c_hdr = NodeHeader::read(&cg)?;
    if c_hdr.side != n_term.child {
        // An unposted sibling sits between container and contained; merging
        // across it would strand the chain.
        return Ok((ConsolidateOutcome::CannotMerge, None));
    }
    let n_pin = pool.fetch(n_term.child)?;
    let mut ng = n_pin.x();
    let n_hdr = NodeHeader::read(&ng)?;

    // Testable state: still under-utilized, and the move must fit.
    let max = if level == 0 {
        tree.config().max_leaf_entries
    } else {
        tree.config().max_index_entries
    };
    let still_sparse = utilization(&ng, max) < tree.config().min_utilization
        || utilization(&cg, max) < tree.config().min_utilization;
    // The move fits if the keyed inserts it will log succeed on a copy of
    // the container: the page's own fit test, re-encoding included.
    let entries: Vec<Vec<u8>> = (1..ng.slot_count()).map(|s| ng.entry_at(s)).collect();
    let fits = still_sparse && (cg.entry_count() + ng.entry_count()) as usize <= max && {
        let mut trial = (*cg).clone();
        entries.iter().all(|e| trial.keyed_insert(e).is_ok())
    };
    if !fits {
        stats.consolidations_noop.inc();
        return Ok((ConsolidateOutcome::NotNeeded, None));
    }

    // Move locks for data-node consolidation under page-oriented UNDO
    // (§4.2.1) — try-only: a completing action never waits for database
    // locks while latched; on conflict it is requeued.
    if level == 0 && tree.config().undo == UndoPolicy::PageOriented {
        let c_name = tree.page_lock(c_pin.id());
        let n_name = tree.page_lock(n_pin.id());
        let got = act
            .try_lock(&c_name, LockMode::Move)
            .and_then(|_| act.try_lock(&n_name, LockMode::Move));
        match got {
            Ok(()) => {}
            Err(LockError::WouldBlock) => {
                // Requeued once the empty action commits and its locks go.
                let again = Completion::Consolidate {
                    level,
                    key: key.to_vec(),
                };
                return Ok((ConsolidateOutcome::MoveDeferred, Some(again)));
            }
            Err(e) => return Err(crate::engine::lock_err(e)),
        }
    }

    // ---- perform the merge (one atomic action, two levels: §5) ---------------
    if !entries.is_empty() {
        act.apply(&c_pin, &mut cg, PageOp::KeyedInsertMany { entries })?;
    }
    let merged_hdr = NodeHeader {
        level: c_hdr.level,
        side: n_hdr.side,
        low: c_hdr.low.clone(),
        high: n_hdr.high.clone(),
    };
    set_header(act, &c_pin, &mut cg, merged_hdr.encode())?;
    // Delete the contained node's index term.
    act.apply(
        &parent_pin,
        &mut pg,
        PageOp::KeyedRemove { key: key.to_vec() },
    )?;
    // De-allocate the contained node, per the configured policy (§5.2.2).
    match dealloc {
        DeallocPolicy::IsAnUpdate => {
            // The freed page's state identifier changes and a tombstone is
            // left, at the cost of a log record.
            act.apply(&n_pin, &mut ng, PageOp::Format { ty: PageType::Free })?;
            act.apply(&n_pin, &mut ng, PageOp::SetFlags { flags: FLAG_FREED })?;
        }
        DeallocPolicy::NotAnUpdate => {
            // The node's content and state identifier stay untouched; only
            // the space map learns of the de-allocation.
        }
    }
    {
        let mut alloc = tree.store().space.lock_alloc();
        let (bm_pid, bit) = tree.store().space.locate(n_pin.id());
        let bm = pool.fetch(bm_pid)?;
        let mut bmg = bm.x();
        act.apply(&bm, &mut bmg, PageOp::ClearBit { bit })?;
        alloc.note_freed(n_pin.id());
    }

    // Escalation check before releasing the parent: consolidating index
    // terms can make the parent itself sparse (§5: "Consolidation of index
    // terms can lead to further node consolidation").
    let parent_sparse =
        utilization(&pg, tree.config().max_index_entries) < tree.config().min_utilization;
    let parent_low = NodeHeader::read(&pg)?.low.as_entry_key().to_vec();
    let parent_level = level + 1;

    stats.consolidations.inc();
    let next = (parent_sparse && parent_level < root_level).then_some(Completion::Consolidate {
        level: parent_level,
        key: parent_low,
    });
    Ok((ConsolidateOutcome::Done, next))
}
