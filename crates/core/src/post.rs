//! The index-term posting atomic action — the worked example of §5.3.
//!
//! Steps, verbatim from the paper: **Search** (reuse the saved PATH when the
//! state identifiers allow, §5.2), **Verify Split** (the testable-state
//! check that makes completion idempotent), **Space Test** (split the parent
//! — or grow the root — inside this action when the term does not fit), and
//! **Update Node**.

use crate::config::{ConsolidationPolicy, DeallocPolicy};
use crate::node::{node_full, Guarded, IndexTerm, NodeHeader};
use crate::split::{split_node, SplitCandidates};
use crate::stats::TreeStats;
use crate::traverse::{DescentTarget, SavedPath};
use crate::tree::PiTree;
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::{Page, PageType};
use pitree_pagestore::{PageId, PageOp, StoreResult};

/// How a posting action terminated. Every arm is a legitimate outcome —
/// "Before posting the index term, we test that the posting has not already
/// been done and still needs to be done" (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostOutcome {
    /// The term was inserted.
    Posted,
    /// Another action already posted it (idempotent no-op).
    AlreadyPosted,
    /// The described node was consolidated away; nothing to post.
    NodeGone,
    /// A move lock covers the delegating node: the splitting transaction is
    /// undecided, so posting must wait (§4.2.2).
    MoveDeferred,
}

/// Locate the parent node at `level` whose directly-contained space includes
/// `key`, U-latched, exploiting saved state per §5.2.
fn locate_parent<'a>(
    tree: &'a PiTree,
    level: u8,
    key: &[u8],
    path: &SavedPath,
) -> StoreResult<DescentTarget<'a>> {
    let stats = tree.stats();
    let d = match tree.config().consolidation {
        // CNS (§5.2.1): nodes are immortal — "re-traversals to find a parent
        // always start with the remembered parent".
        ConsolidationPolicy::Disabled => {
            if let Some(e) = path.at_level(level) {
                TreeStats::bump(&stats.saved_path_hits);
                tree.descend_from(e.pid, key, level, true, false)?
            } else {
                tree.descend(key, level, true, false)?
            }
        }
        // §5.2.2(b): de-allocation bumps the state id, so climb the saved
        // path from the deepest entry whose state id is unchanged.
        ConsolidationPolicy::Enabled {
            dealloc: DeallocPolicy::IsAnUpdate,
        } => {
            let mut start = None;
            for e in path.entries().iter().rev().filter(|e| e.level >= level) {
                // Climbing *up* the path violates the latch order, so only
                // try-latches are permissible here.
                let ok = match tree.store().pool.fetch(e.pid) {
                    Ok(pin) => match pin.try_s() {
                        Some(g) => {
                            g.lsn() == e.lsn
                                && !g.is_freed()
                                && g.page_type().map(|t| t == PageType::Node).unwrap_or(false)
                        }
                        None => false,
                    },
                    Err(_) => false,
                };
                if ok {
                    TreeStats::bump(&stats.saved_path_hits);
                    start = Some(e.pid);
                    break;
                }
                TreeStats::bump(&stats.saved_path_misses);
            }
            match start {
                Some(pid) => tree.descend_from(pid, key, level, true, false)?,
                None => tree.descend(key, level, true, false)?,
            }
        }
        // §5.2.2(a): de-allocation is invisible to state ids, so only
        // root-anchored traversals are safe. The saved path still pays: a
        // node whose state id is unchanged needs no fresh in-node search —
        // we account hits for the experiment's benefit.
        ConsolidationPolicy::Enabled {
            dealloc: DeallocPolicy::NotAnUpdate,
        } => {
            let d = tree.descend(key, level, true, false)?;
            for e in d.path.entries() {
                if path
                    .entries()
                    .iter()
                    .any(|p| p.pid == e.pid && p.lsn == e.lsn)
                {
                    TreeStats::bump(&stats.saved_path_hits);
                } else {
                    TreeStats::bump(&stats.saved_path_misses);
                }
            }
            d
        }
    };
    TreeStats::add(
        &stats.posting_nodes_touched,
        d.path.entries().len() as u64 + 1,
    );
    Ok(d)
}

/// Post the index term describing the split that created `node` (whose low
/// key is `key`) into the parent level `level`. One atomic action.
pub fn post_index_term(
    tree: &PiTree,
    level: u8,
    key: &[u8],
    node: PageId,
    path: &SavedPath,
) -> StoreResult<PostOutcome> {
    let stats = tree.stats();
    let mut act = tree.store().txns.begin(tree.config().smo_identity);

    // ---- Search ---------------------------------------------------------------
    let d = locate_parent(tree, level, key, path)?;
    let parent_pin = d.page;
    let parent_guard = d.guard; // U mode

    // A move lock on the parent itself means its content is part of an
    // undecided transaction's structure change (an in-transaction root
    // growth): updating it now would break that transaction's page-oriented
    // undo. Defer — normal traversals will re-detect the unposted split.
    if tree
        .store()
        .txns
        .locks()
        .is_move_locked(&tree.page_lock(parent_pin.id()))
    {
        TreeStats::bump(&stats.postings_move_deferred);
        tree.recorder()
            .event(pitree_obs::EventKind::SmoPost, node.0, 3);
        act.commit()?;
        return Ok(PostOutcome::MoveDeferred);
    }

    // ---- Verify Split -----------------------------------------------------------
    // "If the index term has already been posted, the action is terminated."
    if parent_guard.page().keyed_probe(key).is_ok() {
        TreeStats::bump(&stats.postings_noop);
        tree.recorder()
            .event(pitree_obs::EventKind::SmoPost, node.0, 1);
        act.commit()?;
        return Ok(PostOutcome::AlreadyPosted);
    }
    // "Otherwise the child node with the largest index term key value
    // smaller than the KEY is S latched," and we walk its side chain to see
    // whether a sibling responsible for KEY's space still exists.
    let verify = {
        let pool = &tree.store().pool;
        let slot = match parent_guard.page().keyed_floor(key)? {
            Some(s) => s,
            None => {
                // No term at or below key: the parent's space was taken over
                // since (transient under CP); treat as not-postable here.
                TreeStats::bump(&stats.postings_node_gone);
                tree.recorder()
                    .event(pitree_obs::EventKind::SmoPost, node.0, 2);
                act.commit()?;
                return Ok(PostOutcome::NodeGone);
            }
        };
        let c_term = IndexTerm::read(parent_guard.page(), slot)?;
        let mut pin = pool.fetch(c_term.child)?;
        let mut g = pin.s();
        let mut hdr = NodeHeader::read(&g)?;
        loop {
            if hdr.contains(key) {
                // The chain reaches key's space without crossing a node whose
                // low bound equals key: posting target is gone — unless this
                // *is* the node (low == key).
                break if hdr.low.as_entry_key() == key {
                    Some((pin.id(), hdr.low.as_entry_key().to_vec()))
                } else {
                    None
                };
            }
            // Crossing this node's side pointer: §4.2.2 — a move lock means
            // the split is by an undecided transaction; do not post.
            if tree
                .store()
                .txns
                .locks()
                .is_move_locked(&tree.page_lock(pin.id()))
            {
                TreeStats::bump(&stats.postings_move_deferred);
                tree.recorder()
                    .event(pitree_obs::EventKind::SmoPost, node.0, 3);
                act.commit()?;
                return Ok(PostOutcome::MoveDeferred);
            }
            if !hdr.side.is_valid() {
                break None;
            }
            let next = pool.fetch(hdr.side)?;
            let ng = next.s(); // latch coupling (CP-safe; harmless under CNS)
            drop(g);
            pin = next;
            g = ng;
            hdr = NodeHeader::read(&g)?;
        }
    };
    let (post_pid, post_key) = match verify {
        Some(v) => v,
        None => {
            TreeStats::bump(&stats.postings_node_gone);
            tree.recorder()
                .event(pitree_obs::EventKind::SmoPost, node.0, 2);
            act.commit()?;
            return Ok(PostOutcome::NodeGone);
        }
    };
    debug_assert_eq!(post_key.as_slice(), key);
    // The verified address may differ from the scheduled one if the node
    // was replaced (the paper's "new ADDRESS" case).
    let _scheduled = node;

    // "The S latches are dropped. The U latch on NODE is promoted to an X
    // latch." (Child latches were dropped when `verify` went out of scope.)
    let pg: XGuard<'_, Page> = match parent_guard {
        Guarded::U(u) => u.promote(),
        Guarded::X(x) => x,
        Guarded::S(_) => unreachable!("posting descends with U at target"),
    };
    TreeStats::bump(&stats.upper_exclusive);

    // ---- Space Test + Update Node ---------------------------------------------
    let entry = IndexTerm::entry_for(&post_key, post_pid);
    let mut cur_pin: PinnedPage<'_> = parent_pin;
    let mut cur_guard = pg;
    loop {
        if !node_full(&cur_guard, entry.len(), tree.config().max_index_entries) {
            act.apply(
                &cur_pin,
                &mut cur_guard,
                PageOp::KeyedInsert {
                    bytes: entry.clone(),
                },
            )?;
            break;
        }
        // Split NODE within this action; "an index posting operation is
        // scheduled for the parent of NODE" (separate action) unless NODE
        // was the root, which grows instead.
        let cur_level = NodeHeader::read(&cur_guard)?.level;
        TreeStats::bump(&stats.upper_exclusive); // the split's new node
        match split_node(tree, &mut act, &cur_pin, &mut cur_guard, key)? {
            SplitCandidates::Normal {
                new_pin,
                new_guard,
                split_key,
                new_pid,
            } => {
                tree.schedule(crate::completion::Completion::Post {
                    level: cur_level + 1,
                    key: split_key.clone(),
                    node: new_pid,
                    path: Box::new(path.above(cur_level)),
                });
                // "Then check which resulting node has a directly contained
                // space that includes KEY, and make that NODE."
                if key >= split_key.as_slice() {
                    cur_pin = new_pin;
                    cur_guard = new_guard;
                }
                // else: keep the old node (still latched). The other node's
                // guard drops here, per "release the X latch on the other
                // node, but retain the X latch on NODE".
            }
            SplitCandidates::Grew { n1, n2, split_key } => {
                // "This can require descending one more level ... should
                // NODE have been the root."
                if key >= split_key.as_slice() {
                    cur_pin = n2.0;
                    cur_guard = n2.1;
                } else {
                    cur_pin = n1.0;
                    cur_guard = n1.1;
                }
            }
        }
    }
    drop(cur_guard);
    drop(cur_pin);
    act.commit()?;
    TreeStats::bump(&stats.postings_done);
    tree.recorder()
        .event(pitree_obs::EventKind::SmoPost, node.0, 0);
    Ok(PostOutcome::Posted)
}
