//! The Π-tree public API: a B-link-tree instantiation of the paper's
//! protocol.
//!
//! All structure changes are decomposed into atomic actions (§5): record
//! updates happen in the caller's transaction; node splits happen in an
//! independent atomic action (or inside the transaction when page-oriented
//! UNDO forces it, §4.2.1); index-term postings and node consolidations are
//! always independent actions scheduled through the completion queue (§5.1).
//!
//! Database locking follows §4.1.2/§4.2.2: record updates take an IX page
//! lock plus an X key lock, readers take an S key lock only (readers are
//! compatible with move locks), and all lock acquisition under a latch uses
//! `try_lock` — on conflict the latch is released before blocking, then the
//! operation restarts (the **No-Wait Rule**).

use crate::completion::Completion;
use crate::config::{ConsolidationPolicy, DeallocPolicy, MoveGranule, PiTreeConfig, UndoPolicy};
use crate::engine::{lock_err, Engine, Install, PostOutcome, Routed, Step, Structure, Verified};
use crate::node::{node_full, utilization, HeaderRef, IndexTerm, NodeHeader};
use crate::split::Split;
use crate::traverse::{step_to, DescentTarget, SavedPath};
use crate::undo::{TAG_UNDO_DELETE, TAG_UNDO_INSERT, TAG_UNDO_UPDATE};
use crate::wellformed::{describe_keyed, Description, KeyRange};
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::{Page, PageType};
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::{LockError, LockMode, LockName, Txn};

/// What the header of a key-partitioned node — directly-contained space
/// `[low, high)`, sibling term `side` — says about one search key. The
/// routing rule is shared by every such Π-tree level (B-link nodes, TSB
/// current and index nodes); each structure fills this in from its own
/// borrowed header view.
#[derive(Debug, Clone, Copy)]
pub struct KeyRouting {
    /// The node's level.
    pub level: u8,
    /// Its side pointer, or `PageId::INVALID`.
    pub side: PageId,
    /// `low ≤ key`.
    pub low_le: bool,
    /// `key < high`.
    pub high_gt: bool,
}

impl KeyRouting {
    /// Route `key` through the node `page` (id `pid`) this was read from.
    pub fn route(self, page: &Page, pid: PageId, key: &[u8], target: u8) -> StoreResult<Routed> {
        let step = if !self.high_gt {
            // key ≥ high: delegated to the sibling.
            if !self.side.is_valid() {
                return Err(StoreError::Corrupt(format!(
                    "node {pid} lacks side pointer but does not contain {key:02x?}"
                )));
            }
            Step::Side(self.side)
        } else if !self.low_le {
            Step::Restart
        } else if self.level == target {
            Step::Arrived
        } else {
            let slot = page.keyed_floor(key)?.ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "index node {pid} contains {key:02x?} but has no routable term"
                ))
            })?;
            Step::Child(IndexTerm::child_at(page, slot)?)
        };
        Ok(Routed {
            level: self.level,
            step,
        })
    }
}

/// The B-link structure: nodes directly contain a key interval, the
/// sibling term is the header's side pointer + high bound, index terms are
/// keyed `(low key, child)` entries.
#[derive(Debug)]
pub struct BLink(PiTreeConfig);

impl Structure for BLink {
    type Config = PiTreeConfig;
    type Arg = [u8];
    type Completion = Completion;
    type Space = KeyRange;
    const META_MAGIC: u32 = 0x5049_5452; // "PITR"

    fn new(cfg: PiTreeConfig) -> BLink {
        BLink(cfg)
    }

    fn config(&self) -> &PiTreeConfig {
        &self.0
    }

    fn root_leaf_header() -> Vec<u8> {
        NodeHeader::new_root_leaf().encode()
    }

    fn couples_latches(&self) -> bool {
        self.0.consolidation.couples_latches()
    }

    fn auto_complete(&self) -> bool {
        self.0.auto_complete
    }

    #[inline]
    fn route(&self, page: &Page, pid: PageId, key: &[u8], target: u8) -> StoreResult<Routed> {
        let h = HeaderRef::read(page)?;
        KeyRouting {
            level: h.level(),
            side: h.side(),
            low_le: h.low_le(key),
            high_gt: h.high_gt(key),
        }
        .route(page, pid, key, target)
    }

    /// Schedule the completing index-term posting for the sibling `to` —
    /// unless the delegating node is move locked, in which case the split's
    /// transaction is still in doubt and "a transaction encountering a move
    /// lock on a sibling traversal does not schedule an index posting"
    /// (§4.2.2).
    fn side_traversal(
        tree: &PiTree,
        from: PageId,
        to: PageId,
        to_page: &Page,
        path: &SavedPath,
    ) -> StoreResult<()> {
        if tree
            .store()
            .txns
            .locks()
            .is_move_locked(&tree.page_lock(from))
        {
            tree.stats().postings_move_deferred.inc();
            return Ok(());
        }
        let h = HeaderRef::read(to_page)?;
        tree.schedule(Completion::Post {
            level: h.level() + 1,
            key: h.low_entry_key().to_vec(),
            node: to,
            path: Box::new(path.above(h.level())),
        });
        Ok(())
    }

    fn complete(tree: &PiTree, c: Completion) -> StoreResult<()> {
        match &c {
            Completion::Post { key, .. } => tree.post_index_term(&c, key).map(drop),
            Completion::Consolidate { level, key } => {
                crate::consolidate::consolidate(tree, *level, key).map(drop)
            }
        }
    }

    fn split_node(
        tree: &PiTree,
        act: &mut Txn<'_>,
        pin: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        pending: &[u8],
        path: &SavedPath,
    ) -> StoreResult<Option<Completion>> {
        let split = crate::split::split_node(tree, act, pin, g, pending, path)?;
        Ok(match split {
            Split::Normal { post, .. } => Some(post),
            Split::Grew { .. } => None,
        })
    }

    /// §5.3 Search from the saved path, then Verify Split under the
    /// parent's U latch. The parent comes back remembering the posting's
    /// saved path, which the postings of its own splits inherit.
    fn locate_post<'a>(
        tree: &'a PiTree,
        post: &Completion,
        key: &[u8],
    ) -> StoreResult<Verified<'a>> {
        let Completion::Post { level, path, .. } = post else {
            return Err(StoreError::Corrupt(
                "a consolidation is not a posting".into(),
            ));
        };
        let mut d = locate_parent(tree, *level, key, path)?;
        d.path = (**path).clone();
        let move_locked = |pid| {
            let locks = tree.store().txns.locks();
            locks.is_move_locked(&tree.page_lock(pid))
        };
        // A move lock on the parent itself means its content is part of an
        // undecided transaction's structure change (an in-transaction root
        // growth): updating it now would break that transaction's
        // page-oriented undo. Defer — traversals will re-detect the split.
        if move_locked(d.page.id()) {
            return Ok(Verified::Ends(PostOutcome::MoveDeferred));
        }
        // Verify Split: "If the index term has already been posted, the
        // action is terminated."
        if d.guard.page().keyed_probe(key).is_ok() {
            return Ok(Verified::Ends(PostOutcome::AlreadyPosted));
        }
        // "Otherwise the child node with the largest index term key value
        // smaller than the KEY is S latched," and we walk its side chain to
        // see whether a sibling responsible for KEY's space still exists.
        let Some(slot) = d.guard.page().keyed_floor(key)? else {
            // No term at or below key: the parent's space was taken over
            // since (transient under CP); treat as not-postable here.
            return Ok(Verified::Ends(PostOutcome::NodeGone));
        };
        let pool = &tree.store().pool;
        let mut pin = pool.fetch(IndexTerm::child_at(d.guard.page(), slot)?)?;
        let mut g = pin.s();
        let mut hdr = NodeHeader::read(&g)?;
        while !hdr.contains(key) {
            // Crossing this node's side pointer: §4.2.2 — a move lock means
            // the split is by an undecided transaction; do not post.
            if move_locked(pin.id()) {
                return Ok(Verified::Ends(PostOutcome::MoveDeferred));
            }
            if !hdr.side.is_valid() {
                return Ok(Verified::Ends(PostOutcome::NodeGone));
            }
            let next = pool.fetch(hdr.side)?;
            let ng = next.s(); // latch coupling (CP-safe; harmless under CNS)
            drop(g);
            pin = next;
            g = ng;
            hdr = NodeHeader::read(&g)?;
        }
        // The chain reached key's space: the posting target is gone unless
        // this *is* the node (low == key) — possibly at a new address, if
        // the node was replaced (§5.3's "new ADDRESS" case). "The S latches
        // are dropped."
        if hdr.low.as_entry_key() != key {
            return Ok(Verified::Ends(PostOutcome::NodeGone));
        }
        Ok(Verified::Parent(d, pin.id()))
    }

    fn install_term(
        tree: &PiTree,
        act: &mut Txn<'_>,
        pin: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        post: &Completion,
        node: PageId,
    ) -> StoreResult<Install> {
        crate::post::install_index_term(act, pin, g, post, node, tree.config().max_index_entries)
    }

    fn undo(tree: &PiTree, tag: u8, payload: &[u8]) -> StoreResult<()> {
        tree.compensate(tag, payload)
    }

    /// A node directly contains `[low, high)`.
    fn describe(page: &Page, pid: PageId) -> StoreResult<Description<KeyRange>> {
        let h = NodeHeader::read(page)?;
        describe_keyed(page, pid, h.level, KeyRange::new(h.low, h.high), h.side, 0)
    }
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
                stats.saved_path_hits.inc();
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
                    stats.saved_path_hits.inc();
                    start = Some(e.pid);
                    break;
                }
                stats.saved_path_misses.inc();
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
                    stats.saved_path_hits.inc();
                } else {
                    stats.saved_path_misses.inc();
                }
            }
            d
        }
    };
    stats
        .posting_nodes_touched
        .add(d.path.entries().len() as u64 + 1);
    Ok(d)
}

/// A Π-tree (B-link instantiation) over a [`crate::Store`].
pub type PiTree = Engine<BLink>;

impl PiTree {
    /// Tree height (levels), read from the root.
    pub fn height(&self) -> StoreResult<u8> {
        let page = self.store().pool.fetch(self.root_pid())?;
        let g = page.s();
        Ok(HeaderRef::read(&g)?.level() + 1)
    }

    /// The lock name used for page-scope locking (updater intent and move
    /// locks): per-page, or the whole relation, per [`MoveGranule`].
    pub fn page_lock(&self, pid: PageId) -> LockName {
        match self.config().move_granule {
            MoveGranule::Page => LockName::Page(pid),
            MoveGranule::Relation => LockName::Tree(self.tree_id()),
        }
    }

    // ---- reads ----------------------------------------------------------------

    /// Transactional point read: S record lock (held to end of transaction)
    /// plus latches. Readers take no page lock — share-mode access is
    /// compatible with move locks (§4.2.2).
    pub fn get(&self, txn: &Txn<'_>, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        let name = self.key_lock(key);
        loop {
            let d = self.descend(key, 0, false, true)?;
            if let Some(d) = self.lock_no_wait(txn, d, &[(&name, LockMode::S)])? {
                return self.finish_get(d, key);
            }
        }
    }

    /// Latch-only point read (no database locks). Used by benchmarks and
    /// internal verification.
    pub fn get_unlocked(&self, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        let d = self.descend(key, 0, false, true)?;
        self.finish_get(d, key)
    }

    /// Latch-only range scan of `[from, to)`, walking the leaf side chain.
    /// Allocation amortizes to the emitted pairs: the output is pre-reserved
    /// from each node's share of the range, which two in-place probes find
    /// (entries are sorted), and the high-bound test never re-encodes `to`.
    pub fn scan(&self, from: &[u8], to: &[u8]) -> StoreResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let coupling = self.structure().couples_latches();
        let d = self.descend(from, 0, false, true)?;
        let mut cur = d.page;
        let mut g = d.guard;
        loop {
            // Emit this node's entries and read the continuation decision
            // under one scoped borrow of the guard.
            let next = {
                let page = g.page();
                let (Ok(first) | Err(first)) = page.keyed_probe(from);
                let (Ok(end) | Err(end)) = page.keyed_probe(to);
                out.reserve(end.saturating_sub(first) as usize);
                for slot in first..end {
                    let key = page.entry_key_at(slot).to_vec();
                    out.push((key, page.entry_payload_at(slot).to_vec()));
                }
                let h = HeaderRef::read(page)?;
                // Continue while the next node's space can still intersect
                // [from, to): i.e. while high < to.
                if h.high_ge(to) || !h.side().is_valid() {
                    None
                } else {
                    Some(h.side())
                }
            };
            let Some(side) = next else { break };
            let sib = self.store().pool.fetch(side)?;
            g = step_to(g, &sib, false, coupling);
            cur = sib;
        }
        drop(g);
        drop(cur);
        Ok(out)
    }

    /// Transactional range scan of `[from, to)`: S record locks on every
    /// returned key (held to end of transaction — repeatable reads of the
    /// result set; phantom protection would need key-range locks, which the
    /// paper only mentions in passing).
    pub fn scan_locked(
        &self,
        txn: &Txn<'_>,
        from: &[u8],
        to: &[u8],
    ) -> StoreResult<Vec<(Vec<u8>, Vec<u8>)>> {
        'rescan: loop {
            let out = self.scan(from, to)?;
            // Lock the result set with the No-Wait discipline: the latch-free
            // scan above re-runs if any lock needs a blocking wait (the set
            // may have changed while waiting).
            for (k, _) in &out {
                let name = self.key_lock(k);
                match txn.try_lock(&name, LockMode::S) {
                    Ok(()) => {}
                    Err(LockError::WouldBlock) => {
                        self.stats().no_wait_restarts.inc();
                        txn.lock(&name, LockMode::S).map_err(lock_err)?;
                        continue 'rescan;
                    }
                    Err(e) => return Err(lock_err(e)),
                }
            }
            // Values cannot have changed under the locks (X requires our S
            // to drain).
            return Ok(out);
        }
    }

    // ---- writes ---------------------------------------------------------------

    /// Log and apply a record update in `txn`, with the undo information the
    /// configured [`UndoPolicy`] calls for: none beyond the page image
    /// (page-oriented), or `(tag, payload)` for logical undo.
    fn apply_update(
        &self,
        txn: &mut Txn<'_>,
        page: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        op: PageOp,
        tag: u8,
        payload: Vec<u8>,
    ) -> StoreResult<()> {
        match self.config().undo {
            UndoPolicy::PageOriented => txn.apply(page, g, op)?,
            UndoPolicy::Logical => txn.apply_logical(page, g, op, tag, payload)?,
        };
        Ok(())
    }

    /// Transactional upsert. Returns `true` if the key was new, `false` if
    /// an existing record was replaced.
    ///
    /// Locking: IX on the leaf page (so move locks conflict, §4.2.2) + X on
    /// the key, both to end of transaction. Splitting follows §4.2.1: under
    /// logical UNDO (and under page-oriented UNDO when this transaction has
    /// not updated this leaf) the split is an independent atomic action;
    /// otherwise it runs inside the transaction under a move lock, with the
    /// index-term posting deferred to commit.
    pub fn insert(&self, txn: &mut Txn<'_>, key: &[u8], value: &[u8]) -> StoreResult<bool> {
        let entry = Page::make_entry(key, value);
        let key_name = self.key_lock(key);
        loop {
            let d = self.descend(key, 0, true, true)?;
            let page_name = self.page_lock(d.page.id());

            // Split first if needed, before taking record locks, so an
            // independent split's move lock cannot collide with our own page
            // lock (§4.2.1: the split happens "independent of and before T").
            let exists = d.guard.page().keyed_probe(key).is_ok();
            if !exists && node_full(d.guard.page(), &entry, self.config().max_leaf_entries) {
                crate::split::split_leaf_for_insert(self, txn, d, key)?;
                continue;
            }
            let locks = [(&page_name, LockMode::IX), (&key_name, LockMode::X)];
            let Some(d) = self.lock_no_wait(txn, d, &locks)? else {
                continue;
            };

            // The guard was held across the checks above, so `exists` and
            // the space check are still valid under the locks we now hold.
            let mut g = d.guard.promote().into_x();
            let (op, tag, undo) = match g.keyed_probe(key) {
                Ok(slot) => (
                    PageOp::KeyedUpdate { bytes: entry },
                    TAG_UNDO_UPDATE,
                    g.entry_at(slot),
                ),
                Err(_) => (
                    PageOp::KeyedInsert { bytes: entry },
                    TAG_UNDO_INSERT,
                    key.to_vec(),
                ),
            };
            self.apply_update(txn, &d.page, &mut g, op, tag, undo)?;
            drop(g);
            drop(d.page);
            self.maybe_autocomplete()?;
            return Ok(!exists);
        }
    }

    /// Transactional delete. Returns `true` if the key existed.
    pub fn delete(&self, txn: &mut Txn<'_>, key: &[u8]) -> StoreResult<bool> {
        let key_name = self.key_lock(key);
        loop {
            let d = self.descend(key, 0, true, true)?;
            let page_name = self.page_lock(d.page.id());
            let locks = [(&page_name, LockMode::IX), (&key_name, LockMode::X)];
            let Some(d) = self.lock_no_wait(txn, d, &locks)? else {
                continue;
            };
            let page = d.guard.page();
            let Some(old) = page.keyed_probe(key).ok().map(|slot| page.entry_at(slot)) else {
                drop(d);
                self.maybe_autocomplete()?;
                return Ok(false);
            };
            let mut g = d.guard.promote().into_x();
            let op = PageOp::KeyedRemove { key: key.to_vec() };
            self.apply_update(txn, &d.page, &mut g, op, TAG_UNDO_DELETE, old)?;
            // Consolidation trigger (§3.3): schedule when under-utilized.
            let low_key = HeaderRef::read(&g)?.low_entry_key().to_vec();
            let underutilized =
                utilization(&g, self.config().max_leaf_entries) < self.config().min_utilization;
            drop(g);
            drop(d.page);
            if underutilized
                && matches!(
                    self.config().consolidation,
                    ConsolidationPolicy::Enabled { .. }
                )
            {
                self.completions().push(Completion::Consolidate {
                    level: 0,
                    key: low_key,
                });
            }
            self.maybe_autocomplete()?;
            return Ok(true);
        }
    }
}
