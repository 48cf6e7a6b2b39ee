//! The hB-tree engine (§2.2.3): point records over a multiattribute space,
//! with kd-fragment nodes, hyperplane splits, clipping, and the Π-tree
//! protocol — splits and index postings as separate, testable atomic
//! actions, sibling pointers searchable in between.
//!
//! Scope (per DESIGN.md): node consolidation is omitted — the paper itself
//! defers hB consolidation to its reference \[3\] "(in preparation)" — so the
//! hB-tree runs under the CNS invariant: nodes are immortal, one latch at a
//! time, remembered parents need no verification.

use crate::geometry::{key_point, point_key, Point, PtrKind, Rect};
use crate::node::{HbHeader, HbView, KdLeaf};
use crate::undo::{TAG_HB_REMOVE, TAG_HB_RESTORE};
use pitree::completion::Pending;
use pitree::engine::{set_header, Engine, Install, Routed, Step, Structure, TreeConfig, Verified};
use pitree::node::node_full;
use pitree::store::Store;
use pitree::traverse::SavedPath;
use pitree::wellformed::Description;
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::{LockMode, LockName, NoWait, Txn};
use pitree_wal::{ActionIdentity, InstantRecovery, RecoveryStats};
use std::sync::Arc;

/// hB-tree tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct HbConfig {
    /// Cap on point records per data node; `usize::MAX` (the default)
    /// splits a data node when its page is full (§3.2.1).
    pub max_records: usize,
    /// Cap on kd-fragment nodes per index node. Kept finite by default: it
    /// bounds the fragment each `route` walks, and a validating walk reads
    /// the whole fragment (EXPERIMENTS.md S14).
    pub max_frag_nodes: usize,
    /// Run completions inline after operations.
    pub auto_complete: bool,
    /// Recovery identity for SMO atomic actions.
    pub smo_identity: ActionIdentity,
}

impl Default for HbConfig {
    fn default() -> Self {
        HbConfig {
            max_records: usize::MAX,
            max_frag_nodes: 48,
            auto_complete: true,
            smo_identity: ActionIdentity::SystemTransaction,
        }
    }
}

impl TreeConfig for HbConfig {
    fn smo_identity(&self) -> ActionIdentity {
        self.smo_identity
    }
}

impl HbConfig {
    /// Small nodes for deep test trees.
    pub fn small_nodes(records: usize, frag: usize) -> HbConfig {
        HbConfig {
            max_records: records,
            max_frag_nodes: frag,
            ..Default::default()
        }
    }
}

/// A pending hB index-term posting: `new` took over `rect` (previously part
/// of `old`'s space) and a parent fragment at `level` must learn it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbPost {
    /// Parent hint — the index node on the detecting search path (§3.2.2:
    /// "we post only to the parent that is on the current search path"), or
    /// the root when unknown.
    pub parent: PageId,
    /// Level of the parent to update.
    pub level: u8,
    /// The delegating node.
    pub old: PageId,
    /// The new sibling.
    pub new: PageId,
    /// The region the new node took over.
    pub rect: Rect,
}

impl Pending for HbPost {
    fn duplicates(&self, other: &HbPost) -> bool {
        self.old == other.old && self.new == other.new
    }
}

/// The hB structure: a node directly contains its rectangle minus what its
/// kd fragment delegates; `Sibling` fragment leaves are the sibling terms,
/// `Child` leaves the index terms (Figure 2). CNS: nodes are immortal, one
/// latch at a time.
#[derive(Debug)]
pub struct Hb(HbConfig);

impl Structure for Hb {
    type Config = HbConfig;
    type Arg = Point;
    type Completion = HbPost;
    type Space = Rect;
    const META_MAGIC: u32 = 0x4842_5452; // "HBTR"

    fn new(cfg: HbConfig) -> Hb {
        Hb(cfg)
    }

    fn config(&self) -> &HbConfig {
        &self.0
    }

    fn root_leaf_header() -> Vec<u8> {
        HbHeader::new_root_leaf().encode()
    }

    fn couples_latches(&self) -> bool {
        false
    }

    fn auto_complete(&self) -> bool {
        self.0.auto_complete
    }

    fn route(&self, page: &Page, pid: PageId, p: &Point, target: u8) -> StoreResult<Routed> {
        let hdr = HbView::read(page)?;
        let level = hdr.level();
        let step = match hdr.locate(p)?.0 {
            KdLeaf::Ptr {
                kind: PtrKind::Sibling,
                pid: side,
                ..
            } => Step::Side(side),
            KdLeaf::Ptr { pid: child, .. } => {
                if level == target {
                    Step::Arrived
                } else {
                    Step::Child(child)
                }
            }
            // Local space belongs to data nodes, and a descent never goes
            // below its target level.
            KdLeaf::Local => {
                if level != 0 {
                    return Err(StoreError::Corrupt(format!(
                        "index node {pid} has Local space at {p:?}"
                    )));
                }
                Step::Arrived
            }
        };
        Ok(Routed { level, step })
    }

    /// §3.2.2: "we post only to the parent that is on the current search
    /// path" — the last index node the descent came through, or the root.
    fn side_traversal(
        tree: &HbEngine,
        from: PageId,
        to: PageId,
        to_page: &Page,
        path: &SavedPath,
    ) -> StoreResult<()> {
        let sib = HbView::read(to_page)?;
        tree.schedule(HbPost {
            parent: parent_hint(tree, path),
            level: sib.level() + 1,
            old: from,
            new: to,
            rect: sib.rect().clone(),
        });
        Ok(())
    }

    fn complete(tree: &HbEngine, post: HbPost) -> StoreResult<()> {
        tree.post_index_term(&post, &post.rect.lo).map(drop)
    }

    /// Grow the tree at the root; otherwise cut the node and owe the
    /// posting of the new sibling to the parent on the search path.
    fn split_node(
        tree: &HbEngine,
        act: &mut NoWait<'_, '_>,
        pin: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        _pending: &Point,
        path: &SavedPath,
    ) -> StoreResult<Option<HbPost>> {
        let hdr = HbHeader::read(g)?;
        if pin.id() == tree.root_pid() {
            crate::split::grow_root(tree, act, pin, g, &hdr)?;
            return Ok(None);
        }
        let (new, rect) = crate::split::raw_split(tree, act, pin, g, &hdr)?;
        Ok(Some(HbPost {
            parent: parent_hint(tree, path),
            level: hdr.level + 1,
            old: pin.id(),
            new,
            rect,
        }))
    }

    /// The parent at `post.level` whose fragment routes the region's low
    /// corner, found from the hint (immortal under CNS; a stale one below
    /// the level restarts from the root). Whether the term is already there
    /// is the fragment's to say.
    fn locate_post<'a>(
        tree: &'a HbEngine,
        post: &HbPost,
        probe: &Point,
    ) -> StoreResult<Verified<'a>> {
        let d = tree.descend_from(post.parent, probe, post.level, true, false)?;
        Ok(Verified::Parent(d, post.new))
    }

    /// Teach the parent fragment that `new` took over `post.rect` from
    /// `post.old` (§5.3 adapted to fragments). Testable: a parent that
    /// already routes the region to `new`, or holds no term for `old` there,
    /// changes nothing. The term goes in whenever the header physically
    /// fits; the fragment cap is enforced by a split *afterwards*, so a
    /// posting can never starve behind restructuring.
    fn install_term(
        tree: &HbEngine,
        act: &mut NoWait<'_, '_>,
        pin: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        post: &HbPost,
        new: PageId,
    ) -> StoreResult<Install> {
        let mut hdr = HbHeader::read(g)?;
        if !hdr.frag.post(&hdr.rect, post.old, new, &post.rect) {
            return Ok(Install::AlreadyPosted);
        }
        let bytes = hdr.encode();
        if !g.update_fits(0, bytes.len()) {
            return Ok(Install::Full);
        }
        set_header(act, pin, g, bytes)?;
        Ok(Install::Posted {
            overfull: hdr.frag.size() > tree.config().max_frag_nodes,
        })
    }

    fn undo(tree: &HbEngine, tag: u8, payload: &[u8]) -> StoreResult<()> {
        crate::undo::undo(tree, tag, payload)
    }

    fn describe(page: &Page, pid: PageId) -> StoreResult<Description<Rect>> {
        crate::wellformed::describe(page, pid)
    }
}

/// The shared Π-tree engine running the hB structure.
pub(crate) type HbEngine = Engine<Hb>;

/// The posting hint a descent leaves behind: the last index node on its
/// path, or the root.
pub(crate) fn parent_hint(tree: &HbEngine, path: &SavedPath) -> PageId {
    path.entries().last().map_or(tree.root_pid(), |e| e.pid)
}

/// Whether the data node `page` has no room for the record `entry`.
pub(crate) fn data_node_full(tree: &HbEngine, page: &Page, entry: &[u8]) -> bool {
    node_full(page, entry, tree.config().max_records)
}

/// The hB-tree: the engine's shell (registry, restart, descent,
/// completions, undo — reached through `Deref`) plus the point operations.
#[derive(Debug)]
pub struct HbTree(HbEngine);

impl std::ops::Deref for HbTree {
    type Target = Engine<Hb>;
    fn deref(&self) -> &Engine<Hb> {
        &self.0
    }
}

impl HbTree {
    /// Create a new hB-tree with a fixed root.
    pub fn create(store: Arc<Store>, tree_id: u32, cfg: HbConfig) -> StoreResult<HbTree> {
        Engine::create(store, tree_id, cfg).map(HbTree)
    }

    /// Open an existing hB-tree by id.
    pub fn open(store: Arc<Store>, tree_id: u32, cfg: HbConfig) -> StoreResult<HbTree> {
        Engine::open(store, tree_id, cfg).map(HbTree)
    }

    /// Open + run crash recovery with this tree's logical-undo handler.
    pub fn recover(
        store: Arc<Store>,
        tree_id: u32,
        cfg: HbConfig,
    ) -> StoreResult<(HbTree, RecoveryStats)> {
        Engine::recover(store, tree_id, cfg).map(|(e, stats)| (HbTree(e), stats))
    }

    /// Open with instant restart; see [`Engine::recover_instant`].
    pub fn recover_instant(
        store: Arc<Store>,
        tree_id: u32,
        cfg: HbConfig,
    ) -> StoreResult<(HbTree, Arc<InstantRecovery>, RecoveryStats)> {
        Engine::recover_instant(store, tree_id, cfg)
            .map(|(e, plan, stats)| (HbTree(e), plan, stats))
    }

    /// Pending postings.
    pub fn pending_posts(&self) -> usize {
        self.completions().len()
    }

    /// The lock name of a point record.
    pub fn point_lock(&self, p: &Point) -> LockName {
        self.key_lock(&point_key(p))
    }

    // ---- reads ----------------------------------------------------------------

    /// Latch-only point lookup.
    pub fn get(&self, p: &Point) -> StoreResult<Option<Vec<u8>>> {
        let d = self.descend(p, 0, false, true)?;
        self.finish_get(d, &point_key(p))
    }

    /// All records whose points fall in `window` (latch-only region query).
    /// Walks every data node whose directly-contained space intersects the
    /// window, via the fragment graph.
    pub fn window_query(&self, window: &Rect) -> StoreResult<Vec<(Point, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root_pid()];
        let mut seen = pitree_pagestore::sync::FixedSet::default();
        while let Some(pid) = stack.pop() {
            if !seen.insert(pid) {
                continue;
            }
            let pin = self.store().pool.fetch(pid)?;
            let g = pin.s();
            let hdr = HbView::read(&g)?;
            hdr.leaves(|leaf, region| {
                if !region.intersects(window) {
                    return Ok(());
                }
                match leaf {
                    KdLeaf::Local if hdr.level() == 0 => {
                        for slot in 1..g.slot_count() {
                            let p = key_point(g.entry_key_at(slot))?;
                            if window.contains(&p) && region.contains(&p) {
                                out.push((p, g.entry_payload_at(slot).to_vec()));
                            }
                        }
                    }
                    KdLeaf::Local => {}
                    KdLeaf::Ptr { pid, .. } => stack.push(pid),
                }
                Ok(())
            })?;
        }
        out.sort();
        out.dedup_by(|a, b| a.0 == b.0);
        Ok(out)
    }

    // ---- writes ---------------------------------------------------------------

    /// Insert or replace the record at `p`. Returns `true` when new.
    pub fn insert(&self, txn: &mut Txn<'_>, p: &Point, value: &[u8]) -> StoreResult<bool> {
        let key = point_key(p);
        let entry = Page::make_entry(&key, value);
        let name = self.point_lock(p);
        loop {
            let d = self.descend(p, 0, true, true)?;
            let Some(d) = self.lock_no_wait(txn, d, &[(&name, LockMode::X)])? else {
                continue;
            };
            let page = d.guard.page();
            let old = page.keyed_probe(&key).ok().map(|slot| page.entry_at(slot));
            if old.is_none() && data_node_full(self, page, &entry) {
                self.split_independent(d, p)?;
                continue;
            }
            let created = old.is_none();
            let (op, tag, undo) = match old {
                Some(old) => (PageOp::KeyedUpdate { bytes: entry }, TAG_HB_RESTORE, old),
                None => (
                    PageOp::KeyedInsert { bytes: entry },
                    TAG_HB_REMOVE,
                    key.into(),
                ),
            };
            let mut g = d.guard.promote().into_x();
            txn.apply_logical(&d.page, &mut g, op, tag, undo)?;
            drop(g);
            drop(d.page);
            self.maybe_autocomplete()?;
            return Ok(created);
        }
    }

    /// Delete the record at `p`. Returns whether it existed. (No
    /// consolidation — out of scope per the paper's own deferral.)
    pub fn delete(&self, txn: &mut Txn<'_>, p: &Point) -> StoreResult<bool> {
        let key = point_key(p);
        let name = self.point_lock(p);
        loop {
            let d = self.descend(p, 0, true, true)?;
            let Some(d) = self.lock_no_wait(txn, d, &[(&name, LockMode::X)])? else {
                continue;
            };
            let page = d.guard.page();
            let Some(old) = page.keyed_probe(&key).ok().map(|slot| page.entry_at(slot)) else {
                return Ok(false);
            };
            let mut g = d.guard.promote().into_x();
            let op = PageOp::KeyedRemove { key: key.into() };
            txn.apply_logical(&d.page, &mut g, op, TAG_HB_RESTORE, old)?;
            drop(g);
            drop(d.page);
            self.maybe_autocomplete()?;
            return Ok(true);
        }
    }
}
