//! The TSB-tree engine: versioned puts, as-of reads, and the Π-tree
//! protocol (decomposed atomic actions, lazy posting) over (key × time)
//! space.
//!
//! The TSB-tree runs under the CNS invariant — nodes are never consolidated,
//! and "historical nodes never split again" (§2.2.2) — so traversal holds
//! one latch at a time and saved state needs no verification. Record undo is
//! logical (a version is removed wherever structure changes have taken it),
//! which per §6 lets every split run as an independent atomic action.

use crate::node::{
    find_version_probe, split_version_key, version_entry, version_key, version_value, Time,
    TsbHeader, TsbHeaderRef, TsbKind,
};
use crate::split;
use pitree::completion::Completion;
use pitree::engine::{Engine, Install, PostOutcome, Routed, Step, Structure, TreeConfig, Verified};
use pitree::node::{node_full, BoundRef, Guarded};
use pitree::store::Store;
use pitree::traverse::SavedPath;
use pitree::tree::KeyRouting;
use pitree::wellformed::{Description, KeyRange};
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::{LockMode, Txn};
use pitree_wal::{ActionIdentity, InstantRecovery, RecoveryStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// TSB-tree tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct TsbConfig {
    /// Cap on version entries per data node.
    pub max_leaf_entries: usize,
    /// Cap on index terms per index node.
    pub max_index_entries: usize,
    /// Run completions inline after operations.
    pub auto_complete: bool,
    /// Recovery identity of SMO atomic actions.
    pub smo_identity: ActionIdentity,
}

impl Default for TsbConfig {
    fn default() -> Self {
        TsbConfig {
            max_leaf_entries: usize::MAX,
            max_index_entries: usize::MAX,
            auto_complete: true,
            smo_identity: ActionIdentity::SystemTransaction,
        }
    }
}

impl TreeConfig for TsbConfig {
    fn smo_identity(&self) -> ActionIdentity {
        self.smo_identity
    }
}

impl TsbConfig {
    /// Small nodes for deep test trees.
    pub fn small_nodes(leaf: usize, index: usize) -> TsbConfig {
        TsbConfig {
            max_leaf_entries: leaf,
            max_index_entries: index,
            ..Default::default()
        }
    }
}

/// The TSB structure: data nodes directly contain a (key × time)
/// rectangle; the *key* side pointer is the sibling term descents route by,
/// the *history* side pointer a second sibling term followed by as-of reads
/// (Figure 1); index terms are keyed `(low key, child)` entries over current
/// nodes. CNS: nodes are immortal, one latch at a time.
#[derive(Debug)]
pub struct Tsb {
    cfg: TsbConfig,
    clock: AtomicU64,
}

impl Tsb {
    /// The logical clock's current value (last issued timestamp).
    pub fn now(&self) -> Time {
        self.clock.load(Ordering::SeqCst)
    }
}

impl Structure for Tsb {
    type Config = TsbConfig;
    type Arg = [u8];
    type Completion = Completion;
    type Space = KeyRange;
    const META_MAGIC: u32 = 0x5453_4254; // "TSBT"

    fn new(cfg: TsbConfig) -> Tsb {
        Tsb {
            cfg,
            clock: AtomicU64::new(0),
        }
    }

    fn config(&self) -> &TsbConfig {
        &self.cfg
    }

    fn root_leaf_header() -> Vec<u8> {
        TsbHeader::new_root_leaf().encode()
    }

    fn couples_latches(&self) -> bool {
        false
    }

    fn auto_complete(&self) -> bool {
        self.cfg.auto_complete
    }

    #[inline]
    fn route(&self, page: &Page, pid: PageId, key: &[u8], target: u8) -> StoreResult<Routed> {
        let h = TsbHeaderRef::read(page)?;
        let routed = KeyRouting {
            level: h.level(),
            side: h.key_side(),
            low_le: h.key_low().le_key(key),
            high_gt: h.key_high_gt(key),
        }
        .route(page, pid, key, target)?;
        if routed.step == Step::Restart {
            // Nothing is ever consolidated away under CNS, so routing can
            // never overshoot.
            return Err(StoreError::Corrupt(format!(
                "TSB routing went past key {key:02x?} (low {:?})",
                h.key_low()
            )));
        }
        Ok(routed)
    }

    fn side_traversal(
        tree: &TsbEngine,
        _from: PageId,
        to: PageId,
        to_page: &Page,
        path: &SavedPath,
    ) -> StoreResult<()> {
        let h = TsbHeaderRef::read(to_page)?;
        tree.schedule(Completion::Post {
            level: h.level() + 1,
            key: h.low_entry_key().to_vec(),
            node: to,
            path: Box::new(path.clone()),
        });
        Ok(())
    }

    fn complete(tree: &TsbEngine, c: Completion) -> StoreResult<()> {
        match &c {
            Completion::Post { key, .. } => tree.post_index_term(&c, key).map(drop),
            Completion::Consolidate { .. } => Ok(()), // TSB never consolidates
        }
    }

    /// `pending` is a version key in a data node, a user key in an index
    /// node. A current node of mostly historical versions time-splits (TSB
    /// heuristic); the root grows; any other node key-splits and owes the
    /// posting of its new sibling's index term.
    fn split_node(
        tree: &TsbEngine,
        act: &mut Txn<'_>,
        pin: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        pending: &[u8],
        path: &SavedPath,
    ) -> StoreResult<Option<Completion>> {
        let hdr = TsbHeader::read(g)?;
        if hdr.kind == TsbKind::Current {
            // Mostly historical versions → time split; so does a node full
            // of versions of one key (a key split needs two distinct keys).
            let n = g.entry_count() as usize;
            let distinct = split::distinct_keys(g);
            if (distinct * 2 <= n && distinct < n) || distinct < 2 {
                split::time_split(tree, act, pin, g, &hdr)?;
                return Ok(None);
            }
        }
        if pin.id() == tree.root_pid() {
            split::grow_root(tree, act, pin, g, &hdr, pending)?;
            return Ok(None);
        }
        let (key, node) = split::key_split(tree, act, pin, g, &hdr, pending)?;
        Ok(Some(Completion::Post {
            level: hdr.level + 1,
            key,
            node,
            path: Box::new(path.above(hdr.level)),
        }))
    }

    /// Under CNS a remembered parent needs no verification, but the
    /// posting is still testable: a term already at `key` ends it.
    fn locate_post<'a>(
        tree: &'a TsbEngine,
        post: &Completion,
        key: &[u8],
    ) -> StoreResult<Verified<'a>> {
        let Completion::Post { level, node, .. } = post else {
            return Err(StoreError::Corrupt(
                "a consolidation is not a posting".into(),
            ));
        };
        let d = tree.descend(key, *level, true, false)?;
        if d.guard.page().keyed_find(key)?.is_ok() {
            return Ok(Verified::Ends(PostOutcome::AlreadyPosted));
        }
        Ok(Verified::Parent(d, *node))
    }

    fn install_term(
        tree: &TsbEngine,
        act: &mut Txn<'_>,
        pin: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        post: &Completion,
        node: PageId,
    ) -> StoreResult<Install> {
        pitree::post::install_index_term(act, pin, g, post, node, tree.config().max_index_entries)
    }

    fn undo(tree: &TsbEngine, tag: u8, payload: &[u8]) -> StoreResult<()> {
        crate::undo::undo(tree, tag, payload)
    }

    fn describe(page: &Page, pid: PageId) -> StoreResult<Description<KeyRange>> {
        crate::wellformed::describe(page, pid)
    }

    /// Restore the logical clock from the newest version reachable on the
    /// current data chain.
    fn opened(tree: &TsbEngine) -> StoreResult<()> {
        // The empty key routes to the leftmost leaf; from there walk the
        // level-0 current chain, taking the newest version start.
        let d = tree.descend(b"", 0, false, false)?;
        let mut pin = d.page;
        let mut g = d.guard;
        let mut max_t = 0;
        loop {
            let page = g.page();
            let h = TsbHeaderRef::read(page)?;
            for slot in 1..page.slot_count() {
                max_t = max_t.max(split_version_key(page.entry_key_at(slot)).1);
            }
            max_t = max_t.max(h.t_lo());
            let next = h.key_side();
            if !next.is_valid() {
                break;
            }
            drop(g);
            pin = tree.store().pool.fetch(next)?;
            g = Guarded::S(pin.s());
        }
        drop(g);
        drop(pin);
        tree.structure().clock.store(max_t, Ordering::SeqCst);
        Ok(())
    }
}

/// The shared Π-tree engine running the TSB structure.
pub(crate) type TsbEngine = Engine<Tsb>;

/// A Time-Split B-tree over a shared [`Store`]: the engine's shell
/// (registry, restart, descent, completions, undo — reached through
/// `Deref`) plus the versioned operations.
#[derive(Debug)]
pub struct TsbTree(TsbEngine);

impl std::ops::Deref for TsbTree {
    type Target = Engine<Tsb>;
    fn deref(&self) -> &Engine<Tsb> {
        &self.0
    }
}

impl TsbTree {
    /// Create a new TSB-tree with a fixed root, registered on the meta page.
    pub fn create(store: Arc<Store>, tree_id: u32, cfg: TsbConfig) -> StoreResult<TsbTree> {
        Engine::create(store, tree_id, cfg).map(TsbTree)
    }

    /// Open an existing TSB-tree, restoring the logical clock from disk.
    pub fn open(store: Arc<Store>, tree_id: u32, cfg: TsbConfig) -> StoreResult<TsbTree> {
        Engine::open(store, tree_id, cfg).map(TsbTree)
    }

    /// Open + run full crash recovery (redo, then logical undo through this
    /// tree's handler).
    pub fn recover(
        store: Arc<Store>,
        tree_id: u32,
        cfg: TsbConfig,
    ) -> StoreResult<(TsbTree, RecoveryStats)> {
        Engine::recover(store, tree_id, cfg).map(|(e, stats)| (TsbTree(e), stats))
    }

    /// Open with instant restart; see [`Engine::recover_instant`].
    pub fn recover_instant(
        store: Arc<Store>,
        tree_id: u32,
        cfg: TsbConfig,
    ) -> StoreResult<(TsbTree, Arc<InstantRecovery>, RecoveryStats)> {
        Engine::recover_instant(store, tree_id, cfg)
            .map(|(e, plan, stats)| (TsbTree(e), plan, stats))
    }

    /// The logical clock's current value (last issued timestamp).
    pub fn now(&self) -> Time {
        self.structure().now()
    }

    // ---- reads -----------------------------------------------------------------

    /// Current value of `key`, if any (tombstones read as absent).
    pub fn get_current(&self, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        self.get_as_of(key, Time::MAX - 1)
    }

    /// Value of `key` as of time `t`: follows history side pointers back
    /// through time (Figure 1). A node covering `t` that holds no version of
    /// `key` defers further back — the key may predate the node's interval
    /// (or a rolled-back alive-at-split copy may have been compensated
    /// away), in which case its governing version lives down the chain.
    pub fn get_as_of(&self, key: &[u8], t: Time) -> StoreResult<Option<Vec<u8>>> {
        let d = self.descend(key, 0, false, true)?;
        let pool = &self.store().pool;
        let mut pin = d.page;
        let mut g = d.guard;
        let out = loop {
            // One borrowed header view per chain hop; the winning version's
            // payload is borrowed straight from the frame, so the only
            // allocation is the returned value.
            let hist = {
                let page = g.page();
                let h = TsbHeaderRef::read(page)?;
                if t >= h.t_lo() {
                    if let Some((_, payload)) = find_version_probe(page, key, t) {
                        break version_value(payload).map(|v| v.to_vec());
                    }
                }
                h.hist_side()
            };
            if !hist.is_valid() {
                break None; // before recorded history
            }
            drop(g); // history nodes are immortal; no coupling needed
            let hpin = pool.fetch(hist)?;
            let hg = Guarded::S(hpin.s());
            pin = hpin;
            g = hg;
        };
        drop(g);
        drop(pin);
        self.maybe_autocomplete()?;
        Ok(out)
    }

    /// All versions of `key`, oldest first, as `(start time, value)` with
    /// `None` for tombstones. Alive-at-split copies are deduplicated.
    pub fn history(&self, key: &[u8]) -> StoreResult<Vec<(Time, Option<Vec<u8>>)>> {
        let d = self.descend(key, 0, false, true)?;
        let pool = &self.store().pool;
        let mut versions = std::collections::BTreeMap::new();
        let mut pin = d.page;
        let mut g = d.guard;
        loop {
            let page = g.page();
            for slot in 1..page.slot_count() {
                let (k, t) = split_version_key(page.entry_key_at(slot));
                if k == key {
                    versions.entry(t).or_insert_with(|| {
                        version_value(page.entry_payload_at(slot)).map(|v| v.to_vec())
                    });
                }
            }
            let hist = TsbHeaderRef::read(page)?.hist_side();
            if !hist.is_valid() {
                break;
            }
            drop(g);
            let hpin = pool.fetch(hist)?;
            g = Guarded::S(hpin.s());
            pin = hpin;
        }
        drop(g);
        drop(pin);
        self.maybe_autocomplete()?;
        Ok(versions.into_iter().collect())
    }

    /// Latch-only snapshot scan: all keys alive at time `t` in `[from, to)`.
    pub fn scan_as_of(
        &self,
        from: &[u8],
        to: &[u8],
        t: Time,
    ) -> StoreResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut cur_key = from.to_vec();
        loop {
            let d = self.descend(&cur_key, 0, false, false)?;
            // Collect alive keys in this current node's key range.
            let keys: Vec<Vec<u8>> = {
                let page = d.guard.page();
                let mut ks: Vec<Vec<u8>> = Vec::new();
                for slot in 1..page.slot_count() {
                    let (k, _) = split_version_key(page.entry_key_at(slot));
                    if k >= cur_key.as_slice()
                        && k < to
                        && ks.last().is_none_or(|l| k != l.as_slice())
                    {
                        ks.push(k.to_vec());
                    }
                }
                ks
            };
            let next_low = {
                let h = TsbHeaderRef::read(d.guard.page())?;
                match h.key_high() {
                    BoundRef::Key(hk) => (hk < to).then(|| hk.to_vec()),
                    _ => None,
                }
            };
            drop(d);
            for k in keys {
                if let Some(v) = self.get_as_of(&k, t)? {
                    out.push((k, v));
                }
            }
            match next_low {
                Some(h) => cur_key = h,
                None => break,
            }
        }
        out.sort();
        out.dedup();
        Ok(out)
    }

    // ---- writes ----------------------------------------------------------------

    /// Write a new version of `key`. Returns its timestamp.
    pub fn put(&self, txn: &mut Txn<'_>, key: &[u8], value: &[u8]) -> StoreResult<Time> {
        self.write_version(txn, key, Some(value))
    }

    /// Logically delete `key` by writing a tombstone version. Returns its
    /// timestamp.
    pub fn delete(&self, txn: &mut Txn<'_>, key: &[u8]) -> StoreResult<Time> {
        self.write_version(txn, key, None)
    }

    fn write_version(
        &self,
        txn: &mut Txn<'_>,
        key: &[u8],
        value: Option<&[u8]>,
    ) -> StoreResult<Time> {
        let name = self.key_lock(key);
        loop {
            let d = self.descend(key, 0, true, true)?;
            let Some(d) = self.lock_no_wait(txn, d, &[(&name, LockMode::X)])? else {
                continue;
            };
            let t = self.structure().clock.fetch_add(1, Ordering::SeqCst) + 1;
            let entry = version_entry(key, t, value);
            if node_full(d.guard.page(), &entry, self.config().max_leaf_entries) {
                self.split_independent(d, Page::entry_key(&entry)?)?;
                continue;
            }
            let mut g = d.guard.promote().into_x();
            txn.apply_logical(
                &d.page,
                &mut g,
                PageOp::KeyedInsert { bytes: entry },
                crate::undo::TAG_TSB_REMOVE_VERSION,
                version_key(key, t),
            )?;
            drop(g);
            drop(d.page);
            self.maybe_autocomplete()?;
            return Ok(t);
        }
    }
}
