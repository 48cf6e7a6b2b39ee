//! The one Π-tree engine (§2.1, §2.2): everything the B-link, TSB and hB
//! trees share, written once and statically dispatched over a
//! [`Structure`].
//!
//! A Π-tree node *directly contains* part of the search space, delegates
//! the rest through *sibling terms*, and is indexed by lazily posted *index
//! terms*. A [`Structure`] says how one member of the family encodes those
//! three things — it routes a search argument through a latched page, says
//! what to schedule when a sibling term is crossed, and runs its own
//! completing actions and logical-undo tags, and supplies the geometry of
//! its structure changes: how a node splits, where a posting goes, how a
//! term is installed — and describes one node for the well-formedness walk.
//! The [`Engine`] owns the rest: the tree registry on the meta page,
//! restart (stop-the-world and instant), the descent loop
//! ([`crate::traverse`]), the completion drain ([`crate::completion`]), the
//! independent split and §5.3 posting actions ([`crate::post`]), the undo
//! handlers ([`crate::undo`]), the well-formedness walk
//! ([`crate::wellformed`]), page allocation and the No-Wait lock step.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]

use crate::completion::{CompletionQueue, Pending};
use crate::stats::TreeStats;
use crate::store::Store;
use crate::traverse::{DescentTarget, SavedPath};
use crate::wellformed::{Description, Space};
use pitree_pagestore::buffer::PinnedPage;
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::{Page, PageType};
use pitree_pagestore::{PageId, PageOp, StoreError, StoreResult};
use pitree_txnlock::{LockError, LockMode, LockName, NoWait, Txn};
use pitree_wal::{ActionIdentity, InstantRecovery, RecoveryStats};
use std::sync::Arc;

/// What the engine reads from every structure's configuration.
pub trait TreeConfig: Copy + Send + Sync {
    /// Recovery identity of the structure's SMO atomic actions (§4.3.2).
    fn smo_identity(&self) -> ActionIdentity;
}

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

/// Where §5.3's Search and Verify Split leave a posting. (The target is
/// moved once per posting, like every descent result; boxing it would only
/// add an allocation.)
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Verified<'a> {
    /// Install the term for this node (the verified address, which §5.3
    /// allows to differ from the scheduled one) into the U-latched parent.
    Parent(DescentTarget<'a>, PageId),
    /// The posting ends before touching a page.
    Ends(PostOutcome),
}

/// What §5.3's Update Node step found in the X-latched parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Install {
    /// The term is in; split the node afterwards if it is `overfull`.
    Posted {
        /// The term fit the page, but the node is now over a cap.
        overfull: bool,
    },
    /// The parent already routes the term's space to its node.
    AlreadyPosted,
    /// No room: make room, then retry in whichever node covers the probe.
    Full,
}

/// What a latched node tells a descent to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The node directly contains the argument at the target level: done.
    Arrived,
    /// The node directly contains the argument above the target level:
    /// follow this index term down.
    Child(PageId),
    /// The argument's space was delegated: follow this sibling term.
    Side(PageId),
    /// Routing raced far ahead of a consolidation (argument below the
    /// node's space); restart from the root. Transient, CP only.
    Restart,
}

/// A routing decision plus the level of the node that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routed {
    /// Level of the routed-through node (0 for data nodes).
    pub level: u8,
    /// Where to go from it.
    pub step: Step,
}

/// One member of the Π-tree family: its node geometry and policies. All
/// methods are statically dispatched — the read path never sees a `dyn`.
pub trait Structure: Sized + Send + Sync {
    /// The public tuning knobs this structure is built from.
    type Config: TreeConfig;
    /// The search argument a descent routes by (a key, a point).
    type Arg: ?Sized;
    /// A pending completing action (§5.1).
    type Completion: Pending + Send;
    /// The regions its nodes and terms name.
    type Space: Space;
    /// Magic tagging this structure's tree-registry records on the meta page.
    const META_MAGIC: u32;

    /// Fresh structure state for a tree configured by `cfg`.
    fn new(cfg: Self::Config) -> Self;
    /// The configuration this structure was built from.
    fn config(&self) -> &Self::Config;
    /// Slot-0 bytes of a brand-new root: a data node directly containing
    /// the whole space.
    fn root_leaf_header() -> Vec<u8>;
    /// Whether descents couple latches (CP) or hold one at a time (CNS).
    fn couples_latches(&self) -> bool;
    /// Whether operations drain the completion queue inline.
    fn auto_complete(&self) -> bool;
    /// Route `arg` through the latched node `page` (id `pid`): does the node
    /// directly contain it, and if not, which index or sibling term does?
    fn route(
        &self,
        page: &Page,
        pid: PageId,
        arg: &Self::Arg,
        target_level: u8,
    ) -> StoreResult<Routed>;
    /// A descent crossed the sibling term `from → to` (`to_page` latched):
    /// schedule whatever completes the intermediate state it reveals (§5.1).
    fn side_traversal(
        eng: &Engine<Self>,
        from: PageId,
        to: PageId,
        to_page: &Page,
        path: &SavedPath,
    ) -> StoreResult<()>;
    /// Execute one completing atomic action.
    fn complete(eng: &Engine<Self>, c: Self::Completion) -> StoreResult<()>;
    /// Make room in the X-latched node `pin` for the entry keyed `pending`
    /// — split it (§3.2.1), or grow the tree if it is the root (§5.3) —
    /// logging into `act`. Returns the index-term posting the split owes;
    /// `path` is the saved path above the node.
    fn split_node(
        eng: &Engine<Self>,
        act: &mut NoWait<'_, '_>,
        pin: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        pending: &Self::Arg,
        path: &SavedPath,
    ) -> StoreResult<Option<Self::Completion>>;
    /// §5.3 Search + Verify Split for the posting `post`, whose term covers
    /// `probe`: find the parent, U-latched, or the outcome that ends it.
    /// The returned target's path is what postings owed by splits of the
    /// parent remember.
    fn locate_post<'a>(
        eng: &'a Engine<Self>,
        post: &Self::Completion,
        probe: &Self::Arg,
    ) -> StoreResult<Verified<'a>>;
    /// §5.3 Update Node: install `post`'s term for `node` into the
    /// X-latched parent, logging into `act`, if it fits.
    fn install_term(
        eng: &Engine<Self>,
        act: &mut NoWait<'_, '_>,
        pin: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        post: &Self::Completion,
        node: PageId,
    ) -> StoreResult<Install>;
    /// Execute one logical-undo compensation (§4.2).
    fn undo(eng: &Engine<Self>, tag: u8, payload: &[u8]) -> StoreResult<()>;
    /// Describe the node `page` (id `pid`) for the well-formedness walk
    /// ([`Engine::validate`]): its level, region and terms, and what is
    /// wrong with its own entries.
    fn describe(page: &Page, pid: PageId) -> StoreResult<Description<Self::Space>>;
    /// Hook run once a tree is opened (restore volatile state from disk).
    fn opened(_eng: &Engine<Self>) -> StoreResult<()> {
        Ok(())
    }
}

/// A Π-tree over a [`Store`]: the shared shell around one [`Structure`].
pub struct Engine<S: Structure> {
    store: Arc<Store>,
    tree_id: u32,
    root: PageId,
    structure: S,
    completions: Arc<CompletionQueue<S::Completion>>,
    stats: Arc<TreeStats>,
}

impl<S: Structure> std::fmt::Debug for Engine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("tree_id", &self.tree_id)
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

/// Allocate a fresh page through `chain`, logging the space-map bit. The
/// allocation latch is ordered last (§4.1.1) and is held only across the
/// find + logged set.
///
/// The first allocation in an extent also creates that extent's bitmap
/// page (never written, so the pool hands out a fresh frame) and formats
/// it, bit 0 — the bitmap itself — set, in the same action. Those two
/// records are redo-only: a formatted, empty bitmap is a valid extent, and
/// undoing the format would restore the blank page over bits that other
/// actions set once this one released the latch. Rolling the action back
/// clears only the bit it allocated.
pub fn alloc_page<'a>(store: &'a Store, chain: &mut NoWait<'_, '_>) -> StoreResult<PinnedPage<'a>> {
    let pid = {
        let mut alloc = store.space.lock_alloc();
        let free = alloc.find_free(&store.pool)?;
        let bm = store.pool.fetch_or_create(free.bitmap, PageType::Free)?;
        let mut bmg = bm.x();
        if free.format_bitmap {
            let format = PageOp::Format {
                ty: PageType::SpaceMap,
            };
            chain.apply_redo_only(&bm, &mut bmg, format)?;
            chain.apply_redo_only(&bm, &mut bmg, PageOp::SetBit { bit: 0 })?;
        }
        chain.apply(&bm, &mut bmg, PageOp::SetBit { bit: free.bit })?;
        free.pid
    };
    store.pool.fetch_or_create(pid, PageType::Free)
}

/// Allocate a page and format it as a node whose slot 0 is `header`.
/// Returns it X-latched.
pub fn new_node<'a>(
    store: &'a Store,
    chain: &mut NoWait<'_, '_>,
    header: Vec<u8>,
) -> StoreResult<(PinnedPage<'a>, XGuard<'a, Page>)> {
    let pin = alloc_page(store, chain)?;
    let mut g = pin.x();
    chain.apply(&pin, &mut g, PageOp::Format { ty: PageType::Node })?;
    chain.apply(
        &pin,
        &mut g,
        PageOp::InsertSlot {
            slot: 0,
            bytes: header,
        },
    )?;
    Ok((pin, g))
}

/// Rewrite the slot-0 header of an X-latched node.
pub fn set_header(
    chain: &mut NoWait<'_, '_>,
    pin: &PinnedPage<'_>,
    g: &mut XGuard<'_, Page>,
    header: Vec<u8>,
) -> StoreResult<()> {
    chain.apply(
        pin,
        g,
        PageOp::UpdateSlot {
            slot: 0,
            bytes: header,
        },
    )?;
    Ok(())
}

/// Where a full node splits (§3.2.1 step 2 only asks for *a* partition of
/// the directly-contained space): the slot of the first entry delegated to
/// the new sibling, given the key of the entry waiting for room. When that
/// entry continues an ascending run — it lands, in the upper half, directly
/// after the node's two latest inserts — the split is where it lands: the
/// run's node stays full, only what sorts after the run moves (the last
/// entry when nothing does, so the sibling is never empty), and the run goes
/// on in a node with room. Any other position splits in the middle, which
/// keeps both halves at least half full.
pub fn split_slot(page: &Page, pending_key: &[u8]) -> u16 {
    let n = page.entry_count();
    let mid = 1 + n / 2;
    let (Ok(lands) | Err(lands)) = page.keyed_probe(pending_key);
    if lands > mid && page.ends_ascending_run(lands - 1) {
        lands.min(n)
    } else {
        mid
    }
}

/// Move the keyed entries in `slots` of `from` into `to` (§3.2.1 steps
/// 3/4): one logged `KeyedInsertMany` into `to`, then one `KeyedRemoveMany`
/// from `from`. Each applies entry by entry, in slot order.
pub fn move_entries(
    chain: &mut NoWait<'_, '_>,
    from: &PinnedPage<'_>,
    from_g: &mut XGuard<'_, Page>,
    to: &PinnedPage<'_>,
    to_g: &mut XGuard<'_, Page>,
    slots: std::ops::RangeInclusive<u16>,
) -> StoreResult<()> {
    let (entries, keys): (Vec<_>, Vec<_>) = slots
        .map(|slot| (from_g.entry_at(slot), from_g.entry_key_at(slot).to_vec()))
        .unzip();
    if entries.is_empty() {
        return Ok(());
    }
    chain.apply(to, to_g, PageOp::KeyedInsertMany { entries })?;
    chain.apply(from, from_g, PageOp::KeyedRemoveMany { keys })?;
    Ok(())
}

/// Convert a lock failure into a store error at the API boundary. The
/// requester is the deadlock victim; callers abort the transaction and
/// retry.
pub fn lock_err(e: LockError) -> StoreError {
    match e {
        LockError::Deadlock => StoreError::LockFailed { deadlock: true },
        LockError::Timeout => StoreError::LockFailed { deadlock: false },
        LockError::WouldBlock => {
            StoreError::Corrupt("WouldBlock escaped the No-Wait retry loop".into())
        }
    }
}

/// The root recorded by the meta-page record `rec`, if it is the 16-byte
/// tree-registry record `(magic, tree id, root)` of this tree.
fn registry_root(rec: &[u8], magic: u32, tree_id: u32) -> Option<PageId> {
    let (m, rest) = rec.split_first_chunk::<4>()?;
    let (id, root) = rest.split_first_chunk::<4>()?;
    let root: [u8; 8] = root.try_into().ok()?;
    (u32::from_le_bytes(*m) == magic && u32::from_le_bytes(*id) == tree_id)
        .then_some(PageId(u64::from_le_bytes(root)))
}

impl<S: Structure> Engine<S> {
    // ---- lifecycle -------------------------------------------------------------

    fn assemble(store: Arc<Store>, tree_id: u32, root: PageId, cfg: S::Config) -> Engine<S> {
        let stats = Arc::new(TreeStats::new(store.recorder()));
        Engine {
            store,
            tree_id,
            root,
            structure: S::new(cfg),
            completions: Arc::new(CompletionQueue::default()),
            stats,
        }
    }

    /// Create a new tree with id `tree_id`: allocate its (fixed, immortal)
    /// root page and register it on the meta page. Forces the log so the
    /// tree's existence survives any crash.
    pub fn create(store: Arc<Store>, tree_id: u32, cfg: S::Config) -> StoreResult<Engine<S>> {
        let mut act = store.txns.begin(ActionIdentity::Transaction);
        let root = new_node(&store, &mut act.no_wait(), S::root_leaf_header())?
            .0
            .id();
        {
            let meta = store.pool.fetch(PageId(0))?;
            let mut g = meta.x();
            let slot = g.slot_count();
            let mut rec = Vec::with_capacity(16);
            rec.extend_from_slice(&S::META_MAGIC.to_le_bytes());
            rec.extend_from_slice(&tree_id.to_le_bytes());
            rec.extend_from_slice(&root.0.to_le_bytes());
            act.apply(&meta, &mut g, PageOp::InsertSlot { slot, bytes: rec })?;
        }
        act.commit()?;
        Ok(Engine::assemble(store, tree_id, root, cfg))
    }

    /// Open an existing tree by id, reading its root from the meta page.
    pub fn open(store: Arc<Store>, tree_id: u32, cfg: S::Config) -> StoreResult<Engine<S>> {
        let root = {
            let meta = store.pool.fetch(PageId(0))?;
            let g = meta.s();
            let mut found = None;
            for slot in 1..g.slot_count() {
                found = registry_root(g.get(slot)?, S::META_MAGIC, tree_id);
                if found.is_some() {
                    break;
                }
            }
            found.ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "tree {tree_id} (magic {:#x}) not registered",
                    S::META_MAGIC
                ))
            })?
        };
        let eng = Engine::assemble(store, tree_id, root, cfg);
        S::opened(&eng)?;
        Ok(eng)
    }

    /// Open the tree and run full crash recovery (redo + undo, with this
    /// tree's logical-undo handler registered). The usual restart sequence:
    /// [`Engine::recover_instant`], then the calling thread drains the whole
    /// redo plan before the tree is handed out.
    pub fn recover(
        store: Arc<Store>,
        tree_id: u32,
        cfg: S::Config,
    ) -> StoreResult<(Engine<S>, RecoveryStats)> {
        let (eng, plan, mut stats) = Engine::recover_instant(store, tree_id, cfg)?;
        plan.drain(&eng.store.pool, &mut stats)?;
        Ok((eng, stats))
    }

    /// Open the tree with **instant restart**: analysis + undo only, then
    /// serve traffic immediately, with redo running per page at first pin.
    /// Redo must repeat history before a page is readable — the meta page
    /// itself may need redo — yet logical undo needs an open tree: the
    /// handler opens one lazily, through the installed redo plan.
    /// Returns the tree plus the [`InstantRecovery`] plan — call
    /// [`InstantRecovery::drive`] on background threads to finish redo while
    /// the tree serves (or let traffic drain it).
    ///
    /// Sound for every Π-tree by §4.3.2: an interrupted structure change
    /// leaves the tree well-formed but intermediate, and normal traffic
    /// detects and completes it lazily — so serving against a partially
    /// redone store is just serving an older well-formed state of each
    /// not-yet-touched page. See `RECOVERY.md` for the full argument.
    pub fn recover_instant(
        store: Arc<Store>,
        tree_id: u32,
        cfg: S::Config,
    ) -> StoreResult<(Engine<S>, Arc<InstantRecovery>, RecoveryStats)> {
        let handler = crate::undo::DeferredHandler::<S>::new(Arc::clone(&store), tree_id, cfg);
        let (plan, stats) = pitree_wal::start_instant(&store.pool, &store.log, Some(&handler))?;
        // `open` reads the meta page, which redoes it on demand if needed.
        Ok((Engine::open(store, tree_id, cfg)?, plan, stats))
    }

    // ---- accessors -------------------------------------------------------------

    /// The underlying store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The tree's configuration.
    pub fn config(&self) -> &S::Config {
        self.structure.config()
    }

    /// The structure (geometry + policies) this engine runs.
    pub fn structure(&self) -> &S {
        &self.structure
    }

    /// This tree's id (namespaces its lock names).
    pub fn tree_id(&self) -> u32 {
        self.tree_id
    }

    /// The fixed root page ("we ensure that the root does not move and is
    /// never de-allocated", §5.2.2).
    pub fn root_pid(&self) -> PageId {
        self.root
    }

    /// Operation counters.
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// The store's observability recorder (for `op.*` latency histograms
    /// and `Registry::report`).
    pub fn recorder(&self) -> &pitree_obs::Recorder {
        self.store.recorder()
    }

    /// Shared handle to the counters (for commit hooks).
    pub(crate) fn stats_arc(&self) -> Arc<TreeStats> {
        Arc::clone(&self.stats)
    }

    /// Shared handle to the completion queue (for commit hooks).
    pub(crate) fn completions_arc(&self) -> Arc<CompletionQueue<S::Completion>> {
        Arc::clone(&self.completions)
    }

    /// The completion queue (§5.1).
    pub fn completions(&self) -> &CompletionQueue<S::Completion> {
        &self.completions
    }

    /// Schedule a completing action (duplicates are suppressed).
    pub fn schedule(&self, c: S::Completion) {
        if self.completions.push(c) {
            self.stats.postings_scheduled.inc();
        }
    }

    /// Begin a user database transaction on this tree's store.
    pub fn begin(&self) -> Txn<'_> {
        self.store.txns.begin(ActionIdentity::Transaction)
    }

    /// Run `op` in a fresh user transaction the way any client must: a lock
    /// failure (deadlock victim or wait timeout) aborts the transaction and
    /// starts over from `begin`. Hands back the still-live transaction with
    /// `op`'s value, so the caller chooses the commit — forced
    /// ([`Txn::commit`]) or publish-then-ack ([`Txn::commit_publish`]). Any
    /// other error rolls the transaction back and is returned unchanged.
    pub fn autocommit<'a, T>(
        &'a self,
        mut op: impl FnMut(&mut Txn<'a>) -> StoreResult<T>,
    ) -> StoreResult<(Txn<'a>, T)> {
        loop {
            let mut txn = self.begin();
            match op(&mut txn) {
                Ok(v) => return Ok((txn, v)),
                Err(e) => {
                    let _ = txn.abort(Some(&self.undo_handler()));
                    if !matches!(e, StoreError::LockFailed { .. }) {
                        return Err(e);
                    }
                }
            }
        }
    }

    /// The lock name of a record key.
    pub fn key_lock(&self, key: &[u8]) -> LockName {
        let mut name = Vec::with_capacity(4 + key.len());
        name.extend_from_slice(&self.tree_id.to_le_bytes());
        name.extend_from_slice(key);
        LockName::Key(name)
    }

    /// Finish a point read at the data node `d`: one in-place probe for
    /// `key`, whose payload copy is the read's only allocation; then release
    /// the node and drain completions if the structure asks for it.
    pub fn finish_get(&self, d: DescentTarget<'_>, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        let out = d
            .guard
            .page()
            .keyed_lookup(key)
            .map(|(_, payload)| payload.to_vec());
        drop(d);
        self.maybe_autocomplete()?;
        Ok(out)
    }

    // ---- the No-Wait Rule ------------------------------------------------------

    /// Take `locks` for `txn` while the descent `d` holds its latch, under
    /// the **No-Wait Rule** (§4.1.2): acquisition under a latch is
    /// conditional; on conflict the latch is released *before* blocking, and
    /// `None` tells the caller to re-descend (the locks are then held).
    pub fn lock_no_wait<'a>(
        &self,
        txn: &Txn<'_>,
        d: DescentTarget<'a>,
        locks: &[(&LockName, LockMode)],
    ) -> StoreResult<Option<DescentTarget<'a>>> {
        match locks.iter().try_for_each(|(n, m)| txn.try_lock(n, *m)) {
            Ok(()) => Ok(Some(d)),
            Err(LockError::WouldBlock) => {
                drop(d);
                self.stats.no_wait_restarts.inc();
                for (name, mode) in locks {
                    txn.lock(name, *mode).map_err(lock_err)?;
                }
                Ok(None)
            }
            Err(e) => Err(lock_err(e)),
        }
    }
}
