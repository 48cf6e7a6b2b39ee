//! Transactions and tracked atomic actions.
//!
//! [`TxnManager::begin`] starts either a user **database transaction**
//! (identity [`ActionIdentity::Transaction`]: forced commit, database locks
//! released at end — strict 2PL) or an independent **atomic action**
//! (identities of §4.3.2: unforced, relatively durable commit). Both are
//! registered in an active-action table so fuzzy checkpoints can log them.
//!
//! Commit hooks implement the paper's deferred index-term posting: "The
//! posting of the index term for splits cannot occur until and unless T
//! commits" (§4.2.2) — a split performed inside a transaction queues its
//! posting as a commit hook.
//!
//! Commit is split in two for group-commit pipelining: [`Txn::commit_publish`]
//! appends the `Commit` record and releases locks immediately (**early lock
//! release** — the transaction can no longer abort once its commit is in
//! the log), returning a [`PendingCommit`] whose
//! [`wait_durable`](PendingCommit::wait_durable) blocks on the durable
//! watermark before acknowledging and running hooks. [`Txn::commit`] is the
//! two steps back to back.

use crate::modes::LockMode;
use crate::table::{LockError, LockName, LockTable};
use pitree_obs::Counter;
use pitree_pagestore::buffer::{BufferPool, PinnedPage};
use pitree_pagestore::latch::XGuard;
use pitree_pagestore::page::Page;
use pitree_pagestore::sync::{FixedMap, Mutex};
use pitree_pagestore::{Lsn, PageOp, StoreResult};
use pitree_wal::recovery::LogicalUndoHandler;
use pitree_wal::{take_checkpoint, ActionId, ActionIdentity, AtomicAction, LogManager};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Table of live actions/transactions, feeding fuzzy checkpoints.
#[derive(Default)]
pub struct ActiveRegistry {
    inner: Mutex<FixedMap<ActionId, (ActionIdentity, Arc<AtomicU64>)>>,
}

impl std::fmt::Debug for ActiveRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveRegistry").finish_non_exhaustive()
    }
}

impl ActiveRegistry {
    fn register(&self, id: ActionId, identity: ActionIdentity) -> Arc<AtomicU64> {
        let cell = Arc::new(AtomicU64::new(0));
        self.inner.lock().insert(id, (identity, Arc::clone(&cell)));
        cell
    }

    fn deregister(&self, id: ActionId) {
        self.inner.lock().remove(&id);
    }

    /// Snapshot `(id, identity, last LSN)` of every live action.
    pub fn snapshot(&self) -> Vec<(ActionId, ActionIdentity, Lsn)> {
        self.inner
            .lock()
            .iter()
            .map(|(&id, (ident, cell))| (id, *ident, Lsn(cell.load(Ordering::SeqCst))))
            .collect()
    }

    /// Number of live actions.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether no action is live.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

/// Shared per-store transaction infrastructure: log, buffer pool, lock
/// table, active-action registry.
pub struct TxnManager {
    log: Arc<LogManager>,
    pool: Arc<BufferPool>,
    locks: LockTable,
    registry: ActiveRegistry,
    /// User-transaction commits whose locks were released at log-append,
    /// ahead of the durable watermark (early lock release).
    elr_released: Counter,
    /// Fuzzy-checkpoint trigger: take a checkpoint once this many log bytes
    /// have been appended since the last one. 0 (the default) disables the
    /// trigger — callers opt in with
    /// [`TxnManager::set_checkpoint_every_bytes`], keeping byte-for-byte
    /// log determinism for workloads that don't.
    ckpt_every: AtomicU64,
    /// At most one thread runs the checkpoint; others skip and move on.
    ckpt_busy: AtomicBool,
    /// Checkpoints that failed (e.g. injected log faults); the trigger
    /// re-arms and a later commit retries (`wal.ckpt_failed`).
    ckpt_failed: Counter,
}

impl std::fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnManager").finish_non_exhaustive()
    }
}

impl TxnManager {
    /// Build a manager over the store's log and pool. `lock_timeout` is the
    /// lock table's wait safety net. The lock table records into the pool's
    /// registry, so one [`pitree_obs::Registry::report`] covers all layers.
    pub fn new(log: Arc<LogManager>, pool: Arc<BufferPool>, lock_timeout: Duration) -> TxnManager {
        let rec = pool.recorder().clone();
        let locks = LockTable::with_recorder(lock_timeout, rec.clone());
        TxnManager {
            log,
            pool,
            locks,
            registry: ActiveRegistry::default(),
            elr_released: rec.counter("txn.elr_released"),
            ckpt_every: AtomicU64::new(0),
            ckpt_busy: AtomicBool::new(false),
            ckpt_failed: rec.counter("wal.ckpt_failed"),
        }
    }

    /// The write-ahead log.
    pub fn log(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// The buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The database lock table.
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// The active-action registry (for checkpoints and tests).
    pub fn registry(&self) -> &ActiveRegistry {
        &self.registry
    }

    /// Begin a transaction or atomic action with the given recovery
    /// identity.
    pub fn begin(&self, identity: ActionIdentity) -> Txn<'_> {
        let inner = AtomicAction::begin(&self.log, identity);
        let cell = self.registry.register(inner.id(), identity);
        cell.store(inner.last_lsn().0, Ordering::SeqCst);
        Txn {
            mgr: self,
            inner,
            cell,
            hooks: Vec::new(),
        }
    }

    /// Take a fuzzy checkpoint including the live-action table.
    pub fn checkpoint(&self) -> StoreResult<Lsn> {
        take_checkpoint(&self.pool, &self.log, self.registry.snapshot())
    }

    /// Arm (or with 0, disarm) the automatic fuzzy-checkpoint trigger:
    /// after every commit publish, if at least `bytes` of log have been
    /// appended since the last checkpoint, one thread takes a checkpoint
    /// inline. Bounds the redo scan of a future recovery to roughly
    /// `bytes` of log regardless of how long the store has been up.
    pub fn set_checkpoint_every_bytes(&self, bytes: u64) {
        self.ckpt_every.store(bytes, Ordering::SeqCst);
    }

    /// Run the checkpoint trigger: no-op unless armed, due, and no other
    /// thread is mid-checkpoint. A failed checkpoint is counted
    /// (`wal.ckpt_failed`) and the trigger re-arms — the store keeps
    /// running on the old master, it just has more log to replay.
    fn maybe_checkpoint(&self) {
        let every = self.ckpt_every.load(Ordering::SeqCst);
        if every == 0 || self.log.bytes_since_checkpoint() < every {
            return;
        }
        if self
            .ckpt_busy
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        if self.checkpoint().is_err() {
            self.ckpt_failed.inc();
        }
        self.ckpt_busy.store(false, Ordering::SeqCst);
    }
}

/// A live transaction or tracked atomic action.
pub struct Txn<'a> {
    mgr: &'a TxnManager,
    inner: AtomicAction<'a>,
    cell: Arc<AtomicU64>,
    hooks: Vec<Box<dyn FnOnce() + Send + 'a>>,
}

impl std::fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn").finish_non_exhaustive()
    }
}

impl<'a> Txn<'a> {
    /// The action id (also the lock owner id).
    pub fn id(&self) -> ActionId {
        self.inner.id()
    }

    /// The recovery identity this action was begun with.
    pub fn identity(&self) -> ActionIdentity {
        self.inner.identity()
    }

    /// LSN of the most recent record logged by this action.
    pub fn last_lsn(&self) -> Lsn {
        self.inner.last_lsn()
    }

    /// Acquire a database lock, blocking; deadlock makes this fail.
    pub fn lock(&self, name: &LockName, mode: LockMode) -> Result<(), LockError> {
        self.mgr.locks.acquire(self.id(), name, mode)
    }

    /// Acquire a database lock without waiting (No-Wait Rule, §4.1.2).
    pub fn try_lock(&self, name: &LockName, mode: LockMode) -> Result<(), LockError> {
        self.mgr.locks.try_acquire(self.id(), name, mode)
    }

    /// Release one hold on a lock early (used for instant-duration locks;
    /// 2PL-sensitive callers should prefer end-of-action release).
    pub fn unlock(&self, name: &LockName) {
        self.mgr.locks.release(self.id(), name);
    }

    /// Log and apply a page operation with page-oriented undo.
    pub fn apply(
        &mut self,
        page: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        op: PageOp,
    ) -> StoreResult<Lsn> {
        let lsn = self.inner.apply(page, g, op)?;
        self.cell.store(lsn.0, Ordering::SeqCst);
        Ok(lsn)
    }

    /// Log and apply a page operation with logical undo.
    pub fn apply_logical(
        &mut self,
        page: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        op: PageOp,
        tag: u8,
        payload: Vec<u8>,
    ) -> StoreResult<Lsn> {
        let lsn = self.inner.apply_logical(page, g, op, tag, payload)?;
        self.cell.store(lsn.0, Ordering::SeqCst);
        Ok(lsn)
    }

    /// Log and apply a redo-only page operation.
    pub fn apply_redo_only(
        &mut self,
        page: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        op: PageOp,
    ) -> StoreResult<Lsn> {
        let lsn = self.inner.apply_redo_only(page, g, op)?;
        self.cell.store(lsn.0, Ordering::SeqCst);
        Ok(lsn)
    }

    /// This action's [`NoWait`] view, for the structure changes it runs
    /// while latched (a split inside a transaction).
    pub fn no_wait(&mut self) -> NoWait<'_, 'a> {
        NoWait { txn: self }
    }

    /// Defer `hook` until (and unless) this action commits — the deferred
    /// index-posting mechanism of §4.2.2. Hooks run after locks are
    /// released.
    pub fn on_commit(&mut self, hook: impl FnOnce() + Send + 'a) {
        self.hooks.push(Box::new(hook));
    }

    /// Publish this action's commit without waiting for durability: append
    /// the `Commit` record, release every database lock (early lock
    /// release), and deregister. Past this point the action is *committed
    /// in the log* — it can no longer abort, and successors may acquire the
    /// released locks and build on its writes — but it is **not yet
    /// acknowledged**: externally visible success must wait for
    /// [`PendingCommit::wait_durable`], which blocks until the durable
    /// watermark covers the commit LSN and then runs the deferred commit
    /// hooks. Dependent pipelined commits need no extra bookkeeping: a
    /// successor's commit record lands later in the same log, so any force
    /// covering it covers this one first (prefix forcing).
    pub fn commit_publish(self) -> PendingCommit<'a> {
        let Txn {
            mgr,
            inner,
            cell: _,
            hooks,
        } = self;
        let id = inner.id();
        let forced = matches!(inner.identity(), ActionIdentity::Transaction);
        let lsn = inner.commit_append();
        mgr.locks.release_all(id);
        mgr.registry.deregister(id);
        if forced {
            mgr.elr_released.inc();
        }
        mgr.maybe_checkpoint();
        PendingCommit {
            mgr,
            lsn,
            forced,
            hooks,
        }
    }

    /// Commit and acknowledge. User transactions force the log; atomic
    /// actions rely on relative durability (§4.3.1). Locks are released at
    /// log-append, the ack waits for the durable watermark, then commit
    /// hooks run.
    pub fn commit(self) -> StoreResult<Lsn> {
        self.commit_publish().wait_durable()
    }

    /// Roll back: undo every logged update (page-oriented or via `handler`
    /// for logical undo), release locks, drop commit hooks unrun.
    pub fn abort(self, handler: Option<&dyn LogicalUndoHandler>) -> StoreResult<()> {
        let Txn {
            mgr,
            inner,
            cell: _,
            hooks,
        } = self;
        let id = inner.id();
        inner.rollback(&mgr.pool, handler)?;
        mgr.locks.release_all(id);
        mgr.registry.deregister(id);
        drop(hooks);
        Ok(())
    }
}

/// A [`Txn`] as a completing atomic action sees it: it logs and applies page
/// operations and probes locks with [`NoWait::try_lock`], and has no
/// blocking `lock`. A structure change runs with latches held, so under the
/// No-Wait Rule (§4.2.2) it never waits for a database lock; handing it
/// this view, not the `Txn`, makes a wait unwritable.
///
/// ```compile_fail,E0599
/// use pitree_txnlock::{LockMode, LockName, NoWait};
/// fn install_term(act: &mut NoWait<'_, '_>, name: &LockName) {
///     act.lock(name, LockMode::X).unwrap(); // no blocking lock on the view
/// }
/// ```
///
/// ```
/// use pitree_txnlock::{LockMode, LockName, NoWait};
/// fn install_term(act: &mut NoWait<'_, '_>, name: &LockName) {
///     act.try_lock(name, LockMode::X).unwrap();
/// }
/// ```
///
/// Every helper a completion reaches is handed the same view, so a wait
/// two calls away does not compile either:
///
/// ```compile_fail,E0599
/// use pitree_txnlock::{LockMode, LockName, NoWait};
/// fn finish(act: &mut NoWait<'_, '_>, name: &LockName) {
///     grow(act, name);
/// }
/// fn grow(act: &mut NoWait<'_, '_>, name: &LockName) {
///     reserve(act, name);
/// }
/// fn reserve(act: &mut NoWait<'_, '_>, name: &LockName) {
///     act.lock(name, LockMode::Move).unwrap(); // no blocking lock on the view
/// }
/// ```
///
/// ```
/// use pitree_txnlock::{LockMode, LockName, NoWait};
/// fn finish(act: &mut NoWait<'_, '_>, name: &LockName) {
///     grow(act, name);
/// }
/// fn grow(act: &mut NoWait<'_, '_>, name: &LockName) {
///     reserve(act, name);
/// }
/// fn reserve(act: &mut NoWait<'_, '_>, name: &LockName) {
///     act.try_lock(name, LockMode::Move).unwrap();
/// }
/// ```
pub struct NoWait<'t, 'a> {
    txn: &'t mut Txn<'a>,
}

impl std::fmt::Debug for NoWait<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NoWait").finish_non_exhaustive()
    }
}

impl NoWait<'_, '_> {
    /// The action id (also the lock owner id).
    pub fn id(&self) -> ActionId {
        self.txn.id()
    }

    /// The recovery identity the action was begun with.
    pub fn identity(&self) -> ActionIdentity {
        self.txn.identity()
    }

    /// [`Txn::try_lock`]: acquire a database lock without waiting.
    pub fn try_lock(&self, name: &LockName, mode: LockMode) -> Result<(), LockError> {
        self.txn.try_lock(name, mode)
    }

    /// [`Txn::apply`]: log and apply with page-oriented undo.
    pub fn apply(
        &mut self,
        page: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        op: PageOp,
    ) -> StoreResult<Lsn> {
        self.txn.apply(page, g, op)
    }

    /// [`Txn::apply_logical`]: log and apply with logical undo.
    pub fn apply_logical(
        &mut self,
        page: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        op: PageOp,
        tag: u8,
        payload: Vec<u8>,
    ) -> StoreResult<Lsn> {
        self.txn.apply_logical(page, g, op, tag, payload)
    }

    /// [`Txn::apply_redo_only`]: log and apply a redo-only operation.
    pub fn apply_redo_only(
        &mut self,
        page: &PinnedPage<'_>,
        g: &mut XGuard<'_, Page>,
        op: PageOp,
    ) -> StoreResult<Lsn> {
        self.txn.apply_redo_only(page, g, op)
    }
}

/// A transaction past its commit point: the `Commit` record is in the log
/// and its locks are released, but the acknowledgement — and the deferred
/// commit hooks of §4.2.2 — still wait on the durable watermark. Dropping
/// the handle abandons the ack (and the hooks), not the commit: the record
/// is in the log and rides whatever force comes next.
#[must_use = "a published commit is acknowledged only by wait_durable()"]
pub struct PendingCommit<'a> {
    mgr: &'a TxnManager,
    lsn: Lsn,
    forced: bool,
    hooks: Vec<Box<dyn FnOnce() + Send + 'a>>,
}

impl std::fmt::Debug for PendingCommit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingCommit")
            .field("lsn", &self.lsn)
            .field("forced", &self.forced)
            .finish_non_exhaustive()
    }
}

impl PendingCommit<'_> {
    /// LSN of the published `Commit` record.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// Whether the durable watermark already covers the commit record
    /// (batches are frame-aligned, so covering the frame start covers it
    /// whole).
    pub fn is_durable(&self) -> bool {
        self.mgr.log.flushed_lsn() >= self.lsn
    }

    /// Block until the commit is durable — joining (or leading) a
    /// group-commit force — then run the deferred commit hooks and return
    /// the commit LSN. This is the acknowledgement point: only after it
    /// returns may success be reported externally. Atomic actions
    /// (relatively durable, §4.3.1) return immediately. On a force error
    /// the hooks are skipped and the commit stays unacknowledged, but the
    /// record remains in the log and recovery honours it if a later force
    /// lands it.
    pub fn wait_durable(self) -> StoreResult<Lsn> {
        if self.forced {
            self.mgr.log.force_to(self.lsn)?;
        }
        for hook in self.hooks {
            hook();
        }
        Ok(self.lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitree_pagestore::page::PageType;
    use pitree_pagestore::{MemDisk, PageId};
    use pitree_wal::{LogStore, MemLogStore};
    use std::sync::atomic::AtomicBool;

    fn mgr() -> TxnManager {
        let disk = Arc::new(MemDisk::new());
        let pool = Arc::new(BufferPool::new(disk, 32));
        let log =
            Arc::new(LogManager::open(Arc::new(MemLogStore::new()) as Arc<dyn LogStore>).unwrap());
        pool.set_wal_hook(Arc::clone(&log) as Arc<_>);
        TxnManager::new(log, pool, Duration::from_secs(2))
    }

    #[test]
    fn commit_releases_locks_and_runs_hooks() {
        let m = mgr();
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        let mut t = m.begin(ActionIdentity::Transaction);
        t.lock(&LockName::Key(b"k".to_vec()), LockMode::X).unwrap();
        t.on_commit(move || r2.store(true, Ordering::SeqCst));
        assert_eq!(m.registry().len(), 1);
        t.commit().unwrap();
        assert!(ran.load(Ordering::SeqCst));
        assert!(m.registry().is_empty());
        // Lock is free again.
        let t2 = m.begin(ActionIdentity::Transaction);
        t2.try_lock(&LockName::Key(b"k".to_vec()), LockMode::X)
            .unwrap();
        t2.commit().unwrap();
    }

    #[test]
    fn abort_undoes_and_skips_hooks() {
        let m = mgr();
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        let page = m.pool().fetch_or_create(PageId(5), PageType::Node).unwrap();
        let mut t = m.begin(ActionIdentity::Transaction);
        {
            let mut g = page.x();
            t.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 0,
                    bytes: b"z".to_vec(),
                },
            )
            .unwrap();
        }
        t.on_commit(move || r2.store(true, Ordering::SeqCst));
        t.abort(None).unwrap();
        assert!(!ran.load(Ordering::SeqCst), "hooks must not run on abort");
        assert_eq!(page.s().slot_count(), 0);
        assert!(m.registry().is_empty());
    }

    #[test]
    fn transaction_commit_forces_log() {
        let m = mgr();
        let page = m.pool().fetch_or_create(PageId(5), PageType::Node).unwrap();
        let mut t = m.begin(ActionIdentity::Transaction);
        {
            let mut g = page.x();
            t.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 0,
                    bytes: b"d".to_vec(),
                },
            )
            .unwrap();
        }
        let lsn = t.commit().unwrap();
        assert!(m.log().flushed_lsn() >= lsn);
    }

    #[test]
    fn system_action_commit_does_not_force() {
        let m = mgr();
        let page = m.pool().fetch_or_create(PageId(5), PageType::Node).unwrap();
        let mut t = m.begin(ActionIdentity::SystemTransaction);
        {
            let mut g = page.x();
            t.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 0,
                    bytes: b"d".to_vec(),
                },
            )
            .unwrap();
        }
        t.commit().unwrap();
        assert_eq!(m.log().flushed_lsn(), Lsn(0));
    }

    #[test]
    fn registry_snapshot_carries_last_lsn() {
        let m = mgr();
        let page = m.pool().fetch_or_create(PageId(5), PageType::Node).unwrap();
        let mut t = m.begin(ActionIdentity::Transaction);
        {
            let mut g = page.x();
            t.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 0,
                    bytes: b"d".to_vec(),
                },
            )
            .unwrap();
        }
        let snap = m.registry().snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, t.id());
        assert_eq!(snap[0].2, t.last_lsn());
        t.commit().unwrap();
    }

    #[test]
    fn checkpoint_includes_active_actions() {
        let m = mgr();
        let t = m.begin(ActionIdentity::Transaction);
        let ckpt = m.checkpoint().unwrap();
        let rec = m.log().read(ckpt).unwrap();
        match rec.kind {
            pitree_wal::RecordKind::Checkpoint { active, .. } => {
                assert_eq!(active.len(), 1);
                assert_eq!(active[0].0, t.id());
            }
            other => panic!("expected checkpoint, got {other:?}"),
        }
        t.commit().unwrap();
    }

    #[test]
    fn commit_publish_releases_locks_before_durability() {
        let m = mgr();
        let name = LockName::Key(b"elr".to_vec());
        let page = m.pool().fetch_or_create(PageId(5), PageType::Node).unwrap();
        let mut t = m.begin(ActionIdentity::Transaction);
        t.lock(&name, LockMode::X).unwrap();
        {
            let mut g = page.x();
            t.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 0,
                    bytes: b"v".to_vec(),
                },
            )
            .unwrap();
        }
        let pc = t.commit_publish();
        // Committed in the log, not yet durable, not yet acknowledged…
        assert!(!pc.is_durable(), "publish must not force the log");
        assert!(m.registry().is_empty());
        // …but a successor can already jump the released lock.
        let t2 = m.begin(ActionIdentity::Transaction);
        t2.try_lock(&name, LockMode::X)
            .expect("early lock release: successor must acquire the lock");
        std::mem::forget(t2);
        let lsn = pc.wait_durable().unwrap();
        assert!(m.log().flushed_lsn() >= lsn, "ack implies durable");
        assert_eq!(m.pool().recorder().counter("txn.elr_released").get(), 1);
    }

    #[test]
    fn commit_hooks_run_at_ack_not_at_publish() {
        let m = mgr();
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        let mut t = m.begin(ActionIdentity::Transaction);
        t.on_commit(move || r2.store(true, Ordering::SeqCst));
        let pc = t.commit_publish();
        assert!(
            !ran.load(Ordering::SeqCst),
            "hooks are externally visible results: they wait for the watermark"
        );
        pc.wait_durable().unwrap();
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn no_wait_rule_try_lock_path() {
        let m = mgr();
        let t1 = m.begin(ActionIdentity::Transaction);
        let t2 = m.begin(ActionIdentity::Transaction);
        let name = LockName::Key(b"hot".to_vec());
        t1.lock(&name, LockMode::X).unwrap();
        // t2, notionally holding a latch, must use try_lock and see
        // WouldBlock instead of waiting.
        assert_eq!(t2.try_lock(&name, LockMode::S), Err(LockError::WouldBlock));
        t1.commit().unwrap();
        t2.try_lock(&name, LockMode::S).unwrap();
        t2.commit().unwrap();
    }
}
