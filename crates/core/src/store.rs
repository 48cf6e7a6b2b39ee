//! Store assembly: disk + buffer pool + log + lock manager + space map.
//!
//! [`Store`] wires the substrate crates together. [`CrashableStore`] adds
//! the crash-simulation loop used by the recovery tests and experiment E3:
//! `crash()` keeps exactly what is durable (the disk image and the forced
//! log prefix — optionally truncated mid-force) and rebuilds everything
//! volatile from it, after which the caller runs recovery.

use pitree_obs::{Recorder, Registry};
use pitree_pagestore::buffer::BufferPool;
use pitree_pagestore::disk::{DiskManager, FileDisk, MemDisk};
use pitree_pagestore::fault::InjectorHandle;
use pitree_pagestore::space::SpaceMap;
use pitree_pagestore::StoreResult;
use pitree_txnlock::TxnManager;
use pitree_wal::log::{FileLogStore, LogManager, LogStore, MemLogStore};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// A fully wired store.
pub struct Store {
    /// Buffer pool over the durable disk.
    pub pool: Arc<BufferPool>,
    /// Write-ahead log.
    pub log: Arc<LogManager>,
    /// Transactions + database locks + active-action registry.
    pub txns: TxnManager,
    /// Page allocation state.
    pub space: SpaceMap,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").finish_non_exhaustive()
    }
}

impl Store {
    /// Assemble a store over the given disk and log storage. `fresh` decides
    /// whether the space map is initialized (mkfs) or opened.
    pub fn assemble(
        disk: Arc<dyn DiskManager>,
        log_store: Arc<dyn LogStore>,
        pool_frames: usize,
        max_pages: u64,
        fresh: bool,
    ) -> StoreResult<Arc<Store>> {
        // One observability registry per store: the pool, log, lock table,
        // and tree all record into it, so Registry::report() covers every
        // layer of one workload and parallel tests never share metrics.
        let registry = Registry::new();
        let pool = Arc::new(BufferPool::with_recorder(
            disk,
            pool_frames,
            registry.recorder(),
        ));
        let log = Arc::new(LogManager::open_observed(log_store, registry.recorder())?);
        pool.set_wal_hook(Arc::clone(&log) as Arc<_>);
        let space = if fresh {
            SpaceMap::init(&pool, max_pages)?
        } else {
            SpaceMap::open(&pool)?
        };
        let txns = TxnManager::new(Arc::clone(&log), Arc::clone(&pool), Duration::from_secs(10));
        Ok(Arc::new(Store {
            pool,
            log,
            txns,
            space,
        }))
    }
}

impl Store {
    /// The recorder of this store's observability registry (shared by the
    /// pool, log, lock table, and any tree opened over this store).
    pub fn recorder(&self) -> &Recorder {
        self.pool.recorder()
    }

    /// Open (or create) a file-backed store in `dir`: pages in `store.db`,
    /// the log in `store.log` (+ `store.master`). The store is fresh iff
    /// `store.db` does not exist yet.
    pub fn open_file(dir: &Path, pool_frames: usize, max_pages: u64) -> StoreResult<Arc<Store>> {
        std::fs::create_dir_all(dir)
            .map_err(|e| pitree_pagestore::StoreError::Corrupt(format!("mkdir {dir:?}: {e}")))?;
        let db_path = dir.join("store.db");
        let fresh = !db_path.exists();
        let disk = Arc::new(FileDisk::open(&db_path)?);
        let log_store = Arc::new(FileLogStore::open(&dir.join("store.log"))?);
        Store::assemble(disk, log_store, pool_frames, max_pages, fresh)
    }
}

/// An in-memory store whose volatile/durable boundary can be "crashed".
pub struct CrashableStore {
    disk: Arc<MemDisk>,
    log_store: Arc<MemLogStore>,
    /// The live store built over the durable state.
    pub store: Arc<Store>,
    pool_frames: usize,
}

impl std::fmt::Debug for CrashableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashableStore").finish_non_exhaustive()
    }
}

impl CrashableStore {
    /// A brand-new in-memory store.
    pub fn create(pool_frames: usize, max_pages: u64) -> StoreResult<CrashableStore> {
        let disk = Arc::new(MemDisk::new());
        let log_store = Arc::new(MemLogStore::new());
        let store = Store::assemble(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            Arc::clone(&log_store) as Arc<dyn LogStore>,
            pool_frames,
            max_pages,
            true,
        )?;
        Ok(CrashableStore {
            disk,
            log_store,
            store,
            pool_frames,
        })
    }

    /// A brand-new in-memory store whose durable-write boundaries (page
    /// writes and log forces) consult `injector` — the simulation kit's
    /// crash-point hook. A subsequent [`CrashableStore::crash`] yields an
    /// injector-free survivor on which recovery runs unimpeded;
    /// [`CrashableStore::crash_with_injector`] yields one whose recovery can
    /// itself be crashed.
    pub fn create_with_injector(
        pool_frames: usize,
        max_pages: u64,
        injector: InjectorHandle,
    ) -> StoreResult<CrashableStore> {
        let disk = Arc::new(MemDisk::with_injector(Arc::clone(&injector)));
        let log_store = Arc::new(MemLogStore::with_injector(injector));
        let store = Store::assemble(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            Arc::clone(&log_store) as Arc<dyn LogStore>,
            pool_frames,
            max_pages,
            true,
        )?;
        Ok(CrashableStore {
            disk,
            log_store,
            store,
            pool_frames,
        })
    }

    /// Simulate a crash: drop all volatile state (buffer pool contents,
    /// unforced log tail) and rebuild over the durable image. Recovery has
    /// **not** been run on the result; call `pitree_wal::recover` (or
    /// [`crate::PiTree::recover`]) next.
    pub fn crash(&self) -> StoreResult<CrashableStore> {
        self.crash_with_log_prefix(u64::MAX)
    }

    /// Crash, additionally truncating the durable log to `log_bytes` bytes
    /// (simulating a force cut short mid-record). Used for log-prefix
    /// crash-point sweeps.
    pub fn crash_with_log_prefix(&self, log_bytes: u64) -> StoreResult<CrashableStore> {
        self.survivor(log_bytes, None)
    }

    /// Crash into a survivor whose durable-write boundaries consult
    /// `injector`: recovery's own writes — eviction write-backs during the
    /// redo drain, the CLR/`End` force — become crash points too.
    pub fn crash_with_injector(&self, injector: InjectorHandle) -> StoreResult<CrashableStore> {
        self.survivor(u64::MAX, Some(injector))
    }

    fn survivor(
        &self,
        log_bytes: u64,
        injector: Option<InjectorHandle>,
    ) -> StoreResult<CrashableStore> {
        let disk = Arc::new(self.disk.snapshot_with(injector.clone()));
        let log_store = Arc::new(self.log_store.snapshot_with(log_bytes, injector));
        let store = Store::assemble(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            Arc::clone(&log_store) as Arc<dyn LogStore>,
            self.pool_frames,
            0,
            false,
        )?;
        Ok(CrashableStore {
            disk,
            log_store,
            store,
            pool_frames: self.pool_frames,
        })
    }

    /// Current durable log length in bytes (crash-point sweep upper bound).
    pub fn durable_log_len(&self) -> u64 {
        self.log_store.durable_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitree_pagestore::PageId;

    #[test]
    fn create_initializes_space_map() {
        let cs = CrashableStore::create(64, 10_000).unwrap();
        assert!(cs
            .store
            .space
            .is_allocated(&cs.store.pool, PageId(0))
            .unwrap());
        assert!(!cs
            .store
            .space
            .is_allocated(&cs.store.pool, PageId(5))
            .unwrap());
    }

    #[test]
    fn crash_rebuilds_from_durable_state() {
        let cs = CrashableStore::create(64, 10_000).unwrap();
        // mkfs flushed the meta/bitmap pages, so a crash immediately after
        // creation still opens.
        let cs2 = cs.crash().unwrap();
        assert_eq!(cs2.store.space.capacity(), cs.store.space.capacity());
    }

    #[test]
    fn crash_truncates_log() {
        let cs = CrashableStore::create(64, 10_000).unwrap();
        let t = cs.store.txns.begin(pitree_wal::ActionIdentity::Transaction);
        t.commit().unwrap();
        assert!(cs.durable_log_len() > 0);
        let cs2 = cs.crash_with_log_prefix(0).unwrap();
        assert_eq!(cs2.durable_log_len(), 0);
        assert!(cs2.store.log.scan(None).next().is_none());
    }
}
