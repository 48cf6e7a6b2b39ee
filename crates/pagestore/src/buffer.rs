//! Buffer pool: latched page frames with WAL-protocol enforcement.
//!
//! The pool owns a fixed set of frames, each holding a [`Page`] behind an
//! S/U/X [`Latch`]. Tree code pins a page with [`BufferPool::fetch`], then
//! latches it in the mode its protocol requires; the borrow rules make it
//! impossible to touch page bytes without an appropriate guard.
//!
//! A frame starts *vacant*: it has no page buffer until the first page is
//! loaded or formatted into it, so the pool's memory follows the pages it
//! holds (`buf.frames_materialised` × 4 KB), not the capacity it was given.
//!
//! The WAL protocol (§4.3.1) is enforced here: before a dirty page is written
//! to durable storage (eviction, checkpoint, shutdown), the registered
//! [`WalFlush`] hook is asked to force the log up to the page's LSN. And a
//! page's content changes only after its log record exists: outside this
//! crate an X guard reads only, so [`PinnedPage::apply_logged`] (which runs
//! the append first) and [`PinnedPage::replay`] (a record already in the
//! log) are the only writers.
//!
//! # Sharding
//!
//! The page table and clock hand are sharded by `PageId` hash: each shard
//! owns a contiguous range of frames and its own mutex, so fetches of pages
//! in different shards never contend. Miss-path disk reads and eviction
//! write-backs run **outside** the shard lock: the victim frame is marked
//! `io_pending` and the affected table entries are flipped to a busy state,
//! so concurrent fetchers of the same page wait on the shard's condvar (on
//! the *frame's* I/O, not on the shard) while unrelated fetches in the same
//! shard proceed. Pools small enough for the existing eviction tests
//! (≤ 16 frames) get a single shard, preserving exact clock semantics.
//!
//! # Instant recovery
//!
//! During instant restart the recovery layer installs a [`RedoHook`] via
//! [`BufferPool::begin_recovery`]. While the hook is installed, every fetch
//! replays the page's pending redo records before the pin is handed out, and
//! a `PageNotFound` miss for a page the hook still owes records is formatted
//! fresh instead of failing (the page may exist only in the log). The hook is
//! uninstalled automatically once it reports itself complete.
//!
//! Checkpoint visibility invariant: a frame's `pid` and dirty flag are never
//! cleared *before* its write-back I/O completes (eviction and
//! [`BufferPool::flush_all`] both clear after the write). A fuzzy checkpoint
//! taken mid-write therefore still lists the page in its dirty-page table —
//! conservative, never lossy.

use crate::disk::DiskManager;
use crate::error::{StoreError, StoreResult};
use crate::ids::{Lsn, PageId};
use crate::latch::{Latch, LatchObs, SGuard, UGuard, XGuard};
use crate::page::{Page, PageType};
use crate::pageops::PageOp;
use crate::sync::{Condvar, Mutex, MutexGuard};
use pitree_obs::{Counter, Hist, Recorder, Stopwatch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Hook through which the pool forces the log before writing a dirty page.
/// Implemented by the log manager in `pitree-wal`.
pub trait WalFlush: Send + Sync {
    /// Ensure all log records with LSN ≤ `lsn` are durable.
    fn flush_to(&self, lsn: Lsn) -> StoreResult<()>;
}

/// Hook through which the pool replays a page's pending redo records the
/// first time it is pinned during instant recovery. Implemented by the
/// instant-recovery plan in `pitree-wal`.
pub trait RedoHook: Send + Sync {
    /// Replay any pending redo records for `page`. Idempotent and a no-op
    /// when the page owes nothing. Called with the page pinned but
    /// unlatched; the hook takes its own X latch for the replay.
    fn redo(&self, page: &PinnedPage<'_>) -> StoreResult<()>;

    /// Whether `pid` still has pending redo records — i.e. the page may
    /// exist only in the log, not yet on disk, and a `PageNotFound` miss
    /// should format a fresh frame for the hook to fill.
    fn pending(&self, pid: PageId) -> bool;

    /// `(page id, first pending LSN)` of every page still owed records.
    /// [`BufferPool::dirty_pages`] lists them beside the dirty frames: an
    /// owed page is stale on disk exactly as a dirty frame's page is.
    fn pending_pages(&self) -> Vec<(PageId, Lsn)>;

    /// Whether every page's redo has completed (the pool uninstalls the
    /// hook once this reports `true`).
    fn is_complete(&self) -> bool;
}

struct Frame {
    latch: Latch<Page>,
    /// Id of the page the frame holds, or [`NO_PAGE`]; read through
    /// [`Frame::pid`].
    pid: AtomicU64,
    pin: AtomicU32,
    dirty: AtomicBool,
    /// LSN of the first update that dirtied the page since it was last clean
    /// (the recovery LSN reported by fuzzy checkpoints).
    rec_lsn: AtomicU64,
    referenced: AtomicBool,
    /// The frame is mid-load or mid-write-back outside the shard lock; the
    /// clock must skip it and nobody may pin or latch it.
    io_pending: AtomicBool,
}

impl Frame {
    fn new(obs: Arc<LatchObs>) -> Frame {
        Frame {
            latch: Latch::new_observed(Page::vacant(), obs),
            pid: AtomicU64::new(NO_PAGE),
            pin: AtomicU32::new(0),
            dirty: AtomicBool::new(false),
            rec_lsn: AtomicU64::new(0),
            referenced: AtomicBool::new(false),
            io_pending: AtomicBool::new(false),
        }
    }

    /// The page this frame holds, if any.
    fn pid(&self) -> Option<PageId> {
        match self.pid.load(Ordering::SeqCst) {
            NO_PAGE => None,
            p => Some(PageId(p)),
        }
    }

    fn set_pid(&self, pid: Option<PageId>) {
        self.pid
            .store(pid.map_or(NO_PAGE, |p| p.0), Ordering::SeqCst);
    }
}

/// [`Frame::pid`]'s "no page": page ids are dense file indexes, far below it.
const NO_PAGE: u64 = u64::MAX;

/// Where a table entry's page currently lives.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotStatus {
    /// In the frame, pinnable.
    Resident,
    /// The frame is doing I/O for this entry (loading it, or writing the
    /// evicted predecessor back). Wait on the shard condvar and re-check.
    Busy,
}

#[derive(Clone, Copy)]
struct Slot {
    frame: usize,
    status: SlotStatus,
}

struct ShardState {
    table: HashMap<PageId, Slot>,
    clock: usize,
}

struct Shard {
    /// Frames `lo..hi` belong to this shard.
    lo: usize,
    hi: usize,
    state: Mutex<ShardState>,
    cv: Condvar,
    hits: Counter,
    misses: Counter,
}

/// Per-shard counter names (`Counter` requires `&'static str`); 16 is the
/// shard-count cap in [`BufferPool::with_recorder`].
const SHARD_HITS: [&str; 16] = [
    "buf.shard00.hits",
    "buf.shard01.hits",
    "buf.shard02.hits",
    "buf.shard03.hits",
    "buf.shard04.hits",
    "buf.shard05.hits",
    "buf.shard06.hits",
    "buf.shard07.hits",
    "buf.shard08.hits",
    "buf.shard09.hits",
    "buf.shard10.hits",
    "buf.shard11.hits",
    "buf.shard12.hits",
    "buf.shard13.hits",
    "buf.shard14.hits",
    "buf.shard15.hits",
];
const SHARD_MISSES: [&str; 16] = [
    "buf.shard00.misses",
    "buf.shard01.misses",
    "buf.shard02.misses",
    "buf.shard03.misses",
    "buf.shard04.misses",
    "buf.shard05.misses",
    "buf.shard06.misses",
    "buf.shard07.misses",
    "buf.shard08.misses",
    "buf.shard09.misses",
    "buf.shard10.misses",
    "buf.shard11.misses",
    "buf.shard12.misses",
    "buf.shard13.misses",
    "buf.shard14.misses",
    "buf.shard15.misses",
];

/// Counters exposed for the buffer-behaviour experiments. These are thin
/// handles onto the pool's [`Recorder`] registry (`buf.*` names), so the
/// same numbers appear in [`pitree_obs::Registry::report`].
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Fetches served from the pool (`buf.hits`).
    pub hits: Counter,
    /// Fetches that had to read from disk (`buf.misses`).
    pub misses: Counter,
    /// Dirty pages written back during eviction (`buf.dirty_evictions`).
    pub dirty_evictions: Counter,
}

impl PoolStats {
    fn new(rec: &Recorder) -> PoolStats {
        PoolStats {
            hits: rec.counter("buf.hits"),
            misses: rec.counter("buf.misses"),
            dirty_evictions: rec.counter("buf.dirty_evictions"),
        }
    }
}

/// The buffer pool. Cheap to share via `Arc`.
pub struct BufferPool {
    frames: Box<[Frame]>,
    shards: Box<[Shard]>,
    disk: Arc<dyn DiskManager>,
    wal: OnceLock<Arc<dyn WalFlush>>,
    /// Instant-recovery redo hook; present only between
    /// [`BufferPool::begin_recovery`] and [`BufferPool::end_recovery`].
    redo: Mutex<Option<Arc<dyn RedoHook>>>,
    /// Fast-path flag mirroring `redo.is_some()` so fetches outside
    /// recovery pay one relaxed-ish atomic load, not a mutex.
    recovering: AtomicBool,
    rec: Recorder,
    stats: PoolStats,
    flushes: Counter,
    shard_conflicts: Counter,
    evictions: Counter,
    writebacks: Counter,
    frames_materialised: Counter,
    read_ns: Hist,
    writeback_ns: Hist,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.frames.len())
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl BufferPool {
    /// Create a pool of `capacity` frames over `disk`, recording into a
    /// fresh private registry (see [`BufferPool::with_recorder`]).
    pub fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> BufferPool {
        BufferPool::with_recorder(disk, capacity, Recorder::detached())
    }

    /// Create a pool of `capacity` frames over `disk`, recording `buf.*`
    /// and `latch.*` metrics into `rec`'s registry. The store assembly
    /// passes one registry through pool, log, lock table, and tree so a
    /// whole workload reports in one place.
    ///
    /// The shard count defaults to `capacity / 16` clamped to `1..=16`, so
    /// every shard keeps at least 16 frames of clock headroom and tiny test
    /// pools behave exactly like the unsharded design.
    pub fn with_recorder(disk: Arc<dyn DiskManager>, capacity: usize, rec: Recorder) -> BufferPool {
        let shards = (capacity / 16).clamp(1, 16);
        BufferPool::with_shards(disk, capacity, shards, rec)
    }

    /// [`BufferPool::with_recorder`] with an explicit shard count
    /// (`1 ..= 16`, and at most one shard per frame).
    pub fn with_shards(
        disk: Arc<dyn DiskManager>,
        capacity: usize,
        shards: usize,
        rec: Recorder,
    ) -> BufferPool {
        assert!(capacity > 0);
        assert!(
            (1..=SHARD_HITS.len()).contains(&shards) && shards <= capacity,
            "shard count must be 1..=16 and <= capacity"
        );
        let shards: Box<[Shard]> = (0..shards)
            .map(|i| {
                let lo = i * capacity / shards;
                let hi = (i + 1) * capacity / shards;
                Shard {
                    lo,
                    hi,
                    state: Mutex::new(ShardState {
                        table: HashMap::new(),
                        clock: lo,
                    }),
                    cv: Condvar::new(),
                    hits: rec.counter(SHARD_HITS[i]),
                    misses: rec.counter(SHARD_MISSES[i]),
                }
            })
            .collect();
        let obs = Arc::new(LatchObs::new(&rec));
        BufferPool {
            frames: (0..capacity)
                .map(|_| Frame::new(Arc::clone(&obs)))
                .collect(),
            shards,
            disk,
            wal: OnceLock::new(),
            redo: Mutex::new(None),
            recovering: AtomicBool::new(false),
            stats: PoolStats::new(&rec),
            flushes: rec.counter("buf.flushes"),
            shard_conflicts: rec.counter("buf.shard_conflicts"),
            evictions: rec.counter("buf.evictions"),
            writebacks: rec.counter("buf.writebacks"),
            frames_materialised: rec.counter("buf.frames_materialised"),
            read_ns: rec.hist("buf.read_ns"),
            writeback_ns: rec.hist("buf.writeback_ns"),
            rec,
        }
    }

    /// The recorder this pool (and its frame latches) report into.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Number of page-table shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Register the log-force hook. Must be called once, before any dirty
    /// page can be evicted; until then eviction of dirty pages fails.
    pub fn set_wal_hook(&self, wal: Arc<dyn WalFlush>) {
        let _ = self.wal.set(wal);
    }

    /// The underlying durable storage.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// Buffer-behaviour counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// The shard owning `pid` (Fibonacci hashing — deterministic, no
    /// `RandomState`, so same-seed runs shard identically).
    fn shard_of(&self, pid: PageId) -> usize {
        page_shard(pid, self.shards.len())
    }

    /// Install an instant-recovery redo hook: until [`BufferPool::end_recovery`]
    /// (or until the hook reports [`RedoHook::is_complete`]), every fetch
    /// replays the page's pending redo records before the pin is returned.
    pub fn begin_recovery(&self, hook: Arc<dyn RedoHook>) {
        *self.redo.lock() = Some(hook);
        self.recovering.store(true, Ordering::SeqCst);
    }

    /// Uninstall the redo hook; fetches go back to the plain path.
    pub fn end_recovery(&self) {
        self.recovering.store(false, Ordering::SeqCst);
        *self.redo.lock() = None;
    }

    /// Whether an instant-recovery redo hook is currently installed.
    pub fn is_recovering(&self) -> bool {
        self.recovering.load(Ordering::SeqCst)
    }

    fn redo_hook(&self) -> Option<Arc<dyn RedoHook>> {
        if !self.recovering.load(Ordering::SeqCst) {
            return None;
        }
        self.redo.lock().clone()
    }

    /// Replay `page`'s pending redo records through the installed hook, if
    /// any; uninstalls the hook once it reports complete.
    fn run_redo(&self, page: &PinnedPage<'_>) -> StoreResult<()> {
        if let Some(hook) = self.redo_hook() {
            hook.redo(page)?;
            if hook.is_complete() {
                self.end_recovery();
            }
        }
        Ok(())
    }

    /// Lock a shard, counting contended acquisitions (`buf.shard_conflicts`).
    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, ShardState> {
        match shard.state.try_lock() {
            Some(g) => g,
            None => {
                self.shard_conflicts.inc();
                shard.state.lock()
            }
        }
    }

    /// Pin the page `pid`, reading it from disk on a miss.
    pub fn fetch(&self, pid: PageId) -> StoreResult<PinnedPage<'_>> {
        self.fetch_inner(pid, None)
    }

    /// Pin page `pid`, formatting a fresh empty page of type `ty` if it is
    /// neither cached nor on disk. Used when allocating new pages and during
    /// recovery redo of `Format` records against never-flushed pages.
    pub fn fetch_or_create(&self, pid: PageId, ty: PageType) -> StoreResult<PinnedPage<'_>> {
        self.fetch_inner(pid, Some(ty))
    }

    fn fetch_inner(&self, pid: PageId, create: Option<PageType>) -> StoreResult<PinnedPage<'_>> {
        let shard = &self.shards[self.shard_of(pid)];
        let mut st = self.lock_shard(shard);
        loop {
            match st.table.get(&pid) {
                Some(slot) if slot.status == SlotStatus::Resident => {
                    let idx = slot.frame;
                    let frame = &self.frames[idx];
                    frame.pin.fetch_add(1, Ordering::SeqCst);
                    frame.referenced.store(true, Ordering::Relaxed);
                    drop(st);
                    self.stats.hits.inc();
                    shard.hits.inc();
                    let pinned = PinnedPage {
                        pool: self,
                        frame: idx,
                        pid,
                    };
                    if self.recovering.load(Ordering::SeqCst) {
                        self.run_redo(&pinned)?;
                    }
                    return Ok(pinned);
                }
                Some(_) => {
                    // Another thread is doing I/O for this page; wait on the
                    // frame's completion, then re-check the table.
                    st = shard.cv.wait(st);
                }
                None => break,
            }
        }
        // Miss: pick a victim inside this shard, flip the affected table
        // entries to Busy, and do all I/O with the shard lock released.
        self.stats.misses.inc();
        shard.misses.inc();
        let victim = loop {
            match self.pick_victim(shard, &mut st) {
                VictimScan::Found(idx) => break idx,
                VictimScan::AllBusy => st = shard.cv.wait(st), // transient: I/O in flight
                VictimScan::Exhausted => return Err(StoreError::PoolExhausted),
            }
        };
        let frame = &self.frames[victim];
        frame.io_pending.store(true, Ordering::SeqCst);
        // Peek at the victim's identity — do NOT clear it yet. The pid and
        // dirty flag must stay set until the write-back I/O completes so a
        // fuzzy checkpoint taken mid-eviction still sees the page in
        // `dirty_pages()`; clearing first would open a window where a dirty
        // page is invisible to the checkpoint's dirty-page table and its
        // records sit below the recovered redo horizon.
        let old_pid = frame.pid();
        let old_dirty = old_pid.is_some() && frame.dirty.load(Ordering::SeqCst);
        if old_pid.is_some() {
            // A resident page is being displaced (clean or dirty): this is
            // the eviction the scenario harness steers by (`buf.evictions`).
            self.evictions.inc();
        }
        if let Some(old) = old_pid {
            if old_dirty {
                st.table.insert(
                    old,
                    Slot {
                        frame: victim,
                        status: SlotStatus::Busy,
                    },
                );
            } else {
                st.table.remove(&old);
                frame.set_pid(None);
            }
        }
        st.table.insert(
            pid,
            Slot {
                frame: victim,
                status: SlotStatus::Busy,
            },
        );
        drop(st);

        // -- Write back a dirty victim (WAL force + page write), no lock --
        if let Some(old) = old_pid {
            if old_dirty {
                let res = {
                    let g = frame.latch.s();
                    self.write_back(old, &g)
                };
                match res {
                    Ok(()) => {
                        // Only now — image durably written — may the frame
                        // forget the old page and drop its dirty flag.
                        frame.set_pid(None);
                        frame.dirty.store(false, Ordering::SeqCst);
                        self.stats.dirty_evictions.inc();
                        let mut st = self.lock_shard(shard);
                        st.table.remove(&old);
                        drop(st);
                        shard.cv.notify_all();
                    }
                    Err(e) => {
                        // The frame still carries the page (pid and dirty
                        // were never cleared); just restore the table entry.
                        frame.io_pending.store(false, Ordering::SeqCst);
                        let mut st = self.lock_shard(shard);
                        st.table.remove(&pid);
                        st.table.insert(
                            old,
                            Slot {
                                frame: victim,
                                status: SlotStatus::Resident,
                            },
                        );
                        drop(st);
                        shard.cv.notify_all();
                        return Err(e);
                    }
                }
            }
        }

        // -- Load/format the incoming page, still outside the shard lock --
        let timer = Stopwatch::start();
        let page = match self.disk.read_page(pid) {
            Ok(p) => p,
            // A page the redo hook still owes records may exist only in the
            // log: hand the hook a fresh frame to replay into.
            Err(StoreError::PageNotFound(_))
                if create.is_some() || self.redo_hook().is_some_and(|h| h.pending(pid)) =>
            {
                Page::new(create.unwrap_or(PageType::Free))
            }
            Err(e) => {
                // The frame stays free (any dirty victim is already safely
                // on disk); just retract the Busy entry.
                frame.io_pending.store(false, Ordering::SeqCst);
                let mut st = self.lock_shard(shard);
                st.table.remove(&pid);
                drop(st);
                shard.cv.notify_all();
                return Err(e);
            }
        };
        self.read_ns.record(timer.elapsed_ns());
        {
            // Unpinned + io_pending keeps other pool users away from the
            // frame; only a concurrent flush_all may briefly hold S, so a
            // blocking X is safe (we hold no locks).
            let mut g = frame.latch.x();
            if g.is_vacant() {
                self.frames_materialised.inc();
            }
            *g.get_mut() = page;
        }
        frame.set_pid(Some(pid));
        frame.pin.store(1, Ordering::SeqCst);
        frame.referenced.store(true, Ordering::Relaxed);
        frame.io_pending.store(false, Ordering::SeqCst);
        let mut st = self.lock_shard(shard);
        st.table.insert(
            pid,
            Slot {
                frame: victim,
                status: SlotStatus::Resident,
            },
        );
        drop(st);
        shard.cv.notify_all();
        let pinned = PinnedPage {
            pool: self,
            frame: victim,
            pid,
        };
        if self.recovering.load(Ordering::SeqCst) {
            self.run_redo(&pinned)?;
        }
        Ok(pinned)
    }

    /// Clock sweep over the shard's frame range. Two sweeps: the first
    /// clears reference bits, the second takes any unpinned frame; `2n+1`
    /// steps bound the scan.
    fn pick_victim(&self, shard: &Shard, st: &mut ShardState) -> VictimScan {
        let n = shard.hi - shard.lo;
        let mut saw_busy = false;
        for _ in 0..(2 * n + 1) {
            let idx = st.clock;
            st.clock = shard.lo + (st.clock + 1 - shard.lo) % n;
            let frame = &self.frames[idx];
            if frame.io_pending.load(Ordering::SeqCst) {
                saw_busy = true;
                continue;
            }
            if frame.pin.load(Ordering::SeqCst) != 0 {
                continue;
            }
            if frame.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            return VictimScan::Found(idx);
        }
        if saw_busy {
            VictimScan::AllBusy
        } else {
            VictimScan::Exhausted
        }
    }

    /// WAL-protocol write of one page image.
    fn write_back(&self, pid: PageId, page: &Page) -> StoreResult<()> {
        let timer = Stopwatch::start();
        if let Some(wal) = self.wal.get() {
            wal.flush_to(page.lsn())?;
        } else if page.lsn() != Lsn::ZERO {
            return Err(StoreError::Corrupt(format!(
                "dirty page {pid} with LSN {} but no WAL hook registered",
                page.lsn()
            )));
        }
        let res = self.disk.write_page(pid, page);
        self.writeback_ns.record(timer.elapsed_ns());
        if res.is_ok() {
            self.writebacks.inc();
        }
        res
    }

    /// Write every dirty page back to disk (checkpoint / clean shutdown).
    pub fn flush_all(&self) -> StoreResult<()> {
        for frame in self.frames.iter() {
            let pid = match frame.pid() {
                Some(p) => p,
                None => continue,
            };
            if !frame.dirty.load(Ordering::SeqCst) {
                continue;
            }
            let g = frame.latch.s();
            // Re-check identity under the latch: the frame may have been
            // re-used between the peek and the S acquisition.
            if frame.pid() == Some(pid) {
                self.write_back(pid, &g)?;
                // Clear only after the write succeeds: a concurrent fuzzy
                // checkpoint must keep seeing the page as dirty until its
                // image is truly on disk, and a failed write must leave the
                // flag set. No updater can race the clear — marking dirty
                // happens under the X latch, excluded by our S guard.
                frame.dirty.store(false, Ordering::SeqCst);
                self.flushes.inc();
            }
        }
        Ok(())
    }

    /// `(page id, recovery LSN)` of every page whose disk image is stale
    /// (the dirty-page table of a fuzzy checkpoint): the dirty cached pages
    /// plus, while a [`RedoHook`] is installed, the pages it still owes —
    /// a checkpoint that left those out would advance the master past
    /// their only records.
    ///
    /// Owed pages are listed *before* the frames are scanned: the hook
    /// replays a page under the same lock its listing takes, so a page
    /// missing from the listing has already been marked dirty in its frame.
    pub fn dirty_pages(&self) -> Vec<(PageId, Lsn)> {
        let mut out = self
            .redo_hook()
            .map_or_else(Vec::new, |h| h.pending_pages());
        let owed = !out.is_empty();
        for frame in self.frames.iter() {
            if frame.dirty.load(Ordering::SeqCst) {
                if let Some(pid) = frame.pid() {
                    out.push((pid, Lsn(frame.rec_lsn.load(Ordering::SeqCst))));
                }
            }
        }
        if owed {
            // A page can be both owed and dirty (a replay that failed half
            // way): keep its lower LSN. Sorting also fixes the order the
            // hook's hash maps left open.
            out.sort_unstable();
            out.dedup_by_key(|e| e.0);
        }
        out
    }
}

/// The shard index of `pid` in a partition of `shards` shards, using the
/// same Fibonacci hash as the pool's page table. Public so parallel-redo
/// partitioning replays each pool shard's pages on a single worker,
/// mirroring run-time placement.
pub fn page_shard(pid: PageId, shards: usize) -> usize {
    let h = pid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 48) as usize) % shards.max(1)
}

/// Outcome of one clock sweep.
enum VictimScan {
    Found(usize),
    /// Every candidate was mid-I/O; wait for a completion and retry.
    AllBusy,
    /// Every frame is pinned: genuinely out of frames.
    Exhausted,
}

/// A pinned page: holds a pin (blocking eviction) and grants access to the
/// frame latch. Latching discipline is up to the caller, per §4.1.
pub struct PinnedPage<'a> {
    pool: &'a BufferPool,
    frame: usize,
    pid: PageId,
}

impl std::fmt::Debug for PinnedPage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedPage")
            .field("pid", &self.pid)
            .field("frame", &self.frame)
            .finish_non_exhaustive()
    }
}

impl<'a> PinnedPage<'a> {
    /// The pinned page's id.
    pub fn id(&self) -> PageId {
        self.pid
    }

    fn f(&self) -> &'a Frame {
        &self.pool.frames[self.frame]
    }

    /// Latch in S mode.
    pub fn s(&self) -> SGuard<'a, Page> {
        self.f().latch.s()
    }

    /// Latch in U mode ("whenever a node might be written, a U latch is
    /// used", §4.1.1).
    pub fn u(&self) -> UGuard<'a, Page> {
        self.f().latch.u()
    }

    /// Latch in X mode.
    pub fn x(&self) -> XGuard<'a, Page> {
        self.f().latch.x()
    }

    /// Non-blocking latch attempts, used where the latch-ordering protocol
    /// requires conditional acquisition (e.g. climbing *up* a saved path,
    /// §5.2.2(b)).
    pub fn try_s(&self) -> Option<SGuard<'a, Page>> {
        self.f().latch.try_s()
    }

    /// Non-blocking U-latch attempt.
    pub fn try_u(&self) -> Option<UGuard<'a, Page>> {
        self.f().latch.try_u()
    }

    /// Non-blocking X-latch attempt.
    pub fn try_x(&self) -> Option<XGuard<'a, Page>> {
        self.f().latch.try_x()
    }

    /// Mark the page dirty. Called by the logging layer after every applied
    /// page operation; `lsn` is the log record's LSN and becomes the frame's
    /// recovery LSN if the page was clean.
    pub fn mark_dirty(&self) {
        self.mark_dirty_at(Lsn::ZERO);
    }

    /// [`PinnedPage::mark_dirty`] with an explicit recovery LSN.
    pub fn mark_dirty_at(&self, lsn: Lsn) {
        let f = self.f();
        if !f.dirty.swap(true, Ordering::SeqCst) {
            f.rec_lsn.store(lsn.0, Ordering::SeqCst);
        }
    }

    /// Apply `op` to this X-latched page as the change of a log record:
    /// `append` writes the record and returns its LSN, then `op` is applied
    /// and the page LSN stamped. An [`XGuard`] hands out no `&mut Page`
    /// outside this crate, so this and [`PinnedPage::replay`] are the only
    /// ways a frame's content changes, and here it changes only after the
    /// append returned (log-before-dirty, §4.3.1), on every path and through
    /// every helper. Marking the frame dirty is the caller's
    /// ([`PinnedPage::mark_dirty_at`] changes no content).
    ///
    /// A helper that changes the page without an append does not compile;
    /// the same helper through this entry does:
    ///
    /// ```compile_fail,E0596
    /// # use pitree_pagestore::{BufferPool, Lsn, MemDisk, Page, PageId, PageOp, PageType, PinnedPage, XGuard};
    /// # let pool = BufferPool::new(std::sync::Arc::new(MemDisk::new()), 4);
    /// # let mut log: Vec<PageOp> = Vec::new();
    /// fn poke(page: &PinnedPage<'_>, g: &mut XGuard<'_, Page>, op: &PageOp, log: &mut Vec<PageOp>) {
    ///     op.apply(g).unwrap(); // no `&mut Page` from a frame guard
    /// }
    /// let page = pool.fetch_or_create(PageId(1), PageType::Node).unwrap();
    /// let op = PageOp::InsertSlot { slot: 0, bytes: b"r".to_vec() };
    /// poke(&page, &mut page.x(), &op, &mut log);
    /// page.mark_dirty_at(Lsn(1));
    /// ```
    ///
    /// ```
    /// # use pitree_pagestore::{BufferPool, Lsn, MemDisk, Page, PageId, PageOp, PageType, PinnedPage, XGuard};
    /// # let pool = BufferPool::new(std::sync::Arc::new(MemDisk::new()), 4);
    /// # let mut log: Vec<PageOp> = Vec::new();
    /// fn poke(page: &PinnedPage<'_>, g: &mut XGuard<'_, Page>, op: &PageOp, log: &mut Vec<PageOp>) {
    ///     page.apply_logged(g, op, || { log.push(op.clone()); Lsn(log.len() as u64) }).unwrap();
    /// }
    /// let page = pool.fetch_or_create(PageId(1), PageType::Node).unwrap();
    /// let op = PageOp::InsertSlot { slot: 0, bytes: b"r".to_vec() };
    /// poke(&page, &mut page.x(), &op, &mut log);
    /// page.mark_dirty_at(Lsn(1));
    /// ```
    pub fn apply_logged(
        &self,
        g: &mut XGuard<'_, Page>,
        op: &PageOp,
        append: impl FnOnce() -> Lsn,
    ) -> StoreResult<Lsn> {
        debug_assert!(g.latches(&self.f().latch), "a guard of another frame");
        let lsn = append();
        let page = g.get_mut();
        op.apply(page)?;
        page.set_lsn(lsn);
        Ok(lsn)
    }

    /// Replay `op`, the redo of the record at `lsn` that is already in the
    /// log (restart REDO): mark the frame dirty at `lsn`, apply `op`, stamp
    /// `lsn`. Redo does not apply an op to the latched page itself:
    ///
    /// ```compile_fail,E0596
    /// # use pitree_pagestore::{BufferPool, Lsn, MemDisk, PageId, PageOp, PageType};
    /// # let pool = BufferPool::new(std::sync::Arc::new(MemDisk::new()), 4);
    /// let page = pool.fetch_or_create(PageId(1), PageType::Node).unwrap();
    /// let (lsn, op) = (Lsn(8), PageOp::InsertSlot { slot: 0, bytes: b"redo".to_vec() });
    /// let mut g = page.x();
    /// page.mark_dirty_at(lsn);
    /// op.apply(&mut g).unwrap(); // no `&mut Page` from a frame guard
    /// ```
    ///
    /// ```
    /// # use pitree_pagestore::{BufferPool, Lsn, MemDisk, PageId, PageOp, PageType};
    /// # let pool = BufferPool::new(std::sync::Arc::new(MemDisk::new()), 4);
    /// let page = pool.fetch_or_create(PageId(1), PageType::Node).unwrap();
    /// let (lsn, op) = (Lsn(8), PageOp::InsertSlot { slot: 0, bytes: b"redo".to_vec() });
    /// let mut g = page.x();
    /// page.replay(&mut g, lsn, &op).unwrap();
    /// assert_eq!(pool.dirty_pages(), vec![(PageId(1), lsn)]);
    /// ```
    pub fn replay(&self, g: &mut XGuard<'_, Page>, lsn: Lsn, op: &PageOp) -> StoreResult<()> {
        debug_assert!(g.latches(&self.f().latch), "a guard of another frame");
        self.mark_dirty_at(lsn);
        let page = g.get_mut();
        op.apply(page)?;
        page.set_lsn(lsn);
        Ok(())
    }
}

impl Clone for PinnedPage<'_> {
    fn clone(&self) -> Self {
        self.f().pin.fetch_add(1, Ordering::SeqCst);
        PinnedPage {
            pool: self.pool,
            frame: self.frame,
            pid: self.pid,
        }
    }
}

impl Drop for PinnedPage<'_> {
    fn drop(&mut self) {
        self.f().pin.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn pool(frames: usize) -> (Arc<MemDisk>, BufferPool) {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, frames);
        (disk, pool)
    }

    struct NoopWal;
    impl WalFlush for NoopWal {
        fn flush_to(&self, _lsn: Lsn) -> StoreResult<()> {
            Ok(())
        }
    }

    #[test]
    fn create_and_reread() {
        let (_disk, pool) = pool(4);
        {
            let p = pool.fetch_or_create(PageId(1), PageType::Node).unwrap();
            let mut g = p.x();
            g.get_mut().insert(0, b"cached").unwrap();
            p.mark_dirty();
        }
        let p = pool.fetch(PageId(1)).unwrap();
        assert_eq!(p.s().get(0).unwrap(), b"cached");
        assert_eq!(pool.stats().hits.get(), 1);
    }

    #[test]
    fn miss_on_absent_page() {
        let (_disk, pool) = pool(4);
        assert!(matches!(
            pool.fetch(PageId(9)),
            Err(StoreError::PageNotFound(_))
        ));
    }

    #[test]
    fn eviction_writes_dirty_pages_back() {
        let (disk, pool) = pool(2);
        pool.set_wal_hook(Arc::new(NoopWal));
        for i in 1..=4u64 {
            let p = pool.fetch_or_create(PageId(i), PageType::Node).unwrap();
            let mut g = p.x();
            g.get_mut()
                .insert(0, format!("page-{i}").as_bytes())
                .unwrap();
            p.mark_dirty();
        }
        // Pages 1 and 2 must have been evicted and written to "disk".
        let q = disk.read_page(PageId(1)).unwrap();
        assert_eq!(q.get(0).unwrap(), b"page-1");
        // And they can be fetched back.
        let p = pool.fetch(PageId(1)).unwrap();
        assert_eq!(p.s().get(0).unwrap(), b"page-1");
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let (_disk, pool) = pool(2);
        pool.set_wal_hook(Arc::new(NoopWal));
        let a = pool.fetch_or_create(PageId(1), PageType::Node).unwrap();
        let b = pool.fetch_or_create(PageId(2), PageType::Node).unwrap();
        // No free frame: fetching a third page must fail, not evict a pin.
        assert!(matches!(
            pool.fetch_or_create(PageId(3), PageType::Node),
            Err(StoreError::PoolExhausted)
        ));
        drop(a);
        assert!(pool.fetch_or_create(PageId(3), PageType::Node).is_ok());
        drop(b);
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let (disk, pool) = pool(8);
        pool.set_wal_hook(Arc::new(NoopWal));
        for i in 1..=3u64 {
            let p = pool.fetch_or_create(PageId(i), PageType::Node).unwrap();
            let mut g = p.x();
            g.get_mut().insert(0, &[i as u8]).unwrap();
            p.mark_dirty();
        }
        assert_eq!(pool.dirty_pages().len(), 3);
        pool.flush_all().unwrap();
        assert!(pool.dirty_pages().is_empty());
        for i in 1..=3u64 {
            assert_eq!(
                disk.read_page(PageId(i)).unwrap().get(0).unwrap(),
                &[i as u8]
            );
        }
    }

    #[test]
    fn clone_pin_keeps_page_resident() {
        let (_disk, pool) = pool(2);
        pool.set_wal_hook(Arc::new(NoopWal));
        let a = pool.fetch_or_create(PageId(1), PageType::Node).unwrap();
        let a2 = a.clone();
        drop(a);
        let _b = pool.fetch_or_create(PageId(2), PageType::Node).unwrap();
        // One frame is still pinned by a2, so a third page cannot come in.
        assert!(matches!(
            pool.fetch_or_create(PageId(3), PageType::Node),
            Err(StoreError::PoolExhausted)
        ));
        drop(a2);
    }

    #[test]
    fn wal_hook_forced_before_dirty_write() {
        struct RecordingWal(AtomicU64);
        impl WalFlush for RecordingWal {
            fn flush_to(&self, lsn: Lsn) -> StoreResult<()> {
                self.0.fetch_max(lsn.0, Ordering::SeqCst);
                Ok(())
            }
        }
        let (_disk, pool) = pool(1);
        let wal = Arc::new(RecordingWal(AtomicU64::new(0)));
        pool.set_wal_hook(Arc::clone(&wal) as Arc<dyn WalFlush>);
        {
            let p = pool.fetch_or_create(PageId(1), PageType::Node).unwrap();
            let mut g = p.x();
            g.get_mut().insert(0, b"x").unwrap();
            g.get_mut().set_lsn(Lsn(77));
            p.mark_dirty();
        }
        // Force eviction by fetching another page into the single frame.
        let _p2 = pool.fetch_or_create(PageId(2), PageType::Node).unwrap();
        assert_eq!(
            wal.0.load(Ordering::SeqCst),
            77,
            "log must be forced to the page LSN"
        );
    }

    #[test]
    fn sharded_pool_keeps_pages_in_their_shard() {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::with_shards(
            Arc::clone(&disk) as Arc<dyn DiskManager>,
            64,
            4,
            Recorder::detached(),
        );
        pool.set_wal_hook(Arc::new(NoopWal));
        assert_eq!(pool.shard_count(), 4);
        for i in 1..=32u64 {
            let p = pool.fetch_or_create(PageId(i), PageType::Node).unwrap();
            let mut g = p.x();
            g.get_mut().insert(0, &i.to_be_bytes()).unwrap();
            p.mark_dirty();
            drop(g);
            drop(p);
            let shard = pool.shard_of(PageId(i));
            let st = pool.shards[shard].state.lock();
            let slot = st.table.get(&PageId(i)).expect("resident after fetch");
            assert!(
                (pool.shards[shard].lo..pool.shards[shard].hi).contains(&slot.frame),
                "page {i} in a frame outside its shard range"
            );
        }
        // Everything reads back (possibly after eviction round-trips).
        for i in 1..=32u64 {
            let p = pool.fetch(PageId(i)).unwrap();
            assert_eq!(p.s().get(0).unwrap(), &i.to_be_bytes());
        }
    }

    #[test]
    fn default_shard_counts_scale_with_capacity() {
        let (_d1, small) = pool(8);
        assert_eq!(small.shard_count(), 1);
        let (_d2, medium) = pool(64);
        assert_eq!(medium.shard_count(), 4);
        let (_d3, large) = pool(1024);
        assert_eq!(large.shard_count(), 16);
    }

    #[test]
    fn pool_exhausted_is_per_shard_when_all_pins_land_in_one_shard() {
        // With one shard (tiny pool) semantics are global, matching the
        // old design; this guards the single-shard fallback explicitly.
        let (_disk, pool) = pool(2);
        assert_eq!(pool.shard_count(), 1);
    }
}
