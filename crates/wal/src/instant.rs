//! The redo plan: the workspace's one REDO engine, and instant restart.
//!
//! Analysis (`crate::recovery::analyze`) partitions the redo range into
//! per-page lists of record LSNs — a *redo plan*. The plan keeps each
//! record's LSN and frame length, nothing more: the log is the store of
//! redo payload, read back when a page is redone. [`start_instant`]
//! installs the plan as the buffer pool's [`RedoHook`], runs undo, and
//! returns. From that moment any fetch of a page that still owes records
//! replays exactly those records, under the plan shard's mutex, before the
//! pin is handed out. The records come back from the log one of two ways:
//! the drive reads a whole plan shard's frames in one forward pass and
//! stages them until the shard is drained; a page pinned before its shard
//! is staged reads its own frames, one read each.
//!
//! What remains is a choice of *drain policy*, not of engine:
//!
//! * **synchronous** — [`InstantRecovery::drain`] walks the whole plan on
//!   the calling thread; this is stop-the-world [`crate::recovery::recover`],
//!   and MTTR grows linearly with log volume.
//! * **background** — the store serves traffic at once (time-to-first-op is
//!   O(analysis), not O(log)) while [`InstantRecovery::drive`] walks the
//!   plan on N worker threads, partitioned by [`page_shard`] so each pool
//!   shard's pages are replayed by one worker, mirroring run-time placement.
//! * **traffic-first** — nobody drives; pages are replayed as they are
//!   pinned.
//!
//! Opening before the drain is the Sauer–Härder style upgrade (PAPERS.md
//! "fast, REDO-only recovery"; Lomet, "Implementing Performance Competitive
//! Logical Recovery"), which the paper's own §4.3.2 makes sound for the
//! Π-tree: interrupted structure changes need no special measures, so a tree
//! that is *partially* redone is merely a tree in an
//! intermediate-but-well-formed state.
//!
//! # Soundness
//!
//! * **Per-page exclusion** — a page's plan entry is removed and replayed
//!   under its plan-shard mutex; a racing second pinner blocks on that mutex
//!   and finds the entry gone. LSN comparison (`page LSN < record LSN`)
//!   makes replay idempotent on top of that.
//! * **Undo sees redone state** — undo runs with the hook installed, so its
//!   own fetches trigger on-demand redo of each loser page first; CLRs are
//!   always computed against fully-repeated history.
//! * **Traffic sees redone state** — every pin goes through the hook until
//!   the plan is empty, at which point the pool uninstalls it
//!   ([`RedoHook::is_complete`]).
//! * **Checkpoints see owed pages** — a fuzzy checkpoint taken while the
//!   plan is pending lists every owed page in its dirty-page table
//!   ([`RedoHook::pending_pages`]), so the master never advances past a
//!   record the plan has yet to apply.
//! * **No deadlock** — the hook acquires `plan-shard mutex → page X latch`.
//!   Any thread holding a page latch after the hook is installed pinned that
//!   page through the hook, so its plan entry is already gone and no replayer
//!   can be waiting on that page's latch.
//!
//! Byte-equivalence of the three drain policies is gated by the determinism
//! test in `pitree-harness` (`tests/instant_restart.rs`), and a log-order
//! replay written in `tests/one_redo_engine.rs` keeps the textbook as the
//! reference; the crash matrix covers crash-mid-parallel-redo, a checkpoint
//! taken mid-drain, and reads served against a half-recovered store.
//! `RECOVERY.md` has the full walkthrough.

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

use crate::log::{FrameReader, LogManager, LogStore, SCAN_WINDOW};
use crate::record::decode_redo;
use crate::recovery::{analyze, undo_pass, LogicalUndoHandler, RecoveryStats};
use pitree_obs::{Counter, Hist, Stopwatch};
use pitree_pagestore::buffer::{page_shard, BufferPool, PinnedPage, RedoHook};
use pitree_pagestore::page::PageType;
use pitree_pagestore::sync::Mutex;
use pitree_pagestore::{Lsn, PageId, PageOp, StoreError, StoreResult};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of plan shards. Matches the buffer pool's shard-count cap so a
/// [`InstantRecovery::drive`] worker's partition aligns with pool shards.
const REDO_SHARDS: usize = 16;

thread_local! {
    /// Set while this thread is inside [`InstantRecovery::drive_partition`],
    /// so the hook can tell background replay from traffic-triggered
    /// (`recovery.on_demand_redos`) replay.
    static IN_DRIVE: Cell<bool> = const { Cell::new(false) };
}

/// A record a page is owed: its LSN and its frame's body length — all the
/// plan keeps; the record itself is read back from the log.
type Owed = (Lsn, u32);

/// A page the plan owes records: its frames are `lsns[first..end]` of its
/// shard, in log order. Once the page is redone, `end == first`.
#[derive(Debug, Clone, Copy)]
struct OwedPage {
    pid: PageId,
    first: u32,
    end: u32,
}

/// One plan shard: the owed pages hashed here, in page order, and their
/// frames.
#[derive(Default)]
struct ShardPlan {
    pages: Box<[OwedPage]>,
    /// Each owed frame's LSN and body length, grouped by page in `pages`
    /// order.
    lsns: Box<[Lsn]>,
    lens: Box<[u32]>,
    /// While the drive replays this shard: each page's records, decoded,
    /// by page index. Empty otherwise.
    staged: Vec<Vec<(Lsn, PageOp)>>,
}

impl ShardPlan {
    /// The shard of the owed frames `owed`, in any order.
    fn build(mut owed: Vec<(PageId, Lsn, u32)>) -> StoreResult<ShardPlan> {
        owed.sort_unstable_by_key(|&(pid, lsn, _)| (pid, lsn));
        let mut pages: Vec<OwedPage> = Vec::new();
        let mut lsns = Vec::with_capacity(owed.len());
        let mut lens = Vec::with_capacity(owed.len());
        for (i, &(pid, lsn, len)) in owed.iter().enumerate() {
            let end = u32::try_from(i + 1)
                .map_err(|_| StoreError::Corrupt("redo plan shard past 2^32 records".into()))?;
            match pages.last_mut() {
                Some(page) if page.pid == pid => page.end = end,
                _ => pages.push(OwedPage {
                    pid,
                    first: end - 1,
                    end,
                }),
            }
            lsns.push(lsn);
            lens.push(len);
        }
        Ok(ShardPlan {
            pages: pages.into_boxed_slice(),
            lsns: lsns.into_boxed_slice(),
            lens: lens.into_boxed_slice(),
            staged: Vec::new(),
        })
    }

    /// The index of `pid` if it still owes records.
    fn find(&self, pid: PageId) -> Option<usize> {
        let idx = self.pages.binary_search_by_key(&pid, |p| p.pid).ok()?;
        self.pages.get(idx).filter(|p| p.first < p.end).map(|_| idx)
    }

    /// Page `idx`'s owed frames, in log order.
    fn frames(&self, idx: usize) -> impl ExactSizeIterator<Item = Owed> + '_ {
        let range = self
            .pages
            .get(idx)
            .map_or(0..0, |p| p.first as usize..p.end as usize);
        let lsns = self.lsns.get(range.clone()).unwrap_or_default();
        let lens = self.lens.get(range).unwrap_or_default();
        lsns.iter().copied().zip(lens.iter().copied())
    }

    /// Mark page `idx` redone; returns what [`ShardPlan::owe_again`] needs.
    fn take(&mut self, idx: usize) -> u32 {
        self.pages
            .get_mut(idx)
            .map_or(0, |p| std::mem::replace(&mut p.end, p.first))
    }

    /// Owe page `idx` its records again, after a replay that failed.
    fn owe_again(&mut self, idx: usize, end: u32) {
        if let Some(p) = self.pages.get_mut(idx) {
            p.end = end;
        }
    }

    /// The index and id of each page still owing records, in page order.
    fn pending(&self) -> impl Iterator<Item = (usize, PageId)> + '_ {
        let pages = self.pages.iter().enumerate();
        pages
            .filter(|(_, p)| p.first < p.end)
            .map(|(i, p)| (i, p.pid))
    }
}

/// Decode the record of `pid` that `reader` reads back at `owed`.
fn read_record(
    reader: &mut FrameReader<'_>,
    pid: PageId,
    (lsn, len): Owed,
) -> StoreResult<(Lsn, PageOp)> {
    let (owner, op) = decode_redo(reader.body(lsn, len)?)?;
    if owner != pid {
        return Err(StoreError::Corrupt(format!(
            "record {lsn} redoes page {owner}, the plan owes it to {pid}"
        )));
    }
    Ok((lsn, op))
}

/// One plan shard behind the mutex that is the per-page exclusion.
type PlanShard = Mutex<ShardPlan>;

/// The redo plan as analysis builds it: every owed frame, by plan shard.
pub(crate) struct PlanBuilder {
    shards: Vec<Vec<(PageId, Lsn, u32)>>,
}

impl PlanBuilder {
    pub(crate) fn new() -> PlanBuilder {
        PlanBuilder {
            shards: (0..REDO_SHARDS).map(|_| Vec::new()).collect(),
        }
    }

    /// Page `pid` owes the record at `lsn`, whose frame body is `len` bytes.
    pub(crate) fn owe(&mut self, pid: PageId, lsn: Lsn, len: u32) -> StoreResult<()> {
        let idx = page_shard(pid, REDO_SHARDS);
        let shard = self.shards.get_mut(idx).ok_or_else(|| {
            StoreError::Corrupt(format!("redo plan shard {idx} out of range for page {pid}"))
        })?;
        shard.push((pid, lsn, len));
        Ok(())
    }

    /// The sharded plan, with the pages and records it owes.
    fn finish(self) -> StoreResult<(Box<[PlanShard]>, usize, usize)> {
        let (mut pages, mut records) = (0, 0);
        let mut plan = Vec::with_capacity(self.shards.len());
        for owed in self.shards {
            records += owed.len();
            let shard = ShardPlan::build(owed)?;
            pages += shard.pages.len();
            plan.push(Mutex::new(shard));
        }
        Ok((plan.into_boxed_slice(), pages, records))
    }
}

/// The redo plan of a restart: per-page, LSN-ordered lists of the records
/// each page owes, sharded by [`page_shard`]. The plan holds LSNs and frame
/// lengths only; the log is the store of redo payload. Installed as the
/// pool's [`RedoHook`] by [`start_instant`]; drained synchronously by
/// [`InstantRecovery::drain`], in the background by
/// [`InstantRecovery::drive`], and/or on demand by traffic.
pub struct InstantRecovery {
    /// `plan[s]` holds the pending pages whose `page_shard(pid, REDO_SHARDS)`
    /// is `s`.
    plan: Box<[PlanShard]>,
    /// The durable log the plan's records are read back from.
    store: Arc<dyn LogStore>,
    /// Pages still owing redo; 0 ⇒ complete and the pool drops the hook.
    pending_pages: AtomicUsize,
    /// Records applied (`page LSN < record LSN`) and records skipped because
    /// the page was already current, over every page replayed so far.
    redone: AtomicUsize,
    redo_skipped: AtomicUsize,
    /// `recovery.redo_pages`: pages replayed (background + on demand).
    redo_pages: Counter,
    /// `recovery.on_demand_redos`: pages replayed because traffic touched
    /// them before the background pass did.
    on_demand: Counter,
    /// `recovery.redo_reads` / `recovery.redo_read_bytes`: ranged log reads
    /// that read plan records back, and their bytes.
    redo_reads: Counter,
    redo_read_bytes: Counter,
    /// `recovery.redo_ns`: duration of a synchronous drain.
    redo_ns: Hist,
}

impl std::fmt::Debug for InstantRecovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstantRecovery")
            .field("pending_pages", &self.pending_pages.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl InstantRecovery {
    /// The plan shard that owns `pid`.
    fn shard_slot(&self, pid: PageId) -> StoreResult<&PlanShard> {
        let idx = page_shard(pid, self.plan.len());
        self.plan.get(idx).ok_or_else(|| {
            StoreError::Corrupt(format!("redo plan shard {idx} out of range for page {pid}"))
        })
    }

    /// Pages still owing redo records.
    pub fn pending_page_count(&self) -> usize {
        self.pending_pages.load(Ordering::SeqCst)
    }

    /// Whether every page's redo has completed.
    pub fn is_complete(&self) -> bool {
        self.pending_page_count() == 0
    }

    /// Count the reads `reader` issued into `recovery.redo_reads` /
    /// `recovery.redo_read_bytes`.
    fn count_reads(&self, reader: &FrameReader<'_>) {
        self.redo_reads.add(reader.reads);
        self.redo_read_bytes.add(reader.bytes);
    }

    /// Replay `page`'s pending records, if any. The plan-shard mutex is held
    /// across the replay: that is the per-page exclusion that keeps two
    /// first-pinners from applying the same records concurrently. A page
    /// whose shard the drive has not staged reads its records from the log
    /// here, one read a frame, before it takes the page latch.
    fn redo_page(&self, page: &PinnedPage<'_>) -> StoreResult<()> {
        let pid = page.id();
        let mut shard = self.shard_slot(pid)?.lock();
        let Some(idx) = shard.find(pid) else {
            return Ok(());
        };
        let staged = shard.staged.get_mut(idx).map(std::mem::take);
        let records = match staged.filter(|r| !r.is_empty()) {
            Some(records) => records,
            None => {
                let mut reader = FrameReader::new(&*self.store, 0, 0);
                let read: StoreResult<Vec<_>> = shard
                    .frames(idx)
                    .map(|owed| read_record(&mut reader, pid, owed))
                    .collect();
                self.count_reads(&reader);
                read?
            }
        };
        let end = shard.take(idx);
        let mut g = page.x();
        let mut redone = 0;
        for (lsn, op) in &records {
            if g.lsn() < *lsn {
                if let Err(e) = page.replay(&mut g, *lsn, op) {
                    // Owe the page again so a retry (or the background
                    // drive) sees it pending; it reads its records back and
                    // the LSN check skips the prefix applied here.
                    drop(g);
                    shard.owe_again(idx, end);
                    return Err(e);
                }
                redone += 1;
            }
        }
        drop(g);
        self.redone.fetch_add(redone, Ordering::Relaxed);
        self.redo_skipped
            .fetch_add(records.len() - redone, Ordering::Relaxed);
        self.pending_pages.fetch_sub(1, Ordering::SeqCst);
        self.redo_pages.inc();
        if !IN_DRIVE.with(Cell::get) {
            self.on_demand.inc();
        }
        Ok(())
    }

    /// `(redone, skipped)` record counts over every page replayed so far;
    /// they sum to the plan's record count once it is drained.
    pub fn redo_counts(&self) -> (usize, usize) {
        (
            self.redone.load(Ordering::Relaxed),
            self.redo_skipped.load(Ordering::Relaxed),
        )
    }

    /// Stage and replay one plan shard. Its pending pages' frames are read
    /// back in one forward pass over the log — window by window, frames it
    /// does not owe skipped by their length, each kept frame's checksum
    /// checked — and decoded into the shard's staging, which lives until
    /// the shard is drained. The pass runs without the shard mutex, so
    /// traffic meanwhile redoes its pages from the log on its own.
    fn drive_shard(&self, pool: &BufferPool, slot: &PlanShard) -> StoreResult<()> {
        let (pending, mut frames, mut staged) = {
            let shard = slot.lock();
            let pending: Vec<(usize, PageId)> = shard.pending().collect();
            let frames: Vec<(Owed, usize)> = (pending.iter().enumerate())
                .flat_map(|(k, &(idx, _))| shard.frames(idx).map(move |owed| (owed, k)))
                .collect();
            let mut staged: Vec<Vec<(Lsn, PageOp)>> =
                (0..shard.pages.len()).map(|_| Vec::new()).collect();
            for &(idx, _) in &pending {
                if let Some(page) = staged.get_mut(idx) {
                    page.reserve_exact(shard.frames(idx).len());
                }
            }
            (pending, frames, staged)
        };
        frames.sort_unstable_by_key(|&((lsn, _), _)| lsn);
        let end = frames
            .last()
            .map_or(0, |&((lsn, len), _)| lsn.0 + u64::from(len) + 7);
        // Windows of up to 64 KiB, and never more than the bytes the pass
        // keeps: the read buffer stays below the staging it feeds.
        let kept: u64 = frames.iter().map(|&((_, len), _)| u64::from(len) + 8).sum();
        let window = usize::try_from(kept).map_or(SCAN_WINDOW, |k| k.min(SCAN_WINDOW));
        let mut reader = FrameReader::new(&*self.store, window, end);

        let read = frames.into_iter().try_for_each(|(owed, k)| {
            let &(idx, pid) = pending.get(k).ok_or_else(|| {
                StoreError::Corrupt(format!("staged frame names pending page {k}"))
            })?;
            let record = read_record(&mut reader, pid, owed)?;
            if let Some(page) = staged.get_mut(idx) {
                page.push(record);
            }
            Ok(())
        });
        self.count_reads(&reader);
        read?;
        slot.lock().staged = staged;
        // Page order, not hash order: a drain is then a pure function of the
        // crash image (the sim kit crashes it at its n-th write).
        // `fetch_or_create`, not `fetch`: a page that only ever lived in the
        // log has no disk image yet. Already-drained pages resolve to a pool
        // hit or a clean disk read.
        let res = (pending.into_iter())
            .try_for_each(|(_, pid)| pool.fetch_or_create(pid, PageType::Free).map(drop));
        let mut shard = slot.lock();
        shard.staged = Vec::new();
        if shard.pending().next().is_none() {
            // Drained: the shard's LSNs go too, so what the plan holds
            // follows the records still owed.
            *shard = ShardPlan::default();
        }
        res
    }

    /// Replay every remaining page of this worker's plan shards
    /// (`shard % stride == worker`), one shard at a time. Fetching a pending
    /// page through the pool routes it back into the installed hook — the
    /// fetch is the replay; pages another thread drained in the meantime
    /// are no-ops.
    ///
    /// Public (not just used by [`InstantRecovery::drive`]) so the crash
    /// matrix can complete one worker's partition and crash with the rest of
    /// the plan still pending.
    pub fn drive_partition(
        &self,
        pool: &BufferPool,
        worker: usize,
        stride: usize,
    ) -> StoreResult<()> {
        let stride = stride.max(1);
        let mine = self.plan.iter().enumerate();
        let mut mine = mine.filter(|(si, _)| si % stride == worker);
        IN_DRIVE.with(|c| c.set(true));
        let res = mine.try_for_each(|(_, slot)| self.drive_shard(pool, slot));
        IN_DRIVE.with(|c| c.set(false));
        res
    }
    /// Synchronous drain: replay the whole remaining plan on the calling
    /// thread, uninstall the hook, and report the redo counts in `stats`
    /// (the stop-the-world policy behind [`crate::recovery::recover`]).
    pub fn drain(&self, pool: &BufferPool, stats: &mut RecoveryStats) -> StoreResult<()> {
        let timer = Stopwatch::start();
        self.drive_partition(pool, 0, 1)?;
        if self.is_complete() {
            pool.end_recovery();
        }
        self.redo_ns.record(timer.elapsed_ns());
        (stats.redone, stats.redo_skipped) = self.redo_counts();
        Ok(())
    }

    /// Background redo: replay the whole remaining plan on `workers`
    /// threads, each owning the plan shards `s ≡ w (mod workers)`. Returns
    /// when the plan is fully drained (traffic may have helped); uninstalls
    /// the pool hook if this call finished the plan.
    pub fn drive(&self, pool: &BufferPool, workers: usize) -> StoreResult<()> {
        let workers = workers.clamp(1, REDO_SHARDS);
        let result = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| s.spawn(move || self.drive_partition(pool, w, workers)))
                .collect();
            // Join every worker before reporting the first failure.
            let joined: Vec<StoreResult<()>> = handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(StoreError::Corrupt(
                            "parallel-redo worker panicked".to_string(),
                        ))
                    })
                })
                .collect();
            joined.into_iter().collect::<StoreResult<()>>()
        });
        result?;
        if self.is_complete() {
            pool.end_recovery();
        }
        Ok(())
    }
}

impl RedoHook for InstantRecovery {
    fn redo(&self, page: &PinnedPage<'_>) -> StoreResult<()> {
        self.redo_page(page)
    }

    fn pending(&self, pid: PageId) -> bool {
        self.shard_slot(pid)
            .is_ok_and(|slot| slot.lock().find(pid).is_some())
    }

    fn pending_pages(&self) -> Vec<(PageId, Lsn)> {
        let mut out = Vec::new();
        for shard in self.plan.iter() {
            let shard = shard.lock();
            let first = |(idx, pid)| shard.frames(idx).next().map(|(lsn, _)| (pid, lsn));
            out.extend(shard.pending().filter_map(first));
        }
        out
    }

    fn is_complete(&self) -> bool {
        InstantRecovery::is_complete(self)
    }
}

/// Instant restart: analysis + redo-plan build + undo, then open.
///
/// Returns once the store is safe to serve traffic — O(analysis scan), not
/// O(log). The returned [`InstantRecovery`] is already installed as `pool`'s
/// [`RedoHook`] (unless the plan is empty, in which case recovery is already
/// complete); call [`InstantRecovery::drive`] on worker threads to finish
/// redo in the background while serving.
///
/// The returned [`RecoveryStats`] covers analysis and undo, plus the redo
/// undo itself triggered; the rest of the per-page redo work is reported
/// through [`InstantRecovery::redo_counts`] and the `recovery.redo_pages` /
/// `recovery.on_demand_redos` counters as it happens.
pub fn start_instant(
    pool: &BufferPool,
    log: &LogManager,
    handler: Option<&dyn LogicalUndoHandler>,
) -> StoreResult<(Arc<InstantRecovery>, RecoveryStats)> {
    let mut stats = RecoveryStats::default();
    let rec = log.recorder().clone();
    let timer = Stopwatch::start();

    let analysis = analyze(log, &mut stats)?;
    // The plan reads its records back from the durable log. A log opened
    // for recovery has an empty tail and this force writes nothing; records
    // a caller appended before recovering become durable first.
    log.force_all()?;

    let (plan, pages, plan_records) = analysis.redo.finish()?;
    let ir = Arc::new(InstantRecovery {
        plan,
        store: Arc::clone(log.store()),
        pending_pages: AtomicUsize::new(pages),
        redone: AtomicUsize::new(0),
        redo_skipped: AtomicUsize::new(0),
        redo_pages: rec.counter("recovery.redo_pages"),
        on_demand: rec.counter("recovery.on_demand_redos"),
        redo_reads: rec.counter("recovery.redo_reads"),
        redo_read_bytes: rec.counter("recovery.redo_read_bytes"),
        redo_ns: rec.hist("recovery.redo_ns"),
    });
    // The plan is what a restart still holds that grows with the log suffix.
    rec.counter("recovery.plan_records")
        .add(plan_records as u64);
    rec.hist("recovery.analysis_ns").record(timer.elapsed_ns());

    if pages > 0 {
        pool.begin_recovery(Arc::clone(&ir) as Arc<dyn RedoHook>);
    }

    // Undo runs with the hook installed: each loser page it touches is
    // redone on first pin, so compensation always sees repeated history.
    let timer = Stopwatch::start();
    undo_pass(pool, log, handler, &analysis.active, &mut stats)?;
    log.reserve_action_ids(analysis.max_action);
    log.force_all()?;
    rec.hist("recovery.undo_ns").record(timer.elapsed_ns());
    (stats.redone, stats.redo_skipped) = ir.redo_counts();

    Ok((ir, stats))
}

#[cfg(test)]
#[expect(clippy::disallowed_macros, reason = "test assertions")]
mod tests {
    use super::*;
    use crate::action::AtomicAction;
    use crate::log::{LogStore, MemLogStore};
    use crate::record::ActionIdentity;
    use crate::record::RecordKind;
    use crate::recovery::{recover, take_checkpoint};
    use crate::testkit::{crash, put, world, World};
    use std::sync::atomic::{AtomicBool, AtomicU64};

    /// A durable log that can hold the first read after it is armed until
    /// released, and flip one byte of whatever it returns.
    #[derive(Default)]
    struct Rigged {
        inner: MemLogStore,
        hold_next: AtomicBool,
        holding: AtomicBool,
        released: AtomicBool,
        /// Log offset + 1 of the byte to flip; 0 flips none.
        flip: AtomicU64,
    }

    impl LogStore for Rigged {
        fn append(&self, bytes: &[u8]) -> StoreResult<()> {
            self.inner.append(bytes)
        }
        fn durable_bytes(&self) -> StoreResult<Vec<u8>> {
            self.inner.durable_bytes()
        }
        fn durable_len(&self) -> u64 {
            self.inner.durable_len()
        }
        fn set_master(&self, lsn: Lsn) {
            self.inner.set_master(lsn)
        }
        fn master(&self) -> Lsn {
            self.inner.master()
        }
        fn read_range(&self, offset: u64, len: usize) -> StoreResult<Vec<u8>> {
            let mut out = vec![0; len];
            self.read_into(offset, &mut out)?;
            Ok(out)
        }
        fn read_into(&self, offset: u64, buf: &mut [u8]) -> StoreResult<()> {
            if self.hold_next.swap(false, Ordering::SeqCst) {
                self.holding.store(true, Ordering::SeqCst);
                while !self.released.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            self.inner.read_into(offset, buf)?;
            let flip = self.flip.load(Ordering::SeqCst);
            if let Some(at) = flip.checked_sub(1).and_then(|f| f.checked_sub(offset)) {
                if let Some(b) = buf.get_mut(at as usize) {
                    *b ^= 0x40;
                }
            }
            Ok(())
        }
    }

    /// Restart `w`'s crash image over a [`Rigged`] copy of its log.
    fn restart_rigged(w: &World) -> (Arc<BufferPool>, Arc<LogManager>, Arc<Rigged>) {
        let store = Arc::new(Rigged {
            inner: w.store.snapshot(),
            ..Rigged::default()
        });
        let pool = Arc::new(BufferPool::new(Arc::new(w.disk.snapshot()) as Arc<_>, 64));
        let log = Arc::new(LogManager::open(Arc::clone(&store) as Arc<dyn LogStore>).unwrap());
        pool.set_wal_hook(Arc::clone(&log) as Arc<_>);
        (pool, log, store)
    }

    /// A plan whose pages span many shards: `pages` pages, two records each.
    fn spread_image(pages: u64) -> World {
        let w = world();
        for pid in 100..100 + pages {
            put(&w, PageId(pid), 0, &pid.to_be_bytes(), true);
        }
        w
    }

    /// While the drive holds its first shard's staging read, traffic pins an
    /// owed page of that shard and one of a shard not yet staged. Both redo
    /// from the log on their own; the drive then finds them done. Every
    /// page is redone exactly once and the redo counts sum to the plan.
    #[test]
    fn traffic_redoes_pages_of_the_staging_and_an_unstaged_shard_once() {
        let w = spread_image(48);
        let (pool, log, store) = restart_rigged(&crash(&w));
        let (ir, _) = start_instant(&pool, &log, None).unwrap();
        let owed = ir.pending_page_count();
        assert_eq!(owed, 48);
        let shard = |pid: u64| page_shard(PageId(pid), REDO_SHARDS);
        let first = (100..148).map(shard).min().unwrap();
        let staging = (100..148).rev().find(|&p| shard(p) == first).unwrap();
        let unstaged = (100..148).find(|&p| shard(p) > first + 1).unwrap();

        store.hold_next.store(true, Ordering::SeqCst);
        std::thread::scope(|s| {
            let drive = s.spawn(|| ir.drive(&pool, 1));
            while !store.holding.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            for pid in [staging, unstaged] {
                let page = pool.fetch(PageId(pid)).unwrap();
                assert_eq!(page.s().get(0).unwrap(), pid.to_be_bytes());
            }
            store.released.store(true, Ordering::SeqCst);
            drive.join().unwrap().unwrap();
        });
        assert!(ir.is_complete());
        let rec = log.recorder();
        assert_eq!(rec.counter("recovery.redo_pages").get(), owed as u64);
        assert_eq!(rec.counter("recovery.on_demand_redos").get(), 2);
        let (redone, skipped) = ir.redo_counts();
        let plan = rec.counter("recovery.plan_records").get();
        assert_eq!((redone + skipped) as u64, plan);
        assert_eq!(plan, 2 * 48, "format + insert a page");
        for pid in 100..148u64 {
            let page = pool.fetch(PageId(pid)).unwrap();
            assert_eq!(page.s().get(0).unwrap(), pid.to_be_bytes(), "page {pid}");
        }
    }

    /// A plan frame damaged in the store after analysis: its read back
    /// fails the checksum with a typed `Corrupt`, on demand and in the
    /// drive alike, and the page stays owed. Once the damage is gone the
    /// same plan drains.
    #[test]
    fn a_plan_frame_damaged_after_analysis_is_a_typed_error() {
        let w = spread_image(4);
        let (pool, log, store) = restart_rigged(&crash(&w));
        let (ir, _) = start_instant(&pool, &log, None).unwrap();
        let frame = log
            .scan(None)
            .map(|r| r.unwrap())
            .find(|r| {
                matches!(
                    r.kind,
                    RecordKind::Update {
                        pid: PageId(101),
                        ..
                    }
                )
            })
            .unwrap();
        store.flip.store(frame.lsn.0 + 20, Ordering::SeqCst);

        let err = pool.fetch(PageId(101)).map(drop).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m.contains("checksum")),
            "{err:?}"
        );
        assert!(RedoHook::pending(&*ir, PageId(101)));
        assert_eq!(ir.pending_page_count(), 4);
        let err = ir.drive(&pool, 1).unwrap_err();
        assert!(matches!(&err, StoreError::Corrupt(m) if m.contains("checksum")));
        assert!(RedoHook::pending(&*ir, PageId(101)));

        store.flip.store(0, Ordering::SeqCst);
        ir.drive(&pool, 1).unwrap();
        assert!(ir.is_complete());
        let page = pool.fetch(PageId(101)).unwrap();
        assert_eq!(page.s().get(0).unwrap(), 101u64.to_be_bytes());
    }

    /// A page whose only owed records are the CLRs an earlier recovery's
    /// undo wrote: the loser's update reached the disk image, the first
    /// restart compensated it, a checkpoint put the redo horizon at that
    /// CLR, and the crash lost the page. The second restart owes the page
    /// exactly the CLR and redoes it from the log.
    #[test]
    fn a_page_owed_only_by_an_earlier_undos_clr_is_redone_from_it() {
        let w = world();
        put(&w, PageId(7), 0, b"base", true);
        let page = w.pool.fetch(PageId(7)).unwrap();
        let mut act = AtomicAction::begin(&w.log, ActionIdentity::SeparateTransaction);
        {
            let mut g = page.x();
            let half = PageOp::InsertSlot {
                slot: 1,
                bytes: b"half".to_vec(),
            };
            act.apply(&page, &mut g, half).unwrap();
        }
        w.log.force_all().unwrap();
        drop(page);
        w.pool.flush_all().unwrap();
        drop(act); // the crash takes the action with it

        let w2 = crash(&w);
        let stats = recover(&w2.pool, &w2.log, None).unwrap();
        assert_eq!((stats.losers.len(), stats.clrs_written), (1, 1));
        take_checkpoint(&w2.pool, &w2.log, vec![]).unwrap();

        let w3 = crash(&w2);
        let (ir, _) = start_instant(&w3.pool, &w3.log, None).unwrap();
        let rec = w3.log.recorder();
        assert_eq!(rec.counter("recovery.plan_records").get(), 1);
        assert_eq!(ir.pending_page_count(), 1);
        ir.drive(&w3.pool, 1).unwrap();
        assert_eq!(ir.redo_counts(), (1, 0));
        let page = w3.pool.fetch(PageId(7)).unwrap();
        let g = page.s();
        assert_eq!(g.slot_count(), 1, "the CLR removed the loser's insert");
        assert_eq!(g.get(0).unwrap(), b"base");
    }

    #[test]
    fn on_demand_redo_serves_first_fetch() {
        let w = world();
        put(&w, PageId(7), 0, b"seven", true);
        put(&w, PageId(8), 0, b"eight", true);
        let w2 = crash(&w);
        let (ir, stats) = start_instant(&w2.pool, &w2.log, None).unwrap();
        assert!(stats.losers.is_empty());
        assert!(!ir.is_complete());
        assert!(w2.pool.is_recovering());
        // First fetch replays only that page.
        let page = w2.pool.fetch(PageId(7)).unwrap();
        assert_eq!(page.s().get(0).unwrap(), b"seven");
        assert_eq!(ir.pending_page_count(), 1);
        // Draining the rest completes recovery and drops the hook.
        ir.drive(&w2.pool, 2).unwrap();
        assert!(ir.is_complete());
        assert!(!w2.pool.is_recovering());
        let page8 = w2.pool.fetch(PageId(8)).unwrap();
        assert_eq!(page8.s().get(0).unwrap(), b"eight");
    }

    #[test]
    fn instant_and_serial_recovery_agree() {
        let w = world();
        for i in 0..12u64 {
            put(
                &w,
                PageId(10 + i % 4),
                (i / 4) as u16,
                &i.to_be_bytes(),
                true,
            );
        }
        // Serial baseline.
        let ws = crash(&w);
        recover(&ws.pool, &ws.log, None).unwrap();
        // Instant with background drive.
        let wi = crash(&w);
        let (ir, _) = start_instant(&wi.pool, &wi.log, None).unwrap();
        ir.drive(&wi.pool, 4).unwrap();
        for pid in 10..14u64 {
            let ps = ws.pool.fetch(PageId(pid)).unwrap();
            let pi = wi.pool.fetch(PageId(pid)).unwrap();
            assert_eq!(ps.s().as_bytes(), pi.s().as_bytes(), "page {pid} diverged");
        }
    }

    #[test]
    fn empty_plan_is_complete_immediately() {
        let w = world();
        put(&w, PageId(7), 0, b"x", true);
        w.pool.flush_all().unwrap();
        take_checkpoint(&w.pool, &w.log, vec![]).unwrap();
        let w2 = crash(&w);
        let (ir, _) = start_instant(&w2.pool, &w2.log, None).unwrap();
        assert!(ir.is_complete());
        assert!(!w2.pool.is_recovering(), "no plan ⇒ hook never installed");
        let page = w2.pool.fetch(PageId(7)).unwrap();
        assert_eq!(page.s().get(0).unwrap(), b"x");
    }

    #[test]
    fn undo_compensates_against_redone_pages() {
        let w = world();
        put(&w, PageId(7), 0, b"base", true);
        // Durable update without a durable commit: a loser.
        let page = w.pool.fetch(PageId(7)).unwrap();
        let mut act = AtomicAction::begin(&w.log, ActionIdentity::SeparateTransaction);
        {
            let mut g = page.x();
            act.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 1,
                    bytes: b"half".to_vec(),
                },
            )
            .unwrap();
        }
        w.log.force_all().unwrap();
        act.commit(); // volatile only
        drop(page);
        let w2 = crash(&w);
        let (ir, stats) = start_instant(&w2.pool, &w2.log, None).unwrap();
        assert_eq!(stats.losers.len(), 1);
        assert!(stats.clrs_written >= 1);
        ir.drive(&w2.pool, 2).unwrap();
        let page = w2.pool.fetch(PageId(7)).unwrap();
        let g = page.s();
        assert_eq!(g.slot_count(), 1, "loser insert must be undone");
        assert_eq!(g.get(0).unwrap(), b"base");
    }
}
