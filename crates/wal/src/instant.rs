//! The redo plan: the workspace's one REDO engine, and instant restart.
//!
//! Analysis (`crate::recovery::analyze`) partitions the redo range into
//! per-page record lists — a *redo plan*. [`start_instant`] installs the plan
//! as the buffer pool's [`RedoHook`], runs undo, and returns. From that
//! moment any fetch of a page that still owes records replays exactly those
//! records, under the plan shard's mutex, before the pin is handed out.
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

use crate::log::LogManager;
use crate::recovery::{analyze, undo_pass, LogicalUndoHandler, RecoveryStats};
use pitree_obs::{Counter, Hist, Stopwatch};
use pitree_pagestore::buffer::{page_shard, BufferPool, PinnedPage, RedoHook};
use pitree_pagestore::page::PageType;
use pitree_pagestore::sync::Mutex;
use pitree_pagestore::{Lsn, PageId, PageOp, StoreError, StoreResult};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of plan shards. Matches the buffer pool's shard-count cap so a
/// [`InstantRecovery::drive`] worker's partition aligns with pool shards.
const REDO_SHARDS: usize = 16;

/// One plan shard: the pending pages hashed here, each with its redo
/// records in log order.
type PlanShard = Mutex<HashMap<PageId, Vec<(Lsn, PageOp)>>>;

thread_local! {
    /// Set while this thread is inside [`InstantRecovery::drive_partition`],
    /// so the hook can tell background replay from traffic-triggered
    /// (`recovery.on_demand_redos`) replay.
    static IN_DRIVE: Cell<bool> = const { Cell::new(false) };
}

/// The redo plan of a restart: per-page, LSN-ordered record lists, sharded
/// by [`page_shard`]. Installed as the pool's [`RedoHook`] by
/// [`start_instant`]; drained synchronously by [`InstantRecovery::drain`],
/// in the background by [`InstantRecovery::drive`], and/or on demand by
/// traffic.
pub struct InstantRecovery {
    /// `plan[s]` holds the pending pages whose `page_shard(pid, REDO_SHARDS)`
    /// is `s`. Each entry is the page's redo records in log order.
    plan: Box<[PlanShard]>,
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

    /// Replay `page`'s pending records, if any. The plan-shard mutex is held
    /// across the replay: that is the per-page exclusion that keeps two
    /// first-pinners from applying the same records concurrently.
    fn redo_page(&self, page: &PinnedPage<'_>) -> StoreResult<()> {
        let pid = page.id();
        let mut shard = self.shard_slot(pid)?.lock();
        let records = match shard.remove(&pid) {
            Some(r) => r,
            None => return Ok(()),
        };
        let mut g = page.x();
        let mut redone = 0;
        for (lsn, op) in &records {
            if g.lsn() < *lsn {
                if let Err(e) = page.replay(&mut g, *lsn, op) {
                    // Put the plan entry back so a retry (or the background
                    // drive) sees the page as still pending; the applied
                    // prefix is skipped by the LSN check on the next pass.
                    drop(g);
                    shard.insert(pid, records);
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

    /// Replay every remaining page of this worker's plan shards
    /// (`shard % stride == worker`). Fetching a pending page through the
    /// pool routes it back into the installed hook — the fetch is the
    /// replay; pages another thread drained in the meantime are no-ops.
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
        let res = mine.try_for_each(|(_, shard)| {
            let mut pids: Vec<PageId> = shard.lock().keys().copied().collect();
            // Page order, not hash order: a drain is then a pure function
            // of the crash image (the sim kit crashes it at its n-th write).
            pids.sort_unstable();
            // `fetch_or_create`, not `fetch`: a page that only ever lived in
            // the log has no disk image yet. Already-drained pages resolve
            // to a pool hit or a clean disk read.
            pids.into_iter()
                .try_for_each(|pid| pool.fetch_or_create(pid, PageType::Free).map(drop))
        });
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
            .is_ok_and(|slot| slot.lock().contains_key(&pid))
    }

    fn pending_pages(&self) -> Vec<(PageId, Lsn)> {
        let mut out = Vec::new();
        for shard in self.plan.iter() {
            let shard = shard.lock();
            out.extend(
                shard
                    .iter()
                    .filter_map(|(pid, recs)| recs.first().map(|(lsn, _)| (*pid, *lsn))),
            );
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

    // Shard the plan analysis built. Each page's list moves as a whole, so
    // the plan is the restart's only copy of the redo payload.
    let pages = analysis.redo.len();
    let ir = Arc::new(InstantRecovery {
        plan: (0..REDO_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect(),
        pending_pages: AtomicUsize::new(pages),
        redone: AtomicUsize::new(0),
        redo_skipped: AtomicUsize::new(0),
        redo_pages: rec.counter("recovery.redo_pages"),
        on_demand: rec.counter("recovery.on_demand_redos"),
        redo_ns: rec.hist("recovery.redo_ns"),
    });
    let mut plan_records = 0;
    for (pid, records) in analysis.redo {
        plan_records += records.len() as u64;
        ir.shard_slot(pid)?.lock().insert(pid, records);
    }
    // The plan is what a restart still holds that grows with the log suffix.
    rec.counter("recovery.plan_records").add(plan_records);
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
    use crate::record::ActionIdentity;
    use crate::recovery::{recover, take_checkpoint};
    use crate::testkit::{crash, put, world};

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
