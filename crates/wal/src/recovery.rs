//! Crash recovery: analysis, redo ("repeating history"), undo.
//!
//! The paper's point 4 (§1): "When a system crash occurs during the sequence
//! of atomic actions that constitutes a complete Π-tree structure change,
//! crash recovery takes no special measures." This module is those
//! no-special-measures: it is a plain ARIES-style recovery driver that knows
//! nothing about trees. Atomic actions whose `Commit` record is durable are
//! redone; the rest are rolled back. Because every individual action leaves
//! the tree well-formed, the recovered tree is well-formed — possibly in an
//! *intermediate* state (split done, index term not posted), which normal
//! processing later detects and completes (§5.1).
//!
//! Recovery reads only the *durable* log: the group-commit tail
//! (`crate::log`) buffers unforced records in memory, so after a crash they
//! simply do not exist. Analysis streams the log ([`LogManager::scan`]): the
//! first frame that does not decode — torn at the durable tail or corrupt in
//! the middle — ends the scan at the last whole record before it
//! (committed-prefix semantics; telling the two apart and repairing the
//! second is the ROADMAP's self-verifying-pages direction), while a
//! *device* error from a ranged read fails recovery with that error rather
//! than shortening the log. Recovery returns typed errors and never panics
//! (the `#![deny]` line below, with `clippy.toml`'s `disallowed-macros`,
//! enforces this mechanically under the clippy gate).
//!
//! There is one restart pipeline and one REDO engine: analysis emits a
//! per-page redo plan, the plan is installed as the buffer pool's redo hook,
//! undo runs against it, and the plan is drained. The entry points differ
//! only in *who drains*:
//!
//! * [`recover`] — stop-the-world: the calling thread drains the whole plan
//!   before returning.
//! * [`crate::instant::start_instant`] — instant restart: the store opens
//!   after undo; traffic and/or background workers drain. See `RECOVERY.md`.
//!
//! [`take_checkpoint`] writes the fuzzy checkpoint (dirty-page table +
//! active-action table) that bounds both analysis and the redo horizon.

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

use crate::instant::{start_instant, PlanBuilder};
use crate::log::LogManager;
use crate::record::{ActionId, ActionIdentity, HeadKind, RecordKind, UndoInfo};
use pitree_obs::Stopwatch;
use pitree_pagestore::buffer::BufferPool;
use pitree_pagestore::sync::FixedMap;
use pitree_pagestore::{Lsn, StoreError, StoreResult};
use std::collections::HashMap;

/// Callback through which recovery (and normal rollback) performs
/// non-page-oriented UNDO: the tree registers a handler that compensates a
/// logged logical operation through its own (idempotent) APIs.
pub trait LogicalUndoHandler: Sync {
    /// Undo the logical operation `(tag, payload)`.
    fn undo(&self, tag: u8, payload: &[u8]) -> StoreResult<()>;
}

/// What recovery did, for tests and the recovery experiments (E3).
#[derive(Debug, Default)]
pub struct RecoveryStats {
    /// Log records scanned during analysis.
    pub scanned: usize,
    /// Redo operations actually applied (page LSN < record LSN).
    pub redone: usize,
    /// Redo operations skipped because the page was already current.
    pub redo_skipped: usize,
    /// Actions found incomplete and rolled back, with their identities.
    pub losers: Vec<(ActionId, ActionIdentity)>,
    /// CLRs written during the undo pass.
    pub clrs_written: usize,
    /// Where analysis started (master checkpoint or log start).
    pub analysis_start: Lsn,
}

/// Look up an undo chain's most recent LSN. The undo pass only walks
/// actions seeded into `last_lsns`, so a miss means the log chain is
/// inconsistent — report it rather than panic mid-recovery.
fn last_lsn(last_lsns: &HashMap<ActionId, Lsn>, action: ActionId) -> StoreResult<Lsn> {
    last_lsns.get(&action).copied().ok_or_else(|| {
        StoreError::Corrupt(format!(
            "undo pass reached action {} with no known last LSN",
            action.0
        ))
    })
}

/// What the analysis pass learned: the loser table, the highest action id
/// seen, and the redo plan.
pub(crate) struct Analysis {
    /// Actions with no durable `Commit`/`End`: identity + last known LSN.
    pub active: FixedMap<ActionId, (ActionIdentity, Lsn)>,
    /// Highest action id seen (recovery reserves past it).
    pub max_action: u64,
    /// The redo plan: the LSN and frame length of each page's redo records
    /// from the redo horizon (min dirty-page recovery LSN) onward.
    pub redo: PlanBuilder,
}

/// Analysis pass: seed from the master checkpoint when present (falling back
/// to a full scan if the master points at a torn or missing record — the
/// master is only advanced *after* its checkpoint is durable, so a readable
/// master always names a whole checkpoint), then stream forward once,
/// building the active-action table and the redo plan. The scan reads record
/// heads ([`LogManager::scan_heads`]): a redo record adds its LSN and frame
/// length to the plan and its `PageOp` is never decoded, so analysis holds
/// one scan window plus the plan's LSNs — never the suffix or its payload.
pub(crate) fn analyze(log: &LogManager, stats: &mut RecoveryStats) -> StoreResult<Analysis> {
    let master = log.store().master();
    let mut active: FixedMap<ActionId, (ActionIdentity, Lsn)> = FixedMap::default();
    let mut redo_start = Lsn(1);
    let mut scan_from = Lsn(1);
    if master != Lsn::ZERO {
        if let Ok(rec) = log.read(master) {
            if let RecordKind::Checkpoint {
                active: ckpt_active,
                dirty,
            } = rec.kind
            {
                for (a, id, last) in ckpt_active {
                    active.insert(a, (id, last));
                }
                redo_start = dirty.iter().map(|&(_, l)| l).min().unwrap_or(master);
                scan_from = master;
            }
        }
    }

    // The scan starts at the earliest point that might concern a dirty page
    // — the redo horizon, which may precede the master. Records below the
    // master only feed the redo plan: the checkpoint's active-action table
    // already accounts for them.
    let mut max_action = 0u64;
    let mut redo = PlanBuilder::new();
    for head in log.scan_heads(Some(redo_start.min(scan_from))) {
        let head = head?;
        if head.lsn >= scan_from {
            stats.scanned += 1;
            max_action = max_action.max(head.action.0);
            match head.kind {
                HeadKind::Begin(identity) => {
                    active.insert(head.action, (identity, head.lsn));
                }
                HeadKind::Done => {
                    active.remove(&head.action);
                }
                HeadKind::Checkpoint => {}
                HeadKind::Page(_) | HeadKind::Other => {
                    if let Some(entry) = active.get_mut(&head.action) {
                        entry.1 = head.lsn;
                    }
                }
            }
        }
        if let HeadKind::Page(pid) = head.kind {
            redo.owe(pid, head.lsn, head.len)?;
        }
    }
    stats.analysis_start = scan_from;
    Ok(Analysis {
        active,
        max_action,
        redo,
    })
}

/// Run full crash recovery over `pool` + `log`.
///
/// `handler` is required if the log can contain logical-undo records (i.e.
/// the tree was configured with non-page-oriented UNDO).
///
/// This is the stop-the-world drain policy: [`start_instant`] runs analysis
/// and undo with the redo plan installed, then the calling thread replays
/// every page the plan still owes before this returns.
pub fn recover(
    pool: &BufferPool,
    log: &LogManager,
    handler: Option<&dyn LogicalUndoHandler>,
) -> StoreResult<RecoveryStats> {
    let (plan, mut stats) = start_instant(pool, log, handler)?;
    plan.drain(pool, &mut stats)?;
    Ok(stats)
}

/// Undo pass: roll back losers. Multi-chain undo in globally descending LSN
/// order, writing CLRs so a crash during recovery's own undo is safe.
///
/// This runs *while the redo hook is installed*: each `pool.fetch` below
/// replays the touched page's pending redo records before the undo reads
/// it, so undo always compensates against fully-redone state.
pub(crate) fn undo_pass(
    pool: &BufferPool,
    log: &LogManager,
    handler: Option<&dyn LogicalUndoHandler>,
    active: &FixedMap<ActionId, (ActionIdentity, Lsn)>,
    stats: &mut RecoveryStats,
) -> StoreResult<()> {
    let mut cursors: HashMap<ActionId, Lsn> = HashMap::new();
    let mut last_lsns: HashMap<ActionId, Lsn> = HashMap::new();
    for (a, (id, last)) in active {
        stats.losers.push((*a, *id));
        cursors.insert(*a, *last);
        last_lsns.insert(*a, *last);
    }

    while let Some((&action, &cursor)) = cursors.iter().max_by_key(|&(_, &l)| l) {
        if cursor == Lsn::ZERO {
            cursors.remove(&action);
            continue;
        }
        let rec = log.read(cursor)?;
        match rec.kind {
            RecordKind::Update { pid, undo, .. } => {
                let last = last_lsn(&last_lsns, action)?;
                match undo {
                    UndoInfo::Physiological(inv) => {
                        let page = pool.fetch(pid)?;
                        let mut g = page.x();
                        let clr = page.apply_logged(&mut g, &inv, || {
                            log.append(
                                action,
                                last,
                                RecordKind::Clr {
                                    pid,
                                    redo: inv.clone(),
                                    undo_next: rec.prev,
                                },
                            )
                        })?;
                        page.mark_dirty_at(clr);
                        last_lsns.insert(action, clr);
                        stats.clrs_written += 1;
                    }
                    UndoInfo::Logical { tag, payload } => {
                        let h = handler.ok_or_else(|| {
                            StoreError::Corrupt(
                                "logical undo record during recovery but no handler registered"
                                    .to_string(),
                            )
                        })?;
                        h.undo(tag, &payload)?;
                        let clr = log.append(
                            action,
                            last,
                            RecordKind::LogicalClr {
                                undo_next: rec.prev,
                            },
                        );
                        last_lsns.insert(action, clr);
                        stats.clrs_written += 1;
                    }
                    UndoInfo::None => {}
                }
                cursors.insert(action, rec.prev);
            }
            RecordKind::Clr { undo_next, .. } | RecordKind::LogicalClr { undo_next } => {
                cursors.insert(action, undo_next);
            }
            RecordKind::Begin { .. } => {
                log.append(action, last_lsn(&last_lsns, action)?, RecordKind::End);
                cursors.remove(&action);
            }
            _ => {
                cursors.insert(action, rec.prev);
            }
        }
    }
    Ok(())
}

/// Take a fuzzy checkpoint: log the active-action and dirty-page tables,
/// force the log, and point the master record at the checkpoint.
///
/// Fuzzy means no quiescing: updates keep flowing while the tables are
/// snapshotted. Soundness rests on two orderings enforced elsewhere —
/// every updater marks its page dirty *before* appending the update record
/// (`crate::action`), so a page absent from the dirty-page table has all
/// its records at or past the checkpoint LSN; and the buffer pool clears a
/// frame's dirty flag only *after* write-back I/O completes, so a page
/// mid-write still shows up in the table. While a redo plan is still being
/// drained, `dirty_pages` also lists every page the plan owes (at its first
/// pending LSN): such a page was never fetched since restart, so no frame
/// speaks for it. The master is advanced only after the checkpoint record is
/// durable: a crash mid-checkpoint leaves the old master, whose checkpoint is
/// still whole. Before the master moves, the page store is synced: a page
/// the dirty-page table leaves out is clean because its write completed,
/// and only a synced write is durable.
pub fn take_checkpoint(
    pool: &BufferPool,
    log: &LogManager,
    active: Vec<(ActionId, ActionIdentity, Lsn)>,
) -> StoreResult<Lsn> {
    let rec = log.recorder();
    let timer = Stopwatch::start();
    let dirty = pool.dirty_pages();
    rec.hist("wal.ckpt_dirty").record(dirty.len() as u64);
    let lsn = log.append(
        ActionId(0),
        Lsn::ZERO,
        RecordKind::Checkpoint { active, dirty },
    );
    log.force_all()?;
    pool.disk().sync()?;
    log.store().try_set_master(lsn)?;
    log.note_checkpoint();
    rec.counter("wal.ckpt_taken").inc();
    rec.hist("wal.ckpt_ns").record(timer.elapsed_ns());
    Ok(lsn)
}

#[cfg(test)]
#[expect(clippy::disallowed_macros, reason = "test assertions")]
mod tests {
    use super::*;
    use crate::action::AtomicAction;
    use crate::log::{LogManager, LogStore, MemLogStore};
    use crate::testkit::{crash, put, world};
    use pitree_pagestore::page::{Page, PageType};
    use pitree_pagestore::{DiskManager, MemDisk, PageId, PageOp};
    use std::sync::Arc;

    #[test]
    fn committed_forced_action_survives_crash() {
        let w = world();
        put(&w, PageId(7), 0, b"durable", true);
        // Crash without flushing any page.
        let w2 = crash(&w);
        let stats = recover(&w2.pool, &w2.log, None).unwrap();
        assert!(stats.losers.is_empty());
        assert!(stats.redone >= 2);
        let page = w2.pool.fetch(PageId(7)).unwrap();
        assert_eq!(page.s().get(0).unwrap(), b"durable");
    }

    #[test]
    fn unforced_action_is_rolled_back() {
        let w = world();
        put(&w, PageId(7), 0, b"base", true);
        put(&w, PageId(7), 1, b"lost", false); // commit not forced
        let w2 = crash(&w);
        let stats = recover(&w2.pool, &w2.log, None).unwrap();
        // The second action's records never reached the durable log at all,
        // so it is simply absent — no loser, no trace.
        assert!(stats.losers.is_empty());
        let page = w2.pool.fetch(PageId(7)).unwrap();
        let g = page.s();
        assert_eq!(g.slot_count(), 1);
        assert_eq!(g.get(0).unwrap(), b"base");
    }

    #[test]
    fn action_with_durable_updates_but_no_commit_is_undone() {
        let w = world();
        put(&w, PageId(7), 0, b"base", true);
        // Begin + update durable, commit NOT durable.
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
        w.log.force_all().unwrap(); // updates durable...
        act.commit(); // ...commit only in the volatile tail
        drop(page);
        // Flush the page so the half-done update is on disk — the hard case.
        w.pool.flush_all().unwrap();
        let w2 = crash(&w);
        let stats = recover(&w2.pool, &w2.log, None).unwrap();
        assert_eq!(stats.losers.len(), 1);
        assert!(stats.clrs_written >= 1);
        let page = w2.pool.fetch(PageId(7)).unwrap();
        let g = page.s();
        assert_eq!(g.slot_count(), 1, "uncommitted insert must be undone");
        assert_eq!(g.get(0).unwrap(), b"base");
    }

    #[test]
    fn redo_skips_pages_already_current() {
        let w = world();
        put(&w, PageId(7), 0, b"x", true);
        w.pool.flush_all().unwrap(); // page on disk with final LSN
        let w2 = crash(&w);
        let stats = recover(&w2.pool, &w2.log, None).unwrap();
        assert_eq!(stats.redone, 0);
        assert!(stats.redo_skipped >= 2);
    }

    #[test]
    fn recovery_is_idempotent() {
        let w = world();
        put(&w, PageId(7), 0, b"a", true);
        put(&w, PageId(8), 0, b"b", true);
        let w2 = crash(&w);
        recover(&w2.pool, &w2.log, None).unwrap();
        // Crash again immediately (post-recovery log is forced) and recover.
        let w3 = crash(&w2);
        let stats = recover(&w3.pool, &w3.log, None).unwrap();
        assert!(stats.losers.is_empty());
        let page = w3.pool.fetch(PageId(7)).unwrap();
        assert_eq!(page.s().get(0).unwrap(), b"a");
        let page8 = w3.pool.fetch(PageId(8)).unwrap();
        assert_eq!(page8.s().get(0).unwrap(), b"b");
    }

    #[test]
    fn crash_during_rollback_resumes_via_undo_next() {
        let w = world();
        put(&w, PageId(7), 0, b"base", true);
        let page = w.pool.fetch(PageId(7)).unwrap();
        let mut act = AtomicAction::begin(&w.log, ActionIdentity::SeparateTransaction);
        {
            let mut g = page.x();
            act.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 1,
                    bytes: b"u1".to_vec(),
                },
            )
            .unwrap();
            act.apply(
                &page,
                &mut g,
                PageOp::InsertSlot {
                    slot: 2,
                    bytes: b"u2".to_vec(),
                },
            )
            .unwrap();
        }
        drop(page);
        w.log.force_all().unwrap();
        // Simulate a crash mid-rollback: manually write the Abort and ONE CLR
        // (undoing u2), then "crash".
        let id = act.id();
        let last = act.last_lsn();
        let abort = w.log.append(id, last, RecordKind::Abort);
        {
            let page = w.pool.fetch(PageId(7)).unwrap();
            let mut g = page.x();
            let rec_u2 = w.log.read(last).unwrap();
            let redo = PageOp::RemoveSlot { slot: 2 };
            let clr = page
                .apply_logged(&mut g, &redo, || {
                    w.log.append(
                        id,
                        abort,
                        RecordKind::Clr {
                            pid: PageId(7),
                            redo: redo.clone(),
                            undo_next: rec_u2.prev,
                        },
                    )
                })
                .unwrap();
            page.mark_dirty_at(clr);
        }
        w.log.force_all().unwrap();
        w.pool.flush_all().unwrap();
        let _ = act; // the action object is dead with the crash
        let w2 = crash(&w);
        let stats = recover(&w2.pool, &w2.log, None).unwrap();
        assert_eq!(stats.losers.len(), 1);
        // Only u1 still needed compensation.
        assert_eq!(stats.clrs_written, 1);
        let page = w2.pool.fetch(PageId(7)).unwrap();
        let g = page.s();
        assert_eq!(g.slot_count(), 1);
        assert_eq!(g.get(0).unwrap(), b"base");
    }

    #[test]
    fn checkpoint_bounds_analysis() {
        let w = world();
        for i in 0..5 {
            put(&w, PageId(7), i, format!("r{i}").as_bytes(), true);
        }
        w.pool.flush_all().unwrap();
        take_checkpoint(&w.pool, &w.log, vec![]).unwrap();
        put(&w, PageId(7), 5, b"after", true);
        let w2 = crash(&w);
        let stats = recover(&w2.pool, &w2.log, None).unwrap();
        assert!(
            stats.analysis_start > Lsn(1),
            "analysis must start at the checkpoint"
        );
        // Only the post-checkpoint action needs redo.
        assert_eq!(stats.redone, 1);
        let page = w2.pool.fetch(PageId(7)).unwrap();
        assert_eq!(page.s().slot_count(), 6);
    }

    /// A page store whose writes stay volatile until `sync`: a crash keeps
    /// only the synced image.
    #[derive(Default)]
    struct SyncedDisk {
        synced: MemDisk,
        unsynced: pitree_pagestore::sync::Mutex<Vec<(PageId, Page)>>,
    }

    impl DiskManager for SyncedDisk {
        fn read_page(&self, pid: PageId) -> StoreResult<Page> {
            let unsynced = self.unsynced.lock();
            match unsynced.iter().rev().find(|(p, _)| *p == pid) {
                Some((_, page)) => Ok(page.clone()),
                None => self.synced.read_page(pid),
            }
        }
        fn write_page(&self, pid: PageId, page: &Page) -> StoreResult<()> {
            self.unsynced.lock().push((pid, page.clone()));
            Ok(())
        }
        fn num_pages(&self) -> u64 {
            let unsynced = self.unsynced.lock();
            let top = unsynced.iter().map(|(p, _)| p.0 + 1).max().unwrap_or(0);
            top.max(self.synced.num_pages())
        }
        fn sync(&self) -> StoreResult<()> {
            let unsynced = std::mem::take(&mut *self.unsynced.lock());
            unsynced
                .iter()
                .try_for_each(|(pid, page)| self.synced.write_page(*pid, page))
        }
    }

    /// A fuzzy checkpoint leaves a page out of its dirty-page table once
    /// the page's write completed, so the master may move past its records
    /// only when that write is durable: the checkpoint syncs the page store
    /// before it sets the master. Here the page write is never synced by
    /// anyone else, and the crash keeps only synced writes.
    #[test]
    fn a_checkpoint_names_a_page_clean_only_once_its_write_is_synced() {
        let disk = Arc::new(SyncedDisk::default());
        let store = Arc::new(MemLogStore::new());
        let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 32);
        let log = Arc::new(LogManager::open(Arc::clone(&store) as Arc<dyn LogStore>).unwrap());
        pool.set_wal_hook(Arc::clone(&log) as Arc<_>);
        let page = pool.fetch_or_create(PageId(7), PageType::Free).unwrap();
        let mut act = AtomicAction::begin(&log, ActionIdentity::Transaction);
        {
            let mut g = page.x();
            act.apply(&page, &mut g, PageOp::Format { ty: PageType::Node })
                .unwrap();
            let insert = PageOp::InsertSlot {
                slot: 0,
                bytes: b"durable".to_vec(),
            };
            act.apply(&page, &mut g, insert).unwrap();
        }
        drop(page);
        act.commit_force().unwrap();
        pool.flush_all().unwrap();
        take_checkpoint(&pool, &log, vec![]).unwrap();

        // Crash: the synced page image and the durable log survive.
        let disk2 = Arc::new(disk.synced.snapshot());
        let pool2 = BufferPool::new(disk2 as Arc<dyn DiskManager>, 32);
        let log2 = Arc::new(LogManager::open(Arc::new(store.snapshot())).unwrap());
        pool2.set_wal_hook(Arc::clone(&log2) as Arc<_>);
        recover(&pool2, &log2, None).unwrap();
        let page = pool2.fetch(PageId(7)).unwrap();
        assert_eq!(page.s().get(0).unwrap(), b"durable");
    }

    #[test]
    fn every_log_prefix_recovers_to_a_consistent_store() {
        // Log-prefix crash fuzzing: truncate the durable log at every byte
        // boundary and verify recovery never fails and never produces a
        // store where a committed action is half-applied.
        let w = world();
        put(&w, PageId(7), 0, b"one", true);
        put(&w, PageId(7), 1, b"two", true);
        put(&w, PageId(8), 0, b"three", true);
        let full = w.store.durable_len();
        for cut in 0..=full {
            let disk = Arc::new(w.disk.snapshot());
            let store = Arc::new(w.store.snapshot_truncated(cut));
            // Master may point past the cut; reset it (a real master record
            // is only updated after its checkpoint is durable).
            store.set_master(Lsn::ZERO);
            let pool = Arc::new(BufferPool::new(Arc::clone(&disk) as Arc<_>, 32));
            let log = Arc::new(LogManager::open(Arc::clone(&store) as Arc<dyn LogStore>).unwrap());
            pool.set_wal_hook(Arc::clone(&log) as Arc<_>);
            let stats = recover(&pool, &log, None).unwrap();
            // Committed-and-durable actions must be fully present: check that
            // any slot that exists has the full expected content.
            if let Ok(page) = pool.fetch(PageId(7)) {
                let g = page.s();
                if g.page_type().unwrap() == PageType::Node {
                    for i in 0..g.slot_count() {
                        let rec = g.get(i).unwrap();
                        assert!(rec == b"one" || rec == b"two", "cut={cut}");
                    }
                }
            }
            drop(stats);
        }
    }
}
