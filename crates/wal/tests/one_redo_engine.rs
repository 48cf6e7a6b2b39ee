//! Oracles for the one REDO engine (`pitree_wal::instant`): every restart —
//! stop-the-world or instant — builds the same per-page plan and replays it
//! through the same routine, so the plan is checked here against the
//! textbook it replaced, against its own statistics, against the log it
//! reads, and against a checkpoint taken while it is half drained.

use pitree_pagestore::buffer::BufferPool;
use pitree_pagestore::page::PageType;
use pitree_pagestore::sync::Mutex;
use pitree_pagestore::{Lsn, MemDisk, PageId, PageOp, StoreResult};
use pitree_wal::{
    recover, start_instant, take_checkpoint, ActionIdentity, AtomicAction, LogManager, LogStore,
    MemLogStore, RecordKind,
};
use std::sync::Arc;

struct World {
    disk: Arc<MemDisk>,
    store: Arc<MemLogStore>,
    pool: Arc<BufferPool>,
    log: Arc<LogManager>,
}

fn assemble(disk: MemDisk, store: MemLogStore) -> World {
    let disk = Arc::new(disk);
    let store = Arc::new(store);
    let pool = Arc::new(BufferPool::new(Arc::clone(&disk) as Arc<_>, 32));
    let log = Arc::new(LogManager::open(Arc::clone(&store) as Arc<dyn LogStore>).unwrap());
    pool.set_wal_hook(Arc::clone(&log) as Arc<_>);
    World {
        disk,
        store,
        pool,
        log,
    }
}

/// Crash: keep only the durable disk image and the durable log prefix.
fn crash(w: &World) -> World {
    assemble(w.disk.snapshot(), w.store.snapshot())
}

/// One forced system transaction inserting `bytes` at `slot` of `pid`.
fn put(w: &World, pid: PageId, slot: u16, bytes: &[u8]) {
    let page = w.pool.fetch_or_create(pid, PageType::Free).unwrap();
    let mut act = AtomicAction::begin(&w.log, ActionIdentity::SystemTransaction);
    {
        let mut g = page.x();
        if g.page_type().unwrap() == PageType::Free {
            act.apply(&page, &mut g, PageOp::Format { ty: PageType::Node })
                .unwrap();
        }
        let bytes = bytes.to_vec();
        act.apply(&page, &mut g, PageOp::InsertSlot { slot, bytes })
            .unwrap();
    }
    act.commit_force().unwrap();
}

/// A durable update of `pid` whose commit never reaches the log: a loser.
fn put_loser(w: &World, pid: PageId, slot: u16) {
    let page = w.pool.fetch(pid).unwrap();
    let mut act = AtomicAction::begin(&w.log, ActionIdentity::SeparateTransaction);
    let bytes = b"loser".to_vec();
    act.apply(&page, &mut page.x(), PageOp::InsertSlot { slot, bytes })
        .unwrap();
    // The dead machine never commits or rolls back: `act` just goes away.
    w.log.force_all().unwrap();
}

/// A loser-free image over pages 10..14 whose disk copies lag the log by
/// different amounts: two rounds flushed, one round evicted-by-hand for a
/// single page, the rest only in the log.
fn partially_flushed_image() -> World {
    let w = assemble(MemDisk::new(), MemLogStore::new());
    for i in 0..8u64 {
        put(&w, PageId(10 + i % 4), (i / 4) as u16, &i.to_be_bytes());
    }
    w.pool.flush_all().unwrap();
    for i in 8..20u64 {
        put(&w, PageId(10 + i % 4), (i / 4) as u16, &i.to_be_bytes());
        if i == 13 {
            w.pool.flush_all().unwrap();
        }
    }
    w
}

/// The textbook REDO pass stays as the reference: replay the log in log
/// order (`page LSN < record LSN` ⇒ apply, stamp) and demand the plan-based
/// engine produce the same bytes on every page.
#[test]
fn plan_redo_matches_log_order_replay_byte_for_byte() {
    let w = partially_flushed_image();

    let engine = crash(&w);
    let stats = recover(&engine.pool, &engine.log, None).unwrap();
    assert!(stats.losers.is_empty(), "the image must be loser-free");
    assert!(stats.redone > 0 && stats.redo_skipped > 0);

    let textbook = crash(&w);
    for rec in textbook.log.scan(None) {
        let rec = rec.unwrap();
        let (RecordKind::Update { pid, redo, .. } | RecordKind::Clr { pid, redo, .. }) = rec.kind
        else {
            continue;
        };
        let page = textbook.pool.fetch_or_create(pid, PageType::Free).unwrap();
        let mut g = page.x();
        if g.lsn() < rec.lsn {
            page.replay(&mut g, rec.lsn, &redo).unwrap();
        }
    }

    for pid in 10..14u64 {
        let a = engine.pool.fetch(PageId(pid)).unwrap();
        let b = textbook.pool.fetch(PageId(pid)).unwrap();
        assert_eq!(
            a.s().as_bytes(),
            b.s().as_bytes(),
            "page {pid}: plan and log-order replay disagree"
        );
    }
}

/// Drain policies report the same work: on one crash image (with a loser),
/// `recover` and `start_instant` + `drive` agree on records considered,
/// losers and CLRs.
#[test]
fn drain_policies_report_equal_stats() {
    let w = partially_flushed_image();
    put_loser(&w, PageId(11), 5);

    let a = crash(&w);
    let sync = recover(&a.pool, &a.log, None).unwrap();

    let b = crash(&w);
    let (plan, open) = start_instant(&b.pool, &b.log, None).unwrap();
    assert!(
        open.redone > 0,
        "undo's own on-demand redo must be reported"
    );
    plan.drive(&b.pool, 4).unwrap();
    let (redone, skipped) = plan.redo_counts();

    assert_eq!(sync.losers.len(), 1);
    assert_eq!(sync.losers.len(), open.losers.len());
    assert_eq!(sync.clrs_written, open.clrs_written);
    assert_eq!(sync.redone + sync.redo_skipped, redone + skipped);
    assert_eq!(sync.redone, redone, "same image, same pages stale");
}

/// A `LogStore` that records every ranged read.
struct ReadLog {
    inner: MemLogStore,
    reads: Mutex<Vec<(u64, usize)>>,
}

impl LogStore for ReadLog {
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
        self.reads.lock().push((offset, len));
        self.inner.read_range(offset, len)
    }
}

/// Analysis reads the log once even when the checkpoint's redo horizon
/// precedes the master: after fetching the checkpoint record, its ranged
/// reads tile `[redo horizon, end)` exactly once — ascending, no gap, no
/// overlap. Not one pass from the master plus one from the horizon, and not
/// one read of the whole suffix. The drain then reads the plan's records
/// back: each of its reads starts at an owed frame inside that range, and
/// one shard's reads ascend (one forward pass a shard).
#[test]
fn analysis_scans_the_log_once_when_the_horizon_precedes_the_master() {
    let w = assemble(MemDisk::new(), MemLogStore::new());
    put(&w, PageId(7), 0, b"dirty at the checkpoint");
    let master = take_checkpoint(&w.pool, &w.log, vec![]).unwrap();
    let RecordKind::Checkpoint { dirty, .. } = w.log.read(master).unwrap().kind else {
        panic!("the master names a checkpoint");
    };
    let horizon = dirty.iter().map(|&(_, l)| l.0 - 1).min().unwrap();
    assert!(horizon < master.0 - 1);
    // Enough log after the checkpoint for several scan windows.
    for i in 0..30u64 {
        put(&w, PageId(100 + i), 0, &[i as u8; 3900]);
    }

    let store = Arc::new(ReadLog {
        inner: w.store.snapshot(),
        reads: Mutex::new(Vec::new()),
    });
    let pool = BufferPool::new(Arc::new(w.disk.snapshot()) as Arc<_>, 32);
    let log = LogManager::open(Arc::clone(&store) as Arc<dyn LogStore>).unwrap();
    store.reads.lock().clear();
    let (plan, mut stats) = start_instant(&pool, &log, None).unwrap();
    let reads = std::mem::take(&mut *store.reads.lock());
    plan.drain(&pool, &mut stats).unwrap();

    assert_eq!(stats.analysis_start, master);
    assert_eq!(stats.redone, 2 + 60, "every page: format + insert");
    // Frame header, then body, of the master checkpoint; then the scan.
    let (ckpt, windows) = reads.split_at(2);
    assert_eq!(ckpt[0], (master.0 - 1, 8), "reads: {reads:?}");
    assert!(windows.len() > 1, "several windows: {reads:?}");
    let mut at = horizon;
    for &(off, len) in windows {
        assert_eq!(off, at, "reads: {reads:?}");
        at += len as u64;
    }
    assert_eq!(at, store.durable_len(), "reads: {reads:?}");

    let drain = std::mem::take(&mut *store.reads.lock());
    let frames: std::collections::BTreeSet<u64> = log
        .scan(Some(Lsn(horizon + 1)))
        .map(|r| r.unwrap())
        .filter(|r| matches!(r.kind, RecordKind::Update { .. }))
        .map(|r| r.lsn.0 - 1)
        .collect();
    assert!(!drain.is_empty(), "the drain reads the plan's records back");
    for &(off, len) in drain.iter() {
        assert!(
            frames.contains(&off),
            "a read at {off} starts at no owed frame"
        );
        assert!(
            off + len as u64 <= store.durable_len(),
            "drain reads: {drain:?}"
        );
    }
    // A read below its predecessor starts the next shard's pass: at most
    // one forward pass per plan shard (16).
    let passes = 1 + drain.windows(2).filter(|w| w[1].0 <= w[0].0).count();
    assert!(passes <= 16, "{passes} passes: {drain:?}");
}

/// Regression: a fuzzy checkpoint taken while the redo plan is still
/// pending must list the pages the plan owes in its dirty-page table.
/// Leaving them out advances the master past their only records, and the
/// next crash loses committed data.
#[test]
fn checkpoint_while_plan_pending_keeps_owed_pages_recoverable() {
    let w = assemble(MemDisk::new(), MemLogStore::new());
    put(&w, PageId(8), 0, b"eight");
    put(&w, PageId(7), 0, b"seven");

    // First crash, nothing flushed; restart instantly and touch P7 only.
    let w2 = crash(&w);
    let (plan, _) = start_instant(&w2.pool, &w2.log, None).unwrap();
    drop(w2.pool.fetch(PageId(7)).unwrap());
    assert_eq!(plan.pending_page_count(), 1, "P8 must still be owed");
    let ckpt = take_checkpoint(&w2.pool, &w2.log, vec![]).unwrap();
    match w2.log.read(ckpt).unwrap().kind {
        RecordKind::Checkpoint { dirty, .. } => {
            let pages: Vec<PageId> = dirty.iter().map(|&(p, _)| p).collect();
            assert_eq!(pages, [PageId(7), PageId(8)], "resident dirty + owed");
        }
        other => panic!("expected a checkpoint, got {other:?}"),
    }

    // Second crash before the plan drains: P8 exists only in the log below
    // the new master.
    let w3 = crash(&w2);
    recover(&w3.pool, &w3.log, None).unwrap();
    for (pid, want) in [(7, &b"seven"[..]), (8, &b"eight"[..])] {
        let page = w3.pool.fetch(PageId(pid)).unwrap();
        assert_eq!(page.s().get(0).unwrap(), want, "page {pid}");
    }
}
