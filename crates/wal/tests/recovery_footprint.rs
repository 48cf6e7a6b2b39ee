//! The restart footprint gate: analysis pays for the window it reads and
//! the plan it owes, not for the log suffix.
//!
//! `start_instant` streams the post-checkpoint suffix one window at a time
//! and moves each redo op into the per-page plan as it is decoded. So the
//! peak of live heap inside it, less what it returns holding (the plan), is
//! a constant — the same at a 256 KB suffix and at a 1 MB one. A change that
//! quietly buffers the suffix again (the bytes, or a `Vec<LogRecord>`)
//! fails here with a number: that design measured 2–3× the suffix.
//!
//! The meter is a wrapping [`GlobalAlloc`] tallying the *measuring thread
//! only* (the pattern of `pagestore/tests/pool_footprint.rs`): bytes live,
//! and their peak.

use pitree_obs::Registry;
use pitree_pagestore::buffer::BufferPool;
use pitree_pagestore::page::PageType;
use pitree_pagestore::{MemDisk, PageId, PageOp};
use pitree_wal::{
    start_instant, take_checkpoint, ActionIdentity, AtomicAction, FileLogStore, LogManager,
    LogStore, MemLogStore,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

std::thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// (live, peak) bytes since the meter was switched on.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

struct MeteringAlloc;

impl MeteringAlloc {
    /// `try_with`: the allocator runs during TLS teardown too, where the
    /// cells are gone — silently skip counting there.
    fn moved(delta: i64) {
        let _ = COUNTING.try_with(|c| {
            if c.get() {
                let _ = LIVE.try_with(|l| {
                    let (live, peak) = l.get();
                    l.set((live + delta, peak.max(live + delta)));
                });
            }
        });
    }
}

unsafe impl GlobalAlloc for MeteringAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::moved(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::moved(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::moved(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::moved(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: MeteringAlloc = MeteringAlloc;

/// Run `f` with this thread's meter on, from zero: `(result, live bytes f
/// left behind, peak live bytes inside f)`.
fn metered<R>(f: impl FnOnce() -> R) -> (R, i64, i64) {
    LIVE.with(|l| l.set((0, 0)));
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    let (live, peak) = LIVE.with(Cell::get);
    (r, live, peak)
}

const PAGES: u64 = 256;

fn assemble(disk: &Arc<MemDisk>, store: Arc<dyn LogStore>) -> (BufferPool, Arc<LogManager>) {
    let rec = Registry::new().recorder();
    let pool =
        BufferPool::with_recorder(Arc::clone(disk) as Arc<_>, 2 * PAGES as usize, rec.clone());
    let log = Arc::new(LogManager::open_observed(store, rec).unwrap());
    pool.set_wal_hook(Arc::clone(&log) as Arc<_>);
    (pool, log)
}

/// One committed action rewriting slot 0 of `pid`.
fn update(pool: &BufferPool, log: &LogManager, pid: PageId, fill: u8) {
    let page = pool.fetch_or_create(pid, PageType::Free).unwrap();
    let mut act = AtomicAction::begin(log, ActionIdentity::SystemTransaction);
    {
        let mut g = page.x();
        let bytes = vec![fill; 96];
        let op = if g.page_type().unwrap() == PageType::Free {
            act.apply(&page, &mut g, PageOp::Format { ty: PageType::Node })
                .unwrap();
            PageOp::InsertSlot { slot: 0, bytes }
        } else {
            PageOp::UpdateSlot { slot: 0, bytes }
        };
        act.apply(&page, &mut g, op).unwrap();
    }
    act.commit();
}

/// Crash image: `PAGES` pages flushed and checkpointed, then at least
/// `suffix` bytes of committed updates that reached only the log. Returns
/// the disk the crash leaves and the number of post-checkpoint updates.
fn crash_image(store: Arc<dyn LogStore>, suffix: u64) -> (MemDisk, usize) {
    let disk = Arc::new(MemDisk::new());
    let (pool, log) = assemble(&disk, store);
    for i in 0..PAGES {
        update(&pool, &log, PageId(10 + i), 0);
    }
    pool.flush_all().unwrap();
    take_checkpoint(&pool, &log, vec![]).unwrap();
    let mut updates = 0;
    while log.bytes_since_checkpoint() < suffix {
        update(
            &pool,
            &log,
            PageId(10 + updates as u64 % PAGES),
            updates as u8,
        );
        updates += 1;
    }
    log.force_all().unwrap();
    (disk.snapshot(), updates)
}

/// Recover `disk` + `store` and report `start_instant`'s peak live bytes
/// over what it returned holding.
fn restart_overhead(disk: MemDisk, store: Arc<dyn LogStore>, updates: usize) -> (i64, i64) {
    let (pool, log) = assemble(&Arc::new(disk), store);
    let ((plan, mut stats), plan_bytes, peak) =
        metered(|| start_instant(&pool, &log, None).unwrap());
    plan.drain(&pool, &mut stats).unwrap();
    assert_eq!(
        (stats.redone, stats.losers.len()),
        (updates, 0),
        "the whole suffix is replayed"
    );
    (peak - plan_bytes, plan_bytes)
}

const N: u64 = 256 * 1024;
const GATE: i64 = 256 * 1024;

fn gate(device: &str, suffix: u64, overhead: i64, plan: i64) {
    println!(
        "recovery_footprint: {device} log, {suffix}-byte suffix: start_instant peaks {overhead} bytes over the {plan}-byte plan it returns"
    );
    assert!(
        overhead <= GATE,
        "{device}: restart over a {suffix}-byte suffix held {overhead} bytes beyond its plan (gate: {GATE})"
    );
}

#[test]
fn restart_holds_a_window_and_the_plan_over_a_mem_log() {
    for suffix in [N, 4 * N] {
        let store = Arc::new(MemLogStore::new());
        let (disk, updates) = crash_image(Arc::clone(&store) as Arc<_>, suffix);
        let (overhead, plan) = restart_overhead(disk, Arc::new(store.snapshot()), updates);
        gate("mem", suffix, overhead, plan);
    }
}

#[test]
fn restart_holds_a_window_and_the_plan_over_a_file_log() {
    for suffix in [N, 4 * N] {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("recovery_footprint_{suffix}.log"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("master"));
        let (disk, updates) = crash_image(Arc::new(FileLogStore::open(&path).unwrap()), suffix);
        let reopened = Arc::new(FileLogStore::open(&path).unwrap());
        let (overhead, plan) = restart_overhead(disk, reopened, updates);
        gate("file", suffix, overhead, plan);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("master")).ok();
    }
}
