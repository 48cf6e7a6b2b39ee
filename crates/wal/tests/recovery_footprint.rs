//! The restart footprint gates: analysis pays for the window it reads and
//! the LSNs it owes, not for the log suffix, and the drain for one plan
//! shard's records at a time.
//!
//! `start_instant` streams the post-checkpoint suffix one window at a time
//! and adds each redo record's LSN and frame length to the per-page plan;
//! no payload is decoded. So the peak of live heap inside it, less what it
//! returns holding (the plan), is one scan window plus the plan's unsorted
//! build (24 bytes an owed record): 130–175 KB at a 256 KB and a 1 MB
//! suffix. A change that quietly buffers the suffix again (the bytes, or a
//! `Vec<LogRecord>`) fails here with a number: that design measured 2–3×
//! the suffix.
//!
//! The plan itself holds at most 24 bytes per owed record beyond what an
//! empty plan holds. A plan of decoded `PageOp`s held 150–170 (see
//! `PARENT_PLAN`). The drain reads a shard's records back, stages them and
//! replays the shard, freeing a drained shard's LSNs; its peak stays under
//! a quarter of what that plan of decoded ops held at the same suffix.
//!
//! The meter is a wrapping [`GlobalAlloc`] tallying the *measuring thread
//! only* (the pattern of `pagestore/tests/pool_footprint.rs`): bytes live,
//! and their peak. Page buffers — allocations of exactly `PAGE_SIZE` bytes,
//! the frames the drain fills — are the pool's and are not counted.

use pitree_obs::Registry;
use pitree_pagestore::buffer::BufferPool;
use pitree_pagestore::page::PageType;
use pitree_pagestore::{MemDisk, PageId, PageOp, PAGE_SIZE};
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
    fn moved(size: usize, delta: i64) {
        if size == PAGE_SIZE {
            return;
        }
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
        Self::moved(layout.size(), layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::moved(layout.size(), layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::moved(new_size, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::moved(layout.size(), -(layout.size() as i64));
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

/// What one metered restart held.
struct Restart {
    /// `start_instant`'s peak of live bytes over the plan it returned.
    overhead: i64,
    /// Bytes live when `start_instant` returned: the plan.
    plan: i64,
    /// The drain's peak of live bytes from its start: a shard's staged
    /// records, the window it read them through, and the pool's page
    /// table growing.
    drain: i64,
}

/// Recover `disk` + `store`, metering `start_instant` and the drain.
fn restart(disk: MemDisk, store: Arc<dyn LogStore>, updates: usize) -> Restart {
    let (pool, log) = assemble(&Arc::new(disk), store);
    let ((plan, mut stats), plan_bytes, peak) =
        metered(|| start_instant(&pool, &log, None).unwrap());
    let (_, _, drain) = metered(|| plan.drain(&pool, &mut stats).unwrap());
    assert_eq!(
        (stats.redone, stats.losers.len()),
        (updates, 0),
        "the whole suffix is replayed"
    );
    Restart {
        overhead: peak - plan_bytes,
        plan: plan_bytes,
        drain,
    }
}

const N: u64 = 256 * 1024;
const GATE: i64 = 256 * 1024;
/// The plan's bytes per owed record, beyond an empty plan's.
const PLAN_GATE: i64 = 24;
/// The plan `start_instant` returned at the `N` and `4 * N` suffixes when
/// it held every record's decoded `PageOp` (both log stores).
const PARENT_PLAN: [i64; 2] = [150_808, 533_176];

/// Recover a crash image with no suffix: what an empty plan holds.
fn empty_plan(store: Arc<dyn LogStore>) -> i64 {
    let (disk, updates) = crash_image(Arc::clone(&store), 0);
    assert_eq!(updates, 0);
    restart(disk, store, 0).plan
}

fn gate(device: &str, suffix: u64, r: &Restart, empty: i64, updates: usize, parent: i64) {
    let per_record = (r.plan - empty) as f64 / updates as f64;
    println!(
        "recovery_footprint: {device} log, {suffix}-byte suffix: start_instant peaks {} bytes over the {}-byte plan it returns ({per_record:.1} bytes per owed record over an empty plan's {empty}); the drain peaks {} bytes (decoded-op plan: {parent})",
        r.overhead, r.plan, r.drain
    );
    assert!(
        r.overhead <= GATE,
        "{device}: restart over a {suffix}-byte suffix held {} bytes beyond its plan (gate: {GATE})",
        r.overhead
    );
    assert!(
        r.plan - empty <= PLAN_GATE * updates as i64,
        "{device}: the plan holds {per_record:.1} bytes per owed record (gate: {PLAN_GATE})"
    );
    assert!(
        r.drain * 4 <= parent,
        "{device}: the drain peaked at {} bytes, over a quarter of the {parent}-byte plan of decoded ops",
        r.drain
    );
}

#[test]
fn restart_holds_a_window_and_the_plan_over_a_mem_log() {
    let empty = empty_plan(Arc::new(MemLogStore::new()));
    for (suffix, parent) in [N, 4 * N].into_iter().zip(PARENT_PLAN) {
        let store = Arc::new(MemLogStore::new());
        let (disk, updates) = crash_image(Arc::clone(&store) as Arc<_>, suffix);
        let r = restart(disk, Arc::new(store.snapshot()), updates);
        gate("mem", suffix, &r, empty, updates, parent);
    }
}

#[test]
fn restart_holds_a_window_and_the_plan_over_a_file_log() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let open = |name: &str| {
        let path = dir.join(format!("recovery_footprint_{name}.log"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("master"));
        path
    };
    let path = open("empty");
    let empty = empty_plan(Arc::new(FileLogStore::open(&path).unwrap()));
    for (suffix, parent) in [N, 4 * N].into_iter().zip(PARENT_PLAN) {
        let path = open(&suffix.to_string());
        let (disk, updates) = crash_image(Arc::new(FileLogStore::open(&path).unwrap()), suffix);
        let reopened = Arc::new(FileLogStore::open(&path).unwrap());
        let r = restart(disk, reopened, updates);
        gate("file", suffix, &r, empty, updates, parent);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("master")).ok();
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(path.with_extension("master")).ok();
}
