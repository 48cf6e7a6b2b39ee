//! Layer probes: isolated unit-cost loops over public functions only, each
//! bounded to [`BUDGET_NS`], reported as `probe.*` once per traced run.
//! They price one call into a layer with nothing else going on, so a
//! per-op layer time can be read as "calls x unit cost + the rest".

use pitree_obs::Stopwatch;
use pitree_pagestore::disk::DiskManager;
use pitree_pagestore::{BufferPool, Latch, Lsn, MemDisk, Page, PageId, PageOp, PageType};
use pitree_txnlock::{LockMode, LockName, LockTable};
use pitree_wal::{ActionId, FileLogStore, LogManager, MemLogStore, RecordKind, UndoInfo};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Wall budget of one probe.
const BUDGET_NS: u64 = 150_000_000;

/// Run `f` in batches until the budget is spent; mean ns per call.
fn per_call_ns(batch: u32, mut f: impl FnMut()) -> f64 {
    let wall = Stopwatch::start();
    let mut calls = 0u64;
    while wall.elapsed_ns() < BUDGET_NS {
        for _ in 0..batch {
            f();
        }
        calls += batch as u64;
    }
    wall.elapsed_ns() as f64 / calls as f64
}

fn leaf_entry(k: u64) -> Vec<u8> {
    Page::make_entry(&k.to_be_bytes(), &[b'v'; 16])
}

/// A leaf page filled with 8-byte-key / 16-byte-value entries behind the
/// node header that keyed pages keep in slot 0.
fn full_leaf() -> (Page, u64) {
    let mut page = Page::new(PageType::Node);
    page.insert(0, &pitree::NodeHeader::new_root_leaf().encode())
        .expect("header slot");
    let mut n = 0u64;
    while page.keyed_insert(&leaf_entry(n)).is_ok() {
        n += 1;
    }
    (page, n)
}

fn pool_with_pages(frames: usize, pages: u64) -> Arc<BufferPool> {
    let disk = Arc::new(MemDisk::new());
    let (leaf, _) = full_leaf();
    for pid in 0..pages {
        disk.write_page(PageId(pid), &leaf).expect("probe page");
    }
    Arc::new(BufferPool::new(disk, frames))
}

fn update_record(pid: u64) -> RecordKind {
    RecordKind::Update {
        pid: PageId(pid),
        redo: PageOp::KeyedInsert {
            bytes: leaf_entry(pid),
        },
        undo: UndoInfo::Physiological(PageOp::KeyedRemove {
            key: pid.to_be_bytes().to_vec(),
        }),
    }
}

/// Run the eight probes; `dir` hosts the one file the force probe needs.
pub fn run(dir: &Path, out: &mut Vec<(&'static str, f64)>) {
    // BufferPool::fetch of a resident page.
    let pool = pool_with_pages(64, 1);
    drop(pool.fetch(PageId(0)).expect("warm"));
    out.push((
        "probe.buffer.fetch_hit_ns",
        per_call_ns(1024, || {
            drop(black_box(pool.fetch(PageId(0)).expect("hit")))
        }),
    ));

    // BufferPool::fetch that evicts a clean page and reads (MemDisk: the
    // pool's own miss path, not a device).
    let pool = pool_with_pages(64, 4096);
    let mut pid = 0u64;
    out.push((
        "probe.buffer.fetch_miss_ns",
        per_call_ns(256, || {
            drop(black_box(pool.fetch(PageId(pid)).expect("miss")));
            pid = (pid + 1) % 4096;
        }),
    ));

    // LogManager::append of one keyed-insert update record.
    let log = LogManager::open(Arc::new(MemLogStore::new())).expect("probe log");
    let mut prev = Lsn::ZERO;
    let mut n = 0u64;
    out.push((
        "probe.wal.append_ns",
        per_call_ns(256, || {
            prev = log.append(ActionId(1), prev, update_record(n));
            n += 1;
            if n % 4096 == 0 {
                log.force_all().expect("probe drain");
            }
        }),
    ));

    // LogManager::force_to with one ~4 KB batch pending, file-backed
    // (`sync_data` per force).
    std::fs::create_dir_all(dir).expect("probe dir");
    let path = dir.join("probe.log");
    let log = LogManager::open(Arc::new(FileLogStore::open(&path).expect("probe log file")))
        .expect("probe log");
    let mut force_ns = 0u64;
    let mut forces = 0u64;
    let wall = Stopwatch::start();
    while wall.elapsed_ns() < BUDGET_NS {
        let start = log.tail_lsn().0;
        let mut last = Lsn::ZERO;
        while log.tail_lsn().0 - start < 4096 {
            last = log.append(ActionId(1), last, update_record(forces));
        }
        let t = Stopwatch::start();
        log.force_to(last).expect("probe force");
        force_ns += t.elapsed_ns();
        forces += 1;
    }
    out.push(("probe.wal.force_ns", force_ns as f64 / forces.max(1) as f64));
    drop(log);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("master"));

    // LockTable::acquire + release, uncontended X key lock.
    let table = LockTable::new(Duration::from_secs(1));
    let name = LockName::Key(vec![0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 42]);
    out.push((
        "probe.txnlock.acquire_release_ns",
        per_call_ns(1024, || {
            table
                .acquire(ActionId(7), &name, LockMode::X)
                .expect("lock");
            table.release(ActionId(7), &name);
        }),
    ));

    // Latch::s / Latch::x, uncontended.
    let latch = Latch::new(0u64);
    out.push((
        "probe.latch.s_ns",
        per_call_ns(4096, || drop(black_box(latch.s()))),
    ));
    out.push((
        "probe.latch.x_ns",
        per_call_ns(4096, || drop(black_box(latch.x()))),
    ));

    // Page::keyed_lookup on a full leaf.
    let (leaf, entries) = full_leaf();
    let mut state = 1u64;
    out.push((
        "probe.page.keyed_lookup_ns",
        per_call_ns(4096, || {
            let k = pitree_sim::rng::splitmix64(&mut state) % entries;
            black_box(leaf.keyed_lookup(&k.to_be_bytes()));
        }),
    ));
}
