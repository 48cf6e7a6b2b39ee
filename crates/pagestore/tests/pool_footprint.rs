//! The footprint gate: the buffer pool pays for the pages it holds, not the
//! frames it was given.
//!
//! A frame is vacant — no 4 KB buffer behind its latch — until a page is
//! loaded or formatted into it; eviction swaps the buffer, so a pool never
//! holds more page buffers than frames; and a `FileDisk` miss allocates the
//! one buffer the returned page adopts. A change that quietly re-eagers the
//! frames, or puts a scratch copy back on the miss path, fails here with a
//! number.
//!
//! The meter is a wrapping [`GlobalAlloc`] tallying the *measuring thread
//! only* (the thread-local pattern of `harness/tests/alloc_gate.rs`): bytes
//! requested, allocation calls, and page buffers — allocations of exactly
//! `PAGE_SIZE` bytes — made and still live.

use pitree_obs::Registry;
use pitree_pagestore::buffer::WalFlush;
use pitree_pagestore::disk::FileDisk;
use pitree_pagestore::{
    BufferPool, DiskManager, Lsn, MemDisk, Page, PageId, PageType, StoreError, StoreResult,
    PAGE_SIZE,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

#[derive(Clone, Copy, Default, Debug)]
struct Tally {
    bytes: usize,
    allocs: u64,
    page_allocs: u64,
    live_pages: i64,
}

std::thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { bytes: 0, allocs: 0, page_allocs: 0, live_pages: 0 })
    };
}

struct MeteringAlloc;

impl MeteringAlloc {
    /// `try_with`: the allocator runs during TLS teardown too, where the
    /// cells are gone — silently skip counting there.
    fn tally(f: impl FnOnce(&mut Tally)) {
        let _ = COUNTING.try_with(|c| {
            if c.get() {
                let _ = TALLY.try_with(|t| {
                    let mut v = t.get();
                    f(&mut v);
                    t.set(v);
                });
            }
        });
    }

    fn allocated(size: usize) {
        Self::tally(|t| {
            t.bytes += size;
            t.allocs += 1;
            if size == PAGE_SIZE {
                t.page_allocs += 1;
                t.live_pages += 1;
            }
        });
    }

    fn freed(size: usize) {
        if size == PAGE_SIZE {
            Self::tally(|t| t.live_pages -= 1);
        }
    }
}

unsafe impl GlobalAlloc for MeteringAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::allocated(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::allocated(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::freed(layout.size());
        Self::allocated(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::freed(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: MeteringAlloc = MeteringAlloc;

/// Run `f` with this thread's meter on, from zero; `f` reads it mid-way
/// through [`live_pages`], the caller gets the final tally.
fn metered<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    TALLY.with(|t| t.set(Tally::default()));
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (r, TALLY.with(|t| t.get()))
}

fn live_pages() -> i64 {
    TALLY.with(|t| t.get().live_pages)
}

/// A pool over `disk` with its own registry.
fn pool_over(disk: Arc<dyn DiskManager>, frames: usize) -> BufferPool {
    BufferPool::with_recorder(disk, frames, Registry::new().recorder())
}

fn mem_pool(frames: usize) -> BufferPool {
    pool_over(Arc::new(MemDisk::new()), frames)
}

fn materialised(pool: &BufferPool) -> u64 {
    pool.recorder().counter("buf.frames_materialised").get()
}

struct NoopWal;
impl WalFlush for NoopWal {
    fn flush_to(&self, _lsn: Lsn) -> StoreResult<()> {
        Ok(())
    }
}

#[test]
fn an_empty_pool_costs_its_frames_not_their_pages() {
    // The benchmark's `load_seq` pool. Eager frames cost 32,768 x 4 KB =
    // 128 MB before the first fetch.
    const FRAMES: usize = 32_768;
    let (pool, t) = metered(|| mem_pool(FRAMES));
    println!(
        "pool_footprint: a {FRAMES}-frame pool allocates {} bytes in {} calls, {} page buffers",
        t.bytes, t.allocs, t.page_allocs
    );
    assert_eq!(t.page_allocs, 0, "a new pool holds no page buffer");
    assert!(
        t.bytes < 8 << 20,
        "{FRAMES} vacant frames cost {} bytes (gate: 8 MB)",
        t.bytes
    );
    assert_eq!(materialised(&pool), 0);
}

#[test]
fn live_page_buffers_follow_residency() {
    const K: u64 = 100;
    let pool = mem_pool(4096);
    let ((), t) = metered(|| {
        for i in 1..=K {
            // Formatted, never dirtied: `MemDisk` keeps no copy, so every
            // live page buffer on this thread is a frame's.
            drop(pool.fetch_or_create(PageId(i), PageType::Node).unwrap());
            assert_eq!(live_pages(), i as i64, "after {i} distinct pages");
        }
        for i in 1..=K {
            drop(pool.fetch(PageId(i)).unwrap());
        }
    });
    assert_eq!(t.live_pages, K as i64, "hits allocate no page buffer");
    assert_eq!(t.page_allocs, K);
    assert_eq!(materialised(&pool), K);
}

#[test]
fn eviction_reuses_the_frame_and_frees_the_displaced_buffer() {
    const FRAMES: usize = 64;
    let pool = mem_pool(FRAMES);
    let ((), t) = metered(|| {
        for i in 1..=3 * FRAMES as u64 {
            drop(pool.fetch_or_create(PageId(i), PageType::Node).unwrap());
            assert!(
                live_pages() <= FRAMES as i64,
                "{} page buffers live after page {i} in a {FRAMES}-frame pool",
                live_pages()
            );
        }
    });
    assert_eq!(t.live_pages, FRAMES as i64);
    assert_eq!(t.page_allocs, 3 * FRAMES as u64, "one buffer per load");
    assert_eq!(materialised(&pool), FRAMES as u64, "each frame once");
}

#[test]
fn a_filedisk_miss_allocates_exactly_the_page_it_returns() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pool_footprint.db");
    let _ = std::fs::remove_file(&path);
    let disk = Arc::new(FileDisk::open(&path).unwrap());
    let mut page = Page::new(PageType::Node);
    page.insert(0, b"on-file").unwrap();
    for i in 1..=4u64 {
        disk.write_page(PageId(i), &page).unwrap();
    }

    let (got, t) = metered(|| disk.read_page(PageId(3)).unwrap());
    assert_eq!(got.get(0).unwrap(), b"on-file");
    assert_eq!(
        (t.allocs, t.page_allocs),
        (1, 1),
        "read_page allocates the returned buffer and nothing else"
    );

    // Through the pool the same miss still moves one page buffer; whatever
    // else a first fetch allocates (the table entry) is not a page.
    let pool = pool_over(Arc::clone(&disk) as Arc<dyn DiskManager>, 16);
    let (pinned, t) = metered(|| pool.fetch(PageId(2)).unwrap());
    assert_eq!(pinned.s().get(0).unwrap(), b"on-file");
    assert_eq!((t.page_allocs, t.live_pages), (1, 1));
    drop(pinned);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_mostly_vacant_pool_flushes_and_lists_only_resident_frames() {
    let disk = Arc::new(MemDisk::new());
    let pool = pool_over(Arc::clone(&disk) as Arc<dyn DiskManager>, 1024);
    pool.set_wal_hook(Arc::new(NoopWal));
    for i in 1..=5u64 {
        let p = pool.fetch_or_create(PageId(i), PageType::Node).unwrap();
        p.x().insert(0, &[i as u8]).unwrap();
        if i % 2 == 1 {
            p.mark_dirty_at(Lsn(i));
        }
    }
    // The dirty-page table of a fuzzy checkpoint: the three dirty resident
    // pages, nothing from the 1,019 vacant frames.
    let mut dirty = pool.dirty_pages();
    dirty.sort_unstable();
    assert_eq!(
        dirty,
        vec![
            (PageId(1), Lsn(1)),
            (PageId(3), Lsn(3)),
            (PageId(5), Lsn(5))
        ]
    );
    pool.flush_all().unwrap();
    assert!(pool.dirty_pages().is_empty());
    assert_eq!(pool.recorder().counter("buf.flushes").get(), 3);
    for i in 1..=5u64 {
        let on_disk = disk.read_page(PageId(i));
        if i % 2 == 1 {
            assert_eq!(on_disk.unwrap().get(0).unwrap(), &[i as u8]);
        } else {
            assert!(matches!(on_disk, Err(StoreError::PageNotFound(_))));
        }
    }
}

#[test]
fn pool_exhausted_needs_every_frame_pinned_vacant_ones_included() {
    // One shard (<= 16 frames), so the clock order is the whole story.
    const FRAMES: u64 = 8;
    let pool = mem_pool(FRAMES as usize);
    assert_eq!(pool.shard_count(), 1);
    let mut pins = Vec::new();
    for i in 1..FRAMES {
        pins.push(pool.fetch_or_create(PageId(i), PageType::Node).unwrap());
    }
    // Seven pinned, one vacant: the vacant frame is the victim, and taking
    // it displaces nothing.
    pins.push(
        pool.fetch_or_create(PageId(FRAMES), PageType::Node)
            .unwrap(),
    );
    assert_eq!(pool.recorder().counter("buf.evictions").get(), 0);
    assert_eq!(materialised(&pool), FRAMES);
    assert!(matches!(
        pool.fetch_or_create(PageId(FRAMES + 1), PageType::Node),
        Err(StoreError::PoolExhausted)
    ));
    pins.pop();
    assert!(pool
        .fetch_or_create(PageId(FRAMES + 1), PageType::Node)
        .is_ok());
    assert_eq!(pool.recorder().counter("buf.evictions").get(), 1);
}
