//! `FileDisk` has no store-wide lock: its transfers are positional, so the
//! only state threads share is the file itself. This suite drives the
//! interleavings that a shared file cursor (seek, then read or write)
//! would corrupt.
//!
//! Every image is a valid page whose LSN and one record filling the rest of
//! the page repeat one stamp byte, encoding the page id and the writer, so a
//! read that mixes two pages, two writers or a short transfer shows up in
//! the bytes.
//!
//! What `FileDisk` does *not* promise is that a read racing a write of the
//! **same** page sees one image whole: Linux's page cache copies in and
//! out without excluding each other. The buffer pool never issues that
//! pair (a page mid-write-back is `Busy` in its shard's table and fetchers
//! wait), so the shared-id half of the hammer stands in for that handshake
//! with one small lock per shared page — never one for the store.

use pitree_pagestore::disk::FileDisk;
use pitree_pagestore::page::HEADER_SIZE;
use pitree_pagestore::sync::Mutex;
use pitree_pagestore::{BufferPool, DiskManager, Lsn, Page, PageId, PageType, PAGE_SIZE};
use pitree_sim::SimRng;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

const THREADS: u64 = 8;

fn scratch(name: &str) -> PathBuf {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// The stamp writer `who` (1..=9) puts in every byte of page `pid`.
fn stamp(pid: u64, who: u64) -> u8 {
    ((pid % 15) * 16 + who) as u8
}

fn image(pid: u64, who: u64) -> Page {
    let s = stamp(pid, who);
    let mut p = Page::new(PageType::Meta);
    p.insert(0, &[s; PAGE_SIZE - HEADER_SIZE - 4]).unwrap();
    p.set_lsn(Lsn(u64::from_le_bytes([s; 8])));
    p
}

/// The writer of a whole image of page `pid`; panics on anything else.
fn writer_of(pid: u64, page: &Page) -> u64 {
    let lsn = page.lsn().0.to_le_bytes();
    let rec = page.get(0).unwrap();
    assert!(
        lsn.iter().chain(rec).all(|&x| x == lsn[0]),
        "page {pid}: torn image ({:#04x} .. {:#04x})",
        lsn[0],
        rec[rec.len() - 1]
    );
    let b = &lsn;
    let (class, who) = (u64::from(b[0]) / 16, u64::from(b[0]) % 16);
    assert!(
        class == pid % 15 && (1..=THREADS + 1).contains(&who),
        "page {pid}: stamp {:#04x} was never written to it",
        b[0]
    );
    who
}

#[test]
fn interleaved_transfers_through_one_filedisk_stay_whole() {
    const OPS: usize = 2_000;
    const OWNED: u64 = 16; // pages per thread nobody else touches
    const SHARED: u64 = 8; // pages every thread reads and writes
    let disk = FileDisk::open(&scratch("filedisk_hammer.db")).unwrap();
    // Page ids: shared 0..SHARED, then each thread's own range.
    for pid in 0..SHARED {
        disk.write_page(PageId(pid), &image(pid, THREADS + 1))
            .unwrap();
    }
    let shared: Vec<Mutex<()>> = (0..SHARED).map(|_| Mutex::new(())).collect();
    let start = Barrier::new(THREADS as usize);
    let mut root = SimRng::new(0xf11e_d15c);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (disk, shared, start) = (&disk, &shared, &start);
            let mut rng = root.fork();
            s.spawn(move || {
                let who = t + 1;
                let base = SHARED + t * OWNED;
                let mut written = [false; OWNED as usize];
                let mut seen_pages = 0;
                start.wait();
                for _ in 0..OPS {
                    let write = rng.below(2) == 0;
                    if rng.below(2) == 0 {
                        let i = rng.below(OWNED);
                        let pid = base + i;
                        if write || !written[i as usize] {
                            disk.write_page(PageId(pid), &image(pid, who)).unwrap();
                            written[i as usize] = true;
                        } else {
                            let got = disk.read_page(PageId(pid)).unwrap();
                            assert_eq!(writer_of(pid, &got), who, "page {pid} is mine alone");
                        }
                    } else {
                        let pid = rng.below(SHARED);
                        let _page = shared[pid as usize].lock();
                        if write {
                            disk.write_page(PageId(pid), &image(pid, who)).unwrap();
                        } else {
                            writer_of(pid, &disk.read_page(PageId(pid)).unwrap());
                        }
                    }
                    let n = disk.num_pages();
                    assert!(n >= seen_pages, "num_pages went {seen_pages} -> {n}");
                    seen_pages = n;
                }
            });
        }
    });
    // Quiescent: every owned page holds its owner's last image.
    for t in 0..THREADS {
        for i in 0..OWNED {
            let pid = SHARED + t * OWNED + i;
            if let Ok(got) = disk.read_page(PageId(pid)) {
                assert_eq!(writer_of(pid, &got), t + 1);
            }
        }
    }
}

#[test]
fn pool_misses_on_distinct_pages_run_in_parallel_over_filedisk() {
    const PAGES: u64 = 256;
    const WORKERS: u64 = 4;
    let disk = Arc::new(FileDisk::open(&scratch("filedisk_pool_misses.db")).unwrap());
    for pid in 1..=PAGES {
        disk.write_page(PageId(pid), &image(pid, 1)).unwrap();
    }
    // Twice the frames the pages need: shards fill unevenly, and nothing
    // here may be evicted and missed on twice.
    let pool = BufferPool::with_shards(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        2 * PAGES as usize,
        WORKERS as usize,
        pitree_obs::Recorder::detached(),
    );
    let start = Barrier::new(WORKERS as usize);
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let (pool, start) = (&pool, &start);
            s.spawn(move || {
                start.wait();
                // Each worker misses on its own residue class: the reads
                // run outside the shard lock and take no disk lock, so
                // they overlap.
                for pid in (1..=PAGES).filter(|p| p % WORKERS == w) {
                    let p = pool.fetch(PageId(pid)).unwrap();
                    writer_of(pid, &p.s());
                }
            });
        }
    });
    assert_eq!(pool.stats().misses.get(), PAGES, "one miss per page");
    assert_eq!(pool.stats().hits.get(), 0);
    for pid in 1..=PAGES {
        writer_of(pid, &pool.fetch(PageId(pid)).unwrap().s());
    }
    assert_eq!(pool.stats().hits.get(), PAGES);
}
