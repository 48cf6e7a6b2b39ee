//! Eviction-pressure suite: the clock sweep under a pool ~100× smaller
//! than the working set — the regime the million-key scenario harness
//! runs in (EXPERIMENTS.md S7, pool ≤ 1% of data).
//!
//! Three properties must survive constant displacement:
//!
//! 1. **No lost writes** — every page's self-describing payload (pid +
//!    monotone version) round-trips through eviction write-back and
//!    re-fetch; the final disk image holds the last version written.
//! 2. **Log-before-dirty under churn (§4.3.1)** — the pool must never
//!    hand a dirty page to the disk before the WAL hook has flushed past
//!    that page's LSN. A checking [`DiskManager`] wrapper asserts the
//!    invariant on *every* write-back, so a single early write anywhere
//!    in the sweep fails the suite.
//! 3. **No deadlocked `io_pending`/Busy frames** — after the storm every
//!    page is still fetchable and the pool can flush; a frame left
//!    `io_pending` or a table entry stuck Busy would wedge both.

use pitree_pagestore::buffer::WalFlush;
use pitree_pagestore::{
    BufferPool, DiskManager, Lsn, MemDisk, Page, PageId, PageOp, PageType, StoreError, StoreResult,
};
use pitree_sim::SimRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Working set ~100× the pool: 32 frames vs 3200 pages.
const FRAMES: usize = 32;
const PAGES: u64 = 3_200;

/// WAL stand-in that tracks the highest LSN it has been asked to flush.
struct TrackingWal {
    flushed: AtomicU64,
}

impl WalFlush for TrackingWal {
    fn flush_to(&self, lsn: Lsn) -> StoreResult<()> {
        self.flushed.fetch_max(lsn.0, Ordering::SeqCst);
        Ok(())
    }
}

/// Disk wrapper that fails the test if any page image reaches "disk"
/// with an LSN the WAL has not flushed — write-ahead, checked at the
/// exact boundary the paper's §4.3.1 names.
struct CheckingDisk {
    inner: MemDisk,
    wal: Arc<TrackingWal>,
    writes: AtomicU64,
}

impl DiskManager for CheckingDisk {
    fn read_page(&self, pid: PageId) -> StoreResult<Page> {
        self.inner.read_page(pid)
    }

    fn write_page(&self, pid: PageId, page: &Page) -> StoreResult<()> {
        let flushed = self.wal.flushed.load(Ordering::SeqCst);
        assert!(
            page.lsn().0 <= flushed,
            "log-before-dirty violated: page {pid} written at lsn {} with WAL flushed only to {}",
            page.lsn().0,
            flushed
        );
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_page(pid, page)
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
}

fn payload(pid: PageId, version: u64) -> Vec<u8> {
    let mut v = pid.0.to_be_bytes().to_vec();
    v.extend_from_slice(&version.to_be_bytes());
    v
}

fn build_pool() -> (Arc<BufferPool>, Arc<CheckingDisk>, Arc<TrackingWal>) {
    let wal = Arc::new(TrackingWal {
        flushed: AtomicU64::new(0),
    });
    let disk = Arc::new(CheckingDisk {
        inner: MemDisk::new(),
        wal: Arc::clone(&wal),
        writes: AtomicU64::new(0),
    });
    let pool = Arc::new(BufferPool::new(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        FRAMES,
    ));
    pool.set_wal_hook(Arc::clone(&wal) as Arc<dyn WalFlush>);
    (pool, disk, wal)
}

/// Seed every page (version 0), letting eviction spill them as we go —
/// the pool never holds more than 1% of the set.
fn seed(pool: &BufferPool, wal: &TrackingWal, next_lsn: &AtomicU64) {
    for i in 1..=PAGES {
        let lsn = Lsn(next_lsn.fetch_add(1, Ordering::SeqCst));
        // WAL record for this update is "flushed" before the page dirties
        // — the discipline the tree layers follow via their real log.
        wal.flushed.fetch_max(lsn.0, Ordering::SeqCst);
        let pin = pool.fetch_or_create(PageId(i), PageType::Node).unwrap();
        let mut g = pin.x();
        let op = PageOp::InsertSlot {
            slot: 0,
            bytes: payload(PageId(i), 0),
        };
        pin.replay(&mut g, lsn, &op).unwrap();
    }
}

#[test]
fn eviction_churn_loses_no_writes_and_respects_wal() {
    let (pool, disk, wal) = build_pool();
    let next_lsn = AtomicU64::new(1);
    seed(&pool, &wal, &next_lsn);

    // Version book-keeping: highest version committed per page.
    let versions: Vec<AtomicU64> = (0..=PAGES).map(|_| AtomicU64::new(0)).collect();

    let mut root = SimRng::new(0xe71c);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            let (next_lsn, wal, versions) = (&next_lsn, &wal, &versions);
            let mut rng = root.fork();
            s.spawn(move || {
                for _ in 0..2_000 {
                    let pid = PageId(1 + rng.below(PAGES));
                    let pin = match pool.fetch(pid) {
                        Ok(p) => p,
                        // Every frame of the shard pinned mid-I/O by
                        // peers: a legitimate transient, not a wedge.
                        Err(StoreError::PoolExhausted) => continue,
                        Err(e) => panic!("fetch {pid}: {e}"),
                    };
                    if rng.chance(0.5) {
                        let g = pin.s();
                        let got = g.get(0).unwrap();
                        assert_eq!(&got[..8], &pid.0.to_be_bytes(), "foreign bytes in {pid}");
                        let ver = u64::from_be_bytes(got[8..16].try_into().unwrap());
                        let committed = versions[pid.0 as usize].load(Ordering::SeqCst);
                        assert!(
                            ver <= committed,
                            "page {pid} read version {ver} > committed {committed}"
                        );
                    } else {
                        let lsn = Lsn(next_lsn.fetch_add(1, Ordering::SeqCst));
                        wal.flushed.fetch_max(lsn.0, Ordering::SeqCst);
                        let mut g = pin.x();
                        let ver = u64::from_be_bytes(g.get(0).unwrap()[8..16].try_into().unwrap());
                        let op = PageOp::UpdateSlot {
                            slot: 0,
                            bytes: payload(pid, ver + 1),
                        };
                        pin.replay(&mut g, lsn, &op).unwrap();
                        versions[pid.0 as usize].fetch_max(ver + 1, Ordering::SeqCst);
                    }
                }
            });
        }
    });

    // The storm over 100× the pool must have churned hard, every
    // write-back passing the WAL check inside CheckingDisk.
    let rec = pool.recorder();
    assert!(
        rec.counter("buf.evictions").get() > PAGES,
        "eviction churn expected: {} evictions",
        rec.counter("buf.evictions").get()
    );
    assert!(
        rec.counter("buf.writebacks").get() > 0,
        "dirty displacement must write back"
    );
    assert!(disk.writes.load(Ordering::SeqCst) > 0);

    // No wedged frames: everything still fetchable, flushable, and the
    // final disk image carries each page's last committed version.
    pool.flush_all().unwrap();
    assert!(pool.dirty_pages().is_empty(), "flush_all left dirt behind");
    for i in 1..=PAGES {
        let page = disk.read_page(PageId(i)).unwrap();
        let got = page.get(0).unwrap();
        assert_eq!(&got[..8], &i.to_be_bytes(), "page {i} corrupt on disk");
        let ver = u64::from_be_bytes(got[8..16].try_into().unwrap());
        assert_eq!(
            ver,
            versions[i as usize].load(Ordering::SeqCst),
            "page {i} lost its last committed write"
        );
    }
}

/// A single thread cycling through far more pages than frames: every
/// fetch past the warm-up displaces a resident page, and the counters
/// must say so — the observability the scenario harness steers by.
#[test]
fn sequential_sweep_counts_evictions_and_writebacks() {
    let (pool, disk, wal) = build_pool();
    let next_lsn = AtomicU64::new(1);
    seed(&pool, &wal, &next_lsn);
    // Settle the seed's resident dirt so the clean sweep starts clean.
    pool.flush_all().unwrap();

    let rec = pool.recorder();
    let ev0 = rec.counter("buf.evictions").get();
    let wb0 = rec.counter("buf.writebacks").get();

    // Clean re-read sweep: misses displace, but nothing is dirty, so
    // evictions advance without write-backs.
    for i in 1..=PAGES {
        let pin = pool.fetch(PageId(i)).unwrap();
        let g = pin.s();
        assert_eq!(&g.get(0).unwrap()[..8], &i.to_be_bytes());
    }
    let clean_ev = rec.counter("buf.evictions").get() - ev0;
    let clean_wb = rec.counter("buf.writebacks").get() - wb0;
    assert!(
        clean_ev >= PAGES - FRAMES as u64,
        "a full sweep over {PAGES} pages through {FRAMES} frames must displace: {clean_ev}"
    );
    assert_eq!(clean_wb, 0, "clean displacement must not write back");

    // Dirty sweep: now every displacement carries a write-back.
    let wb1 = rec.counter("buf.writebacks").get();
    for i in 1..=PAGES {
        let lsn = Lsn(next_lsn.fetch_add(1, Ordering::SeqCst));
        wal.flushed.fetch_max(lsn.0, Ordering::SeqCst);
        let pin = pool.fetch(PageId(i)).unwrap();
        let mut g = pin.x();
        let op = PageOp::UpdateSlot {
            slot: 0,
            bytes: payload(PageId(i), 1),
        };
        pin.replay(&mut g, lsn, &op).unwrap();
    }
    let dirty_wb = rec.counter("buf.writebacks").get() - wb1;
    assert!(
        dirty_wb >= PAGES - FRAMES as u64,
        "dirty sweep must write back on displacement: {dirty_wb}"
    );
    assert!(disk.writes.load(Ordering::SeqCst) >= dirty_wb);
    pool.flush_all().unwrap();
}

/// Pin-heavy pressure: hold several pins per thread while fetching more.
/// The clock must skip pinned frames and either find a victim or report
/// `PoolExhausted` — never hang on an `io_pending` frame or leave the
/// table Busy after the storm.
#[test]
fn pinned_frames_never_wedge_the_sweep() {
    let (pool, _disk, wal) = build_pool();
    let next_lsn = AtomicU64::new(1);
    seed(&pool, &wal, &next_lsn);

    let mut root = SimRng::new(0x91a_0e71);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            let mut rng = root.fork();
            s.spawn(move || {
                for _ in 0..400 {
                    // Hold up to 4 pins at once, then fetch a 5th.
                    let held: Vec<_> = (0..4)
                        .filter_map(|_| pool.fetch(PageId(1 + rng.below(PAGES))).ok())
                        .collect();
                    match pool.fetch(PageId(1 + rng.below(PAGES))) {
                        Ok(pin) => {
                            let g = pin.s();
                            let _ = g.get(0).unwrap();
                        }
                        Err(StoreError::PoolExhausted) => {}
                        Err(e) => panic!("fetch under pin pressure: {e}"),
                    }
                    drop(held);
                }
            });
        }
    });

    // Post-storm liveness: every page fetchable, pool flushable.
    for i in (1..=PAGES).step_by(37) {
        let pin = pool.fetch(PageId(i)).unwrap();
        assert_eq!(&pin.s().get(0).unwrap()[..8], &i.to_be_bytes());
    }
    pool.flush_all().unwrap();
}
