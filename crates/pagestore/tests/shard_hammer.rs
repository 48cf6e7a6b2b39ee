//! Hot/cold hammer over the sharded buffer pool.
//!
//! Many threads fetch a small hot set (always resident, hit path, different
//! shards) and a large cold set (constant eviction traffic, miss path with
//! I/O outside the shard lock). Every page carries a self-describing payload
//! in slot 0 so lost updates, torn installs, or cross-frame mixups show up
//! as content mismatches; a final flush round-trips everything through disk.

use pitree_pagestore::buffer::WalFlush;
use pitree_pagestore::{
    BufferPool, DiskManager, Lsn, MemDisk, PageId, PageOp, PageType, StoreError, StoreResult,
};
use pitree_sim::SimRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct NoopWal;
impl WalFlush for NoopWal {
    fn flush_to(&self, _lsn: Lsn) -> StoreResult<()> {
        Ok(())
    }
}

const HOT: u64 = 8; // pids 1..=8
const COLD: u64 = 256; // pids 1..=256
const FRAMES: usize = 64; // 4 shards by default; far fewer frames than pages

fn payload(pid: PageId, version: u64) -> Vec<u8> {
    let mut v = pid.0.to_be_bytes().to_vec();
    v.extend_from_slice(&version.to_be_bytes());
    v
}

#[test]
fn hot_cold_hammer_preserves_page_contents() {
    let disk = Arc::new(MemDisk::new());
    let pool = Arc::new(BufferPool::new(
        Arc::clone(&disk) as Arc<dyn DiskManager>,
        FRAMES,
    ));
    pool.set_wal_hook(Arc::new(NoopWal));
    assert!(pool.shard_count() > 1, "this test wants a sharded pool");

    // Seed every page with version 0 of its self-describing payload.
    for i in 1..=COLD {
        let p = pool.fetch_or_create(PageId(i), PageType::Node).unwrap();
        let op = PageOp::InsertSlot {
            slot: 0,
            bytes: payload(PageId(i), 0),
        };
        p.replay(&mut p.x(), Lsn::ZERO, &op).unwrap();
    }

    let next_lsn = AtomicU64::new(1);
    let mut root = SimRng::new(0xab5e);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let pool = Arc::clone(&pool);
            let next_lsn = &next_lsn;
            let mut rng = root.fork();
            s.spawn(move || {
                for _ in 0..600 {
                    let pid = if rng.chance(0.7) {
                        PageId(1 + rng.below(HOT))
                    } else {
                        PageId(1 + rng.below(COLD))
                    };
                    let pin = match pool.fetch(pid) {
                        Ok(p) => p,
                        // All frames of the shard pinned by peers mid-fetch:
                        // legitimate transient state, skip this op.
                        Err(StoreError::PoolExhausted) => continue,
                        Err(e) => panic!("fetch {pid}: {e}"),
                    };
                    if rng.chance(0.5) {
                        let g = pin.s();
                        let got = g.get(0).unwrap();
                        assert_eq!(
                            &got[..8],
                            &pid.0.to_be_bytes(),
                            "page {pid} holds another page's bytes"
                        );
                    } else {
                        let lsn = next_lsn.fetch_add(1, Ordering::SeqCst);
                        let mut g = pin.x();
                        let version =
                            u64::from_be_bytes(g.get(0).unwrap()[8..16].try_into().unwrap());
                        let op = PageOp::UpdateSlot {
                            slot: 0,
                            bytes: payload(pid, version + 1),
                        };
                        pin.replay(&mut g, Lsn(lsn), &op).unwrap();
                    }
                }
            });
        }
    });

    // Nothing was lost in flight: every page still self-describes, both in
    // the pool and after a full flush from disk alone.
    pool.flush_all().unwrap();
    for i in 1..=COLD {
        let page = disk.read_page(PageId(i)).unwrap();
        let got = page.get(0).unwrap();
        assert_eq!(&got[..8], &i.to_be_bytes(), "page {i} corrupt on disk");
    }
    let stats = pool.stats();
    assert!(stats.misses.get() >= COLD, "cold set must churn");
    assert!(stats.hits.get() > 0, "hot set must hit");
}
