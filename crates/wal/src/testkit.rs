//! Unit-test kit shared by the recovery and redo-plan tests: a pool + log
//! over in-memory durable storage that can be "crashed".

use crate::action::AtomicAction;
use crate::log::{LogManager, LogStore, MemLogStore};
use crate::record::ActionIdentity;
use pitree_pagestore::buffer::BufferPool;
use pitree_pagestore::page::PageType;
use pitree_pagestore::{MemDisk, PageId, PageOp};
use std::sync::Arc;

pub(crate) struct World {
    pub disk: Arc<MemDisk>,
    pub store: Arc<MemLogStore>,
    pub pool: Arc<BufferPool>,
    pub log: Arc<LogManager>,
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

pub(crate) fn world() -> World {
    assemble(MemDisk::new(), MemLogStore::new())
}

/// Crash: keep only the durable disk image and the durable log prefix.
pub(crate) fn crash(w: &World) -> World {
    assemble(w.disk.snapshot(), w.store.snapshot())
}

/// One system transaction inserting `bytes` at `slot` of page `pid`
/// (formatting the page first if it is new), committed with or without a
/// log force.
pub(crate) fn put(w: &World, pid: PageId, slot: u16, bytes: &[u8], force: bool) {
    let page = w.pool.fetch_or_create(pid, PageType::Free).unwrap();
    let mut act = AtomicAction::begin(&w.log, ActionIdentity::SystemTransaction);
    {
        let mut g = page.x();
        if g.page_type().unwrap() == PageType::Free {
            act.apply(&page, &mut g, PageOp::Format { ty: PageType::Node })
                .unwrap();
        }
        act.apply(
            &page,
            &mut g,
            PageOp::InsertSlot {
                slot,
                bytes: bytes.to_vec(),
            },
        )
        .unwrap();
    }
    if force {
        act.commit_force().unwrap();
    } else {
        act.commit();
    }
}
