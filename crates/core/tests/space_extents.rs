//! The space map grows with the store: extent k ≥ 1's bitmap lives at page
//! k·B and is formatted by the allocation that first needs it, inside that
//! allocation's atomic action — so REDO, undo and the crash sweep see only
//! record kinds they already replay.

use pitree::engine::alloc_page;
use pitree::{CrashableStore, PiTree, PiTreeConfig, Store};
use pitree_pagestore::page::{Page, PageType};
use pitree_pagestore::{PageId, PageOp, StoreResult, PAGE_SIZE};
use pitree_sim::crash::{self, Drain, SweepConfig};
use pitree_wal::{ActionIdentity, RecordKind, UndoInfo};
use std::sync::Arc;

/// Pages per extent.
const B: u64 = Page::BITS_PER_SPACEMAP_PAGE as u64;

/// Mark every page of extent 0 allocated and write the bitmap straight to
/// disk, the way `mkfs` writes it: a store whose next allocation opens
/// extent 1, without allocating 32,638 pages to get there.
fn fill_extent_zero(store: &Store) -> StoreResult<()> {
    let bm = store.pool.fetch(PageId(1))?;
    {
        let mut g = bm.x();
        let lsn = g.lsn();
        for bit in 0..B as u32 {
            bm.replay(&mut g, lsn, &PageOp::SetBit { bit })?;
        }
    }
    drop(bm);
    store.pool.flush_all()
}

/// The records one action appended, in order.
fn records_of(store: &Store, action: pitree_wal::ActionId) -> Vec<RecordKind> {
    store
        .log
        .scan(None)
        .map(|r| r.expect("scan"))
        .filter(|r| r.action == action)
        .map(|r| r.kind)
        .collect()
}

#[test]
fn a_fresh_file_store_is_two_pages_long() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("space-two-pages");
    let _ = std::fs::remove_dir_all(&dir);
    // The benchmark's cap: 129 extents, of which the image pays for one.
    let store = Store::open_file(&dir, 64, 1 << 22).unwrap();
    let len = std::fs::metadata(dir.join("store.db")).unwrap().len();
    assert_eq!(len, 2 * PAGE_SIZE as u64, "meta page + extent 0's bitmap");
    assert_eq!(store.space.allocated_count(&store.pool).unwrap(), 2);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_first_allocation_in_an_extent_formats_its_bitmap_in_the_action() {
    let cs = CrashableStore::create(64, 3 * B).unwrap();
    let store = &cs.store;
    fill_extent_zero(store).unwrap();
    let mut act = store.txns.begin(ActionIdentity::SystemTransaction);
    let id = act.id();
    let pin = alloc_page(store, &mut act.no_wait()).unwrap();
    assert_eq!(pin.id(), PageId(B + 1));
    drop(pin);
    act.commit().unwrap();
    let update = |redo: PageOp, undo: UndoInfo| RecordKind::Update {
        pid: PageId(B),
        redo,
        undo,
    };
    assert_eq!(
        records_of(store, id),
        vec![
            RecordKind::Begin {
                identity: ActionIdentity::SystemTransaction
            },
            update(
                PageOp::Format {
                    ty: PageType::SpaceMap
                },
                UndoInfo::None
            ),
            update(PageOp::SetBit { bit: 0 }, UndoInfo::None),
            update(
                PageOp::SetBit { bit: 1 },
                UndoInfo::Physiological(PageOp::ClearBit { bit: 1 })
            ),
            RecordKind::Commit,
        ]
    );
    let space = &store.space;
    assert!(space.is_allocated(&store.pool, PageId(B)).unwrap());
    assert!(space.is_allocated(&store.pool, PageId(B + 1)).unwrap());
    assert_eq!(space.allocated_count(&store.pool).unwrap(), B + 2);

    // The next allocation finds the bitmap formatted and logs one bit.
    let mut act = store.txns.begin(ActionIdentity::SystemTransaction);
    let id = act.id();
    assert_eq!(
        alloc_page(store, &mut act.no_wait()).unwrap().id(),
        PageId(B + 2)
    );
    act.commit().unwrap();
    assert_eq!(records_of(store, id).len(), 3, "Begin, SetBit, Commit");
}

/// Undoing the allocating action clears only the bit it allocated: the
/// format stays, so a later action's allocation in the same extent — made
/// after the first released the allocation latch — survives the rollback.
#[test]
fn rolling_back_the_formatting_action_keeps_the_extent() {
    let cs = CrashableStore::create(64, 3 * B).unwrap();
    let store = &cs.store;
    fill_extent_zero(store).unwrap();
    let mut first = store.txns.begin(ActionIdentity::SystemTransaction);
    assert_eq!(
        alloc_page(store, &mut first.no_wait()).unwrap().id(),
        PageId(B + 1)
    );
    let mut second = store.txns.begin(ActionIdentity::SystemTransaction);
    assert_eq!(
        alloc_page(store, &mut second.no_wait()).unwrap().id(),
        PageId(B + 2)
    );
    second.commit().unwrap();
    first.abort(None).unwrap();

    let space = &store.space;
    let allocated = |p: u64| space.is_allocated(&store.pool, PageId(p)).unwrap();
    assert!(allocated(B) && !allocated(B + 1) && allocated(B + 2));
    assert!(space.violations(&store.pool).unwrap().is_empty());
    // The next allocation finds the bitmap formatted and logs one bit.
    let mut third = store.txns.begin(ActionIdentity::SystemTransaction);
    let id = third.id();
    assert_eq!(
        alloc_page(store, &mut third.no_wait()).unwrap().id(),
        PageId(B + 3)
    );
    third.commit().unwrap();
    assert_eq!(records_of(store, id).len(), 3, "Begin, SetBit, Commit");
}

/// Crash at every durable-write boundary of a run whose splits open
/// extent 1: recovery must bring back a map in which the formatted bitmap
/// marks itself and every reachable node allocated (the tree checker
/// consults both), and lazy completion must keep allocating from it.
#[test]
fn crashing_across_the_extent_boundary_recovers_a_consistent_map() {
    let cfg = SweepConfig {
        max_crash_points: usize::MAX,
        max_pages: 3 * B,
        ..SweepConfig::default()
    };
    let setup = |tree: &PiTree, model: &mut crash::Model| {
        for k in 0..4 {
            crash::insert(tree, model, k, &crash::val_bytes(k, 0))?;
        }
        fill_extent_zero(tree.store())
    };
    // The fifth key splits the full root leaf: its first allocation opens
    // extent 1. The flush makes the new bitmap page's own write a crash
    // point, and the rest of the run keeps allocating there.
    let trigger = |tree: &PiTree, model: &mut crash::Model| {
        crash::insert(tree, model, 4, &crash::val_bytes(4, 1))?;
        tree.store().pool.flush_all()?;
        (5..16).try_for_each(|k| crash::insert(tree, model, k, &crash::val_bytes(k, 1)))
    };
    let report = crash::sweep_workload(0xB17, &cfg, Drain::Synchronous, &setup, &trigger)
        .unwrap_or_else(|v| panic!("{v}"));
    println!(
        "space_extents: {} crash points across the extent boundary ({} mid page write)",
        report.points.len(),
        report.page_write_crashes
    );
    assert!(
        report.points.len() >= 12,
        "one forced commit per insert at least"
    );
}

#[test]
fn a_tree_grows_across_the_extent_boundary() {
    let cs = CrashableStore::create(64, 3 * B).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::small_nodes(4, 4)).unwrap();
    fill_extent_zero(&cs.store).unwrap();
    for k in 0..200u64 {
        let mut t = tree.begin();
        tree.insert(&mut t, &k.to_be_bytes(), b"v").unwrap();
        t.commit().unwrap();
    }
    tree.run_completions().unwrap();
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    let nodes: usize = report.levels.iter().map(|l| l.nodes).sum();
    // Extent 0 full, extent 1's bitmap, and every node but the root there.
    let allocated = cs.store.space.allocated_count(&cs.store.pool).unwrap();
    assert_eq!(allocated, B + 1 + (nodes as u64 - 1));
}
