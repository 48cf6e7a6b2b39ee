//! The B-link write path: a write starts at the last leaf a write changed
//! when §5.2.2's trust rule and that leaf's unchanged state identifier
//! allow it, and an updater locks a page only under page-oriented UNDO.
//!
//! The trust-rule tests each build the one state in which a hint that
//! skipped a check would land a write in the wrong node: a leaf
//! consolidated away under `NotAnUpdate` (its state id untouched), and a
//! leaf freed under `IsAnUpdate` whose page another tree re-used.

use pitree::{
    ConsolidationPolicy, CrashableStore, DeallocPolicy, MoveGranule, NodeHeader, PiTree,
    PiTreeConfig,
};
use pitree_pagestore::PageId;
use pitree_txnlock::LockMode;
use std::sync::{Arc, Barrier};

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

fn val(i: u64) -> Vec<u8> {
    format!("value-{i}").into_bytes()
}

fn consolidating(dealloc: DeallocPolicy) -> PiTreeConfig {
    PiTreeConfig {
        consolidation: ConsolidationPolicy::Enabled { dealloc },
        min_utilization: 0.5,
        ..PiTreeConfig::small_nodes(8, 8)
    }
}

fn commit(tree: &PiTree, f: impl Fn(&PiTree, &mut pitree_txnlock::Txn<'_>)) {
    let mut t = tree.begin();
    f(tree, &mut t);
    t.commit().unwrap();
}

/// The leaf holding `k`, and the loaded keys it directly contains.
fn leaf_of(tree: &PiTree, k: u64, loaded: std::ops::Range<u64>) -> (PageId, Vec<u64>) {
    let d = tree.descend(&key(k), 0, false, false).unwrap();
    let h = NodeHeader::read(d.guard.page()).unwrap();
    let keys = loaded.filter(|&i| h.contains(&key(i))).collect();
    (d.page.id(), keys)
}

/// Load `0..n` into a tree of small leaves under one root, then delete
/// keys of a middle leaf until it is consolidated into its left sibling:
/// the deletes arm the hint on it, and the last one's consolidation runs
/// before the next write. Returns the leaf and the keys deleted.
fn load_and_consolidate_a_leaf(tree: &PiTree, n: u64) -> (PageId, Vec<u64>) {
    for i in 0..n {
        commit(tree, |tr, t| {
            assert!(tr.insert(t, &key(i), &val(i)).unwrap())
        });
    }
    tree.run_completions().unwrap();
    assert_eq!(tree.height().unwrap(), 2, "every leaf under the root");
    let (leaf, keys) = leaf_of(tree, n / 2, 0..n);
    assert!(keys[0] > 0, "not the root's first child: {keys:?}");
    let consolidations = tree.stats().consolidations.get();
    let mut deleted = Vec::new();
    for k in keys {
        commit(tree, |tr, t| assert!(tr.delete(t, &key(k)).unwrap()));
        deleted.push(k);
        if tree.stats().consolidations.get() > consolidations {
            return (leaf, deleted);
        }
    }
    panic!("deleting the leaf's keys never consolidated it");
}

#[test]
fn not_an_update_never_starts_a_write_at_a_consolidated_leaf() {
    let cs = CrashableStore::create(256, 100_000).unwrap();
    let tree = PiTree::create(
        Arc::clone(&cs.store),
        1,
        consolidating(DeallocPolicy::NotAnUpdate),
    )
    .unwrap();
    let (_, keys) = load_and_consolidate_a_leaf(&tree, 40);
    // The consolidated leaf kept its content and state id (§5.2.2(a)), so
    // only the policy keeps a write from starting there.
    let k = keys[0];
    commit(&tree, |tr, t| {
        assert!(tr.insert(t, &key(k), &val(k)).unwrap())
    });
    assert_eq!(tree.get_unlocked(&key(k)).unwrap(), Some(val(k)));
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 40 - keys.len() + 1);
    let stats = tree.stats();
    assert_eq!(
        (stats.write_hint_hits.get(), stats.write_hint_misses.get()),
        (0, 0),
        "NotAnUpdate never consults the hint"
    );
}

#[test]
fn is_an_update_never_starts_a_write_in_a_reused_page() {
    let cs = CrashableStore::create(256, 100_000).unwrap();
    let tree = PiTree::create(
        Arc::clone(&cs.store),
        1,
        consolidating(DeallocPolicy::IsAnUpdate),
    )
    .unwrap();
    let (gone, keys) = load_and_consolidate_a_leaf(&tree, 40);
    // The freed page is the next one allocated: the second tree's root, a
    // live node whose space is everything. Only its state id differs.
    let other = PiTree::create(Arc::clone(&cs.store), 2, PiTreeConfig::default()).unwrap();
    assert_eq!(other.root_pid(), gone, "the second tree re-used the page");
    let misses = tree.stats().write_hint_misses.get();
    let k = keys[0];
    commit(&tree, |tr, t| {
        assert!(tr.insert(t, &key(k), &val(k)).unwrap())
    });
    assert_eq!(other.get_unlocked(&key(k)).unwrap(), None);
    assert_eq!(other.validate().unwrap().records, 0);
    assert_eq!(tree.get_unlocked(&key(k)).unwrap(), Some(val(k)));
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 40 - keys.len() + 1);
    assert_eq!(tree.stats().write_hint_misses.get(), misses + 1);
}

#[test]
fn interleaved_appenders_share_the_hint() {
    const PER_THREAD: u64 = 300;
    let cfgs = [
        PiTreeConfig::small_nodes(8, 8),
        PiTreeConfig {
            consolidation: ConsolidationPolicy::Disabled,
            ..PiTreeConfig::small_nodes(8, 8)
        },
        PiTreeConfig::small_nodes(8, 8).page_oriented(),
    ];
    for cfg in cfgs {
        let cs = CrashableStore::create(512, 100_000).unwrap();
        let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (tree, start) = (&tree, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        let k = 2 * i + t;
                        let (txn, new) = tree
                            .autocommit(|txn| tree.insert(txn, &key(k), &val(k)))
                            .unwrap();
                        txn.commit().unwrap();
                        assert!(new);
                    }
                });
            }
        });
        tree.run_completions().unwrap();
        let report = tree.validate().unwrap();
        assert!(report.is_well_formed(), "{:?}", report.violations);
        assert_eq!(report.records as u64, 2 * PER_THREAD);
        let all = tree.scan(&key(0), &key(u64::MAX)).unwrap();
        let want: Vec<_> = (0..2 * PER_THREAD).map(|i| (key(i), val(i))).collect();
        assert_eq!(all, want, "{cfg:?}");
        for i in 0..2 * PER_THREAD {
            assert_eq!(tree.get_unlocked(&key(i)).unwrap(), Some(val(i)));
        }
        assert!(tree.stats().write_hint_hits.get() > 0, "{cfg:?}");
    }
}

#[test]
fn updaters_lock_the_page_only_under_page_oriented_undo() {
    for granule in [MoveGranule::Page, MoveGranule::Relation] {
        for (cfg, page_lock) in [
            (PiTreeConfig::default(), None),
            (PiTreeConfig::default().page_oriented(), Some(LockMode::IX)),
        ] {
            let cfg = PiTreeConfig {
                move_granule: granule,
                ..cfg
            };
            let cs = CrashableStore::create(256, 100_000).unwrap();
            let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
            let locks = tree.store().txns.locks();
            let leaf = tree.page_lock(tree.root_pid());
            for round in 0..3 {
                let mut t = tree.begin();
                tree.insert(&mut t, &key(round), &val(round)).unwrap();
                assert_eq!(locks.holds(t.id(), &leaf), page_lock, "insert {cfg:?}");
                assert_eq!(
                    locks.holds(t.id(), &tree.key_lock(&key(round))),
                    Some(LockMode::X)
                );
                t.commit().unwrap();
                let mut t = tree.begin();
                assert!(tree.delete(&mut t, &key(round)).unwrap());
                assert_eq!(locks.holds(t.id(), &leaf), page_lock, "delete {cfg:?}");
                t.commit().unwrap();
            }
        }
    }
}
