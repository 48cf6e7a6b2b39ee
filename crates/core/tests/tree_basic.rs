//! Functional tests of the Π-tree public API: CRUD, splits, lazy completion,
//! consolidation, and well-formedness through every intermediate state.

use pitree::{ConsolidationPolicy, CrashableStore, DeallocPolicy, PiTree, PiTreeConfig};
use std::sync::Arc;

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

fn val(i: u64) -> Vec<u8> {
    format!("value-{i}").into_bytes()
}

fn tree_with(cfg: PiTreeConfig) -> (CrashableStore, PiTree) {
    let cs = CrashableStore::create(512, 100_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    (cs, tree)
}

fn small_tree() -> (CrashableStore, PiTree) {
    tree_with(PiTreeConfig::small_nodes(6, 6))
}

fn insert_all(tree: &PiTree, keys: impl IntoIterator<Item = u64>) {
    for i in keys {
        let mut t = tree.begin();
        tree.insert(&mut t, &key(i), &val(i)).unwrap();
        t.commit().unwrap();
    }
}

#[test]
fn empty_tree_is_well_formed() {
    let (_cs, tree) = small_tree();
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 0);
    assert_eq!(tree.height().unwrap(), 1);
}

#[test]
fn single_insert_and_get() {
    let (_cs, tree) = small_tree();
    let mut t = tree.begin();
    assert!(tree.insert(&mut t, b"k", b"v").unwrap());
    assert_eq!(tree.get(&t, b"k").unwrap(), Some(b"v".to_vec()));
    assert_eq!(tree.get(&t, b"absent").unwrap(), None);
    t.commit().unwrap();
    assert_eq!(tree.get_unlocked(b"k").unwrap(), Some(b"v".to_vec()));
}

#[test]
fn upsert_replaces_value() {
    let (_cs, tree) = small_tree();
    let mut t = tree.begin();
    assert!(tree.insert(&mut t, b"k", b"v1").unwrap());
    assert!(
        !tree.insert(&mut t, b"k", b"v2").unwrap(),
        "second insert replaces"
    );
    t.commit().unwrap();
    assert_eq!(tree.get_unlocked(b"k").unwrap(), Some(b"v2".to_vec()));
    let report = tree.validate().unwrap();
    assert_eq!(report.records, 1);
}

#[test]
fn inserts_split_and_grow_the_tree() {
    let (_cs, tree) = small_tree();
    insert_all(&tree, 0..200);
    assert!(
        tree.height().unwrap() >= 3,
        "200 keys across 6-entry nodes must stack levels"
    );
    assert!(tree.stats().splits.get() > 10);
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 200);
    for i in 0..200 {
        assert_eq!(tree.get_unlocked(&key(i)).unwrap(), Some(val(i)), "key {i}");
    }
}

#[test]
fn descending_inserts_work_too() {
    let (_cs, tree) = small_tree();
    insert_all(&tree, (0..200).rev());
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 200);
    for i in 0..200 {
        assert_eq!(tree.get_unlocked(&key(i)).unwrap(), Some(val(i)));
    }
}

#[test]
fn random_order_inserts() {
    let (_cs, tree) = small_tree();
    let mut keys: Vec<u64> = (0..500).collect();
    pitree_sim::SimRng::new(0x5EED).shuffle(&mut keys);
    insert_all(&tree, keys.iter().copied());
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 500);
}

#[test]
fn intermediate_states_are_well_formed_and_searchable() {
    // Disable auto-completion: splits leave unposted siblings behind.
    let mut cfg = PiTreeConfig::small_nodes(6, 6);
    cfg.auto_complete = false;
    let (_cs, tree) = tree_with(cfg);
    insert_all(&tree, 0..120);
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert!(
        report.unposted_nodes > 0,
        "without completion there must be intermediate states"
    );
    // Searches still find everything via side pointers (§3.1).
    for i in 0..120 {
        assert_eq!(tree.get_unlocked(&key(i)).unwrap(), Some(val(i)));
    }
    assert!(
        tree.stats().side_traversals.get() > 0,
        "searches must have crossed side pointers"
    );
    // Now run the scheduled completions and verify the states resolve.
    tree.run_completions().unwrap();
    let report2 = tree.validate().unwrap();
    assert!(report2.is_well_formed(), "{:?}", report2.violations);
    assert!(report2.unposted_nodes < report.unposted_nodes);
}

#[test]
fn completion_is_idempotent() {
    let mut cfg = PiTreeConfig::small_nodes(6, 6);
    cfg.auto_complete = false;
    let (_cs, tree) = tree_with(cfg);
    insert_all(&tree, 0..60);
    // Drain once, then traverse again (which may re-schedule) and drain again.
    tree.run_completions().unwrap();
    for i in 0..60 {
        tree.get_unlocked(&key(i)).unwrap();
    }
    tree.run_completions().unwrap();
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 60);
}

#[test]
fn delete_and_reinsert() {
    let (_cs, tree) = small_tree();
    insert_all(&tree, 0..50);
    let mut t = tree.begin();
    assert!(tree.delete(&mut t, &key(25)).unwrap());
    assert!(
        !tree.delete(&mut t, &key(25)).unwrap(),
        "double delete is false"
    );
    assert!(
        !tree.delete(&mut t, &key(999)).unwrap(),
        "absent delete is false"
    );
    t.commit().unwrap();
    assert_eq!(tree.get_unlocked(&key(25)).unwrap(), None);
    insert_all(&tree, [25]);
    assert_eq!(tree.get_unlocked(&key(25)).unwrap(), Some(val(25)));
    assert!(tree.validate().unwrap().is_well_formed());
}

#[test]
fn consolidation_shrinks_node_count() {
    let mut cfg = PiTreeConfig::small_nodes(8, 8);
    cfg.min_utilization = 0.4;
    let (_cs, tree) = tree_with(cfg);
    insert_all(&tree, 0..300);
    let before = tree.validate().unwrap();
    let leaves_before = before.levels.last().unwrap().nodes;
    // Delete most keys; consolidations are scheduled and auto-run.
    for i in 0..300 {
        if i % 10 != 0 {
            let mut t = tree.begin();
            tree.delete(&mut t, &key(i)).unwrap();
            t.commit().unwrap();
        }
    }
    // A few extra passes to drain escalations.
    for _ in 0..5 {
        tree.run_completions().unwrap();
    }
    let after = tree.validate().unwrap();
    assert!(after.is_well_formed(), "{:?}", after.violations);
    assert_eq!(after.records, 30);
    let leaves_after = after.levels.last().unwrap().nodes;
    assert!(
        leaves_after < leaves_before / 2,
        "consolidation must reclaim nodes: {leaves_before} -> {leaves_after}"
    );
    assert!(tree.stats().consolidations.get() > 0);
    // All remaining keys still reachable.
    for i in (0..300).step_by(10) {
        assert_eq!(tree.get_unlocked(&key(i)).unwrap(), Some(val(i)));
    }
}

#[test]
fn cns_policy_never_consolidates() {
    let mut cfg = PiTreeConfig::small_nodes(8, 8);
    cfg.consolidation = ConsolidationPolicy::Disabled;
    let (_cs, tree) = tree_with(cfg);
    insert_all(&tree, 0..100);
    for i in 0..100 {
        let mut t = tree.begin();
        tree.delete(&mut t, &key(i)).unwrap();
        t.commit().unwrap();
    }
    tree.run_completions().unwrap();
    assert_eq!(tree.stats().consolidations.get(), 0);
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 0);
}

#[test]
fn scan_returns_sorted_range() {
    let (_cs, tree) = small_tree();
    insert_all(&tree, (0..100).map(|i| i * 2)); // even keys
    let out = tree.scan(&key(10), &key(50)).unwrap();
    let keys: Vec<u64> = out
        .iter()
        .map(|(k, _)| u64::from_be_bytes(k.as_slice().try_into().unwrap()))
        .collect();
    let expected: Vec<u64> = (10..50).filter(|i| i % 2 == 0).collect();
    assert_eq!(keys, expected);
    for (k, v) in &out {
        let i = u64::from_be_bytes(k.as_slice().try_into().unwrap());
        assert_eq!(v, &val(i));
    }
}

#[test]
fn scan_empty_and_full_ranges() {
    let (_cs, tree) = small_tree();
    insert_all(&tree, 10..20);
    assert!(tree.scan(&key(0), &key(5)).unwrap().is_empty());
    assert!(tree.scan(&key(50), &key(60)).unwrap().is_empty());
    assert_eq!(tree.scan(&key(0), &key(100)).unwrap().len(), 10);
    assert_eq!(tree.scan(&key(12), &key(12)).unwrap().len(), 0);
}

#[test]
fn abort_undoes_inserts_logical() {
    let (_cs, tree) = small_tree();
    insert_all(&tree, 0..20);
    let mut t = tree.begin();
    tree.insert(&mut t, &key(100), &val(100)).unwrap();
    tree.insert(&mut t, &key(101), &val(101)).unwrap();
    tree.delete(&mut t, &key(5)).unwrap();
    tree.insert(&mut t, &key(6), b"changed").unwrap();
    t.abort(Some(&tree.undo_handler())).unwrap();
    assert_eq!(tree.get_unlocked(&key(100)).unwrap(), None);
    assert_eq!(tree.get_unlocked(&key(101)).unwrap(), None);
    assert_eq!(
        tree.get_unlocked(&key(5)).unwrap(),
        Some(val(5)),
        "delete undone"
    );
    assert_eq!(
        tree.get_unlocked(&key(6)).unwrap(),
        Some(val(6)),
        "update undone"
    );
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 20);
}

#[test]
fn abort_undoes_inserts_page_oriented() {
    let (_cs, tree) = tree_with(PiTreeConfig::small_nodes(6, 6).page_oriented());
    insert_all(&tree, 0..20);
    let mut t = tree.begin();
    tree.insert(&mut t, &key(100), &val(100)).unwrap();
    tree.delete(&mut t, &key(5)).unwrap();
    t.abort(None).unwrap(); // page-oriented undo needs no handler
    assert_eq!(tree.get_unlocked(&key(100)).unwrap(), None);
    assert_eq!(tree.get_unlocked(&key(5)).unwrap(), Some(val(5)));
    assert!(tree.validate().unwrap().is_well_formed());
}

#[test]
fn abort_after_structure_change_keeps_split_logical() {
    // Under logical UNDO the split is independent: aborting the transaction
    // undoes the records but not the structure change (§4.2.1).
    let (_cs, tree) = small_tree();
    let mut t = tree.begin();
    for i in 0..40 {
        tree.insert(&mut t, &key(i), &val(i)).unwrap();
    }
    let splits_before = tree.stats().splits.get();
    assert!(
        splits_before > 0,
        "40 inserts into 6-entry leaves must split"
    );
    t.abort(Some(&tree.undo_handler())).unwrap();
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 0, "all records rolled back");
    // The structure (empty nodes, index terms) survives.
    assert!(tree.height().unwrap() > 1);
}

#[test]
fn page_oriented_inserts_with_splits_roll_back() {
    let (_cs, tree) = tree_with(PiTreeConfig::small_nodes(6, 6).page_oriented());
    let mut t = tree.begin();
    for i in 0..40 {
        tree.insert(&mut t, &key(i), &val(i)).unwrap();
    }
    t.abort(None).unwrap();
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 0);
    // And the tree still works afterwards.
    insert_all(&tree, 0..40);
    assert_eq!(tree.validate().unwrap().records, 40);
}

#[test]
fn in_txn_split_counting_page_oriented() {
    // Under page-oriented UNDO, a transaction that updates a leaf and then
    // forces it to split must use the in-transaction split path (§4.2.1
    // second case). Under logical UNDO the same transactions' splits all
    // run as independent atomic actions and no posting waits on a move
    // lock (§6: "even data node splitting" leaves the transaction).
    // Pinned per policy: (splits in a transaction, independent splits,
    // postings deferred by a move lock). A deferral is a descent crossing
    // a move-locked sibling pointer, which a write that starts at the last
    // leaf written never does.
    let cfg = PiTreeConfig::small_nodes(6, 6);
    for (cfg, placement) in [(cfg.page_oriented(), (5, 0, 14)), (cfg, (0, 5, 0))] {
        let (_cs, tree) = tree_with(cfg);
        for batch in 0..3 {
            let mut t = tree.begin();
            for i in batch * 10..(batch + 1) * 10 {
                tree.insert(&mut t, &key(i), &val(i)).unwrap();
            }
            t.commit().unwrap();
        }
        let stats = tree.stats();
        let (in_txn, independent) = (stats.splits_in_txn.get(), stats.splits_independent.get());
        assert_eq!(
            in_txn + independent,
            stats.splits.get(),
            "every split ran in the transaction or independently"
        );
        assert_eq!(
            (in_txn, independent, stats.postings_move_deferred.get()),
            placement
        );
        // Deferred postings ran at commit; tree is complete and well-formed.
        tree.run_completions().unwrap();
        assert!(tree.validate().unwrap().is_well_formed());
        for i in 0..30 {
            assert_eq!(tree.get_unlocked(&key(i)).unwrap(), Some(val(i)));
        }
    }
}

#[test]
fn dealloc_not_an_update_policy_works() {
    let mut cfg = PiTreeConfig::small_nodes(8, 8);
    cfg.consolidation = ConsolidationPolicy::Enabled {
        dealloc: DeallocPolicy::NotAnUpdate,
    };
    cfg.min_utilization = 0.4;
    let (_cs, tree) = tree_with(cfg);
    insert_all(&tree, 0..200);
    for i in 0..200 {
        if i % 8 != 0 {
            let mut t = tree.begin();
            tree.delete(&mut t, &key(i)).unwrap();
            t.commit().unwrap();
        }
    }
    for _ in 0..5 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 25);
}

#[test]
fn freed_pages_are_reused() {
    let mut cfg = PiTreeConfig::small_nodes(8, 8);
    cfg.min_utilization = 0.5;
    let (cs, tree) = tree_with(cfg);
    insert_all(&tree, 0..400);
    for i in 0..400 {
        let mut t = tree.begin();
        tree.delete(&mut t, &key(i)).unwrap();
        t.commit().unwrap();
    }
    for _ in 0..8 {
        tree.run_completions().unwrap();
    }
    let allocated_small = cs.store.space.allocated_count(&cs.store.pool).unwrap();
    // Grow again: freed pages must be found and reused, not leaked.
    insert_all(&tree, 0..400);
    let allocated_regrown = cs.store.space.allocated_count(&cs.store.pool).unwrap();
    insert_all(&tree, 400..420);
    assert!(tree.validate().unwrap().is_well_formed());
    assert!(
        allocated_regrown < allocated_small + 160,
        "regrowth should reuse freed pages: {allocated_small} -> {allocated_regrown}"
    );
}

#[test]
fn values_of_varying_sizes() {
    let (_cs, tree) = tree_with(PiTreeConfig::default()); // byte-limited nodes
    let mut t = tree.begin();
    for i in 0u64..200 {
        let v = vec![b'x'; (i as usize * 7) % 300 + 1];
        tree.insert(&mut t, &key(i), &v).unwrap();
    }
    t.commit().unwrap();
    for i in 0u64..200 {
        let v = vec![b'x'; (i as usize * 7) % 300 + 1];
        assert_eq!(tree.get_unlocked(&key(i)).unwrap(), Some(v));
    }
    assert!(tree.validate().unwrap().is_well_formed());
}

#[test]
fn two_trees_share_a_store() {
    let cs = CrashableStore::create(512, 100_000).unwrap();
    let t1 = PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::small_nodes(6, 6)).unwrap();
    let t2 = PiTree::create(Arc::clone(&cs.store), 2, PiTreeConfig::small_nodes(6, 6)).unwrap();
    insert_all(&t1, 0..50);
    for i in 0..50u64 {
        let mut t = t2.begin();
        t2.insert(&mut t, &key(i), b"tree2").unwrap();
        t.commit().unwrap();
    }
    assert_eq!(t1.get_unlocked(&key(7)).unwrap(), Some(val(7)));
    assert_eq!(t2.get_unlocked(&key(7)).unwrap(), Some(b"tree2".to_vec()));
    assert!(t1.validate().unwrap().is_well_formed());
    assert!(t2.validate().unwrap().is_well_formed());
    // Re-open by id.
    let t1b = PiTree::open(Arc::clone(&cs.store), 1, PiTreeConfig::small_nodes(6, 6)).unwrap();
    assert_eq!(t1b.get_unlocked(&key(7)).unwrap(), Some(val(7)));
}

#[test]
fn scan_locked_holds_result_set_stable() {
    let (_cs, tree) = small_tree();
    insert_all(&tree, 0..40);
    let txn = tree.begin();
    let out = tree.scan_locked(&txn, &key(10), &key(20)).unwrap();
    assert_eq!(out.len(), 10);
    // A concurrent writer must not be able to update a locked key without
    // waiting for the scanner's transaction.
    let writer = tree.begin();
    let name = tree.key_lock(&key(15));
    assert!(
        writer.try_lock(&name, pitree_txnlock::LockMode::X).is_err(),
        "scan's S lock must block X until the scanner commits"
    );
    writer.commit().unwrap();
    txn.commit().unwrap();
    // Now the lock is free.
    let writer2 = tree.begin();
    writer2
        .try_lock(&name, pitree_txnlock::LockMode::X)
        .unwrap();
    writer2.commit().unwrap();
}
