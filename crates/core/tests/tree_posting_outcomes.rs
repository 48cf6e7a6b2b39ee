//! Targeted tests of every §5.3 Verify-Split outcome: posted, already
//! posted, and "the node whose index term is being posted has already been
//! deleted" (consolidated away) — plus posting deferral on move locks.

use pitree::{Completion, CrashableStore, PiTree, PiTreeConfig, PostOutcome, SavedPath};
use pitree_pagestore::PageId;
use std::sync::Arc;

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

/// Run a stale posting of the level-1 term `(key, node 999)` through the
/// engine's posting action.
fn post_stale(tree: &PiTree, key: &[u8]) -> PostOutcome {
    let post = Completion::Post {
        level: 1,
        key: key.to_vec(),
        node: PageId(999),
        path: Box::new(SavedPath::default()),
    };
    tree.post_index_term(&post, key, PageId(999)).unwrap()
}

fn setup(cfg: PiTreeConfig) -> (CrashableStore, PiTree) {
    let cs = CrashableStore::create(512, 100_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    (cs, tree)
}

#[test]
fn stale_posting_for_posted_node_is_already_posted() {
    let mut cfg = PiTreeConfig::small_nodes(6, 6);
    cfg.auto_complete = false;
    let (_cs, tree) = setup(cfg);
    for i in 0..30 {
        let mut t = tree.begin();
        tree.insert(&mut t, &key(i), b"v").unwrap();
        t.commit().unwrap();
    }
    // Drain all legitimate postings.
    for _ in 0..4 {
        tree.run_completions().unwrap();
    }
    // Re-post each queued item again by reconstructing from the tree: every
    // leaf's low key is either the -inf node or has a posted term.
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed());
    assert_eq!(report.unposted_nodes, 0);
    // Fabricate a duplicate posting for an existing second-leaf boundary.
    // Find it by scanning: any key whose leaf low == that key.
    // Routing keys came from splits around the middle.
    let d_outcome = post_stale(&tree, &key(15));
    // Whatever boundary key(15) is, the outcome must be a clean noop-class
    // result, never a double insert.
    assert!(
        matches!(
            d_outcome,
            PostOutcome::AlreadyPosted | PostOutcome::NodeGone
        ),
        "{d_outcome:?}"
    );
    assert!(tree.validate().unwrap().is_well_formed());
}

#[test]
fn posting_for_consolidated_node_terminates_node_gone() {
    // §5.3 Verify Split: "If not, then the node whose index term is being
    // posted has already been deleted and the action is terminated."
    let mut cfg = PiTreeConfig::small_nodes(6, 6);
    cfg.auto_complete = false;
    cfg.min_utilization = 0.6;
    let (_cs, tree) = setup(cfg);
    for i in 0..30 {
        let mut t = tree.begin();
        tree.insert(&mut t, &key(i), b"v").unwrap();
        t.commit().unwrap();
    }
    for _ in 0..4 {
        tree.run_completions().unwrap();
    }
    // Record a real (node, low key) pair from the current structure by
    // probing leaf boundaries through the validator.
    let before = tree.validate().unwrap();
    assert!(before.levels.last().unwrap().nodes > 2);

    // Delete most records so consolidations absorb leaves.
    for i in 0..30 {
        if i % 6 != 0 {
            let mut t = tree.begin();
            tree.delete(&mut t, &key(i)).unwrap();
            t.commit().unwrap();
        }
    }
    // Capture the pending consolidations and run them.
    for _ in 0..6 {
        tree.run_completions().unwrap();
    }
    let after = tree.validate().unwrap();
    assert!(after.is_well_formed(), "{:?}", after.violations);
    let consolidations = tree.stats().consolidations.get();
    assert!(
        consolidations > 0,
        "the churn must have consolidated something"
    );

    // Now fire stale postings for every historical boundary key: boundaries
    // whose nodes were absorbed must terminate as NodeGone/AlreadyPosted —
    // and never corrupt the tree.
    let mut gone = 0;
    for i in 0..30u64 {
        let out = post_stale(&tree, &key(i));
        if out == PostOutcome::NodeGone {
            gone += 1;
        }
        assert!(
            matches!(out, PostOutcome::AlreadyPosted | PostOutcome::NodeGone),
            "key {i}: {out:?}"
        );
    }
    assert!(gone > 0, "some boundaries must have been consolidated away");
    assert!(tree.validate().unwrap().is_well_formed());
}

#[test]
fn queued_completions_survive_being_stale_en_masse() {
    let mut cfg = PiTreeConfig::small_nodes(6, 6);
    cfg.auto_complete = false;
    cfg.min_utilization = 0.5;
    let (_cs, tree) = setup(cfg);
    for i in 0..60 {
        let mut t = tree.begin();
        tree.insert(&mut t, &key(i), b"v").unwrap();
        t.commit().unwrap();
    }
    // Queue a blanket of redundant consolidations and postings.
    for i in 0..60u64 {
        tree.completions().push(Completion::Consolidate {
            level: 0,
            key: key(i),
        });
        tree.completions().push(Completion::Post {
            level: 1,
            key: key(i),
            node: PageId(2 + i),
            path: Box::new(SavedPath::default()),
        });
    }
    for _ in 0..8 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 60);
}

#[test]
fn page_oriented_consolidation_under_concurrency() {
    let mut cfg = PiTreeConfig::small_nodes(8, 8).page_oriented();
    cfg.min_utilization = 0.4;
    let cs = CrashableStore::create(2048, 300_000).unwrap();
    let tree = Arc::new(PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap());
    for i in 0..400u64 {
        let mut t = tree.begin();
        tree.insert(&mut t, &key(i), b"v").unwrap();
        t.commit().unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for i in (t..300).step_by(4) {
                    let mut txn = tree.begin();
                    match tree.delete(&mut txn, &key(i)) {
                        Ok(_) => {
                            txn.commit().unwrap();
                        }
                        Err(pitree_pagestore::StoreError::LockFailed { .. }) => {
                            txn.abort(None).unwrap();
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
            });
        }
    });
    for _ in 0..8 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    // Consolidation under PageOriented takes move locks; it must still have
    // made progress (possibly with some deferred-and-retried attempts).
    assert!(tree.stats().consolidations.get() > 0);
}
