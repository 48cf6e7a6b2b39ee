//! A baseline runs on the Π-tree's own engine: a crashed baseline restarts
//! with `PiTree::recover`, and an intermediate state the coupled protocol
//! meets is completed by the engine's posting.

use pitree::node::node_full;
use pitree::{CrashableStore, PiTree, PiTreeConfig};
use pitree_baselines::{Baseline, ConcurrentIndex, Protocol};
use pitree_pagestore::page::Page;
use pitree_sim::SimRng;

#[test]
fn lock_coupling_tree_recovers_every_committed_key() {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(256, 1 << 16).unwrap();
    let tree = PiTree::create(cs.store.clone(), 1, cfg).unwrap();
    let lc = Baseline::over(tree, Protocol::LockCoupling);
    let key = |i: u64| (i * 7919 % 500).to_be_bytes();
    for i in 0..500u64 {
        assert!(lc.insert(&key(i), &i.to_le_bytes()));
    }
    for i in (0..500).step_by(5) {
        assert!(lc.delete(&key(i)));
    }
    let stats = lc.tree().stats();
    assert!(
        stats.root_grows.get() >= 3,
        "the run grows the root repeatedly"
    );
    assert!(stats.splits.get() > 100);

    let crashed = cs.crash().unwrap();
    let (tree, _) = PiTree::recover(crashed.store.clone(), 1, cfg).unwrap();
    for i in 0..500u64 {
        let want = (i % 5 != 0).then(|| i.to_le_bytes().to_vec());
        assert_eq!(tree.get_unlocked(&key(i)).unwrap(), want, "key {i}");
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.unposted_nodes, 0);
    assert!(tree.height().unwrap() >= 4);
}

/// The coupled descent releases the ancestors of a node with room for a
/// separator as long as the inserted key. A longer separator (a 200-byte key
/// splitting a leaf for an 8-byte insert) can outgrow them: its term posts
/// through the engine, and a descent that meets the unposted node completes
/// it before going on.
#[test]
fn separators_longer_than_the_key_post_through_the_engine() {
    let lc = Baseline::new(256, Protocol::LockCoupling, PiTreeConfig::default());
    // Scrambled leading bytes leave pages no key prefix to re-encode, so the
    // safe test keeps no margin beyond the inserted key's own length.
    let key = |i: u64| {
        let mut k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes().to_vec();
        if i.is_multiple_of(2) {
            k.resize(200, b'x');
        }
        k
    };
    let mut order: Vec<u64> = (0..20_000).collect();
    SimRng::new(7).shuffle(&mut order);
    for &i in &order {
        assert!(lc.insert(&key(i), b"v"), "key {i} is new");
    }
    for i in 0..20_000 {
        assert_eq!(lc.get(&key(i)), Some(b"v".to_vec()), "key {i}");
    }
    let stats = lc.tree().stats();
    println!(
        "long separators: {} lazy postings, {} side traversals",
        stats.postings_done.get(),
        stats.side_traversals.get()
    );
    assert!(
        stats.postings_done.get() > 0,
        "no separator outgrew the safe test"
    );
    let report = lc.tree().validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
}

/// An ascending-run split moves only what sorts after the run, which can
/// leave a long entry still without room: the coupled insert splits again.
#[test]
fn a_long_entry_still_without_room_splits_its_leaf_again() {
    let lc = Baseline::new(64, Protocol::LockCoupling, PiTreeConfig::default());
    let (key, run, long) = (|i: u64| i.to_be_bytes(), [b'r'; 40], [b'l'; 1500]);
    for i in 0..100 {
        lc.insert(&key(i), &run);
    }
    // The run 100, 101, ... lands before this short entry, in its leaf (and
    // shares its key prefix, so moving it out re-encodes nothing).
    lc.insert(&key(255), b"");
    // Run until an entry a little shorter than `long` no longer fits, so
    // moving the short entry out cannot make room for `long` either.
    let fits = |i: u64| {
        let d = lc.tree().descend(&key(i), 0, false, false).unwrap();
        let entry = Page::make_entry(&key(i), &long[20..]);
        !node_full(d.guard.page(), &entry, usize::MAX)
    };
    let mut i = 100;
    while fits(i) {
        lc.insert(&key(i), &run);
        i += 1;
    }
    let splits = lc.tree().stats().splits.get();
    assert!(lc.insert(&key(i), &long));
    assert_eq!(lc.tree().stats().splits.get(), splits + 2);
    assert_eq!(lc.get(&key(i)), Some(long.to_vec()));
    assert!(lc.tree().validate().unwrap().is_well_formed());
}
