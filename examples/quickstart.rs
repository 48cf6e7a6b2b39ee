//! Quickstart: create a store, open a Π-tree, run transactions, watch the
//! structure-change machinery work.
//!
//! Run with: `cargo run --example quickstart`

use pitree::{CrashableStore, PiTree, PiTreeConfig};
use std::sync::Arc;

fn main() {
    // A store bundles the buffer pool, write-ahead log, lock manager, and
    // space map. `CrashableStore` keeps the durable/volatile split explicit
    // so you can simulate crashes (see the crash_recovery example).
    let store = CrashableStore::create(1024, 100_000).expect("create store");

    // Small nodes so this demo actually splits; production code would leave
    // the defaults (page-size-limited nodes).
    let cfg = PiTreeConfig::small_nodes(16, 16);
    let tree = PiTree::create(Arc::clone(&store.store), 1, cfg).expect("create tree");

    // Transactions give you atomic multi-key updates with record locking.
    let mut txn = tree.begin();
    for i in 0..500u64 {
        let key = i.to_be_bytes();
        let value = format!("account-balance-{}", i * 100);
        tree.insert(&mut txn, &key, value.as_bytes())
            .expect("insert");
    }
    txn.commit().expect("commit");

    // Point reads (latch-only; use `get(&txn, ..)` for locked reads).
    let v = tree.get_unlocked(&42u64.to_be_bytes()).expect("get");
    println!("key 42 -> {:?}", String::from_utf8(v.unwrap()).unwrap());

    // Range scans walk the leaf side-pointer chain.
    let range = tree
        .scan(&100u64.to_be_bytes(), &110u64.to_be_bytes())
        .expect("scan");
    println!("keys in [100, 110): {}", range.len());

    // Aborting rolls records back (structure changes, having run as
    // independent atomic actions, persist — exactly the paper's design).
    let mut txn = tree.begin();
    tree.insert(&mut txn, b"doomed", b"never-visible")
        .expect("insert");
    txn.abort(Some(&tree.undo_handler())).expect("abort");
    assert_eq!(tree.get_unlocked(b"doomed").expect("get"), None);

    // The tree validates its own §2.1.3 well-formedness invariants.
    let report = tree.validate().expect("validate");
    assert!(report.is_well_formed(), "{:?}", report.violations);
    println!(
        "tree: {} records, {}, height {}",
        report.records,
        pitree::wellformed::fill_line(&report.levels),
        tree.height().expect("height"),
    );

    // Structure-change statistics from the run.
    println!("\nstructure-change activity:");
    for (name, value) in tree.stats().snapshot() {
        if value > 0 {
            println!("  {name:24} {value}");
        }
    }
}
