//! Versioned key-value store on the TSB-tree: every write is timestamped,
//! and the full history of every key stays queryable — the paper's §2.2.2 /
//! Figure 1 structure as an application.
//!
//! Scenario: an account ledger where auditors ask "what was the balance as
//! of timestamp T?".
//!
//! Run with: `cargo run --example versioned_store`

use pitree::store::CrashableStore;
use pitree::wellformed::fill_line;
use pitree_tsb::{TsbConfig, TsbTree};
use std::sync::Arc;

fn main() {
    let store = CrashableStore::create(1024, 100_000).expect("store");
    let tree =
        TsbTree::create(Arc::clone(&store.store), 1, TsbConfig::small_nodes(16, 16)).expect("tree");

    // Day 1: open accounts.
    let mut t_open = 0;
    for acct in 0..50u64 {
        let mut txn = tree.begin();
        t_open = tree
            .put(&mut txn, &acct.to_be_bytes(), b"balance=100")
            .expect("put");
        txn.commit().expect("commit");
    }

    // Days 2..20: lots of activity on a few hot accounts — this churn forces
    // *time splits*, migrating old versions to history nodes.
    let mut mid_stamp = 0;
    for day in 2..20u64 {
        for acct in [7u64, 13, 21] {
            let mut txn = tree.begin();
            let balance = format!("balance={}", 100 + day * 10);
            let ts = tree
                .put(&mut txn, &acct.to_be_bytes(), balance.as_bytes())
                .expect("put");
            txn.commit().expect("commit");
            if day == 10 && acct == 7 {
                mid_stamp = ts;
            }
        }
    }
    // Account 13 is closed (a tombstone version).
    let mut txn = tree.begin();
    tree.delete(&mut txn, &13u64.to_be_bytes()).expect("delete");
    txn.commit().expect("commit");

    // Auditor queries.
    let now = |k: u64| tree.get_current(&k.to_be_bytes()).expect("get");
    let asof = |k: u64, t| tree.get_as_of(&k.to_be_bytes(), t).expect("as-of");

    println!(
        "account 7 now:        {:?}",
        now(7).map(|v| String::from_utf8(v).unwrap())
    );
    println!(
        "account 7 at day 10:  {:?}",
        asof(7, mid_stamp).map(|v| String::from_utf8(v).unwrap())
    );
    println!(
        "account 7 at opening: {:?}",
        asof(7, t_open).map(|v| String::from_utf8(v).unwrap())
    );
    println!("account 13 now (closed): {:?}", now(13));
    assert!(now(13).is_none());
    assert!(asof(13, mid_stamp).is_some(), "history survives the close");

    // Full version history of a hot account.
    let history = tree.history(&7u64.to_be_bytes()).expect("history");
    println!("account 7 has {} versions", history.len());
    assert!(history.len() >= 19);

    // Snapshot scan: all live accounts as of the opening day.
    let snapshot = tree
        .scan_as_of(&0u64.to_be_bytes(), &100u64.to_be_bytes(), t_open)
        .expect("scan");
    println!("accounts alive at opening: {}", snapshot.len());

    let report = tree.validate().expect("validate");
    assert!(report.is_well_formed(), "{:?}", report.violations);
    println!(
        "structure: {}, {} history nodes, {} versions",
        fill_line(&report.levels),
        report.history_nodes,
        report.records
    );
}
