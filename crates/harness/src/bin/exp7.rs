//! **Experiment E7** — §3.3/§5.1: node consolidation and the testable-state
//! discipline. Consolidation reclaims under-utilized nodes after churn, and
//! completing actions are idempotent: re-scheduling work that is already
//! done (or no longer needed) terminates as a no-op.
//!
//! Run with: `cargo run --release -p pitree-harness --bin exp7`

use pitree::{Completion, CrashableStore, PiTree, PiTreeConfig};
use pitree_harness::driver::commit;
use pitree_harness::workload::key;
use pitree_harness::Table;
use std::sync::Arc;

fn leaves(tree: &PiTree) -> usize {
    tree.validate()
        .unwrap()
        .levels
        .last()
        .map_or(0, |leaf| leaf.nodes)
}

fn main() {
    println!("E7: consolidation under churn + completion idempotence\n");
    const KEYS: u64 = 4_000;
    let mut cfg = PiTreeConfig::small_nodes(16, 16);
    cfg.min_utilization = 0.4;
    let cs = CrashableStore::create(4096, 1 << 20).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    for i in 0..KEYS {
        commit(&tree, |t| tree.insert(t, &key(i), b"v"));
    }
    for _ in 0..4 {
        tree.run_completions().unwrap();
    }
    let full = leaves(&tree);
    let pages_full = cs.store.space.allocated_count(&cs.store.pool).unwrap();

    // Churn: delete 90% of keys.
    for i in 0..KEYS {
        if i % 10 != 0 {
            commit(&tree, |t| tree.delete(t, &key(i)));
        }
    }
    for _ in 0..8 {
        tree.run_completions().unwrap();
    }
    let after = leaves(&tree);
    let pages_after = cs.store.space.allocated_count(&cs.store.pool).unwrap();
    let consolidations = tree.stats().consolidations.get();

    let mut table = Table::new(&["phase", "leaf nodes", "allocated pages", "records"]);
    table.row(&[
        "after load".into(),
        full.to_string(),
        pages_full.to_string(),
        KEYS.to_string(),
    ]);
    table.row(&[
        "after 90% churn + consolidation".into(),
        after.to_string(),
        pages_after.to_string(),
        (KEYS / 10).to_string(),
    ]);
    table.print();
    println!("\nconsolidations performed: {consolidations}");
    assert!(tree.validate().unwrap().is_well_formed());
    assert!(after < full / 2, "consolidation must reclaim most leaves");

    // Idempotence of completing actions (§5.1): re-schedule every leaf's
    // consolidation twice over — all must terminate as testable no-ops or
    // legitimate merges, never corrupting the tree.
    println!("\nidempotence check: double-scheduling completions for every leaf...");
    let report = tree.validate().unwrap();
    let noop_before = tree.stats().consolidations_noop.get();
    for _ in 0..2 {
        for i in 0..KEYS {
            tree.completions().push(Completion::Consolidate {
                level: 0,
                key: key(i),
            });
        }
        for _ in 0..8 {
            tree.run_completions().unwrap();
        }
    }
    let report2 = tree.validate().unwrap();
    let noop_after = tree.stats().consolidations_noop.get();
    println!(
        "  re-scheduled {} stale completions; {} rejected by the testable-state check",
        2 * KEYS,
        noop_after - noop_before
    );
    assert!(report2.is_well_formed(), "{:?}", report2.violations);
    assert_eq!(report.records, report2.records, "no record was harmed");
    // Surviving keys still readable.
    for i in (0..KEYS).step_by(10) {
        assert_eq!(tree.get_unlocked(&key(i)).unwrap(), Some(b"v".to_vec()));
    }
    println!("  tree unchanged and well-formed — completion is idempotent and testable.\n");
    println!(
        "expected shape: leaf count and allocated pages drop by roughly the churn\n\
         factor; double-scheduled completions all hit the §5.1 state test."
    );
}
