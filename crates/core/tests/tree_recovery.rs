//! Crash-recovery tests: the paper's central claim is that a crash at *any*
//! point during a decomposed structure change leaves a recoverable,
//! well-formed tree with no special recovery measures (§1 point 4, §4.3).
//!
//! The harness snapshots the durable state (disk image + forced log prefix)
//! at arbitrary points — including truncating the log at every record
//! boundary during a split storm — and recovers each snapshot.

use pitree::{ConsolidationPolicy, CrashableStore, PiTree, PiTreeConfig};
use std::sync::Arc;

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

fn val(i: u64) -> Vec<u8> {
    format!("value-{i}").into_bytes()
}

fn setup(cfg: PiTreeConfig) -> (CrashableStore, PiTree) {
    let cs = CrashableStore::create(512, 100_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    (cs, tree)
}

fn commit_insert(tree: &PiTree, i: u64) {
    let mut t = tree.begin();
    tree.insert(&mut t, &key(i), &val(i)).unwrap();
    t.commit().unwrap();
}

/// Crash, recover, and return the reopened tree.
fn crash_recover(cs: &CrashableStore, cfg: PiTreeConfig) -> (CrashableStore, PiTree) {
    let cs2 = cs.crash().unwrap();
    let (tree, _stats) = PiTree::recover(Arc::clone(&cs2.store), 1, cfg).unwrap();
    (cs2, tree)
}

#[test]
fn committed_data_survives_crash() {
    let cfg = PiTreeConfig::small_nodes(6, 6);
    let (cs, tree) = setup(cfg);
    for i in 0..100 {
        commit_insert(&tree, i);
    }
    drop(tree);
    let (_cs2, tree2) = crash_recover(&cs, cfg);
    let report = tree2.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 100);
    for i in 0..100 {
        assert_eq!(
            tree2.get_unlocked(&key(i)).unwrap(),
            Some(val(i)),
            "key {i}"
        );
    }
}

#[test]
fn uncommitted_transaction_rolled_back_logical() {
    let cfg = PiTreeConfig::small_nodes(6, 6);
    let (cs, tree) = setup(cfg);
    for i in 0..30 {
        commit_insert(&tree, i);
    }
    // A transaction with forced-durable updates but an unforced commit: its
    // records must disappear at recovery (relative durability cuts both
    // ways — if the commit record is lost, so is everything after it).
    let mut t = tree.begin();
    for i in 100..110 {
        tree.insert(&mut t, &key(i), &val(i)).unwrap();
    }
    tree.delete(&mut t, &key(5)).unwrap();
    cs.store.log.force_all().unwrap(); // updates durable, commit not written
    cs.store.pool.flush_all().unwrap(); // dirty pages reach disk — the hard case
    std::mem::forget(t);
    let (_cs2, tree2) = crash_recover(&cs, cfg);
    let report = tree2.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(
        report.records, 30,
        "uncommitted inserts undone, delete undone"
    );
    for i in 100..110 {
        assert_eq!(tree2.get_unlocked(&key(i)).unwrap(), None);
    }
    assert_eq!(tree2.get_unlocked(&key(5)).unwrap(), Some(val(5)));
}

#[test]
fn uncommitted_transaction_rolled_back_page_oriented() {
    let cfg = PiTreeConfig::small_nodes(6, 6).page_oriented();
    let (cs, tree) = setup(cfg);
    for i in 0..30 {
        commit_insert(&tree, i);
    }
    let mut t = tree.begin();
    for i in 100..140 {
        tree.insert(&mut t, &key(i), &val(i)).unwrap(); // forces in-txn splits
    }
    cs.store.log.force_all().unwrap();
    cs.store.pool.flush_all().unwrap();
    std::mem::forget(t);
    let (_cs2, tree2) = crash_recover(&cs, cfg);
    let report = tree2.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 30);
}

#[test]
fn crash_between_split_and_posting_completes_lazily() {
    // Force an intermediate state: split done, posting still queued (not
    // run), then crash. Recovery must keep the split (its action committed)
    // and normal traversal must detect and complete the posting.
    let mut cfg = PiTreeConfig::small_nodes(6, 6);
    cfg.auto_complete = false;
    let (cs, tree) = setup(cfg);
    for i in 0..40 {
        commit_insert(&tree, i);
    }
    assert!(!tree.completions().is_empty(), "postings must be pending");
    let scheduled_before = tree.stats().postings_scheduled.get();
    assert!(scheduled_before > 0);
    drop(tree);
    // The completion queue is volatile — the crash loses it (§5.1: "we lose
    // track of which structure changes need completion").
    let (_cs2, tree2) = crash_recover(&cs, cfg);
    let report = tree2.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert!(
        report.unposted_nodes > 0,
        "the intermediate state persisted across the crash"
    );
    assert_eq!(report.records, 40);
    // Normal processing detects the side pointers and schedules completion.
    for i in 0..40 {
        assert_eq!(tree2.get_unlocked(&key(i)).unwrap(), Some(val(i)));
    }
    tree2.run_completions().unwrap();
    tree2.run_completions().unwrap();
    let report2 = tree2.validate().unwrap();
    assert!(report2.is_well_formed(), "{:?}", report2.violations);
    assert!(
        report2.unposted_nodes < report.unposted_nodes,
        "lazy completion must resolve intermediate states: {} -> {}",
        report.unposted_nodes,
        report2.unposted_nodes
    );
}

#[test]
fn log_prefix_sweep_during_split_storm() {
    // The exhaustive version of the paper's claim: crash with the durable
    // log truncated at EVERY record boundary during a workload full of
    // splits, postings, and root growth, with completion lagging (drained
    // every 16 inserts only) so unposted splits reach the log. Every prefix
    // must recover to a well-formed tree containing exactly the committed
    // keys; some must carry an unposted split through the crash, and
    // ordinary traversals plus a drain must finish every one (§5.1). Logical
    // UNDO under CP and CNS, and page-oriented UNDO; the last two cut at
    // every second boundary. Pinned per config: the cuts that recover a
    // tree, those that recover unposted splits, and the most in one cut.
    let mut cns = PiTreeConfig::small_nodes(4, 4);
    cns.consolidation = ConsolidationPolicy::Disabled;
    for (mut cfg, stride, pinned) in [
        (PiTreeConfig::small_nodes(4, 4), 1, (442, 381, 7)),
        (cns, 2, (222, 192, 7)),
        (
            PiTreeConfig::small_nodes(4, 4).page_oriented(),
            2,
            (222, 192, 7),
        ),
    ] {
        cfg.auto_complete = false;
        let (cs, tree) = setup(cfg);
        for i in 0..64 {
            commit_insert(&tree, i);
            if i % 16 == 0 {
                tree.run_completions().unwrap();
            }
        }
        drop(tree);
        cs.store.log.force_all().unwrap();
        let full = cs.durable_log_len();

        // Collect record boundaries from the durable log.
        let records: Vec<_> = cs
            .store
            .log
            .scan(None)
            .collect::<Result<_, _>>()
            .expect("scan");
        let mut cuts: Vec<u64> = records
            .iter()
            .step_by(stride)
            .map(|r| r.lsn.0 - 1)
            .collect();
        cuts.push(full);
        // Also a few torn (mid-record) positions.
        cuts.extend([full.saturating_sub(3), 17, 1]);

        let (mut recovered, mut interrupted, mut max_unposted) = (0, 0, 0);
        for &cut in &cuts {
            let cs2 = cs.crash_with_log_prefix(cut).unwrap();
            // Cuts before the tree-creation commit legitimately recover to a
            // store with no tree.
            let Ok((tree2, _stats)) = PiTree::recover(Arc::clone(&cs2.store), 1, cfg) else {
                continue;
            };
            let report = tree2.validate().unwrap();
            assert!(
                report.is_well_formed(),
                "cut={cut}: violations {:?}",
                report.violations
            );
            recovered += 1;
            if report.unposted_nodes > 0 {
                interrupted += 1;
            }
            max_unposted = max_unposted.max(report.unposted_nodes);
            // Every commit is forced, so the set of surviving keys must be a
            // prefix 0..k of the inserted keys.
            let present: Vec<bool> = (0..64)
                .map(|i| tree2.get_unlocked(&key(i)).unwrap().is_some())
                .collect();
            let k = present.iter().take_while(|&&p| p).count();
            assert!(
                present[k..].iter().all(|&p| !p),
                "cut={cut}: non-prefix survivor set {present:?}"
            );
            assert_eq!(report.records, k, "cut={cut}");
            // The traversals above scheduled the missing postings; a drain
            // completes them and the tree stays fully usable.
            for _ in 0..4 {
                tree2.run_completions().unwrap();
            }
            let after = tree2.validate().unwrap();
            assert!(after.is_well_formed(), "cut={cut}: {:?}", after.violations);
            assert_eq!(after.unposted_nodes, 0, "cut={cut}: left unposted");
        }
        assert!(
            interrupted > 0,
            "no cut recovered an unposted split; completion is not lazy here"
        );
        assert_eq!((recovered, interrupted, max_unposted), pinned);
    }
}

#[test]
fn log_prefix_sweep_with_consolidation() {
    let mut cfg = PiTreeConfig::small_nodes(4, 4);
    cfg.min_utilization = 0.5;
    let (cs, tree) = setup(cfg);
    for i in 0..32 {
        commit_insert(&tree, i);
    }
    for i in 0..24 {
        let mut t = tree.begin();
        tree.delete(&mut t, &key(i)).unwrap();
        t.commit().unwrap();
    }
    for _ in 0..4 {
        tree.run_completions().unwrap();
    }
    drop(tree);
    cs.store.log.force_all().unwrap();
    let records: Vec<_> = cs
        .store
        .log
        .scan(None)
        .collect::<Result<_, _>>()
        .expect("scan");
    // Sweep every 3rd record boundary (consolidation logs are long).
    for (idx, rec) in records.iter().enumerate() {
        if idx % 3 != 0 {
            continue;
        }
        let cut = rec.lsn.0 - 1;
        let cs2 = cs.crash_with_log_prefix(cut).unwrap();
        let Ok((tree2, _stats)) = PiTree::recover(Arc::clone(&cs2.store), 1, cfg) else {
            continue;
        };
        let report = tree2.validate().unwrap();
        assert!(
            report.is_well_formed(),
            "cut={cut}: {:?}",
            report.violations
        );
    }
}

#[test]
fn recovery_is_idempotent_for_trees() {
    let cfg = PiTreeConfig::small_nodes(6, 6);
    let (cs, tree) = setup(cfg);
    for i in 0..60 {
        commit_insert(&tree, i);
    }
    drop(tree);
    let (cs2, tree2) = crash_recover(&cs, cfg);
    let r1 = tree2.validate().unwrap();
    drop(tree2);
    // Crash again immediately after recovery and recover once more.
    let (_cs3, tree3) = crash_recover(&cs2, cfg);
    let r2 = tree3.validate().unwrap();
    assert!(r2.is_well_formed(), "{:?}", r2.violations);
    assert_eq!(r1.records, r2.records);
}

#[test]
fn checkpoint_shortens_recovery() {
    let cfg = PiTreeConfig::small_nodes(6, 6);
    let (cs, tree) = setup(cfg);
    for i in 0..50 {
        commit_insert(&tree, i);
    }
    cs.store.pool.flush_all().unwrap();
    cs.store.txns.checkpoint().unwrap();
    for i in 50..60 {
        commit_insert(&tree, i);
    }
    drop(tree);
    let cs2 = cs.crash().unwrap();
    let (tree2, stats) = PiTree::recover(Arc::clone(&cs2.store), 1, cfg).unwrap();
    assert!(
        stats.analysis_start.0 > 1,
        "analysis must start at the checkpoint"
    );
    assert!(
        stats.scanned < 200,
        "checkpoint must bound the analysis scan, scanned {}",
        stats.scanned
    );
    assert_eq!(tree2.validate().unwrap().records, 60);
}

#[test]
fn crash_with_nothing_forced_loses_everything_cleanly() {
    let cfg = PiTreeConfig::small_nodes(6, 6);
    let (cs, tree) = setup(cfg);
    // Unforced system-level activity only (no user commits → no forces).
    let mut t = tree.begin();
    for i in 0..10 {
        tree.insert(&mut t, &key(i), &val(i)).unwrap();
    }
    std::mem::forget(t); // never commits
    drop(tree);
    let (_cs2, tree2) = crash_recover(&cs, cfg);
    let report = tree2.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 0);
}

#[test]
fn page_oriented_log_prefix_sweep() {
    // The same storm under page-oriented UNDO with in-transaction splits:
    // multi-insert transactions, some committed, the last one not.
    let cfg = PiTreeConfig::small_nodes(4, 4).page_oriented();
    let (cs, tree) = setup(cfg);
    for batch in 0..6 {
        let mut t = tree.begin();
        for j in 0..8 {
            let i = batch * 8 + j;
            tree.insert(&mut t, &key(i), &val(i)).unwrap();
        }
        t.commit().unwrap();
    }
    drop(tree);
    cs.store.log.force_all().unwrap();
    let records: Vec<_> = cs
        .store
        .log
        .scan(None)
        .collect::<Result<_, _>>()
        .expect("scan");
    for (idx, rec) in records.iter().enumerate() {
        if idx % 3 != 0 {
            continue;
        }
        let cut = rec.lsn.0 - 1;
        let cs2 = cs.crash_with_log_prefix(cut).unwrap();
        let Ok((tree2, _stats)) = PiTree::recover(Arc::clone(&cs2.store), 1, cfg) else {
            continue;
        };
        let report = tree2.validate().unwrap();
        assert!(
            report.is_well_formed(),
            "cut={cut}: {:?}",
            report.violations
        );
        // Transactions are atomic: records present in multiples of 8.
        assert_eq!(
            report.records % 8,
            0,
            "cut={cut}: partial transaction visible"
        );
    }
}

#[test]
fn log_prefix_sweep_with_page_flushes_and_checkpoint() {
    // The harder variant: dirty pages reach disk mid-workload and a fuzzy
    // checkpoint is taken. Legal crash points are then bounded below by the
    // flush (WAL protocol: the log covering flushed pages survived), and
    // recovery must use the checkpoint.
    let cfg = PiTreeConfig::small_nodes(4, 4);
    let (cs, tree) = setup(cfg);
    for i in 0..24 {
        commit_insert(&tree, i);
    }
    cs.store.pool.flush_all().unwrap();
    cs.store.txns.checkpoint().unwrap();
    let min_cut = cs.durable_log_len();
    for i in 24..48 {
        commit_insert(&tree, i);
    }
    drop(tree);
    cs.store.log.force_all().unwrap();

    let records: Vec<_> = cs
        .store
        .log
        .scan(None)
        .collect::<Result<_, _>>()
        .expect("scan");
    let cuts: Vec<u64> = records
        .iter()
        .map(|r| r.lsn.0 - 1)
        .filter(|&c| c >= min_cut)
        .collect();
    assert!(cuts.len() > 20, "enough post-flush crash points");
    for &cut in &cuts {
        let cs2 = cs.crash_with_log_prefix(cut).unwrap();
        let (tree2, stats) = PiTree::recover(Arc::clone(&cs2.store), 1, cfg).unwrap();
        assert!(
            stats.analysis_start.0 > 1,
            "cut={cut}: analysis must start at the checkpoint"
        );
        let report = tree2.validate().unwrap();
        assert!(
            report.is_well_formed(),
            "cut={cut}: {:?}",
            report.violations
        );
        // Prefix property still holds.
        let present: Vec<bool> = (0..48)
            .map(|i| tree2.get_unlocked(&key(i)).unwrap().is_some())
            .collect();
        let k = present.iter().take_while(|&&p| p).count();
        assert!(present[k..].iter().all(|&p| !p), "cut={cut}");
        assert!(k >= 24, "cut={cut}: flushed data cannot be lost");
    }
}
