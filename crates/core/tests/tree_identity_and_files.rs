//! Tests of the remaining §4.3.2 recovery identities and the file-backed
//! store path.

use pitree::{CrashableStore, PiTree, PiTreeConfig, Store};
use pitree_pagestore::{PageId, StoreError};
use pitree_wal::{ActionIdentity, RecordKind};
use std::sync::Arc;

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

#[test]
fn smo_identity_variants_all_work() {
    // §4.3.2: an atomic action can be identified as a separate transaction,
    // a system transaction, or a nested top action — "our approach works
    // with any of these techniques".
    for identity in [
        ActionIdentity::SeparateTransaction,
        ActionIdentity::SystemTransaction,
        ActionIdentity::NestedTopAction {
            parent: pitree_wal::ActionId(0),
        },
    ] {
        let mut cfg = PiTreeConfig::small_nodes(6, 6);
        cfg.smo_identity = identity;
        let cs = CrashableStore::create(512, 100_000).unwrap();
        let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
        for i in 0..60u64 {
            let mut t = tree.begin();
            tree.insert(&mut t, &key(i), b"v").unwrap();
            t.commit().unwrap();
        }
        tree.run_completions().unwrap();
        let report = tree.validate().unwrap();
        assert!(
            report.is_well_formed(),
            "{identity:?}: {:?}",
            report.violations
        );
        assert_eq!(report.records, 60);
        // The Begin records carry the configured identity.
        let smo_begins = cs
            .store
            .log
            .scan(None)
            .map(|r| r.expect("scan"))
            .filter(|r| matches!(r.kind, RecordKind::Begin { identity: id } if id == identity))
            .count();
        assert!(
            smo_begins > 5,
            "{identity:?}: SMO actions must carry the identity"
        );
        // And crash recovery treats them all the same.
        drop(tree);
        let cs2 = cs.crash().unwrap();
        let (tree2, _) = PiTree::recover(Arc::clone(&cs2.store), 1, cfg).unwrap();
        assert_eq!(tree2.validate().unwrap().records, 60, "{identity:?}");
    }
}

#[test]
fn file_backed_store_persists_across_reopen() {
    let dir = std::env::temp_dir().join(format!("pitree-filestore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PiTreeConfig::small_nodes(8, 8);
    {
        let store = Store::open_file(&dir, 512, 100_000).unwrap();
        let tree = PiTree::create(Arc::clone(&store), 1, cfg).unwrap();
        for i in 0..100u64 {
            let mut t = tree.begin();
            tree.insert(&mut t, &key(i), &key(i * 2)).unwrap();
            t.commit().unwrap();
        }
        tree.run_completions().unwrap();
        assert!(tree.validate().unwrap().is_well_formed());
        store.pool.flush_all().unwrap();
    }
    // Reopen from the files (clean shutdown path).
    {
        let store = Store::open_file(&dir, 512, 100_000).unwrap();
        let (tree, _stats) = PiTree::recover(Arc::clone(&store), 1, cfg).unwrap();
        let report = tree.validate().unwrap();
        assert!(report.is_well_formed(), "{:?}", report.violations);
        assert_eq!(report.records, 100);
        for i in 0..100u64 {
            assert_eq!(tree.get_unlocked(&key(i)).unwrap(), Some(key(i * 2)));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backed_store_recovers_without_page_flush() {
    // Dirty pages never flushed: everything must come back from the file log
    // alone (redo from scratch).
    let dir = std::env::temp_dir().join(format!("pitree-filestore-dirty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PiTreeConfig::small_nodes(8, 8);
    {
        let store = Store::open_file(&dir, 512, 100_000).unwrap();
        let tree = PiTree::create(Arc::clone(&store), 1, cfg).unwrap();
        for i in 0..40u64 {
            let mut t = tree.begin();
            tree.insert(&mut t, &key(i), b"dirty").unwrap();
            t.commit().unwrap();
        }
        // No flush_all: simulate a hard kill with only the log on disk.
    }
    {
        let store = Store::open_file(&dir, 512, 100_000).unwrap();
        let (tree, stats) = PiTree::recover(Arc::clone(&store), 1, cfg).unwrap();
        assert!(stats.redone > 40, "recovery must replay the workload");
        let report = tree.validate().unwrap();
        assert!(report.is_well_formed(), "{:?}", report.violations);
        assert_eq!(report.records, 40);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_backed_store_recovers_across_a_write_back_hole() {
    // Out-of-order write-back before a crash: pages k+1 and k+2 reach the
    // file, page k does not, so the file has a hole at k that reads back as
    // zeros. That is a page that was never written — the `Format` redo of k
    // must land on a fresh page, exactly as it does past the end of file.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("filestore-hole");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PiTreeConfig::small_nodes(8, 8);
    let k = {
        let store = Store::open_file(&dir, 512, 100_000).unwrap();
        let tree = PiTree::create(Arc::clone(&store), 1, cfg).unwrap();
        for i in 0..100u64 {
            let mut t = tree.begin();
            tree.insert(&mut t, &key(i), &key(i * 3)).unwrap();
            t.commit().unwrap();
        }
        tree.run_completions().unwrap();
        // Every commit above was forced, so the log covers every dirty page
        // and the WAL protocol allows writing any of them.
        let disk = store.pool.disk();
        let mut dirty: Vec<u64> = store.pool.dirty_pages().iter().map(|d| d.0 .0).collect();
        dirty.sort_unstable();
        let k = dirty
            .windows(3)
            .find(|w| w[0] >= disk.num_pages() && w[1] == w[0] + 1 && w[2] == w[0] + 2)
            .expect("three consecutive never-written dirty pages")[0];
        for pid in [k + 1, k + 2] {
            let pinned = store.pool.fetch(PageId(pid)).unwrap();
            let page = pinned.s();
            disk.write_page(pinned.id(), &page).unwrap();
        }
        disk.sync().unwrap();
        k
        // No flush_all: a hard kill.
    };
    {
        let store = Store::open_file(&dir, 512, 100_000).unwrap();
        let disk = store.pool.disk();
        assert!(disk.num_pages() > k + 2, "k sits inside the file");
        assert!(
            matches!(disk.read_page(PageId(k)), Err(StoreError::PageNotFound(_))),
            "a hole is a page that was never written"
        );
        assert!(disk.read_page(PageId(k + 1)).is_ok());
        let (tree, stats) = PiTree::recover(Arc::clone(&store), 1, cfg).unwrap();
        assert!(stats.redone > 0, "page {k} comes back from the log");
        let report = tree.validate().unwrap();
        assert!(report.is_well_formed(), "{:?}", report.violations);
        assert_eq!(report.records, 100);
        for i in 0..100u64 {
            assert_eq!(tree.get_unlocked(&key(i)).unwrap(), Some(key(i * 3)));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
