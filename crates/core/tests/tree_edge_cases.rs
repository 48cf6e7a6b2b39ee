//! Edge-case tests: variable-length string keys, byte-limited (full-page)
//! nodes, space exhaustion, buffer-pressure operation, codec fuzzing at
//! the tree level, and a well-formedness walker that rejects damage.

use pitree::{CrashableStore, IndexTerm, KeyBound, NodeHeader, PiTree, PiTreeConfig};
use pitree_pagestore::{PageId, PageOp};
use pitree_wal::ActionIdentity;
use std::sync::Arc;

#[test]
fn variable_length_string_keys_sort_correctly() {
    let (_cs, tree) = {
        let cs = CrashableStore::create(512, 100_000).unwrap();
        let tree =
            PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::small_nodes(6, 6)).unwrap();
        (cs, tree)
    };
    // Keys with prefix relationships and mixed lengths.
    let words = [
        "a",
        "aa",
        "aaa",
        "ab",
        "abc",
        "b",
        "ba",
        "banana",
        "band",
        "bandit",
        "z",
        "zz",
        "apple",
        "applesauce",
        "app",
        "ap",
        "zebra",
        "zeb",
        "",
    ];
    let mut txn = tree.begin();
    for (i, w) in words.iter().enumerate() {
        // Skip the empty key: it is reserved as the -inf index-term key.
        if w.is_empty() {
            continue;
        }
        tree.insert(&mut txn, w.as_bytes(), format!("{i}").as_bytes())
            .unwrap();
    }
    txn.commit().unwrap();
    for (i, w) in words.iter().enumerate() {
        if w.is_empty() {
            continue;
        }
        assert_eq!(
            tree.get_unlocked(w.as_bytes()).unwrap(),
            Some(format!("{i}").into_bytes()),
            "word {w:?}"
        );
    }
    // Scans respect byte order (prefixes first).
    let out = tree.scan(b"a", b"b").unwrap();
    let keys: Vec<String> = out
        .iter()
        .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
        .collect();
    let mut expected: Vec<String> = words
        .iter()
        .filter(|w| !w.is_empty() && w.starts_with('a'))
        .map(|w| w.to_string())
        .collect();
    expected.sort();
    assert_eq!(keys, expected);
    assert!(tree.validate().unwrap().is_well_formed());
}

#[test]
fn byte_limited_nodes_split_on_page_space() {
    // No artificial entry cap: splits trigger on actual 4 KiB page space.
    let cs = CrashableStore::create(2048, 200_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::default()).unwrap();
    let value = vec![0xabu8; 512]; // ~7 records per 4 KiB leaf
    let mut txn = tree.begin();
    for i in 0..200u64 {
        tree.insert(&mut txn, &i.to_be_bytes(), &value).unwrap();
    }
    txn.commit().unwrap();
    tree.run_completions().unwrap();
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 200);
    assert!(
        tree.height().unwrap() >= 2,
        "512-byte values must split 4 KiB leaves"
    );
    for i in 0..200u64 {
        assert_eq!(
            tree.get_unlocked(&i.to_be_bytes()).unwrap().unwrap().len(),
            512
        );
    }
}

#[test]
fn tiny_buffer_pool_still_works() {
    // A pool of 24 frames over a tree of hundreds of pages: constant
    // eviction with WAL-protocol write-backs.
    let cs = CrashableStore::create(24, 200_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::small_nodes(8, 8)).unwrap();
    for i in 0..600u64 {
        let mut txn = tree.begin();
        tree.insert(&mut txn, &i.to_be_bytes(), b"evict-me")
            .unwrap();
        txn.commit().unwrap();
    }
    tree.run_completions().unwrap();
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 600);
    assert!(
        cs.store.pool.stats().dirty_evictions.get() > 50,
        "the workload must actually evict dirty pages"
    );
    // And it all survives a crash (pages partially on disk from evictions).
    drop(tree);
    let cs2 = cs.crash().unwrap();
    let (tree2, _) =
        PiTree::recover(Arc::clone(&cs2.store), 1, PiTreeConfig::small_nodes(8, 8)).unwrap();
    assert_eq!(tree2.validate().unwrap().records, 600);
}

#[test]
fn space_exhaustion_is_a_clean_error() {
    // A store with room for very few pages: growth must fail with
    // OutOfSpace, not corrupt anything.
    let cs = CrashableStore::create(64, 16).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::small_nodes(4, 4)).unwrap();
    let mut txn = tree.begin();
    let mut hit_oos = false;
    for i in 0..10_000u64 {
        match tree.insert(&mut txn, &i.to_be_bytes(), &[0u8; 64]) {
            Ok(_) => {}
            Err(pitree_pagestore::StoreError::OutOfSpace) => {
                hit_oos = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(hit_oos, "a 16-page store must run out of space");
}

#[test]
fn oversized_records_split_until_they_fit() {
    let cs = CrashableStore::create(1024, 200_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::default()).unwrap();
    // ~1.3 KiB values: 2-3 per page.
    let value = vec![7u8; 1300];
    let mut txn = tree.begin();
    for i in 0..30u64 {
        tree.insert(&mut txn, &i.to_be_bytes(), &value).unwrap();
    }
    txn.commit().unwrap();
    tree.run_completions().unwrap();
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 30);
}

#[test]
fn empty_tree_scan_and_delete() {
    let cs = CrashableStore::create(64, 10_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::small_nodes(4, 4)).unwrap();
    assert!(tree.scan(b"", b"\xff").unwrap().is_empty());
    let mut txn = tree.begin();
    assert!(!tree.delete(&mut txn, b"nothing").unwrap());
    txn.commit().unwrap();
    assert!(tree.validate().unwrap().is_well_formed());
}

// ---- the walker has teeth ----------------------------------------------------

/// Apply `op` to node `pid` through the log, as a faulty structure change
/// would.
fn damage(tree: &PiTree, pid: PageId, op: PageOp) {
    let store = tree.store();
    let pin = store.pool.fetch(pid).unwrap();
    let mut g = pin.x();
    let mut act = store.txns.begin(ActionIdentity::SystemTransaction);
    act.apply(&pin, &mut g, op).unwrap();
    drop(g);
    act.commit().unwrap();
}

/// Overwrite node `pid`'s slot-0 header.
fn header(bytes: Vec<u8>) -> PageOp {
    PageOp::UpdateSlot { slot: 0, bytes }
}

/// The raw slot write that stores node `pid`'s last keyed entry over its
/// first: the first and last keys then share more than the stored prefix.
fn copy_last_entry_over_first(tree: &PiTree, pid: PageId) -> PageOp {
    let pin = tree.store().pool.fetch(pid).unwrap();
    let g = pin.s();
    assert!(g.entry_count() >= 2, "node {pid} needs two entries");
    PageOp::UpdateSlot {
        slot: 1,
        bytes: g.get(g.slot_count() - 1).unwrap().to_vec(),
    }
}

/// The first node of `level`, reached by leftmost index terms, with its
/// header.
fn leftmost(tree: &PiTree, level: u8) -> (PageId, NodeHeader) {
    let mut pid = tree.root_pid();
    loop {
        let pin = tree.store().pool.fetch(pid).unwrap();
        let g = pin.s();
        let hdr = NodeHeader::read(&g).unwrap();
        if hdr.level == level {
            return (pid, hdr);
        }
        pid = IndexTerm::read(&g, 1).unwrap().child;
    }
}

/// A posted four-level tree of 60 ascending keys.
fn small_tree() -> (CrashableStore, PiTree) {
    let cs = CrashableStore::create(256, 10_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::small_nodes(4, 4)).unwrap();
    for i in 0..60u64 {
        let mut txn = tree.begin();
        tree.insert(&mut txn, &i.to_be_bytes(), b"v").unwrap();
        txn.commit().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert!(tree.height().unwrap() >= 3);
    (cs, tree)
}

fn violations(tree: &PiTree) -> Vec<String> {
    let report = tree.validate().unwrap();
    assert!(!report.is_well_formed(), "the damage went unnoticed");
    report.violations
}

#[test]
fn walker_rejects_a_gap_between_sibling_bounds() {
    let (_cs, tree) = small_tree();
    // Pull the first leaf's high bound down to just past its last entry:
    // the space up to its sibling's low bound is now nobody's.
    let (leaf, hdr) = leftmost(&tree, 0);
    let mut high = {
        let pin = tree.store().pool.fetch(leaf).unwrap();
        let g = pin.s();
        g.entry_key_at(g.entry_count()).to_vec()
    };
    high.push(0);
    let gap = NodeHeader {
        high: KeyBound::Key(high),
        ..hdr
    };
    damage(&tree, leaf, header(gap.encode()));
    let v = violations(&tree);
    assert!(
        v.iter().any(|v| v.contains("!= previous node's high")),
        "{v:?}"
    );
    let named = format!("node {leaf}: sibling");
    assert!(v.iter().any(|v| v.starts_with(&named)), "{v:?}");
}

#[test]
fn walker_rejects_a_sibling_term_back_to_its_own_node() {
    let (_cs, tree) = small_tree();
    let (leaf, hdr) = leftmost(&tree, 0);
    assert!(hdr.side.is_valid(), "the first leaf has a sibling");
    let cycle = NodeHeader { side: leaf, ..hdr };
    damage(&tree, leaf, header(cycle.encode()));
    let v = violations(&tree);
    assert!(
        v.contains(&format!("node {leaf}: its sibling terms lead back to it")),
        "{v:?}"
    );
}

#[test]
fn walker_rejects_a_reachable_node_the_space_map_does_not_allocate() {
    let (_cs, tree) = small_tree();
    let (leaf, _) = leftmost(&tree, 0);
    let (bitmap, bit) = tree.store().space.locate(leaf);
    damage(&tree, bitmap, PageOp::ClearBit { bit });
    let v = violations(&tree);
    assert!(
        v.contains(&format!("node {leaf} is not allocated in the space map")),
        "{v:?}"
    );
}

#[test]
fn walker_rejects_an_index_term_whose_child_is_at_the_wrong_level() {
    let (_cs, tree) = small_tree();
    // Re-aim the root's second term at the first leaf, levels below where
    // its child belongs.
    let root = tree.root_pid();
    let (leaf, _) = leftmost(&tree, 0);
    let term = {
        let pin = tree.store().pool.fetch(root).unwrap();
        let g = pin.s();
        IndexTerm::read(&g, 2).unwrap()
    };
    let bytes = IndexTerm::entry_for(&term.key, leaf);
    damage(&tree, root, PageOp::KeyedUpdate { bytes });
    let parent_level = tree.height().unwrap() - 1;
    let want = format!("node {root} at level {parent_level}: child {leaf} at 0");
    let v = violations(&tree);
    assert!(v.iter().any(|v| v.contains(&want)), "{v:?}");
}

#[test]
fn walker_rejects_a_key_prefix_the_keys_do_not_share() {
    let (_cs, tree) = small_tree();
    let (leaf, _) = leftmost(&tree, 0);
    damage(&tree, leaf, copy_last_entry_over_first(&tree, leaf));
    let v = violations(&tree);
    let want =
        format!("node {leaf}: stored key prefix of 7 bytes, but its first and last keys share 8");
    assert!(v.iter().any(|v| v == &want), "{v:?}");
}

/// Fails every page write while armed.
struct PageWriteFault(std::sync::atomic::AtomicBool);

impl pitree_pagestore::fault::FaultInjector for PageWriteFault {
    fn check(&self, site: pitree_pagestore::fault::FaultSite) -> pitree_pagestore::StoreResult<()> {
        let armed = self.0.load(std::sync::atomic::Ordering::SeqCst);
        match site {
            pitree_pagestore::fault::FaultSite::PageWrite(_) if armed => {
                Err(pitree_pagestore::fault::injected_crash(site))
            }
            _ => Ok(()),
        }
    }
}

/// Regression: a consolidation whose merge fails — here a page write
/// under a pool of a few frames — aborts the action it began. Its Begin
/// record, the updates it applied and its move locks do not outlive the
/// error: the registry is empty, the tree is well-formed, and the next
/// insert goes through.
#[test]
fn a_failed_consolidation_aborts_its_action() {
    let key = |i: u64| i.to_be_bytes().to_vec();
    let mut failures = 0;
    for frames in 5..=7 {
        let fault = Arc::new(PageWriteFault(std::sync::atomic::AtomicBool::new(false)));
        let cs =
            CrashableStore::create_with_injector(frames, 100_000, Arc::clone(&fault) as _).unwrap();
        let mut cfg = PiTreeConfig::small_nodes(4, 4);
        cfg.auto_complete = false;
        let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
        for i in 0..64 {
            let mut t = tree.begin();
            tree.insert(&mut t, &key(i), b"v").unwrap();
            t.commit().unwrap();
        }
        while tree.run_completions().unwrap() > 0 {}
        for i in (58..64).rev() {
            let mut t = tree.begin();
            assert!(tree.delete(&mut t, &key(i)).unwrap());
            t.commit().unwrap();
        }
        // Rewrite a key in each of the leftmost leaves: the pool fills
        // with dirty frames the merge must evict to reach the right edge.
        for i in (0..20).step_by(4) {
            let mut t = tree.begin();
            assert!(tree.delete(&mut t, &key(i)).unwrap());
            tree.insert(&mut t, &key(i), b"w").unwrap();
            t.commit().unwrap();
        }
        let mut sparse = Vec::new();
        while let Some(c) = tree.completions().pop() {
            if let pitree::Completion::Consolidate { level: 0, key } = c {
                sparse.push(key);
            }
        }
        let Some(low) = sparse.last() else {
            panic!("{frames} frames: the deletes left no sparse leaf");
        };
        fault.0.store(true, std::sync::atomic::Ordering::SeqCst);
        let res = pitree::consolidate(&tree, 0, low);
        fault.0.store(false, std::sync::atomic::Ordering::SeqCst);
        let Err(e) = res else { continue };
        failures += 1;
        assert!(
            pitree_pagestore::fault::is_injected(&e),
            "{frames} frames: {e:?}"
        );
        assert!(
            cs.store.txns.registry().is_empty(),
            "{frames} frames: the failed consolidation left {:?} live",
            cs.store.txns.registry().snapshot()
        );
        let report = tree.validate().unwrap();
        assert!(report.is_well_formed(), "{:?}", report.violations);
        let mut t = tree.begin();
        tree.insert(&mut t, &key(100), b"after").unwrap();
        t.commit().unwrap();
        assert_eq!(
            tree.get_unlocked(&key(100)).unwrap(),
            Some(b"after".to_vec())
        );
    }
    assert!(failures > 0, "no pool size made the merge fail");
}
