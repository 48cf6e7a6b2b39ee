//! TSB-tree functional, structural (Figure 1), and recovery tests.

use pitree::node::IndexTerm;
use pitree::store::CrashableStore;
use pitree::wellformed::{fill_line, LevelFill};
use pitree::{Completion, Structure};
use pitree_pagestore::{PageId, PageOp};
use pitree_sim::crash;
use pitree_tsb::{Tsb, TsbConfig, TsbHeader, TsbKind, TsbTree};
use pitree_wal::ActionIdentity;
use std::sync::Arc;

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

fn setup(cfg: TsbConfig) -> (CrashableStore, TsbTree) {
    let cs = CrashableStore::create(512, 100_000).unwrap();
    let tree = TsbTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    (cs, tree)
}

fn put(tree: &TsbTree, k: &[u8], v: &[u8]) -> u64 {
    let mut t = tree.begin();
    let ts = tree.put(&mut t, k, v).unwrap();
    t.commit().unwrap();
    ts
}

fn del(tree: &TsbTree, k: &[u8]) -> u64 {
    let mut t = tree.begin();
    let ts = tree.delete(&mut t, k).unwrap();
    t.commit().unwrap();
    ts
}

#[test]
fn current_reads_see_latest_version() {
    let (_cs, tree) = setup(TsbConfig::default());
    put(&tree, b"k", b"v1");
    put(&tree, b"k", b"v2");
    put(&tree, b"k", b"v3");
    assert_eq!(tree.get_current(b"k").unwrap(), Some(b"v3".to_vec()));
    assert_eq!(tree.get_current(b"absent").unwrap(), None);
}

#[test]
fn as_of_reads_travel_back_in_time() {
    let (_cs, tree) = setup(TsbConfig::default());
    let t1 = put(&tree, b"k", b"v1");
    let t2 = put(&tree, b"k", b"v2");
    let t3 = del(&tree, b"k");
    let t4 = put(&tree, b"k", b"v4");
    assert_eq!(tree.get_as_of(b"k", t1).unwrap(), Some(b"v1".to_vec()));
    assert_eq!(tree.get_as_of(b"k", t2).unwrap(), Some(b"v2".to_vec()));
    assert_eq!(tree.get_as_of(b"k", t2).unwrap(), Some(b"v2".to_vec()));
    assert_eq!(
        tree.get_as_of(b"k", t3).unwrap(),
        None,
        "tombstone visible at t3"
    );
    assert_eq!(tree.get_as_of(b"k", t4).unwrap(), Some(b"v4".to_vec()));
    assert_eq!(
        tree.get_as_of(b"k", t1 - 1).unwrap(),
        None,
        "before first version"
    );
    assert_eq!(tree.get_current(b"k").unwrap(), Some(b"v4".to_vec()));
}

#[test]
fn history_lists_all_versions() {
    let (_cs, tree) = setup(TsbConfig::default());
    let t1 = put(&tree, b"k", b"a");
    let t2 = put(&tree, b"k", b"b");
    let t3 = del(&tree, b"k");
    let h = tree.history(b"k").unwrap();
    assert_eq!(
        h,
        vec![
            (t1, Some(b"a".to_vec())),
            (t2, Some(b"b".to_vec())),
            (t3, None),
        ]
    );
}

#[test]
fn time_splits_preserve_full_history() {
    // Small nodes + many versions of few keys force TIME splits.
    let (_cs, tree) = setup(TsbConfig::small_nodes(8, 8));
    let mut stamps = Vec::new();
    for round in 0..40u64 {
        for k in 0..3u64 {
            let ts = put(&tree, &key(k), format!("r{round}-k{k}").as_bytes());
            stamps.push((k, round, ts));
        }
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert!(
        report.history_nodes > 0,
        "version churn must have time-split"
    );
    // Every historical version is still reachable as-of its write time.
    for &(k, round, ts) in &stamps {
        assert_eq!(
            tree.get_as_of(&key(k), ts).unwrap(),
            Some(format!("r{round}-k{k}").into_bytes()),
            "key {k} round {round} at t{ts}"
        );
    }
    // Current reads see the last round.
    for k in 0..3u64 {
        assert_eq!(
            tree.get_current(&key(k)).unwrap(),
            Some(format!("r39-k{k}").into_bytes())
        );
    }
}

#[test]
fn key_splits_preserve_history_access() {
    // Figure 1's key-split rule: the new current node copies the history
    // pointer, staying responsible for the entire history of its key space.
    let (_cs, tree) = setup(TsbConfig::small_nodes(8, 8));
    // Interleave: version churn (causing time splits) then key spread
    // (causing key splits).
    let mut stamps = Vec::new();
    for round in 0..6u64 {
        for k in 0..20u64 {
            let ts = put(&tree, &key(k), format!("r{round}-k{k}").as_bytes());
            stamps.push((k, round, ts));
        }
    }
    tree.run_completions().unwrap();
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert!(
        report.levels.last().unwrap().nodes > 1,
        "key spread must have key-split"
    );
    assert!(report.history_nodes > 0, "churn must have time-split");
    for &(k, round, ts) in &stamps {
        assert_eq!(
            tree.get_as_of(&key(k), ts).unwrap(),
            Some(format!("r{round}-k{k}").into_bytes()),
            "key {k} round {round}"
        );
    }
}

#[test]
fn figure_1_topology() {
    // Reproduce the Figure 1 sequence on a single node: a time split, then a
    // key split, then another time split — and verify the pointer copies the
    // figure shows.
    let (cs, tree) = setup(TsbConfig::small_nodes(6, 8));
    let churn = |rounds: std::ops::Range<u64>| {
        for round in rounds {
            for k in [1u64, 2] {
                put(&tree, &key(k), format!("r{round}").as_bytes());
            }
        }
    };
    // Fill with versions of two keys → time split (history node H1).
    churn(0..3);
    // Spread keys → key split (new current node).
    for k in 3..12u64 {
        put(&tree, &key(k), b"spread");
    }
    // More versions → a time split of the key-split current node, whose new
    // history node copies the history pointer to H1.
    churn(3..6);
    tree.run_completions().unwrap();
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert!(report.levels.last().unwrap().nodes >= 2 && report.history_nodes >= 2);

    // Structural assertions: walk the current chain; every current node
    // whose key space intersects the original (time-split) range must reach
    // H-nodes through its history pointer — i.e. key splits copied it.
    let pool = &cs.store.pool;
    let header = |pid: PageId| {
        let pin = pool.fetch(pid).unwrap();
        let g = pin.s();
        TsbHeader::read(&g).unwrap()
    };
    let mut cur = {
        // The leftmost data node, by descent through each first index term.
        let mut pid = tree.root_pid();
        loop {
            let pin = pool.fetch(pid).unwrap();
            let g = pin.s();
            let hdr = TsbHeader::read(&g).unwrap();
            if hdr.level == 0 {
                break pid;
            }
            pid = pitree::node::IndexTerm::read(&g, 1).unwrap().child;
        }
    };
    let (mut currents, mut with_history, mut chains_back) = (0, 0, false);
    loop {
        let hdr = header(cur);
        assert_eq!(hdr.kind, TsbKind::Current);
        currents += 1;
        if hdr.hist_side.is_valid() {
            with_history += 1;
            let hh = header(hdr.hist_side);
            assert_eq!(hh.t_hi, hdr.t_lo, "history node ends where current begins");
            // New historic nodes contain copies of old history pointers.
            let mut older = hh;
            while older.hist_side.is_valid() {
                chains_back = true;
                assert_eq!(older.kind, TsbKind::History);
                older = header(older.hist_side);
            }
            assert_eq!(older.kind, TsbKind::History);
        }
        if !hdr.key_side.is_valid() {
            break;
        }
        cur = hdr.key_side;
    }
    assert!(
        currents >= 2 && with_history == currents,
        "after a key split of a time-split node, EVERY current node must hold \
         a history pointer (Figure 1): {with_history} of {currents}"
    );
    assert!(chains_back, "no history node chains further back");
    // Current nodes are responsible for all previous time: every version of
    // the churned key is reachable through them.
    let versions: Vec<_> = tree
        .history(&key(1))
        .unwrap()
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    let want: Vec<_> = (0..6).map(|r| Some(format!("r{r}").into_bytes())).collect();
    assert_eq!(versions, want);
    assert_eq!(tree.get_as_of(&key(1), 1).unwrap(), Some(b"r0".to_vec()));
}

#[test]
fn aborted_transaction_leaves_no_versions() {
    let (_cs, tree) = setup(TsbConfig::small_nodes(8, 8));
    put(&tree, b"k", b"committed");
    let mut t = tree.begin();
    tree.put(&mut t, b"k", b"doomed").unwrap();
    tree.put(&mut t, b"other", b"doomed").unwrap();
    t.abort(Some(&tree.undo_handler())).unwrap();
    assert_eq!(tree.get_current(b"k").unwrap(), Some(b"committed".to_vec()));
    assert_eq!(tree.get_current(b"other").unwrap(), None);
    let h = tree.history(b"k").unwrap();
    assert_eq!(h.len(), 1);
    assert!(tree.validate().unwrap().is_well_formed());
}

#[test]
fn abort_after_time_split_removes_all_copies() {
    // An uncommitted version that a time split duplicated into a history
    // node must vanish from BOTH copies on abort.
    let (_cs, tree) = setup(TsbConfig::small_nodes(6, 8));
    for round in 0..2u64 {
        put(&tree, b"k", format!("c{round}").as_bytes());
    }
    let mut t = tree.begin();
    tree.put(&mut t, b"k", b"doomed").unwrap();
    // Force time splits while the version is uncommitted.
    for round in 0..4u64 {
        put(&tree, b"j", format!("x{round}").as_bytes());
        put(&tree, b"l", format!("y{round}").as_bytes());
    }
    t.abort(Some(&tree.undo_handler())).unwrap();
    assert_eq!(tree.get_current(b"k").unwrap(), Some(b"c1".to_vec()));
    let h = tree.history(b"k").unwrap();
    assert_eq!(h.len(), 2, "only the two committed versions remain: {h:?}");
    assert!(tree.validate().unwrap().is_well_formed());
}

#[test]
fn crash_recovery_preserves_committed_versions() {
    let cfg = TsbConfig::small_nodes(8, 8);
    let (cs, tree) = setup(cfg);
    let mut stamps = Vec::new();
    for round in 0..10u64 {
        for k in 0..6u64 {
            let ts = put(&tree, &key(k), format!("r{round}").as_bytes());
            stamps.push((k, round, ts));
        }
    }
    drop(tree);
    let cs2 = cs.crash().unwrap();
    let (tree2, _stats) = TsbTree::recover(Arc::clone(&cs2.store), 1, cfg).unwrap();
    let report = tree2.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    for &(k, round, ts) in &stamps {
        assert_eq!(
            tree2.get_as_of(&key(k), ts).unwrap(),
            Some(format!("r{round}").into_bytes())
        );
    }
    // The clock resumes above every recovered timestamp.
    let t_new = put(&tree2, b"post-crash", b"v");
    assert!(t_new > stamps.last().unwrap().2);
}

#[test]
fn crash_log_prefix_sweep() {
    // Crash with the durable log cut at every record boundary of a workload
    // that time-splits, key-splits and grows the root, and inside every
    // range record. Every cut past the tree's creation must recover a
    // well-formed tree that serves, as of its own time, exactly the
    // versions whose commits the cut kept; a drain must then finish every
    // split the cut left unposted. Pinned: the cuts that recover a tree and
    // those that recover an unposted split.
    let cfg = TsbConfig::small_nodes(6, 6);
    let (cs, tree) = setup(cfg);
    let created = cs.durable_log_len();
    // (key, value, time, durable log end once its commit was forced)
    let mut puts = Vec::new();
    for round in 0..4u64 {
        for k in 0..8u64 {
            let v = format!("r{round}").into_bytes();
            let t = put(&tree, &key(k), &v);
            puts.push((k, v, t, cs.durable_log_len()));
        }
    }
    drop(tree);
    cs.store.log.force_all().unwrap();
    let records: Vec<_> = cs
        .store
        .log
        .scan(None)
        .collect::<Result<_, _>>()
        .expect("scan");
    let cuts = crash::log_cuts(&records, cs.durable_log_len());
    // A time split copies every version into the history node, then removes
    // the dead ones from the current node: fewer keys than entries. The
    // sweep cuts between the two records.
    let time_splits: Vec<u64> = crash::range_moves(&records)
        .into_iter()
        .filter(|(copied, removed, _)| removed < copied)
        .map(|(.., between)| between)
        .collect();
    assert!(
        time_splits.iter().any(|c| cuts.contains(c)),
        "no cut between a time split's copy and its removal of dead versions"
    );

    let (mut recovered, mut interrupted) = (0, 0);
    for &cut in &cuts {
        let cs2 = cs.crash_with_log_prefix(cut).unwrap();
        let (tree2, _) = match TsbTree::recover(Arc::clone(&cs2.store), 1, cfg) {
            Ok(r) => r,
            // Only a cut before the creation commit leaves no tree.
            Err(e) => {
                assert!(cut < created, "cut={cut}: recovery failed: {e}");
                continue;
            }
        };
        let report = tree2.validate().unwrap();
        assert!(
            report.is_well_formed(),
            "cut={cut}: {:?}",
            report.violations
        );
        recovered += 1;
        if report.unposted_nodes > 0 {
            interrupted += 1;
        }
        // As of each put's time, its key reads the newest version the cut
        // kept at or before that put: the put itself when its commit is in.
        for (i, (k, _, t, _)) in puts.iter().enumerate() {
            let kept = puts[..=i]
                .iter()
                .rev()
                .find(|(k2, .., end)| k2 == k && *end <= cut)
                .map(|(_, v, ..)| v.clone());
            assert_eq!(
                tree2.get_as_of(&key(*k), *t).unwrap(),
                kept,
                "cut={cut}: key {k} as of {t}"
            );
        }
        for _ in 0..4 {
            tree2.run_completions().unwrap();
        }
        let after = tree2.validate().unwrap();
        assert!(after.is_well_formed(), "cut={cut}: {:?}", after.violations);
        assert_eq!(after.unposted_nodes, 0, "cut={cut}: left unposted");
    }
    assert_eq!((recovered, interrupted), (180, 4));
}

#[test]
fn scan_as_of_snapshots() {
    let (_cs, tree) = setup(TsbConfig::small_nodes(8, 8));
    for k in 0..10u64 {
        put(&tree, &key(k), b"old");
    }
    let t_snap = tree.now();
    for k in 0..10u64 {
        if k % 2 == 0 {
            del(&tree, &key(k));
        } else {
            put(&tree, &key(k), b"new");
        }
    }
    // Snapshot at t_snap: everything alive with the old value.
    let snap = tree.scan_as_of(&key(0), &key(100), t_snap).unwrap();
    assert_eq!(snap.len(), 10);
    assert!(snap.iter().all(|(_, v)| v == b"old"));
    // Now: evens deleted, odds updated.
    let now = tree.scan_as_of(&key(0), &key(100), tree.now()).unwrap();
    assert_eq!(now.len(), 5);
    assert!(now.iter().all(|(_, v)| v == b"new"));
}

#[test]
fn unposted_key_splits_complete_lazily() {
    let mut cfg = TsbConfig::small_nodes(6, 6);
    cfg.auto_complete = false;
    let (_cs, tree) = setup(cfg);
    for k in 0..40u64 {
        put(&tree, &key(k), b"v");
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    // Searches work through side pointers regardless.
    for k in 0..40u64 {
        assert_eq!(tree.get_current(&key(k)).unwrap(), Some(b"v".to_vec()));
    }
    tree.run_completions().unwrap();
    tree.run_completions().unwrap();
    let report2 = tree.validate().unwrap();
    assert!(report2.is_well_formed(), "{:?}", report2.violations);
    assert!(report2.unposted_nodes <= report.unposted_nodes);
}

#[test]
fn sequential_puts_leave_full_nodes() {
    // The TSB twin of `pitree`'s `fill.rs`: a stream of new ascending keys
    // key-splits where it lands (`engine::split_slot`), at a key-group
    // boundary, so every node left behind is full and nothing time-splits.
    let (_cs, tree) = setup(TsbConfig::default());
    for k in 0..20_000u64 {
        put(&tree, &key(k), b"0123456789abcdef");
    }
    tree.run_completions().unwrap();
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.history_nodes, 0);
    assert!(report.levels.len() >= 2);
    let left_full = |l: &LevelFill| l.emptiest_fill() >= Some(0.95);
    assert!(
        report.levels.iter().skip(1).all(left_full),
        "{}: {:?}",
        fill_line(&report.levels),
        report.levels
    );
}

#[test]
fn version_appends_to_one_key_still_time_split() {
    // Keys once, then a long version stream on the largest: the one key
    // split it causes moves that key's group to its own node, and from
    // there the time-split choice is what it always was. The key split
    // needs the node to fill while more than half its versions are
    // distinct keys (else it time-splits), so the keys written once must be
    // more than half the entries the page holds when it first fills.
    const ONCE: u64 = 120;
    let (_cs, tree) = setup(TsbConfig::default());
    for k in 0..ONCE {
        put(&tree, &key(k), b"once");
    }
    let stamps: Vec<u64> = (0..3_000u64)
        .map(|i| put(&tree, &key(ONCE - 1), &i.to_be_bytes()))
        .collect();
    tree.run_completions().unwrap();
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.levels.last().unwrap().nodes, 2);
    assert!(report.history_nodes >= 10, "{}", report.history_nodes);
    for (i, ts) in stamps.iter().enumerate().step_by(97) {
        let v = tree.get_as_of(&key(ONCE - 1), *ts).unwrap();
        assert_eq!(v, Some((i as u64).to_be_bytes().to_vec()));
    }
    assert_eq!(tree.get_current(&key(42)).unwrap(), Some(b"once".to_vec()));
}

// ---- posting outcomes (core's `tree_posting_outcomes.rs`, for TSB) ---------

/// Every allocated page image, in page-id order.
fn pages(cs: &CrashableStore) -> Vec<Vec<u8>> {
    let (pool, space) = (&cs.store.pool, &cs.store.space);
    let mut left = space.allocated_count(pool).unwrap();
    let mut out = Vec::new();
    for pid in 0.. {
        if left == 0 {
            break;
        }
        if space.is_allocated(pool, PageId(pid)).unwrap() {
            left -= 1;
            let pin = pool.fetch(PageId(pid)).unwrap();
            out.push(pin.s().as_bytes().to_vec());
        }
    }
    out
}

#[test]
fn a_duplicate_posting_is_a_no_op() {
    let cfg = TsbConfig {
        auto_complete: false,
        ..TsbConfig::small_nodes(4, 4)
    };
    let (cs, tree) = setup(cfg);
    for k in 0..20u64 {
        put(&tree, &key(k), b"v");
    }
    let post = tree
        .completions()
        .pop()
        .expect("a key split owes a posting");
    Tsb::complete(&tree, post.clone()).unwrap();
    while !tree.completions().is_empty() {
        tree.run_completions().unwrap();
    }
    let (noop, done) = (
        tree.stats().postings_noop.get(),
        tree.stats().postings_done.get(),
    );
    let before = pages(&cs);
    Tsb::complete(&tree, post).unwrap();
    assert_eq!(tree.stats().postings_noop.get(), noop + 1);
    assert_eq!(tree.stats().postings_done.get(), done);
    assert!(pages(&cs) == before, "a no-op posting changed a page");
}

#[test]
fn postings_split_a_full_parent_and_grow_a_full_root() {
    let cfg = TsbConfig {
        auto_complete: false,
        ..TsbConfig::small_nodes(4, 3)
    };
    let (_cs, tree) = setup(cfg);
    let (mut grew, mut split) = (0, 0);
    for k in 0..150u64 {
        put(&tree, &key(k), b"v");
        // Run the owed postings one at a time, noting beforehand whether
        // the parent each one posts into is full and whether it is the root.
        while let Some(post) = tree.completions().pop() {
            let Completion::Post {
                level, key: term, ..
            } = &post
            else {
                panic!("TSB schedules only postings");
            };
            let (full, root) = {
                let d = tree.descend(term, *level, false, false).unwrap();
                let page = d.guard.page();
                let posted = page.keyed_find(term).unwrap().is_ok();
                let full = !posted && page.entry_count() as usize >= cfg.max_index_entries;
                (full, d.page.id() == tree.root_pid())
            };
            let s = tree.stats();
            let (splits, grows) = (s.splits.get(), s.root_grows.get());
            Tsb::complete(&tree, post).unwrap();
            match (full, root) {
                (true, true) => {
                    assert_eq!(s.root_grows.get(), grows + 1, "a full root must grow");
                    grew += 1;
                }
                (true, false) => {
                    assert_eq!(s.root_grows.get(), grows);
                    assert_eq!(s.splits.get(), splits + 1, "a full parent must split");
                    split += 1;
                }
                (false, _) => {
                    assert_eq!((s.splits.get(), s.root_grows.get()), (splits, grows));
                }
            }
        }
    }
    assert!(grew > 0 && split > 0, "grew {grew}, split {split}");
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.unposted_nodes, 0);
}

// ---- the walker has teeth ----------------------------------------------------

/// Apply `op` to node `pid` through the log, as a faulty structure change
/// would.
fn damage(tree: &TsbTree, pid: PageId, op: PageOp) {
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
fn copy_last_entry_over_first(tree: &TsbTree, pid: PageId) -> PageOp {
    let pin = tree.store().pool.fetch(pid).unwrap();
    let g = pin.s();
    assert!(g.entry_count() >= 2, "node {pid} needs two entries");
    PageOp::UpdateSlot {
        slot: 1,
        bytes: g.get(g.slot_count() - 1).unwrap().to_vec(),
    }
}

/// The first current node of `level`, reached by leftmost index terms, with
/// its header.
fn leftmost(tree: &TsbTree, level: u8) -> (PageId, TsbHeader) {
    let mut pid = tree.root_pid();
    loop {
        let pin = tree.store().pool.fetch(pid).unwrap();
        let g = pin.s();
        let hdr = TsbHeader::read(&g).unwrap();
        if hdr.level == level {
            return (pid, hdr);
        }
        pid = IndexTerm::read(&g, 1).unwrap().child;
    }
}

/// A posted tree of 20 keys whose first current node has a key sibling.
fn key_split_tree() -> (CrashableStore, TsbTree) {
    let (cs, tree) = setup(TsbConfig::small_nodes(4, 4));
    for k in 0..20u64 {
        put(&tree, &key(k), b"v");
    }
    tree.run_completions().unwrap();
    assert!(tree.validate().unwrap().is_well_formed());
    (cs, tree)
}

fn root_header(tree: &TsbTree) -> TsbHeader {
    let pin = tree.store().pool.fetch(tree.root_pid()).unwrap();
    let g = pin.s();
    TsbHeader::read(&g).unwrap()
}

fn violations(tree: &TsbTree) -> Vec<String> {
    let report = tree.validate().unwrap();
    assert!(!report.is_well_formed(), "the damage went unnoticed");
    report.violations
}

#[test]
fn walker_rejects_a_time_gap_in_a_history_chain() {
    let (_cs, tree) = setup(TsbConfig::small_nodes(4, 4));
    for i in 0..4u64 {
        put(&tree, b"k", &i.to_be_bytes());
    }
    // The fifth version time-splits the root; rolling it back leaves the
    // root holding only the alive-at-split copy.
    let mut t = tree.begin();
    tree.put(&mut t, b"k", b"rolled back").unwrap();
    t.abort(Some(&tree.undo_handler())).unwrap();
    let hdr = root_header(&tree);
    assert!(hdr.hist_side.is_valid(), "the root must have time-split");
    assert!(tree.validate().unwrap().is_well_formed());
    // Start the root's interval one tick later than its history ends.
    let gap = TsbHeader {
        t_lo: hdr.t_lo + 1,
        ..hdr
    };
    damage(&tree, tree.root_pid(), header(gap.encode()));
    let v = violations(&tree);
    let want = format!("node {}: history node {}", tree.root_pid(), hdr.hist_side);
    assert!(
        v.iter()
            .any(|v| v.starts_with(&want) && v.contains("is not responsible")),
        "{v:?}"
    );
}

#[test]
fn walker_rejects_two_pre_t_lo_versions_of_one_key() {
    let (_cs, tree) = setup(TsbConfig::default());
    for i in 0..3u64 {
        put(&tree, b"k", &i.to_be_bytes());
    }
    // Move the root's interval past two of the key's versions: only one
    // alive-at-split copy may predate it.
    let hdr = root_header(&tree);
    let late = TsbHeader { t_lo: 3, ..hdr };
    damage(&tree, tree.root_pid(), header(late.encode()));
    let v = violations(&tree);
    assert!(
        v.iter().any(|v| v.contains("2 pre-t_lo versions of key")),
        "{v:?}"
    );
}

#[test]
fn walker_rejects_a_key_prefix_the_keys_do_not_share() {
    let (_cs, tree) = setup(TsbConfig::default());
    for i in 0..3u64 {
        put(&tree, b"k", &i.to_be_bytes());
    }
    // Three versions of one key: the prefix is the key and the start
    // times' seven high bytes.
    let root = tree.root_pid();
    damage(&tree, root, copy_last_entry_over_first(&tree, root));
    let v = violations(&tree);
    let want =
        format!("node {root}: stored key prefix of 8 bytes, but its first and last keys share 9");
    assert!(v.iter().any(|v| v == &want), "{v:?}");
}

#[test]
fn walker_rejects_a_sibling_term_back_to_its_own_node() {
    let (_cs, tree) = key_split_tree();
    // Aim the first current node's key side pointer at itself: a walk down
    // the current chain would never end.
    let (pid, hdr) = leftmost(&tree, 0);
    assert!(
        hdr.key_side.is_valid(),
        "the first current node has a sibling"
    );
    let cycle = TsbHeader {
        key_side: pid,
        ..hdr
    };
    damage(&tree, pid, header(cycle.encode()));
    let v = violations(&tree);
    assert!(
        v.contains(&format!("node {pid}: its sibling terms lead back to it")),
        "{v:?}"
    );
}

#[test]
fn walker_rejects_a_reachable_node_the_space_map_does_not_allocate() {
    let (_cs, tree) = key_split_tree();
    let (pid, _) = leftmost(&tree, 0);
    let (bitmap, bit) = tree.store().space.locate(pid);
    damage(&tree, bitmap, PageOp::ClearBit { bit });
    let v = violations(&tree);
    assert!(
        v.contains(&format!("node {pid} is not allocated in the space map")),
        "{v:?}"
    );
}

#[test]
fn walker_rejects_an_index_term_aimed_at_a_history_node() {
    let (_cs, tree) = key_split_tree();
    // Version key 0 until the first current node time-splits: its history
    // node then has the same key range, and only its time ends.
    while !leftmost(&tree, 0).1.hist_side.is_valid() {
        put(&tree, &key(0), b"w");
    }
    assert!(tree.validate().unwrap().is_well_formed());
    let hist = leftmost(&tree, 0).1.hist_side;
    // Re-aim the leftmost index term at the history node: the current node
    // drops out of reach, and the history node takes its place on level 0.
    let (parent, _) = leftmost(&tree, 1);
    let term = {
        let pin = tree.store().pool.fetch(parent).unwrap();
        let g = pin.s();
        IndexTerm::read(&g, 1).unwrap()
    };
    let bytes = IndexTerm::entry_for(&term.key, hist);
    damage(&tree, parent, PageOp::KeyedUpdate { bytes });
    let v = violations(&tree);
    let want = format!("node {parent}: child {hist}");
    assert!(
        v.iter()
            .any(|v| v.starts_with(&want) && v.contains("is not responsible")),
        "{v:?}"
    );
}
