//! hB-tree functional, structural (Figure 2), fill and recovery tests.

use pitree::store::CrashableStore;
use pitree::wellformed::{fill_line, WellFormedReport};
use pitree::Structure;
use pitree_hb::{point_key, Frag, Hb, HbConfig, HbHeader, HbTree, Point, PtrKind, Rect};
use pitree_pagestore::page::Page;
use pitree_pagestore::{PageId, PageOp};
use pitree_sim::{crash, SimRng};
use pitree_wal::ActionIdentity;
use std::sync::Arc;

fn setup(cfg: HbConfig) -> (CrashableStore, HbTree) {
    let cs = CrashableStore::create(1024, 200_000).unwrap();
    let tree = HbTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    (cs, tree)
}

fn put(tree: &HbTree, p: Point, v: &[u8]) {
    let mut t = tree.begin();
    tree.insert(&mut t, &p, v).unwrap();
    t.commit().unwrap();
}

fn grid_points(n: u64, stride: u64) -> Vec<Point> {
    let mut out = Vec::new();
    for x in 0..n {
        for y in 0..n {
            out.push([x * stride + 10, y * stride + 10]);
        }
    }
    out
}

#[test]
fn insert_get_roundtrip() {
    let (_cs, tree) = setup(HbConfig::small_nodes(8, 24));
    let pts = grid_points(10, 100);
    for (i, p) in pts.iter().enumerate() {
        put(&tree, *p, format!("v{i}").as_bytes());
    }
    for (i, p) in pts.iter().enumerate() {
        assert_eq!(
            tree.get(p).unwrap(),
            Some(format!("v{i}").into_bytes()),
            "point {p:?}"
        );
    }
    assert_eq!(tree.get(&[5, 5]).unwrap(), None);
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 100);
}

#[test]
fn splits_produce_multiple_levels() {
    let (_cs, tree) = setup(HbConfig::small_nodes(6, 12));
    let pts = grid_points(16, 50);
    for p in &pts {
        put(&tree, *p, b"x");
    }
    for _ in 0..6 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 256);
    assert!(
        report.levels.len() >= 2,
        "256 points in 6-record nodes must build index levels: {}",
        fill_line(&report.levels)
    );
    // All points still reachable.
    for p in &pts {
        assert_eq!(tree.get(p).unwrap(), Some(b"x".to_vec()), "point {p:?}");
    }
}

#[test]
fn random_points_stay_searchable() {
    let mut rng = SimRng::new(4);
    let (_cs, tree) = setup(HbConfig::small_nodes(8, 16));
    let mut pts = Vec::new();
    for _ in 0..600 {
        let p: Point = [rng.below(1_000_000), rng.below(1_000_000)];
        pts.push(p);
        put(&tree, p, b"r");
    }
    for _ in 0..8 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    pts.sort();
    pts.dedup();
    assert_eq!(report.records, pts.len());
    for p in &pts {
        assert_eq!(tree.get(p).unwrap(), Some(b"r".to_vec()), "point {p:?}");
    }
}

#[test]
fn window_queries_match_linear_scan() {
    let mut rng = SimRng::new(4);
    let (_cs, tree) = setup(HbConfig::small_nodes(8, 16));
    let mut pts = Vec::new();
    for _ in 0..300 {
        let p: Point = [rng.below(10_000), rng.below(10_000)];
        pts.push(p);
        put(&tree, p, b"w");
    }
    pts.sort();
    pts.dedup();
    for _ in 0..5 {
        let lo = [rng.below(8_000), rng.below(8_000)];
        let hi = [lo[0] + rng.range(1..3_000), lo[1] + rng.range(1..3_000)];
        let window = Rect { lo, hi };
        let got = tree.window_query(&window).unwrap();
        let expected: Vec<Point> = pts.iter().copied().filter(|p| window.contains(p)).collect();
        let got_pts: Vec<Point> = got.iter().map(|(p, _)| *p).collect();
        assert_eq!(got_pts, expected, "window {window:?}");
    }
}

#[test]
fn updates_and_deletes() {
    let (_cs, tree) = setup(HbConfig::small_nodes(8, 16));
    for p in grid_points(6, 10) {
        put(&tree, p, b"one");
    }
    let target: Point = [10, 10];
    put(&tree, target, b"two");
    assert_eq!(tree.get(&target).unwrap(), Some(b"two".to_vec()));
    let mut t = tree.begin();
    assert!(tree.delete(&mut t, &target).unwrap());
    assert!(!tree.delete(&mut t, &target).unwrap());
    t.commit().unwrap();
    assert_eq!(tree.get(&target).unwrap(), None);
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 35);
}

#[test]
fn figure_2_structure() {
    // Build a node population that forces hyperplane splits of index nodes,
    // then verify the Figure 2 shape: kd fragments whose leaves mix child
    // pointers and *sibling* pointers (the replaced "External" markers).
    let (cs, tree) = setup(HbConfig::small_nodes(4, 8));
    for p in grid_points(14, 64) {
        put(&tree, p, b"f2");
    }
    for _ in 0..8 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert!(report.levels.len() >= 2);

    // Find an index node whose fragment carries a sibling pointer.
    let pool = &cs.store.pool;
    let mut stack = vec![tree.root_pid()];
    let mut seen = pitree_pagestore::sync::FixedSet::default();
    let mut sib_in_index = 0;
    let mut kd_splits_in_index = 0;
    let mut subject: Option<(usize, bool)> = None;
    while let Some(pid) = stack.pop() {
        if !seen.insert(pid) {
            continue;
        }
        let pin = pool.fetch(pid).unwrap();
        let g = pin.s();
        let hdr = HbHeader::read(&g).unwrap();
        let mut leaves = Vec::new();
        hdr.frag.leaves(&hdr.rect, &mut leaves);
        if hdr.level > 0 {
            let root_is_split = matches!(hdr.frag, Frag::Split { .. });
            if root_is_split {
                kd_splits_in_index += 1;
            }
            let siblings = leaves
                .iter()
                .filter(|(leaf, _)| {
                    matches!(
                        leaf,
                        Frag::Ptr {
                            kind: PtrKind::Sibling,
                            ..
                        }
                    )
                })
                .count();
            sib_in_index += siblings;
            // The figure's subject: the largest fragment with a sibling term.
            if siblings > 0 && subject.is_none_or(|(size, _)| hdr.frag.size() > size) {
                subject = Some((hdr.frag.size(), root_is_split));
            }
        }
        for (leaf, _) in &leaves {
            if let Frag::Ptr { pid, .. } = leaf {
                stack.push(*pid);
            }
        }
    }
    assert!(
        kd_splits_in_index > 0,
        "index nodes must hold kd-tree fragments (Figure 2)"
    );
    assert!(
        sib_in_index > 0,
        "at least one index node must carry a sibling pointer in its fragment \
         (Figure 2's replaced External markers)"
    );
    // A hyperplane split keeps the local kd root, "one child of the root
    // points to the new sibling" (§2.2.3).
    assert_eq!(
        subject.map(|(_, root_is_split)| root_is_split),
        Some(true),
        "the subject's fragment root must be a kd split"
    );
}

#[test]
fn clipping_marks_multi_parent_nodes() {
    // A dense horizontal band mixed with scattered points produces child
    // regions that straddle the balanced cuts, forcing clipped terms
    // (§3.2.2/§3.3).
    let mut rng = SimRng::new(4);
    let (_cs, tree) = setup(HbConfig::small_nodes(6, 6));
    for i in 0..800 {
        let p: Point = if i % 3 == 0 {
            [rng.below(1000) * 97, rng.below(50)]
        } else {
            [rng.below(100_000), rng.below(100_000)]
        };
        put(&tree, p, b"c");
    }
    for _ in 0..8 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    // Clipping is workload-dependent; with 500 random points and tiny
    // fragments it reliably occurs.
    assert!(
        report.multi_parent_nodes > 0,
        "tiny index fragments over dense data must clip at least one term"
    );
}

#[test]
fn aborted_inserts_are_compensated() {
    let (_cs, tree) = setup(HbConfig::small_nodes(6, 12));
    for p in grid_points(5, 100) {
        put(&tree, p, b"keep");
    }
    let mut t = tree.begin();
    for p in grid_points(5, 37) {
        tree.insert(&mut t, &[p[0] + 1, p[1] + 1], b"doomed")
            .unwrap();
    }
    t.abort(Some(&tree.undo_handler())).unwrap();
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 25, "only the committed grid remains");
    for p in grid_points(5, 100) {
        assert_eq!(tree.get(&p).unwrap(), Some(b"keep".to_vec()));
    }
}

#[test]
fn crash_recovery_preserves_committed_points() {
    let cfg = HbConfig::small_nodes(6, 12);
    let (cs, tree) = setup(cfg);
    let pts = grid_points(10, 64);
    for p in &pts {
        put(&tree, *p, b"d");
    }
    drop(tree);
    let cs2 = cs.crash().unwrap();
    let (tree2, _stats) = HbTree::recover(Arc::clone(&cs2.store), 1, cfg).unwrap();
    let report = tree2.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 100);
    for p in &pts {
        assert_eq!(tree2.get(p).unwrap(), Some(b"d".to_vec()), "point {p:?}");
    }
}

#[test]
fn crash_log_prefix_sweep() {
    // Crash with the durable log cut at every record boundary of a workload
    // full of splits, clipped postings and root growth, and inside every
    // range record. Every cut past the tree's creation must recover a
    // well-formed tree holding exactly the points whose commits the cut
    // kept; a drain must then finish every split the cut left unposted.
    // Pinned: the cuts that recover a tree and those that recover an
    // unposted split.
    let cfg = HbConfig::small_nodes(4, 10);
    let (cs, tree) = setup(cfg);
    let created = cs.durable_log_len();
    // (point, value, durable log end once its commit was forced)
    let mut puts = Vec::new();
    for (i, p) in grid_points(6, 64).into_iter().enumerate() {
        let v = format!("p{i}").into_bytes();
        put(&tree, p, &v);
        puts.push((p, v, cs.durable_log_len()));
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
    // A split moves its high side's records: one `KeyedInsertMany` into the
    // new node, one `KeyedRemoveMany` of the same keys from the old one.
    let splits: Vec<u64> = crash::range_moves(&records)
        .into_iter()
        .filter(|(moved, removed, _)| moved == removed)
        .map(|(.., between)| between)
        .collect();
    assert!(
        splits.iter().any(|c| cuts.contains(c)),
        "no cut inside a split's entry move"
    );

    let (mut recovered, mut interrupted) = (0, 0);
    for &cut in &cuts {
        let cs2 = cs.crash_with_log_prefix(cut).unwrap();
        let (tree2, _) = match HbTree::recover(Arc::clone(&cs2.store), 1, cfg) {
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
        for (p, v, end) in &puts {
            let kept = (*end <= cut).then(|| v.clone());
            assert_eq!(tree2.get(p).unwrap(), kept, "cut={cut}: point {p:?}");
        }
        assert_eq!(
            report.records,
            puts.iter().filter(|(.., end)| *end <= cut).count(),
            "cut={cut}"
        );
        for _ in 0..4 {
            tree2.run_completions().unwrap();
        }
        let after = tree2.validate().unwrap();
        assert!(after.is_well_formed(), "cut={cut}: {:?}", after.violations);
        assert_eq!(after.unposted_nodes, 0, "cut={cut}: left unposted");
    }
    assert_eq!((recovered, interrupted), (327, 91));
}

#[test]
fn unposted_splits_complete_lazily() {
    let mut cfg = HbConfig::small_nodes(5, 12);
    cfg.auto_complete = false;
    let (_cs, tree) = setup(cfg);
    let pts = grid_points(8, 80);
    for p in &pts {
        put(&tree, *p, b"l");
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    // Searches succeed through sibling pointers even with postings pending.
    for p in &pts {
        assert_eq!(tree.get(p).unwrap(), Some(b"l".to_vec()));
    }
    assert!(tree.pending_posts() > 0 || report.unposted_nodes > 0);
    for _ in 0..8 {
        tree.run_completions().unwrap();
    }
    let report2 = tree.validate().unwrap();
    assert!(report2.is_well_formed(), "{:?}", report2.violations);
    assert!(report2.unposted_nodes <= report.unposted_nodes);
}

/// `n` seeded points spread over a 2^20 × 2^20 space.
fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|_| [rng.below(1 << 20), rng.below(1 << 20)])
        .collect()
}

/// `core/tests/fill.rs`'s loader for hB: insert `points` in transactions of
/// eight, drain the postings, and return the validated report and the
/// split count.
fn load(cfg: HbConfig, points: &[Point]) -> (WellFormedReport, u64) {
    let (_cs, tree) = setup(cfg);
    for batch in points.chunks(8) {
        let mut t = tree.begin();
        for (i, p) in batch.iter().enumerate() {
            tree.insert(&mut t, p, &(i as u64).to_be_bytes()).unwrap();
        }
        t.commit().unwrap();
    }
    while tree.pending_posts() > 0 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.unposted_nodes, 0);
    (report, tree.stats().splits.get())
}

#[test]
fn default_nodes_split_when_the_page_is_full() {
    // A data node splits only when its page is full, so a random load
    // settles well above half full, as B-tree leaves do (`fill.rs`).
    let points = random_points(20_000, 0x5EED);
    let (report, _) = load(HbConfig::default(), &points);
    println!(
        "hb fill: 20000 random points: {}",
        fill_line(&report.levels)
    );
    assert_eq!(report.records, points.len());
    let data = report.levels.last().unwrap();
    assert!(data.fill() >= 0.60, "{}", fill_line(&report.levels));
    // A kd-median split of a full node leaves both halves about half full.
    assert!(
        data.emptiest_fill() >= Some(0.40),
        "{:?}: {}",
        data.emptiest,
        fill_line(&report.levels)
    );
}

#[test]
fn small_nodes_load_still_splits_where_it_did() {
    // Counted on the same seeded load at the commit before hB data nodes
    // split on bytes: a record cap still decides, exactly as before.
    const PARENT_SPLITS: u64 = 416;
    const PARENT_NODES: [usize; 5] = [1, 2, 12, 66, 340];
    let (report, splits) = load(HbConfig::small_nodes(8, 16), &random_points(2_000, 0x5EED));
    assert_eq!(splits, PARENT_SPLITS);
    let nodes: Vec<usize> = report.levels.iter().map(|l| l.nodes).collect();
    assert_eq!(nodes, PARENT_NODES, "{}", fill_line(&report.levels));
}

// ---- posting outcomes (core's `tree_posting_outcomes.rs`, for hB) ----------

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
    let cfg = HbConfig {
        auto_complete: false,
        ..HbConfig::small_nodes(4, 12)
    };
    let (cs, tree) = setup(cfg);
    for p in grid_points(4, 100) {
        put(&tree, p, b"v");
    }
    let post = tree.completions().pop().expect("a split owes a posting");
    Hb::complete(&tree, post.clone()).unwrap();
    while tree.pending_posts() > 0 {
        tree.run_completions().unwrap();
    }
    let (noop, done) = (
        tree.stats().postings_noop.get(),
        tree.stats().postings_done.get(),
    );
    let before = pages(&cs);
    Hb::complete(&tree, post).unwrap();
    assert_eq!(tree.stats().postings_noop.get(), noop + 1);
    assert_eq!(tree.stats().postings_done.get(), done);
    assert!(pages(&cs) == before, "a no-op posting changed a page");
}

#[test]
fn postings_split_a_full_parent_and_grow_a_full_root() {
    let cfg = HbConfig {
        auto_complete: false,
        ..HbConfig::small_nodes(4, 5)
    };
    let (_cs, tree) = setup(cfg);
    let (mut grew, mut split) = (0, 0);
    for p in random_points(300, 0xB057) {
        put(&tree, p, b"v");
        // Run the owed postings one at a time, noting beforehand whether
        // the parent's refined fragment overflows its cap and whether the
        // parent is the root.
        while let Some(post) = tree.completions().pop() {
            let (full, root) = {
                let d = tree
                    .descend(&post.rect.lo, post.level, false, false)
                    .unwrap();
                let hdr = HbHeader::read(d.guard.page()).unwrap();
                let mut frag = hdr.frag.clone();
                let changed = frag.post(&hdr.rect, post.old, post.new, &post.rect);
                let full = changed && frag.size() > cfg.max_frag_nodes;
                (full, d.page.id() == tree.root_pid())
            };
            let s = tree.stats();
            let (splits, grows) = (s.splits.get(), s.root_grows.get());
            Hb::complete(&tree, post).unwrap();
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
fn damage(tree: &HbTree, pid: PageId, op: PageOp) {
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
fn copy_last_entry_over_first(tree: &HbTree, pid: PageId) -> PageOp {
    let pin = tree.store().pool.fetch(pid).unwrap();
    let g = pin.s();
    assert!(g.entry_count() >= 2, "node {pid} needs two entries");
    PageOp::UpdateSlot {
        slot: 1,
        bytes: g.get(g.slot_count() - 1).unwrap().to_vec(),
    }
}

/// A posted tree and one of its data nodes that delegated part of its
/// rectangle to a sibling, with that node's header.
fn tree_with_a_split_data_node() -> (CrashableStore, HbTree, PageId, HbHeader) {
    let (cs, tree) = setup(HbConfig::small_nodes(4, 8));
    for p in grid_points(4, 100) {
        put(&tree, p, b"v");
    }
    assert!(tree.validate().unwrap().is_well_formed());
    let mut stack = vec![tree.root_pid()];
    while let Some(pid) = stack.pop() {
        let pin = cs.store.pool.fetch(pid).unwrap();
        let hdr = HbHeader::read(&pin.s()).unwrap();
        if hdr.level == 0 && matches!(hdr.frag, Frag::Split { .. }) {
            drop(pin);
            return (cs, tree, pid, hdr);
        }
        let mut leaves = Vec::new();
        hdr.frag.leaves(&hdr.rect, &mut leaves);
        for (leaf, _) in leaves {
            if let Frag::Ptr { pid, .. } = leaf {
                stack.push(*pid);
            }
        }
    }
    panic!("no data node has split");
}

fn violations(tree: &HbTree) -> Vec<String> {
    let report = tree.validate().unwrap();
    assert!(!report.is_well_formed(), "the damage went unnoticed");
    report.violations
}

#[test]
fn walker_rejects_overlapping_owned_regions() {
    let (_cs, tree, pid, hdr) = tree_with_a_split_data_node();
    // Move the node's latest hyperplane one unit into the region it
    // delegated: that strip is now owned twice.
    let Frag::Split { dim, val, lo, hi } = hdr.frag else {
        unreachable!("picked for its split")
    };
    let greedy = HbHeader {
        frag: Frag::Split {
            dim,
            val: val + 1,
            lo,
            hi,
        },
        ..hdr
    };
    damage(&tree, pid, header(greedy.encode()));
    let v = violations(&tree);
    let named = format!("of node {pid}");
    assert!(
        v.iter()
            .any(|v| v.contains("overlapping owned regions") && v.contains(&named)),
        "{v:?}"
    );
}

#[test]
fn walker_rejects_a_wide_overlap() {
    let (_cs, tree, pid, hdr) = tree_with_a_split_data_node();
    // Move the node's latest hyperplane halfway into the region it
    // delegated: the area owned twice makes the level's areas sum past
    // what any u128 holds.
    let Frag::Split { dim, val, lo, hi } = hdr.frag else {
        unreachable!("picked for its split")
    };
    let far = hdr.rect.hi[usize::from(dim)];
    let greedy = HbHeader {
        frag: Frag::Split {
            dim,
            val: val + (far - val) / 2,
            lo,
            hi,
        },
        ..hdr
    };
    damage(&tree, pid, header(greedy.encode()));
    let v = violations(&tree);
    assert!(
        v.iter()
            .any(|v| v.starts_with("level 0: owned regions cover more than 2^128")),
        "{v:?}"
    );
    let named = format!("of node {pid}");
    assert!(
        v.iter()
            .any(|v| v.contains("overlapping owned regions") && v.contains(&named)),
        "{v:?}"
    );
}

#[test]
fn walker_rejects_a_sibling_term_back_to_its_own_node() {
    let (_cs, tree, pid, hdr) = tree_with_a_split_data_node();
    // Aim the node's latest sibling term at the node itself.
    let Frag::Split { dim, val, lo, .. } = hdr.frag else {
        unreachable!("picked for its split")
    };
    let cycle = HbHeader {
        frag: Frag::Split {
            dim,
            val,
            lo,
            hi: Box::new(Frag::sibling(pid)),
        },
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
    let (_cs, tree, pid, _) = tree_with_a_split_data_node();
    let (bitmap, bit) = tree.store().space.locate(pid);
    damage(&tree, bitmap, PageOp::ClearBit { bit });
    let v = violations(&tree);
    assert!(
        v.contains(&format!("node {pid} is not allocated in the space map")),
        "{v:?}"
    );
}

#[test]
fn walker_rejects_a_record_outside_local_space() {
    let (_cs, tree, pid, hdr) = tree_with_a_split_data_node();
    // Move a record's point into the region the node delegated sideways.
    let mut leaves = Vec::new();
    hdr.frag.leaves(&hdr.rect, &mut leaves);
    let away = leaves
        .iter()
        .find(|(leaf, _)| !matches!(leaf, Frag::Local))
        .map(|(_, region)| region.lo)
        .unwrap();
    let bytes = Page::make_entry(&point_key(&away), b"v");
    damage(&tree, pid, PageOp::KeyedInsert { bytes });
    let v = violations(&tree);
    assert!(v.iter().any(|v| v.contains("outside Local space")), "{v:?}");
}

#[test]
fn walker_rejects_a_key_prefix_the_keys_do_not_share() {
    let (_cs, tree, pid, _) = tree_with_a_split_data_node();
    damage(&tree, pid, copy_last_entry_over_first(&tree, pid));
    let v = violations(&tree);
    let want = format!("node {pid}: stored key prefix of");
    assert!(
        v.iter()
            .any(|v| v.starts_with(&want) && v.ends_with("share 16")),
        "{v:?}"
    );
}
