//! The paper's claims as gates, at reduced scale and deterministic.
//!
//! Every count below comes from a single-threaded, seeded run, so the
//! pinned values hold on any host. Each test prints one summary line per
//! row (`e1 `, `e2 `, `e6 `, `e7 `), which `scripts/verify.sh`'s
//! paper-claims gate shows. The figures (F1, F2), the crash sweep (E3) and
//! the UNDO policies' split placement (E4) are gated in the suites of the
//! crates they describe; `EXPERIMENTS.md` maps every claim to its test.
//!
//! E1 (§1, §6): decomposed B-link structure changes exclude other
//! operations from shared parts of the tree less often than lock coupling
//! and serial SMOs. Per mix, over the same pages, pool and WAL: interior X
//! latchings per 1k operations order Π-tree < optimistic < lock coupling,
//! and only serial SMO ever latches the whole tree.
//!
//! E2 (§1 point 3, §6): structure changes are short independent atomic
//! actions. Read from the log: no SMO action touches more than four pages,
//! at either tree size, and no user transaction updates an interior node.
//!
//! E5/E6 (§5.2, §5.3): a posting that starts from the remembered parent
//! latches one node; one that must re-descend from the root (CP with
//! de-allocation not an update) latches more, and more as the tree deepens.
//!
//! E7 (§3.3, §5.1): consolidation reclaims nodes after churn, and a
//! completion scheduled again after its work is done ends as a testable
//! no-op.

use pitree::{
    Completion, ConsolidationPolicy, CrashableStore, DeallocPolicy, PiTree, PiTreeConfig,
};
use pitree_harness::adapters::commit;
use pitree_harness::footprint::{measure, MIXES};
use pitree_pagestore::sync::{FixedMap, FixedSet};
use pitree_pagestore::{PageId, PageOp, PageType};
use pitree_wal::{ActionId, ActionIdentity, RecordKind};
use std::sync::Arc;

/// A tree loaded with the keys `0..keys` in ascending order, one forced
/// transaction each, its completions drained.
fn ascending(cfg: PiTreeConfig, keys: u64) -> (CrashableStore, PiTree) {
    let cs = CrashableStore::create(8192, 1 << 20).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    for i in 0..keys {
        commit(&tree, |t| tree.insert(t, &i.to_be_bytes(), b"v"));
    }
    for _ in 0..4 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    (cs, tree)
}

#[test]
fn e1_exclusive_footprint_orders_the_protocols() {
    for mix in MIXES {
        let rows = measure(mix, 3_000);
        let by_name = |name: &str| rows.iter().find(|r| r.protocol == name).expect(name);
        let (pi, lc) = (by_name("pi-tree"), by_name("lock-coupling"));
        let (oc, ss) = (by_name("optimistic-coupling"), by_name("serial-smo"));
        for r in &rows {
            println!(
                "e1 {:<50} {:<20} interior X {:>7.1}  tree-wide X {:>6.1}",
                mix.name, r.protocol, r.interior_x, r.tree_x
            );
        }
        assert!(
            pi.interior_x < oc.interior_x && oc.interior_x < lc.interior_x,
            "{}: interior X must order pi-tree < optimistic < lock coupling: {rows:?}",
            mix.name
        );
        for r in [pi, lc, oc] {
            assert_eq!(
                r.tree_x, 0.0,
                "{}: {} latched the whole tree",
                mix.name, r.protocol
            );
        }
        assert!(
            ss.tree_x > 0.0,
            "{}: serial SMO never went tree-wide",
            mix.name
        );
    }
}

#[test]
fn e2_smo_actions_are_short_and_bounded() {
    // (keys, user transactions, SMO actions) — the creation transaction
    // counts as a user transaction.
    for (keys, want_user, want_smo) in [(2_000u64, 2_001, 612), (5_000, 5_001, 1_540)] {
        let (cs, _tree) = ascending(PiTreeConfig::small_nodes(8, 8), keys);
        // A node page's level, from the slot-0 header last logged for it.
        let mut level: FixedMap<PageId, Option<u8>> = FixedMap::default();
        let mut actions: FixedMap<ActionId, (ActionIdentity, FixedSet<PageId>)> =
            FixedMap::default();
        let mut creation = None;
        for rec in cs.store.log.scan(None) {
            let rec = rec.unwrap();
            match rec.kind {
                RecordKind::Begin { identity } => {
                    if identity == ActionIdentity::Transaction && creation.is_none() {
                        creation = Some(rec.action);
                    }
                    actions.insert(rec.action, (identity, FixedSet::default()));
                }
                RecordKind::Update { pid, redo, .. } => {
                    let (identity, pages) = actions.get_mut(&rec.action).unwrap();
                    if *identity == ActionIdentity::Transaction && creation != Some(rec.action) {
                        assert_eq!(
                            level.get(&pid),
                            Some(&Some(0)),
                            "{keys} keys: user transaction {:?} updated {pid:?}, not a leaf",
                            rec.action
                        );
                    }
                    pages.insert(pid);
                    match redo {
                        PageOp::Format { ty: PageType::Node } => {
                            level.insert(pid, None);
                        }
                        PageOp::Format { .. } => {
                            level.remove(&pid);
                        }
                        PageOp::InsertSlot { slot: 0, bytes }
                        | PageOp::UpdateSlot { slot: 0, bytes } => {
                            if let Some(l) = level.get_mut(&pid) {
                                *l = Some(bytes[0]);
                            }
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        let updating = |user: bool| {
            actions
                .values()
                .filter(move |(id, pages)| {
                    (*id == ActionIdentity::Transaction) == user && !pages.is_empty()
                })
                .map(|(_, pages)| pages.len())
        };
        let (user, smo) = (updating(true).count(), updating(false).count());
        let max_pages = updating(false).max().unwrap();
        println!(
            "e2 {keys} ascending keys, fanout 8: {user} user transactions, {smo} SMO actions, \
             at most {max_pages} pages per SMO action"
        );
        assert!(
            max_pages <= 4,
            "{keys} keys: an SMO action touched {max_pages} pages"
        );
        assert_eq!((user, smo), (want_user, want_smo), "{keys} keys");
    }
}

#[test]
fn e6_postings_latch_one_node_unless_they_retraverse() {
    let cp = |dealloc| ConsolidationPolicy::Enabled { dealloc };
    let retraverses = cp(DeallocPolicy::NotAnUpdate);
    let regimes = [
        ("CNS", ConsolidationPolicy::Disabled),
        ("CP, dealloc=update", cp(DeallocPolicy::IsAnUpdate)),
        ("CP, dealloc=not-update", retraverses),
    ];
    // (height, nodes latched, postings) of the root re-traversal regime.
    let mut retraversal = Vec::new();
    for keys in [2_000u64, 10_000] {
        for (name, consolidation) in regimes {
            let mut cfg = PiTreeConfig::small_nodes(8, 8);
            cfg.consolidation = consolidation;
            let (_cs, tree) = ascending(cfg, keys);
            let stats = tree.stats();
            let posts = stats.postings_done.get()
                + stats.postings_noop.get()
                + stats.postings_node_gone.get();
            let touched = stats.posting_nodes_touched.get();
            let height = tree.height().unwrap();
            println!(
                "e6 {keys:>6} keys  {name:<22} height {height}  {touched:>5} nodes latched \
                 over {posts:>5} postings ({:.2} per posting)",
                touched as f64 / posts as f64
            );
            if consolidation == retraverses {
                retraversal.push((height, touched, posts));
            } else {
                assert_eq!(touched, posts, "{keys} keys, {name}: one node per posting");
            }
        }
    }
    let [(h_small, t_small, p_small), (h_large, t_large, p_large)] = retraversal[..] else {
        unreachable!()
    };
    assert!(
        t_small > p_small,
        "root re-traversal latches more than one node"
    );
    assert!(
        h_large > h_small && t_large * p_small > t_small * p_large,
        "nodes per posting must grow with height: {retraversal:?}"
    );
    assert_eq!(retraversal, [(4, 864, 327), (5, 5_838, 1_658)]);
}

#[test]
fn e7_consolidation_reclaims_and_stale_completions_are_noops() {
    const KEYS: u64 = 4_000;
    let mut cfg = PiTreeConfig::small_nodes(16, 16);
    cfg.min_utilization = 0.4;
    let (cs, tree) = ascending(cfg, KEYS);
    let shape = || {
        let report = tree.validate().unwrap();
        assert!(report.is_well_formed(), "{:?}", report.violations);
        let leaves = report.levels.last().map_or(0, |leaf| leaf.nodes);
        let pages = cs.store.space.allocated_count(&cs.store.pool).unwrap();
        (leaves, pages, report.records)
    };
    let loaded = shape();
    for i in (0..KEYS).filter(|i| i % 10 != 0) {
        commit(&tree, |t| tree.delete(t, &i.to_be_bytes()));
    }
    for _ in 0..8 {
        tree.run_completions().unwrap();
    }
    let churned = shape();
    let consolidations = tree.stats().consolidations.get();
    println!(
        "e7 {KEYS} keys, 90% deleted: leaves {} -> {}, allocated pages {} -> {}, \
         {consolidations} consolidations",
        loaded.0, churned.0, loaded.1, churned.1
    );
    assert!(
        churned.0 < loaded.0 / 2,
        "consolidation must reclaim most leaves"
    );
    assert!(churned.1 < loaded.1, "consolidation must free pages");
    assert_eq!(churned.2, (KEYS / 10) as usize);

    // Schedule every key's leaf consolidation twice over: the §5.1 state
    // test must turn (nearly) all of them into no-ops, harming nothing.
    let noop_before = tree.stats().consolidations_noop.get();
    for _ in 0..2 {
        for i in 0..KEYS {
            tree.completions().push(Completion::Consolidate {
                level: 0,
                key: i.to_be_bytes().to_vec(),
            });
        }
        for _ in 0..8 {
            tree.run_completions().unwrap();
        }
    }
    let noops = tree.stats().consolidations_noop.get() - noop_before;
    let stale = shape();
    println!(
        "e7 {} stale consolidations: {noops} ended as no-ops, records {} -> {}",
        2 * KEYS,
        churned.2,
        stale.2
    );
    assert_eq!(stale.2, churned.2, "no record was harmed");
    assert!(
        noops * 100 >= 2 * KEYS * 99,
        "{noops} of {} were no-ops",
        2 * KEYS
    );
    for i in (0..KEYS).step_by(10) {
        assert_eq!(
            tree.get_unlocked(&i.to_be_bytes()).unwrap(),
            Some(b"v".to_vec())
        );
    }
    assert_eq!((loaded, churned), ((267, 290, 4_000), (36, 43, 400)));
    assert_eq!((consolidations, noops), (247, 7_996));
}
