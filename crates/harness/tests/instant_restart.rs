//! Instant-restart integration oracles.
//!
//! The heart of this file is the **determinism oracle**: recovery must be
//! a pure function of the durable crash image, no matter who drains the
//! redo plan. One seeded workload is crashed once, and the same image is
//! recovered under the one REDO engine's three drain policies —
//! stop-the-world synchronous drain, instant restart with parallel
//! background REDO, and instant restart where foreground traffic triggers
//! on-demand REDO before the background workers drain the rest (the
//! log-order textbook pass they replaced lives on as a test-side reference
//! in `pitree-wal`'s `tests/one_redo_engine.rs`). All three must produce
//! byte-identical pages ("repeating history" has exactly one answer —
//! §4.3.1's invariant restated as an executable test). The oracle runs over
//! a crashed image of each of the three structures — Π-tree, TSB-tree,
//! hB-tree — since all of them restart through the one engine
//! (`pitree::Engine::{recover, recover_instant}`); each image carries a
//! loser transaction, so logical undo runs through the structure's own
//! handler with the on-demand redo hook installed.
//!
//! The second half exercises the **fuzzy-checkpoint trigger**: armed via
//! [`pitree_txnlock::TxnManager::set_checkpoint_every_bytes`], commits
//! under load must advance the master LSN without quiescing writers, and
//! a crash that lands after several checkpoints must still recover the
//! committed state exactly (analysis now starts at the checkpoint, not
//! the log head).
//!
//! The last test is instant restart's claim as a counter: the first op
//! after `recover_instant` redoes one root-to-leaf path on demand, not the
//! plan. Its timing (`ttfo_ms` / `replay_ms` / `drain_ms`) is measured by
//! `benchmark/`'s `restart` workload.

use pitree::{CrashableStore, PiTree, PiTreeConfig, Store};
use pitree_hb::{HbConfig, HbTree, Point, Rect};
use pitree_pagestore::PageId;
use pitree_sim::crash::{self, Model};
use pitree_sim::SimRng;
use pitree_tsb::{Time, TsbConfig, TsbTree};
use pitree_txnlock::PendingCommit;
use pitree_wal::{InstantRecovery, RecoveryStats};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Per key, every committed version: `(start time, value or tombstone)`.
type VersionModel = BTreeMap<u64, Vec<(Time, Option<Vec<u8>>)>>;

fn key(k: u64) -> Vec<u8> {
    crash::key_bytes(k)
}

fn val(k: u64, tag: &str) -> Vec<u8> {
    format!("{tag}-{k}").into_bytes()
}

/// Forced-commit upsert through the crash oracle's runner (the model
/// records it only when the commit returns, and a commit that returns is
/// durable).
fn insert(tree: &PiTree, model: &mut Model, k: u64, tag: &str) {
    crash::insert(tree, model, k, &val(k, tag)).expect("insert");
}

/// Read every allocated page's logical image through the pool.
fn page_images(cs: &CrashableStore, max_pages: u64) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::new();
    for pid in 0..max_pages {
        let id = PageId(pid);
        if cs
            .store
            .space
            .is_allocated(&cs.store.pool, id)
            .expect("space map")
        {
            let page = cs.store.pool.fetch(id).expect("fetch");
            let g = page.s();
            out.push((pid, g.as_bytes().to_vec()));
        }
    }
    out
}

fn check_model(tree: &PiTree, model: &Model, ctx: &str) {
    crash::check_model(tree, model).unwrap_or_else(|e| panic!("{ctx}: {e}"));
}

/// Build a crash image with committed SMOs (splits + a consolidation), a
/// loser transaction for undo, and dirty pages beyond what eviction
/// happened to write back — then return the pre-crash store + model.
fn crashed_workload() -> (CrashableStore, Model) {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    // A tiny pool: eviction flushes *some* pages, so REDO has real work
    // and pages differ in how far their disk image lags the log.
    let cs = CrashableStore::create(8, 10_000).expect("store");
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).expect("tree");
    let mut model = Model::new();
    for k in 0..40 {
        insert(&tree, &mut model, k, "base");
    }
    for k in (0..40).step_by(3) {
        insert(&tree, &mut model, k, "updated");
    }
    for k in (1..40).step_by(7) {
        crash::delete(&tree, &mut model, k).expect("delete");
    }
    // A loser: logged updates with no commit. The dead machine never
    // cleans it up (forget, not drop — drop would roll back politely).
    let mut loser = tree.begin();
    tree.insert(&mut loser, &key(500), b"loser-uncommitted")
        .expect("loser insert");
    // Force the loser's updates into the durable log (no commit record):
    // recovery must see it and undo it, not lose it with the tail.
    cs.store.log.force_all().expect("force loser tail");
    std::mem::forget(loser);
    drop(tree);
    (cs, model)
}

/// Same crash image, three drain policies, one answer: recover `cs` by
/// synchronous drain, by parallel background REDO, and by traffic-first
/// on-demand REDO, and demand byte-identical page images. `serve` answers
/// every committed read through point lookups (what traffic does while REDO
/// is pending); `verify` additionally validates the whole structure.
fn assert_three_drain_policies_agree<T>(
    cs: &CrashableStore,
    sync: impl Fn(Arc<Store>) -> (T, RecoveryStats),
    instant: impl Fn(Arc<Store>) -> (T, Arc<InstantRecovery>, RecoveryStats),
    serve: impl Fn(&T, &str),
    verify: impl Fn(&T, &str),
) {
    // (a) stop-the-world: the recovering thread drains the whole plan.
    let a = cs.crash().expect("snapshot a");
    let (tree_a, stats_a) = sync(Arc::clone(&a.store));
    assert!(stats_a.redone > 0, "workload left nothing to redo");
    assert!(
        !stats_a.losers.is_empty(),
        "the forced-but-uncommitted loser must be found and undone"
    );
    serve(&tree_a, "synchronous");
    verify(&tree_a, "synchronous");
    drop(tree_a);

    // (b) instant restart, background REDO on 4 workers, no traffic.
    let b = cs.crash().expect("snapshot b");
    let (tree_b, plan_b, stats_b) = instant(Arc::clone(&b.store));
    assert!(
        !stats_b.losers.is_empty(),
        "undo must have run with the redo hook installed"
    );
    plan_b.drive(&b.store.pool, 4).expect("parallel drive");
    assert!(plan_b.is_complete());
    serve(&tree_b, "parallel");
    verify(&tree_b, "parallel");
    drop(tree_b);

    // (c) instant restart, traffic triggers on-demand REDO first, then
    // background workers drain the remainder.
    let c = cs.crash().expect("snapshot c");
    let (tree_c, plan_c, _) = instant(Arc::clone(&c.store));
    serve(&tree_c, "half-recovered store");
    plan_c.drive(&c.store.pool, 2).expect("drain after traffic");
    assert!(plan_c.is_complete());
    serve(&tree_c, "traffic-first");
    verify(&tree_c, "traffic-first");
    drop(tree_c);

    let img_a = page_images(&a, 10_000);
    for (other, name) in [(&b, "parallel"), (&c, "traffic-first")] {
        let img = page_images(other, 10_000);
        assert_eq!(
            img_a.len(),
            img.len(),
            "allocated page sets diverge (synchronous vs {name})"
        );
        for ((pa, ba), (po, bo)) in img_a.iter().zip(img.iter()) {
            assert_eq!(pa, po, "allocated page sets diverge");
            assert_eq!(ba, bo, "page {pa}: synchronous and {name} drains disagree");
        }
    }
}

#[test]
fn sync_parallel_and_traffic_first_drains_agree_byte_for_byte() {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    let (cs, model) = crashed_workload();
    assert_three_drain_policies_agree(
        &cs,
        |store| PiTree::recover(store, 1, cfg).expect("synchronous recover"),
        |store| PiTree::recover_instant(store, 1, cfg).expect("instant recover"),
        |tree, ctx| {
            for (k, v) in &model {
                let got = tree.get_unlocked(&key(*k)).expect("get");
                assert_eq!(got.as_ref(), Some(v), "{ctx}: key {k} served wrong");
            }
        },
        |tree, ctx| check_model(tree, &model, ctx),
    );
}

/// The TSB image: versions spread over current and history nodes by time
/// and key splits, tombstones, and a loser whose version must vanish from
/// every copy a time split made of it.
#[test]
fn tsb_sync_parallel_and_traffic_first_drains_agree_byte_for_byte() {
    let cfg = TsbConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(8, 10_000).expect("store");
    let tree = TsbTree::create(Arc::clone(&cs.store), 2, cfg).expect("tree");
    let mut model = VersionModel::new();
    for round in 0..3u64 {
        for k in 0..24u64 {
            let mut t = tree.begin();
            let v = (k % 5 != round).then(|| val(k, "tsb"));
            let at = match &v {
                Some(v) => tree.put(&mut t, &key(k), v),
                None => tree.delete(&mut t, &key(k)),
            }
            .expect("write version");
            t.commit().expect("commit");
            model.entry(k).or_default().push((at, v));
        }
    }
    let mut loser = tree.begin();
    tree.put(&mut loser, &key(7), b"loser-uncommitted")
        .expect("loser put");
    cs.store.log.force_all().expect("force loser tail");
    std::mem::forget(loser);
    assert!(tree.stats().splits.get() > 0, "workload must split");
    drop(tree);

    assert_three_drain_policies_agree(
        &cs,
        |store| TsbTree::recover(store, 2, cfg).expect("synchronous recover"),
        |store| TsbTree::recover_instant(store, 2, cfg).expect("instant recover"),
        |tree, ctx| {
            for (k, versions) in &model {
                for (at, v) in versions {
                    let got = tree.get_as_of(&key(*k), *at).expect("get_as_of");
                    assert_eq!(&got, v, "{ctx}: key {k} as of {at}");
                }
                let last = versions.last().map(|(_, v)| v.clone());
                assert_eq!(tree.get_current(&key(*k)).expect("get"), last.flatten());
            }
        },
        |tree, ctx| {
            for (k, versions) in &model {
                let got = tree.history(&key(*k)).expect("history");
                assert_eq!(&got, versions, "{ctx}: history of key {k}");
            }
            let report = tree.validate().expect("validate");
            assert!(report.is_well_formed(), "{ctx}: {:?}", report.violations);
        },
    );
}

/// The hB image: point records spread by hyperplane splits, updates and
/// deletes, and a loser insert that recovery removes wherever a split took
/// it.
#[test]
fn hb_sync_parallel_and_traffic_first_drains_agree_byte_for_byte() {
    let cfg = HbConfig::small_nodes(4, 6);
    let cs = CrashableStore::create(8, 10_000).expect("store");
    let tree = HbTree::create(Arc::clone(&cs.store), 3, cfg).expect("tree");
    let mut model: BTreeMap<Point, Vec<u8>> = BTreeMap::new();
    let write = |model: &mut BTreeMap<Point, Vec<u8>>, p: Point, v: Option<Vec<u8>>| {
        let mut t = tree.begin();
        match &v {
            Some(v) => drop(tree.insert(&mut t, &p, v).expect("insert")),
            None => drop(tree.delete(&mut t, &p).expect("delete")),
        }
        t.commit().expect("commit");
        match v {
            Some(v) => drop(model.insert(p, v)),
            None => drop(model.remove(&p)),
        }
    };
    for i in 0..48u64 {
        write(&mut model, [(i * 7) % 16, (i * 5) % 12], Some(val(i, "hb")));
    }
    for i in (0..48u64).step_by(3) {
        write(
            &mut model,
            [(i * 7) % 16, (i * 5) % 12],
            Some(val(i, "upd")),
        );
    }
    for i in (1..48u64).step_by(7) {
        write(&mut model, [(i * 7) % 16, (i * 5) % 12], None);
    }
    let mut loser = tree.begin();
    tree.insert(&mut loser, &[3, 3], b"loser-uncommitted")
        .expect("loser insert");
    cs.store.log.force_all().expect("force loser tail");
    std::mem::forget(loser);
    assert!(
        !model.contains_key(&[3, 3]),
        "the loser's point must be fresh"
    );
    assert!(tree.stats().splits.get() > 0, "workload must split");
    drop(tree);

    assert_three_drain_policies_agree(
        &cs,
        |store| HbTree::recover(store, 3, cfg).expect("synchronous recover"),
        |store| HbTree::recover_instant(store, 3, cfg).expect("instant recover"),
        |tree, ctx| {
            for (p, v) in &model {
                let got = tree.get(p).expect("get");
                assert_eq!(got.as_ref(), Some(v), "{ctx}: point {p:?} served wrong");
            }
            assert_eq!(tree.get(&[3, 3]).expect("get"), None, "{ctx}: loser");
        },
        |tree, ctx| {
            let all = tree.window_query(&Rect::all()).expect("window");
            let want: Vec<(Point, Vec<u8>)> = model.clone().into_iter().collect();
            assert_eq!(all, want, "{ctx}: full-space window query");
            let report = tree.validate().expect("validate");
            assert!(report.is_well_formed(), "{ctx}: {:?}", report.violations);
        },
    );
}

/// The log-bytes trigger takes fuzzy checkpoints inline with commits:
/// the master LSN advances under load with no quiesce, the trigger
/// re-arms (several checkpoints over enough log), and a crash landing
/// after all of that recovers exactly the committed state with analysis
/// seeded from the last checkpoint.
#[test]
fn auto_checkpoint_trigger_advances_master_under_load() {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    let cs = CrashableStore::create(32, 10_000).expect("store");
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).expect("tree");
    let rec = cs.store.recorder().clone();

    cs.store.txns.set_checkpoint_every_bytes(2048);
    let mut model = Model::new();
    for k in 0..120 {
        insert(&tree, &mut model, k % 50, "ckpt");
    }

    let taken = rec.counter("wal.ckpt_taken").get();
    assert!(taken >= 2, "trigger must re-arm (took {taken} checkpoints)");
    assert_eq!(rec.counter("wal.ckpt_failed").get(), 0);
    let master = cs.store.log.store().master();
    assert!(master.0 > 0, "master LSN never advanced");
    assert!(
        cs.store.log.bytes_since_checkpoint() < cs.durable_log_len(),
        "last checkpoint should bound the analysis scan below the full log"
    );

    drop(tree);
    let crashed = cs.crash().expect("snapshot");
    let (tree, stats) = PiTree::recover(Arc::clone(&crashed.store), 1, cfg).expect("recover");
    assert!(
        stats.analysis_start >= master,
        "analysis started at {} but the master checkpoint is {}",
        stats.analysis_start,
        master
    );
    check_model(&tree, &model, "post-checkpoint crash");

    // And the instant path honours the same checkpoint.
    let crashed2 = cs.crash().expect("snapshot 2");
    let (tree2, plan, stats2) =
        PiTree::recover_instant(Arc::clone(&crashed2.store), 1, cfg).expect("instant recover");
    assert!(stats2.analysis_start >= master);
    plan.drive(&crashed2.store.pool, 2).expect("drive");
    check_model(&tree2, &model, "post-checkpoint instant");
}

/// Publish a forced upsert of `k` at version `ver` with a 256-byte value,
/// holding at most 7 commits in flight: the 8th waits for the oldest ack.
fn upsert_pipelined<'t>(
    tree: &'t PiTree,
    window: &mut VecDeque<PendingCommit<'t>>,
    k: u64,
    ver: u64,
) {
    let value = versioned_value(k, ver);
    let (txn, _) = tree
        .autocommit(|t| tree.insert(t, &key(k), &value))
        .expect("upsert");
    window.push_back(txn.commit_publish());
    if window.len() == 8 {
        let oldest = window.pop_front().expect("non-empty window");
        oldest.wait_durable().expect("ack");
    }
}

fn versioned_value(k: u64, ver: u64) -> Vec<u8> {
    let mut v = vec![b'v'; 256];
    v[..8].copy_from_slice(&k.to_be_bytes());
    v[8..16].copy_from_slice(&ver.to_be_bytes());
    v
}

/// The crash image of the first-op gate: 3,000 keys with 256-byte values,
/// a flush + checkpoint fence, 128 KiB of pipelined upserts of random keys,
/// a crash with no loser. Returns the store, every key's committed version
/// and the last key updated.
fn fenced_image_with_upserts() -> (CrashableStore, Vec<u64>, u64) {
    const KEYS: u64 = 3_000;
    const POST_FENCE_BYTES: u64 = 128 << 10;
    let cs = CrashableStore::create(8192, 1 << 20).expect("store");
    let tree = PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::default()).expect("tree");
    let mut versions = vec![0u64; KEYS as usize];
    let mut window = VecDeque::new();
    for k in 0..KEYS {
        upsert_pipelined(&tree, &mut window, k, 0);
    }
    let ack_all = |w: &mut VecDeque<PendingCommit<'_>>| {
        w.drain(..)
            .try_for_each(|c| c.wait_durable().map(drop))
            .expect("ack");
    };
    ack_all(&mut window);
    cs.store.pool.flush_all().expect("flush");
    cs.store.txns.checkpoint().expect("checkpoint");

    let base = cs.store.log.flushed_lsn().0;
    let mut rng = SimRng::new(0x9177 ^ POST_FENCE_BYTES);
    let mut last = 0;
    while cs.store.log.flushed_lsn().0 - base < POST_FENCE_BYTES {
        last = rng.below(KEYS);
        versions[last as usize] += 1;
        upsert_pipelined(&tree, &mut window, last, versions[last as usize]);
    }
    ack_all(&mut window);
    (cs.crash().expect("crash"), versions, last)
}

/// Time to first op is O(analysis + one path), not O(plan): on a crash
/// image whose plan owes well over a hundred pages, one `get` of a key
/// whose leaf the plan owes redoes at least that leaf and at most one page
/// per level plus one, and leaves the rest of the plan to the drain.
#[test]
fn first_op_after_instant_restart_redoes_a_path_not_the_plan() {
    let (crashed, versions, last) = fenced_image_with_upserts();
    let cfg = PiTreeConfig::default();
    let (tree, plan, stats) =
        PiTree::recover_instant(Arc::clone(&crashed.store), 1, cfg).expect("instant recover");
    assert!(stats.losers.is_empty(), "every upsert was acked");
    let on_demand = crashed.store.recorder().counter("recovery.on_demand_redos");
    let owed = plan.pending_page_count();
    let before = on_demand.get();
    let got = tree.get_unlocked(&key(last)).expect("first get");
    let redone = on_demand.get() - before;
    let height = u64::from(tree.height().expect("height"));
    assert_eq!(got, Some(versioned_value(last, versions[last as usize])));
    println!(
        "instant_restart: the first get redid {redone} page(s) on demand (height {height}); \
         the plan owed {owed} pages and holds {} for the drain",
        plan.pending_page_count()
    );
    assert!(
        (1..=height + 1).contains(&redone),
        "the first get redid {redone} pages; its path is {height} pages"
    );
    assert!(
        plan.pending_page_count() >= 100,
        "the plan must still owe the drain its pages"
    );

    plan.drive(&crashed.store.pool, 2).expect("drain");
    assert!(plan.is_complete());
    for (k, ver) in (0..).zip(&versions) {
        let got = tree.get_unlocked(&key(k)).expect("get");
        assert_eq!(got, Some(versioned_value(k, *ver)), "key {k}");
    }
}
