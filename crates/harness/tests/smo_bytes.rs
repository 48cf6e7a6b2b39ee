//! The SMO byte golden: structure changes write the bytes they always did.
//!
//! Each script runs one structure single-threaded through every kind of
//! structure change it has — splits, root growth, postings that split their
//! parent, consolidations, aborts, one loser — then crashes and recovers,
//! serves every key once (which detects and completes what the crash left
//! unposted), and forces the log. The test pins four values: the durable
//! log length, a hash of the durable log bytes, a hash of every allocated
//! page image, and a hash of the same images without their LSN field. It
//! also pins the per-structure SMO counters before the crash and after
//! recovery. A refactor of the drivers that moves one log byte or one page
//! byte fails here. A change to what the log writes moves the first three
//! (page LSNs are log offsets) and must leave the content hash alone.
//!
//! The pool holds every page the scripts touch, so no eviction happens and
//! the bytes depend only on what the structure changes log.

use pitree::{CrashableStore, PiTree, PiTreeConfig, TreeStats};
use pitree_hb::{HbConfig, HbTree, Point};
use pitree_pagestore::PageId;
use pitree_tsb::{TsbConfig, TsbTree};
use std::sync::Arc;

const POOL: usize = 4096;
const MAX_PAGES: u64 = 100_000;

/// What a script pins.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    log_len: u64,
    log_hash: u64,
    page_hash: u64,
    /// A hash of the same page images without their LSN field: what the
    /// pages hold, apart from where in the log their last update sits.
    content_hash: u64,
    /// `[splits, root_grows, splits_independent, postings_done, postings_noop]`
    /// before the crash.
    before: [u64; 5],
    /// The same counters of the recovered tree, after it served every key.
    after: [u64; 5],
}

/// FNV-1a, 64 bits: stable across toolchains, unlike `DefaultHasher`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// The page LSN: the first eight bytes of every page image.
const LSN_BYTES: usize = 8;

fn counters(s: &TreeStats) -> [u64; 5] {
    [
        s.splits.get(),
        s.root_grows.get(),
        s.splits_independent.get(),
        s.postings_done.get(),
        s.postings_noop.get(),
    ]
}

/// Force the log, then hash it and every allocated page image.
fn seal(cs: &CrashableStore, before: [u64; 5], after: [u64; 5]) -> Golden {
    cs.store.log.force_all().expect("force");
    let log = cs.store.log.store().durable_bytes().expect("log bytes");
    let mut log_hash = FNV_START;
    fnv(&mut log_hash, &log);
    let mut page_hash = FNV_START;
    let mut content_hash = FNV_START;
    let space = &cs.store.space;
    let mut left = space.allocated_count(&cs.store.pool).expect("space map");
    for pid in 0.. {
        if left == 0 {
            break;
        }
        let id = PageId(pid);
        if space.is_allocated(&cs.store.pool, id).expect("space map") {
            left -= 1;
            let page = cs.store.pool.fetch(id).expect("fetch");
            let g = page.s();
            fnv(&mut page_hash, &pid.to_le_bytes());
            fnv(&mut page_hash, g.as_bytes());
            fnv(&mut content_hash, &pid.to_le_bytes());
            fnv(&mut content_hash, &g.as_bytes()[LSN_BYTES..]);
        }
    }
    Golden {
        log_len: log.len() as u64,
        log_hash,
        page_hash,
        content_hash,
        before,
        after,
    }
}

fn key(k: u64) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

fn val(k: u64, tag: &str) -> Vec<u8> {
    format!("{tag}-{k}").into_bytes()
}

/// Scattered but fixed: a permutation of `0..n` for `n` coprime to 37.
fn scattered(n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| (i * 37) % n)
}

// ---- B-link -----------------------------------------------------------------

fn blink_put(tree: &PiTree, k: u64, tag: &str) {
    let mut t = tree.begin();
    tree.insert(&mut t, &key(k), &val(k, tag)).expect("insert");
    t.commit().expect("commit");
}

fn blink_del(tree: &PiTree, k: u64) {
    let mut t = tree.begin();
    tree.delete(&mut t, &key(k)).expect("delete");
    t.commit().expect("commit");
}

fn blink_drain(tree: &PiTree) {
    while !tree.completions().is_empty() {
        tree.run_completions().expect("completions");
    }
}

/// Keys are multiples of 10, so a second transaction can land keys between
/// them in the same leaf.
fn blink_script(cfg: PiTreeConfig) -> Golden {
    let cs = CrashableStore::create(POOL, MAX_PAGES).expect("store");
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).expect("tree");
    // An ascending run (append splits, root growth, postings that split
    // their parent), then a scattered wave (middle splits).
    for k in 0..96 {
        blink_put(&tree, k * 10, "asc");
    }
    for k in scattered(96) {
        blink_put(&tree, 2000 + k * 10, "wave");
    }
    blink_drain(&tree);
    // An aborted transaction that updated one leaf several times: under
    // page-oriented UNDO its later inserts split that leaf inside the
    // transaction, and the abort rolls the split back.
    let mut t = tree.begin();
    for k in 0..9 {
        tree.insert(&mut t, &key(5000 + k * 10), b"aborted")
            .expect("insert");
    }
    t.abort(Some(&tree.undo_handler())).expect("abort");
    if cfg.undo == pitree::UndoPolicy::Logical {
        // A delete whose compensation needs a split: the ascending run left
        // [300, 310, 320] in one leaf; other transactions refill it while
        // the deletes are pending, so the re-insert finds it full.
        let mut a = tree.begin();
        for k in [300, 310] {
            tree.delete(&mut a, &key(k)).expect("delete");
        }
        for k in 301..304 {
            blink_put(&tree, k, "between");
        }
        let d = tree.descend(&key(310), 0, false, false).expect("descend");
        assert_eq!(d.guard.page().entry_count(), 4, "the leaf must be full");
        drop(d);
        a.abort(Some(&tree.undo_handler())).expect("abort");
    }
    // Thin the ascending run out: under CP its leaves consolidate.
    for k in (0..96).filter(|k| k % 6 != 0) {
        blink_del(&tree, k * 10);
    }
    blink_drain(&tree);
    // The loser: forced, never committed.
    let mut loser = tree.begin();
    for k in 0..7 {
        tree.insert(&mut loser, &key(7000 + k * 10), b"loser")
            .expect("loser insert");
    }
    cs.store.log.force_all().expect("force loser");
    std::mem::forget(loser);
    let before = counters(tree.stats());
    if cfg.consolidation.couples_latches() {
        assert!(tree.stats().consolidations.get() > 0, "CP must consolidate");
    }
    if cfg.undo == pitree::UndoPolicy::PageOriented {
        assert!(
            tree.stats().splits_in_txn.get() > 0,
            "no in-transaction split"
        );
    }
    drop(tree);

    let survivor = cs.crash().expect("crash");
    let (tree, stats) = PiTree::recover(Arc::clone(&survivor.store), 1, cfg).expect("recover");
    assert!(!stats.losers.is_empty(), "the loser must be undone");
    for k in 0..8000 {
        tree.get_unlocked(&key(k)).expect("get");
    }
    blink_drain(&tree);
    let report = tree.validate().expect("validate");
    assert!(report.is_well_formed(), "{:?}", report.violations);
    let after = counters(tree.stats());
    drop(tree);
    seal(&survivor, before, after)
}

#[test]
fn blink_logical_cp_bytes_are_pinned() {
    let cfg = PiTreeConfig::small_nodes(4, 4);
    assert_eq!(blink_script(cfg), BLINK_LOGICAL_CP);
}

#[test]
fn blink_logical_cp_not_an_update_bytes_are_pinned() {
    let mut cfg = PiTreeConfig::small_nodes(4, 4);
    cfg.consolidation = pitree::ConsolidationPolicy::Enabled {
        dealloc: pitree::DeallocPolicy::NotAnUpdate,
    };
    assert_eq!(blink_script(cfg), BLINK_LOGICAL_CP_NOT_AN_UPDATE);
}

#[test]
fn blink_page_oriented_cp_bytes_are_pinned() {
    let cfg = PiTreeConfig::small_nodes(4, 4).page_oriented();
    assert_eq!(blink_script(cfg), BLINK_PAGE_ORIENTED_CP);
}

#[test]
fn blink_logical_cns_bytes_are_pinned() {
    let cfg = PiTreeConfig {
        max_leaf_entries: 4,
        max_index_entries: 4,
        auto_complete: false,
        ..PiTreeConfig::cns()
    };
    assert_eq!(blink_script(cfg), BLINK_LOGICAL_CNS);
}

#[test]
fn blink_page_oriented_cns_bytes_are_pinned() {
    let cfg = PiTreeConfig {
        max_leaf_entries: 4,
        max_index_entries: 4,
        ..PiTreeConfig::cns().page_oriented()
    };
    assert_eq!(blink_script(cfg), BLINK_PAGE_ORIENTED_CNS);
}

// ---- TSB ----------------------------------------------------------------------

fn tsb_put(tree: &TsbTree, k: u64, tag: &str) {
    let mut t = tree.begin();
    tree.put(&mut t, &key(k), &val(k, tag)).expect("put");
    t.commit().expect("commit");
}

fn tsb_script(cfg: TsbConfig) -> Golden {
    let cs = CrashableStore::create(POOL, MAX_PAGES).expect("store");
    let tree = TsbTree::create(Arc::clone(&cs.store), 2, cfg).expect("tree");
    // One key, many versions: the data root time-splits before it ever
    // key-splits.
    for round in 0..6 {
        tsb_put(&tree, 7, &format!("v{round}"));
    }
    // Many keys: key splits, root growth, postings that split index nodes.
    for k in scattered(160) {
        tsb_put(&tree, k, "base");
    }
    // A version wave over half the keys: time splits of current nodes.
    for k in (0..160).step_by(2) {
        tsb_put(&tree, k, "wave");
    }
    // Tombstones.
    for k in (0..160).step_by(9) {
        let mut t = tree.begin();
        tree.delete(&mut t, &key(k)).expect("delete");
        t.commit().expect("commit");
    }
    // An aborted transaction: its versions are removed wherever they went.
    let mut t = tree.begin();
    for k in 40..52 {
        tree.put(&mut t, &key(k), b"aborted").expect("put");
    }
    t.abort(Some(&tree.undo_handler())).expect("abort");
    tree.run_completions().expect("completions");
    // The loser.
    let mut loser = tree.begin();
    for k in 100..106 {
        tree.put(&mut loser, &key(k), b"loser").expect("loser put");
    }
    cs.store.log.force_all().expect("force loser");
    std::mem::forget(loser);
    let before = counters(tree.stats());
    drop(tree);

    let survivor = cs.crash().expect("crash");
    let (tree, stats) = TsbTree::recover(Arc::clone(&survivor.store), 2, cfg).expect("recover");
    assert!(!stats.losers.is_empty(), "the loser must be undone");
    for k in 0..170 {
        tree.get_current(&key(k)).expect("get");
    }
    while !tree.completions().is_empty() {
        tree.run_completions().expect("completions");
    }
    let report = tree.validate().expect("validate");
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert!(report.history_nodes > 0, "no time split");
    let after = counters(tree.stats());
    drop(tree);
    seal(&survivor, before, after)
}

#[test]
fn tsb_bytes_are_pinned() {
    assert_eq!(tsb_script(TsbConfig::small_nodes(4, 4)), TSB);
}

#[test]
fn tsb_deferred_completions_bytes_are_pinned() {
    let cfg = TsbConfig {
        auto_complete: false,
        ..TsbConfig::small_nodes(6, 3)
    };
    assert_eq!(tsb_script(cfg), TSB_DEFERRED);
}

// ---- hB -----------------------------------------------------------------------

/// A fixed pseudo-random point sequence (an LCG; no simulation-kit RNG, so
/// the bytes do not depend on it either): a dense horizontal band mixed
/// with scattered points, whose child regions straddle balanced index cuts
/// and so get clipped.
fn points(n: u64) -> Vec<Point> {
    let mut s: u64 = 0x5eed_0001;
    let mut next = move |m: u64| {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (s >> 33) % m
    };
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                [next(1000) * 97, next(50)]
            } else {
                [next(100_000), next(100_000)]
            }
        })
        .collect()
}

fn hb_script(cfg: HbConfig) -> Golden {
    let cs = CrashableStore::create(POOL, MAX_PAGES).expect("store");
    let tree = HbTree::create(Arc::clone(&cs.store), 3, cfg).expect("tree");
    let pts = points(600);
    for (i, p) in pts.iter().enumerate() {
        let mut t = tree.begin();
        tree.insert(&mut t, p, format!("p{i}").as_bytes())
            .expect("insert");
        t.commit().expect("commit");
    }
    // Updates and deletes.
    for p in pts.iter().step_by(5) {
        let mut t = tree.begin();
        tree.insert(&mut t, p, b"updated").expect("update");
        t.commit().expect("commit");
    }
    for p in pts.iter().skip(1).step_by(7) {
        let mut t = tree.begin();
        tree.delete(&mut t, p).expect("delete");
        t.commit().expect("commit");
    }
    // An aborted transaction whose delete's compensation needs a split:
    // other transactions refill the data node while the delete is pending.
    let mut t = tree.begin();
    for i in 0..10u64 {
        tree.insert(&mut t, &[2000 + i, 3 * i], b"aborted")
            .expect("insert");
    }
    let gone = pts[0];
    tree.delete(&mut t, &gone).expect("delete");
    for dy in 1..50 {
        let full = {
            let d = tree.descend(&gone, 0, false, false).expect("descend");
            d.guard.page().entry_count() as usize >= cfg.max_records
        };
        if full {
            break;
        }
        let mut f = tree.begin();
        tree.insert(&mut f, &[gone[0], gone[1] + dy], b"filler")
            .expect("insert");
        f.commit().expect("commit");
    }
    t.abort(Some(&tree.undo_handler())).expect("abort");
    tree.run_completions().expect("completions");
    // The loser.
    let mut loser = tree.begin();
    for i in 0..6u64 {
        tree.insert(&mut loser, &[5000 + i, i], b"loser")
            .expect("loser insert");
    }
    cs.store.log.force_all().expect("force loser");
    std::mem::forget(loser);
    let before = counters(tree.stats());
    drop(tree);

    let survivor = cs.crash().expect("crash");
    let (tree, stats) = HbTree::recover(Arc::clone(&survivor.store), 3, cfg).expect("recover");
    assert!(!stats.losers.is_empty(), "the loser must be undone");
    for p in &pts {
        tree.get(p).expect("get");
    }
    while !tree.completions().is_empty() {
        tree.run_completions().expect("completions");
    }
    let report = tree.validate().expect("validate");
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert!(report.multi_parent_nodes > 0, "no clipping");
    let after = counters(tree.stats());
    drop(tree);
    seal(&survivor, before, after)
}

#[test]
fn hb_bytes_are_pinned() {
    assert_eq!(hb_script(HbConfig::small_nodes(6, 6)), HB);
}

#[test]
fn hb_deferred_completions_bytes_are_pinned() {
    let cfg = HbConfig {
        auto_complete: false,
        ..HbConfig::small_nodes(6, 5)
    };
    assert_eq!(hb_script(cfg), HB_DEFERRED);
}

// ---- the constants, captured at the parent of the engine's drivers ----------
//
// Page and content hashes re-captured when a record began to carry its own
// lengths (a 2-byte slot of offset only; key and payload lengths as
// varints, one byte each below 128). Every page image is laid out anew.
// The log hashes moved only for the three CP configurations, whose
// consolidations log the freed page's full before-image (the same number
// of `FullImage` records, the same length). No log length and no SMO
// counter moved: entry caps, not bytes, fill these scripts' nodes.
//
// Re-captured when keyed pages began to store key suffixes after the prefix
// their first and last keys share (18-byte page header, keyed flag, prefix
// at the page end). Every page hash moved: the images are laid out anew.
// The log hashes moved only for the three CP configurations, whose
// consolidations log the freed page's full before-image. No log length and
// no SMO counter moved: entry caps, not bytes, fill these scripts' nodes.
//
// Log lengths, log hashes and page hashes re-captured when a structure
// change began to log each entry move as one range record
// (`KeyedInsertMany` / `KeyedRemoveMany`) and a `Format` of a fresh page
// began to log a `Format` as its undo instead of the 4 KB image. The
// content hashes were captured on the commit before that change and did
// not move: pages land the same bytes. No SMO counter moved.

const BLINK_LOGICAL_CP: Golden = Golden {
    log_len: 150_618,
    log_hash: 0x2110de7d3f55dedb,
    page_hash: 0x89d6a284642a2b45,
    content_hash: 0x32ac1ac2991cf644,
    before: [98, 4, 68, 94, 0],
    after: [0, 0, 0, 0, 0],
};
const BLINK_LOGICAL_CP_NOT_AN_UPDATE: Golden = Golden {
    log_len: 104_693,
    log_hash: 0x0f67514ad9f8d76d,
    page_hash: 0x531d47e87ed0e3f3,
    content_hash: 0x32ac1ac2991cf644,
    before: [98, 4, 68, 94, 0],
    after: [0, 0, 0, 0, 0],
};
const BLINK_PAGE_ORIENTED_CP: Golden = Golden {
    log_len: 159_739,
    log_hash: 0x499f708830823289,
    page_hash: 0x53918ac53b8b5a00,
    content_hash: 0x0a8b3264e2aad6f1,
    before: [95, 4, 63, 87, 0],
    after: [0, 0, 0, 0, 0],
};
const BLINK_LOGICAL_CNS: Golden = Golden {
    log_len: 97_272,
    log_hash: 0xe1bcee42e3966a62,
    page_hash: 0xf46c26fb7e015b9e,
    content_hash: 0x6ef83fa41977b0f3,
    before: [98, 4, 68, 93, 0],
    after: [0, 0, 0, 1, 0],
};
const BLINK_PAGE_ORIENTED_CNS: Golden = Golden {
    log_len: 93_586,
    log_hash: 0xbdb3c07453e6ba8c,
    page_hash: 0xd515a4af328c5348,
    content_hash: 0x7e6d91ab78ec0104,
    before: [95, 4, 63, 87, 0],
    after: [0, 0, 0, 0, 0],
};
const TSB: Golden = Golden {
    log_len: 139_904,
    log_hash: 0x7de0839269f7f9cc,
    page_hash: 0xb38ce2c3483180aa,
    content_hash: 0x929918b4db86d53f,
    before: [128, 4, 96, 116, 0],
    after: [0, 0, 0, 0, 0],
};
const TSB_DEFERRED: Golden = Golden {
    log_len: 147_243,
    log_hash: 0x62ee7d97c8ecd951,
    page_hash: 0x2c064f6493c5bdb7,
    content_hash: 0xe04c9ffe3a7637de,
    before: [101, 2, 70, 65, 0],
    after: [37, 4, 0, 63, 0],
};
const HB: Golden = Golden {
    log_len: 478_962,
    log_hash: 0x32fc609cdbea0657,
    page_hash: 0x45f068c52d0f5dac,
    content_hash: 0xd9f709cf7fd41d63,
    before: [444, 11, 148, 419, 13],
    after: [0, 0, 0, 1, 0],
};
const HB_DEFERRED: Golden = Golden {
    log_len: 409_910,
    log_hash: 0x37bd582bcb1d83bd,
    page_hash: 0x69ee1ec48c2064a1,
    content_hash: 0xb3b7160ef9d32796,
    before: [245, 2, 148, 145, 133],
    after: [92, 6, 0, 184, 0],
};

// ---- the log format -----------------------------------------------------------

/// A workload that never splits a node, over all three structures: every
/// record it logs carries whole keys and entries, so its durable log must be
/// the bytes it was before keyed pages stored key suffixes. Pins "the log
/// format did not change" (captured at the commit before prefix
/// truncation; re-captured when the `Format` of each tree's fresh root page
/// began to log a `Format` as its undo instead of the page's 4 KB image —
/// no user record changed).
#[test]
fn unsplit_script_logs_the_parents_bytes() {
    let cs = CrashableStore::create(POOL, MAX_PAGES).expect("store");
    // No consolidation: its trigger reads page fill, which the codec changed.
    let pi = PiTree::create(Arc::clone(&cs.store), 1, PiTreeConfig::cns()).expect("pi");
    let tsb = TsbTree::create(Arc::clone(&cs.store), 2, TsbConfig::default()).expect("tsb");
    let hb = HbTree::create(Arc::clone(&cs.store), 3, HbConfig::default()).expect("hb");
    for k in 0..40 {
        blink_put(&pi, k * 3, "load");
    }
    for k in (0..40).step_by(4) {
        blink_put(&pi, k * 3, "update");
    }
    for k in (1..40).step_by(8) {
        blink_del(&pi, k * 3);
    }
    let mut t = pi.begin();
    for k in [1, 200, 400] {
        pi.insert(&mut t, &key(k), b"aborted").expect("insert");
    }
    t.abort(Some(&pi.undo_handler())).expect("abort");
    for round in 0..3 {
        for k in 0..10 {
            tsb_put(&tsb, k, &format!("v{round}"));
        }
    }
    for (i, p) in points(30).iter().enumerate() {
        let mut t = hb.begin();
        hb.insert(&mut t, p, format!("p{i}").as_bytes())
            .expect("insert");
        t.commit().expect("commit");
    }
    for s in [pi.stats(), tsb.stats(), hb.stats()] {
        assert_eq!(s.splits.get(), 0, "the script must not split");
    }
    cs.store.log.force_all().expect("force");
    let log = cs.store.log.store().durable_bytes().expect("log bytes");
    let mut log_hash = FNV_START;
    fnv(&mut log_hash, &log);
    assert_eq!((log.len(), log_hash), (UNSPLIT_LOG_LEN, UNSPLIT_LOG_HASH));
}

const UNSPLIT_LOG_LEN: usize = 16_215;
const UNSPLIT_LOG_HASH: u64 = 0xb77903d3ed56b2af;
