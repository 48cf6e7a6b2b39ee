//! The image-fill gate: how full the pages of a `multi_struct`-shaped image
//! are, built through the public API the way `benchmark/src/image.rs`'s
//! `build_multi` builds it — one store, default configurations, 60k TSB
//! keys, a time fence, a 10% update wave, then 60k hB points, committed in
//! transactions of 64. `scripts/verify.sh` prints its lines as a named gate.
//!
//! hB data nodes split when the page is full (§3.2.1), so the hB data level
//! must stay at least 60% full.
//!
//! The prefix gate (`scripts/verify.sh` prints its `prefix:` lines) pins
//! what keyed pages pay per entry now that they store key suffixes after
//! the prefix their first and last keys share.
//!
//! The log-table gate (`scripts/verify.sh` prints its `log_table:` lines)
//! prints both images' log byte tables — records and bytes per record kind
//! × redo `PageOp` × undo kind, from a scan of the log — and pins their
//! totals. Neither image may log a `FullImage`: every page an image formats
//! is fresh, so its `Format` undoes with a `Format`.

use pitree::wellformed::{fill_line, LevelFill};
use pitree::{CrashableStore, PiTree, PiTreeConfig};
use pitree_hb::{HbConfig, HbTree, Point};
use pitree_pagestore::PAGE_SIZE;
use pitree_tsb::{TsbConfig, TsbTree};
use pitree_wal::ByteTable;
use std::sync::Arc;

/// Keys of the TSB-tree and points of the hB-tree (`MULTI_KEYS`).
const KEYS: u64 = 60_000;
/// Records per loading transaction (`LOAD_BATCH`).
const BATCH: u64 = 64;
/// User bytes per record: 8-byte key + 16-byte value.
const RECORD_BYTES: u64 = 24;
/// Side of the hB-tree's attribute space (`HB_SIDE`).
const HB_SIDE: u64 = 4096;

fn value(k: u64, ver: u64) -> [u8; 16] {
    let mut v = [0u8; 16];
    v[..8].copy_from_slice(&k.to_be_bytes());
    v[8..].copy_from_slice(&ver.to_be_bytes());
    v
}

/// The benchmark's i-th point (`point_for`).
fn point(i: u64) -> Point {
    let mut s = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x2a77;
    let x = pitree_sim::rng::splitmix64(&mut s) % HB_SIDE;
    let y = pitree_sim::rng::splitmix64(&mut s) % HB_SIDE;
    [x, y]
}

/// Every `step`-th number below `KEYS`, cut into loading transactions.
fn batches(step: u64) -> impl Iterator<Item = impl Iterator<Item = u64>> {
    let span = step * BATCH;
    (0..KEYS)
        .step_by(span as usize)
        .map(move |lo| (lo..(lo + span).min(KEYS)).step_by(step as usize))
}

#[test]
fn multi_struct_image_keeps_hb_data_nodes_full() {
    let cs = CrashableStore::create(8192, 1 << 22).expect("store");
    let store = &cs.store;
    let tsb = TsbTree::create(Arc::clone(store), 1, TsbConfig::default()).expect("tsb");
    let hb = HbTree::create(Arc::clone(store), 2, HbConfig::default()).expect("hb");
    let tsb_line = |when: &str| {
        let r = tsb.validate().expect("validate tsb");
        assert!(r.is_well_formed(), "tsb {when}: {:?}", r.violations);
        format!(
            "tsb {when} ({} current, {} history nodes): {}",
            r.levels.last().expect("tsb data level").nodes,
            r.history_nodes,
            fill_line(&r.levels)
        )
    };

    for batch in batches(1) {
        let mut txn = tsb.begin();
        for k in batch {
            tsb.put(&mut txn, &k.to_be_bytes(), &value(k, 0))
                .expect("tsb load");
        }
        txn.commit().expect("commit");
    }
    let loaded = tsb_line("after load");
    for batch in batches(10) {
        let mut txn = tsb.begin();
        for k in batch {
            tsb.put(&mut txn, &k.to_be_bytes(), &value(k, 1))
                .expect("tsb update wave");
        }
        txn.commit().expect("commit");
    }
    let waved = tsb_line("after the 10% wave");
    for batch in batches(1) {
        let mut txn = hb.begin();
        for i in batch {
            hb.insert(&mut txn, &point(i), &value(i, 0))
                .expect("hb load");
        }
        txn.commit().expect("commit");
    }
    while hb.pending_posts() > 0 {
        hb.run_completions().expect("hb completions");
    }

    let report = hb.validate().expect("validate hb");
    assert!(report.is_well_formed(), "hb: {:?}", report.violations);
    let pages = store.space.allocated_count(&store.pool).expect("count");
    let user_bytes = (KEYS + KEYS / 10 + report.records as u64) * RECORD_BYTES;
    let tsb_report = tsb.validate().expect("validate tsb");
    let (tsb_entry, hb_entry) = (
        per_entry(&tsb_report.levels, tsb_report.records),
        per_entry(&report.levels, report.records),
    );
    println!(
        "prefix: multi image: tsb data nodes {tsb_entry:.2} bytes per version, hb data nodes {hb_entry:.2} bytes per record"
    );
    println!("image_fill: {loaded}");
    println!("image_fill: {waved}");
    println!(
        "image_fill: hb ({} points): {}",
        report.records,
        fill_line(&report.levels)
    );
    println!(
        "image_fill: {pages} pages, {:.3} page bytes per user byte",
        (pages * PAGE_SIZE as u64) as f64 / user_bytes as f64
    );
    // A TSB version is a 16-byte key (user key ‖ start time) and a 16-byte
    // value, an hB record two 8-byte coordinates and a 16-byte value: each
    // pays its slot and two length bytes, less the key bytes its page's
    // prefix holds (33.23 and 32.40 with a 4-byte slot and a 2-byte klen).
    assert!(tsb_entry <= 31.3, "{tsb_entry:.2} tsb bytes per version");
    assert!(hb_entry <= 30.5, "{hb_entry:.2} hb bytes per record");
    assert_eq!(log_table(&cs, "multi"), (147_357, 22_131_144));
    let data = report.levels.last().expect("hb data level");
    assert!(
        data.fill() >= 0.60,
        "hb data nodes {:.1}% full: {}",
        100.0 * data.fill(),
        fill_line(&report.levels)
    );
}

/// Print `image`'s log byte table as `log_table:` lines, check it holds no
/// `FullImage`, and return its `(records, bytes)` total.
fn log_table(cs: &CrashableStore, image: &str) -> (u64, u64) {
    let table = ByteTable::of(cs.store.log.scan(None)).expect("scan the log");
    for line in table.to_string().lines() {
        println!("log_table: {image}: {line}");
    }
    assert_eq!(
        table.sum(|r| r.redo == "FullImage" || r.undo == "FullImage"),
        (0, 0),
        "the {image} image logged a page's full image"
    );
    table.sum(|_| true)
}

/// Page bytes the data level (the last of `levels`) uses per entry it
/// holds: slots, records, node headers and key prefixes.
fn per_entry(levels: &[LevelFill], entries: usize) -> f64 {
    let data = levels.last().expect("a data level");
    data.used_bytes as f64 / entries as f64
}

/// The prefix gate, byte-exact: `benchmark/src/image.rs`'s `build_pi` image
/// at 50k keys — ascending 8-byte big-endian keys, 16-byte values, 64
/// records per transaction, the default configuration. A leaf entry stores
/// only what its key does not share with the leaf's first and last keys: a
/// 24-byte record costs about 22 bytes (slot 2, key and value lengths 1
/// each, a 2-byte key suffix, value 16), and the image less than its user
/// bytes.
#[test]
fn sequential_image_pays_for_key_suffixes_only() {
    const PI_KEYS: u64 = 50_000;
    let cs = CrashableStore::create(8192, 1 << 22).expect("store");
    let store = &cs.store;
    let tree = PiTree::create(Arc::clone(store), 1, PiTreeConfig::default()).expect("tree");
    for lo in (0..PI_KEYS).step_by(BATCH as usize) {
        let mut txn = tree.begin();
        for k in lo..(lo + BATCH).min(PI_KEYS) {
            tree.insert(&mut txn, &k.to_be_bytes(), &value(k, 0))
                .expect("load");
        }
        txn.commit().expect("commit");
    }
    while !tree.completions().is_empty() {
        tree.run_completions().expect("completions");
    }
    let report = tree.validate().expect("validate");
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records as u64, PI_KEYS);
    let leaf = per_entry(&report.levels, report.records);
    let pages = store.space.allocated_count(&store.pool).expect("count");
    let ratio = (pages * PAGE_SIZE as u64) as f64 / (PI_KEYS * RECORD_BYTES) as f64;
    println!(
        "prefix: {PI_KEYS} sequential keys: leaves {leaf:.2} bytes per entry, {pages} pages, \
         {ratio:.4} page bytes per user byte ({})",
        fill_line(&report.levels)
    );
    assert!(leaf <= 22.0, "{leaf:.2} leaf bytes per entry");
    assert!(ratio <= 0.95, "{ratio:.4} page bytes per user byte");
    assert_eq!(log_table(&cs, "pi"), (54_570, 4_131_337));
}
