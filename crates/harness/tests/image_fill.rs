//! The image-fill gate: how full the pages of a `multi_struct`-shaped image
//! are, built through the public API the way `benchmark/src/image.rs`'s
//! `build_multi` builds it — one store, default configurations, 60k TSB
//! keys, a time fence, a 10% update wave, then 60k hB points, committed in
//! transactions of 64. `scripts/verify.sh` prints its lines as a named gate.
//!
//! hB data nodes split when the page is full (§3.2.1), so the hB data level
//! must stay at least 60% full.

use pitree::wellformed::fill_line;
use pitree::CrashableStore;
use pitree_hb::{HbConfig, HbTree, Point};
use pitree_pagestore::PAGE_SIZE;
use pitree_tsb::{TsbConfig, TsbTree};
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
            r.current_nodes,
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
    let data = report.levels.last().expect("hb data level");
    assert!(
        data.fill() >= 0.60,
        "hb data nodes {:.1}% full: {}",
        100.0 * data.fill(),
        fill_line(&report.levels)
    );
}
