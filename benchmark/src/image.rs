//! Store images: what a workload's set-up builds before the clock starts.
//!
//! An image is loaded through the real trees over the file-backed store the
//! workloads run on (`Store::open_file`: `FileDisk` + `FileLogStore`, a
//! `sync_data` per force), in transactions of [`LOAD_BATCH`] records behind
//! the usual commit window, and fenced with `flush_all` + checkpoint.
//!
//! The build runs in a child process of the bench binary, so the loader's
//! pool never counts toward the workload's `peak_rss_mb`.

use crate::ops::Pipeline;
use pitree::{PiTree, PiTreeConfig, Store};
use pitree_hb::{HbConfig, HbTree, Point};
use pitree_pagestore::PAGE_SIZE;
use pitree_sim::SimRng;
use pitree_tsb::{TsbConfig, TsbTree};
use std::path::Path;
use std::sync::Arc;

/// Bytes of user data per record: 8-byte key + 16-byte value.
pub const KEY_LEN: usize = 8;
pub const VALUE_LEN: usize = 16;
pub const RECORD_BYTES: u64 = (KEY_LEN + VALUE_LEN) as u64;

/// Keys of the full-size Π-tree image, and keys / points of each tree of
/// the `multi_struct` image; `scale` (the smoke test's) divides them.
pub const FULL_KEYS: u64 = 250_000;
pub const MULTI_KEYS: u64 = 60_000;

/// Post-checkpoint update log of the full-size restart image.
const RESTART_TAIL_BYTES: u64 = 2 << 20;

/// Records per loading transaction: a bulk load, so that a set-up is paced
/// by the trees and not by one log force per eight records (which would
/// make `setup_s` follow the sandbox disk's drift).
const LOAD_BATCH: u64 = 64;

/// Pool frames while loading an image, and for `read_hot`, whose data must
/// fit the cache.
pub const BIG_POOL_FRAMES: usize = 8192;

/// Pool frames of `load_seq`: it starts empty and appends for as long as
/// the run lasts, and none of it may be evicted, or the load turns into
/// `ycsb_a` halfway.
pub const LOAD_POOL_FRAMES: usize = 32768;

/// `max_pages` handed to `Store` (space-map size); far above any image.
pub const MAX_PAGES: u64 = 1 << 22;

/// Side of the hB-tree's attribute space.
pub const HB_SIDE: u64 = 4096;

/// TSB-tree and hB-tree ids in the `multi_struct` store.
pub const TSB_ID: u32 = 1;
pub const HB_ID: u32 = 2;

pub fn key_bytes(k: u64) -> [u8; KEY_LEN] {
    k.to_be_bytes()
}

/// The value of key `k` at version `ver`: the expectation after any run is
/// a pure function of the shadow model's `(key, version)` map.
pub fn value_bytes(k: u64, ver: u64) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    v[..8].copy_from_slice(&k.to_be_bytes());
    v[8..].copy_from_slice(&ver.to_be_bytes());
    v
}

/// The i-th point of the 2-attribute population. The population does not
/// depend on the seed (only the operations do), so every run of
/// `multi_struct` starts from the same image.
pub fn point_for(i: u64) -> Point {
    let mut s = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x2a77;
    let x = pitree_sim::rng::splitmix64(&mut s) % HB_SIDE;
    let y = pitree_sim::rng::splitmix64(&mut s) % HB_SIDE;
    [x, y]
}

/// The ≤ 1%-style pool of the cold workloads: `pages / 128`, floored at 64
/// frames so descents, splits and the shard layout always have room.
pub fn scaled_pool(pages: u64) -> usize {
    (pages / 128).max(64) as usize
}

pub fn data_pages(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("store.db")).map_or(0, |m| m.len()) / PAGE_SIZE as u64
}

/// The files a recovery changes, and where the crash image's originals are
/// kept beside them.
const CRASH_COPIES: [(&str, &str); 2] =
    [("store.db", "crash.db"), ("store.master", "crash.master")];

/// Set aside the crash image in `dir` so that [`restore_crash_image`] can
/// put it back; returns the length of its log.
pub fn save_crash_image(dir: &Path) -> u64 {
    for (live, saved) in CRASH_COPIES {
        std::fs::copy(dir.join(live), dir.join(saved)).expect("save durable file");
    }
    std::fs::metadata(dir.join("store.log"))
        .expect("image log")
        .len()
}

/// Put `dir` back to the crash image after a recovery ran on it. Pages and
/// master are copied back; the log is append-only, so cutting off what the
/// recovery appended restores it without rewriting the load's history.
pub fn restore_crash_image(dir: &Path, log_len: u64) {
    for (live, saved) in CRASH_COPIES {
        std::fs::copy(dir.join(saved), dir.join(live)).expect("restore durable file");
    }
    std::fs::File::options()
        .write(true)
        .open(dir.join("store.log"))
        .and_then(|f| f.set_len(log_len))
        .expect("cut log back to the crash");
}

fn open_for_load(dir: &Path) -> Arc<Store> {
    Store::open_file(dir, BIG_POOL_FRAMES, MAX_PAGES).expect("create image store")
}

/// Flush every dirty page and take a checkpoint: the image fence.
fn fence(store: &Store) {
    store.pool.flush_all().expect("flush image");
    store.txns.checkpoint().expect("checkpoint image");
}

/// Every `step`-th number below `n`, cut into loading transactions.
fn batches(n: u64, step: u64) -> impl Iterator<Item = impl Iterator<Item = u64>> {
    let span = step * LOAD_BATCH;
    (0..n)
        .step_by(span as usize)
        .map(move |lo| (lo..(lo + span).min(n)).step_by(step as usize))
}

/// Load keys `0..keys` at version 0.
fn load_pi(tree: &PiTree, keys: u64) {
    let mut pipe = Pipeline::new();
    for batch in batches(keys, 1) {
        let mut txn = tree.begin();
        for k in batch {
            tree.insert(&mut txn, &key_bytes(k), &value_bytes(k, 0))
                .expect("load insert");
        }
        pipe.push_windowed(txn.commit_publish());
    }
    pipe.drain();
}

/// `FULL_KEYS / scale` sequential keys at version 0, fenced. Returns the
/// page count.
pub fn build_pi(dir: &Path, scale: u64) -> u64 {
    let store = open_for_load(dir);
    let tree = PiTree::create(Arc::clone(&store), 1, PiTreeConfig::default()).expect("tree");
    load_pi(&tree, FULL_KEYS / scale);
    fence(&store);
    data_pages(dir)
}

/// The sequence of keys the restart image's post-checkpoint updates hit:
/// shared by the builder (child process) and the shadow model (parent).
pub fn restart_update_keys(seed: u64, keys: u64) -> impl FnMut() -> u64 {
    let mut rng = SimRng::new(seed ^ 0x9177_c0de);
    move || rng.below(keys)
}

/// The `build_pi` image plus `RESTART_TAIL_BYTES / scale` of acked
/// post-checkpoint update log, then a crash: the store is dropped without a
/// flush, so the dirty pages in its pool are lost and only what was
/// written back and forced is in the files. Returns the number of updates.
pub fn build_restart(dir: &Path, scale: u64, seed: u64) -> u64 {
    let (keys, tail_bytes) = (FULL_KEYS / scale, RESTART_TAIL_BYTES / scale);
    let store = open_for_load(dir);
    let tree = PiTree::create(Arc::clone(&store), 1, PiTreeConfig::default()).expect("tree");
    load_pi(&tree, keys);
    fence(&store);
    let base = store.log.flushed_lsn().0;
    let mut versions = vec![0u64; keys as usize];
    let mut next_key = restart_update_keys(seed, keys);
    let mut pipe = Pipeline::new();
    let mut updates = 0;
    while store.log.flushed_lsn().0 - base < tail_bytes {
        let mut txn = tree.begin();
        for _ in 0..LOAD_BATCH {
            let k = next_key();
            versions[k as usize] += 1;
            tree.insert(
                &mut txn,
                &key_bytes(k),
                &value_bytes(k, versions[k as usize]),
            )
            .expect("tail update");
        }
        pipe.push_windowed(txn.commit_publish());
        updates += LOAD_BATCH;
    }
    pipe.drain();
    updates
}

/// One store hosting a TSB-tree (`keys` keys, a time fence, then a 10%
/// update wave) and an hB-tree (`keys` points), fenced. Returns the TSB
/// fence time.
pub fn build_multi(dir: &Path, scale: u64) -> u64 {
    let keys = MULTI_KEYS / scale;
    let store = open_for_load(dir);
    let tsb = TsbTree::create(Arc::clone(&store), TSB_ID, TsbConfig::default()).expect("tsb");
    let hb = HbTree::create(Arc::clone(&store), HB_ID, HbConfig::default()).expect("hb");
    let mut pipe = Pipeline::new();
    for batch in batches(keys, 1) {
        let mut txn = tsb.begin();
        for k in batch {
            tsb.put(&mut txn, &key_bytes(k), &value_bytes(k, 0))
                .expect("tsb load");
        }
        pipe.push_windowed(txn.commit_publish());
    }
    pipe.drain();
    let t_past = tsb.now();
    for batch in batches(keys, 10) {
        let mut txn = tsb.begin();
        for k in batch {
            tsb.put(&mut txn, &key_bytes(k), &value_bytes(k, 1))
                .expect("tsb update wave");
        }
        pipe.push_windowed(txn.commit_publish());
    }
    for batch in batches(keys, 1) {
        let mut txn = hb.begin();
        for i in batch {
            hb.insert(&mut txn, &point_for(i), &value_bytes(i, 0))
                .expect("hb load");
        }
        pipe.push_windowed(txn.commit_publish());
    }
    pipe.drain();
    drop(pipe);
    fence(&store);
    t_past
}
