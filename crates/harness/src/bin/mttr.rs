//! MTTR (mean time to repair) benchmark: crash the **file-backed** store
//! with ~K MB of log written since the last fuzzy checkpoint, then
//! measure how long a restart takes to answer its first query under two
//! drain policies of the one REDO engine (both restarts run analysis,
//! install the per-page redo plan and undo losers; they differ in who
//! drains the plan, and when):
//!
//! - **Stop-the-world** (`PiTree::recover`): the recovering thread
//!   drains the whole plan — every page touched since the checkpoint —
//!   and only then serves the first get. Time-to-first-op is O(log
//!   since checkpoint) *page fetches*: the updates are spread over far
//!   more leaves than the restart pool has frames, so the drain pays a
//!   cold random read (and an eviction write-back) per touched page.
//! - **Instant restart** (`PiTree::recover_instant`): the store opens
//!   right after undo, then the first get — pages replay on demand at
//!   first pin, so time-to-first-op is O(analysis) — one *sequential*
//!   read of the post-checkpoint log — plus per-page redo along a single
//!   root-to-leaf path. Background REDO
//!   ([`pitree_wal::InstantRecovery::drive`]) then drains the plan on
//!   worker threads while the foreground serves reads;
//!   time-to-full-recovery is when the plan empties.
//!
//! Methodology notes, in the spirit of full disclosure (`RECOVERY.md`
//! documents the model):
//!
//! - The preload that builds the tree runs through a large pool, is
//!   flushed, and is fenced off by a checkpoint; the measured crash
//!   image carries exactly K bytes of replayable log. The checkpoint
//!   interval *is* the K axis.
//! - Both restarts recover **the same crash image**: the durable files
//!   (`store.db`/`store.log`/`store.master`) are copied to two
//!   directories after the crash, so the comparison is drain policy
//!   and nothing else. Every committed key (preloads and updates) is
//!   verified after each recovery — the bench doubles as an end-to-end
//!   durability check.
//! - Before each timed restart the OS page cache is dropped
//!   (best-effort; needs root). A restart is cold by definition — warm
//!   caches would let stop-the-world replay fetch pages at memcpy speed,
//!   which is exactly the fiction an MTTR number must not rest on. The
//!   JSON records whether the drop worked (`cold_cache`).
//!
//! Results land in `BENCH_mttr.json` (or `--out PATH`): per K,
//! `full_replay_ns` (stop-the-world time-to-first-op), `first_op_ns`
//! (instant time-to-first-op, also recorded as the
//! `recovery.first_op_ns` histogram), `ttfo_speedup` (their ratio),
//! `full_recovery_ns` (instant restart until background REDO drains),
//! `redo_pages` / `on_demand_redos` counters, and `ops_during_redo`
//! (gets served while REDO was still running). `--smoke` runs one tiny K
//! so CI can assert the bench runs, the JSON is well-formed, and instant
//! first-op beats full replay.
//!
//! Run with: `cargo run --release -p pitree-harness --bin mttr`

use pitree::{PiTree, PiTreeConfig, Store};
use pitree_harness::driver::{
    copy_image, fence, key_bytes, load, publish, Cli, MttrRow, Obj, Pipeline, LOAD_POOL_FRAMES,
    PIPELINE_DEPTH,
};
use pitree_obs::Stopwatch;
use pitree_sim::SimRng;
use pitree_txnlock::PendingCommit;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

struct Config {
    /// Target post-checkpoint log sizes in bytes (one run per entry).
    k_bytes: Vec<u64>,
    /// Restart pool: far fewer frames than the tree has leaves, the
    /// normal state of a buffer pool right after a crash.
    pool_frames: usize,
    preload_keys: u64,
    value_len: usize,
    redo_workers: usize,
}

impl Config {
    fn full() -> Config {
        Config {
            k_bytes: vec![1 << 20, 4 << 20, 8 << 20],
            pool_frames: 256,
            preload_keys: 100_000,
            value_len: 256,
            redo_workers: 4,
        }
    }

    fn smoke() -> Config {
        Config {
            k_bytes: vec![128 << 10],
            pool_frames: 64,
            preload_keys: 3_000,
            value_len: 256,
            redo_workers: 2,
        }
    }
}

/// Deterministic value for key `k` at version `ver` — the post-crash
/// expectation is a pure function of the committed (key, version) map.
fn value_bytes(k: u64, ver: u64, len: usize) -> Vec<u8> {
    let mut v = vec![b'v'; len];
    v[..8].copy_from_slice(&k.to_be_bytes());
    v[8..16].copy_from_slice(&ver.to_be_bytes());
    v
}

/// Pipelined upsert of key `k` at version `ver`.
fn upsert<'t>(tree: &'t PiTree, k: u64, ver: u64, len: usize) -> PendingCommit<'t> {
    let (key, value) = (key_bytes(k), value_bytes(k, ver, len));
    publish(tree, |t| tree.insert(t, &key, &value))
}

/// Best-effort cold-cache fence: flush dirty OS caches, then drop the
/// clean ones, so the next timed restart pays real page reads. Needs
/// root for the drop; returns whether it worked.
fn drop_os_caches() -> bool {
    let _ = std::process::Command::new("sync").status();
    std::fs::write("/proc/sys/vm/drop_caches", "3\n").is_ok()
}

fn verify(tree: &PiTree, versions: &HashMap<u64, u64>, value_len: usize, ctx: &str) {
    for (&k, &ver) in versions {
        let got = tree
            .get_unlocked(&key_bytes(k))
            .unwrap_or_else(|e| panic!("{ctx}: get {k}: {e}"));
        assert_eq!(
            got.as_deref(),
            Some(value_bytes(k, ver, value_len).as_slice()),
            "{ctx}: committed key {k} wrong after recovery"
        );
    }
}

fn run_one(cfg: &Config, k_bytes: u64, scratch: &Path) -> MttrRow {
    // ---- build the tree, checkpoint, write K bytes of updates, crash ------
    let load_dir = scratch.join(format!("k{k_bytes}-load"));
    let (mut versions, updates, post_ckpt_bytes) = {
        let store = Store::open_file(&load_dir, LOAD_POOL_FRAMES, 1 << 20).expect("store");
        let tree = PiTree::create(Arc::clone(&store), 1, PiTreeConfig::default()).expect("tree");
        let mut versions: HashMap<u64, u64> = HashMap::new();
        load(store.recorder(), 0..cfg.preload_keys, |k| {
            versions.insert(k, 0);
            upsert(&tree, k, 0, cfg.value_len)
        });

        // Fence the preload off. Analysis of the coming crash starts
        // here, so the image carries exactly `k_bytes` of replayable log —
        // the checkpoint interval is the K axis of this bench.
        fence(&store);
        let base = store.log.flushed_lsn().0;

        let mut rng = SimRng::new(0x9177 ^ k_bytes);
        let mut updates = 0u64;
        let mut pipe = Pipeline::new(store.recorder());
        while store.log.flushed_lsn().0 - base < k_bytes {
            let k = rng.below(cfg.preload_keys);
            let ver = versions.get(&k).copied().unwrap_or(0) + 1;
            pipe.push(upsert(&tree, k, ver, cfg.value_len));
            versions.insert(k, ver);
            updates += 1;
        }
        pipe.drain(0);
        let post = store.log.flushed_lsn().0 - base;
        // Crash: tree and store drop here. Dirty pool pages and the
        // unforced log tail vanish; only the durable files survive.
        (versions, updates, post)
    };

    let dir_full = scratch.join(format!("k{k_bytes}-full"));
    let dir_instant = scratch.join(format!("k{k_bytes}-instant"));
    copy_image(&load_dir, &dir_full);
    copy_image(&load_dir, &dir_instant);
    let log_bytes = std::fs::metadata(load_dir.join("store.log"))
        .expect("crashed log")
        .len();
    let _ = std::fs::remove_dir_all(&load_dir);

    let probe = 0u64; // preload key — always present
    assert!(versions.contains_key(&probe));

    // ---- B: synchronous drain (stop-the-world), then the first get --------
    let cold_cache = drop_os_caches();
    let (full_replay_ns, redone_full) = {
        let t0 = Stopwatch::start();
        let store = Store::open_file(&dir_full, cfg.pool_frames, 1 << 20).expect("reopen full");
        let (tree, stats) =
            PiTree::recover(Arc::clone(&store), 1, PiTreeConfig::default()).expect("full recover");
        let got = tree.get_unlocked(&key_bytes(probe)).expect("first get");
        let ns = t0.elapsed_ns();
        assert!(got.is_some(), "probe key vanished under full recovery");
        verify(&tree, &versions, cfg.value_len, "full-replay");
        (ns, stats.redone as u64)
    };

    // ---- C: instant restart — first op, then background REDO ---------------
    let cold_cache = drop_os_caches() && cold_cache;
    let t0 = Stopwatch::start();
    let store = Store::open_file(&dir_instant, cfg.pool_frames, 1 << 20).expect("reopen instant");
    let (tree, plan, _stats) =
        PiTree::recover_instant(Arc::clone(&store), 1, PiTreeConfig::default())
            .expect("instant recover");
    let got = tree
        .get_unlocked(&key_bytes(probe))
        .expect("instant first get");
    let first_op_ns = t0.elapsed_ns();
    assert!(got.is_some(), "probe key vanished under instant recovery");
    let rec = store.recorder().clone();
    rec.hist("recovery.first_op_ns").record(first_op_ns);

    // Background REDO drains the plan while this thread serves reads —
    // the traffic the restart reopened for.
    let done = AtomicBool::new(false);
    let mut ops_during_redo = 0u64;
    let mut rng = SimRng::new(0x3a11 ^ k_bytes);
    std::thread::scope(|s| {
        let driver = s.spawn(|| {
            let r = plan.drive(&store.pool, cfg.redo_workers);
            done.store(true, Ordering::Release);
            r
        });
        while !done.load(Ordering::Acquire) {
            let k = rng.below(cfg.preload_keys);
            let _ = tree
                .get_unlocked(&key_bytes(k))
                .expect("get during background redo");
            ops_during_redo += 1;
        }
        driver.join().expect("drive thread").expect("drive");
    });
    let full_recovery_ns = t0.elapsed_ns();
    assert!(plan.is_complete(), "drive returned with pages pending");
    verify(&tree, &versions, cfg.value_len, "instant");
    versions.clear();

    MttrRow {
        k_bytes,
        log_bytes,
        post_ckpt_bytes,
        updates,
        full_replay_ns,
        redone_full,
        first_op_ns,
        full_recovery_ns,
        redo_pages: rec.counter("recovery.redo_pages").get(),
        on_demand_redos: rec.counter("recovery.on_demand_redos").get(),
        ops_during_redo,
        workers: cfg.redo_workers,
        cold_cache,
    }
}

fn main() {
    let cli = Cli::from_env("mttr", &["--smoke", "--out PATH"]);
    let (mode, cfg) = cli.mode(Config::full(), Config::smoke());
    let out = cli.value("--out").unwrap_or("BENCH_mttr.json");

    let scratch = std::env::temp_dir().join(format!("pitree-mttr-{}", std::process::id()));
    let mut runs = Vec::new();
    for &k in &cfg.k_bytes {
        let r = run_one(&cfg, k, &scratch);
        eprintln!("{}", r.json().inline());
        runs.push(r);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let config = Obj::new()
        .num("pool_frames", cfg.pool_frames)
        .num("preload_keys", cfg.preload_keys)
        .num("value_len", cfg.value_len)
        .num("pipeline_depth", PIPELINE_DEPTH)
        .num("redo_workers", cfg.redo_workers)
        .num("cold_cache", runs.iter().all(|r| r.cold_cache));
    let rows: Vec<Obj> = runs.iter().map(MttrRow::json).collect();
    let doc = Obj::new()
        .text("bench", "mttr")
        .text("mode", mode)
        .obj("config", config)
        .rows("runs", &rows);
    std::fs::write(out, doc.document()).expect("write bench json");
    eprintln!("wrote {out}");
}
