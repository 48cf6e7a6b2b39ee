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
use pitree_obs::Stopwatch;
use pitree_sim::SimRng;
use pitree_txnlock::PendingCommit;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Commits held published-but-unacked before the loader waits on the
/// oldest (same protocol as the throughput bench, so the log the crash
/// cuts is a realistic pipelined-commit log).
const PIPELINE_DEPTH: usize = 8;

/// Pool frames for the *load* store only. Generous, so building the tree
/// is fast; the measured restarts use the small `Config::pool_frames`.
const LOAD_POOL_FRAMES: usize = 8192;

struct Config {
    smoke: bool,
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
            smoke: false,
            k_bytes: vec![1 << 20, 4 << 20, 8 << 20],
            pool_frames: 256,
            preload_keys: 100_000,
            value_len: 256,
            redo_workers: 4,
        }
    }

    fn smoke() -> Config {
        Config {
            smoke: true,
            k_bytes: vec![128 << 10],
            pool_frames: 64,
            preload_keys: 3_000,
            value_len: 256,
            redo_workers: 2,
        }
    }
}

fn key_bytes(k: u64) -> [u8; 8] {
    k.to_be_bytes()
}

/// Deterministic value for key `k` at version `ver` — the post-crash
/// expectation is a pure function of the committed (key, version) map.
fn value_bytes(k: u64, ver: u64, len: usize) -> Vec<u8> {
    let mut v = vec![b'v'; len];
    v[..8].copy_from_slice(&k.to_be_bytes());
    v[8..16].copy_from_slice(&ver.to_be_bytes());
    v
}

/// Pipelined upsert: publish the commit (locks released at log append),
/// hand the pending ack to the caller's window.
fn upsert<'t>(tree: &'t PiTree, k: u64, ver: u64, len: usize) -> PendingCommit<'t> {
    loop {
        let mut t = tree.begin();
        match tree.insert(&mut t, &key_bytes(k), &value_bytes(k, ver, len)) {
            Ok(_) => return t.commit_publish(),
            Err(pitree_pagestore::StoreError::LockFailed { .. }) => {
                let _ = t.abort(Some(&tree.undo_handler()));
            }
            Err(e) => panic!("upsert failed: {e}"),
        }
    }
}

fn drain(pending: &mut VecDeque<PendingCommit<'_>>, down_to: usize) {
    while pending.len() > down_to {
        pending
            .pop_front()
            .expect("non-empty pipeline")
            .wait_durable()
            .expect("ack");
    }
}

/// Best-effort cold-cache fence: flush dirty OS caches, then drop the
/// clean ones, so the next timed restart pays real page reads. Needs
/// root for the drop; returns whether it worked.
fn drop_os_caches() -> bool {
    let _ = std::process::Command::new("sync").status();
    std::fs::write("/proc/sys/vm/drop_caches", "3\n").is_ok()
}

/// Copy the durable image (`store.db`, `store.log`, `store.master`) into
/// a fresh directory: one crash, two independent recoveries.
fn copy_image(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("mkdir image copy");
    for f in ["store.db", "store.log", "store.master"] {
        let s = src.join(f);
        if s.exists() {
            std::fs::copy(&s, dst.join(f)).expect("copy durable file");
        }
    }
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

struct RunResult {
    k_bytes: u64,
    log_bytes: u64,
    post_ckpt_bytes: u64,
    updates: u64,
    full_replay_ns: u64,
    redone_full: usize,
    first_op_ns: u64,
    full_recovery_ns: u64,
    redo_pages: u64,
    on_demand_redos: u64,
    ops_during_redo: u64,
    workers: usize,
    cold_cache: bool,
}

fn run_one(cfg: &Config, k_bytes: u64, scratch: &Path) -> RunResult {
    // ---- build the tree, checkpoint, write K bytes of updates, crash ------
    let load_dir = scratch.join(format!("k{k_bytes}-load"));
    let (mut versions, updates, post_ckpt_bytes) = {
        let store = Store::open_file(&load_dir, LOAD_POOL_FRAMES, 1 << 20).expect("store");
        let tree = PiTree::create(Arc::clone(&store), 1, PiTreeConfig::default()).expect("tree");
        let mut versions: HashMap<u64, u64> = HashMap::new();
        let mut pending: VecDeque<PendingCommit<'_>> = VecDeque::new();
        for k in 0..cfg.preload_keys {
            pending.push_back(upsert(&tree, k, 0, cfg.value_len));
            versions.insert(k, 0);
            if pending.len() >= PIPELINE_DEPTH {
                drain(&mut pending, PIPELINE_DEPTH - 1);
            }
        }
        drain(&mut pending, 0);

        // Fence the preload off: flush every dirty page, then checkpoint.
        // Analysis of the coming crash starts here, so the image carries
        // exactly `k_bytes` of replayable log — the checkpoint interval
        // is the K axis of this bench.
        store.pool.flush_all().expect("flush before checkpoint");
        store.txns.checkpoint().expect("checkpoint");
        let base = store.log.flushed_lsn().0;

        let mut rng = SimRng::new(0x9177 ^ k_bytes);
        let mut updates = 0u64;
        while store.log.flushed_lsn().0 - base < k_bytes {
            let k = rng.below(cfg.preload_keys);
            let ver = versions.get(&k).copied().unwrap_or(0) + 1;
            pending.push_back(upsert(&tree, k, ver, cfg.value_len));
            versions.insert(k, ver);
            updates += 1;
            if pending.len() >= PIPELINE_DEPTH {
                drain(&mut pending, PIPELINE_DEPTH - 1);
            }
        }
        drain(&mut pending, 0);
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
        (ns, stats.redone)
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

    RunResult {
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
    let mut smoke = false;
    let mut out = String::from("BENCH_mttr.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown arg {other} (usage: mttr [--smoke] [--out PATH])"),
        }
    }
    let cfg = if smoke {
        Config::smoke()
    } else {
        Config::full()
    };

    let scratch = std::env::temp_dir().join(format!("pitree-mttr-{}", std::process::id()));
    let mut runs = Vec::new();
    for &k in &cfg.k_bytes {
        let r = run_one(&cfg, k, &scratch);
        eprintln!(
            "k={:>5.2}MB (post-ckpt {}B, {} updates, log {}B{}) full-replay {:>9}us \
             (redone {})  first-op {:>7}us  speedup {:>5.1}x  full-recovery {:>9}us  \
             redo-pages {}  on-demand {}  ops-during-redo {}",
            r.k_bytes as f64 / (1 << 20) as f64,
            r.post_ckpt_bytes,
            r.updates,
            r.log_bytes,
            if r.cold_cache { ", cold" } else { ", WARM" },
            r.full_replay_ns / 1_000,
            r.redone_full,
            r.first_op_ns / 1_000,
            r.full_replay_ns as f64 / r.first_op_ns.max(1) as f64,
            r.full_recovery_ns / 1_000,
            r.redo_pages,
            r.on_demand_redos,
            r.ops_during_redo,
        );
        runs.push(r);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"bench\": \"mttr\",\n  \"mode\": \"{}\",\n",
        if cfg.smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!(
        "  \"config\": {{\"pool_frames\": {}, \"preload_keys\": {}, \"value_len\": {}, \
         \"pipeline_depth\": {}, \"redo_workers\": {}, \"cold_cache\": {}}},\n",
        cfg.pool_frames,
        cfg.preload_keys,
        cfg.value_len,
        PIPELINE_DEPTH,
        cfg.redo_workers,
        runs.iter().all(|r| r.cold_cache),
    ));
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"k_mb\": {:.2}, \"log_bytes\": {}, \"post_checkpoint_bytes\": {}, \
             \"updates\": {}, \"full_replay_ns\": {}, \"full_replay_redone\": {}, \
             \"first_op_ns\": {}, \"ttfo_speedup\": {:.1}, \"full_recovery_ns\": {}, \
             \"redo_pages\": {}, \"on_demand_redos\": {}, \"ops_during_redo\": {}, \
             \"workers\": {}, \"cold_cache\": {}}}{}\n",
            r.k_bytes as f64 / (1 << 20) as f64,
            r.log_bytes,
            r.post_ckpt_bytes,
            r.updates,
            r.full_replay_ns,
            r.redone_full,
            r.first_op_ns,
            r.full_replay_ns as f64 / r.first_op_ns.max(1) as f64,
            r.full_recovery_ns,
            r.redo_pages,
            r.on_demand_redos,
            r.ops_during_redo,
            r.workers,
            r.cold_cache,
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write bench json");
    eprintln!("wrote {out}");
}
