//! The bench driver's contracts (`pitree_harness::driver`): bad CLI input
//! is a usage error, the commit pipeline is bounded and drains to
//! durability, autocommit retries exactly the lock failures, the phase loop
//! accounts for every op and ack, and the `BENCH_*.json` rows keep their
//! keys and key order (a rename fails here before it fails `verify.sh`'s
//! sed patterns).

use pitree::{CrashableStore, PiTree, PiTreeConfig, Store};
use pitree_harness::driver::{
    engine_row, publish, run_phase, throughput_row, Cli, MttrRow, Obj, OpKind, PhaseRun, PhaseSpec,
    Pipeline, PIPELINE_DEPTH,
};
use pitree_obs::Recorder;
use pitree_pagestore::{BufferPool, MemDisk, SpaceMap, StoreError};
use pitree_sim::SimRng;
use pitree_txnlock::TxnManager;
use pitree_wal::{LogManager, MemLogStore};
use std::sync::Arc;
use std::time::Duration;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn cli_parses_accepted_flags() {
    let accepts = ["--smoke", "--out PATH"];
    let cli = Cli::parse("mttr", &accepts, args(&["--out", "a.json", "--smoke"])).unwrap();
    assert!(cli.has("--smoke"));
    assert_eq!(cli.value("--out"), Some("a.json"));
    assert_eq!(cli.value("--only"), None);
    assert_eq!(Cli::parse("mttr", &accepts, args(&[])), Ok(Cli::default()));
}

#[test]
fn cli_rejects_an_unknown_flag_with_usage() {
    // `--only` exists for `scenarios`, but this bin does not accept it.
    let err = Cli::parse("mttr", &["--smoke", "--out PATH"], args(&["--only", "x"]));
    assert_eq!(
        err.unwrap_err(),
        "mttr: unknown argument `--only`\nusage: mttr [--smoke] [--out PATH]"
    );
}

#[test]
fn cli_rejects_a_missing_flag_value_with_usage() {
    let err = Cli::parse(
        "scenarios",
        &["--smoke", "--out-dir DIR"],
        args(&["--out-dir"]),
    );
    assert_eq!(
        err.unwrap_err(),
        "scenarios: --out-dir needs a DIR\nusage: scenarios [--smoke] [--out-dir DIR]"
    );
}

fn mem_tree() -> (CrashableStore, PiTree) {
    let cs = CrashableStore::create(256, 1 << 16).unwrap();
    let cfg = PiTreeConfig::small_nodes(8, 8);
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    (cs, tree)
}

#[test]
fn pipeline_is_bounded_and_drain_makes_every_commit_durable() {
    let (cs, tree) = mem_tree();
    let mut pipe = Pipeline::new(cs.store.recorder());
    let mut lsns = Vec::new();
    for k in 0..50u64 {
        let commit = publish(&tree, |t| tree.insert(t, &k.to_be_bytes(), b"v"));
        lsns.push(commit.lsn());
        pipe.push(commit);
        assert!(
            pipe.in_flight() < PIPELINE_DEPTH,
            "window overran its depth"
        );
    }
    assert_eq!(pipe.in_flight(), PIPELINE_DEPTH - 1);
    pipe.drain(0);
    assert_eq!(pipe.in_flight(), 0);
    let durable = cs.store.log.flushed_lsn();
    assert!(lsns.iter().all(|lsn| *lsn <= durable));
    assert_eq!(cs.store.recorder().hist("op.ack_ns").count(), 50);
}

/// `Store::assemble` with a lock-wait timeout short enough to test.
fn store_with_lock_timeout(timeout: Duration) -> Arc<Store> {
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
    let log = Arc::new(LogManager::open(Arc::new(MemLogStore::new())).unwrap());
    pool.set_wal_hook(Arc::clone(&log) as Arc<_>);
    let space = SpaceMap::init(&pool, 1 << 16).unwrap();
    let txns = TxnManager::new(Arc::clone(&log), Arc::clone(&pool), timeout);
    Arc::new(Store {
        pool,
        log,
        txns,
        space,
    })
}

#[test]
fn autocommit_retries_after_a_lock_failure() {
    let store = store_with_lock_timeout(Duration::from_millis(20));
    let tree = PiTree::create(store, 1, PiTreeConfig::default()).unwrap();
    // A conflicting holder: an uncommitted insert keeps the key X-locked.
    let mut holder = tree.begin();
    tree.insert(&mut holder, b"k", b"held").unwrap();
    let mut holder = Some(holder);
    let mut attempts = 0;
    let (txn, created) = tree
        .autocommit(|t| {
            attempts += 1;
            if attempts == 2 {
                // The first attempt timed out on the holder's lock.
                holder.take().unwrap().commit().unwrap();
            }
            tree.insert(t, b"k", b"mine")
        })
        .unwrap();
    assert_eq!(attempts, 2);
    assert!(!created, "the holder's insert committed first");
    txn.commit().unwrap();
    assert_eq!(tree.get_unlocked(b"k").unwrap(), Some(b"mine".to_vec()));
}

#[test]
fn autocommit_returns_any_other_error_unchanged() {
    let (_cs, tree) = mem_tree();
    let mut attempts = 0;
    let err = tree
        .autocommit(|t| {
            attempts += 1;
            tree.insert(t, b"k", b"v")?;
            Err::<(), _>(StoreError::Corrupt("boom".into()))
        })
        .unwrap_err();
    assert_eq!(attempts, 1);
    assert_eq!(err.to_string(), "corrupt data: boom");
    // The failed transaction was rolled back and holds no lock.
    assert_eq!(tree.get_unlocked(b"k").unwrap(), None);
    let (txn, created) = tree.autocommit(|t| tree.insert(t, b"k", b"v")).unwrap();
    assert!(created);
    txn.commit().unwrap();
}

#[test]
fn run_phase_counts_ops_and_acks_every_commit() {
    let (cs, tree) = mem_tree();
    let rec = cs.store.recorder();
    let spec = PhaseSpec {
        ops_target: 40,
        deadline_ns: u64::MAX,
        threads: 2,
        seed: 7,
    };
    let run = run_phase(rec, &spec, || {
        |rng: &mut SimRng| {
            let key = rng.below(64).to_be_bytes();
            if rng.chance(0.5) {
                let _ = tree.get_unlocked(&key).unwrap();
                (OpKind::Get, None)
            } else {
                let commit = publish(&tree, |t| tree.insert(t, &key, b"v"));
                (OpKind::Insert, Some(commit))
            }
        }
    });
    assert_eq!(run.ops, 80);
    assert_eq!(rec.hist("scen.op_ns").count(), 80);
    let writes = rec.hist("op.insert_ns").count();
    assert_eq!(rec.hist("op.get_ns").count() + writes, 80);
    assert_eq!(rec.hist("op.ack_ns").count(), writes);
    assert_eq!(run.delta("txn.elr_released"), writes);
}

/// A phase outcome and a recorder whose histograms each hold one
/// sample, so every percentile reads back exactly.
fn fabricated() -> (Recorder, PhaseRun) {
    let rec = pitree_obs::Registry::new().recorder();
    for (hist, ns) in [
        ("scen.op_ns", 5),
        ("op.get_ns", 1),
        ("op.insert_ns", 3),
        ("op.ack_ns", 4),
        ("wal.group_size", 8),
        ("wal.linger_ns", 7),
    ] {
        rec.hist(hist).record(ns);
    }
    let run = PhaseRun {
        ops: 1000,
        elapsed_ns: 2_000_000,
        deltas: [10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
    };
    (rec, run)
}

#[test]
fn scenario_row_golden() {
    let (rec, run) = fabricated();
    let doc = Obj::new()
        .text("what", "a \"quoted\" line")
        .obj("config", Obj::new().fixed("pool_pct", 0.784, 2))
        .rows("engines", &[engine_row("pi-tree", &rec, &run)]);
    assert_eq!(
        doc.document(),
        r#"{
  "what": "a \"quoted\" line",
  "config": {"pool_pct": 0.78},
  "engines": [
    {"name": "pi-tree", "ops": 1000, "elapsed_ns": 2000000, "ops_per_sec": 500000, "p50_ns": 5, "p95_ns": 5, "p99_ns": 5, "pool_hits": 10, "pool_misses": 20, "evictions": 30, "writebacks": 40, "shard_conflicts": 50, "forces": 60, "group_size_p50": 8, "splits": 90, "consolidations": 100}
  ]
}
"#
    );
}

#[test]
fn throughput_row_golden() {
    let (rec, run) = fabricated();
    assert_eq!(
        throughput_row(4, &rec, &run).inline(),
        r#"{"threads": 4, "total_ops": 1000, "elapsed_ns": 2000000, "ops_per_sec": 500000, "get_p95_ns": 1, "get_p99_ns": 1, "insert_p95_ns": 3, "insert_p99_ns": 3, "ack_p95_ns": 4, "ack_p99_ns": 4, "wal_group_size_p50": 8, "wal_linger_p50_ns": 7, "txn_elr_released": 80, "wal_forces": 60, "wal_force_waiters": 70, "buf_shard_conflicts": 50}"#
    );
}

#[test]
fn mttr_row_golden() {
    let row = MttrRow {
        k_bytes: 1 << 19,
        log_bytes: 1,
        post_ckpt_bytes: 2,
        updates: 3,
        full_replay_ns: 3000,
        redone_full: 4,
        first_op_ns: 400,
        full_recovery_ns: 5,
        redo_pages: 6,
        on_demand_redos: 7,
        ops_during_redo: 8,
        workers: 2,
        cold_cache: false,
    };
    let line = r#"{"k_mb": 0.50, "log_bytes": 1, "post_checkpoint_bytes": 2, "updates": 3, "full_replay_ns": 3000, "full_replay_redone": 4, "first_op_ns": 400, "ttfo_speedup": 7.5, "full_recovery_ns": 5, "redo_pages": 6, "on_demand_redos": 7, "ops_during_redo": 8, "workers": 2, "cold_cache": false}"#;
    assert_eq!(
        Obj::new()
            .rows("runs", &[row.json(), row.json()])
            .document(),
        format!("{{\n  \"runs\": [\n    {line},\n    {line}\n  ]\n}}\n")
    );
}
