//! Concurrency tests: many threads over one tree, exercising latch
//! coupling, U→X promotion, the No-Wait Rule, move locks, deadlock
//! detection, and concurrent structure changes ("our techniques permit
//! multiple concurrent structure changes", §6). The last tests pin the
//! client side: pipelined publish/ack commits from many threads, and
//! `Engine::autocommit`'s retry contract.

use pitree::{CrashableStore, PiTree, PiTreeConfig, Store};
use pitree_pagestore::{BufferPool, MemDisk, SpaceMap, StoreError};
use pitree_txnlock::TxnManager;
use pitree_wal::{LogManager, MemLogStore};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

fn val(i: u64) -> Vec<u8> {
    format!("value-{i}").into_bytes()
}

fn setup(cfg: PiTreeConfig) -> (CrashableStore, Arc<PiTree>) {
    let cs = CrashableStore::create(2048, 500_000).unwrap();
    let tree = PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap();
    (cs, Arc::new(tree))
}

#[test]
fn concurrent_disjoint_inserts() {
    let (_cs, tree) = setup(PiTreeConfig::small_nodes(8, 8));
    let threads = 8;
    let per = 200u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for i in 0..per {
                    let k = t * 10_000 + i;
                    let mut txn = tree.begin();
                    tree.insert(&mut txn, &key(k), &val(k)).unwrap();
                    txn.commit().unwrap();
                }
            });
        }
    });
    for _ in 0..4 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, (threads * per) as usize);
    for t in 0..threads {
        for i in 0..per {
            let k = t * 10_000 + i;
            assert_eq!(tree.get_unlocked(&key(k)).unwrap(), Some(val(k)), "key {k}");
        }
    }
}

#[test]
fn concurrent_interleaved_inserts() {
    // All threads hammer the same key range (distinct keys, shared nodes):
    // maximal split contention.
    let (_cs, tree) = setup(PiTreeConfig::small_nodes(6, 6));
    let threads = 8u64;
    let per = 150u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for i in 0..per {
                    let k = i * threads + t; // interleaved
                    let mut txn = tree.begin();
                    tree.insert(&mut txn, &key(k), &val(k)).unwrap();
                    txn.commit().unwrap();
                }
            });
        }
    });
    for _ in 0..4 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, (threads * per) as usize);
}

#[test]
fn readers_run_against_writers() {
    let (_cs, tree) = setup(PiTreeConfig::small_nodes(8, 8));
    // Preload.
    for i in 0..500u64 {
        let mut txn = tree.begin();
        tree.insert(&mut txn, &key(i), &val(i)).unwrap();
        txn.commit().unwrap();
    }
    let found = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Writers extend the key space.
        for t in 0..4u64 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for i in 0..150 {
                    let k = 1000 + t * 1000 + i;
                    let mut txn = tree.begin();
                    tree.insert(&mut txn, &key(k), &val(k)).unwrap();
                    txn.commit().unwrap();
                }
            });
        }
        // Readers: preloaded keys must always be visible.
        for _ in 0..4 {
            let tree = Arc::clone(&tree);
            let found = &found;
            s.spawn(move || {
                for round in 0..5 {
                    for i in 0..500u64 {
                        let got = tree.get_unlocked(&key(i)).unwrap();
                        assert_eq!(got, Some(val(i)), "round {round}, key {i}");
                        found.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(found.load(Ordering::Relaxed), 4 * 5 * 500);
    assert!(tree.validate().unwrap().is_well_formed());
}

#[test]
fn concurrent_mixed_with_deletes_and_consolidation() {
    let mut cfg = PiTreeConfig::small_nodes(8, 8);
    cfg.min_utilization = 0.3;
    let (_cs, tree) = setup(cfg);
    for i in 0..800u64 {
        let mut txn = tree.begin();
        tree.insert(&mut txn, &key(i), &val(i)).unwrap();
        txn.commit().unwrap();
    }
    std::thread::scope(|s| {
        // Deleters clear the lower half.
        for t in 0..4u64 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for i in (t..400).step_by(4) {
                    let mut txn = tree.begin();
                    tree.delete(&mut txn, &key(i)).unwrap();
                    txn.commit().unwrap();
                }
            });
        }
        // Inserters extend the upper half.
        for t in 0..4u64 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for i in 0..100 {
                    let k = 2000 + t * 100 + i;
                    let mut txn = tree.begin();
                    tree.insert(&mut txn, &key(k), &val(k)).unwrap();
                    txn.commit().unwrap();
                }
            });
        }
    });
    for _ in 0..6 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 400 + 400);
}

#[test]
fn concurrent_page_oriented_with_move_locks() {
    let (_cs, tree) = setup(PiTreeConfig::small_nodes(6, 6).page_oriented());
    let threads = 6u64;
    let per = 100u64;
    let deadlocks = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let tree = Arc::clone(&tree);
            let deadlocks = &deadlocks;
            s.spawn(move || {
                // Multi-insert transactions force in-transaction splits under
                // move locks while other threads traverse and split too.
                // Move locks can deadlock with record updaters; victims are
                // detected (§4.1: no *undetected* deadlocks), abort, and
                // retry — exactly what a real client does.
                for batch in 0..(per / 10) {
                    'retry: loop {
                        let mut txn = tree.begin();
                        for j in 0..10 {
                            let k = (batch * 10 + j) * threads + t;
                            match tree.insert(&mut txn, &key(k), &val(k)) {
                                Ok(_) => {}
                                Err(StoreError::LockFailed { .. }) => {
                                    deadlocks.fetch_add(1, Ordering::Relaxed);
                                    txn.abort(None).unwrap();
                                    continue 'retry;
                                }
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        }
                        txn.commit().unwrap();
                        break;
                    }
                }
            });
        }
    });
    for _ in 0..6 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, (threads * per) as usize);
}

#[test]
fn record_deadlock_is_detected_and_recoverable() {
    let (_cs, tree) = setup(PiTreeConfig::small_nodes(16, 16));
    {
        let mut txn = tree.begin();
        tree.insert(&mut txn, b"a", b"1").unwrap();
        tree.insert(&mut txn, b"b", b"2").unwrap();
        txn.commit().unwrap();
    }
    let barrier = std::sync::Barrier::new(2);
    let deadlocks = AtomicU64::new(0);
    std::thread::scope(|s| {
        for order in [true, false] {
            let tree = Arc::clone(&tree);
            let barrier = &barrier;
            let deadlocks = &deadlocks;
            s.spawn(move || {
                let (first, second): (&[u8], &[u8]) =
                    if order { (b"a", b"b") } else { (b"b", b"a") };
                let mut txn = tree.begin();
                tree.insert(&mut txn, first, b"x").unwrap();
                barrier.wait(); // both hold their first lock
                match tree.insert(&mut txn, second, b"y") {
                    Ok(_) => {
                        txn.commit().unwrap();
                    }
                    Err(e) => {
                        // Deadlock victim: abort and count.
                        assert!(
                            matches!(e, StoreError::LockFailed { deadlock: true }),
                            "{e}"
                        );
                        deadlocks.fetch_add(1, Ordering::Relaxed);
                        txn.abort(Some(&tree.undo_handler())).unwrap();
                    }
                }
            });
        }
    });
    assert!(
        deadlocks.load(Ordering::Relaxed) >= 1,
        "opposite-order lockers must produce a detected deadlock victim"
    );
    // The survivor's writes (or the original values) are intact and the tree
    // is consistent.
    assert!(tree.validate().unwrap().is_well_formed());
    assert!(tree.get_unlocked(b"a").unwrap().is_some());
    assert!(tree.get_unlocked(b"b").unwrap().is_some());
}

#[test]
fn completions_run_from_many_threads() {
    let mut cfg = PiTreeConfig::small_nodes(6, 6);
    cfg.auto_complete = false; // pile up completions, drain concurrently
    let (_cs, tree) = setup(cfg);
    std::thread::scope(|s| {
        for t in 0..6u64 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for i in 0..150 {
                    let k = i * 6 + t;
                    let mut txn = tree.begin();
                    tree.insert(&mut txn, &key(k), &val(k)).unwrap();
                    txn.commit().unwrap();
                    if i % 10 == 0 {
                        tree.run_completions().unwrap();
                    }
                }
            });
        }
    });
    for _ in 0..4 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(report.records, 900);
}

/// Pipelined commits from many threads: each writer publishes its commits
/// (locks released at log append, §4.2.2's early release) and holds at most
/// 7 unacked before it waits for the oldest one's durable ack. After the
/// drain every published commit is durable, every write released its locks
/// early exactly once, and the tree holds what the writers' model says.
#[test]
fn pipelined_publish_and_ack_from_many_threads() {
    let (cs, tree) = setup(PiTreeConfig::small_nodes(8, 8));
    let tree = &*tree;
    let elr = cs.store.recorder().counter("txn.elr_released");
    let elr_before = elr.get();
    let threads = 4u64;
    // Per writer: the LSNs it published and the records it left behind.
    let writers: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let (mut window, mut published) = (VecDeque::new(), Vec::new());
                    let mut model = BTreeMap::new();
                    for i in 0..120u64 {
                        // Interleaved keys: the threads share leaves and
                        // splits. Every fourth write deletes the key
                        // written three back.
                        let (k, write) = match i % 4 {
                            3 => ((i - 3) * threads + t, None),
                            _ => (i * threads + t, Some(val(i * threads + t))),
                        };
                        let (txn, _) = tree
                            .autocommit(|txn| match &write {
                                Some(v) => tree.insert(txn, &key(k), v),
                                None => tree.delete(txn, &key(k)),
                            })
                            .unwrap();
                        let commit = txn.commit_publish();
                        published.push(commit.lsn());
                        window.push_back(commit);
                        if window.len() > 7 {
                            window.pop_front().unwrap().wait_durable().unwrap();
                        }
                        match write {
                            Some(v) => model.insert(key(k), v),
                            None => model.remove(&key(k)),
                        };
                    }
                    for commit in window {
                        commit.wait_durable().unwrap();
                    }
                    (published, model)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let durable = cs.store.log.flushed_lsn();
    let published: Vec<_> = writers.iter().flat_map(|(lsns, _)| lsns).collect();
    assert_eq!(published.len(), 480);
    assert!(published.iter().all(|lsn| **lsn <= durable));
    assert_eq!(elr.get() - elr_before, 480, "one early release per write");
    for _ in 0..4 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    let want: BTreeMap<_, _> = writers.into_iter().flat_map(|(_, m)| m).collect();
    let want: Vec<_> = want.into_iter().collect();
    assert_eq!(tree.scan(&key(0), &key(u64::MAX)).unwrap(), want);
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
    let (_cs, tree) = setup(PiTreeConfig::small_nodes(8, 8));
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
