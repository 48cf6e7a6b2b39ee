//! Multi-threaded exercises of the group-commit log manager (§4.3.1).
//!
//! Four properties the lock-split design must keep:
//!
//! 1. `flushed_lsn` is monotone under concurrent forces, and when
//!    `force_to(lsn)` returns the record at `lsn` is readable from the
//!    durable store alone (durability is not merely promised).
//! 2. Single-threaded runs are deterministic: same seed, byte-identical
//!    durable log — group commit is a scheduling optimisation, not a
//!    format change.
//! 3. Followers ride the leader's batch: commits that arrive while a
//!    force is in flight are absorbed into one store append ("relative
//!    durability" — the leader's force carries them).
//! 4. Groups actually FORM: with a linger window pinned open, concurrent
//!    committers batch at `group_size_p50 >= threads/2` — the eager
//!    election of the original design measured p50 = 1 because the first
//!    arrival drained only its own bytes.

use pitree_obs::Registry;
use pitree_pagestore::Lsn;
use pitree_sim::{CountingStore, SimRng};
use pitree_wal::{ActionId, ActionIdentity, LogManager, LogStore, MemLogStore, RecordKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn begin() -> RecordKind {
    RecordKind::Begin {
        identity: ActionIdentity::SeparateTransaction,
    }
}

#[test]
fn concurrent_forces_are_durable_and_flushed_is_monotone() {
    let log =
        Arc::new(LogManager::open(Arc::new(MemLogStore::new()) as Arc<dyn LogStore>).unwrap());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Observer: flushed_lsn never moves backwards.
        s.spawn(|| {
            let mut prev = Lsn::ZERO;
            while !stop.load(Ordering::Acquire) {
                let f = log.flushed_lsn();
                assert!(f >= prev, "flushed_lsn went backwards: {prev} -> {f}");
                prev = f;
                std::thread::yield_now();
            }
        });
        let mut workers = Vec::new();
        for t in 0..8u64 {
            let log = Arc::clone(&log);
            workers.push(s.spawn(move || {
                for i in 0..200u64 {
                    let action = ActionId(1 + t * 1000 + i);
                    let b = log.append(action, Lsn::ZERO, begin());
                    let c = log.append(action, b, RecordKind::Commit);
                    log.force_to(c).unwrap();
                    // Durability on return: flushed covers the commit...
                    assert!(log.flushed_lsn() >= c);
                    // ...and (sampled — this is an O(log) scan) the record
                    // is really in the durable store, not just the cache.
                    if i % 32 == 0 {
                        let durable = log.store().durable_bytes().unwrap();
                        let rec = pitree_wal::log::read_at(&durable, c).unwrap();
                        assert_eq!(rec.action, action);
                        assert!(matches!(rec.kind, RecordKind::Commit));
                    }
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
    });
    log.force_all().unwrap();
    assert_eq!(log.flushed_lsn().0 + 1, log.tail_lsn().0);
    assert_eq!(log.scan(None).count(), 8 * 200 * 2);
}

#[test]
fn single_threaded_durable_bytes_are_deterministic() {
    let run = |seed: u64| -> Vec<u8> {
        let store = Arc::new(MemLogStore::new());
        let log = LogManager::open(Arc::clone(&store) as Arc<dyn LogStore>).unwrap();
        let mut rng = SimRng::new(seed);
        let mut last = Lsn::ZERO;
        for i in 0..500u64 {
            let kind = if rng.chance(0.5) {
                RecordKind::Commit
            } else {
                begin()
            };
            let lsn = log.append(ActionId(1 + i / 4), last, kind);
            last = lsn;
            if rng.chance(0.3) {
                log.force_to(lsn).unwrap();
            }
        }
        log.force_all().unwrap();
        store.durable_bytes().unwrap()
    };
    let a = run(0x5eed);
    let b = run(0x5eed);
    assert_eq!(a, b, "same seed must produce a byte-identical durable log");
    assert_ne!(run(0x0dd5eed), a, "different seed should differ");
}

#[test]
fn linger_forms_groups_of_at_least_half_the_threads() {
    const THREADS: u64 = 8;
    const ROUNDS: u64 = 40;
    let reg = Registry::new();
    let log = Arc::new(
        LogManager::open_observed(
            Arc::new(MemLogStore::new()) as Arc<dyn LogStore>,
            reg.recorder(),
        )
        .unwrap(),
    );
    // Pin a generous window so the test exercises group FORMATION, not the
    // adaptation schedule: the cohort assembles, a quiet slice ends the
    // linger, and the whole round drains as one batch.
    log.pin_linger_ns(2_000_000);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let log = Arc::clone(&log);
            s.spawn(move || {
                for i in 0..ROUNDS {
                    let action = ActionId(1 + t * 1000 + i);
                    let b = log.append(action, Lsn::ZERO, begin());
                    let c = log.append(action, b, RecordKind::Commit);
                    log.force_to(c).unwrap();
                }
            });
        }
    });
    // Hist buckets are log2: a reported p50 >= 4 can only come from true
    // group sizes >= 4 (= THREADS/2).
    let (p50, _, _, _) = reg.recorder().hist("wal.group_size").percentiles();
    assert!(
        p50 >= THREADS / 2,
        "group_size_p50 = {p50}, want >= {} — the linger window failed to \
         absorb the committing cohort",
        THREADS / 2
    );
    assert_eq!(log.scan(None).count(), (THREADS * ROUNDS * 2) as usize);
}

#[test]
fn followers_ride_the_leaders_batch() {
    // The rig's store, gate shut: the first append parks, so the test can
    // deterministically pile commits up behind an in-flight force.
    let store = Arc::new(CountingStore::new());
    let shut = store.gate();
    let reg = Registry::new();
    let log = Arc::new(
        LogManager::open_observed(Arc::clone(&store) as Arc<dyn LogStore>, reg.recorder()).unwrap(),
    );
    let waiters = reg.recorder().counter("wal.force_waiters");

    let l1 = log.append(ActionId(1), Lsn::ZERO, RecordKind::Commit);
    std::thread::scope(|s| {
        let leader = {
            let log = Arc::clone(&log);
            s.spawn(move || log.force_to(l1))
        };
        // Wait until the leader is inside the (gated) store append.
        while store.entered() < 1 {
            std::thread::yield_now();
        }
        // These commits arrive while the leader's batch is in flight; their
        // forces must queue as followers, not start their own I/O.
        let l2 = log.append(ActionId(2), Lsn::ZERO, RecordKind::Commit);
        let l3 = log.append(ActionId(3), Lsn::ZERO, RecordKind::Commit);
        let f2 = {
            let log = Arc::clone(&log);
            s.spawn(move || log.force_to(l2))
        };
        let f3 = {
            let log = Arc::clone(&log);
            s.spawn(move || log.force_to(l3))
        };
        while waiters.get() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(
            store.entered(),
            1,
            "followers must not start their own store I/O"
        );
        drop(shut);
        leader.join().unwrap().unwrap();
        f2.join().unwrap().unwrap();
        f3.join().unwrap().unwrap();
    });
    // First batch carried r1; the next leader drained r2+r3 in ONE append.
    assert_eq!(
        store.appends(),
        2,
        "both waiting commits must share a single batch"
    );
    assert_eq!(log.scan(None).count(), 3);
    assert_eq!(log.flushed_lsn().0 + 1, log.tail_lsn().0);
}
