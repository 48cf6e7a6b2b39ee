//! Lock-manager stress tests: many threads, overlapping lock sets, and
//! randomized orders. Every blocked acquisition must end in a grant, a
//! detected deadlock, or (never, at these scales) a timeout — and the table
//! must drain to empty.

use pitree_sim::SimRng;
use pitree_txnlock::{LockError, LockMode, LockName, LockTable};
use pitree_wal::ActionId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn key(i: u64) -> LockName {
    LockName::Key(i.to_be_bytes().to_vec())
}

#[test]
fn randomized_two_phase_transactions_never_hang() {
    let lt = LockTable::new(Duration::from_secs(30));
    let granted = AtomicU64::new(0);
    let deadlocks = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let lt = &lt;
            let granted = &granted;
            let deadlocks = &deadlocks;
            s.spawn(move || {
                let mut rng = SimRng::new(t);
                for txn in 0..300u64 {
                    let owner = ActionId(t * 1_000 + txn + 1);
                    let mut held = 0;
                    for _ in 0..rng.range(1..5) {
                        let name = key(rng.below(12));
                        let mode = if rng.chance(0.5) {
                            LockMode::S
                        } else {
                            LockMode::X
                        };
                        match lt.acquire(owner, &name, mode) {
                            Ok(()) => {
                                held += 1;
                                granted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(LockError::Deadlock) => {
                                deadlocks.fetch_add(1, Ordering::Relaxed);
                                break; // victim: abort
                            }
                            Err(e) => panic!("unexpected lock failure: {e}"),
                        }
                    }
                    let _ = held;
                    lt.release_all(owner); // 2PL end
                }
            });
        }
    });
    assert!(
        granted.load(Ordering::Relaxed) > 1000,
        "most acquisitions succeed"
    );
    // The table must be fully drained.
    for i in 0..12 {
        assert!(lt.holders(&key(i)).is_empty(), "lock {i} leaked");
    }
    println!(
        "granted {} / deadlock victims {}",
        granted.load(Ordering::Relaxed),
        deadlocks.load(Ordering::Relaxed)
    );
}

#[test]
fn mixed_modes_with_move_locks_drain() {
    let lt = LockTable::new(Duration::from_secs(30));
    std::thread::scope(|s| {
        // Updaters: IX page + X key.
        for t in 0..4u64 {
            let lt = &lt;
            s.spawn(move || {
                let mut rng = SimRng::new(100 + t);
                for txn in 0..200u64 {
                    let owner = ActionId(10_000 + t * 1_000 + txn);
                    let page = LockName::Page(pitree_pagestore::PageId(rng.range(1..4)));
                    if lt.acquire(owner, &page, LockMode::IX).is_ok() {
                        let _ = lt.acquire(owner, &key(rng.below(8)), LockMode::X);
                    }
                    lt.release_all(owner);
                }
            });
        }
        // Movers: MOVE on pages (action-duration).
        for t in 0..2u64 {
            let lt = &lt;
            s.spawn(move || {
                let mut rng = SimRng::new(200 + t);
                for act in 0..200u64 {
                    let owner = ActionId(20_000 + t * 1_000 + act);
                    let page = LockName::Page(pitree_pagestore::PageId(rng.range(1..4)));
                    match lt.acquire(owner, &page, LockMode::Move) {
                        Ok(()) | Err(LockError::Deadlock) => {}
                        Err(e) => panic!("mover: {e}"),
                    }
                    lt.release_all(owner);
                }
            });
        }
        // Readers: S keys (compatible with MOVE).
        for t in 0..2u64 {
            let lt = &lt;
            s.spawn(move || {
                let mut rng = SimRng::new(300 + t);
                for txn in 0..400u64 {
                    let owner = ActionId(30_000 + t * 1_000 + txn);
                    match lt.acquire(owner, &key(rng.below(8)), LockMode::S) {
                        Ok(()) | Err(LockError::Deadlock) => {}
                        Err(e) => panic!("reader: {e}"),
                    }
                    lt.release_all(owner);
                }
            });
        }
    });
    for i in 0..8 {
        assert!(lt.holders(&key(i)).is_empty());
    }
    for p in 1..4 {
        assert!(lt
            .holders(&LockName::Page(pitree_pagestore::PageId(p)))
            .is_empty());
    }
}

#[test]
fn no_wait_try_acquire_never_blocks() {
    let lt = LockTable::new(Duration::from_secs(30));
    lt.acquire(ActionId(1), &key(0), LockMode::X).unwrap();
    #[expect(
        clippy::disallowed_types,
        reason = "wall-clock upper bound on the no-wait loop; asserts a ceiling, not a timing"
    )]
    let start = std::time::Instant::now();
    for _ in 0..10_000 {
        assert_eq!(
            lt.try_acquire(ActionId(2), &key(0), LockMode::S),
            Err(LockError::WouldBlock)
        );
    }
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "try_acquire must return immediately"
    );
    lt.release_all(ActionId(1));
}

#[test]
fn is_move_locked_sees_conversions() {
    let lt = LockTable::default();
    let page = LockName::Page(pitree_pagestore::PageId(7));
    lt.acquire(ActionId(1), &page, LockMode::IX).unwrap();
    assert!(!lt.is_move_locked(&page));
    // IX + Move converts to X; the page must still read as move-locked.
    lt.acquire(ActionId(1), &page, LockMode::Move).unwrap();
    assert!(lt.is_move_locked(&page));
    lt.release_all(ActionId(1));
    assert!(!lt.is_move_locked(&page));
}
