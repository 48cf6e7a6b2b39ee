//! Seeded simulation of the §4.2.2 move-lock protocol and the §4.1.2
//! No-Wait Rule: structure changes take Move locks on the pages whose
//! records they relocate; updaters probe with `try_acquire`, treat
//! `WouldBlock` as "restart the traversal" (never waiting while latched),
//! and must always make progress once the move finishes.

use pitree_sim::{prop, SimRng};
use pitree_txnlock::{LockError, LockMode, LockName, LockTable};
use pitree_wal::ActionId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn page(i: u64) -> LockName {
    LockName::Page(pitree_pagestore::PageId(i))
}

#[test]
fn move_lock_blocks_updaters_but_not_readers() {
    let lt = LockTable::new(Duration::from_secs(5));
    let smo = ActionId(1);
    lt.acquire(smo, &page(7), LockMode::Move).unwrap();
    assert!(lt.is_move_locked(&page(7)));
    // Readers coexist with the move (§4.2.2: moves commute with reads)…
    lt.acquire(ActionId(2), &page(7), LockMode::S).unwrap();
    lt.acquire(ActionId(3), &page(7), LockMode::S).unwrap();
    // …but updaters must be refused, and per the No-Wait Rule they probe
    // with try_acquire rather than waiting.
    assert_eq!(
        lt.try_acquire(ActionId(4), &page(7), LockMode::IX),
        Err(LockError::WouldBlock)
    );
    assert_eq!(
        lt.try_acquire(ActionId(5), &page(7), LockMode::X),
        Err(LockError::WouldBlock)
    );
    // The move and both S readers end (IX conflicts with a plain S), so
    // the blocked updater's retry succeeds.
    lt.release_all(smo);
    lt.release_all(ActionId(2));
    lt.release_all(ActionId(3));
    assert!(!lt.is_move_locked(&page(7)));
    lt.try_acquire(ActionId(4), &page(7), LockMode::IX).unwrap();
}

#[test]
fn no_wait_rule_seeded_schedules_always_drain() {
    // SMO threads run short move-lock episodes over a small page set while
    // updater threads follow the No-Wait discipline: probe, on WouldBlock
    // back off ("release latches and restart"), then retry. Every updater
    // must eventually complete all its operations — no schedule may wedge.
    prop::run_cases("no_wait_schedules_drain", 8, |rng| {
        let lt = LockTable::new(Duration::from_secs(10));
        let completed = AtomicU64::new(0);
        let restarts = AtomicU64::new(0);
        let seeds: Vec<u64> = (0..6).map(|_| rng.next_u64()).collect();
        std::thread::scope(|s| {
            for (t, &seed) in seeds.iter().enumerate() {
                let lt = &lt;
                let completed = &completed;
                let restarts = &restarts;
                s.spawn(move || {
                    let mut rng = SimRng::new(seed);
                    let is_smo = t < 2;
                    for i in 0..150u64 {
                        let owner = ActionId((t as u64 + 1) * 10_000 + i + 1);
                        let pid = rng.below(4);
                        if is_smo {
                            // A structure change: move-lock the page, "move
                            // records" for a moment, then finish.
                            lt.acquire(owner, &page(pid), LockMode::Move).unwrap();
                            assert!(lt.is_move_locked(&page(pid)));
                            if rng.chance(0.3) {
                                std::thread::yield_now();
                            }
                            lt.release_all(owner);
                        } else {
                            // An updater: No-Wait probe for IX + a key X.
                            let keyname = LockName::Key(vec![b'k', rng.byte()]);
                            loop {
                                match lt
                                    .try_acquire(owner, &page(pid), LockMode::IX)
                                    .and_then(|_| lt.try_acquire(owner, &keyname, LockMode::X))
                                {
                                    Ok(()) => break,
                                    Err(LockError::WouldBlock) => {
                                        // The restart path: drop everything
                                        // (we would also release latches
                                        // here) and re-descend.
                                        lt.release_all(owner);
                                        restarts.fetch_add(1, Ordering::Relaxed);
                                        std::thread::yield_now();
                                    }
                                    Err(e) => panic!("thread {t} op {i}: {e}"),
                                }
                            }
                            // "Do the update", then two-phase release.
                            lt.release_all(owner);
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            completed.load(Ordering::Relaxed),
            4 * 150,
            "every updater op completed"
        );
        for pid in 0..4 {
            assert!(!lt.is_move_locked(&page(pid)), "no residual move locks");
            assert!(lt.holders(&page(pid)).is_empty(), "no residual grants");
        }
    });
}

#[test]
fn move_lock_via_conversion_is_detected() {
    // §4.2.2: an updater that already holds IX and then moves records (a
    // page-oriented-undo split inside the transaction) converts to X; the
    // page must then read as move-locked to everyone else.
    let lt = LockTable::new(Duration::from_secs(5));
    let txn = ActionId(9);
    lt.acquire(txn, &page(3), LockMode::IX).unwrap();
    assert!(!lt.is_move_locked(&page(3)));
    lt.acquire(txn, &page(3), LockMode::X).unwrap(); // IX ⊔ X = X conversion
    assert!(
        lt.is_move_locked(&page(3)),
        "X-converted page counts as move-locked"
    );
    assert_eq!(
        lt.try_acquire(ActionId(10), &page(3), LockMode::IX),
        Err(LockError::WouldBlock)
    );
    lt.release_all(txn);
    assert!(lt.holders(&page(3)).is_empty());
}
