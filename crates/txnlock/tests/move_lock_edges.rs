//! Move-lock edge cases from §4.1.2 (No-Wait Rule) and §4.2.2 (move
//! locks): conversions racing queued movers, the IX ∨ Move = X supremum,
//! No-Wait probes against a held move lock, and the requirement that a
//! failed No-Wait attempt releases every lock the action had already
//! acquired (so a blocked mover is never wedged by a restarting updater).

use pitree_pagestore::{BufferPool, MemDisk, PageId};
use pitree_txnlock::{LockError, LockMode, LockName, LockTable, TxnManager};
use pitree_wal::{ActionId, ActionIdentity, LogManager, LogStore, MemLogStore};
use std::sync::Arc;
use std::time::Duration;

fn page(i: u64) -> LockName {
    LockName::Page(PageId(i))
}

fn key(k: &[u8]) -> LockName {
    LockName::Key(k.to_vec())
}

/// Spin until the table's cumulative wait counter passes `past` — i.e.
/// some request has actually parked in the waiter queue.
fn await_waiter(lt: &LockTable, past: u64) {
    while lt.wait_count() <= past {
        std::thread::yield_now();
    }
}

/// §4.1.1 + §4.2.2: an updater holding IX must be able to convert to X
/// even while a structure change's Move request is queued behind it —
/// conversion grantability consults only the *granted* set, so the
/// converter jumps the queue instead of deadlocking against a mover that
/// is itself waiting for the updater to finish.
#[test]
fn u_to_x_promotion_jumps_a_queued_move_lock() {
    let lt = Arc::new(LockTable::new(Duration::from_secs(10)));
    let updater = ActionId(1);
    let mover = ActionId(2);
    lt.acquire(updater, &page(7), LockMode::IX).unwrap();

    let waits_before = lt.wait_count();
    let lt2 = Arc::clone(&lt);
    let smo = std::thread::spawn(move || {
        // Move is incompatible with IX: this parks until the updater ends.
        lt2.acquire(mover, &page(7), LockMode::Move).unwrap();
        lt2.is_move_locked(&page(7))
    });
    await_waiter(&lt, waits_before);

    // The conversion must be granted immediately, ahead of the queued Move.
    lt.acquire(updater, &page(7), LockMode::X).unwrap();
    assert_eq!(lt.holds(updater, &page(7)), Some(LockMode::X));
    assert_eq!(
        lt.holds(mover, &page(7)),
        None,
        "the mover must still be waiting while the updater holds X"
    );

    // Finishing the updater unblocks the mover.
    lt.release_all(updater);
    assert!(
        smo.join().unwrap(),
        "mover must hold the move lock after grant"
    );
    assert_eq!(lt.holds(mover, &page(7)), Some(LockMode::Move));
}

/// §4.2.2: an IX holder that itself needs a move lock converts to the
/// supremum — and sup(IX, Move) is X, because no proper supremum of the
/// two exists in the lattice. Sibling traversers still see the page as
/// move-locked (`is_move_locked` treats a page-level X as a move, since
/// nothing else in the tree protocol drives a page lock to X), so they
/// correctly refrain from scheduling postings across it.
#[test]
fn u_holder_requesting_move_converts_to_x() {
    let lt = LockTable::new(Duration::from_secs(10));
    let a = ActionId(1);
    lt.acquire(a, &page(3), LockMode::IX).unwrap();
    lt.acquire(a, &page(3), LockMode::Move).unwrap();
    assert_eq!(lt.holds(a, &page(3)), Some(LockMode::X));
    assert!(
        lt.is_move_locked(&page(3)),
        "the X reached via IX ∨ Move still reads as a move to traversers"
    );
    // An S reader — compatible with a real Move — must now be refused.
    assert_eq!(
        lt.try_acquire(ActionId(2), &page(3), LockMode::S),
        Err(LockError::WouldBlock)
    );
}

/// §4.2.2: while a move lock is held, a No-Wait probe for IX must fail
/// with `WouldBlock` (update activity cannot be allowed to alter what the
/// move must relocate), while an S reader passes.
#[test]
fn no_wait_probes_against_a_move_lock() {
    let lt = LockTable::new(Duration::from_secs(10));
    let mover = ActionId(1);
    lt.acquire(mover, &page(9), LockMode::Move).unwrap();
    assert_eq!(
        lt.try_acquire(ActionId(3), &page(9), LockMode::IX),
        Err(LockError::WouldBlock)
    );
    lt.try_acquire(ActionId(4), &page(9), LockMode::S).unwrap();
}

fn mgr() -> TxnManager {
    let disk = Arc::new(MemDisk::new());
    let pool = Arc::new(BufferPool::new(disk, 32));
    let log =
        Arc::new(LogManager::open(Arc::new(MemLogStore::new()) as Arc<dyn LogStore>).unwrap());
    pool.set_wal_hook(Arc::clone(&log) as Arc<_>);
    TxnManager::new(log, pool, Duration::from_secs(10))
}

/// §4.1.2: "the action releases its claim on all resources" when a
/// No-Wait probe fails. An updater that acquired its page intent lock but
/// lost the race for the record lock aborts; every lock it held must be
/// gone, so a mover needing that page proceeds without waiting.
#[test]
fn failed_no_wait_attempt_releases_partial_locks() {
    let m = mgr();
    let locks = m.locks();

    // A competing transaction owns the record.
    let blocker = m.begin(ActionIdentity::Transaction);
    blocker.lock(&key(b"r1"), LockMode::X).unwrap();

    // The updater gets its page intent lock, then probes the record and
    // loses — the No-Wait discipline says abort and restart, not wait.
    let updater = m.begin(ActionIdentity::Transaction);
    updater.try_lock(&page(4), LockMode::IX).unwrap();
    assert_eq!(
        updater.try_lock(&key(b"r1"), LockMode::X),
        Err(LockError::WouldBlock)
    );
    let updater_id = updater.id();
    updater.abort(None).unwrap();

    // The abort must have released the page lock too (partial acquisition
    // leaves nothing behind)…
    assert_eq!(locks.holds(updater_id, &page(4)), None);
    // …so a structure change can move-lock the page with a No-Wait probe.
    locks
        .try_acquire(ActionId(900), &page(4), LockMode::Move)
        .unwrap();
    assert!(locks.is_move_locked(&page(4)));

    blocker.commit().unwrap();
}
