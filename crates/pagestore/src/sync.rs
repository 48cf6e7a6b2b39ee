//! Poison-free `std::sync` wrappers.
//!
//! The repository used to pull `parking_lot` for its non-poisoning mutexes;
//! these thin wrappers give the same call-site ergonomics (`lock()` returns a
//! guard, not a `Result`) over `std::sync` so the workspace builds with no
//! external dependencies. A poisoned mutex is simply re-entered: the latch
//! and lock-table invariants are maintained by explicit state counters, not
//! by unwinding, so poison carries no information here.
//!
//! # The wake contract
//!
//! [`Condvar`] counts the threads parked in [`Condvar::wait`] and
//! [`Condvar::wait_timeout`], and a notify with nobody parked returns
//! without a syscall (std's futex condvar issues a `FUTEX_WAKE` on every
//! notify, waiter or not). A waiter bumps the count while it still holds
//! the paired mutex, before it sleeps, and drops it once it is awake and
//! holds the mutex again. So the rule every caller keeps is:
//!
//! **Any predicate a waiter tests must change under the paired mutex** (or
//! be published before the notifier's critical section on that mutex).
//!
//! Then a notifier that changed the predicate either ran its critical
//! section before the waiter tested it (and the waiter sees the change) or
//! after the waiter's increment (and the mutex hand-off makes the notifier
//! see a non-zero count). A notifier that changes state with no mutex at
//! all could lose a wakeup here — but so could it with std's condvar, whose
//! waiter may test the predicate before the change and sleep after it.
//!
//! DESIGN.md §8 audits every wait site in the store against this rule.

#![expect(
    clippy::disallowed_types,
    reason = "the poison-free wrappers are the one home of the raw std::sync primitives"
)]

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{LockResult, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// Re-export of the std guard; `lock()` below hands it out poison-stripped.
pub use std::sync::MutexGuard;

fn strip<T>(r: LockResult<T>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// A mutex whose `lock` never fails (poisoning is ignored).
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T: ?Sized> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T> Mutex<T> {
    /// Wrap `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        strip(self.0.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex, blocking. Never fails.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        strip(self.0.lock())
    }

    /// Acquire the mutex without blocking; `None` if it is held. Poisoning
    /// is stripped like [`Mutex::lock`].
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Get the protected value through a unique reference, without locking.
    pub fn get_mut(&mut self) -> &mut T {
        strip(self.0.get_mut())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// A condition variable paired with [`Mutex`], whose notifies skip the
/// syscall when no thread is parked (see the module docs' wake contract).
///
/// Unlike `parking_lot`, waiting consumes and returns the guard
/// (`guard = cv.wait(guard)`), matching `std`'s move-based API.
#[derive(Default)]
pub struct Condvar {
    cv: std::sync::Condvar,
    /// Threads inside `wait`/`wait_timeout`. Changed only while the paired
    /// mutex is held: a waiter's increment is sequenced before `wait`
    /// releases the mutex, and a notifier reads the count after acquiring
    /// it, so the mutex's release/acquire pair orders the two and `Relaxed`
    /// suffices. The count publishes no other data. A `u32` keeps the
    /// condvar at 8 bytes: every buffer-pool frame's latch carries one.
    parked: AtomicU32,
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            cv: std::sync::Condvar::new(),
            parked: AtomicU32::new(0),
        }
    }

    /// Block until notified; returns the re-acquired guard.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.parked.fetch_add(1, Ordering::Relaxed);
        let guard = strip(self.cv.wait(guard));
        self.parked.fetch_sub(1, Ordering::Relaxed);
        guard
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        self.parked.fetch_add(1, Ordering::Relaxed);
        let woke = strip(self.cv.wait_timeout(guard, timeout));
        self.parked.fetch_sub(1, Ordering::Relaxed);
        woke
    }

    /// Wake one waiter, if any is parked.
    pub fn notify_one(&self) {
        if self.parked() != 0 {
            self.cv.notify_one();
        }
    }

    /// Wake all waiters, if any is parked.
    pub fn notify_all(&self) {
        if self.parked() != 0 {
            self.cv.notify_all();
        }
    }

    /// Threads parked in `wait`/`wait_timeout` right now. Exact under the
    /// paired mutex; a diagnostic (racy) read without it.
    pub fn parked(&self) -> u32 {
        self.parked.load(Ordering::Relaxed)
    }
}

/// A `HashMap` hashed by [`FixedState`].
pub type FixedMap<K, V> = std::collections::HashMap<K, V, FixedState>;

/// The store's map hasher: fixed-seed, std-only. `RandomState` seeds each
/// process differently, so when a map grows — and what a run allocates —
/// changed from run to run; a fixed seed makes both a function of the keys.
/// It serves the pool's page table, the lock table and the txn registry.
/// Page and action ids are the store's own; a lock name can carry a record
/// key, so a caller choosing keys to collide could slow the lock table — a
/// fixed seed gives up the protection `RandomState` had there.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedState;

impl std::hash::BuildHasher for FixedState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(0x243f_6a88_85a3_08d3)
    }
}

/// [`FixedState`]'s hasher: a multiply-rotate over `u64` words. The
/// rotation brings the multiply's well-mixed high bits down to the low bits
/// a table indexes by.
#[derive(Debug, Clone, Copy)]
pub struct WordHasher(u64);

impl WordHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }
}

impl std::hash::Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            self.word(u64::from_le_bytes(b));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut b = [0u8; 8];
            for (dst, src) in b.iter_mut().zip(rest) {
                *dst = *src;
            }
            self.word(u64::from_le_bytes(b) ^ (rest.len() as u64) << 59);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.word(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.word(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.word(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn try_lock_contended_and_free() {
        let m = Mutex::new(5u32);
        {
            let _g = m.lock();
            assert!(m.try_lock().is_none());
        }
        assert_eq!(*m.try_lock().expect("uncontended"), 5);
    }

    #[test]
    fn poisoned_mutex_still_locks() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // A std mutex would now return Err; the wrapper strips the poison.
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
        });
        let (m, cv) = &*pair;
        while cv.parked() == 0 {
            std::thread::yield_now();
        }
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
        assert_eq!(cv.parked(), 0, "a notified waiter unparks");
    }

    #[test]
    fn condvar_wait_timeout_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let (_g, res) = cv.wait_timeout(m.lock(), Duration::from_millis(10));
        assert!(res.timed_out());
        assert_eq!(cv.parked(), 0, "a timed-out waiter unparks");
    }

    /// Lost-wakeup stress: each round the notifier bumps a generation under
    /// the mutex while the waiters are on their way back into `wait` for it
    /// (each after a spin of a different length, so a bump finds anywhere
    /// from none to all of them parked). A skipped notify that was owed
    /// shows up as a 10 s timeout, which ends the run and fails the test.
    #[test]
    fn fixed_state_hashes_alike_in_every_map_and_spreads_page_ids() {
        use std::hash::BuildHasher;
        let h = |v: &dyn Fn(&mut WordHasher)| {
            let mut s = FixedState.build_hasher();
            v(&mut s);
            std::hash::Hasher::finish(&s)
        };
        assert_eq!(FixedState.hash_one(7u64), FixedState.hash_one(7u64));
        assert_ne!(FixedState.hash_one(7u64), FixedState.hash_one(8u64));
        // A byte string's tail is not lost to its padding.
        let a = h(&|s| std::hash::Hasher::write(s, b"abc"));
        let b = h(&|s| std::hash::Hasher::write(s, b"abc\0"));
        assert_ne!(a, b);
        // Sequential page ids fill a 1024-bucket table's low bits evenly.
        let mut buckets = [0u32; 1024];
        for pid in 0..8192u64 {
            buckets[(FixedState.hash_one(pid) & 1023) as usize] += 1;
        }
        assert!(
            buckets.iter().all(|&n| (2..=16).contains(&n)),
            "{buckets:?}"
        );
    }

    #[test]
    fn no_lost_wakeup_under_generation_churn() {
        const WAITERS: u64 = 3;
        const ROUNDS: u64 = 10_000;
        let gen = Mutex::new(0u64);
        let cv = Condvar::new();
        let seen = AtomicU64::new(0);
        let lost_in_round = AtomicU64::new(0);
        std::thread::scope(|s| {
            for w in 0..WAITERS {
                let (gen, cv, seen, lost_in_round) = (&gen, &cv, &seen, &lost_in_round);
                s.spawn(move || {
                    for round in 1..=ROUNDS {
                        for _ in 0..(round * (w + 1)) % 64 {
                            std::hint::spin_loop();
                        }
                        let mut g = gen.lock();
                        while *g < round {
                            let (woke, res) = cv.wait_timeout(g, Duration::from_secs(10));
                            if res.timed_out() {
                                lost_in_round.store(round, Ordering::SeqCst);
                                return;
                            }
                            g = woke;
                        }
                        drop(g);
                        seen.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            'rounds: for round in 1..=ROUNDS {
                // Wait for every waiter to have seen the previous round, so
                // the next bump races their return into `wait`.
                while seen.load(Ordering::SeqCst) < WAITERS * (round - 1) {
                    if lost_in_round.load(Ordering::SeqCst) != 0 {
                        break 'rounds;
                    }
                    std::thread::yield_now();
                }
                *gen.lock() = round;
                cv.notify_all();
            }
        });
        let lost = lost_in_round.load(Ordering::SeqCst);
        assert_eq!(lost, 0, "a waiter timed out in round {lost}: lost wakeup");
        assert_eq!(seen.load(Ordering::SeqCst), WAITERS * ROUNDS);
        assert_eq!(cv.parked(), 0);
    }
}
