//! Poison-free `std::sync` wrappers.
//!
//! The repository used to pull `parking_lot` for its non-poisoning mutexes;
//! these thin wrappers give the same call-site ergonomics (`lock()` returns a
//! guard, not a `Result`) over `std::sync` so the workspace builds with no
//! external dependencies. A poisoned mutex is simply re-entered: the latch
//! and lock-table invariants are maintained by explicit state counters, not
//! by unwinding, so poison carries no information here.

#![expect(
    clippy::disallowed_types,
    reason = "the poison-free wrappers are the one home of the raw std::sync primitives"
)]

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

/// A condition variable paired with [`Mutex`].
///
/// Unlike `parking_lot`, waiting consumes and returns the guard
/// (`guard = cv.wait(guard)`), matching `std`'s move-based API.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Block until notified; returns the re-acquired guard.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        strip(self.0.wait(guard))
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        strip(self.0.wait_timeout(guard, timeout))
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }

    #[test]
    fn condvar_wait_timeout_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let (_g, res) = cv.wait_timeout(m.lock(), Duration::from_millis(10));
        assert!(res.timed_out());
    }
}
