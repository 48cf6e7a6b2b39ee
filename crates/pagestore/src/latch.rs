//! S / U / X latches (§4.1 of the paper).
//!
//! Latches are semaphores whose holders' usage pattern guarantees the absence
//! of deadlock: resources are latched in search order (parents before
//! children, containing nodes before contained nodes, space-management
//! information last), and promotion is only ever performed from U mode, never
//! from S mode. Latches never involve the database lock manager and never
//! conflict with database locks (`pitree-txnlock`).
//!
//! Modes, following §4.1.1 and \[Gray et al. 1976\]:
//!
//! * **S** — shared. Compatible with S and U.
//! * **U** — update. Allows sharing by readers but conflicts with U and X;
//!   since at most one U holder exists, U→X promotion cannot deadlock with a
//!   concurrent promoter (promotion from S is the classic deadlock the paper
//!   warns about, and is not offered by this API at all).
//! * **X** — exclusive.
//!
//! [`Latch`] is a container like `RwLock<T>`: data is only reachable through
//! a guard, so "read while holding at least S" and "write only while holding
//! X" are enforced by the type system. A [`UGuard`] can be promoted in place
//! with [`UGuard::promote`]; per the paper, callers must only promote while
//! holding no latch ordered after this one.

use crate::sync::{Condvar, Mutex};
use pitree_obs::{Counter, Hist, Recorder, Stopwatch};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Debug-build latch-ordering checks.
///
/// The deadlock-freedom argument of §4.1 rests on every thread acquiring
/// latches in search order. Latches constructed with [`Latch::new_ordered`]
/// carry a *rank* encoding that order (parents rank ≤ children, containing
/// nodes ≤ contained, space management last); in debug builds a thread-local
/// stack of held ranks is maintained and any blocking acquisition whose rank
/// is **below** the highest rank currently held by the same thread panics
/// immediately instead of risking an undetectable latch deadlock.
/// `try_*` acquisitions are exempt: conditional acquisition is exactly the
/// protocol's escape hatch for climbing *up* a saved path (§5.2.2(b)).
/// Unranked latches (plain [`Latch::new`]) are never checked.
pub mod order {
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }

    /// Rank meaning "not participating in order checking".
    pub const UNRANKED: u64 = u64::MAX;

    pub(super) fn check_and_push(rank: u64) {
        if rank == UNRANKED || !cfg!(debug_assertions) {
            return;
        }
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(&max) = held.iter().max() {
                assert!(
                    rank >= max,
                    "latch order violation: blocking acquisition of rank {rank} \
                     while holding rank {max} (acquire in search order, or use try_*)"
                );
            }
            held.push(rank);
        });
    }

    /// Record a `try_*` acquisition: tracked (so later blocking acquisitions
    /// see it) but never checked itself.
    pub(super) fn push_unchecked(rank: u64) {
        if rank == UNRANKED || !cfg!(debug_assertions) {
            return;
        }
        HELD.with(|h| h.borrow_mut().push(rank));
    }

    pub(super) fn pop(rank: u64) {
        if rank == UNRANKED || !cfg!(debug_assertions) {
            return;
        }
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&r| r == rank) {
                held.remove(pos);
            }
        });
    }

    /// Ranks currently held by this thread (diagnostics / tests).
    pub fn held_ranks() -> Vec<u64> {
        HELD.with(|h| h.borrow().clone())
    }
}

/// Process-wide latch-contention counters, for the concurrency experiments:
/// on a single-core host, wall-clock throughput cannot expose blocking, but
/// the number of acquisitions that had to *wait* can.
pub mod contention {
    use super::*;

    static WAITS: AtomicU64 = AtomicU64::new(0);

    #[inline]
    pub(super) fn record_wait() {
        WAITS.fetch_add(1, Ordering::Relaxed);
    }

    /// Total latch acquisitions that blocked since the last [`reset`].
    pub fn waits() -> u64 {
        WAITS.load(Ordering::Relaxed)
    }

    /// Zero the counter.
    pub fn reset() {
        WAITS.store(0, Ordering::Relaxed);
    }
}

/// Latch acquisition modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatchMode {
    /// Shared.
    S,
    /// Update: read access now, intent to possibly promote to X.
    U,
    /// Exclusive.
    X,
}

#[derive(Default)]
struct State {
    /// Number of S holders.
    readers: u32,
    /// Whether a U holder exists (at most one).
    u_held: bool,
    /// Whether an X holder exists.
    x_held: bool,
    /// Whether the U holder is waiting to promote; blocks new S acquisitions
    /// so the promotion drains.
    promoting: bool,
    /// Number of threads blocked waiting for X; blocks new S acquisitions to
    /// avoid writer starvation.
    x_waiting: u32,
}

impl State {
    fn can_s(&self) -> bool {
        !self.x_held && !self.promoting && self.x_waiting == 0
    }
    fn can_u(&self) -> bool {
        !self.x_held && !self.u_held
    }
    fn can_x(&self) -> bool {
        !self.x_held && !self.u_held && self.readers == 0
    }
}

/// Latch observability handles, resolved from the registry's name map once
/// (per buffer pool) and cloned into each observed latch, so neither the
/// hot path nor building a frame touches the map. Buffer-pool frame
/// latches are observed ([`Latch::new_observed`]); ad-hoc latches are
/// not and pay only an `Option` check.
#[derive(Clone)]
pub(crate) struct LatchObs {
    acq_s: Counter,
    acq_u: Counter,
    acq_x: Counter,
    promotes: Counter,
    waits: Counter,
    wait_ns: Hist,
}

impl LatchObs {
    pub(crate) fn new(rec: &Recorder) -> LatchObs {
        LatchObs {
            acq_s: rec.counter("latch.acquire_s"),
            acq_u: rec.counter("latch.acquire_u"),
            acq_x: rec.counter("latch.acquire_x"),
            promotes: rec.counter("latch.promotes"),
            waits: rec.counter("latch.waits"),
            wait_ns: rec.hist("latch.wait_ns"),
        }
    }

    fn acquired(&self, counter: &Counter, waited: Option<Stopwatch>) {
        counter.inc();
        if let Some(t) = waited {
            self.waits.inc();
            self.wait_ns.record(t.elapsed_ns());
        }
    }
}

/// A latch-protected value. See the module docs for the protocol.
pub struct Latch<T> {
    state: Mutex<State>,
    cv: Condvar,
    rank: u64,
    obs: Option<LatchObs>,
    data: UnsafeCell<T>,
}

// Safety: access to `data` is mediated by the latch protocol — shared refs
// only under S/U, exclusive refs only under X.
unsafe impl<T: Send> Send for Latch<T> {}
unsafe impl<T: Send + Sync> Sync for Latch<T> {}

impl<T> std::fmt::Debug for Latch<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Latch")
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

impl<T> Latch<T> {
    /// Wrap `value` in a latch that does not participate in order checking.
    pub fn new(value: T) -> Latch<T> {
        Latch {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            rank: order::UNRANKED,
            obs: None,
            data: UnsafeCell::new(value),
        }
    }

    /// Wrap `value` in a latch with an ordering `rank`; debug builds panic
    /// on blocking acquisitions that violate search order (see [`order`]).
    pub fn new_ordered(value: T, rank: u64) -> Latch<T> {
        Latch {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            rank,
            obs: None,
            data: UnsafeCell::new(value),
        }
    }

    /// Wrap `value` in a latch that records every acquisition and wait
    /// through `obs` (`latch.*` counters, `latch.wait_ns` histogram). The
    /// buffer pool observes its frame latches this way; unobserved latches
    /// pay only an `Option` check.
    pub(crate) fn new_observed(value: T, rank: u64, obs: LatchObs) -> Latch<T> {
        Latch {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            rank,
            obs: Some(obs),
            data: UnsafeCell::new(value),
        }
    }

    /// This latch's ordering rank ([`order::UNRANKED`] when unchecked).
    pub fn rank(&self) -> u64 {
        self.rank
    }

    /// Acquire in S mode, blocking.
    pub fn s(&self) -> SGuard<'_, T> {
        order::check_and_push(self.rank);
        let mut st = self.state.lock();
        let mut waited = None;
        if !st.can_s() {
            contention::record_wait();
            waited = Some(Stopwatch::start());
            while !st.can_s() {
                st = self.cv.wait(st);
            }
        }
        st.readers += 1;
        drop(st);
        if let Some(o) = &self.obs {
            o.acquired(&o.acq_s, waited);
        }
        SGuard { latch: self }
    }

    /// Try to acquire in S mode without blocking.
    pub fn try_s(&self) -> Option<SGuard<'_, T>> {
        let mut st = self.state.lock();
        if st.can_s() {
            st.readers += 1;
            drop(st);
            order::push_unchecked(self.rank);
            if let Some(o) = &self.obs {
                o.acquired(&o.acq_s, None);
            }
            Some(SGuard { latch: self })
        } else {
            None
        }
    }

    /// Acquire in U mode, blocking. U allows concurrent S readers but
    /// excludes other U and X holders.
    pub fn u(&self) -> UGuard<'_, T> {
        order::check_and_push(self.rank);
        let mut st = self.state.lock();
        let mut waited = None;
        if !st.can_u() {
            contention::record_wait();
            waited = Some(Stopwatch::start());
            while !st.can_u() {
                st = self.cv.wait(st);
            }
        }
        st.u_held = true;
        drop(st);
        if let Some(o) = &self.obs {
            o.acquired(&o.acq_u, waited);
        }
        UGuard { latch: self }
    }

    /// Try to acquire in U mode without blocking.
    pub fn try_u(&self) -> Option<UGuard<'_, T>> {
        let mut st = self.state.lock();
        if st.can_u() {
            st.u_held = true;
            drop(st);
            order::push_unchecked(self.rank);
            if let Some(o) = &self.obs {
                o.acquired(&o.acq_u, None);
            }
            Some(UGuard { latch: self })
        } else {
            None
        }
    }

    /// Acquire in X mode, blocking.
    pub fn x(&self) -> XGuard<'_, T> {
        order::check_and_push(self.rank);
        let mut st = self.state.lock();
        st.x_waiting += 1;
        let mut waited = None;
        if !st.can_x() {
            contention::record_wait();
            waited = Some(Stopwatch::start());
            while !st.can_x() {
                st = self.cv.wait(st);
            }
        }
        st.x_waiting -= 1;
        st.x_held = true;
        drop(st);
        if let Some(o) = &self.obs {
            o.acquired(&o.acq_x, waited);
        }
        XGuard { latch: self }
    }

    /// Try to acquire in X mode without blocking.
    pub fn try_x(&self) -> Option<XGuard<'_, T>> {
        let mut st = self.state.lock();
        if st.can_x() {
            st.x_held = true;
            drop(st);
            order::push_unchecked(self.rank);
            if let Some(o) = &self.obs {
                o.acquired(&o.acq_x, None);
            }
            Some(XGuard { latch: self })
        } else {
            None
        }
    }

    /// Whether any holder is present (diagnostics only; racy by nature).
    pub fn is_held(&self) -> bool {
        let st = self.state.lock();
        st.x_held || st.u_held || st.readers > 0
    }

    /// Get the protected value without latching. Only sound when the caller
    /// has unique access (e.g. during single-threaded recovery or pool
    /// teardown).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

/// Shared-mode guard.
pub struct SGuard<'a, T> {
    latch: &'a Latch<T>,
}

impl<T> std::fmt::Debug for SGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SGuard")
            .field("rank", &self.latch.rank)
            .finish_non_exhaustive()
    }
}

impl<T> Deref for SGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: S mode held — no X holder can exist.
        unsafe { &*self.latch.data.get() }
    }
}

impl<T> Drop for SGuard<'_, T> {
    fn drop(&mut self) {
        let mut st = self.latch.state.lock();
        st.readers -= 1;
        drop(st);
        order::pop(self.latch.rank);
        self.latch.cv.notify_all();
    }
}

/// Update-mode guard: read access plus the exclusive right to promote.
pub struct UGuard<'a, T> {
    latch: &'a Latch<T>,
}

impl<T> std::fmt::Debug for UGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UGuard")
            .field("rank", &self.latch.rank)
            .finish_non_exhaustive()
    }
}

impl<'a, T> UGuard<'a, T> {
    /// Promote to X mode, waiting for concurrent readers to drain.
    ///
    /// Safe against latch deadlock because at most one U holder exists and S
    /// holders never promote; callers must obey the paper's rule of not
    /// holding latches ordered after this one while promoting (§4.1.1).
    pub fn promote(self) -> XGuard<'a, T> {
        let latch = self.latch;
        let mut waited = None;
        {
            let mut st = latch.state.lock();
            st.promoting = true;
            if st.readers > 0 || st.x_held {
                contention::record_wait();
                waited = Some(Stopwatch::start());
                while st.readers > 0 || st.x_held {
                    st = latch.cv.wait(st);
                }
            }
            st.promoting = false;
            st.u_held = false;
            st.x_held = true;
        }
        if let Some(o) = &latch.obs {
            o.acquired(&o.promotes, waited);
        }
        std::mem::forget(self); // state already transferred to the X guard
        XGuard { latch }
    }

    /// Demote to S mode (used when a would-be writer discovers no write is
    /// needed but wants to keep reading).
    pub fn demote(self) -> SGuard<'a, T> {
        let latch = self.latch;
        {
            let mut st = latch.state.lock();
            st.u_held = false;
            st.readers += 1;
        }
        std::mem::forget(self);
        latch.cv.notify_all();
        SGuard { latch }
    }
}

impl<T> Deref for UGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: U mode held — no X holder can exist.
        unsafe { &*self.latch.data.get() }
    }
}

impl<T> Drop for UGuard<'_, T> {
    fn drop(&mut self) {
        let mut st = self.latch.state.lock();
        st.u_held = false;
        drop(st);
        order::pop(self.latch.rank);
        self.latch.cv.notify_all();
    }
}

/// Exclusive-mode guard.
pub struct XGuard<'a, T> {
    latch: &'a Latch<T>,
}

impl<T> std::fmt::Debug for XGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XGuard")
            .field("rank", &self.latch.rank)
            .finish_non_exhaustive()
    }
}

impl<'a, T> XGuard<'a, T> {
    /// Demote to U mode (keeps readers out of write mode but lets S in).
    pub fn demote_to_u(self) -> UGuard<'a, T> {
        let latch = self.latch;
        {
            let mut st = latch.state.lock();
            st.x_held = false;
            st.u_held = true;
        }
        std::mem::forget(self);
        latch.cv.notify_all();
        UGuard { latch }
    }
}

impl<T> Deref for XGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: X mode held — exclusive.
        unsafe { &*self.latch.data.get() }
    }
}

impl<T> DerefMut for XGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: X mode held — exclusive.
        unsafe { &mut *self.latch.data.get() }
    }
}

impl<T> Drop for XGuard<'_, T> {
    fn drop(&mut self) {
        let mut st = self.latch.state.lock();
        st.x_held = false;
        drop(st);
        order::pop(self.latch.rank);
        self.latch.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn s_is_shared() {
        let l = Latch::new(5);
        let a = l.s();
        let b = l.s();
        assert_eq!(*a + *b, 10);
    }

    #[test]
    fn s_blocks_x() {
        let l = Latch::new(());
        let _s = l.s();
        assert!(l.try_x().is_none());
        assert!(l.try_u().is_some(), "U is compatible with S");
    }

    #[test]
    fn u_excludes_u_and_x_but_not_s() {
        let l = Latch::new(());
        let _u = l.u();
        assert!(l.try_u().is_none());
        assert!(l.try_x().is_none());
        assert!(l.try_s().is_some());
    }

    #[test]
    fn x_excludes_everything() {
        let l = Latch::new(());
        let _x = l.x();
        assert!(l.try_s().is_none());
        assert!(l.try_u().is_none());
        assert!(l.try_x().is_none());
    }

    #[test]
    fn x_allows_mutation() {
        let l = Latch::new(0u32);
        {
            let mut g = l.x();
            *g = 42;
        }
        assert_eq!(*l.s(), 42);
    }

    #[test]
    fn promote_waits_for_readers() {
        let l = Latch::new(0u32);
        let reader_done = AtomicU32::new(0);
        std::thread::scope(|scope| {
            let u = l.u();
            let s = l.s();
            scope.spawn(|| {
                // A sleep, not a signal: no per-latch count moves before a latch blocks.
                std::thread::sleep(Duration::from_millis(20));
                reader_done.store(1, Ordering::SeqCst);
                drop(s);
            });
            // Promotion must block until the reader drops.
            let mut x = u.promote();
            assert_eq!(reader_done.load(Ordering::SeqCst), 1);
            *x = 7;
        });
        assert_eq!(*l.s(), 7);
    }

    #[test]
    fn promote_blocks_new_readers() {
        // While a promotion is pending, new S requests must not starve it.
        let l = Latch::new(());
        let promoted = AtomicU32::new(0);
        std::thread::scope(|scope| {
            let u = l.u();
            let s = l.s();
            scope.spawn(|| {
                let _x = u.promote();
                promoted.store(1, Ordering::SeqCst);
            });
            // Let the promoter block: a sleep, as no per-latch count moves first.
            std::thread::sleep(Duration::from_millis(20));
            assert!(
                l.try_s().is_none(),
                "pending promotion must block new readers"
            );
            drop(s);
        });
        assert_eq!(promoted.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn demote_u_to_s() {
        let l = Latch::new(());
        let u = l.u();
        let _s = u.demote();
        assert!(l.try_u().is_some(), "after demote, U is available again");
    }

    #[test]
    fn demote_x_to_u_lets_readers_in() {
        let l = Latch::new(());
        let x = l.x();
        let _u = x.demote_to_u();
        assert!(l.try_s().is_some());
        assert!(l.try_x().is_none());
    }

    #[test]
    fn concurrent_counter_under_x() {
        let l = Arc::new(Latch::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let mut g = l.x();
                    *g += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*l.s(), 8000);
    }

    #[test]
    fn contention_counter_records_blocking() {
        contention::reset();
        let l = Latch::new(0u32);
        {
            let _s = l.s();
            assert!(l.try_x().is_none());
        }
        // Uncontended acquisitions do not count.
        let before = contention::waits();
        drop(l.s());
        drop(l.u());
        drop(l.x());
        assert_eq!(contention::waits(), before);
        // A blocked X does.
        std::thread::scope(|scope| {
            let g = l.s();
            scope.spawn(|| {
                let _x = l.x(); // must wait for the reader
            });
            // A sleep, not a signal: no per-latch count moves before a latch blocks.
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(g);
        });
        assert!(contention::waits() > before);
    }

    #[test]
    fn writers_not_starved_by_readers() {
        let l = Arc::new(Latch::new(0u32));
        let stop = Arc::new(AtomicU32::new(0));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&l);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while stop.load(Ordering::SeqCst) == 0 {
                    let _g = l.s();
                    std::thread::yield_now();
                }
            }));
        }
        {
            let mut g = l.x(); // must succeed despite the reader storm
            *g = 1;
        }
        stop.store(1, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*l.s(), 1);
    }
}
