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
//! X" are enforced by the type system. Every guard derefs to `&T` only: the
//! mutable access of an [`XGuard`] is private to this crate, so outside
//! `pagestore` a latched page changes only through the logging entries of
//! [`PinnedPage`](crate::buffer::PinnedPage) (§4.3.1). A [`UGuard`] can be promoted in place
//! with [`UGuard::promote`]; per the paper, callers must only promote while
//! holding no latch ordered after this one.
//!
//! A latch does not check the order it is taken in. `pitree-lint`'s
//! `latch-order` flow rule does, statically: a climb up a saved path may
//! only use `try_*` (§5.2.2(b)), and `promote` may not run while another
//! blocking guard is held. The concurrent oracles (`pitree-check`) cover
//! the interleavings.

use crate::sync::{Condvar, Mutex};
use pitree_obs::{Counter, Hist, Recorder, Stopwatch};
use std::cell::UnsafeCell;
use std::ops::Deref;
use std::sync::Arc;

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
/// (per buffer pool) and shared by every observed latch through one `Arc`,
/// so neither the hot path nor building a frame touches the map, and a
/// frame carries one pointer rather than six handles. Buffer-pool frame
/// latches are observed ([`Latch::new_observed`]); ad-hoc latches are
/// not and pay only an `Option` check.
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
    obs: Option<Arc<LatchObs>>,
    data: UnsafeCell<T>,
}

// Safety: access to `data` is mediated by the latch protocol — shared refs
// only under S/U, exclusive refs only under X.
unsafe impl<T: Send> Send for Latch<T> {}
unsafe impl<T: Send + Sync> Sync for Latch<T> {}

impl<T> std::fmt::Debug for Latch<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Latch").finish_non_exhaustive()
    }
}

impl<T> Latch<T> {
    /// Wrap `value` in an unobserved latch.
    pub fn new(value: T) -> Latch<T> {
        Latch {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            obs: None,
            data: UnsafeCell::new(value),
        }
    }

    /// Wrap `value` in a latch that records every acquisition and wait
    /// through `obs` (`latch.*` counters, `latch.wait_ns` histogram). The
    /// buffer pool observes its frame latches this way; unobserved latches
    /// pay only an `Option` check.
    pub(crate) fn new_observed(value: T, obs: Arc<LatchObs>) -> Latch<T> {
        Latch {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            obs: Some(obs),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquire in S mode, blocking.
    pub fn s(&self) -> SGuard<'_, T> {
        let mut st = self.state.lock();
        let mut waited = None;
        if !st.can_s() {
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
        let mut st = self.state.lock();
        let mut waited = None;
        if !st.can_u() {
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
        let mut st = self.state.lock();
        st.x_waiting += 1;
        let mut waited = None;
        if !st.can_x() {
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
            if let Some(o) = &self.obs {
                o.acquired(&o.acq_x, None);
            }
            Some(XGuard { latch: self })
        } else {
            None
        }
    }

    /// Threads blocked in an acquisition or a promotion of this latch
    /// (diagnostics only; racy by nature). Tests use it to
    /// know a thread has blocked instead of sleeping.
    pub fn parked(&self) -> u32 {
        self.cv.parked()
    }
}

/// Shared-mode guard.
pub struct SGuard<'a, T> {
    latch: &'a Latch<T>,
}

impl<T> std::fmt::Debug for SGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SGuard").finish_non_exhaustive()
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
        self.latch.cv.notify_all();
    }
}

/// Update-mode guard: read access plus the exclusive right to promote.
pub struct UGuard<'a, T> {
    latch: &'a Latch<T>,
}

impl<T> std::fmt::Debug for UGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UGuard").finish_non_exhaustive()
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
        self.latch.cv.notify_all();
    }
}

/// Exclusive-mode guard. It derefs to `&T` only: a frame's page changes
/// through [`PinnedPage::apply_logged`](crate::buffer::PinnedPage::apply_logged)
/// or [`PinnedPage::replay`](crate::buffer::PinnedPage::replay).
///
/// ```compile_fail,E0596
/// # use pitree_pagestore::{BufferPool, MemDisk, PageId, PageType};
/// # let pool = BufferPool::new(std::sync::Arc::new(MemDisk::new()), 4);
/// let page = pool.fetch_or_create(PageId(1), PageType::Node).unwrap();
/// let mut g = page.x();
/// g.insert(0, b"unlogged").unwrap(); // no `&mut Page` from a frame guard
/// page.mark_dirty();
/// ```
///
/// ```
/// # use pitree_pagestore::{BufferPool, Lsn, MemDisk, PageId, PageOp, PageType};
/// # let pool = BufferPool::new(std::sync::Arc::new(MemDisk::new()), 4);
/// # let mut log: Vec<PageOp> = Vec::new();
/// # let mut append = |op: &PageOp| { log.push(op.clone()); Lsn(log.len() as u64) };
/// let page = pool.fetch_or_create(PageId(1), PageType::Node).unwrap();
/// let mut g = page.x();
/// let op = PageOp::InsertSlot { slot: 0, bytes: b"logged".to_vec() };
/// page.apply_logged(&mut g, &op, || append(&op)).unwrap();
/// page.mark_dirty();
/// ```
///
/// Releasing a guard moves it, so a second release is a use of a moved
/// value:
///
/// ```compile_fail,E0382
/// # use pitree_pagestore::Latch;
/// let latch = Latch::new(0u64);
/// let g = latch.x();
/// drop(g);
/// drop(g);
/// ```
///
/// ```
/// # use pitree_pagestore::Latch;
/// let latch = Latch::new(0u64);
/// let g = latch.x();
/// drop(g);
/// ```
pub struct XGuard<'a, T> {
    latch: &'a Latch<T>,
}

impl<T> std::fmt::Debug for XGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XGuard").finish_non_exhaustive()
    }
}

impl<T> Deref for XGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: X mode held — exclusive.
        unsafe { &*self.latch.data.get() }
    }
}

impl<T> XGuard<'_, T> {
    /// The latched value, mutably. Crate-private: outside `pagestore` an X
    /// guard reads only, so a frame's page changes only through the
    /// [`PinnedPage`](crate::buffer::PinnedPage) entries that log first.
    pub(crate) fn get_mut(&mut self) -> &mut T {
        // Safety: X mode held — exclusive.
        unsafe { &mut *self.latch.data.get() }
    }

    /// Whether this guard holds `latch`.
    pub(crate) fn latches(&self, latch: &Latch<T>) -> bool {
        std::ptr::eq(self.latch, latch)
    }
}

impl<T> Drop for XGuard<'_, T> {
    fn drop(&mut self) {
        let mut st = self.latch.state.lock();
        st.x_held = false;
        drop(st);
        self.latch.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

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
            *g.get_mut() = 42;
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
                while l.parked() == 0 {
                    std::thread::yield_now();
                }
                reader_done.store(1, Ordering::SeqCst);
                drop(s);
            });
            // Promotion must block until the reader drops.
            let mut x = u.promote();
            assert_eq!(reader_done.load(Ordering::SeqCst), 1);
            *x.get_mut() = 7;
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
            while l.parked() == 0 {
                std::thread::yield_now();
            }
            assert!(
                l.try_s().is_none(),
                "pending promotion must block new readers"
            );
            drop(s);
        });
        assert_eq!(promoted.load(Ordering::SeqCst), 1);
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
                    *g.get_mut() += 1;
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
        let rec = Recorder::detached();
        let l = Latch::new_observed(0u32, Arc::new(LatchObs::new(&rec)));
        let waits = rec.counter("latch.waits");
        {
            let _s = l.s();
            assert!(l.try_x().is_none());
        }
        // Uncontended acquisitions do not count.
        drop(l.s());
        drop(l.u());
        drop(l.x());
        assert_eq!(waits.get(), 0);
        // A blocked X does.
        std::thread::scope(|scope| {
            let g = l.s();
            scope.spawn(|| {
                let _x = l.x(); // must wait for the reader
            });
            while l.parked() == 0 {
                std::thread::yield_now();
            }
            drop(g);
        });
        assert_eq!(waits.get(), 1);
        assert_eq!(l.parked(), 0);
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
            *g.get_mut() = 1;
        }
        stop.store(1, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*l.s(), 1);
    }
}
