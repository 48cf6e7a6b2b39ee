//! The lock table: named database locks with FIFO queuing, conversion, and
//! waits-for deadlock detection.
//!
//! Latches (in `pitree-pagestore`) avoid deadlock by ordering; database locks
//! cannot (transactions touch records in arbitrary order), so the table
//! detects cycles in the waits-for graph at block time and denies the
//! requester (§4.1: "We must ensure that interactions between atomic actions
//! do not cause undetected deadlocks"). The **No-Wait Rule** (§4.1.2) is
//! supported through [`LockTable::try_acquire`]: an operation holding a latch
//! that could conflict with a lock holder first tries without waiting, and on
//! [`LockError::WouldBlock`] releases its latches before blocking for real.

use crate::modes::LockMode;
use pitree_obs::{Counter, Hist, Recorder, Stopwatch};
use pitree_pagestore::sync::{Condvar, FixedMap, Mutex};
use pitree_pagestore::PageId;
use pitree_wal::ActionId;
use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// What a database lock protects.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LockName {
    /// A record, by key bytes (record locks; trees prefix with a tree id).
    Key(Vec<u8>),
    /// A page — the granule we use for move locks (§4.2.2 notes a move lock
    /// "can be realized with ... a page-level lock"; at page granularity
    /// "once granted, no update activity can alter the locking required").
    Page(PageId),
    /// A whole tree / relation.
    Tree(u32),
}

/// Lock acquisition failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// Granting would create a waits-for cycle; the requester is the victim.
    Deadlock,
    /// `try_acquire` could not grant immediately (the No-Wait Rule path).
    WouldBlock,
    /// Waited longer than the configured timeout (safety net; treated like a
    /// deadlock victim).
    Timeout,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Deadlock => write!(f, "deadlock detected; requester chosen as victim"),
            LockError::WouldBlock => write!(f, "lock not immediately available"),
            LockError::Timeout => write!(f, "lock wait timed out"),
        }
    }
}

impl std::error::Error for LockError {}

#[derive(Debug, Clone)]
struct Grant {
    owner: ActionId,
    mode: LockMode,
    count: u32,
}

#[derive(Debug, Clone)]
struct Waiter {
    owner: ActionId,
    mode: LockMode,
    /// Conversion of an existing grant (queues ahead of fresh requests).
    converting: bool,
}

#[derive(Default)]
struct Entry {
    granted: Vec<Grant>,
    waiters: VecDeque<Waiter>,
}

impl Entry {
    /// Can `owner` be granted `mode` right now, given current grants and the
    /// FIFO discipline? Conversions only check grants; fresh requests also
    /// wait behind earlier waiters.
    fn grantable(&self, owner: ActionId, mode: LockMode, converting: bool) -> bool {
        let compat_with_grants = self
            .granted
            .iter()
            .all(|g| g.owner == owner || g.mode.compatible(mode));
        if !compat_with_grants {
            return false;
        }
        if converting {
            return true;
        }
        // FIFO fairness: block behind earlier waiters we conflict with (or
        // who conflict with us).
        !self
            .waiters
            .iter()
            .take_while(|w| w.owner != owner)
            .any(|w| !w.mode.compatible(mode) || !mode.compatible(w.mode))
    }
}

struct TableInner {
    entries: FixedMap<LockName, Entry>,
    /// owner -> (resource, mode) it is currently blocked on.
    waiting_on: FixedMap<ActionId, LockName>,
}

/// The lock manager. One per store; shared by all transactions and atomic
/// actions that need database locks.
pub struct LockTable {
    inner: Mutex<TableInner>,
    cv: Condvar,
    timeout: Duration,
    acquires: Counter,
    waits: Counter,
    deadlocks: Counter,
    timeouts: Counter,
    wait_ns: Hist,
}

impl std::fmt::Debug for LockTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockTable").finish_non_exhaustive()
    }
}

impl Default for LockTable {
    fn default() -> Self {
        Self::new(Duration::from_secs(10))
    }
}

impl LockTable {
    /// A table whose blocking waits give up after `timeout`, recording into
    /// a fresh private registry (see [`LockTable::with_recorder`]).
    pub fn new(timeout: Duration) -> LockTable {
        LockTable::with_recorder(timeout, Recorder::detached())
    }

    /// [`LockTable::new`] recording `lock.*` metrics into
    /// `rec`'s registry.
    pub fn with_recorder(timeout: Duration, rec: Recorder) -> LockTable {
        LockTable {
            inner: Mutex::new(TableInner {
                entries: FixedMap::default(),
                waiting_on: FixedMap::default(),
            }),
            cv: Condvar::new(),
            timeout,
            acquires: rec.counter("lock.acquires"),
            waits: rec.counter("lock.waits"),
            deadlocks: rec.counter("lock.deadlocks"),
            timeouts: rec.counter("lock.timeouts"),
            wait_ns: rec.hist("lock.wait_ns"),
        }
    }

    /// Acquire `name` in `mode` for `owner`, blocking. Detects deadlocks at
    /// block time and returns [`LockError::Deadlock`] with the requester as
    /// victim.
    pub fn acquire(
        &self,
        owner: ActionId,
        name: &LockName,
        mode: LockMode,
    ) -> Result<(), LockError> {
        self.acquire_inner(owner, name, mode, true)
    }

    /// Acquire without waiting (§4.1.2 No-Wait Rule support).
    pub fn try_acquire(
        &self,
        owner: ActionId,
        name: &LockName,
        mode: LockMode,
    ) -> Result<(), LockError> {
        self.acquire_inner(owner, name, mode, false)
    }

    fn acquire_inner(
        &self,
        owner: ActionId,
        name: &LockName,
        mode: LockMode,
        block: bool,
    ) -> Result<(), LockError> {
        let mut inner = self.inner.lock();

        // Fast path: re-entrant hold, immediate grant, or immediate convert.
        let (target, converting) = {
            let entry = inner.entries.entry(name.clone()).or_default();
            match entry.granted.iter().position(|g| g.owner == owner) {
                Some(pos) if entry.granted[pos].mode.covers(mode) => {
                    entry.granted[pos].count += 1;
                    self.acquires.inc();
                    return Ok(());
                }
                Some(pos) => {
                    let target = entry.granted[pos].mode.supremum(mode);
                    if entry.grantable(owner, target, true) {
                        entry.granted[pos].mode = target;
                        entry.granted[pos].count += 1;
                        self.acquires.inc();
                        return Ok(());
                    }
                    (target, true)
                }
                None => {
                    if entry.grantable(owner, mode, false) {
                        entry.granted.push(Grant {
                            owner,
                            mode,
                            count: 1,
                        });
                        self.acquires.inc();
                        return Ok(());
                    }
                    (mode, false)
                }
            }
        };

        if !block {
            return Err(LockError::WouldBlock);
        }
        self.waits.inc();
        let wait_timer = Stopwatch::start();

        // Enqueue (converters at the front, behind other converters).
        {
            let e = inner.entries.get_mut(name).unwrap();
            let w = Waiter {
                owner,
                mode: target,
                converting,
            };
            if converting {
                let pos = e.waiters.iter().take_while(|w| w.converting).count();
                e.waiters.insert(pos, w);
            } else {
                e.waiters.push_back(w);
            }
        }
        inner.waiting_on.insert(owner, name.clone());

        // Deadlock check now that the edge exists.
        if self.find_cycle(&inner, owner) {
            self.remove_waiter(&mut inner, owner, name);
            self.deadlocks.inc();
            return Err(LockError::Deadlock);
        }

        // Wait until grantable.
        loop {
            let (g, res) = self.cv.wait_timeout(inner, self.timeout);
            inner = g;
            let timed_out = res.timed_out();
            let grantable = inner
                .entries
                .get(name)
                .map(|e| e.grantable(owner, target, converting))
                .unwrap_or(true);
            if grantable {
                self.remove_waiter(&mut inner, owner, name);
                let e = inner.entries.entry(name.clone()).or_default();
                if converting {
                    if let Some(g) = e.granted.iter_mut().find(|g| g.owner == owner) {
                        g.mode = target;
                        g.count += 1;
                    } else {
                        e.granted.push(Grant {
                            owner,
                            mode: target,
                            count: 1,
                        });
                    }
                } else {
                    e.granted.push(Grant {
                        owner,
                        mode: target,
                        count: 1,
                    });
                }
                self.wait_ns.record(wait_timer.elapsed_ns());
                self.acquires.inc();
                return Ok(());
            }
            if timed_out {
                self.remove_waiter(&mut inner, owner, name);
                self.wait_ns.record(wait_timer.elapsed_ns());
                self.timeouts.inc();
                return Err(LockError::Timeout);
            }
        }
    }

    fn remove_waiter(&self, inner: &mut TableInner, owner: ActionId, name: &LockName) {
        if let Some(e) = inner.entries.get_mut(name) {
            e.waiters.retain(|w| w.owner != owner);
        }
        inner.waiting_on.remove(&owner);
    }

    /// DFS over the waits-for graph looking for a cycle through `start`.
    fn find_cycle(&self, inner: &TableInner, start: ActionId) -> bool {
        // Build edges lazily: a waiter waits for every incompatible granted
        // owner of its resource and every earlier incompatible waiter.
        let mut stack = vec![start];
        let mut visited = std::collections::HashSet::new();
        while let Some(cur) = stack.pop() {
            let Some(res) = inner.waiting_on.get(&cur) else {
                continue;
            };
            let Some(entry) = inner.entries.get(res) else {
                continue;
            };
            let my_wait = entry.waiters.iter().find(|w| w.owner == cur);
            let Some(my_wait) = my_wait else { continue };
            let mut blockers: Vec<ActionId> = Vec::new();
            for g in &entry.granted {
                if g.owner != cur && !g.mode.compatible(my_wait.mode) {
                    blockers.push(g.owner);
                }
            }
            if !my_wait.converting {
                for w in entry.waiters.iter().take_while(|w| w.owner != cur) {
                    if !w.mode.compatible(my_wait.mode) || !my_wait.mode.compatible(w.mode) {
                        blockers.push(w.owner);
                    }
                }
            }
            for b in blockers {
                if b == start {
                    return true;
                }
                if visited.insert(b) {
                    stack.push(b);
                }
            }
        }
        false
    }

    /// Release one level of `owner`'s hold on `name` (re-entrant holds need
    /// matching releases).
    pub fn release(&self, owner: ActionId, name: &LockName) {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.entries.get_mut(name) {
            if let Some(pos) = e.granted.iter().position(|g| g.owner == owner) {
                let g = &mut e.granted[pos];
                g.count -= 1;
                if g.count == 0 {
                    e.granted.remove(pos);
                }
            }
            if e.granted.is_empty() && e.waiters.is_empty() {
                inner.entries.remove(name);
            }
        }
        drop(inner);
        self.cv.notify_all();
    }

    /// Release everything `owner` holds (end of transaction, 2PL).
    pub fn release_all(&self, owner: ActionId) {
        let mut inner = self.inner.lock();
        inner.entries.retain(|_, e| {
            e.granted.retain(|g| g.owner != owner);
            !e.granted.is_empty() || !e.waiters.is_empty()
        });
        drop(inner);
        self.cv.notify_all();
    }

    /// Number of lock acquisitions that had to block (contention metric for
    /// the concurrency experiments; the `lock.waits` counter).
    pub fn wait_count(&self) -> u64 {
        self.waits.get()
    }

    /// Whether any owner holds `name` in `mode` exactly. Used by sibling
    /// traversers to detect a move lock without acquiring anything
    /// ("A transaction encountering a move lock on a sibling traversal does
    /// not schedule an index posting", §4.2.2).
    pub fn is_held(&self, name: &LockName, mode: LockMode) -> bool {
        let inner = self.inner.lock();
        inner
            .entries
            .get(name)
            .map(|e| e.granted.iter().any(|g| g.mode == mode))
            .unwrap_or(false)
    }

    /// Whether `name` is covered by a move lock — granted as `Move`, or as
    /// `X` via conversion (a holder of IX or Move that requests the other
    /// converts to the supremum `X`; in the tree protocol nothing else ever
    /// drives a *page* lock to X, so `X` on a page implies a move).
    pub fn is_move_locked(&self, name: &LockName) -> bool {
        let inner = self.inner.lock();
        inner
            .entries
            .get(name)
            .map(|e| {
                e.granted
                    .iter()
                    .any(|g| matches!(g.mode, LockMode::Move | LockMode::X))
            })
            .unwrap_or(false)
    }

    /// The mode `owner` currently holds on `name`, if any (used by the tree
    /// to decide whether a leaf split must run inside the transaction,
    /// §4.2.1).
    pub fn holds(&self, owner: ActionId, name: &LockName) -> Option<LockMode> {
        let inner = self.inner.lock();
        inner
            .entries
            .get(name)
            .and_then(|e| e.granted.iter().find(|g| g.owner == owner).map(|g| g.mode))
    }

    /// Modes currently granted on `name` (diagnostics).
    pub fn holders(&self, name: &LockName) -> Vec<(ActionId, LockMode)> {
        let inner = self.inner.lock();
        inner
            .entries
            .get(name)
            .map(|e| e.granted.iter().map(|g| (g.owner, g.mode)).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::LockMode::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    fn t(n: u64) -> ActionId {
        ActionId(n)
    }

    fn key(k: &str) -> LockName {
        LockName::Key(k.as_bytes().to_vec())
    }

    /// Spin until `n` acquisitions have blocked: `acquire` counts a wait under
    /// the table mutex, before it enqueues and adds its wait-for edge.
    fn await_waits(lt: &LockTable, n: u64) {
        while lt.wait_count() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn shared_grants_coexist() {
        let lt = LockTable::default();
        lt.acquire(t(1), &key("a"), S).unwrap();
        lt.acquire(t(2), &key("a"), S).unwrap();
        assert_eq!(lt.holders(&key("a")).len(), 2);
    }

    #[test]
    fn exclusive_blocks_and_try_fails() {
        let lt = LockTable::default();
        lt.acquire(t(1), &key("a"), X).unwrap();
        assert_eq!(
            lt.try_acquire(t(2), &key("a"), S),
            Err(LockError::WouldBlock)
        );
        lt.release(t(1), &key("a"));
        lt.acquire(t(2), &key("a"), S).unwrap();
    }

    #[test]
    fn reentrant_acquire_and_release() {
        let lt = LockTable::default();
        lt.acquire(t(1), &key("a"), S).unwrap();
        lt.acquire(t(1), &key("a"), S).unwrap();
        lt.release(t(1), &key("a"));
        // Still held once.
        assert_eq!(
            lt.try_acquire(t(2), &key("a"), X),
            Err(LockError::WouldBlock)
        );
        lt.release(t(1), &key("a"));
        lt.acquire(t(2), &key("a"), X).unwrap();
    }

    #[test]
    fn conversion_s_to_x_when_alone() {
        let lt = LockTable::default();
        lt.acquire(t(1), &key("a"), S).unwrap();
        lt.acquire(t(1), &key("a"), X).unwrap(); // converts
        assert_eq!(lt.holders(&key("a")), vec![(t(1), X)]);
        assert_eq!(
            lt.try_acquire(t(2), &key("a"), S),
            Err(LockError::WouldBlock)
        );
    }

    #[test]
    fn blocking_handoff() {
        let lt = LockTable::default();
        lt.acquire(t(1), &key("a"), X).unwrap();
        let got = AtomicU32::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                lt.acquire(t(2), &key("a"), X).unwrap();
                got.store(1, Ordering::SeqCst);
            });
            await_waits(&lt, 1);
            assert_eq!(got.load(Ordering::SeqCst), 0);
            lt.release(t(1), &key("a"));
        });
        assert_eq!(got.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deadlock_detected_and_victim_is_requester() {
        let lt = LockTable::default();
        lt.acquire(t(1), &key("a"), X).unwrap();
        lt.acquire(t(2), &key("b"), X).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                // T1 blocks on b (held by T2).
                lt.acquire(t(1), &key("b"), X).unwrap();
                lt.release(t(1), &key("b"));
            });
            await_waits(&lt, 1);
            // T2 requesting a closes the cycle: T2 must be denied.
            assert_eq!(lt.acquire(t(2), &key("a"), X), Err(LockError::Deadlock));
            lt.release_all(t(2)); // T2 gives up, T1 proceeds
        });
    }

    #[test]
    fn conversion_deadlock_detected() {
        // Two S holders both converting to X: the classic promotion deadlock
        // (§4.1.1) — must be detected, not hung.
        let lt = LockTable::default();
        lt.acquire(t(1), &key("a"), S).unwrap();
        lt.acquire(t(2), &key("a"), S).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                // T1 converts; blocks behind T2's S.
                let r = lt.acquire(t(1), &key("a"), X);
                if r.is_ok() {
                    lt.release_all(t(1));
                }
            });
            await_waits(&lt, 1);
            let r2 = lt.acquire(t(2), &key("a"), X);
            assert_eq!(r2, Err(LockError::Deadlock));
            lt.release_all(t(2));
        });
    }

    #[test]
    fn fifo_prevents_starvation() {
        let lt = LockTable::default();
        lt.acquire(t(1), &key("a"), S).unwrap();
        let order = pitree_pagestore::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                lt.acquire(t(2), &key("a"), X).unwrap(); // waits
                order.lock().push(2);
                lt.release(t(2), &key("a"));
            });
            await_waits(&lt, 1);
            s.spawn(|| {
                // A later S request must NOT jump the queued X.
                lt.acquire(t(3), &key("a"), S).unwrap();
                order.lock().push(3);
                lt.release(t(3), &key("a"));
            });
            await_waits(&lt, 2);
            lt.release(t(1), &key("a"));
        });
        assert_eq!(*order.lock(), vec![2, 3]);
    }

    #[test]
    fn move_lock_visibility() {
        let lt = LockTable::default();
        let page = LockName::Page(pitree_pagestore::PageId(9));
        lt.acquire(t(1), &page, Move).unwrap();
        assert!(lt.is_held(&page, Move));
        assert!(!lt.is_held(&page, X));
        // Readers coexist with the move lock.
        lt.acquire(t(2), &page, S).unwrap();
        // Updaters do not.
        assert_eq!(lt.try_acquire(t(3), &page, IX), Err(LockError::WouldBlock));
    }

    #[test]
    fn timeout_safety_net() {
        let lt = LockTable::new(Duration::from_millis(50));
        lt.acquire(t(1), &key("a"), X).unwrap();
        let start = Stopwatch::start();
        assert_eq!(lt.acquire(t(2), &key("a"), X), Err(LockError::Timeout));
        assert!(start.elapsed_ns() >= 50_000_000);
    }

    #[test]
    fn release_all_wakes_waiters() {
        let lt = LockTable::default();
        lt.acquire(t(1), &key("a"), X).unwrap();
        lt.acquire(t(1), &key("b"), X).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                lt.acquire(t(2), &key("a"), S).unwrap();
                lt.acquire(t(2), &key("b"), S).unwrap();
            });
            await_waits(&lt, 1);
            lt.release_all(t(1));
        });
        assert_eq!(lt.holders(&key("a")), vec![(t(2), S)]);
    }
}
