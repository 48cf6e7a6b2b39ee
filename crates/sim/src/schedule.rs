//! Deterministic commit-schedule rig for the group-commit WAL (§4.3.1).
//!
//! Group formation is a race — committers arrive while a leader decides
//! whether to drain — so real-time tests of it are inherently flaky and
//! cannot pin down *which* batch a commit lands in. This rig removes the
//! clock from the protocol instead of the protocol from the test, and it
//! does so at the [`LogStore`] seam, with no hook inside the log manager:
//!
//! 1. The driver thread appends every committer's `Begin`+`Commit` records
//!    itself, in script order — record bytes never depend on the OS
//!    scheduler.
//! 2. The [`CountingStore`]'s gate is shut, so whichever worker is elected
//!    leader drains the whole group and parks inside [`LogStore::append`].
//! 3. One worker thread per committer registers a `force_to`; the driver
//!    opens the gate only after `wal.force_waiters` shows the rest of the
//!    cohort queued behind that leader.
//!
//! The result: each scripted group drains as exactly one
//! [`LogStore::append`], and the durable byte stream, batch boundaries, and
//! append count are a pure function of the schedule — byte-for-byte
//! reproducible under a fixed seed, which is what the crash windows opened
//! by early lock release need from their gate.

use pitree_pagestore::sync::{Mutex, MutexGuard};
use pitree_pagestore::{Lsn, StoreError, StoreResult};
use pitree_wal::{ActionId, ActionIdentity, LogManager, LogStore, MemLogStore, RecordKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::SimRng;

/// One scripted group: committer ids whose commits queue behind a single
/// parked leader and must land in one [`LogStore::append`].
pub type Group = Vec<u64>;

/// A [`LogStore`] wrapper that counts appends and records each batch's
/// byte length, so schedule tests can assert exactly how commits grouped.
/// While a test holds its [`CountingStore::gate`], every `append` parks,
/// which holds a group-commit leader short of durability.
pub struct CountingStore {
    inner: MemLogStore,
    appends: AtomicU64,
    entered: AtomicU64,
    batch_lens: Mutex<Vec<usize>>,
    gate: Mutex<()>,
}

impl std::fmt::Debug for CountingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountingStore").finish_non_exhaustive()
    }
}

impl CountingStore {
    /// An empty counting store.
    pub fn new() -> CountingStore {
        CountingStore {
            inner: MemLogStore::new(),
            appends: AtomicU64::new(0),
            entered: AtomicU64::new(0),
            batch_lens: Mutex::new(Vec::new()),
            gate: Mutex::new(()),
        }
    }

    /// Shut the gate until the returned guard drops: appends that arrive
    /// meanwhile park.
    pub fn gate(&self) -> MutexGuard<'_, ()> {
        self.gate.lock()
    }

    /// Number of appends that have entered the store, parked ones included.
    pub fn entered(&self) -> u64 {
        self.entered.load(Ordering::SeqCst)
    }

    /// Number of batches appended so far.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::SeqCst)
    }

    /// Byte length of every batch appended, in order.
    pub fn batch_lens(&self) -> Vec<usize> {
        self.batch_lens.lock().clone()
    }
}

impl Default for CountingStore {
    fn default() -> Self {
        Self::new()
    }
}

impl LogStore for CountingStore {
    fn append(&self, bytes: &[u8]) -> StoreResult<()> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        drop(self.gate.lock());
        self.inner.append(bytes)?;
        self.appends.fetch_add(1, Ordering::SeqCst);
        self.batch_lens.lock().push(bytes.len());
        Ok(())
    }
    fn durable_bytes(&self) -> StoreResult<Vec<u8>> {
        self.inner.durable_bytes()
    }
    fn durable_len(&self) -> u64 {
        self.inner.durable_len()
    }
    fn set_master(&self, lsn: Lsn) {
        self.inner.set_master(lsn)
    }
    fn master(&self) -> Lsn {
        self.inner.master()
    }
    fn read_range(&self, offset: u64, len: usize) -> StoreResult<Vec<u8>> {
        self.inner.read_range(offset, len)
    }
}

/// Everything a schedule run produces, for exact comparison across runs.
#[derive(Debug, PartialEq, Eq)]
pub struct ScheduleOutcome {
    /// Full durable log bytes at the end of the run.
    pub durable: Vec<u8>,
    /// Byte length of each batch handed to the store, in script order.
    pub batch_lens: Vec<usize>,
    /// Store appends observed (`== batch_lens.len()`).
    pub appends: u64,
}

/// Derive a committer-arrival schedule from `seed`: `groups` rounds, each
/// with `1..=max_group` distinct committers. Same seed, same schedule.
pub fn gen_schedule(seed: u64, groups: usize, max_group: usize) -> Vec<Group> {
    let mut rng = SimRng::new(seed);
    let mut next_id = 1u64;
    (0..groups)
        .map(|_| {
            let k = rng.range_usize(1..max_group.max(1) + 1);
            (0..k)
                .map(|_| {
                    let id = next_id;
                    next_id += 1;
                    id
                })
                .collect()
        })
        .collect()
}

/// Execute `schedule` against a fresh [`LogManager`] over a
/// [`CountingStore`], one parked leader per group, and check that
/// every group drained as a single store append. Returns the run's
/// [`ScheduleOutcome`] for byte-for-byte comparison.
pub fn run_schedule(schedule: &[Group]) -> StoreResult<ScheduleOutcome> {
    let store = Arc::new(CountingStore::new());
    let log = Arc::new(LogManager::open(Arc::clone(&store) as Arc<dyn LogStore>)?);
    let waiters = log.recorder().counter("wal.force_waiters");
    for group in schedule {
        if group.is_empty() {
            continue;
        }
        let before = store.appends();
        let queued = waiters.get() + group.len() as u64 - 1;
        let shut = store.gate();
        // The driver appends all records itself: byte order is script order.
        let lsns: Vec<Lsn> = group
            .iter()
            .map(|&c| {
                let action = ActionId(c);
                let b = log.append(
                    action,
                    Lsn::ZERO,
                    RecordKind::Begin {
                        identity: ActionIdentity::SeparateTransaction,
                    },
                );
                log.append(action, b, RecordKind::Commit)
            })
            .collect();
        std::thread::scope(|s| -> StoreResult<()> {
            let workers: Vec<_> = lsns
                .iter()
                .map(|&lsn| {
                    let log = Arc::clone(&log);
                    s.spawn(move || log.force_to(lsn))
                })
                .collect();
            // Open the gate only once the rest of the cohort is queued
            // behind the parked leader.
            while waiters.get() < queued {
                std::thread::yield_now();
            }
            drop(shut);
            for w in workers {
                w.join()
                    .map_err(|_| StoreError::Corrupt("schedule worker panicked".into()))??;
            }
            Ok(())
        })?;
        let wrote = store.appends() - before;
        if wrote != 1 {
            return Err(StoreError::Corrupt(format!(
                "scripted group of {} committers split into {wrote} appends",
                group.len()
            )));
        }
    }
    Ok(ScheduleOutcome {
        durable: store.durable_bytes()?,
        batch_lens: store.batch_lens(),
        appends: store.appends(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_schedule_is_seed_deterministic() {
        let a = gen_schedule(7, 10, 5);
        let b = gen_schedule(7, 10, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|g| (1..=5).contains(&g.len())));
        assert_ne!(gen_schedule(8, 10, 5), a);
    }

    #[test]
    fn singleton_schedule_runs() {
        let out = run_schedule(&[vec![1]]).unwrap();
        assert_eq!(out.appends, 1);
        assert_eq!(out.batch_lens.len(), 1);
    }
}
