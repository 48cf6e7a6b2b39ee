//! The log manager: append, group-commit force, and streamed scan.
//!
//! LSNs are `offset + 1` where `offset` is the record frame's byte position,
//! so `Lsn::ZERO` stays free as the null LSN. Frames are
//! `[len u32][checksum u32][body]`; the checksum lets recovery stop cleanly
//! at a torn tail, which the crash harness exploits by truncating the durable
//! log at arbitrary byte positions.
//!
//! Durability is split between the volatile tail (`LogTail`) and a
//! [`LogStore`] holding what has been *forced*. Atomic-action commits are
//! **not** forced (§4.3.1, "relative durability"); forces happen at
//! user-transaction commit and through the buffer pool's WAL hook before a
//! dirty page write.
//!
//! # Lock-split group commit
//!
//! Two small mutexes replace the old monolithic `Mutex<LogInner>` that was
//! held across the durable `store.append()`:
//!
//! * `tail` guards only the volatile tail bytes — [`LogManager::append`]
//!   holds it for a few `extend_from_slice` calls and never across I/O.
//! * `force` guards the leader/follower protocol: the first committer to
//!   find no leader active becomes the **leader**, takes the current group
//!   goal (the max target offset of every registered force), drains the
//!   tail up to that goal *outside* the tail mutex, writes one batch to the
//!   store, publishes `flushed` through an `AtomicU64`, and notifies the
//!   condvar. Followers whose target the batch covered return without
//!   touching the store — their commit is durable because the leader's
//!   batch covered their LSN (the paper's §4.3.1 "relatively durable" rule,
//!   applied across threads). Followers the batch missed elect the next
//!   leader.
//!
//! A freshly elected leader does not drain immediately: it **lingers** for a
//! bounded adaptive window (capped at `LINGER_MAX_DEFAULT_NS`) so commits
//! already in flight register and ride its batch instead of the next one —
//! eager election produced degenerate groups of one whenever the first
//! committer won the race. The budget starts at zero, doubles while batches
//! actually group (or late arrivals keep queuing), and halves after solo
//! batches, so single-threaded runs never take a timed wait and stay
//! byte-deterministic.
//!
//! Only the unflushed suffix is retained in memory (`base` + tail), so log
//! memory is O(unflushed); [`LogManager::read`] falls back to the store for
//! already-forced LSNs, and [`LogManager::scan`] streams them one window at
//! a time. On the single-threaded paths every force drains
//! exactly the bytes the old design wrote, so the durable byte stream (and
//! the crash-point sequence the sim kit counts) is unchanged.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]

use crate::codec::checksum;
use crate::record::{encode_frame, ActionId, LogRecord, RecordHead, RecordKind, RecordRef};
use pitree_obs::{Counter, Hist, Recorder, Stopwatch};
use pitree_pagestore::buffer::WalFlush;
use pitree_pagestore::fault::{FaultSite, InjectorHandle};
use pitree_pagestore::sync::{Condvar, Mutex};
use pitree_pagestore::{Lsn, StoreError, StoreResult};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Durable log storage.
pub trait LogStore: Send + Sync {
    /// Durably append bytes.
    fn append(&self, bytes: &[u8]) -> StoreResult<()>;
    /// The full durable contents (recovery input).
    fn durable_bytes(&self) -> StoreResult<Vec<u8>>;
    /// Durable length in bytes.
    fn durable_len(&self) -> u64;
    /// Record the master LSN (last checkpoint).
    fn set_master(&self, lsn: Lsn);
    /// Record the master LSN and report whether it is durable. A checkpoint
    /// sets its master through this; a store whose master lives on a device
    /// makes it durable before returning.
    fn try_set_master(&self, lsn: Lsn) -> StoreResult<()> {
        self.set_master(lsn);
        Ok(())
    }
    /// The recorded master LSN.
    fn master(&self) -> Lsn;
    /// Read `len` bytes starting at byte `offset` of the durable log — the
    /// ranged read behind [`LogManager::read`] for already-forced LSNs and
    /// behind every window of [`LogManager::scan`]. A range past the durable
    /// end is a typed error, never a short read.
    fn read_range(&self, offset: u64, len: usize) -> StoreResult<Vec<u8>>;
    /// Fill `buf` from byte `offset` of the durable log: a
    /// [`LogStore::read_range`] into a buffer the caller reuses, as the redo
    /// plan's frame reads do.
    fn read_into(&self, offset: u64, buf: &mut [u8]) -> StoreResult<()> {
        let bytes = self.read_range(offset, buf.len())?;
        if bytes.len() != buf.len() {
            return Err(StoreError::Corrupt(format!(
                "log range {offset}+{} returned {} bytes",
                buf.len(),
                bytes.len()
            )));
        }
        buf.copy_from_slice(&bytes);
        Ok(())
    }
}

/// In-memory durable log used by tests and the crash harness.
pub struct MemLogStore {
    durable: Mutex<Vec<u8>>,
    master: AtomicU64,
    injector: Option<InjectorHandle>,
}

impl std::fmt::Debug for MemLogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemLogStore").finish_non_exhaustive()
    }
}

impl MemLogStore {
    /// Empty store.
    pub fn new() -> MemLogStore {
        MemLogStore {
            durable: Mutex::new(Vec::new()),
            master: AtomicU64::new(0),
            injector: None,
        }
    }

    /// Empty store whose appends (log forces) consult `injector` first —
    /// the simulation kit's crash point at every WAL-flush boundary.
    pub fn with_injector(injector: InjectorHandle) -> MemLogStore {
        MemLogStore {
            durable: Mutex::new(Vec::new()),
            master: AtomicU64::new(0),
            injector: Some(injector),
        }
    }

    /// A copy of the durable contents truncated to `len` bytes — the
    /// survivor of a crash whose final force was cut short. The snapshot
    /// carries no injector: recovery runs unimpeded.
    pub fn snapshot_truncated(&self, len: u64) -> MemLogStore {
        self.snapshot_with(len, None)
    }

    /// [`MemLogStore::snapshot_truncated`] whose appends consult
    /// `injector`, so the survivor's own recovery can be crashed.
    pub fn snapshot_with(&self, len: u64, injector: Option<InjectorHandle>) -> MemLogStore {
        let durable = self.durable.lock();
        let cut = (len as usize).min(durable.len());
        MemLogStore {
            durable: Mutex::new(durable.get(..cut).map(<[u8]>::to_vec).unwrap_or_default()),
            master: AtomicU64::new(self.master.load(Ordering::SeqCst)),
            injector,
        }
    }

    /// A copy of the full durable contents (a crash right after a force).
    pub fn snapshot(&self) -> MemLogStore {
        self.snapshot_truncated(u64::MAX)
    }
}

impl Default for MemLogStore {
    fn default() -> Self {
        Self::new()
    }
}

impl LogStore for MemLogStore {
    fn append(&self, bytes: &[u8]) -> StoreResult<()> {
        if let Some(inj) = &self.injector {
            inj.check(FaultSite::LogAppend { bytes: bytes.len() })?;
        }
        self.durable.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn durable_bytes(&self) -> StoreResult<Vec<u8>> {
        Ok(self.durable.lock().clone())
    }

    fn durable_len(&self) -> u64 {
        self.durable.lock().len() as u64
    }

    fn set_master(&self, lsn: Lsn) {
        self.master.store(lsn.0, Ordering::SeqCst);
    }

    fn master(&self) -> Lsn {
        Lsn(self.master.load(Ordering::SeqCst))
    }

    fn read_range(&self, offset: u64, len: usize) -> StoreResult<Vec<u8>> {
        let mut out = vec![0u8; len];
        self.read_into(offset, &mut out)?;
        Ok(out)
    }

    fn read_into(&self, offset: u64, buf: &mut [u8]) -> StoreResult<()> {
        let durable = self.durable.lock();
        let len = buf.len();
        let src = (offset as usize)
            .checked_add(len)
            .and_then(|end| durable.get(offset as usize..end))
            .ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "log range {offset}+{len} beyond durable end {}",
                    durable.len()
                ))
            })?;
        buf.copy_from_slice(src);
        Ok(())
    }
}

/// File-backed log store for benchmarks. The master LSN lives in a sibling
/// `.master` file.
///
/// Reads are positional (`pread` through [`FileExt`]) on the shared handle
/// and take no lock: the file is opened `O_APPEND`, so appends never depended
/// on the cursor, and a scan window or an undo-pass read never waits behind a
/// leader's `write_all` + `sync_data`. Unix only, like `FileDisk`.
pub struct FileLogStore {
    file: File,
    /// Serialises appenders so one batch's `write_all` is contiguous.
    appending: Mutex<()>,
    master_path: std::path::PathBuf,
    master: AtomicU64,
}

impl std::fmt::Debug for FileLogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileLogStore").finish_non_exhaustive()
    }
}

impl FileLogStore {
    /// Open (or create) the log file at `path`.
    pub fn open(path: &Path) -> StoreResult<FileLogStore> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| StoreError::Corrupt(format!("open log {path:?}: {e}")))?;
        let master_path = path.with_extension("master");
        let master = std::fs::read(&master_path)
            .ok()
            .and_then(|b| b.try_into().ok().map(u64::from_le_bytes))
            .unwrap_or(0);
        Ok(FileLogStore {
            file,
            appending: Mutex::new(()),
            master_path,
            master: AtomicU64::new(master),
        })
    }
}

impl LogStore for FileLogStore {
    fn append(&self, bytes: &[u8]) -> StoreResult<()> {
        let _appending = self.appending.lock();
        (&self.file)
            .write_all(bytes)
            .and_then(|_| self.file.sync_data())
            .map_err(|e| StoreError::Corrupt(format!("log append: {e}")))
    }

    fn durable_bytes(&self) -> StoreResult<Vec<u8>> {
        self.read_range(0, self.durable_len() as usize)
    }

    fn durable_len(&self) -> u64 {
        self.file.metadata().map(|m| m.len()).unwrap_or(0)
    }

    fn set_master(&self, lsn: Lsn) {
        let _ = self.try_set_master(lsn);
    }

    /// Write the master to a temporary file, sync it, rename it over the
    /// master file and sync the directory: a crash leaves the old master or
    /// the new one, never a torn or lost file.
    fn try_set_master(&self, lsn: Lsn) -> StoreResult<()> {
        self.master.store(lsn.0, Ordering::SeqCst);
        let tmp = self.master_path.with_extension("master.tmp");
        let dir = match self.master_path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        let write = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&lsn.0.to_le_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, &self.master_path)?;
            File::open(dir)?.sync_all()
        };
        write().map_err(|e| StoreError::Corrupt(format!("master {:?}: {e}", self.master_path)))
    }

    fn master(&self) -> Lsn {
        Lsn(self.master.load(Ordering::SeqCst))
    }

    fn read_range(&self, offset: u64, len: usize) -> StoreResult<Vec<u8>> {
        let mut out = vec![0u8; len];
        self.read_into(offset, &mut out)?;
        Ok(out)
    }

    fn read_into(&self, offset: u64, buf: &mut [u8]) -> StoreResult<()> {
        self.file
            .read_exact_at(buf, offset)
            .map_err(|e| StoreError::Corrupt(format!("log range {offset}+{}: {e}", buf.len())))
    }
}

/// The volatile tail: bytes appended but not yet handed to the store.
/// `base` is the byte offset in log space of `buf[0]`; bytes below `base`
/// are either durable (`< flushed`) or inside the current leader's in-flight
/// batch (`>= flushed`, only while a leader is active).
struct LogTail {
    base: u64,
    buf: Vec<u8>,
    /// End offsets (ascending) of the commit frames still in `buf` —
    /// drained per batch so `wal.group_size` reports how many commits each
    /// force made durable, which is the group-commit size whether the
    /// committers are blocking on the force or have published and moved on.
    commit_ends: Vec<u64>,
    /// The buffers of the last batch a leader wrote, emptied and handed
    /// back: the next drain swaps them in, so `buf` and `commit_ends` do not
    /// regrow from nothing after every force.
    spare: (Vec<u8>, Vec<u64>),
}

/// Leader/follower election state for the group-commit force path.
struct ForceState {
    /// A leader is currently draining/writing a batch.
    leader: bool,
    /// Force calls currently inside the slow path (cohort accounting for
    /// the linger adaptation).
    pending: u64,
}

/// Cap on the adaptive linger window: long enough to absorb a
/// committing cohort already in flight, short enough to bound the latency a
/// leader adds to its own commit.
const LINGER_MAX_DEFAULT_NS: u64 = 200_000;
/// Smallest non-zero budget the adaptation grows to from a cold start.
const LINGER_STEP_NS: u64 = 25_000;
/// Floor for a single timed wait inside the linger loop (condvar timeouts
/// below this are dominated by wakeup jitter).
const LINGER_SLICE_MIN_NS: u64 = 20_000;

/// Little-endian u32 at `off`, or `None` when the slice is too short.
fn le_u32_at(buf: &[u8], off: usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(off..off.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// The log manager. Shared via `Arc`; also registered as the buffer pool's
/// [`WalFlush`] hook.
pub struct LogManager {
    tail: Mutex<LogTail>,
    force: Mutex<ForceState>,
    force_cv: Condvar,
    /// Bytes durably in the store (published by the group-commit leader).
    flushed: AtomicU64,
    /// Total bytes ever appended (`base + buf.len()`, updated under `tail`).
    tail_end: AtomicU64,
    store: Arc<dyn LogStore>,
    next_action: AtomicU64,
    /// `tail_end` as of the last fuzzy checkpoint ([`LogManager::note_checkpoint`]);
    /// [`LogManager::bytes_since_checkpoint`] drives the log-volume trigger.
    ckpt_end: AtomicU64,
    /// Current adaptive linger budget in ns (0 = drain immediately, the
    /// single-threaded behaviour — and the cold-start value, so sequential
    /// runs never take a timed wait and stay byte-deterministic).
    linger_cur: AtomicU64,
    /// Whether the budget adapts; pinned by [`LogManager::pin_linger_ns`].
    linger_adaptive: AtomicBool,
    rec: Recorder,
    appends: Counter,
    forces: Counter,
    force_waiters: Counter,
    force_ns: Hist,
    group_size: Hist,
    linger_ns: Hist,
    /// `recovery.scan_windows` / `recovery.scan_bytes`: ranged reads issued
    /// by [`LogManager::scan`] and the durable bytes they returned.
    scan_windows: Counter,
    scan_bytes: Counter,
    actions: ActionCounters,
}

/// The `action.*` counters bumped by every atomic action's begin, commit
/// and abort — resolved once here so the per-action path never touches the
/// registry's name map.
#[derive(Debug)]
pub(crate) struct ActionCounters {
    pub(crate) begins: Counter,
    pub(crate) commits: Counter,
    pub(crate) aborts: Counter,
}

impl std::fmt::Debug for LogManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogManager").finish_non_exhaustive()
    }
}

impl LogManager {
    /// A log manager over `store`; existing durable contents stay in the
    /// store (recovery will scan them) and only the unflushed suffix is
    /// ever buffered in memory. Records into a fresh private registry; see
    /// [`LogManager::open_observed`].
    pub fn open(store: Arc<dyn LogStore>) -> StoreResult<LogManager> {
        LogManager::open_observed(store, Recorder::detached())
    }

    /// [`LogManager::open`] recording `wal.*` metrics into
    /// `rec`'s registry (the store assembly shares one registry across all
    /// layers).
    pub fn open_observed(store: Arc<dyn LogStore>, rec: Recorder) -> StoreResult<LogManager> {
        let durable = store.durable_len();
        Ok(LogManager {
            tail: Mutex::new(LogTail {
                base: durable,
                buf: Vec::new(),
                commit_ends: Vec::new(),
                spare: (Vec::new(), Vec::new()),
            }),
            force: Mutex::new(ForceState {
                leader: false,
                pending: 0,
            }),
            force_cv: Condvar::new(),
            flushed: AtomicU64::new(durable),
            tail_end: AtomicU64::new(durable),
            store,
            next_action: AtomicU64::new(1),
            ckpt_end: AtomicU64::new(durable),
            linger_cur: AtomicU64::new(0),
            linger_adaptive: AtomicBool::new(true),
            appends: rec.counter("wal.appends"),
            forces: rec.counter("wal.forces"),
            force_waiters: rec.counter("wal.force_waiters"),
            force_ns: rec.hist("wal.force_ns"),
            group_size: rec.hist("wal.group_size"),
            linger_ns: rec.hist("wal.linger_ns"),
            scan_windows: rec.counter("recovery.scan_windows"),
            scan_bytes: rec.counter("recovery.scan_bytes"),
            actions: ActionCounters {
                begins: rec.counter("action.begins"),
                commits: rec.counter("action.commits"),
                aborts: rec.counter("action.aborts"),
            },
            rec,
        })
    }

    /// The recorder this log manager reports into.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The pre-resolved `action.*` counter handles.
    pub(crate) fn action_counters(&self) -> &ActionCounters {
        &self.actions
    }

    /// The durable store (for crash snapshots and the master record).
    pub fn store(&self) -> &Arc<dyn LogStore> {
        &self.store
    }

    /// Allocate a fresh action id.
    pub fn next_action_id(&self) -> ActionId {
        ActionId(self.next_action.fetch_add(1, Ordering::SeqCst))
    }

    /// Bump the action-id counter past `floor` (recovery calls this with the
    /// highest id seen in the log).
    pub fn reserve_action_ids(&self, floor: u64) {
        self.next_action.fetch_max(floor + 1, Ordering::SeqCst);
    }

    /// Record that a fuzzy checkpoint just covered everything appended so
    /// far; resets [`LogManager::bytes_since_checkpoint`].
    pub fn note_checkpoint(&self) {
        self.ckpt_end
            .store(self.tail_end.load(Ordering::Acquire), Ordering::Release);
    }

    /// Log bytes appended since the last [`LogManager::note_checkpoint`]
    /// (or since open). The checkpoint trigger in `pitree-txnlock` compares
    /// this against its configured threshold.
    pub fn bytes_since_checkpoint(&self) -> u64 {
        self.tail_end
            .load(Ordering::Acquire)
            .saturating_sub(self.ckpt_end.load(Ordering::Acquire))
    }

    /// Append a record, returning its LSN. Does not force. The frame is
    /// encoded into a buffer of its own; a caller appending record after
    /// record reuses one through [`LogManager::append_in`].
    pub fn append(&self, action: ActionId, prev: Lsn, kind: RecordKind) -> Lsn {
        self.append_in(&mut Vec::new(), action, prev, RecordRef::Kind(&kind))
    }

    /// Append the record `(action, prev, body)`, returning its LSN. Does
    /// not force. The frame is encoded and checksummed into `frame`, whose
    /// contents it replaces, before the tail mutex is taken: the mutex is
    /// held only for the copy — never across encoding or I/O — and a
    /// `frame` reused across appends makes the append allocation-free once
    /// it has grown to the largest record.
    pub fn append_in(
        &self,
        frame: &mut Vec<u8>,
        action: ActionId,
        prev: Lsn,
        body: RecordRef<'_>,
    ) -> Lsn {
        let is_commit = matches!(body, RecordRef::Kind(RecordKind::Commit));
        encode_frame(frame, prev, action, body);
        let mut tail = self.tail.lock();
        let lsn = Lsn(tail.base + tail.buf.len() as u64 + 1);
        tail.buf.extend_from_slice(frame);
        let end = tail.base + tail.buf.len() as u64;
        if is_commit {
            tail.commit_ends.push(end);
        }
        self.tail_end.store(end, Ordering::Release);
        drop(tail);
        self.appends.inc();
        lsn
    }

    /// Read the record at `lsn` — from the volatile tail when it is still
    /// buffered, otherwise from the durable store (the tail no longer
    /// retains the flushed prefix).
    pub fn read(&self, lsn: Lsn) -> StoreResult<LogRecord> {
        let off = lsn
            .0
            .checked_sub(1)
            .ok_or_else(|| StoreError::Corrupt("null lsn".into()))?;
        loop {
            {
                let tail = self.tail.lock();
                if off >= tail.base {
                    return read_at_base(&tail.buf, tail.base, lsn);
                }
            }
            if self.flushed.load(Ordering::Acquire) > off {
                return self.read_durable(off, lsn);
            }
            // `off` sits in a leader's in-flight batch (drained from the
            // tail, not yet published). Wait for the force to settle.
            let st = self.force.lock();
            if st.leader {
                drop(self.force_cv.wait(st));
            }
        }
    }

    /// Decode one frame from the durable store. `off` is a frame start
    /// strictly below `flushed` (batches end on frame boundaries, so the
    /// whole frame is durable).
    fn read_durable(&self, off: u64, lsn: Lsn) -> StoreResult<LogRecord> {
        let header = self.store.read_range(off, 8)?;
        let len = le_u32_at(&header, 0)
            .ok_or_else(|| StoreError::Corrupt(format!("short log header at {lsn}")))?
            as usize;
        let sum = le_u32_at(&header, 4)
            .ok_or_else(|| StoreError::Corrupt(format!("short log header at {lsn}")))?;
        let body = self.store.read_range(off + 8, len)?;
        if checksum(&body) != sum {
            return Err(StoreError::Corrupt(format!("bad checksum at {lsn}")));
        }
        LogRecord::decode_body(lsn, &body)
    }

    /// Current end of log (the LSN the *next* record will get). Lock-free.
    pub fn tail_lsn(&self) -> Lsn {
        Lsn(self.tail_end.load(Ordering::Acquire) + 1)
    }

    /// LSN up to which the log is durable. Lock-free.
    pub fn flushed_lsn(&self) -> Lsn {
        Lsn(self.flushed.load(Ordering::Acquire))
    }

    /// Force the log through the record that *starts* at `lsn`. Returns a
    /// typed error (never panics) if `lsn` points into a torn or truncated
    /// volatile tail.
    pub fn force_to(&self, lsn: Lsn) -> StoreResult<()> {
        if lsn == Lsn::ZERO {
            return Ok(());
        }
        let off = lsn.0 - 1;
        if self.flushed.load(Ordering::Acquire) > off {
            return Ok(()); // the whole frame is durable (frame-aligned batches)
        }
        // Resolve the target: the end offset of the frame starting at `off`.
        let target = {
            let tail = self.tail.lock();
            let end_total = tail.base + tail.buf.len() as u64;
            if off >= end_total {
                return Ok(()); // at/past the log end: nothing to force
            }
            if off < tail.base {
                // Already drained by a batch (durable or in flight); the
                // frame ended at or before the drained boundary.
                tail.base
            } else {
                let rel = (off - tail.base) as usize;
                let len = le_u32_at(&tail.buf, rel)
                    .ok_or_else(|| StoreError::Corrupt(format!("torn volatile tail at {lsn}")))?
                    as u64;
                let end = off + 8 + len;
                if end > end_total {
                    return Err(StoreError::Corrupt(format!(
                        "torn record at {lsn}: frame ends at {end}, tail at {end_total}"
                    )));
                }
                end
            }
        };
        self.force_until(target)
    }

    /// Force the entire log.
    pub fn force_all(&self) -> StoreResult<()> {
        let target = self.tail_end.load(Ordering::Acquire);
        self.force_until(target)
    }

    /// Group-commit slow path: make bytes `< target` durable, either by
    /// leading a batch or by riding a concurrent leader's.
    fn force_until(&self, target: u64) -> StoreResult<()> {
        if self.flushed.load(Ordering::Acquire) >= target {
            return Ok(());
        }
        let mut st = self.force.lock();
        st.pending += 1;
        let mut waited = false;
        let result = loop {
            if self.flushed.load(Ordering::Acquire) >= target {
                break Ok(());
            }
            if st.leader {
                // A leader is writing; its batch may cover us. Wait for it.
                if !waited {
                    waited = true;
                    self.force_waiters.inc();
                }
                st = self.force_cv.wait(st);
                continue;
            }
            // Become the leader. Before draining, linger briefly so
            // committers already in flight register and ride this batch —
            // the eager-election bug drained only the leader's own bytes
            // and pushed every concurrent commit into the *next* round.
            st.leader = true;
            st = self.linger(st);
            // Group is snapshotted *after* the linger window, so the batch
            // covers everyone who arrived during it.
            let group = st.pending;
            drop(st);
            let res = self.lead_force();
            st = self.force.lock();
            st.leader = false;
            if self.linger_adaptive.load(Ordering::Relaxed) {
                // AIMD: a batch that grouped (or left late arrivals still
                // pending) says the window pays for itself; a solo batch
                // with a quiet queue says halve it back toward zero.
                let cur = self.linger_cur.load(Ordering::Relaxed);
                let next = if group >= 2 || st.pending > group {
                    cur.saturating_mul(2)
                        .clamp(LINGER_STEP_NS, LINGER_MAX_DEFAULT_NS)
                } else {
                    cur / 2
                };
                self.linger_cur.store(next, Ordering::Relaxed);
            }
            self.force_cv.notify_all();
            if res.is_err() {
                break res;
            }
            // Loop: `flushed` now covers `target` (goal >= target).
        };
        st.pending -= 1;
        drop(st);
        result
    }

    /// Leader-side bounded linger: freshly elected, wait a short adaptive
    /// window for committers already in flight to register so their commits
    /// ride this batch. Exits after a quiet slice (no new registrations —
    /// the cohort has assembled) or when the budget runs out; with a zero
    /// budget (the cold-start and single-threaded steady state) no timed
    /// wait is taken at all, keeping sequential runs byte-deterministic.
    fn linger<'g>(
        &self,
        mut st: pitree_pagestore::sync::MutexGuard<'g, ForceState>,
    ) -> pitree_pagestore::sync::MutexGuard<'g, ForceState> {
        let budget = self.linger_cur.load(Ordering::Relaxed);
        if budget == 0 {
            return st;
        }
        let timer = Stopwatch::start();
        loop {
            let spent = timer.elapsed_ns();
            if spent >= budget {
                break;
            }
            let before = st.pending;
            let slice = (budget / 4).max(LINGER_SLICE_MIN_NS).min(budget - spent);
            let (g, _) = self
                .force_cv
                .wait_timeout(st, std::time::Duration::from_nanos(slice));
            st = g;
            if st.pending <= before {
                break; // quiet slice: waiters are no longer trending up
            }
        }
        self.linger_ns.record(timer.elapsed_ns());
        st
    }

    /// Pin the linger budget to `ns` and disable adaptation. The one caller
    /// is the group-formation test, which needs a window wider than the
    /// adaptive cap: without the pin its cohort misses the window on a
    /// loaded machine, and only a virtual clock could replace it.
    pub fn pin_linger_ns(&self, ns: u64) {
        self.linger_adaptive.store(false, Ordering::Relaxed);
        self.linger_cur.store(ns, Ordering::Relaxed);
    }

    /// Leader: drain the **whole** tail as of drain time, write one batch,
    /// publish `flushed`. Draining past the leader's own goal is always
    /// safe (more of the log durable, still frame-aligned — appends are
    /// atomic under the tail mutex) and it is what makes pipelined commits
    /// group: the oldest ack's force carries every commit published behind
    /// it. Runs with **no** lock held across the store write.
    fn lead_force(&self) -> StoreResult<()> {
        let (batch_base, batch, batch_commits) = {
            let mut tail = self.tail.lock();
            let end = tail.base + tail.buf.len() as u64;
            if end <= tail.base {
                return Ok(()); // covered by an earlier batch
            }
            let (spare, spare_ends) = std::mem::take(&mut tail.spare);
            let batch = std::mem::replace(&mut tail.buf, spare);
            let batch_base = tail.base;
            tail.base = end;
            // Commit frames ending inside the batch are the ones this force
            // makes durable (batches end on frame boundaries).
            let batch_commits = std::mem::replace(&mut tail.commit_ends, spare_ends);
            (batch_base, batch, batch_commits)
        };
        let timer = Stopwatch::start();
        let res = self.store.append(&batch);
        self.force_ns.record(timer.elapsed_ns());
        match res {
            Ok(()) => {
                let end = batch_base + batch.len() as u64;
                self.flushed.store(end, Ordering::Release);
                self.forces.inc();
                // The group-commit size: commit records this single store
                // append made durable. Batches carrying no commit (e.g. a
                // page-flush WAL force over updates only) are not groups.
                if !batch_commits.is_empty() {
                    self.group_size.record(batch_commits.len() as u64);
                }
                let (mut spare, mut spare_ends) = (batch, batch_commits);
                spare.clear();
                spare_ends.clear();
                self.tail.lock().spare = (spare, spare_ends);
                Ok(())
            }
            Err(e) => {
                // Splice the batch back in front of the tail so the log
                // image stays contiguous; a later force (or a follower
                // promoted to leader) retries the same bytes.
                let mut tail = self.tail.lock();
                let rest = std::mem::take(&mut tail.buf);
                let mut restored = batch;
                restored.extend_from_slice(&rest);
                tail.buf = restored;
                tail.base = batch_base;
                let rest_ends = std::mem::take(&mut tail.commit_ends);
                let mut restored_ends = batch_commits;
                restored_ends.extend(rest_ends);
                tail.commit_ends = restored_ends;
                Err(e)
            }
        }
    }

    /// Stream every record from `from` (or the start): the durable suffix,
    /// then the volatile tail as of this call. The scan ends cleanly at the
    /// first frame that does not decode — a cut header, a frame running past
    /// the end, a bad checksum: the committed prefix — while an `Err` from
    /// [`LogStore::read_range`] is yielded as that error and is never taken
    /// for a torn tail (a silently shorter log would drop committed work).
    ///
    /// Only `(durable end, a copy of the unflushed tail)` is captured under
    /// the tail mutex. Durable bytes are immutable, so the suffix is then
    /// read with no lock held, one 64 KiB window at a time, each byte
    /// exactly once and in order: a scan seeded at the master checkpoint
    /// costs O(log written since that checkpoint) in I/O and O(window) in
    /// memory, whatever the age of the database (see `RECOVERY.md`).
    pub fn scan(&self, from: Option<Lsn>) -> LogScan<'_> {
        self.scan_with(from, LogRecord::decode_body)
    }

    /// [`LogManager::scan`] yielding each record's [`RecordHead`]: the same
    /// frames, ending at the same one, but no payload is decoded — what
    /// analysis reads.
    pub(crate) fn scan_heads(&self, from: Option<Lsn>) -> LogScan<'_, RecordHead> {
        self.scan_with(from, RecordHead::decode)
    }

    fn scan_with<T>(&self, from: Option<Lsn>, decode: Decode<T>) -> LogScan<'_, T> {
        let from_off = from.map_or(0, |l| l.0.saturating_sub(1));
        loop {
            let durable_len = self.store.durable_len();
            {
                let tail = self.tail.lock();
                if durable_len == tail.base {
                    let start = from_off.min(tail.base);
                    return LogScan {
                        log: self,
                        buf: Vec::new(),
                        base: start,
                        off: from_off,
                        next_read: start,
                        durable_end: tail.base,
                        tail: Some(tail.buf.clone()),
                        decode,
                    };
                }
            }
            // A leader's batch is in flight between the snapshot and the
            // tail (durable is a stale prefix of `base`). Wait and retry.
            let st = self.force.lock();
            if st.leader {
                drop(self.force_cv.wait(st));
            }
        }
    }

    /// A copy of the volatile (unforced) tail bytes — the part of the log a
    /// crash would lose. Exposed for crash-harness tests that freeze the
    /// "batch written, `flushed` not yet published" window.
    pub fn unflushed_tail(&self) -> Vec<u8> {
        let tail = self.tail.lock();
        tail.buf.clone()
    }
}

impl WalFlush for LogManager {
    fn flush_to(&self, lsn: Lsn) -> StoreResult<()> {
        self.force_to(lsn)
    }
}

/// Decode the record whose frame starts at `lsn` within `buf`.
pub fn read_at(buf: &[u8], lsn: Lsn) -> StoreResult<LogRecord> {
    read_at_base(buf, 0, lsn)
}

/// [`read_at`] against a buffer whose first byte sits at log offset `base`.
fn read_at_base(buf: &[u8], base: u64, lsn: Lsn) -> StoreResult<LogRecord> {
    LogRecord::decode_body(lsn, frame_body(buf, base, lsn)?)
}

/// The checksummed body of the whole frame starting at `lsn` within a
/// buffer whose first byte sits at log offset `base`.
fn frame_body(buf: &[u8], base: u64, lsn: Lsn) -> StoreResult<&[u8]> {
    let abs = lsn
        .0
        .checked_sub(1)
        .ok_or_else(|| StoreError::Corrupt("null lsn".into()))?;
    let off = abs
        .checked_sub(base)
        .ok_or_else(|| StoreError::Corrupt(format!("lsn {lsn} below buffer base {base}")))?
        as usize;
    let len = le_u32_at(buf, off)
        .ok_or_else(|| StoreError::Corrupt(format!("lsn {lsn} beyond log end")))?
        as usize;
    let sum = le_u32_at(buf, off + 4)
        .ok_or_else(|| StoreError::Corrupt(format!("lsn {lsn} beyond log end")))?;
    let body = off
        .checked_add(8)
        .and_then(|s| s.checked_add(len).and_then(|e| buf.get(s..e)))
        .ok_or_else(|| StoreError::Corrupt(format!("torn record at {lsn}")))?;
    if checksum(body) != sum {
        return Err(StoreError::Corrupt(format!("bad checksum at {lsn}")));
    }
    Ok(body)
}

/// Decode every complete record in `buf` starting at `from`; stops cleanly
/// at a torn tail.
pub fn scan_bytes(buf: &[u8], from: Option<Lsn>) -> Vec<LogRecord> {
    let mut out = Vec::new();
    let mut off = from.map_or(0, |l| l.0.saturating_sub(1));
    while let Frame::Whole(rec, next) = frame_at(buf, 0, off, LogRecord::decode_body) {
        out.push(rec);
        off = next;
    }
    out
}

/// How a scan decodes a whole, checksummed frame body at an LSN.
type Decode<T> = fn(Lsn, &[u8]) -> StoreResult<T>;

/// One step of the frame walk every scan shares.
enum Frame<T> {
    /// A record that decoded, and the log offset one past its frame.
    Whole(T, u64),
    /// The buffer ends inside the frame, which spans this many bytes from
    /// its start (8 when even the header is cut).
    Short(usize),
    /// The whole frame is in the buffer and does not decode.
    Bad,
}

/// Classify the frame at log offset `off` of a buffer whose first byte sits
/// at log offset `base`.
fn frame_at<T>(buf: &[u8], base: u64, off: u64, decode: Decode<T>) -> Frame<T> {
    let rel = off
        .checked_sub(base)
        .and_then(|r| usize::try_from(r).ok())
        .unwrap_or(usize::MAX);
    let Some(len) = le_u32_at(buf, rel) else {
        return Frame::Short(8);
    };
    let Some(span) = usize::try_from(len).ok().and_then(|l| l.checked_add(8)) else {
        return Frame::Bad;
    };
    if buf.len().saturating_sub(rel) < span {
        return Frame::Short(span);
    }
    let lsn = Lsn(off.saturating_add(1));
    match frame_body(buf, base, lsn).and_then(|body| decode(lsn, body)) {
        Ok(rec) => Frame::Whole(rec, off.saturating_add(span as u64)),
        Err(_) => Frame::Bad,
    }
}

/// Reads frames back from the durable log by `(LSN, body length)` — what
/// the redo plan keeps of each record — checking each frame's length and
/// checksum. Ascending frames within `window` bytes of a read's start share
/// that read; with a `window` of 0 each frame is one read of its own bytes.
pub(crate) struct FrameReader<'s> {
    store: &'s dyn LogStore,
    window: usize,
    /// No read runs past this log offset (the end of the last frame owed).
    end: u64,
    /// `buf[..filled]` holds the log bytes from offset `base`.
    buf: Vec<u8>,
    base: u64,
    filled: usize,
    /// Ranged reads issued, and the bytes they returned.
    pub(crate) reads: u64,
    pub(crate) bytes: u64,
}

impl<'s> FrameReader<'s> {
    pub(crate) fn new(store: &'s dyn LogStore, window: usize, end: u64) -> FrameReader<'s> {
        FrameReader {
            store,
            window,
            end,
            buf: Vec::new(),
            base: 0,
            filled: 0,
            reads: 0,
            bytes: 0,
        }
    }

    /// The body of the frame at `lsn`, which analysis saw holding `len`
    /// body bytes: a typed `Corrupt` if the frame read back differs in
    /// length or fails its checksum.
    pub(crate) fn body(&mut self, lsn: Lsn, len: u32) -> StoreResult<&[u8]> {
        let off = lsn
            .0
            .checked_sub(1)
            .ok_or_else(|| StoreError::Corrupt("null lsn".into()))?;
        let span = len as u64 + 8;
        let buffered = off >= self.base && off + span <= self.base + self.filled as u64;
        if !buffered {
            let n = span.max(self.end.saturating_sub(off).min(self.window as u64));
            let n = usize::try_from(n)
                .map_err(|_| StoreError::Corrupt(format!("frame at {lsn} spans {n} bytes")))?;
            if self.buf.len() < n {
                self.buf.resize(n, 0);
            }
            let dst = self
                .buf
                .get_mut(..n)
                .ok_or_else(|| StoreError::Corrupt(format!("frame buffer short at {lsn}")))?;
            self.store.read_into(off, dst)?;
            (self.base, self.filled) = (off, n);
            self.reads += 1;
            self.bytes += n as u64;
        }
        let buf = self.buf.get(..self.filled).unwrap_or_default();
        if le_u32_at(buf, (off - self.base) as usize) != Some(len) {
            return Err(StoreError::Corrupt(format!(
                "frame at {lsn} no longer holds the {len} bytes analysis read"
            )));
        }
        frame_body(buf, self.base, lsn)
    }
}

/// Durable bytes one [`LogStore::read_range`] of a scan asks for. A frame
/// longer than this (a checkpoint with a large dirty-page table) grows that
/// one read to the frame, so scan memory is O(window + largest frame).
pub(crate) const SCAN_WINDOW: usize = 64 * 1024;

/// The streamed log reader [`LogManager::scan`] returns: an iterator over the
/// records of `durable suffix ++ tail snapshot`, holding one window of
/// undecoded bytes at a time.
pub struct LogScan<'a, T = LogRecord> {
    log: &'a LogManager,
    /// Undecoded bytes; `buf[0]` sits at log offset `base`.
    buf: Vec<u8>,
    base: u64,
    /// Log offset of the next frame to decode.
    off: u64,
    /// Log offset of the next durable byte to read; done at `durable_end`.
    next_read: u64,
    durable_end: u64,
    /// The tail snapshot, taken as the last refill.
    tail: Option<Vec<u8>>,
    decode: Decode<T>,
}

impl<T> std::fmt::Debug for LogScan<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogScan")
            .field("off", &self.off)
            .field("durable_end", &self.durable_end)
            .finish_non_exhaustive()
    }
}

impl<T> LogScan<'_, T> {
    /// Drop the decoded prefix of the buffer and append the next source
    /// bytes — a durable window sized so the frame at `off` (which spans
    /// `span` bytes) fits, or, once the durable suffix is exhausted, the tail
    /// snapshot. `Ok(false)` when nothing is left to append.
    fn refill(&mut self, span: usize) -> StoreResult<bool> {
        let done = usize::try_from(self.off.saturating_sub(self.base))
            .unwrap_or(usize::MAX)
            .min(self.buf.len());
        // Keep only the partial frame, moved to the front: the next window
        // is read in behind it, into the buffer the last one used.
        self.buf.drain(..done);
        self.base += done as u64;
        let left = self.durable_end.saturating_sub(self.next_read);
        if left > 0 {
            let want = span.saturating_sub(self.buf.len()).max(SCAN_WINDOW);
            let len = usize::try_from(left).map_or(want, |l| l.min(want));
            let at = self.buf.len();
            self.buf.resize(at + len, 0);
            let window = self.buf.get_mut(at..).unwrap_or_default();
            self.log.store.read_into(self.next_read, window)?;
            self.next_read += len as u64;
            self.log.scan_windows.inc();
            self.log.scan_bytes.add(len as u64);
        } else {
            match self.tail.take() {
                Some(tail) => self.buf.extend_from_slice(&tail),
                None => return Ok(false),
            }
        }
        Ok(true)
    }
}

impl<T> Iterator for LogScan<'_, T> {
    type Item = StoreResult<T>;

    fn next(&mut self) -> Option<StoreResult<T>> {
        loop {
            let more = match frame_at(&self.buf, self.base, self.off, self.decode) {
                Frame::Whole(rec, next) => {
                    self.off = next;
                    return Some(Ok(rec));
                }
                Frame::Short(span) => self.refill(span),
                Frame::Bad => Ok(false),
            };
            if let Ok(true) = more {
                continue;
            }
            // Fused: whatever ended the scan is its last word.
            self.next_read = self.durable_end;
            self.tail = None;
            self.buf = Vec::new();
            return more.err().map(Err);
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_macros, reason = "test assertions")]
mod tests {
    use super::*;
    use crate::record::{ActionIdentity, UndoInfo};
    use pitree_pagestore::{PageId, PageOp};

    fn mgr() -> (Arc<MemLogStore>, LogManager) {
        let store = Arc::new(MemLogStore::new());
        let log = LogManager::open(Arc::clone(&store) as Arc<dyn LogStore>).unwrap();
        (store, log)
    }

    fn scan(log: &LogManager, from: Option<Lsn>) -> Vec<LogRecord> {
        log.scan(from).collect::<StoreResult<_>>().unwrap()
    }

    #[test]
    fn append_read_roundtrip() {
        let (_s, log) = mgr();
        let a = log.next_action_id();
        let l1 = log.append(
            a,
            Lsn::ZERO,
            RecordKind::Begin {
                identity: ActionIdentity::Transaction,
            },
        );
        let l2 = log.append(a, l1, RecordKind::Commit);
        assert!(l1 < l2);
        let r1 = log.read(l1).unwrap();
        assert_eq!(r1.action, a);
        assert!(matches!(r1.kind, RecordKind::Begin { .. }));
        let r2 = log.read(l2).unwrap();
        assert_eq!(r2.prev, l1);
        assert!(matches!(r2.kind, RecordKind::Commit));
    }

    #[test]
    fn nothing_durable_until_forced() {
        let (store, log) = mgr();
        let a = log.next_action_id();
        log.append(a, Lsn::ZERO, RecordKind::Commit);
        assert_eq!(store.durable_len(), 0);
        log.force_all().unwrap();
        assert!(store.durable_len() > 0);
    }

    #[test]
    fn force_to_drains_greedily() {
        // `force_to(lsn)` guarantees durability *through* `lsn`'s frame and
        // the leader drains the whole tail available at drain time — the
        // greedy batch that lets the oldest pipelined ack carry every
        // commit published behind it.
        let (store, log) = mgr();
        let a = log.next_action_id();
        let l1 = log.append(a, Lsn::ZERO, RecordKind::Commit);
        let l2 = log.append(a, l1, RecordKind::End);
        log.force_to(l1).unwrap();
        assert!(log.flushed_lsn() >= l1, "forced frame must be durable");
        let durable = store.durable_bytes().unwrap();
        let recs = scan_bytes(&durable, None);
        assert_eq!(recs.len(), 2, "the greedy leader drains the whole tail");
        assert!(matches!(recs[0].kind, RecordKind::Commit));
        assert!(log.flushed_lsn() >= l2);
        assert!(log.unflushed_tail().is_empty());
    }

    #[test]
    fn read_falls_back_to_store_after_force() {
        // The flushed prefix is no longer retained in memory; reads of old
        // LSNs must come back from the store.
        let (_s, log) = mgr();
        let a = log.next_action_id();
        let l1 = log.append(a, Lsn::ZERO, RecordKind::Commit);
        log.force_all().unwrap();
        assert!(
            log.unflushed_tail().is_empty(),
            "forced bytes must leave the volatile tail"
        );
        let r1 = log.read(l1).unwrap();
        assert!(matches!(r1.kind, RecordKind::Commit));
        // And a record appended afterwards still reads from the tail.
        let l2 = log.append(a, l1, RecordKind::End);
        let r2 = log.read(l2).unwrap();
        assert!(matches!(r2.kind, RecordKind::End));
        assert_eq!(r2.prev, l1);
    }

    #[test]
    fn force_to_torn_tail_is_an_error_not_a_panic() {
        // Regression for the old `buf[off..off + 4].try_into().unwrap()`:
        // a force targeting an LSN whose frame header is cut off by the
        // tail end must surface `StoreError::Corrupt`.
        let (_s, log) = mgr();
        let a = log.next_action_id();
        let l1 = log.append(a, Lsn::ZERO, RecordKind::Commit);
        {
            // Truncate the volatile tail mid-header (2 bytes into l1's frame).
            let mut tail = log.tail.lock();
            tail.buf.truncate(2);
            log.tail_end
                .store(tail.base + tail.buf.len() as u64, Ordering::Release);
        }
        assert!(matches!(
            log.force_to(l1),
            Err(StoreError::Corrupt(msg)) if msg.contains("torn volatile tail")
        ));
        // A frame whose header survives but whose body is cut short is also
        // a typed error.
        let (_s2, log2) = mgr();
        let l1 = log2.append(a, Lsn::ZERO, RecordKind::Commit);
        {
            let mut tail = log2.tail.lock();
            let cut = tail.buf.len() - 3;
            tail.buf.truncate(cut);
            log2.tail_end
                .store(tail.base + tail.buf.len() as u64, Ordering::Release);
        }
        assert!(matches!(
            log2.force_to(l1),
            Err(StoreError::Corrupt(msg)) if msg.contains("torn record")
        ));
    }

    #[test]
    fn lsn_reads_are_consistent_without_locks() {
        let (_s, log) = mgr();
        assert_eq!(log.tail_lsn(), Lsn(1));
        assert_eq!(log.flushed_lsn(), Lsn(0));
        let a = log.next_action_id();
        let l1 = log.append(a, Lsn::ZERO, RecordKind::Commit);
        assert!(log.tail_lsn() > l1);
        log.force_all().unwrap();
        assert_eq!(log.flushed_lsn().0 + 1, log.tail_lsn().0);
    }

    #[test]
    fn scan_recovers_all_records() {
        let (_s, log) = mgr();
        let a = log.next_action_id();
        let mut prev = Lsn::ZERO;
        prev = log.append(
            a,
            prev,
            RecordKind::Begin {
                identity: ActionIdentity::SystemTransaction,
            },
        );
        for slot in 0..5u16 {
            prev = log.append(
                a,
                prev,
                RecordKind::Update {
                    pid: PageId(2),
                    redo: PageOp::InsertSlot {
                        slot,
                        bytes: vec![slot as u8],
                    },
                    undo: UndoInfo::Physiological(PageOp::RemoveSlot { slot }),
                },
            );
        }
        log.append(a, prev, RecordKind::Commit);
        let recs = scan(&log, None);
        assert_eq!(recs.len(), 7);
        // Chain integrity.
        for w in recs.windows(2) {
            assert_eq!(w[1].prev, w[0].lsn);
        }
    }

    #[test]
    fn scan_spans_durable_prefix_and_volatile_tail() {
        let (_s, log) = mgr();
        let a = log.next_action_id();
        let l1 = log.append(a, Lsn::ZERO, RecordKind::Commit);
        log.force_all().unwrap();
        log.append(a, l1, RecordKind::End);
        let recs = scan(&log, None);
        assert_eq!(recs.len(), 2);
        assert!(matches!(recs[1].kind, RecordKind::End));
    }

    /// A seeded scan must read only the suffix, and that suffix must equal
    /// the tail of a full scan — whether `from` lands in the durable prefix
    /// or inside the volatile tail.
    #[test]
    fn seeded_scan_equals_full_scan_suffix() {
        let (_s, log) = mgr();
        let a = log.next_action_id();
        let mut lsns = Vec::new();
        let mut prev = Lsn::ZERO;
        for i in 0..4 {
            prev = log.append(
                a,
                prev,
                RecordKind::Update {
                    pid: PageId(i),
                    redo: PageOp::InsertSlot {
                        slot: 0,
                        bytes: vec![i as u8],
                    },
                    undo: UndoInfo::Physiological(PageOp::RemoveSlot { slot: 0 }),
                },
            );
            lsns.push(prev);
            if i == 1 {
                log.force_all().unwrap(); // records 0/1 durable, 2/3 volatile
            }
        }
        let full = scan(&log, None);
        assert_eq!(full.len(), 4);
        for (i, &from) in lsns.iter().enumerate() {
            let suffix = scan(&log, Some(from));
            assert_eq!(suffix.len(), 4 - i, "scan from record {i}");
            assert_eq!(suffix[0].lsn, from);
            assert_eq!(
                suffix.iter().map(|r| r.lsn).collect::<Vec<_>>(),
                full[i..].iter().map(|r| r.lsn).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn torn_tail_stops_scan() {
        let (store, log) = mgr();
        let a = log.next_action_id();
        log.append(a, Lsn::ZERO, RecordKind::Commit);
        log.append(a, Lsn::ZERO, RecordKind::End);
        log.force_all().unwrap();
        let full = store.durable_len();
        // Truncate mid-way through the second record.
        let torn = store.snapshot_truncated(full - 3);
        let recs = scan_bytes(&torn.durable_bytes().unwrap(), None);
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn corrupt_checksum_stops_scan() {
        let (store, log) = mgr();
        let a = log.next_action_id();
        log.append(a, Lsn::ZERO, RecordKind::Commit);
        log.force_all().unwrap();
        let mut bytes = store.durable_bytes().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(scan_bytes(&bytes, None).is_empty());
    }

    #[test]
    fn reopen_sees_durable_records() {
        let (store, log) = mgr();
        let a = log.next_action_id();
        log.append(a, Lsn::ZERO, RecordKind::Commit);
        log.force_all().unwrap();
        let log2 = LogManager::open(Arc::clone(&store) as Arc<dyn LogStore>).unwrap();
        assert_eq!(scan(&log2, None).len(), 1);
        assert_eq!(log2.flushed_lsn().0, store.durable_len());
    }

    #[test]
    fn master_record_roundtrip() {
        let (store, _log) = mgr();
        store.set_master(Lsn(42));
        assert_eq!(store.master(), Lsn(42));
        let snap = store.snapshot();
        assert_eq!(snap.master(), Lsn(42));
    }

    #[test]
    fn a_ranged_read_past_the_durable_end_is_a_typed_error() {
        let path = std::env::temp_dir().join(format!("pitree-wal-range-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let stores: [Box<dyn LogStore>; 2] = [
            Box::new(MemLogStore::new()),
            Box::new(FileLogStore::open(&path).unwrap()),
        ];
        for store in stores {
            store.append(b"0123456789").unwrap();
            assert_eq!(store.read_range(3, 4).unwrap(), b"3456");
            assert_eq!(store.durable_bytes().unwrap(), b"0123456789");
            assert!(matches!(
                store.read_range(8, 4),
                Err(StoreError::Corrupt(msg)) if msg.contains("log range 8+4")
            ));
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("master")).ok();
    }

    #[test]
    fn a_file_master_is_replaced_whole_and_survives_reopen() {
        let path = std::env::temp_dir().join(format!("pitree-wal-master-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = FileLogStore::open(&path).unwrap();
        store.try_set_master(Lsn(7)).unwrap();
        store.try_set_master(Lsn(42)).unwrap();
        assert!(!path.with_extension("master.tmp").exists());
        assert_eq!(FileLogStore::open(&path).unwrap().master(), Lsn(42));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("master")).ok();
    }

    #[test]
    fn action_id_reservation() {
        let (_s, log) = mgr();
        log.reserve_action_ids(100);
        assert_eq!(log.next_action_id(), ActionId(101));
    }
}
