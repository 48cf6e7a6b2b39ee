//! The streamed log scan (`LogManager::scan`) against the rule it replaced.
//!
//! The parent read `durable ++ tail` into one buffer and walked it with
//! `scan_bytes`; the stream reads the durable suffix one window at a time
//! and then the tail snapshot. Same records, same committed-prefix rule at
//! a torn tail — and a device error is an error, never a shorter log.

use pitree_pagestore::buffer::BufferPool;
use pitree_pagestore::page::PageType;
use pitree_pagestore::sync::Mutex;
use pitree_pagestore::{Lsn, MemDisk, PageId, PageOp, StoreError, StoreResult};
use pitree_sim::rng::SimRng;
use pitree_wal::log::scan_bytes;
use pitree_wal::{
    recover, ActionId, ActionIdentity, AtomicAction, LogManager, LogRecord, LogStore, MemLogStore,
    RecordKind, UndoInfo,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// `wal::log::SCAN_WINDOW` (private). Only sizes the logs built here so
/// frames straddle and exceed a window; every assertion holds for any value.
const WINDOW: u64 = 64 * 1024;

type Script = Vec<(ActionId, Lsn, RecordKind)>;

fn open(store: &Arc<impl LogStore + 'static>) -> LogManager {
    LogManager::open(Arc::clone(store) as Arc<dyn LogStore>).unwrap()
}

/// A store whose durable contents are `bytes`.
fn durable(bytes: &[u8]) -> MemLogStore {
    let store = MemLogStore::new();
    store.append(bytes).unwrap();
    store
}

fn collect(log: &LogManager, from: Option<Lsn>) -> StoreResult<Vec<LogRecord>> {
    log.scan(from).collect()
}

/// One random record of any kind; `payload` bounds its variable part.
fn random_record(rng: &mut SimRng, payload: usize) -> (ActionId, Lsn, RecordKind) {
    let pid = PageId(rng.below(64));
    let slot = rng.below(16) as u16;
    let len = rng.range_usize(0..payload.max(1));
    let bytes = rng.bytes(len);
    let kind = match rng.below(18) {
        0 => RecordKind::Begin {
            identity: ActionIdentity::SystemTransaction,
        },
        1 => RecordKind::Commit,
        2 => RecordKind::Abort,
        3 => RecordKind::End,
        4 => RecordKind::Clr {
            pid,
            redo: PageOp::RemoveSlot { slot },
            undo_next: Lsn(rng.below(1000)),
        },
        5 => RecordKind::LogicalClr {
            undo_next: Lsn(rng.below(1000)),
        },
        6..=9 => RecordKind::Checkpoint {
            active: vec![(
                ActionId(rng.below(9)),
                ActionIdentity::Transaction,
                Lsn(rng.below(1000)),
            )],
            dirty: (0..rng.below(1 + payload as u64 / 16))
                .map(|i| (PageId(i), Lsn(i + 1)))
                .collect(),
        },
        10..=13 => RecordKind::Update {
            pid,
            redo: PageOp::InsertSlot { slot, bytes },
            undo: UndoInfo::Logical {
                tag: rng.byte(),
                payload: rng.bytes(8),
            },
        },
        _ => RecordKind::Update {
            pid,
            redo: PageOp::InsertSlot { slot, bytes },
            undo: UndoInfo::Physiological(PageOp::RemoveSlot { slot }),
        },
    };
    (ActionId(rng.below(9)), Lsn(rng.below(1000)), kind)
}

/// Appends `script` records to `log` as it goes, so record sizes can steer
/// where the next one lands.
struct Builder {
    log: LogManager,
    script: Script,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            log: open(&Arc::new(MemLogStore::new())),
            script: Vec::new(),
        }
    }

    fn end(&self) -> u64 {
        self.log.tail_lsn().0 - 1
    }

    fn push(&mut self, rec: (ActionId, Lsn, RecordKind)) {
        self.log.append(rec.0, rec.1, rec.2.clone());
        self.script.push(rec);
    }

    /// Random records until the log ends 150–300 bytes short of `target`.
    fn fill_to(&mut self, rng: &mut SimRng, target: u64) {
        while target - self.end() > 300 {
            let room = (target - self.end()) as usize;
            self.push(random_record(rng, room.min(8200) - 200));
        }
    }

    /// An update whose frame is a little over `payload` bytes.
    fn push_update(&mut self, rng: &mut SimRng, payload: usize) {
        let redo = PageOp::InsertSlot {
            slot: 0,
            bytes: rng.bytes(payload),
        };
        let undo = UndoInfo::None;
        let pid = PageId(1);
        self.push((
            ActionId(1),
            Lsn::ZERO,
            RecordKind::Update { pid, redo, undo },
        ));
    }

    /// The script and the bytes it encodes to.
    fn finish(self) -> (Script, Vec<u8>) {
        self.log.force_all().unwrap();
        let bytes = self.log.store().durable_bytes().unwrap();
        (self.script, bytes)
    }
}

/// A log of mixed records: small frames up to the first window boundary,
/// one frame straddling it, one frame larger than a window (a checkpoint
/// with a 4,200-page dirty table), small frames after.
fn random_log(seed: u64) -> (Script, Vec<u8>) {
    let mut rng = SimRng::new(seed);
    let mut b = Builder::new();
    b.fill_to(&mut rng, WINDOW);
    let before = b.end();
    b.push_update(&mut rng, 600);
    assert!(
        before < WINDOW && b.end() > WINDOW,
        "a frame straddles {WINDOW}"
    );
    for _ in 0..2 {
        b.push(random_record(&mut rng, 1500));
    }
    let before = b.end();
    b.push((
        ActionId(0),
        Lsn::ZERO,
        RecordKind::Checkpoint {
            active: vec![],
            dirty: (0..4200).map(|i| (PageId(i), Lsn(i + 1))).collect(),
        },
    ));
    assert!(b.end() - before > WINDOW, "a frame larger than the window");
    for _ in 0..3 {
        b.push(random_record(&mut rng, 1500));
    }
    b.finish()
}

/// Log offset of every frame start, plus the log's end.
fn boundaries(bytes: &[u8]) -> Vec<u64> {
    let mut at: Vec<u64> = scan_bytes(bytes, None)
        .iter()
        .map(|r| r.lsn.0 - 1)
        .collect();
    at.push(bytes.len() as u64);
    at
}

#[test]
fn streamed_scan_equals_scan_bytes_at_every_split_and_start() {
    for seed in [0x5ca9_0001, 0x5ca9_0002] {
        let (script, bytes) = random_log(seed);
        let cuts = boundaries(&bytes);
        assert_eq!(cuts.len(), script.len() + 1, "every record decodes");
        let end = bytes.len() as u64;

        // None, every frame start (so: LSNs in the durable part and in the
        // tail, whatever the split), an LSN inside a frame, the end, past it.
        let mut froms: Vec<Option<Lsn>> = vec![None, Some(Lsn::ZERO)];
        froms.extend(cuts.iter().map(|&off| Some(Lsn(off + 1))));
        froms.extend([cuts[3] + 5, end + 2, end + 100_000].map(|l| Some(Lsn(l))));
        let want: Vec<Vec<LogRecord>> = froms.iter().map(|&f| scan_bytes(&bytes, f)).collect();
        assert_eq!(want[0].len(), script.len());

        for (k, &split) in cuts.iter().enumerate() {
            // `bytes[..split]` durable, the rest re-appended: the tail.
            let log = open(&Arc::new(durable(&bytes[..split as usize])));
            for (action, prev, kind) in &script[k..] {
                log.append(*action, *prev, kind.clone());
            }
            assert_eq!(log.unflushed_tail(), &bytes[split as usize..]);
            for (from, want) in froms.iter().zip(&want) {
                let got = collect(&log, *from).unwrap();
                assert!(
                    got == *want,
                    "seed {seed:#x} split {split} from {from:?}: {} records, want {}",
                    got.len(),
                    want.len()
                );
            }
        }
    }
}

/// A `LogStore` that records every ranged read and can fail the k-th.
struct ProbeStore {
    inner: MemLogStore,
    reads: Mutex<Vec<(u64, usize)>>,
    fail_at: usize,
}

impl ProbeStore {
    fn over(inner: MemLogStore, fail_at: usize) -> Arc<ProbeStore> {
        Arc::new(ProbeStore {
            inner,
            reads: Mutex::new(Vec::new()),
            fail_at,
        })
    }
}

const INJECTED: &str = "injected log read fault";

impl LogStore for ProbeStore {
    fn append(&self, bytes: &[u8]) -> StoreResult<()> {
        self.inner.append(bytes)
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
        let mut reads = self.reads.lock();
        reads.push((offset, len));
        if reads.len() - 1 == self.fail_at {
            return Err(StoreError::Corrupt(INJECTED.into()));
        }
        self.inner.read_range(offset, len)
    }
}

fn is_injected<T>(r: &StoreResult<T>) -> bool {
    match r {
        Err(StoreError::Corrupt(m)) => m == INJECTED,
        _ => false,
    }
}

#[test]
fn windows_tile_the_suffix_and_carry_partial_frames() {
    let (script, bytes) = random_log(0x5ca9_0003);
    let cuts = boundaries(&bytes);
    for from in [0, cuts[5], cuts[script.len() - 2]] {
        let store = ProbeStore::over(durable(&bytes), usize::MAX);
        let log = open(&store);
        let got = collect(&log, Some(Lsn(from + 1))).unwrap();
        assert_eq!(got, scan_bytes(&bytes, Some(Lsn(from + 1))));
        let reads = store.reads.lock();
        let mut at = from;
        for &(off, len) in reads.iter() {
            assert_eq!(off, at, "ascending, no gap, no overlap: {reads:?}");
            at += len as u64;
        }
        assert_eq!(at, bytes.len() as u64, "every durable byte read once");
        if from == 0 {
            assert!(
                reads
                    .iter()
                    .any(|&(off, _)| off > 0 && !cuts.contains(&off)),
                "some window must start inside a frame: {reads:?}"
            );
        }
    }
}

#[test]
fn a_torn_durable_tail_yields_the_committed_prefix() {
    // The random log (its last frames are small) and one whose last two
    // frames straddle a window boundary.
    let straddler = {
        let mut rng = SimRng::new(0x5ca9_0004);
        let mut b = Builder::new();
        b.fill_to(&mut rng, WINDOW);
        b.push_update(&mut rng, 600);
        b.push((ActionId(1), Lsn::ZERO, RecordKind::Commit));
        b.finish()
    };
    for (script, bytes) in [random_log(0x5ca9_0005), straddler] {
        let cuts = boundaries(&bytes);
        let n = script.len();
        assert_eq!(cuts.len(), n + 1);
        for cut in cuts[n - 2]..=cuts[n] {
            let store = Arc::new(durable(&bytes[..cut as usize]));
            let got = collect(&open(&store), None).unwrap();
            assert_eq!(got, scan_bytes(&bytes[..cut as usize], None), "cut {cut}");
            let whole = cuts.iter().skip(1).filter(|&&end| end <= cut).count();
            assert_eq!(got.len(), whole, "cut {cut}: whole frames only");
        }
    }
}

#[test]
fn a_failed_window_read_fails_the_scan() {
    let (script, bytes) = random_log(0x5ca9_0006);
    let probe = |fail_at| ProbeStore::over(durable(&bytes), fail_at);
    let clean = probe(usize::MAX);
    let all = collect(&open(&clean), None).unwrap();
    assert_eq!(all.len(), script.len());
    let windows = clean.reads.lock().len();
    assert!(windows >= 3, "several windows to fail: {windows}");
    for k in 0..windows {
        let store = probe(k);
        let log = open(&store);
        let mut scan = log.scan(None);
        let mut ok = Vec::new();
        let err = loop {
            match scan.next() {
                Some(Ok(rec)) => ok.push(rec),
                Some(Err(e)) => break Err::<(), _>(e),
                None => panic!("window {k}: the scan ended as if the log were shorter"),
            }
        };
        assert!(is_injected(&err), "window {k}: {err:?}");
        // What came before the error is a prefix, and the error is final.
        assert!(ok.len() < all.len() && ok[..] == all[..ok.len()]);
        assert!(scan.next().is_none(), "fused after the error");
    }
}

/// One forced system transaction inserting `bytes` at `slot` of `pid`.
fn put(pool: &BufferPool, log: &LogManager, pid: PageId, slot: u16, bytes: Vec<u8>) {
    let page = pool.fetch_or_create(pid, PageType::Free).unwrap();
    let mut act = AtomicAction::begin(log, ActionIdentity::SystemTransaction);
    {
        let mut g = page.x();
        if g.page_type().unwrap() == PageType::Free {
            act.apply(&page, &mut g, PageOp::Format { ty: PageType::Node })
                .unwrap();
        }
        act.apply(&page, &mut g, PageOp::InsertSlot { slot, bytes })
            .unwrap();
    }
    act.commit_force().unwrap();
}

#[test]
fn a_failed_log_read_fails_recovery_with_that_error() {
    // ~90 KB of committed updates nothing flushed, plus one loser so the
    // undo pass reads the log too.
    let disk = Arc::new(MemDisk::new());
    let store = Arc::new(MemLogStore::new());
    let pool = BufferPool::new(Arc::clone(&disk) as Arc<_>, 64);
    let log = Arc::new(open(&store));
    pool.set_wal_hook(Arc::clone(&log) as Arc<_>);
    let mut rng = SimRng::new(0x5ca9_0007);
    for i in 0..45u64 {
        put(&pool, &log, PageId(10 + i), 0, rng.bytes(2000));
    }
    {
        let page = pool.fetch(PageId(10)).unwrap();
        let mut act = AtomicAction::begin(&log, ActionIdentity::SeparateTransaction);
        let bytes = b"loser".to_vec();
        act.apply(&page, &mut page.x(), PageOp::InsertSlot { slot: 1, bytes })
            .unwrap();
        log.force_all().unwrap();
    }
    assert!(store.durable_len() > WINDOW);

    let crash = |fail_at| {
        let store = ProbeStore::over(store.snapshot(), fail_at);
        let pool = BufferPool::new(Arc::new(disk.snapshot()) as Arc<_>, 64);
        let log = Arc::new(open(&store));
        pool.set_wal_hook(Arc::clone(&log) as Arc<_>);
        let res = recover(&pool, &log, None);
        (store, pool, res)
    };
    let (clean, pool, stats) = crash(usize::MAX);
    let stats = stats.unwrap();
    assert_eq!((stats.redone, stats.losers.len()), (91, 1));
    assert_eq!(pool.fetch(PageId(10)).unwrap().s().slot_count(), 1);
    let reads = clean.reads.lock().len();
    assert!(reads >= 4, "scan windows and undo reads: {reads}");
    for k in 0..reads {
        let (_, _, res) = crash(k);
        assert!(is_injected(&res), "read {k}: {res:?}");
    }
}

#[test]
fn a_scan_racing_committers_sees_a_frame_aligned_prefix() {
    const THREADS: u64 = 4;
    const COMMITS: u64 = 300;
    let log = open(&Arc::new(MemLogStore::new()));
    let start = Barrier::new(THREADS as usize + 1);
    let done = AtomicBool::new(false);
    let scans = AtomicU64::new(0);
    std::thread::scope(|s| {
        let appenders: Vec<_> = (1..=THREADS)
            .map(|t| {
                let (log, start) = (&log, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..COMMITS {
                        let redo = PageOp::InsertSlot {
                            slot: 0,
                            bytes: vec![t as u8; (i % 200) as usize],
                        };
                        let undo = UndoInfo::None;
                        let pid = PageId(t);
                        let l = log.append(
                            ActionId(t),
                            Lsn::ZERO,
                            RecordKind::Update { pid, redo, undo },
                        );
                        let c = log.append(ActionId(t), l, RecordKind::Commit);
                        log.force_to(c).unwrap();
                    }
                })
            })
            .collect();
        let scanner = s.spawn(|| {
            start.wait();
            let mut seen = 0;
            loop {
                let last = done.load(Ordering::SeqCst);
                let appended = log.tail_lsn().0 - 1;
                let recs = collect(&log, None).unwrap();
                // Frame-aligned and gap-free: each record starts where the
                // one before it ended, from offset 0 …
                let mut at = 0;
                for r in &recs {
                    assert_eq!(r.lsn.0 - 1, at, "a gap or a torn frame mid-scan");
                    at += 8 + r.encode_body().len() as u64;
                }
                // … through everything appended before the scan began —
                // durable, in a leader's in-flight batch, or still volatile.
                assert!(at >= appended, "scan ended at {at}, log was at {appended}");
                assert!(recs.len() >= seen, "a later scan saw less");
                seen = recs.len();
                scans.fetch_add(1, Ordering::SeqCst);
                if last {
                    break;
                }
            }
        });
        for a in appenders {
            a.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
        scanner.join().unwrap();
    });
    println!(
        "streamed_scan: {} scans raced {THREADS} committers",
        scans.load(Ordering::SeqCst)
    );
    assert_eq!(log.scan(None).count() as u64, THREADS * COMMITS * 2);
}
