//! `restart`: the crash image (loaded tree + acked post-checkpoint update
//! log, store dropped without a flush) recovered over and over, alternately
//! by instant restart with background redo and by stop-the-world replay.
//! Every acked commit is re-read after each recovery.
//!
//! One operation of this workload is one recovery. The clock runs from opening the store until it is usable — the first get
//! answered after a stop-the-world replay, the plan fully drained after an
//! instant restart — and never over restoring the crash image or verifying.
//!
//! The OS page cache is always warm (no `drop_caches` on a shared host), so
//! these are the sandbox's restart times, not a cold device's.

use crate::image::{self, RECORD_BYTES};
use crate::lat::median;
use crate::layers::{common_metrics, Acc, Meter};
use crate::pi::{checked_get, Shadow};
use crate::run::{
    build_image, finish_trace, open_store, peak_rss_mb, repeat_setup, Args, Latencies, Measured,
    Outcome, Slice,
};
use crate::trace::{self, span, Name};
use pitree::{PiTree, PiTreeConfig};
use pitree_obs::Stopwatch;
use pitree_sim::SimRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Pool of a restarted store: far fewer frames than the tree has leaves,
/// the normal state of a buffer pool right after a crash.
const RESTART_POOL_FRAMES: usize = 256;

/// Background redo workers: one, so that with the client thread the
/// restart keeps the sandbox's two cores busy and no more.
const REDO_WORKERS: usize = 1;

/// Besides every updated key, verification re-reads this stride of the
/// checkpointed preload.
const PRELOAD_STRIDE: usize = 97;

struct RestartClient {
    /// The store's directory, and the length of the crash image's log.
    dir: PathBuf,
    log_len: u64,
    trace: bool,
    keys: u64,
    shadow: Shadow,
    /// Keys whose acked post-checkpoint commits must survive.
    updated: Vec<u64>,
    rng: SimRng,
    /// Gets made while redo drains and during verification.
    lat: Latencies,
    attempted: u64,
    failed: u64,
    measured: Measured,
    /// Per-recovery times in ms, of the recoveries that count (all when
    /// untraced, the recording ones when traced).
    ttfo_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    instant_open_ms: Vec<f64>,
    instant_drive_ms: Vec<f64>,
    ops_during_drain: Vec<f64>,
    redone_records: Vec<f64>,
    /// Recorder totals of the counted recoveries' stores.
    acc: Acc,
}

impl RestartClient {
    fn get(&mut self, tree: &PiTree, k: u64) {
        let ok = checked_get(tree, &self.shadow, &mut self.lat, k);
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    /// Off the clock: re-read every acked post-checkpoint commit and a
    /// stride of the preload.
    fn verify(&mut self, tree: &PiTree) {
        for i in 0..self.updated.len() {
            self.get(tree, self.updated[i]);
        }
        for k in (0..self.keys).step_by(PRELOAD_STRIDE) {
            self.get(tree, k);
        }
    }

    /// One recovery: restore the crash image, run `recover` on the clock,
    /// then verify. `recover` returns the tree.
    fn recovery(&mut self, recording: bool, recover: impl FnOnce(&mut Self) -> PiTree) {
        image::restore_crash_image(&self.dir, self.log_len);
        self.lat.next_slice(!recording);
        trace::set_recording(recording);
        let wall = Stopwatch::start();
        let tree = recover(self);
        self.measured.push(Slice {
            recording,
            ops: 1,
            ns: wall.elapsed_ns(),
        });
        trace::set_recording(false);
        self.verify(&tree);
    }

    fn instant(&mut self, counts: bool) -> PiTree {
        let t0 = Stopwatch::start();
        let op = span(Name::OpRecoverInstant);
        let store = open_store(&self.dir, RESTART_POOL_FRAMES, self.trace);
        let meter = Meter::new(&store);
        let zero = meter.snap(&store);
        let (tree, plan, _stats) = {
            let _c = span(Name::CoreRecoverInstant);
            PiTree::recover_instant(Arc::clone(&store), 1, PiTreeConfig::default())
                .expect("instant recover")
        };
        let open_ms = t0.elapsed_ns() as f64 / 1e6;
        drop(op);
        self.get(&tree, 0);
        let ttfo_ms = t0.elapsed_ns() as f64 / 1e6;

        // Background redo drains the plan while this thread serves reads.
        let done = AtomicBool::new(false);
        let mut during = 0u64;
        let drive = Stopwatch::start();
        let mut drive_ms = 0.0;
        std::thread::scope(|s| {
            let driver = s.spawn(|| {
                let r = plan.drive(&store.pool, REDO_WORKERS);
                done.store(true, Ordering::Release);
                r
            });
            while !done.load(Ordering::Acquire) {
                let k = self.rng.below(self.keys);
                self.get(&tree, k);
                during += 1;
            }
            drive_ms = drive.elapsed_ns() as f64 / 1e6;
            driver.join().expect("drive thread").expect("drive");
        });
        let drain_ms = t0.elapsed_ns() as f64 / 1e6;
        assert!(plan.is_complete(), "drive returned with pages pending");
        if counts {
            self.ttfo_ms.push(ttfo_ms);
            self.drain_ms.push(drain_ms);
            self.instant_open_ms.push(open_ms);
            self.instant_drive_ms.push(drive_ms);
            self.ops_during_drain.push(during as f64);
            self.acc.add(&zero, &meter.snap(&store));
        }
        tree
    }

    fn replay(&mut self, counts: bool) -> PiTree {
        let t0 = Stopwatch::start();
        let op = span(Name::OpRecover);
        let store = open_store(&self.dir, RESTART_POOL_FRAMES, self.trace);
        let meter = Meter::new(&store);
        let zero = meter.snap(&store);
        let (tree, stats) = {
            let _c = span(Name::CoreRecover);
            PiTree::recover(Arc::clone(&store), 1, PiTreeConfig::default()).expect("full recover")
        };
        drop(op);
        self.get(&tree, 0);
        if counts {
            self.replay_ms.push(t0.elapsed_ns() as f64 / 1e6);
            self.redone_records.push(stats.redone as f64);
            self.acc.add(&zero, &meter.snap(&store));
        }
        tree
    }
}

pub fn run(args: &Args) -> Outcome {
    let keys = image::FULL_KEYS / args.scale;
    let dir = args.work.join("store");
    let (facts, setup_s) = repeat_setup(args.trace, || {
        build_image("restart", &dir, args.scale, args.seed)
    });
    let updates = facts["updates"];

    // The shadow model replays the builder's update stream.
    let mut shadow = Shadow::loaded(keys, args.corrupt_shadow);
    let mut next_key = image::restart_update_keys(args.seed, keys);
    let mut updated: Vec<u64> = (0..updates)
        .map(|_| {
            let k = next_key();
            shadow.bump(k);
            k
        })
        .collect();
    updated.sort_unstable();
    updated.dedup();

    // The crash image's size, before any recovery writes to it.
    let db_bytes = image::data_pages(&dir) * pitree_pagestore::PAGE_SIZE as u64;
    let mut client = RestartClient {
        log_len: image::save_crash_image(&dir),
        dir,
        trace: args.trace,
        keys,
        shadow,
        updated,
        rng: SimRng::new(args.seed),
        lat: Latencies::new(&args.work),
        attempted: 0,
        failed: 0,
        measured: Measured::default(),
        ttfo_ms: Vec::new(),
        replay_ms: Vec::new(),
        drain_ms: Vec::new(),
        instant_open_ms: Vec::new(),
        instant_drive_ms: Vec::new(),
        ops_during_drain: Vec::new(),
        redone_records: Vec::new(),
        acc: Acc::new(),
    };
    // Pairs of recoveries of the same crash image until the time is up; a
    // traced run records spans on every second pair (so it makes two).
    let wall = Stopwatch::start();
    let mut pairs = 0u64;
    while pairs <= args.trace as u64 || (wall.elapsed_ns() as f64) < args.seconds * 1e9 {
        let recording = args.trace && pairs % 2 == 1;
        let counts = !args.trace || recording;
        client.recovery(recording, |c| c.instant(counts));
        client.recovery(recording, |c| c.replay(counts));
        pairs += 1;
    }
    let rss = peak_rss_mb();
    let measured = std::mem::take(&mut client.measured);

    let mut out = Outcome {
        attempted: client.attempted,
        failed: client.failed,
        ..Outcome::default()
    };
    let (ttfo_ms, replay_ms, drain_ms) = (
        median(&mut client.ttfo_ms),
        median(&mut client.replay_ms),
        median(&mut client.drain_ms),
    );
    out.notes.push(format!(
        "{pairs} recovery pairs in {:.2}s of recovery, {updates} updates ({} distinct keys) past \
         the checkpoint, pool {RESTART_POOL_FRAMES} frames, warm OS cache, {} gets checked",
        measured.total_secs(),
        client.updated.len(),
        client.attempted,
    ));
    out.notes.push(format!(
        "ttfo {ttfo_ms:.2} ms, replay {replay_ms:.2} ms, drain {drain_ms:.2} ms (medians)"
    ));
    if !args.trace {
        out.set_end_to_end(db_bytes, client.shadow.live() * RECORD_BYTES, setup_s, rss);
        return out;
    }

    client.lat.report(true, &mut out);
    let report = finish_trace(args, &measured, &mut out);
    let mut m = Vec::new();
    common_metrics(
        &client.acc,
        &client.acc,
        measured.traced_ops(),
        &report,
        &mut m,
    );
    let instant_cycles = client.ttfo_ms.len().max(1) as f64;
    let per_cycle = |counter: &str| client.acc.counter(counter) as f64 / instant_cycles;
    m.extend([
        ("ttfo_ms", ttfo_ms),
        ("replay_ms", replay_ms),
        ("drain_ms", drain_ms),
        (
            "recovery.redone_records",
            median(&mut client.redone_records),
        ),
        ("instant.open_ms", median(&mut client.instant_open_ms)),
        ("instant.drain_ms", median(&mut client.instant_drive_ms)),
        (
            "instant.ops_during_drain",
            median(&mut client.ops_during_drain),
        ),
        ("instant.redo_pages", per_cycle("recovery.redo_pages")),
        (
            "instant.on_demand_redos",
            per_cycle("recovery.on_demand_redos"),
        ),
    ]);
    out.set_all(m);
    out
}
