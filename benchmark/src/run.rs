//! What every workload shares: arguments, set-up, the slice loop that
//! alternates traced and untraced half-seconds, and the result a run hands
//! back to `main` for printing.

use crate::image;
use crate::lat::{median, quantiles, Quantiles, Samples};
use crate::layers::{Acc, Meter};
use crate::trace::{self, Report, SpanDisk, SpanLogStore};
use pitree::Store;
use pitree_obs::Stopwatch;
use pitree_pagestore::disk::{DiskManager, FileDisk};
use pitree_pagestore::PAGE_SIZE;
use pitree_wal::{FileLogStore, LogStore};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Set-ups per untraced run; `setup_s` is their median (the driver's
/// contract asks for several set-ups per run).
const SETUPS: usize = 3;

/// The flush policy, as every run's summary states it.
pub const FLUSH_POLICY: &str = "flush policy: log force = write + sync_data \
     (FileLogStore), data pages written without a sync";

/// Arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Divides every image size; only the smoke test uses a value above 1.
    pub scale: u64,
    /// Test-only: make the shadow model expect wrong values, to prove that
    /// a wrong answer fails the run.
    pub corrupt_shadow: bool,
    /// Scratch directory of this run (removed when the run ends).
    pub work: PathBuf,
}

/// What a run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when something other than an operation went wrong (the span
    /// structure check); the run then counts as incorrect.
    pub invalid: Option<String>,
    pub metrics: HashMap<&'static str, f64>,
    /// Lines for the human-readable summary on stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn set_all(&mut self, values: Vec<(&'static str, f64)>) {
        self.metrics.extend(values);
    }

    /// The end-to-end metrics, which every workload reports the same way.
    /// `rss_mb` is read when the measured phase ends, before any teardown.
    pub fn set_end_to_end(&mut self, db_bytes: u64, user_bytes: u64, setup_s: f64, rss_mb: f64) {
        self.set(
            "db_bytes_per_user_byte",
            db_bytes as f64 / user_bytes.max(1) as f64,
        );
        self.set("setup_s", setup_s);
        self.set("peak_rss_mb", rss_mb);
    }

    pub fn note_latency(&mut self, what: &str, q: &Quantiles) {
        if q.count == 0 {
            return;
        }
        self.notes.push(format!(
            "{what:<8} n={:<9} p50={:.2}us p{}={:.2}us",
            q.count,
            q.p50_ns / 1e3,
            q.tail_pct,
            q.tail_ns / 1e3
        ));
    }
}

/// Run `setup` [`SETUPS`] times (once under trace, where set-up is not
/// reported), keep the last result, and return the median duration.
pub fn repeat_setup<T>(trace: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        drop(last.take());
        let t = Stopwatch::start();
        last = Some(setup());
        secs.push(t.elapsed_ns() as f64 / 1e9);
    }
    (last.expect("at least one set-up"), median(&mut secs))
}

/// Build an image in a child process of this binary (so the load's memory
/// is not this process's) and return the `key=value` lines it printed.
pub fn build_image(kind: &str, dir: &Path, scale: u64, seed: u64) -> HashMap<String, u64> {
    let _ = std::fs::remove_dir_all(dir);
    let exe = std::env::current_exe().expect("own path");
    let out = std::process::Command::new(exe)
        .args(["build-image", kind])
        .arg(dir)
        .args([scale.to_string(), seed.to_string()])
        .output()
        .expect("spawn image builder");
    assert!(
        out.status.success(),
        "image builder failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.parse().expect("numeric image fact")))
        .collect()
}

/// The child side of [`build_image`].
pub fn build_image_main(kind: &str, dir: &Path, scale: u64, seed: u64) {
    match kind {
        "pi" => println!("pages={}", image::build_pi(dir, scale)),
        "restart" => println!("updates={}", image::build_restart(dir, scale, seed)),
        "multi" => println!("t_past={}", image::build_multi(dir, scale)),
        other => panic!("unknown image kind {other}"),
    }
}

/// Open the file-backed store in `dir`. Untraced, this is the program's own
/// `Store::open_file` and nothing else; a traced run assembles the same two
/// devices behind the span decorators.
pub fn open_store(dir: &Path, pool_frames: usize, trace: bool) -> Arc<Store> {
    if !trace {
        return Store::open_file(dir, pool_frames, image::MAX_PAGES).expect("open store");
    }
    std::fs::create_dir_all(dir).expect("mkdir store");
    let db = dir.join("store.db");
    let fresh = !db.exists();
    let disk = FileDisk::open(&db).expect("open store.db");
    let log = FileLogStore::open(&dir.join("store.log")).expect("open store.log");
    let disk: Arc<dyn DiskManager> = Arc::new(SpanDisk(Arc::new(disk)));
    let log: Arc<dyn LogStore> = Arc::new(SpanLogStore(Arc::new(log)));
    Store::assemble(disk, log, pool_frames, image::MAX_PAGES, fresh).expect("assemble store")
}

/// A closed-loop client: one `step` is one operation.
pub trait Client {
    fn step(&mut self);
    /// Ack every published commit; called before a slice's clock stops.
    fn end_slice(&mut self);
    /// Called off the clock before every slice; `sampling` says whether its
    /// operations go into the latency samples (not while spans are
    /// recorded: their cost would be in the sample).
    fn next_slice(&mut self, sampling: bool);
}

/// One stretch of the measured phase.
pub struct Slice {
    pub recording: bool,
    pub ops: u64,
    pub ns: u64,
}

/// The measured phase.
#[derive(Default)]
pub struct Measured {
    slices: Vec<Slice>,
}

impl Measured {
    pub fn push(&mut self, slice: Slice) {
        self.slices.push(slice);
    }

    fn of(&self, recording: bool) -> impl Iterator<Item = &Slice> {
        self.slices.iter().filter(move |s| s.recording == recording)
    }

    pub fn total_ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }

    pub fn total_secs(&self) -> f64 {
        self.slices.iter().map(|s| s.ns).sum::<u64>() as f64 / 1e9
    }

    /// Operations in the recording slices.
    pub fn traced_ops(&self) -> u64 {
        self.of(true).map(|s| s.ops).sum()
    }

    /// Throughput: all operations of the chosen slices over all their time.
    pub fn ops_per_s(&self, recording: bool) -> f64 {
        let ops: u64 = self.of(recording).map(|s| s.ops).sum();
        let ns: u64 = self.of(recording).map(|s| s.ns).sum();
        ops as f64 / (ns.max(1) as f64 / 1e9)
    }

    /// Throughput lost to span recording, in percent of the untraced rate.
    pub fn overhead_pct(&self) -> f64 {
        let base = self.ops_per_s(false);
        if base == 0.0 {
            0.0
        } else {
            (base - self.ops_per_s(true)) / base * 100.0
        }
    }
}

/// Run the measured phase: `seconds` cut into half-second slices, every
/// commit acked before a slice's clock stops. A traced run alternates
/// recording off and on, so the two halves see the same store drift and
/// their throughput difference is the tracing overhead. `around` brackets
/// every recording slice (the caller snapshots the Recorder there).
pub fn measure(
    client: &mut impl Client,
    seconds: f64,
    trace: bool,
    mut around: impl FnMut(&mut dyn FnMut()),
) -> Measured {
    let mut m = Measured::default();
    let slices = 2 * (seconds.round() as usize).max(1);
    let slice_ns = (seconds * 1e9 / slices as f64) as u64;
    for i in 0..slices {
        let recording = trace && i % 2 == 1;
        let mut slice = || {
            client.next_slice(!recording);
            trace::set_recording(recording);
            let wall = Stopwatch::start();
            let mut ops = 0;
            while wall.elapsed_ns() < slice_ns {
                client.step();
                ops += 1;
            }
            client.end_slice();
            let ns = wall.elapsed_ns();
            trace::set_recording(false);
            m.push(Slice { recording, ops, ns });
        };
        if recording {
            around(&mut slice);
        } else {
            slice();
        }
    }
    m
}

/// Recorder deltas of one store over (a) the recording slices and (b) the
/// whole measured phase.
pub struct StoreMeter<'s> {
    store: &'s Store,
    meter: Meter,
    pub traced: Acc,
    pub whole: Acc,
}

impl<'s> StoreMeter<'s> {
    pub fn new(store: &'s Store) -> StoreMeter<'s> {
        StoreMeter {
            store,
            meter: Meter::new(store),
            traced: Acc::new(),
            whole: Acc::new(),
        }
    }

    /// Measure `client` and fill both accumulators.
    pub fn measure(&mut self, client: &mut impl Client, seconds: f64, trace: bool) -> Measured {
        let before = self.meter.snap(self.store);
        let (meter, store, traced) = (&self.meter, self.store, &mut self.traced);
        let m = measure(client, seconds, trace, |slice| {
            let s0 = meter.snap(store);
            slice();
            traced.add(&s0, &meter.snap(store));
        });
        self.whole.add(&before, &self.meter.snap(self.store));
        m
    }

    /// Off the clock: flush every dirty page, then checkpoint, counting
    /// both into `whole` (the written-byte ratios include the final flush).
    /// Returns the milliseconds `flush_all` took.
    pub fn flush_and_checkpoint(&mut self) -> f64 {
        let before = self.meter.snap(self.store);
        let t = Stopwatch::start();
        self.store.pool.flush_all().expect("final flush");
        let flush_ms = t.elapsed_ns() as f64 / 1e6;
        self.store.txns.checkpoint().expect("final checkpoint");
        self.whole.add(&before, &self.meter.snap(self.store));
        flush_ms
    }

    /// The per-layer metrics of a writing workload that come from the whole
    /// measured phase plus the final flush and checkpoint.
    pub fn write_metrics(&self, user_bytes: u64, flush_ms: f64) -> Vec<(&'static str, f64)> {
        let user = user_bytes.max(1) as f64;
        let page_bytes = self.whole.counter("buf.writebacks") * PAGE_SIZE as u64;
        vec![
            (
                "wal.checkpoints",
                self.whole.counter("wal.ckpt_taken") as f64,
            ),
            ("wal.ckpt_ns", self.whole.hist_sum("wal.ckpt_ns") as f64),
            ("buffer.flush_all_ms", flush_ms),
            (
                "log_bytes_per_user_byte",
                self.whole.log_bytes() as f64 / user,
            ),
            ("page_bytes_per_user_byte", page_bytes as f64 / user),
        ]
    }
}

/// What every traced run does once its slices are over: collect the spans,
/// check their structure, write them out as JSONL, and report the metrics
/// that need nothing but the slices and the outcome.
pub fn finish_trace(args: &Args, measured: &Measured, out: &mut Outcome) -> Report {
    let report = trace::take_report();
    if let Err(e) = report.check() {
        out.invalid = Some(format!("span structure: {e}"));
    }
    let jsonl = args
        .work
        .with_file_name(format!("trace-{}.jsonl", args.workload));
    report.write_jsonl(&jsonl).expect("write span JSONL");
    out.notes.push(format!("spans: {}", jsonl.display()));
    out.set("ops_per_s", measured.ops_per_s(false));
    out.set("trace.overhead_pct", measured.overhead_pct());
    out.set(
        "failed_ops_pct",
        out.failed as f64 * 100.0 / out.attempted.max(1) as f64,
    );
    report
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency samples by operation type. Nothing is recorded while `on` is
/// false (the slices of a traced run that record spans).
pub struct Latencies {
    on: bool,
    get: Samples,
    scan: Samples,
    /// hB-tree window queries.
    window: Samples,
    /// A write from begin to commit *published*, deadlock retries included.
    write: Samples,
    /// The same write through the wait for room in the commit window that
    /// followed it: what the client saw the write take.
    write_acked: Samples,
    /// Waits on the oldest pending commit's durability.
    ack: Samples,
}

impl Latencies {
    /// Samples spill to files under `dir` (see [`Samples::spill`]).
    pub fn new(dir: &Path) -> Latencies {
        let samples = |name: &str| Samples::new(dir.join(format!("lat-{name}.u32")));
        Latencies {
            on: false,
            get: samples("get"),
            scan: samples("scan"),
            window: samples("window"),
            write: samples("write"),
            write_acked: samples("write_acked"),
            ack: samples("ack"),
        }
    }

    /// Between two slices, off the clock: move what the last slice recorded
    /// out of memory, and record the coming one or not.
    pub fn next_slice(&mut self, sampling: bool) {
        self.on = sampling;
        for s in [
            &mut self.get,
            &mut self.scan,
            &mut self.window,
            &mut self.write,
            &mut self.write_acked,
            &mut self.ack,
        ] {
            s.spill();
        }
    }

    pub fn get(&mut self, ns: u64) {
        if self.on {
            self.get.record(ns);
        }
    }

    pub fn scan(&mut self, ns: u64) {
        if self.on {
            self.scan.record(ns);
        }
    }

    pub fn window(&mut self, ns: u64) {
        if self.on {
            self.window.record(ns);
        }
    }

    pub fn write(&mut self, published_ns: u64, acked_ns: u64) {
        if self.on {
            self.write.record(published_ns);
            self.write_acked.record(acked_ns);
        }
    }

    pub fn ack(&mut self, ns: u64) {
        if self.on {
            self.ack.record(ns);
        }
    }

    /// Sort and describe (every run, on stderr) and report (the traced run:
    /// every latency is a per-layer metric). `op` pools every operation of
    /// whatever type.
    pub fn report(&mut self, trace: bool, out: &mut Outcome) {
        let us = |ns: f64| ns / 1e3;
        let (get, scan, window, write_acked) = (
            self.get.take(),
            self.scan.take(),
            self.window.take(),
            self.write_acked.take(),
        );
        let op = quantiles([&get[..], &scan, &window, &write_acked].concat());
        let get = quantiles(get);
        out.note_latency("get", &get);
        out.note_latency("op", &op);
        if trace {
            let (write, ack, scan) = (
                quantiles(self.write.take()),
                quantiles(self.ack.take()),
                quantiles(scan),
            );
            out.note_latency("write", &write);
            out.note_latency("ack", &ack);
            out.note_latency("scan", &scan);
            out.set("get_p50_us", us(get.p50_ns));
            out.set("get_p99_us", us(get.tail_ns));
            out.set("op_p50_us", us(op.p50_ns));
            out.set("op_p99_us", us(op.tail_ns));
            out.set("write_p50_us", us(write.p50_ns));
            out.set("write_p99_us", us(write.tail_ns));
            out.set("ack_p99_us", us(ack.tail_ns));
            out.set("scan_p50_us", us(scan.p50_ns));
        }
    }
}
