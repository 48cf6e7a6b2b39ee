//! The one bench driver: everything the `scenarios` and `mttr` bins (and
//! the multi-thread throughput row of the scenario matrix) used to
//! hand-roll separately, said once.
//!
//! - [`Cli`] — the flag parser; bad input prints a usage line and exits 2.
//! - [`commit`] / [`publish`] / [`Pipeline`] — autocommit over
//!   [`Engine::autocommit`](pitree::Engine::autocommit) and the
//!   published-but-unacked commit window ([`PIPELINE_DEPTH`]).
//! - [`load`], [`fence`], [`copy_image`], [`data_pages`], [`scaled_pool`] —
//!   durable images: pipelined load, flush + checkpoint fence, copy per run.
//! - [`run_phase`] — the one timed loop: ops target + deadline, per-op
//!   latency histograms, one counter-delta snapshot, N worker threads.
//! - [`Obj`] and the rows ([`engine_row`], [`throughput_row`],
//!   [`MttrRow`]) — the schema of every `BENCH_*.json` the bins write.

use pitree::{Engine, Store, Structure};
use pitree_obs::{Hist, Recorder, Stopwatch};
use pitree_pagestore::StoreResult;
use pitree_sim::SimRng;
use pitree_txnlock::{PendingCommit, Txn};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

// ---- command line ----------------------------------------------------------

/// Parsed command line of a harness bin.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Cli {
    given: Vec<(String, Option<String>)>,
}

impl Cli {
    /// Parse `args` for `bin`. `accepts` lists the bin's flags as they
    /// appear in its usage line: `"--smoke"` for a switch, `"--out PATH"`
    /// for a flag that takes a value. An unknown flag or a missing value
    /// is an `Err` carrying the complaint and the usage line.
    pub fn parse(
        bin: &str,
        accepts: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Cli, String> {
        let flags: String = accepts.iter().map(|f| format!(" [{f}]")).collect();
        let usage = format!("usage: {bin}{flags}");
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(flag) = accepts.iter().find(|f| f.split(' ').next() == Some(&arg)) else {
                return Err(format!("{bin}: unknown argument `{arg}`\n{usage}"));
            };
            let value = match flag.split_once(' ') {
                None => None,
                Some((_, what)) => Some(
                    args.next()
                        .ok_or_else(|| format!("{bin}: {arg} needs a {what}\n{usage}"))?,
                ),
            };
            cli.given.push((arg, value));
        }
        Ok(cli)
    }

    /// [`Cli::parse`] over the process arguments; on bad input prints the
    /// complaint and usage to stderr and exits with status 2.
    pub fn from_env(bin: &str, accepts: &[&str]) -> Cli {
        Cli::parse(bin, accepts, std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        })
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// The smoke/full switch: the JSON `mode` string, and `smoke` or `full`
    /// sizes accordingly.
    pub fn mode<C>(&self, full: C, smoke: C) -> (&'static str, C) {
        if self.has("--smoke") {
            ("smoke", smoke)
        } else {
            ("full", full)
        }
    }

    /// The value given for `flag` (the last one wins), if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, v) = self.given.iter().rev().find(|(f, _)| f == flag)?;
        v.as_deref()
    }
}

// ---- autocommit + the commit pipeline ---------------------------------------

/// Published-but-unacked commits a writer holds before it must wait for
/// the oldest one's durable ack — the way a connection handler overlaps
/// the next request with the previous commit's force.
pub const PIPELINE_DEPTH: usize = 8;

/// One autocommitted operation, forced: run `op` under
/// [`Engine::autocommit`] (deadlock victims retry), commit, and wait for
/// the durable ack. Returns `op`'s value.
pub fn commit<'t, S: Structure, T>(
    tree: &'t Engine<S>,
    op: impl FnMut(&mut Txn<'t>) -> StoreResult<T>,
) -> T {
    let (txn, v) = tree.autocommit(op).expect("autocommitted op");
    txn.commit().expect("commit");
    v
}

/// One autocommitted write, published: run `op` under
/// [`Engine::autocommit`] (deadlock victims retry) and publish the commit —
/// locks released at log append, the durable ack still owed. Hand the
/// result to a [`Pipeline`].
pub fn publish<'t, S: Structure, T>(
    tree: &'t Engine<S>,
    op: impl FnMut(&mut Txn<'t>) -> StoreResult<T>,
) -> PendingCommit<'t> {
    let (txn, _) = tree.autocommit(op).expect("autocommitted write");
    txn.commit_publish()
}

/// The window of published-but-unacked commits of one writer. Ack waits
/// are recorded in the store's `op.ack_ns` histogram.
#[derive(Debug)]
pub struct Pipeline<'t> {
    pending: VecDeque<PendingCommit<'t>>,
    ack_ns: Hist,
}

impl<'t> Pipeline<'t> {
    /// An empty window recording ack latency into `rec`'s `op.ack_ns`.
    pub fn new(rec: &Recorder) -> Pipeline<'t> {
        Pipeline {
            pending: VecDeque::with_capacity(PIPELINE_DEPTH),
            ack_ns: rec.hist("op.ack_ns"),
        }
    }

    /// Admit a published commit; once [`PIPELINE_DEPTH`] are in flight,
    /// wait for the oldest one's ack.
    pub fn push(&mut self, commit: PendingCommit<'t>) {
        self.pending.push_back(commit);
        self.drain(PIPELINE_DEPTH - 1);
    }

    /// Ack the oldest commits until at most `down_to` remain in flight.
    /// `drain(0)` before the clock stops (or before a fence) makes every
    /// published commit durable.
    pub fn drain(&mut self, down_to: usize) {
        while self.pending.len() > down_to {
            let oldest = self.pending.pop_front().expect("non-empty pipeline");
            let t = Stopwatch::start();
            oldest.wait_durable().expect("ack");
            self.ack_ns.record(t.elapsed_ns());
        }
    }

    /// Commits currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

/// Big-endian key bytes of `k`: byte order is key order.
pub fn key_bytes(k: u64) -> [u8; 8] {
    k.to_be_bytes()
}

/// The pipelined load: publish `write(k)` for every key through one
/// [`Pipeline`], then ack them all.
pub fn load<'t>(
    rec: &Recorder,
    keys: impl IntoIterator<Item = u64>,
    mut write: impl FnMut(u64) -> PendingCommit<'t>,
) {
    let mut pipe = Pipeline::new(rec);
    for k in keys {
        pipe.push(write(k));
    }
    pipe.drain(0);
}

// ---- durable images ----------------------------------------------------------

/// Pool frames while *building* an image only — generous, so the load is
/// fast; measured phases reopen the copy with their own small pool.
pub const LOAD_POOL_FRAMES: usize = 8192;

/// Fence a freshly loaded store into an image: flush every dirty page,
/// then take a checkpoint, so a reopen's analysis starts here and replays
/// only what is written afterwards.
pub fn fence(store: &Store) {
    store.pool.flush_all().expect("flush image");
    store.txns.checkpoint().expect("checkpoint image");
}

/// Copy the durable files (`store.db` / `store.log` / `store.master`) of
/// the image in `src` into `dst`, so each run mutates its own copy of the
/// same fenced (or crashed) image.
pub fn copy_image(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("mkdir image copy");
    for f in ["store.db", "store.log", "store.master"] {
        let s = src.join(f);
        if s.exists() {
            std::fs::copy(&s, dst.join(f)).expect("copy durable file");
        }
    }
}

/// Data pages of the image in `dir`.
pub fn data_pages(dir: &Path) -> u64 {
    let db = std::fs::metadata(dir.join("store.db")).expect("image store.db");
    db.len() / pitree_pagestore::PAGE_SIZE as u64
}

/// The ≤ 1% pool: `pages / 128` (≈ 0.78%), floored at 64 frames so tiny
/// smoke images stay runnable (the JSON's `pool_pct` records the truth).
pub fn scaled_pool(pages: u64) -> usize {
    (pages / 128).max(64) as usize
}

// ---- the timed phase ---------------------------------------------------------

/// What an operation was, for the per-kind latency histograms
/// (`op.get_ns` / `op.insert_ns` / `op.delete_ns` / `op.scan_ns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point read.
    Get,
    /// Insert / upsert / put.
    Insert,
    /// Delete.
    Delete,
    /// Range scan or window query.
    Scan,
}

/// What one operation hands back to [`run_phase`]: its kind, and the
/// published commit of a pipelined write (`None` for reads and for writes
/// that forced their own commit).
pub type Done<'t> = (OpKind, Option<PendingCommit<'t>>);

/// Limits and seeding of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    /// Operations per worker.
    pub ops_target: u64,
    /// Wall-clock cap for the whole phase.
    pub deadline_ns: u64,
    /// Worker threads. One worker draws from `SimRng::new(seed)` itself;
    /// several draw from forks of it.
    pub threads: usize,
    /// Seed of the phase's operation stream.
    pub seed: u64,
}

/// Counters every phase reports as deltas over the measured loop.
pub const PHASE_COUNTERS: [&str; 10] = [
    "buf.hits",
    "buf.misses",
    "buf.evictions",
    "buf.writebacks",
    "buf.shard_conflicts",
    "wal.forces",
    "wal.force_waiters",
    "txn.elr_released",
    "tree.splits",
    "tree.consolidations",
];

/// Outcome of [`run_phase`]. Latency percentiles stay in the recorder's
/// histograms (`scen.op_ns` for every op, `op.*_ns` per kind).
#[derive(Debug)]
pub struct PhaseRun {
    /// Operations completed, all workers.
    pub ops: u64,
    /// Wall time from the first op to the last durable ack.
    pub elapsed_ns: u64,
    /// Growth of each [`PHASE_COUNTERS`] entry over the loop, in order.
    pub deltas: [u64; PHASE_COUNTERS.len()],
}

impl PhaseRun {
    /// How much the [`PHASE_COUNTERS`] entry `name` grew during the phase.
    pub fn delta(&self, name: &str) -> u64 {
        let i = PHASE_COUNTERS.iter().position(|n| *n == name);
        self.deltas[i.expect("a PHASE_COUNTERS name")]
    }

    /// Durable operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }
}

/// The one timed loop. Each of `spec.threads` workers builds its operation
/// closure with `worker()` and calls it until it has done
/// `spec.ops_target` ops or the deadline passes. Per op: the closure's own
/// time goes to the kind's `op.*_ns` histogram; a returned commit then
/// enters the worker's [`Pipeline`] (which may wait on the oldest ack), and
/// the op's whole time goes to `scen.op_ns`. Every published commit is
/// acked before the clock stops, so ops/s is durable throughput.
pub fn run_phase<'t, W>(rec: &Recorder, spec: &PhaseSpec, worker: impl Fn() -> W + Sync) -> PhaseRun
where
    W: FnMut(&mut SimRng) -> Done<'t>,
{
    let all = rec.hist("scen.op_ns");
    let kinds = ["op.get_ns", "op.insert_ns", "op.delete_ns", "op.scan_ns"].map(|n| rec.hist(n));
    let read = || PHASE_COUNTERS.map(|n| rec.counter(n).get());
    let mut root = SimRng::new(spec.seed);
    let rngs: Vec<SimRng> = match spec.threads {
        1 => vec![root],
        n => (0..n).map(|_| root.fork()).collect(),
    };
    let base = read();
    let wall = Stopwatch::start();
    let done = AtomicU64::new(0);
    std::thread::scope(|s| {
        let (all, kinds, worker, done) = (&all, &kinds, &worker, &done);
        for mut rng in rngs {
            s.spawn(move || {
                let mut op = worker();
                let mut pipe = Pipeline::new(rec);
                let mut ops = 0u64;
                while ops < spec.ops_target && wall.elapsed_ns() < spec.deadline_ns {
                    let t = Stopwatch::start();
                    let (kind, commit) = op(&mut rng);
                    kinds[kind as usize].record(t.elapsed_ns());
                    if let Some(commit) = commit {
                        pipe.push(commit);
                    }
                    all.record(t.elapsed_ns());
                    ops += 1;
                }
                pipe.drain(0);
                done.fetch_add(ops, Ordering::Relaxed);
            });
        }
    });
    let elapsed_ns = wall.elapsed_ns();
    let after = read();
    PhaseRun {
        ops: done.into_inner(),
        elapsed_ns,
        deltas: std::array::from_fn(|i| after[i] - base[i]),
    }
}

// ---- JSON --------------------------------------------------------------------

/// An ordered JSON object under construction: each call appends one
/// member, rendered as it is added. [`Obj::document`] lays a top-level
/// object out the way every `BENCH_*.json` is written.
#[derive(Debug, Default, Clone)]
pub struct Obj(Vec<(&'static str, String)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn with(mut self, key: &'static str, rendered: String) -> Obj {
        self.0.push((key, rendered));
        self
    }

    /// A number or boolean member.
    pub fn num(self, key: &'static str, v: impl std::fmt::Display) -> Obj {
        self.with(key, v.to_string())
    }

    /// A float member printed with a fixed number of decimals.
    pub fn fixed(self, key: &'static str, v: f64, decimals: usize) -> Obj {
        self.with(key, format!("{v:.decimals$}"))
    }

    /// A string member.
    pub fn text(self, key: &'static str, v: &str) -> Obj {
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.with(key, format!("\"{}\"", escaped.replace('\n', "\\n")))
    }

    /// A nested object member, rendered inline.
    pub fn obj(self, key: &'static str, v: Obj) -> Obj {
        self.with(key, v.inline())
    }

    /// An array-of-objects member of a [`Obj::document`]: one row per line.
    pub fn rows(self, key: &'static str, rows: &[Obj]) -> Obj {
        let rows: Vec<String> = rows.iter().map(Obj::inline).collect();
        self.with(key, format!("[\n    {}\n  ]", rows.join(",\n    ")))
    }

    fn members(&self) -> impl Iterator<Item = String> + '_ {
        self.0.iter().map(|(k, v)| format!("\"{k}\": {v}"))
    }

    /// `{"k": v, ...}` on one line.
    pub fn inline(&self) -> String {
        format!("{{{}}}", self.members().collect::<Vec<_>>().join(", "))
    }

    /// The `BENCH_*.json` layout: one member per line, an array member one
    /// row per line, anything nested deeper inline — so `grep`/`sed` gates
    /// can address one row.
    pub fn document(&self) -> String {
        let members = self.members().collect::<Vec<_>>().join(",\n  ");
        format!("{{\n  {members}\n}}\n")
    }
}

/// One engine's record in `BENCH_scenario_*.json`: the phase `run`, with
/// whole-op latency and commit-group percentiles read from `rec`.
pub fn engine_row(name: &str, rec: &Recorder, run: &PhaseRun) -> Obj {
    let (p50, p95, p99, _) = rec.hist("scen.op_ns").percentiles();
    Obj::new()
        .text("name", name)
        .num("ops", run.ops)
        .num("elapsed_ns", run.elapsed_ns)
        .fixed("ops_per_sec", run.ops_per_sec(), 0)
        .num("p50_ns", p50)
        .num("p95_ns", p95)
        .num("p99_ns", p99)
        .num("pool_hits", run.delta("buf.hits"))
        .num("pool_misses", run.delta("buf.misses"))
        .num("evictions", run.delta("buf.evictions"))
        .num("writebacks", run.delta("buf.writebacks"))
        .num("shard_conflicts", run.delta("buf.shard_conflicts"))
        .num("forces", run.delta("wal.forces"))
        .num("group_size_p50", rec.hist("wal.group_size").quantile(0.50))
        .num("splits", run.delta("tree.splits"))
        .num("consolidations", run.delta("tree.consolidations"))
}

/// One thread count's record in `BENCH_throughput.json`. Insert latency is
/// measured through commit *publish*; the deferred publish→durable wait is
/// the separate ack latency.
pub fn throughput_row(threads: usize, rec: &Recorder, run: &PhaseRun) -> Obj {
    let tail = |name| {
        let (_, p95, p99, _) = rec.hist(name).percentiles();
        (p95, p99)
    };
    let (get, insert, ack) = (tail("op.get_ns"), tail("op.insert_ns"), tail("op.ack_ns"));
    let p50 = |name| rec.hist(name).quantile(0.50);
    Obj::new()
        .num("threads", threads)
        .num("total_ops", run.ops)
        .num("elapsed_ns", run.elapsed_ns)
        .fixed("ops_per_sec", run.ops_per_sec(), 0)
        .num("get_p95_ns", get.0)
        .num("get_p99_ns", get.1)
        .num("insert_p95_ns", insert.0)
        .num("insert_p99_ns", insert.1)
        .num("ack_p95_ns", ack.0)
        .num("ack_p99_ns", ack.1)
        .num("wal_group_size_p50", p50("wal.group_size"))
        .num("wal_linger_p50_ns", p50("wal.linger_ns"))
        .num("txn_elr_released", run.delta("txn.elr_released"))
        .num("wal_forces", run.delta("wal.forces"))
        .num("wal_force_waiters", run.delta("wal.force_waiters"))
        .num("buf_shard_conflicts", run.delta("buf.shard_conflicts"))
}

/// One post-checkpoint log size's record in `BENCH_mttr.json`.
#[derive(Debug, Clone, Copy)]
pub struct MttrRow {
    /// Target post-checkpoint log bytes (the K axis).
    pub k_bytes: u64,
    /// Whole durable log of the crash image.
    pub log_bytes: u64,
    /// Log actually written after the checkpoint fence.
    pub post_ckpt_bytes: u64,
    /// Committed updates after the fence.
    pub updates: u64,
    /// Stop-the-world time to first op.
    pub full_replay_ns: u64,
    /// Records the stop-the-world drain redid.
    pub redone_full: u64,
    /// Instant-restart time to first op.
    pub first_op_ns: u64,
    /// Instant restart until background REDO drained.
    pub full_recovery_ns: u64,
    /// Pages in the redo plan.
    pub redo_pages: u64,
    /// Pages replayed on demand at first pin.
    pub on_demand_redos: u64,
    /// Gets served while background REDO ran.
    pub ops_during_redo: u64,
    /// Background REDO workers.
    pub workers: usize,
    /// Whether the OS page cache was dropped before each restart.
    pub cold_cache: bool,
}

impl MttrRow {
    /// The JSON record.
    pub fn json(&self) -> Obj {
        let speedup = self.full_replay_ns as f64 / self.first_op_ns.max(1) as f64;
        Obj::new()
            .fixed("k_mb", self.k_bytes as f64 / (1 << 20) as f64, 2)
            .num("log_bytes", self.log_bytes)
            .num("post_checkpoint_bytes", self.post_ckpt_bytes)
            .num("updates", self.updates)
            .num("full_replay_ns", self.full_replay_ns)
            .num("full_replay_redone", self.redone_full)
            .num("first_op_ns", self.first_op_ns)
            .fixed("ttfo_speedup", speedup, 1)
            .num("full_recovery_ns", self.full_recovery_ns)
            .num("redo_pages", self.redo_pages)
            .num("on_demand_redos", self.on_demand_redos)
            .num("ops_during_redo", self.ops_during_redo)
            .num("workers", self.workers)
            .num("cold_cache", self.cold_cache)
    }
}
