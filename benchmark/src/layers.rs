//! Per-layer numbers from the store's public `Recorder`: counter values and
//! exact `Hist::sum()`s, read as before/after deltas around the slices they
//! describe, then divided into the per-layer metrics of the traced run.

use crate::trace::{Name, Report};
use pitree::Store;
use pitree_obs::{Counter, Hist};

const COUNTERS: &[&str] = &[
    "latch.acquire_s",
    "latch.acquire_u",
    "latch.acquire_x",
    "latch.promotes",
    "latch.waits",
    "buf.hits",
    "buf.misses",
    "buf.evictions",
    "buf.dirty_evictions",
    "buf.writebacks",
    "buf.shard_conflicts",
    "wal.appends",
    "wal.forces",
    "wal.force_waiters",
    "wal.ckpt_taken",
    "lock.acquires",
    "lock.waits",
    "txn.elr_released",
    "tree.splits",
    "tree.root_grows",
    "tree.postings_done",
    "tree.postings_noop",
    "tree.consolidations",
    "tree.side_traversals",
    "tree.no_wait_restarts",
    "tree.saved_path_hits",
    "tree.saved_path_misses",
    "recovery.redo_pages",
    "recovery.on_demand_redos",
];

/// Histograms read as (sum, count).
const HISTS: &[&str] = &[
    "latch.wait_ns",
    "lock.wait_ns",
    "buf.read_ns",
    "buf.writeback_ns",
    "wal.force_ns",
    "wal.linger_ns",
    "wal.group_size",
    "wal.ckpt_ns",
    "recovery.analysis_ns",
    "recovery.redo_ns",
    "recovery.undo_ns",
];

const WIDTH: usize = COUNTERS.len() + 2 * HISTS.len() + 1;

/// Handles resolved once per store (`Recorder::counter` takes a lock).
pub struct Meter {
    counters: Vec<Counter>,
    hists: Vec<Hist>,
}

/// One reading of every handle, plus the log's tail offset.
pub struct Snap([u64; WIDTH]);

impl Meter {
    pub fn new(store: &Store) -> Meter {
        let rec = store.recorder();
        Meter {
            counters: COUNTERS.iter().map(|n| rec.counter(n)).collect(),
            hists: HISTS.iter().map(|n| rec.hist(n)).collect(),
        }
    }

    pub fn snap(&self, store: &Store) -> Snap {
        let mut v = [0u64; WIDTH];
        for (i, c) in self.counters.iter().enumerate() {
            v[i] = c.get();
        }
        for (i, h) in self.hists.iter().enumerate() {
            v[COUNTERS.len() + 2 * i] = h.sum();
            v[COUNTERS.len() + 2 * i + 1] = h.count();
        }
        v[WIDTH - 1] = store.log.tail_lsn().0;
        Snap(v)
    }
}

/// Deltas accumulated over the slices of interest.
pub struct Acc([u64; WIDTH]);

impl Acc {
    pub fn new() -> Acc {
        Acc([0; WIDTH])
    }

    pub fn add(&mut self, before: &Snap, after: &Snap) {
        for i in 0..WIDTH {
            self.0[i] += after.0[i].saturating_sub(before.0[i]);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown counter {name}"));
        self.0[i]
    }

    fn hist_index(name: &str) -> usize {
        let i = HISTS
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown hist {name}"));
        COUNTERS.len() + 2 * i
    }

    pub fn hist_sum(&self, name: &str) -> u64 {
        self.0[Acc::hist_index(name)]
    }

    pub fn hist_count(&self, name: &str) -> u64 {
        self.0[Acc::hist_index(name) + 1]
    }

    /// Bytes appended to the log.
    pub fn log_bytes(&self) -> u64 {
        self.0[WIDTH - 1]
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The metrics every workload derives the same way. `acc` holds the
/// Recorder deltas of the traced slices, `ops` the operations in them and
/// `report` the spans they recorded: per-op ratios and times come from
/// these. Structure changes are rare and bunch up early in a run, so their
/// plain counts come from `whole`, the deltas of the whole measured phase.
pub fn common_metrics(
    acc: &Acc,
    whole: &Acc,
    ops: u64,
    report: &Report,
    out: &mut Vec<(&'static str, f64)>,
) {
    let per_op = |n: u64| ratio(n, ops);
    let c = |name: &str| acc.counter(name);
    let w = |name: &str| whole.counter(name) as f64;
    let self_ns = |name: Name| report.get(name).mean_self_ns();

    // core
    out.push(("core.get.self_ns", self_ns(Name::CoreGet)));
    out.push(("core.insert.self_ns", self_ns(Name::CoreInsert)));
    out.push(("core.delete.self_ns", self_ns(Name::CoreDelete)));
    out.push(("core.scan.self_ns", self_ns(Name::CoreScan)));
    out.push(("core.begin.ns", report.get(Name::CoreBegin).mean_ns()));
    out.push(("core.pages_per_op", per_op(c("buf.hits") + c("buf.misses"))));
    out.push(("core.root_grows", w("tree.root_grows")));
    out.push(("core.postings_done", w("tree.postings_done")));
    out.push(("core.postings_noop", w("tree.postings_noop")));
    out.push(("core.consolidations", w("tree.consolidations")));
    out.push(("core.side_traversals", w("tree.side_traversals")));
    out.push(("core.no_wait_restarts", w("tree.no_wait_restarts")));
    out.push((
        "core.saved_path_hit_ratio",
        ratio(
            whole.counter("tree.saved_path_hits"),
            whole.counter("tree.saved_path_hits") + whole.counter("tree.saved_path_misses"),
        ),
    ));
    // tsbtree / hbtree
    out.push(("tsbtree.get_as_of.self_ns", self_ns(Name::TsbGetAsOf)));
    out.push(("tsbtree.put.self_ns", self_ns(Name::TsbPut)));
    out.push(("hbtree.window_query.self_ns", self_ns(Name::HbWindowQuery)));
    out.push(("hbtree.insert.self_ns", self_ns(Name::HbInsert)));
    // txnlock
    out.push((
        "txnlock.commit_publish.ns",
        report.get(Name::CommitPublish).mean_ns(),
    ));
    out.push((
        "txnlock.wait_durable.ns",
        report.get(Name::WaitDurable).mean_ns(),
    ));
    out.push(("txnlock.acquires_per_op", per_op(c("lock.acquires"))));
    out.push(("txnlock.waits", c("lock.waits") as f64));
    out.push((
        "txnlock.wait_ns_per_op",
        per_op(acc.hist_sum("lock.wait_ns")),
    ));
    out.push(("txnlock.elr_released", c("txn.elr_released") as f64));
    // wal.log
    out.push(("wal.appends_per_op", per_op(c("wal.appends"))));
    out.push(("wal.log_bytes_per_op", per_op(acc.log_bytes())));
    out.push(("wal.forces", c("wal.forces") as f64));
    out.push((
        "wal.commits_per_force",
        ratio(
            acc.hist_sum("wal.group_size"),
            acc.hist_count("wal.group_size"),
        ),
    ));
    out.push(("wal.force_ns_per_op", per_op(acc.hist_sum("wal.force_ns"))));
    out.push((
        "wal.linger_ns_per_op",
        per_op(acc.hist_sum("wal.linger_ns")),
    ));
    out.push(("wal.force_waiters", c("wal.force_waiters") as f64));
    // wal.recovery / wal.instant counters
    let ms = |name: &str| ratio(acc.hist_sum(name), acc.hist_count(name)) / 1e6;
    out.push(("recovery.analysis_ms", ms("recovery.analysis_ns")));
    out.push(("recovery.redo_ms", ms("recovery.redo_ns")));
    out.push(("recovery.undo_ms", ms("recovery.undo_ns")));
    // pagestore.buffer
    out.push((
        "buffer.hit_ratio",
        ratio(c("buf.hits"), c("buf.hits") + c("buf.misses")),
    ));
    out.push(("buffer.misses_per_op", per_op(c("buf.misses"))));
    out.push(("buffer.evictions_per_op", per_op(c("buf.evictions"))));
    out.push(("buffer.writebacks_per_op", per_op(c("buf.writebacks"))));
    out.push((
        "buffer.dirty_eviction_ratio",
        ratio(c("buf.dirty_evictions"), c("buf.evictions")),
    ));
    out.push(("buffer.read_ns_per_op", per_op(acc.hist_sum("buf.read_ns"))));
    out.push((
        "buffer.writeback_ns_per_op",
        per_op(acc.hist_sum("buf.writeback_ns")),
    ));
    out.push(("buffer.shard_conflicts", c("buf.shard_conflicts") as f64));
    // pagestore.latch
    let acquires = c("latch.acquire_s") + c("latch.acquire_u") + c("latch.acquire_x");
    out.push(("latch.acquires_per_op", per_op(acquires)));
    out.push(("latch.x_per_op", per_op(c("latch.acquire_x"))));
    out.push(("latch.promotes_per_op", per_op(c("latch.promotes"))));
    out.push(("latch.waits", c("latch.waits") as f64));
    out.push((
        "latch.wait_ns_per_op",
        per_op(acc.hist_sum("latch.wait_ns")),
    ));
    // devices
    let (rd, wr, sy) = (
        report.get(Name::DiskRead),
        report.get(Name::DiskWrite),
        report.get(Name::DiskSync),
    );
    out.push(("disk.reads_per_op", per_op(rd.count)));
    out.push(("disk.read_ns_per_op", per_op(rd.total_ns)));
    out.push(("disk.writes_per_op", per_op(wr.count)));
    out.push(("disk.write_ns_per_op", per_op(wr.total_ns)));
    out.push(("disk.syncs", sy.count as f64));
    out.push(("disk.sync_ns", sy.mean_ns()));
    let (ap, rr) = (report.get(Name::LogAppend), report.get(Name::LogReadRange));
    out.push(("logstore.appends_per_op", per_op(ap.count)));
    out.push(("logstore.append_ns_per_op", per_op(ap.total_ns)));
    out.push((
        "logstore.bytes_per_append",
        ratio(report.append_bytes, ap.count),
    ));
    out.push(("logstore.read_range_ns", rr.mean_ns()));
    // trace shares, over the total duration of the op.* spans; they
    // overlap (a log append sits inside an ack wait or a tree call)
    let op_total = report.op_total_ns();
    let share = |ns: u64| ratio(ns, op_total);
    let tree_self = report
        .sum(|n| n.starts_with("core.") || n.starts_with("tsbtree.") || n.starts_with("hbtree."))
        .self_ns;
    let device = report
        .sum(|n| n.starts_with("disk.") || n.starts_with("logstore."))
        .total_ns;
    out.push(("trace.spans", report.spans() as f64));
    out.push(("trace.core_self_share", share(tree_self)));
    out.push(("trace.device_share", share(device)));
    out.push((
        "trace.ack_wait_share",
        share(report.get(Name::WaitDurable).total_ns),
    ));
    // What the store's own wait/I-O timers cannot explain of the op time.
    // A WAL-hook force is inside both buf.writeback_ns and wal.force_ns, so
    // the explained part can over-count; the share is floored at 0.
    let explained = acc.hist_sum("buf.read_ns")
        + acc.hist_sum("buf.writeback_ns")
        + acc.hist_sum("wal.force_ns")
        + acc.hist_sum("lock.wait_ns")
        + acc.hist_sum("latch.wait_ns");
    out.push((
        "trace.unattributed_share",
        share(op_total.saturating_sub(explained)),
    ));
}
