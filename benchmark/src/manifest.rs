//! The benchmark's declaration: workload names, metric names, units,
//! directions and regression bounds — the single table both the output
//! and `BENCHMARK.json` are generated from, so the two cannot drift
//! (`tests/smoke.rs` asserts the committed file equals [`benchmark_json`]).

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// A workload: its normative name and one line of why it exists.
pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "load_seq",
        why: "sequential-key inserts (+10% reads of the newest keys) into an empty tree: the SMO workload - splits, postings, root growth and the highest log volume per user byte; pool holds everything",
    },
    WorkloadDecl {
        name: "read_hot",
        why: "100% zipf gets with pool >= image, warmed: pure descent + latch + in-page search CPU; wal, txnlock and disk idle - the bypass workload for every I/O or commit-path change",
    },
    WorkloadDecl {
        name: "read_cold",
        why: "90% get / 10% scan(100), zipf, pool ~2% of the image: clean evictions only, so the buffer miss path, disk reads and the leaf-chain walk dominate the same read code",
    },
    WorkloadDecl {
        name: "ycsb_a",
        why: "50% get / 50% upsert, zipf, same small pool: dirty evictions put a WAL-hook force + page write on the op path of reads and writes alike - the write-path target",
    },
    WorkloadDecl {
        name: "hot_storm",
        why: "45% insert / 45% delete / 10% get in a 512-key band that fits the pool: zero evictions, so log append/force, locks, X-latches and split/consolidate churn remain",
    },
    WorkloadDecl {
        name: "restart",
        why: "crash image + post-checkpoint update log, recovered repeatedly by stop-the-world replay and by instant restart with background redo; every acked commit re-read after each recovery",
    },
    WorkloadDecl {
        name: "multi_struct",
        why: "one store hosting a TSB-tree and an hB-tree behind one pool, WAL and lock table: as-of reads/puts alternate with window queries/inserts - one protocol, a family of structures",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric: name, unit, direction; `bound` only for end-to-end metrics.
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: every one is reported, and is never 0, on every
/// workload. A bound is three times the widest spread ten seeds showed on
/// any workload, rounded up, or the issue's bound where that is wider. No
/// latency and no rate is among them: on this shared host every one spreads
/// past the contract's largest bound, so by the issue's rule they are
/// [`PER_LAYER`] metrics (README.md has the spreads and the reasons).
pub const END_TO_END: &[MetricDecl] = &[
    e2e("db_bytes_per_user_byte", "ratio", Lower, 0.04),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.12),
];

/// Per-layer (diagnostic, unbounded) metrics of the traced run. A metric
/// that does not apply to a workload is reported as 0 there.
pub const PER_LAYER: &[MetricDecl] = &[
    // End-to-end names that follow the shared host (every rate and latency)
    // or exist on some workloads only (0 elsewhere), so they cannot carry a
    // bound.
    layer("ops_per_s", "1/s", Higher),
    layer("get_p50_us", "us", Lower),
    layer("get_p99_us", "us", Lower),
    layer("op_p50_us", "us", Lower),
    layer("op_p99_us", "us", Lower),
    layer("write_p50_us", "us", Lower),
    layer("write_p99_us", "us", Lower),
    layer("ack_p99_us", "us", Lower),
    layer("scan_p50_us", "us", Lower),
    layer("ttfo_ms", "ms", Lower),
    layer("replay_ms", "ms", Lower),
    layer("drain_ms", "ms", Lower),
    layer("log_bytes_per_user_byte", "ratio", Lower),
    layer("page_bytes_per_user_byte", "ratio", Lower),
    layer("failed_ops_pct", "%", Lower),
    // core
    layer("core.get.self_ns", "ns", Lower),
    layer("core.insert.self_ns", "ns", Lower),
    layer("core.delete.self_ns", "ns", Lower),
    layer("core.scan.self_ns", "ns", Lower),
    layer("core.begin.ns", "ns", Lower),
    layer("core.pages_per_op", "count", Lower),
    layer("core.allocs_per_get", "count", Lower),
    layer("core.allocs_per_write", "count", Lower),
    layer("core.splits", "count", Lower),
    layer("core.root_grows", "count", Lower),
    layer("core.postings_done", "count", Lower),
    layer("core.postings_noop", "count", Lower),
    layer("core.consolidations", "count", Lower),
    layer("core.side_traversals", "count", Lower),
    layer("core.no_wait_restarts", "count", Lower),
    layer("core.saved_path_hit_ratio", "ratio", Higher),
    // tsbtree / hbtree
    layer("tsbtree.get_as_of.self_ns", "ns", Lower),
    layer("tsbtree.put.self_ns", "ns", Lower),
    layer("tsbtree.splits", "count", Lower),
    layer("hbtree.window_query.self_ns", "ns", Lower),
    layer("hbtree.insert.self_ns", "ns", Lower),
    layer("hbtree.splits", "count", Lower),
    layer("hbtree.results_per_window", "count", Higher),
    // txnlock
    layer("txnlock.commit_publish.ns", "ns", Lower),
    layer("txnlock.wait_durable.ns", "ns", Lower),
    layer("txnlock.acquires_per_op", "count", Lower),
    layer("txnlock.waits", "count", Lower),
    layer("txnlock.wait_ns_per_op", "ns", Lower),
    layer("txnlock.deadlock_retries", "count", Lower),
    layer("txnlock.elr_released", "count", Higher),
    layer("probe.txnlock.acquire_release_ns", "ns", Lower),
    // wal.log
    layer("wal.appends_per_op", "count", Lower),
    layer("wal.log_bytes_per_op", "B", Lower),
    layer("wal.forces", "count", Lower),
    layer("wal.commits_per_force", "count", Higher),
    layer("wal.force_ns_per_op", "ns", Lower),
    layer("wal.linger_ns_per_op", "ns", Lower),
    layer("wal.force_waiters", "count", Lower),
    layer("wal.checkpoints", "count", Lower),
    layer("wal.ckpt_ns", "ns", Lower),
    layer("probe.wal.append_ns", "ns", Lower),
    layer("probe.wal.force_ns", "ns", Lower),
    // wal.recovery
    layer("recovery.analysis_ms", "ms", Lower),
    layer("recovery.redo_ms", "ms", Lower),
    layer("recovery.undo_ms", "ms", Lower),
    layer("recovery.redone_records", "count", Lower),
    // wal.instant
    layer("instant.open_ms", "ms", Lower),
    layer("instant.redo_pages", "count", Lower),
    layer("instant.on_demand_redos", "count", Lower),
    layer("instant.drain_ms", "ms", Lower),
    layer("instant.ops_during_drain", "count", Higher),
    // pagestore.buffer
    layer("buffer.hit_ratio", "ratio", Higher),
    layer("buffer.misses_per_op", "count", Lower),
    layer("buffer.evictions_per_op", "count", Lower),
    layer("buffer.writebacks_per_op", "count", Lower),
    layer("buffer.dirty_eviction_ratio", "ratio", Lower),
    layer("buffer.read_ns_per_op", "ns", Lower),
    layer("buffer.writeback_ns_per_op", "ns", Lower),
    layer("buffer.shard_conflicts", "count", Lower),
    layer("buffer.flush_all_ms", "ms", Lower),
    layer("probe.buffer.fetch_hit_ns", "ns", Lower),
    layer("probe.buffer.fetch_miss_ns", "ns", Lower),
    // pagestore.latch
    layer("latch.acquires_per_op", "count", Lower),
    layer("latch.x_per_op", "count", Lower),
    layer("latch.promotes_per_op", "count", Lower),
    layer("latch.waits", "count", Lower),
    layer("latch.wait_ns_per_op", "ns", Lower),
    layer("probe.latch.s_ns", "ns", Lower),
    layer("probe.latch.x_ns", "ns", Lower),
    // pagestore.page
    layer("probe.page.keyed_lookup_ns", "ns", Lower),
    // pagestore.disk / wal.logstore (device decorators)
    layer("disk.reads_per_op", "count", Lower),
    layer("disk.read_ns_per_op", "ns", Lower),
    layer("disk.writes_per_op", "count", Lower),
    layer("disk.write_ns_per_op", "ns", Lower),
    layer("disk.syncs", "count", Lower),
    layer("disk.sync_ns", "ns", Lower),
    layer("logstore.appends_per_op", "count", Lower),
    layer("logstore.append_ns_per_op", "ns", Lower),
    layer("logstore.bytes_per_append", "B", Higher),
    layer("logstore.read_range_ns", "ns", Lower),
    // trace / harness: how far the other numbers can be trusted
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.core_self_share", "ratio", Lower),
    layer("trace.device_share", "ratio", Lower),
    layer("trace.ack_wait_share", "ratio", Lower),
    layer("trace.unattributed_share", "ratio", Lower),
    layer("harness.gen_ns_per_op", "ns", Lower),
    layer("harness.timer_ns", "ns", Lower),
];

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

fn json_str_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let metric = |m: &MetricDecl, bound: bool| {
        let bound = if bound {
            format!(", \"bound\": {}", m.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let end_to_end: Vec<String> = END_TO_END.iter().map(|m| metric(m, true)).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|m| metric(m, false)).collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        json_str_list(COMMAND),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}
