//! The million-key scenario harness (EXPERIMENTS.md S7): every scenario
//! in [`pitree_harness::scenario::matrix`] run at full scale — ≥ 1M
//! preloaded keys over a **file-backed** store with the buffer pool
//! capped at ~1% of the data — against the engines it compares
//! (Π-tree, lock-coupling baseline, TSB-tree, hB-tree), with a
//! deterministic scaled-down twin of the same workload shape gated by
//! pitree-check's differential and durability oracles under 8 seeds.
//!
//! Per scenario the bin emits a versioned `BENCH_scenario_<name>.json`
//! with one record per engine — durable ops/s, p50/p95/p99 op latency
//! (from `pitree-obs`), pool pressure (`buf.evictions` /
//! `buf.writebacks` / hit ratio / `buf.shard_conflicts`), WAL behavior
//! (`wal.forces`, `wal.group_size` p50), and SMO counts — plus an
//! `oracle_twin` block recording the seeds and crash points the twin
//! sweeps covered. The `throughput` row (S4/S5) runs the Π-tree alone at
//! 1/4/8 worker threads and is written as `BENCH_throughput.json`. A twin
//! failure fails the whole run (exit 1) *after* writing the JSON, so CI
//! sees both the numbers and the verdict.
//!
//! Methodology (the machinery is [`pitree_harness::driver`]; this file is
//! the five engines' openers and op closures):
//!
//! - The Π-tree/TSB/hB images are built **once** per tree shape (big
//!   load pool, pipelined commits, flush + fuzzy checkpoint fence) and
//!   copied per phase, so phases are independent and every measured
//!   phase starts by recovering the same durable image.
//! - Measured pools are `max(64, data_pages / 128)` frames ≈ 0.78% of
//!   the data (the JSON records the exact `pool_pct`), so eviction,
//!   write-back, and I/O scheduling are live in every measured op. The
//!   `throughput` row instead holds its whole image in the pool: there
//!   the log force is the shared resource under test.
//! - The lock-coupling row recovers a copy of the Π-tree's image — the
//!   baselines run on the same B-link pages, pool and WAL — and drives it
//!   through `Baseline::over`: same pool size, same range scans.
//! - Writes on the Π-tree are pipelined publish/ack commits (depth 8);
//!   every published commit is acked before the clock stops, so ops/s
//!   is durable throughput. The lock-coupling row's writes each commit one
//!   forced transaction before the next op starts (pipeline depth 1): its
//!   ops/s is durable throughput too.
//!
//! `--smoke` shrinks the population and deadlines so CI can gate the
//! matrix (JSON shape + twin verdicts) in seconds; `--only NAME` runs a
//! single scenario; `--out-dir DIR` redirects the JSON files.
//!
//! Run with: `cargo run --release -p pitree-harness --bin scenarios`

use pitree::{PiTree, PiTreeConfig, Store};
use pitree_baselines::{Baseline, ConcurrentIndex, Protocol};
use pitree_check::differential_twin;
use pitree_harness::driver::{
    commit, copy_image, data_pages, engine_row, fence, key_bytes, load, publish, run_phase,
    scaled_pool, throughput_row, Cli, Done, Obj, OpKind, PhaseRun, PhaseSpec, LOAD_POOL_FRAMES,
    PIPELINE_DEPTH,
};
use pitree_harness::scenario::{hb_twin, matrix, tsb_twin, twin_ops};
use pitree_harness::{EngineSet, KeyStream, MixOp, Population, ScenarioSpec};
use pitree_hb::{point_key, HbConfig, HbTree, Point, Rect};
use pitree_obs::{Recorder, Stopwatch};
use pitree_sim::{crash::sweep_script, SimRng, SweepConfig};
use pitree_tsb::{Time, TsbConfig, TsbTree};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// JSON schema version of `BENCH_scenario_*.json`.
const VERSION: u32 = 1;

/// Page capacity of every image's space map.
const MAX_PAGES: u64 = 1 << 22;

struct Config {
    load_keys: u64,
    value_len: usize,
    ops_target: u64,
    deadline_ns: u64,
    twin_seeds: u64,
    twin_ops: usize,
    twin_domain: u64,
    /// Attribute-space side for the 2-attribute scenario.
    hb_side: u64,
    /// The `throughput` row: its half-dense population (the 50% hit rate
    /// is part of the row's definition), ops per worker, a pool that holds
    /// the whole image, and the most worker threads it is run at.
    scaling_pop: Population,
    scaling_ops: u64,
    scaling_pool: usize,
    max_threads: usize,
}

impl Config {
    fn full() -> Config {
        Config {
            load_keys: 1_000_000,
            value_len: 16,
            ops_target: 40_000,
            deadline_ns: 25_000_000_000,
            twin_seeds: 8,
            twin_ops: 120,
            twin_domain: 96,
            hb_side: 4_096,
            scaling_pop: Population::sparse(2_000, 4_000),
            scaling_ops: 2_000,
            scaling_pool: 256,
            max_threads: 8,
        }
    }

    fn smoke() -> Config {
        Config {
            load_keys: 3_000,
            ops_target: 1_000,
            deadline_ns: 3_000_000_000,
            twin_ops: 100,
            twin_domain: 64,
            hb_side: 64,
            scaling_pop: Population::sparse(100, 200),
            scaling_ops: 150,
            scaling_pool: 64,
            max_threads: 4,
            ..Config::full()
        }
    }
}

fn value_bytes(k: u64, len: usize) -> Vec<u8> {
    let mut v = vec![b'v'; len.max(8)];
    v[..8].copy_from_slice(&k.to_be_bytes());
    v
}

/// The i-th point of the deterministic 2-attribute population — the hB
/// image and its Π-tree composite-key strawman hold the same point set.
fn point_for(i: u64, side: u64) -> Point {
    let mut s = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x2a77;
    let x = pitree_sim::rng::splitmix64(&mut s) % side;
    let y = pitree_sim::rng::splitmix64(&mut s) % side;
    [x, y]
}

// ---- images ----------------------------------------------------------------

#[derive(Clone)]
struct Image {
    dir: PathBuf,
    pages: u64,
    t_past: Time,
}

/// Load `engine`'s tree shape with `keys` records through the commit
/// pipeline into a fresh store in `dir`, then fence it.
fn build_image(dir: PathBuf, engine: Engine, keys: u64, cfg: &Config) -> Image {
    let t0 = Stopwatch::start();
    let store = Store::open_file(&dir, LOAD_POOL_FRAMES, MAX_PAGES).expect("load store");
    let value = |k| value_bytes(k, cfg.value_len);
    let mut t_past = 0;
    let rec = store.recorder();
    match engine {
        Engine::Pi | Engine::Lc | Engine::PiXy => {
            let tree = PiTree::create(Arc::clone(&store), 1, PiTreeConfig::default()).expect("pi");
            load(rec, 0..keys, |k| {
                let key = match engine {
                    Engine::PiXy => point_key(&point_for(k, cfg.hb_side)),
                    _ => key_bytes(k).to_vec(),
                };
                publish(&tree, |t| tree.insert(t, &key, &value(k)))
            });
        }
        // Version 0 of every key, a time fence `t_past`, then a 10% update
        // wave — so as-of reads at `t_past` traverse history.
        Engine::Tsb => {
            let tree = TsbTree::create(Arc::clone(&store), 1, TsbConfig::default()).expect("tsb");
            let put = |k, v| publish(&tree, |t| tree.put(t, &key_bytes(k), &value(v)));
            load(rec, 0..keys, |k| put(k, k));
            t_past = tree.now();
            load(rec, (0..keys).step_by(10), |k| put(k, k + 1));
        }
        Engine::Hb => {
            let tree = HbTree::create(Arc::clone(&store), 1, HbConfig::default()).expect("hb");
            let point = |k| point_for(k, cfg.hb_side);
            load(rec, 0..keys, |k| {
                publish(&tree, |t| tree.insert(t, &point(k), &value(k)))
            });
        }
    }
    fence(&store);
    drop(store);
    let pages = data_pages(&dir);
    let (name, ms) = (engine.name(), t0.elapsed_ns() / 1_000_000);
    eprintln!("image {name}: {keys} keys, {pages} pages, {ms} ms");
    Image { dir, pages, t_past }
}

// ---- engines: five openers, five op closures ---------------------------------

/// An engine of a scenario's line-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Engine {
    /// Π-tree over 8-byte keys.
    Pi,
    /// Lock-coupling baseline over a Π-tree image.
    Lc,
    Tsb,
    Hb,
    /// Π-tree over the concatenated `(x, y)` key of the point population.
    PiXy,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Pi => "pi-tree",
            Engine::Lc => "lock-coupling",
            Engine::Tsb => "tsb-tree",
            Engine::Hb => "hb-tree",
            Engine::PiXy => "pi-tree-xy",
        }
    }

    /// The engine whose image this one opens: the baseline runs on the
    /// Π-tree's pages.
    fn image(self) -> Engine {
        match self {
            Engine::Lc => Engine::Pi,
            e => e,
        }
    }
}

/// One measured phase: the scenario, its sizes, and where it runs.
struct Cx<'a> {
    mode: &'static str,
    cfg: &'a Config,
    spec: &'a ScenarioSpec,
    pop: Population,
    phase: PhaseSpec,
    /// Scratch directory the phase's image copy lives in.
    dir: &'a Path,
}

/// Copy `img` into the phase's directory and reopen it at `pool` frames.
fn reopen(img: &Image, pool: usize, cx: &Cx<'_>) -> (Arc<Store>, Recorder) {
    let _ = std::fs::remove_dir_all(cx.dir);
    copy_image(&img.dir, cx.dir);
    let store = Store::open_file(cx.dir, pool, MAX_PAGES).expect("reopen image copy");
    let rec = store.recorder().clone();
    (store, rec)
}

/// Open `engine` recovered over a copy of `img` at `pool` frames and run
/// the scenario's measured phase on it. Returns the phase with the
/// recorder that holds its histograms.
fn measure(engine: Engine, img: &Image, pool: usize, cx: &Cx<'_>) -> (Recorder, PhaseRun) {
    let phase = &cx.phase;
    match engine {
        Engine::Pi | Engine::Lc | Engine::PiXy => {
            let (store, rec) = reopen(img, pool, cx);
            let tree = PiTree::recover(store, 1, PiTreeConfig::default())
                .expect("recover")
                .0;
            let run = match engine {
                Engine::Pi => run_phase(&rec, phase, || pi_ops(&tree, cx)),
                Engine::Lc => {
                    let lc = Baseline::over(tree, Protocol::LockCoupling);
                    run_phase(&rec, phase, || lc_ops(&lc, cx))
                }
                _ => run_phase(&rec, phase, || pi_xy_ops(&tree, cx)),
            };
            (rec, run)
        }
        Engine::Tsb => {
            let (store, rec) = reopen(img, pool, cx);
            let tree = TsbTree::recover(store, 1, TsbConfig::default())
                .expect("recover")
                .0;
            let run = run_phase(&rec, phase, || tsb_ops(&tree, img.t_past, cx));
            (rec, run)
        }
        Engine::Hb => {
            let (store, rec) = reopen(img, pool, cx);
            let tree = HbTree::recover(store, 1, HbConfig::default())
                .expect("recover")
                .0;
            let run = run_phase(&rec, phase, || hb_ops(&tree, cx));
            (rec, run)
        }
    }
}

/// Π-tree: the point/scan mix with pipelined write commits.
fn pi_ops<'t>(tree: &'t PiTree, cx: &'t Cx<'_>) -> impl FnMut(&mut SimRng) -> Done<'t> {
    let (mix, value_len) = (cx.spec.mix, cx.cfg.value_len);
    let mut stream = KeyStream::new(cx.spec.access, cx.pop.key_space, cx.pop.load_keys);
    move |rng| match mix.draw(&mut stream, rng) {
        MixOp::Get(k) => {
            let _ = tree.get_unlocked(&key_bytes(k)).expect("get");
            (OpKind::Get, None)
        }
        MixOp::Insert(k) => {
            let (key, value) = (key_bytes(k), value_bytes(k, value_len));
            let commit = publish(tree, |t| tree.insert(t, &key, &value));
            (OpKind::Insert, Some(commit))
        }
        MixOp::Delete(k) => {
            let commit = publish(tree, |t| tree.delete(t, &key_bytes(k)));
            (OpKind::Delete, Some(commit))
        }
        MixOp::Scan(lo) => {
            let hi = key_bytes(lo + mix.scan_len);
            let _ = tree.scan(&key_bytes(lo), &hi).expect("scan");
            (OpKind::Scan, None)
        }
    }
}

/// Lock-coupling baseline: the same mix; every write commits (forced)
/// inside the op.
fn lc_ops<'t>(lc: &'t Baseline, cx: &'t Cx<'_>) -> impl FnMut(&mut SimRng) -> Done<'t> {
    let (mix, value_len) = (cx.spec.mix, cx.cfg.value_len);
    let mut stream = KeyStream::new(cx.spec.access, cx.pop.key_space, cx.pop.load_keys);
    move |rng| match mix.draw(&mut stream, rng) {
        MixOp::Get(k) => {
            let _ = lc.get(&key_bytes(k));
            (OpKind::Get, None)
        }
        MixOp::Insert(k) => {
            lc.insert(&key_bytes(k), &value_bytes(k, value_len));
            (OpKind::Insert, None)
        }
        MixOp::Delete(k) => {
            let _ = lc.delete(&key_bytes(k));
            (OpKind::Delete, None)
        }
        MixOp::Scan(lo) => {
            let _ = lc.scan(&key_bytes(lo), &key_bytes(lo + mix.scan_len));
            (OpKind::Scan, None)
        }
    }
}

/// TSB-tree: as-of reads/scans split between the historical fence and
/// now, forced-commit puts. (The as-of pick sits between the mix roll and
/// the key draw, so this engine keeps its own draw order.)
fn tsb_ops<'t>(
    tree: &'t TsbTree,
    t_past: Time,
    cx: &'t Cx<'_>,
) -> impl FnMut(&mut SimRng) -> Done<'t> {
    let (m, value_len) = (cx.spec.mix, cx.cfg.value_len);
    let mut stream = KeyStream::new(cx.spec.access, cx.pop.key_space, cx.pop.load_keys);
    move |rng| {
        let roll = rng.below(100) as u32;
        let as_of = if rng.chance(0.5) { t_past } else { tree.now() };
        if roll < m.get {
            let k = stream.next_existing(rng);
            let _ = tree.get_as_of(&key_bytes(k), as_of).expect("as-of get");
            (OpKind::Get, None)
        } else if roll < m.get + m.insert {
            let k = stream.next(rng);
            let (key, value) = (key_bytes(k), value_bytes(k, value_len));
            commit(tree, |t| tree.put(t, &key, &value));
            (OpKind::Insert, None)
        } else {
            let lo = stream.next_existing(rng);
            let hi = key_bytes(lo + m.scan_len);
            let _ = tree.scan_as_of(&key_bytes(lo), &hi, as_of).expect("scan");
            (OpKind::Scan, None)
        }
    }
}

/// One draw of the 2-attribute mix.
enum XyOp {
    /// A new point and the seed of its value.
    Insert(Point, u64),
    Window(Rect),
}

/// The 2-attribute op stream: point inserts past the preloaded
/// population, square window queries of edge `scan_len`.
fn xy_stream(cx: &Cx<'_>) -> impl FnMut(&mut SimRng) -> XyOp {
    let insert_pct = cx.spec.mix.insert;
    let edge = cx.spec.mix.scan_len.max(1);
    let side = cx.cfg.hb_side;
    let mut next_new = cx.pop.load_keys;
    move |rng| {
        if (rng.below(100) as u32) < insert_pct {
            let p = point_for(next_new, side);
            next_new += 1;
            XyOp::Insert(p, next_new)
        } else {
            let span = side.saturating_sub(edge).max(1);
            let lo = [rng.below(span), rng.below(span)];
            let hi = [lo[0] + edge, lo[1] + edge];
            XyOp::Window(Rect { lo, hi })
        }
    }
}

/// hB-tree: true 2-attribute window queries plus forced-commit inserts.
fn hb_ops<'t>(tree: &'t HbTree, cx: &'t Cx<'_>) -> impl FnMut(&mut SimRng) -> Done<'t> {
    let mut next = xy_stream(cx);
    let value_len = cx.cfg.value_len;
    move |rng| match next(rng) {
        XyOp::Insert(p, v) => {
            let value = value_bytes(v, value_len);
            commit(tree, |t| tree.insert(t, &p, &value));
            (OpKind::Insert, None)
        }
        XyOp::Window(w) => {
            let _ = tree.window_query(&w).expect("window query");
            (OpKind::Scan, None)
        }
    }
}

/// The multi-attribute strawman: a Π-tree over the concatenated `(x, y)`
/// key answers a window query by scanning the whole x-slab and filtering
/// y — exactly the composite-index weakness the hB-tree removes.
fn pi_xy_ops<'t>(tree: &'t PiTree, cx: &'t Cx<'_>) -> impl FnMut(&mut SimRng) -> Done<'t> {
    let mut next = xy_stream(cx);
    let value_len = cx.cfg.value_len;
    move |rng| match next(rng) {
        XyOp::Insert(p, v) => {
            let (key, value) = (point_key(&p), value_bytes(v, value_len));
            let commit = publish(tree, |t| tree.insert(t, &key, &value));
            (OpKind::Insert, Some(commit))
        }
        XyOp::Window(w) => {
            // Scan the full x-slab [x_lo, x_hi) × all y, filter y.
            let (from, to) = (point_key(&[w.lo[0], 0]), point_key(&[w.hi[0], 0]));
            let slab = tree.scan(&from, &to).expect("slab scan");
            let in_y = |k: &[u8]| {
                let y = u64::from_be_bytes(k[8..16].try_into().expect("16-byte key"));
                y >= w.lo[1] && y < w.hi[1]
            };
            let _hits = slab.iter().filter(|(k, _)| in_y(k)).count();
            (OpKind::Scan, None)
        }
    }
}

// ---- oracle twins ----------------------------------------------------------

/// Run every oracle twin for a scenario across the seed battery; the
/// `oracle_twin` block on success. The first failure aborts with a
/// replayable description.
fn run_twins(spec: &ScenarioSpec, base_seed: u64, cfg: &Config) -> Result<Obj, String> {
    let dur_cfg = SweepConfig {
        max_crash_points: 6,
        ..SweepConfig::default()
    };
    let (mut diff_ops, mut fault_points, mut crash_points) = (0usize, 0u64, 0usize);
    let mut engine_twin = "none";
    for s in 0..cfg.twin_seeds {
        let seed = base_seed ^ (s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let ops = twin_ops(spec, seed, cfg.twin_ops, cfg.twin_domain);
        let diff = differential_twin(&ops, seed).map_err(|v| v.to_string())?;
        diff_ops += diff.ops;
        let dur = sweep_script(&ops, seed, &dur_cfg).map_err(|v| v.to_string())?;
        fault_points += dur.window.1;
        crash_points += dur.points.len();
        match spec.engines {
            EngineSet::Temporal => {
                tsb_twin(seed)?;
                engine_twin = "tsb";
            }
            EngineSet::MultiAttr => {
                hb_twin(seed)?;
                engine_twin = "hb";
            }
            EngineSet::PointVsBaselines | EngineSet::PiScaling { .. } => {}
        }
    }
    Ok(Obj::new()
        .text("status", "pass")
        .num("seeds", cfg.twin_seeds)
        .num("differential_ops", diff_ops)
        .num("durability_fault_points", fault_points)
        .num("durability_crash_points", crash_points)
        .text("engine_twin", engine_twin))
}

// ---- orchestration ---------------------------------------------------------

/// `BENCH_scenario_<name>.json`.
fn scenario_doc(cx: &Cx<'_>, pool_frames: usize, pages: u64, rows: &[Obj], twin: Obj) -> Obj {
    let (spec, cfg) = (cx.spec, cx.cfg);
    let config = Obj::new()
        .num("load_keys", cx.pop.load_keys)
        .num("key_space", cx.pop.key_space)
        .num("value_len", cfg.value_len)
        .num("pool_frames", pool_frames)
        .num("data_pages", pages)
        .fixed(
            "pool_pct",
            pool_frames as f64 * 100.0 / pages.max(1) as f64,
            2,
        )
        .num("ops_target", cfg.ops_target)
        .num("deadline_ns", cfg.deadline_ns)
        .text("mix", &spec.mix.describe())
        .text("access", &spec.access.describe())
        .num("pipeline_depth", PIPELINE_DEPTH);
    Obj::new()
        .text("bench", "scenario")
        .text("scenario", spec.name)
        .num("version", VERSION)
        .text("mode", cx.mode)
        .text("what", spec.what)
        .obj("config", config)
        .rows("engines", rows)
        .obj("oracle_twin", twin)
}

/// `BENCH_throughput.json`.
fn throughput_doc(cx: &Cx<'_>, pool_frames: usize, rows: &[Obj]) -> Obj {
    let config = Obj::new()
        .num("pool_frames", pool_frames)
        .num("load_keys", cx.pop.load_keys)
        .num("ops_per_thread", cx.phase.ops_target)
        .num("key_space", cx.pop.key_space)
        .fixed("hit_fraction", cx.pop.hit_fraction(), 2)
        .num("pipeline_depth", PIPELINE_DEPTH)
        .text("mix", &cx.spec.mix.describe());
    Obj::new()
        .text("bench", "throughput")
        .text("mode", cx.mode)
        .obj("config", config)
        .rows("runs", rows)
}

fn main() {
    let cli = Cli::from_env("scenarios", &["--smoke", "--out-dir DIR", "--only NAME"]);
    let (mode, cfg) = cli.mode(Config::full(), Config::smoke());
    let out_dir = PathBuf::from(cli.value("--out-dir").unwrap_or("."));
    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let scratch = std::env::temp_dir().join(format!("pitree-scenarios-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch");

    let specs: Vec<_> = matrix()
        .into_iter()
        .filter(|s| cli.value("--only").is_none_or(|n| n == s.name))
        .collect();
    if specs.is_empty() {
        eprintln!("scenarios: no scenario matches --only (see scenario::matrix)");
        std::process::exit(2);
    }

    // Each tree shape's image is built once, when a scenario first needs it.
    let mut images: HashMap<(Engine, u64), Image> = HashMap::new();
    let mut failures = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let seed = 0x5c3a_0000 ^ (i as u64) << 8;
        let run_dir = scratch.join(format!("run-{}", spec.name));
        let (lineup, thread_counts): (&[Engine], &[usize]) = match spec.engines {
            EngineSet::PointVsBaselines => (&[Engine::Pi, Engine::Lc], &[1]),
            EngineSet::Temporal => (&[Engine::Tsb, Engine::Pi, Engine::Lc], &[1]),
            EngineSet::MultiAttr => (&[Engine::Hb, Engine::PiXy], &[1]),
            EngineSet::PiScaling { threads } => (&[Engine::Pi], threads),
        };
        let scaling = matches!(spec.engines, EngineSet::PiScaling { .. });
        let (pop, ops_target) = if scaling {
            (cfg.scaling_pop, cfg.scaling_ops)
        } else {
            (Population::dense(cfg.load_keys), cfg.ops_target)
        };
        let mut cx = Cx {
            mode,
            cfg: &cfg,
            spec,
            pop,
            phase: PhaseSpec {
                ops_target,
                deadline_ns: cfg.deadline_ns,
                threads: 1,
                seed,
            },
            dir: &run_dir,
        };
        // Each engine's pool is ≤ 1% of its own image; the scaling row's
        // pool holds its image whole.
        let mut sized = |engine: Engine| {
            let engine = engine.image();
            let dir = scratch.join(format!("img-{}-{}", engine.name(), pop.load_keys));
            let build = || build_image(dir, engine, pop.load_keys, &cfg);
            let img = images.entry((engine, pop.load_keys)).or_insert_with(build);
            let pool = if scaling {
                cfg.scaling_pool
            } else {
                scaled_pool(img.pages)
            };
            (img.clone(), pool)
        };
        let (lead, lead_pool) = sized(lineup[0]);

        let mut rows = Vec::new();
        for &threads in thread_counts.iter().filter(|t| **t <= cfg.max_threads) {
            cx.phase.threads = threads;
            for &engine in lineup {
                let (img, pool) = sized(engine);
                let (rec, run) = measure(engine, &img, pool, &cx);
                let row = if scaling {
                    throughput_row(threads, &rec, &run)
                } else {
                    engine_row(engine.name(), &rec, &run)
                };
                eprintln!("{:<12} {}", spec.name, row.inline());
                rows.push(row);
            }
        }
        let _ = std::fs::remove_dir_all(&run_dir);

        let twin = run_twins(spec, seed, &cfg);
        let (file, doc) = if scaling {
            (
                "BENCH_throughput.json".to_string(),
                throughput_doc(&cx, lead_pool, &rows),
            )
        } else {
            let verdict = twin
                .clone()
                .unwrap_or_else(|e| Obj::new().text("status", "fail").text("detail", &e));
            (
                format!("BENCH_scenario_{}.json", spec.name.replace('-', "_")),
                scenario_doc(&cx, lead_pool, lead.pages, &rows, verdict),
            )
        };
        let path = out_dir.join(file);
        std::fs::write(&path, doc.document()).expect("write bench json");
        let verdict = if twin.is_ok() { "pass" } else { "FAIL" };
        eprintln!("{:<12} twin {verdict} -> {}", spec.name, path.display());
        if let Err(e) = twin {
            failures.push(format!("{}: {e}", spec.name));
        }
    }

    let _ = std::fs::remove_dir_all(&scratch);
    if !failures.is_empty() {
        eprintln!("oracle twin failures:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
