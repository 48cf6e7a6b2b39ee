//! The five single-Π-tree workloads: `load_seq`, `read_hot`, `read_cold`,
//! `ycsb_a`, `hot_storm`. One client loop, five (mix, access, pool, start
//! state) rows.

use crate::alloc;
use crate::image::{self, key_bytes, value_bytes, RECORD_BYTES};
use crate::layers::common_metrics;
use crate::ops::{remove, upsert, Pipeline};
use crate::run::{
    build_image, finish_trace, open_store, peak_rss_mb, repeat_setup, Args, Client, Latencies,
    Outcome, StoreMeter, FLUSH_POLICY,
};
use crate::trace::{span, Name};
use pitree::{PiTree, PiTreeConfig, Store};
use pitree_harness::{Access, KeyStream, Mix};
use pitree_obs::Stopwatch;
use pitree_sim::SimRng;
use std::sync::Arc;

/// Keys a scan asks for.
const SCAN_LEN: u64 = 100;

/// Width of `hot_storm`'s key band.
const HOT_BAND: u64 = 512;

/// `load_seq` reads among this many of the newest keys: a reader following
/// the appender, on the leaves that are being split. (Reads over the whole
/// prefix cost more the further the tree has grown, so their latency would
/// follow how fast the disk let the run insert.)
const RECENT_KEYS: u64 = 4096;

#[derive(Clone, Copy)]
enum Pool {
    /// A fixed number of frames, at least everything the workload touches.
    Frames(usize),
    /// `max(64, pages / 128)`: data far larger than the cache.
    Scaled,
}

struct Spec {
    mix: Mix,
    access: Access,
    pool: Pool,
    /// Start from an empty tree instead of the loaded image.
    empty: bool,
    /// Read every page once before the clock starts.
    warm: bool,
}

fn spec(workload: &str) -> Spec {
    let mix = |get, insert, delete, scan| Mix {
        get,
        insert,
        delete,
        scan,
        scan_len: SCAN_LEN,
    };
    match workload {
        "load_seq" => Spec {
            mix: mix(10, 90, 0, 0),
            access: Access::Sequential,
            pool: Pool::Frames(image::LOAD_POOL_FRAMES),
            empty: true,
            warm: false,
        },
        "read_hot" => Spec {
            mix: mix(100, 0, 0, 0),
            access: Access::Zipf(0.99),
            pool: Pool::Frames(image::BIG_POOL_FRAMES),
            empty: false,
            warm: true,
        },
        "read_cold" => Spec {
            mix: mix(90, 0, 0, 10),
            access: Access::Zipf(0.99),
            pool: Pool::Scaled,
            empty: false,
            warm: false,
        },
        "ycsb_a" => Spec {
            mix: mix(50, 50, 0, 0),
            access: Access::Zipf(0.99),
            pool: Pool::Scaled,
            empty: false,
            warm: false,
        },
        "hot_storm" => Spec {
            mix: mix(10, 45, 45, 0),
            access: Access::HotBand { width: HOT_BAND },
            pool: Pool::Scaled,
            empty: false,
            warm: false,
        },
        other => panic!("not a Π-tree workload: {other}"),
    }
}

/// Version of an absent key in the shadow model.
const ABSENT: u32 = u32::MAX;

/// The shadow model: with one client the last write per key is known, so
/// the expected value of every key is `value_bytes(key, versions[key])`.
pub struct Shadow {
    versions: Vec<u32>,
    live: u64,
    /// Test-only corruption: expect the next version instead.
    skew: u64,
}

impl Shadow {
    pub fn loaded(keys: u64, corrupt: bool) -> Shadow {
        Shadow {
            versions: vec![0; keys as usize],
            live: keys,
            skew: corrupt as u64,
        }
    }

    pub fn live(&self) -> u64 {
        self.live
    }

    pub fn expected(&self, k: u64) -> Option<[u8; image::VALUE_LEN]> {
        match self.versions.get(k as usize) {
            Some(&v) if v != ABSENT => Some(value_bytes(k, v as u64 + self.skew)),
            _ => None,
        }
    }

    pub fn check(&self, k: u64, got: Option<&[u8]>) -> bool {
        got == self.expected(k).as_ref().map(|v| v.as_slice())
    }

    /// Record an upsert of `k`; returns the version to write.
    pub fn bump(&mut self, k: u64) -> u64 {
        let i = k as usize;
        if i >= self.versions.len() {
            self.versions.resize(i + 1, ABSENT);
        }
        if self.versions[i] == ABSENT {
            self.live += 1;
            self.versions[i] = 0;
        } else {
            self.versions[i] += 1;
        }
        self.versions[i] as u64
    }

    pub fn delete(&mut self, k: u64) {
        if let Some(v) = self.versions.get_mut(k as usize) {
            if *v != ABSENT {
                *v = ABSENT;
                self.live -= 1;
            }
        }
    }
}

struct PiClient<'t> {
    tree: &'t PiTree,
    mix: Mix,
    rng: SimRng,
    stream: KeyStream,
    pipe: Pipeline<'t>,
    /// `load_seq`: keys are only ever appended, and reads follow the newest.
    appending: bool,
    shadow: Shadow,
    lat: Latencies,
    attempted: u64,
    failed: u64,
    retries: u64,
    user_bytes: u64,
    /// Allocations made inside tree calls, and the number of calls.
    get_allocs: (u64, u64),
    write_allocs: (u64, u64),
}

/// One point read under the `op.get` > `core.get` spans, timed into `lat`;
/// whether the answer was the model's.
pub fn checked_get(tree: &PiTree, shadow: &Shadow, lat: &mut Latencies, k: u64) -> bool {
    let t = Stopwatch::start();
    let got = {
        let _op = span(Name::OpGet);
        let _c = span(Name::CoreGet);
        tree.get_unlocked(&key_bytes(k))
    };
    lat.get(t.elapsed_ns());
    matches!(got, Ok(v) if shadow.check(k, v.as_deref()))
}

impl PiClient<'_> {
    fn get(&mut self, k: u64) {
        let a0 = alloc::count();
        let ok = checked_get(self.tree, &self.shadow, &mut self.lat, k);
        self.get_allocs.0 += alloc::count() - a0;
        self.get_allocs.1 += 1;
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    fn write(&mut self, k: u64, delete: bool) {
        let key = key_bytes(k);
        let a0 = alloc::count();
        let t = Stopwatch::start();
        let op = span(if delete {
            Name::OpDelete
        } else {
            Name::OpInsert
        });
        let (pc, retries) = if delete {
            self.shadow.delete(k);
            self.user_bytes += image::KEY_LEN as u64;
            remove(self.tree, &key)
        } else {
            let ver = self.shadow.bump(k);
            self.user_bytes += RECORD_BYTES;
            upsert(self.tree, &key, &value_bytes(k, ver))
        };
        let write_ns = t.elapsed_ns();
        let allocs = alloc::count() - a0;
        self.pipe.push(pc);
        if self.pipe.is_full() {
            let a = Stopwatch::start();
            self.pipe.ack_oldest();
            self.lat.ack(a.elapsed_ns());
        }
        drop(op);
        self.lat.write(write_ns, t.elapsed_ns());
        self.write_allocs.0 += allocs;
        self.write_allocs.1 += 1;
        self.retries += retries;
        self.attempted += 1;
    }

    fn scan(&mut self, lo: u64) {
        let (from, to) = (key_bytes(lo), key_bytes(lo + SCAN_LEN));
        let t = Stopwatch::start();
        let got = {
            let _op = span(Name::OpScan);
            let _c = span(Name::CoreScan);
            self.tree.scan(&from, &to)
        };
        self.lat.scan(t.elapsed_ns());
        self.attempted += 1;
        // Order, range and count: exactly the live keys of [lo, lo+100),
        // ascending, each with its current value.
        let ok = got.is_ok_and(|pairs| {
            let mut want = (lo..lo + SCAN_LEN).filter_map(|k| Some((k, self.shadow.expected(k)?)));
            pairs.iter().all(|(k, v)| {
                want.next()
                    .is_some_and(|(wk, wv)| k[..] == key_bytes(wk) && v[..] == wv)
            }) && want.next().is_none()
        });
        if !ok {
            self.failed += 1;
        }
    }
}

impl Client for PiClient<'_> {
    fn step(&mut self) {
        let roll = self.rng.below(100) as u32;
        let m = self.mix;
        if roll < m.get {
            let k = if self.appending {
                let newest = self.shadow.live().saturating_sub(1);
                newest - self.rng.below(RECENT_KEYS).min(newest)
            } else {
                self.stream.next_existing(&mut self.rng)
            };
            self.get(k);
        } else if roll < m.get + m.insert {
            let k = self.stream.next(&mut self.rng);
            self.write(k, false);
        } else if roll < m.get + m.insert + m.delete {
            let k = self.stream.next(&mut self.rng);
            self.write(k, true);
        } else {
            let lo = self.stream.next_existing(&mut self.rng);
            self.scan(lo);
        }
    }

    fn end_slice(&mut self) {
        self.pipe.drain();
    }

    fn next_slice(&mut self, sampling: bool) {
        self.lat.next_slice(sampling);
    }
}

/// Mean cost of generating one operation (roll + key), measured off the
/// clock on a generator of the same shape.
fn gen_ns_per_op(access: Access, keys: u64, seed: u64) -> f64 {
    const N: u64 = 200_000;
    let mut rng = SimRng::new(seed);
    let mut stream = KeyStream::new(access, keys.max(1), keys);
    let t = Stopwatch::start();
    let mut sink = 0u64;
    for _ in 0..N {
        sink = sink
            .wrapping_add(rng.below(100))
            .wrapping_add(stream.next(&mut rng));
    }
    std::hint::black_box(sink);
    t.elapsed_ns() as f64 / N as f64
}

pub fn run(args: &Args) -> Outcome {
    let sp = spec(&args.workload);
    let keys = if sp.empty {
        0
    } else {
        image::FULL_KEYS / args.scale
    };
    let dir = args.work.join("store");

    // ---- set-up: image (built by a child), open, recover, warm -----------
    let setup = || -> (Arc<Store>, PiTree, usize) {
        let pages = if sp.empty {
            let _ = std::fs::remove_dir_all(&dir);
            0
        } else {
            build_image("pi", &dir, args.scale, args.seed)["pages"]
        };
        let pool = match sp.pool {
            Pool::Frames(n) => n,
            Pool::Scaled => image::scaled_pool(pages),
        };
        let store = open_store(&dir, pool, args.trace);
        let tree = if sp.empty {
            PiTree::create(Arc::clone(&store), 1, PiTreeConfig::default()).expect("create tree")
        } else {
            PiTree::recover(Arc::clone(&store), 1, PiTreeConfig::default())
                .expect("recover image")
                .0
        };
        if sp.warm {
            // One full scan, in chunks so the result never holds the image.
            let mut seen = 0;
            for lo in (0..keys).step_by(4096) {
                let chunk = tree.scan(&key_bytes(lo), &key_bytes(lo + 4096));
                seen += chunk.expect("warming scan").len() as u64;
            }
            assert_eq!(seen, keys, "image holds every loaded key");
        }
        (store, tree, pool)
    };
    let ((store, tree, pool), setup_s) = repeat_setup(args.trace, setup);

    // ---- measured phase ---------------------------------------------------
    let mut client = PiClient {
        tree: &tree,
        mix: sp.mix,
        rng: SimRng::new(args.seed),
        stream: KeyStream::new(sp.access, keys.max(1), keys),
        pipe: Pipeline::new(),
        appending: sp.empty,
        shadow: Shadow::loaded(keys, args.corrupt_shadow),
        lat: Latencies::new(&args.work),
        attempted: 0,
        failed: 0,
        retries: 0,
        user_bytes: 0,
        get_allocs: (0, 0),
        write_allocs: (0, 0),
    };
    let mut meter = StoreMeter::new(&store);
    let measured = meter.measure(&mut client, args.seconds, args.trace);
    let rss = peak_rss_mb();

    // ---- off the clock: flush, checkpoint, sizes --------------------------
    let flush_ms = meter.flush_and_checkpoint();
    let pages = image::data_pages(&dir);

    let mut out = Outcome {
        attempted: client.attempted,
        failed: client.failed,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "{} ops in {:.2}s ({:.0}/s durable), pool {pool} frames, {pages} pages, {FLUSH_POLICY}",
        measured.total_ops(),
        measured.total_secs(),
        measured.total_ops() as f64 / measured.total_secs(),
    ));
    client.lat.report(args.trace, &mut out);
    if !args.trace {
        out.set_end_to_end(
            pages * pitree_pagestore::PAGE_SIZE as u64,
            client.shadow.live() * RECORD_BYTES,
            setup_s,
            rss,
        );
        return out;
    }

    let report = finish_trace(args, &measured, &mut out);
    let mut m = Vec::new();
    common_metrics(
        &meter.traced,
        &meter.whole,
        measured.traced_ops(),
        &report,
        &mut m,
    );
    let per_call = |(allocs, calls): (u64, u64)| allocs as f64 / calls.max(1) as f64;
    m.extend([
        ("core.allocs_per_get", per_call(client.get_allocs)),
        ("core.allocs_per_write", per_call(client.write_allocs)),
        ("core.splits", meter.whole.counter("tree.splits") as f64),
        ("txnlock.deadlock_retries", client.retries as f64),
        (
            "harness.gen_ns_per_op",
            gen_ns_per_op(sp.access, keys, args.seed),
        ),
    ]);
    if client.user_bytes > 0 {
        m.extend(meter.write_metrics(client.user_bytes, flush_ms));
    }
    out.set_all(m);
    out
}
