//! `multi_struct`: one store hosting a TSB-tree (id 1) and an hB-tree
//! (id 2) — two instantiations of the paper's protocol sharing one pool,
//! WAL and lock table. Operations alternate between the trees: TSB 70%
//! `get_as_of` (half at the fence time, half now) / 30% `put`; hB 70%
//! 16x16 `window_query` / 30% `insert`.

use crate::image::{self, key_bytes, point_for, value_bytes, HB_ID, HB_SIDE, RECORD_BYTES, TSB_ID};
use crate::layers::common_metrics;
use crate::ops::{hb_insert, tsb_put, Pipeline};
use crate::run::{
    build_image, finish_trace, open_store, peak_rss_mb, repeat_setup, Args, Client, Latencies,
    Outcome, StoreMeter, FLUSH_POLICY,
};
use crate::trace::{self, span, Name};
use pitree::Store;
use pitree_harness::workload::{scramble, Zipf};
use pitree_hb::{HbConfig, HbTree, Point, Rect};
use pitree_obs::{Counter, Stopwatch};
use pitree_sim::SimRng;
use pitree_tsb::{Time, TsbConfig, TsbTree};
use std::collections::HashMap;
use std::sync::Arc;

/// Pool shared by the two trees: about half of their pages.
const POOL_FRAMES: usize = 2048;

/// Edge of a window query, in attribute units.
const WINDOW_EDGE: u64 = 16;

/// Every this-many-th window query is also checked against a brute-force
/// filter of the whole point set, once the clock has stopped (the filter
/// costs as much as dozens of operations); all are checked result by result.
const FULL_CHECK_EVERY: u64 = 64;

/// A window query kept for the brute-force check: the window, how many
/// points the tree returned, and how many points the model held then.
struct SampledWindow {
    window: Rect,
    results: usize,
    model_len: usize,
}

struct MultiClient<'t> {
    tsb: &'t TsbTree,
    hb: &'t HbTree,
    t_past: Time,
    keys: u64,
    rng: SimRng,
    zipf: Zipf,
    pipe: Pipeline<'t>,
    /// Latest version per TSB key; at the fence every key was at version 0.
    versions: Vec<u32>,
    /// The hB point set: point -> index of the insert that wrote it last.
    points: HashMap<Point, u64>,
    /// The same points in order of first insertion, for the brute-force
    /// check to scan.
    point_list: Vec<Point>,
    sampled: Vec<SampledWindow>,
    next_point: u64,
    /// Test-only corruption of the expectations.
    skew: u64,
    turn: u64,
    windows: u64,
    window_results: u64,
    lat: Latencies,
    attempted: u64,
    failed: u64,
    retries: u64,
    user_bytes: u64,
    /// `tree.splits` is one counter for both trees (they share the store's
    /// registry); deltas around each call attribute it.
    splits: Counter,
    tsb_splits: u64,
    hb_splits: u64,
}

impl MultiClient<'_> {
    fn zipf_key(&mut self) -> u64 {
        scramble(self.zipf.sample(&mut self.rng), self.keys)
    }

    fn finish_write(&mut self, t: Stopwatch, op: trace::Span, retries: u64) {
        let write_ns = t.elapsed_ns();
        if self.pipe.is_full() {
            let a = Stopwatch::start();
            self.pipe.ack_oldest();
            self.lat.ack(a.elapsed_ns());
        }
        drop(op);
        self.lat.write(write_ns, t.elapsed_ns());
        self.retries += retries;
        self.user_bytes += RECORD_BYTES;
        self.attempted += 1;
    }

    fn tsb_get(&mut self) {
        let k = self.zipf_key();
        let at_fence = self.rng.chance(0.5);
        let (as_of, ver) = if at_fence {
            (self.t_past, 0)
        } else {
            (self.tsb.now(), self.versions[k as usize] as u64)
        };
        let t = Stopwatch::start();
        let got = {
            let _op = span(Name::OpGetAsOf);
            let _c = span(Name::TsbGetAsOf);
            self.tsb.get_as_of(&key_bytes(k), as_of)
        };
        self.lat.get(t.elapsed_ns());
        self.attempted += 1;
        let want = value_bytes(k, ver + self.skew);
        if !got.is_ok_and(|v| v.as_deref() == Some(&want[..])) {
            self.failed += 1;
        }
    }

    fn tsb_put(&mut self) {
        let k = self.zipf_key();
        self.versions[k as usize] += 1;
        let value = value_bytes(k, self.versions[k as usize] as u64);
        let s0 = self.splits.get();
        let t = Stopwatch::start();
        let op = span(Name::OpPut);
        let (pc, retries) = tsb_put(self.tsb, &key_bytes(k), &value);
        self.pipe.push(pc);
        self.tsb_splits += self.splits.get() - s0;
        self.finish_write(t, op, retries);
    }

    fn hb_window(&mut self) {
        let lo = [
            self.rng.below(HB_SIDE - WINDOW_EDGE),
            self.rng.below(HB_SIDE - WINDOW_EDGE),
        ];
        let w = Rect {
            lo,
            hi: [lo[0] + WINDOW_EDGE, lo[1] + WINDOW_EDGE],
        };
        let t = Stopwatch::start();
        let got = {
            let _op = span(Name::OpWindowQuery);
            let _c = span(Name::HbWindowQuery);
            self.hb.window_query(&w)
        };
        self.lat.window(t.elapsed_ns());
        self.attempted += 1;
        self.windows += 1;
        let Ok(mut got) = got else {
            self.failed += 1;
            return;
        };
        self.window_results += got.len() as u64;
        // Every result is a point of the model, inside the window, with its
        // current value, and reported once.
        got.sort();
        let sound = got.windows(2).all(|p| p[0].0 != p[1].0)
            && got.iter().all(|(p, v)| {
                w.contains(p)
                    && self
                        .points
                        .get(p)
                        .is_some_and(|&i| v[..] == value_bytes(i, self.skew))
            });
        if !sound {
            self.failed += 1;
        }
        if self.windows % FULL_CHECK_EVERY == 0 {
            self.sampled.push(SampledWindow {
                window: w,
                results: got.len(),
                model_len: self.point_list.len(),
            });
        }
    }

    /// Off the clock: on the sample, the result was also complete. Counts
    /// each incomplete window as a failed operation.
    fn check_sampled_windows(&mut self) {
        for s in &self.sampled {
            let model = &self.point_list[..s.model_len];
            let inside = model.iter().filter(|p| s.window.contains(p)).count();
            self.failed += (inside != s.results) as u64;
        }
    }

    fn hb_insert(&mut self) {
        let i = self.next_point;
        self.next_point += 1;
        let p = point_for(i);
        if self.points.insert(p, i).is_none() {
            self.point_list.push(p);
        }
        let s0 = self.splits.get();
        let t = Stopwatch::start();
        let op = span(Name::OpHbInsert);
        let (pc, retries) = hb_insert(self.hb, &p, &value_bytes(i, 0));
        self.pipe.push(pc);
        self.hb_splits += self.splits.get() - s0;
        self.finish_write(t, op, retries);
    }
}

impl Client for MultiClient<'_> {
    fn step(&mut self) {
        self.turn += 1;
        let read = self.rng.below(100) < 70;
        match (self.turn % 2 == 1, read) {
            (true, true) => self.tsb_get(),
            (true, false) => self.tsb_put(),
            (false, true) => self.hb_window(),
            (false, false) => self.hb_insert(),
        }
    }

    fn end_slice(&mut self) {
        self.pipe.drain();
    }

    fn next_slice(&mut self, sampling: bool) {
        self.lat.next_slice(sampling);
    }
}

pub fn run(args: &Args) -> Outcome {
    let keys = image::MULTI_KEYS / args.scale;
    let dir = args.work.join("store");
    let setup = || -> (Arc<Store>, TsbTree, HbTree, Time) {
        let t_past = build_image("multi", &dir, args.scale, 0)["t_past"];
        let store = open_store(&dir, POOL_FRAMES, args.trace);
        // The image is fenced (flushed + checkpointed), so opening needs no
        // recovery pass.
        let tsb =
            TsbTree::open(Arc::clone(&store), TSB_ID, TsbConfig::default()).expect("open tsb");
        let hb = HbTree::open(Arc::clone(&store), HB_ID, HbConfig::default()).expect("open hb");
        (store, tsb, hb, t_past)
    };
    let ((store, tsb, hb, t_past), setup_s) = repeat_setup(args.trace, setup);

    let mut versions = vec![0u32; keys as usize];
    versions.iter_mut().step_by(10).for_each(|v| *v = 1);
    // Sized once for any run length, so that the model's table never
    // doubles in the middle of a run (a step in `peak_rss_mb`).
    let mut points = HashMap::with_capacity(4 * keys as usize);
    let mut point_list = Vec::new();
    for i in 0..keys {
        if points.insert(point_for(i), i).is_none() {
            point_list.push(point_for(i));
        }
    }
    let mut client = MultiClient {
        tsb: &tsb,
        hb: &hb,
        t_past,
        keys,
        rng: SimRng::new(args.seed),
        zipf: Zipf::new(keys, 0.99),
        pipe: Pipeline::new(),
        versions,
        points,
        point_list,
        sampled: Vec::new(),
        next_point: keys,
        skew: args.corrupt_shadow as u64,
        turn: 0,
        windows: 0,
        window_results: 0,
        lat: Latencies::new(&args.work),
        attempted: 0,
        failed: 0,
        retries: 0,
        user_bytes: 0,
        splits: store.recorder().counter("tree.splits"),
        tsb_splits: 0,
        hb_splits: 0,
    };
    let mut meter = StoreMeter::new(&store);
    let measured = meter.measure(&mut client, args.seconds, args.trace);
    let rss = peak_rss_mb();
    client.check_sampled_windows();

    let flush_ms = meter.flush_and_checkpoint();
    let pages = image::data_pages(&dir);

    let mut out = Outcome {
        attempted: client.attempted,
        failed: client.failed,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "{} ops in {:.2}s ({:.0}/s durable), pool {POOL_FRAMES} frames, {pages} pages, {} window queries \
         ({} brute-force checked), {FLUSH_POLICY}",
        measured.total_ops(),
        measured.total_secs(),
        measured.total_ops() as f64 / measured.total_secs(),
        client.windows,
        client.windows / FULL_CHECK_EVERY,
    ));
    client.lat.report(args.trace, &mut out);
    if !args.trace {
        // User data the store holds: every version ever put (a TSB-tree
        // keeps them all readable) plus every point.
        let versions: u64 = client.versions.iter().map(|&v| v as u64 + 1).sum();
        out.set_end_to_end(
            pages * pitree_pagestore::PAGE_SIZE as u64,
            (versions + client.points.len() as u64) * RECORD_BYTES,
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
    m.extend([
        ("tsbtree.splits", client.tsb_splits as f64),
        ("hbtree.splits", client.hb_splits as f64),
        (
            "hbtree.results_per_window",
            client.window_results as f64 / client.windows.max(1) as f64,
        ),
        ("txnlock.deadlock_retries", client.retries as f64),
    ]);
    m.extend(meter.write_metrics(client.user_bytes, flush_ms));
    out.set_all(m);
    out
}
