//! The metric registry and its cheap [`Recorder`] handle.
//!
//! A [`Registry`] is one observability namespace — the assembled store
//! creates one and threads a [`Recorder`] through the buffer pool, the
//! log manager, the lock table, and the tree, so that everything one
//! workload does lands in one place and two stores (two tests) never
//! share state. There is deliberately **no process-global registry**:
//! globals would bleed metrics across parallel `cargo test` threads and
//! break the sim determinism gate.

use crate::counter::{Counter, CounterCell};
use crate::event::{Event, EventKind, ThreadRing};
use crate::hist::{Hist, HistCell};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Default bound of each per-thread event ring.
const DEFAULT_EVENT_CAP: usize = 8192;

/// Process-unique registry ids, keying the thread-local ring cache.
static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) struct Inner {
    id: u64,
    counters: Mutex<BTreeMap<&'static str, Counter>>,
    hists: Mutex<BTreeMap<&'static str, Hist>>,
    clock: AtomicU64,
    next_tid: AtomicU32,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    event_cap: usize,
}

/// One thread-local cache slot: registry id, liveness probe, ring.
type CachedRing = (u64, Weak<Inner>, Arc<ThreadRing>);

thread_local! {
    /// This thread's rings, one per registry it has emitted events into.
    static RING_CACHE: RefCell<Vec<CachedRing>> = const { RefCell::new(Vec::new()) };
}

/// One observability namespace: counters, histograms, the logical event
/// clock, and the per-thread event rings. See the crate docs.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// A fresh registry with the default per-thread event-ring bound.
    pub fn new() -> Registry {
        Registry::with_event_capacity(DEFAULT_EVENT_CAP)
    }

    /// A fresh registry whose per-thread event rings hold at most `cap`
    /// events (`0` disables event recording entirely).
    pub fn with_event_capacity(cap: usize) -> Registry {
        Registry {
            inner: Arc::new(Inner {
                id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
                counters: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
                clock: AtomicU64::new(0),
                next_tid: AtomicU32::new(0),
                rings: Mutex::new(Vec::new()),
                event_cap: cap,
            }),
        }
    }

    /// A cheap recording handle onto this registry.
    pub fn recorder(&self) -> Recorder {
        Recorder {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Render the stable, diffable text table: every registered counter
    /// and histogram (sorted by name) plus event accounting.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("== counters ==\n");
        for (name, c) in self.inner.counters.lock().unwrap().iter() {
            let _ = writeln!(out, "{name:<34} {:>12}", c.get());
        }
        out.push_str("== histograms (ns) ==\n");
        let _ = writeln!(
            out,
            "{:<34} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "name", "count", "p50", "p95", "p99", "max"
        );
        for (name, h) in self.inner.hists.lock().unwrap().iter() {
            let (p50, p95, p99, max) = h.percentiles();
            let _ = writeln!(
                out,
                "{name:<34} {:>10} {:>12} {:>12} {:>12} {:>12}",
                h.count(),
                p50,
                p95,
                p99,
                max
            );
        }
        let (emitted, buffered, dropped, threads) = self.event_totals();
        let _ = writeln!(
            out,
            "== events ==\nemitted={emitted} buffered={buffered} dropped={dropped} threads={threads}"
        );
        out
    }

    /// `(emitted, buffered, dropped, threads)` over all rings.
    fn event_totals(&self) -> (u64, u64, u64, u32) {
        let rings = self.inner.rings.lock().unwrap();
        let mut emitted = 0;
        let mut buffered = 0;
        let mut dropped = 0;
        for r in rings.iter() {
            emitted += r.emitted();
            buffered += r.buffered_len() as u64;
            dropped += r.dropped();
        }
        (emitted, buffered, dropped, rings.len() as u32)
    }

    /// Remove and return all buffered events, merged across threads and
    /// sorted by logical clock (total order of emission).
    pub fn drain_events(&self) -> Vec<Event> {
        let rings = self.inner.rings.lock().unwrap();
        let mut out = Vec::new();
        for r in rings.iter() {
            out.extend(r.drain());
        }
        out.sort_by_key(|e| e.clock);
        out
    }

    /// Drain all buffered events and serialize them as JSONL, one event
    /// per line. With a single recording thread this output is
    /// byte-identical across runs of the same deterministic workload.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.drain_events() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("id", &self.inner.id)
            .finish()
    }
}

/// A cheap, cloneable recording handle held by instrumented components.
///
/// `counter`/`hist` are get-or-create by name and intended for setup
/// time; the returned handles are the hot path. [`Recorder::event`]
/// appends to the calling thread's bounded ring.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Recorder {
    /// A recorder onto a fresh private registry (detached default for
    /// components constructed without explicit wiring).
    pub fn detached() -> Recorder {
        Registry::new().recorder()
    }

    /// The registry this recorder feeds.
    pub fn registry(&self) -> Registry {
        Registry {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.inner
            .counters
            .lock()
            .unwrap()
            .entry(name)
            .or_insert_with(|| Counter(Arc::new(CounterCell::new())))
            .clone()
    }

    /// Get or create the histogram named `name`.
    pub fn hist(&self, name: &'static str) -> Hist {
        self.inner
            .hists
            .lock()
            .unwrap()
            .entry(name)
            .or_insert_with(|| Hist(Arc::new(HistCell::new())))
            .clone()
    }

    /// Record one event into the calling thread's ring, stamped with the
    /// registry's logical clock. A no-op when the registry was built
    /// with event capacity 0.
    #[inline]
    pub fn event(&self, kind: EventKind, a: u64, b: u64) {
        if self.inner.event_cap == 0 {
            return;
        }
        let clock = self.inner.clock.fetch_add(1, Ordering::Relaxed);
        let ring = self.my_ring();
        ring.push(clock, kind, a, b);
    }

    /// This thread's ring for this registry, creating and registering it
    /// on first use.
    fn my_ring(&self) -> Arc<ThreadRing> {
        RING_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, _, ring)) = cache.iter().find(|(id, _, _)| *id == self.inner.id) {
                return Arc::clone(ring);
            }
            // A miss happens once per thread × registry, so this is where a
            // dead registry's ring (`event_cap` × 40 B) is let go: a thread
            // that opens stores in sequence holds one ring, not one per
            // store it ever touched.
            cache.retain(|(_, weak, _)| weak.strong_count() > 0);
            let tid = self.inner.next_tid.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(ThreadRing::new(tid, self.inner.event_cap));
            self.inner.rings.lock().unwrap().push(Arc::clone(&ring));
            cache.push((
                self.inner.id,
                Arc::downgrade(&self.inner),
                Arc::clone(&ring),
            ));
            ring
        })
    }

    /// Shorthand for [`Registry::report`].
    pub fn report(&self) -> String {
        self.registry().report()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("id", &self.inner.id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_get_or_create() {
        let reg = Registry::new();
        let r = reg.recorder();
        r.counter("a").inc();
        r.counter("a").inc();
        assert_eq!(r.counter("a").get(), 2);
        assert_eq!(r.counter("b").get(), 0);
    }

    #[test]
    fn registries_are_isolated() {
        let r1 = Registry::new().recorder();
        let r2 = Registry::new().recorder();
        r1.counter("x").inc();
        assert_eq!(r2.counter("x").get(), 0);
    }

    #[test]
    fn report_is_sorted_and_stable() {
        let reg = Registry::new();
        let r = reg.recorder();
        r.counter("zeta").add(3);
        r.counter("alpha").add(1);
        r.hist("lat.ns").record(100);
        let rep1 = reg.report();
        let rep2 = reg.report();
        assert_eq!(rep1, rep2, "report must be stable");
        let alpha = rep1.find("alpha").unwrap();
        let zeta = rep1.find("zeta").unwrap();
        assert!(alpha < zeta, "counters sorted by name");
        assert!(rep1.contains("== events =="));
    }

    #[test]
    fn events_merge_in_clock_order() {
        let reg = Registry::new();
        let r = reg.recorder();
        r.event(EventKind::BufHit, 1, 0);
        r.event(EventKind::BufMiss, 2, 0);
        let evs = reg.drain_events();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].clock < evs[1].clock);
        assert_eq!(evs[0].kind, EventKind::BufHit);
        // Drained: a second drain is empty.
        assert!(reg.drain_events().is_empty());
    }

    #[test]
    fn multi_thread_events_all_arrive() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = reg.recorder();
                s.spawn(move || {
                    for i in 0..100 {
                        r.event(EventKind::WalAppend, i, 0);
                    }
                });
            }
        });
        let evs = reg.drain_events();
        assert_eq!(evs.len(), 400);
        // Clock stamps are unique and sorted.
        for w in evs.windows(2) {
            assert!(w[0].clock < w[1].clock);
        }
        // Per-thread seqs are gap-free.
        for tid in 0..4 {
            let seqs: Vec<u64> = evs.iter().filter(|e| e.tid == tid).map(|e| e.seq).collect();
            assert_eq!(seqs.len(), 100);
        }
    }

    #[test]
    fn event_capacity_zero_disables_recording() {
        let reg = Registry::with_event_capacity(0);
        let r = reg.recorder();
        r.event(EventKind::BufHit, 0, 0);
        assert!(reg.drain_events().is_empty());
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let reg = Registry::new();
        let r = reg.recorder();
        r.event(EventKind::LockGrant, 5, 1);
        r.event(EventKind::LockGrant, 6, 1);
        let dump = reg.events_jsonl();
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.starts_with("{\"clock\":"));
    }
}
