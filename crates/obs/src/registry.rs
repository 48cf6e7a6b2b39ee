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
use crate::hist::{Hist, HistCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

struct Inner {
    counters: Mutex<BTreeMap<&'static str, Counter>>,
    hists: Mutex<BTreeMap<&'static str, Hist>>,
}

/// One observability namespace: counters and histograms. See the crate
/// docs.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
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
    /// and histogram, sorted by name.
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
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

/// A cheap, cloneable recording handle held by instrumented components.
///
/// `counter`/`hist` are get-or-create by name and intended for setup
/// time; the returned handles are the hot path.
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

    /// Shorthand for [`Registry::report`].
    pub fn report(&self) -> String {
        self.registry().report()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
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
    }
}
