//! Spans recorded from outside the program: the driver wraps every call it
//! makes into a layer, and the [`SpanDisk`] / [`SpanLogStore`] decorators
//! wrap the devices handed to `Store::assemble`. A span is name, start,
//! duration and the span that caused it; a layer's self time is its span
//! minus the part its children cover.
//!
//! Spans live in a thread-local stack owned by the client thread. Other
//! threads (instant restart's redo workers) never enable their tracer, so
//! their device calls are not attributed to the client's operation. Self
//! times are aggregated as spans close; the first [`RAW_CAP`] spans are
//! also kept whole and written as JSONL when the workload ends.

use pitree_obs::Stopwatch;
use pitree_pagestore::disk::DiskManager;
use pitree_pagestore::{Lsn, Page, PageId, StoreResult};
use pitree_wal::LogStore;
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Spans kept whole for the JSONL dump (~80 bytes per line on disk).
pub const RAW_CAP: usize = 200_000;

macro_rules! span_names {
    ($($variant:ident => $text:literal),* $(,)?) => {
        /// Every span name the benchmark records.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        pub enum Name { $($variant),* }

        const NAME_TEXT: &[&str] = &[$($text),*];
        const NAME_COUNT: usize = NAME_TEXT.len();
    };
}

span_names! {
    OpGet => "op.get",
    OpInsert => "op.insert",
    OpDelete => "op.delete",
    OpScan => "op.scan",
    OpGetAsOf => "op.get_as_of",
    OpPut => "op.put",
    OpWindowQuery => "op.window_query",
    OpHbInsert => "op.hb_insert",
    OpRecover => "op.recover",
    OpRecoverInstant => "op.recover_instant",
    CoreGet => "core.get",
    CoreInsert => "core.insert",
    CoreDelete => "core.delete",
    CoreScan => "core.scan",
    CoreBegin => "core.begin",
    CoreRecover => "core.recover",
    CoreRecoverInstant => "core.recover_instant",
    TsbGetAsOf => "tsbtree.get_as_of",
    TsbPut => "tsbtree.put",
    HbWindowQuery => "hbtree.window_query",
    HbInsert => "hbtree.insert",
    CommitPublish => "txnlock.commit_publish",
    WaitDurable => "txnlock.wait_durable",
    DiskRead => "disk.read_page",
    DiskWrite => "disk.write_page",
    DiskSync => "disk.sync",
    LogAppend => "logstore.append",
    LogReadRange => "logstore.read_range",
}

impl Name {
    pub fn text(self) -> &'static str {
        NAME_TEXT[self as usize]
    }

    /// `op.*` names come first in the list above.
    fn is_op(self) -> bool {
        (self as u8) < Name::CoreGet as u8
    }
}

/// Totals of one span name.
#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }

    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

struct Frame {
    name: Name,
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

struct Raw {
    id: u32,
    parent: u32,
    name: Name,
    start_ns: u64,
    dur_ns: u64,
}

struct Tracer {
    on: bool,
    epoch: Stopwatch,
    stack: Vec<Frame>,
    agg: [Agg; NAME_COUNT],
    raw: Vec<Raw>,
    next_id: u32,
    append_bytes: u64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Stopwatch::start(),
        stack: Vec::new(),
        agg: [Agg::default(); NAME_COUNT],
        raw: Vec::new(),
        next_id: 1,
        append_bytes: 0,
    });
}

/// Turn span recording on or off for this thread. Call only between
/// operations (with no span open).
pub fn set_recording(on: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        debug_assert!(t.stack.is_empty(), "recording toggled inside a span");
        if on && t.raw.capacity() == 0 {
            // Reserve up front so span pushes never allocate inside a
            // measured call (keeps `core.allocs_per_*` honest).
            t.raw.reserve_exact(RAW_CAP);
            t.stack.reserve_exact(16);
        }
        t.on = on;
    });
}

/// An open span; closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span(bool);

/// Open a span caused by the thread's innermost open span. Only an `op.*`
/// span may be a root: a layer or device call made outside any operation
/// (set-up, the acks drained when a slice ends, a flush between slices) has
/// no cause to attribute it to and is left to the Recorder's counters.
#[inline]
pub fn span(name: Name) -> Span {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on || (t.stack.is_empty() && !name.is_op()) {
            return Span(false);
        }
        t.open(name);
        Span(true)
    })
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.0 {
            TRACER.with(|t| t.borrow_mut().close());
        }
    }
}

impl Tracer {
    fn open(&mut self, name: Name) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let start_ns = self.epoch.elapsed_ns();
        self.stack.push(Frame {
            name,
            id,
            start_ns,
            child_ns: 0,
        });
    }

    fn close(&mut self) {
        let end_ns = self.epoch.elapsed_ns();
        let Some(f) = self.stack.pop() else { return };
        let dur_ns = end_ns.saturating_sub(f.start_ns);
        let a = &mut self.agg[f.name as usize];
        a.count += 1;
        a.total_ns += dur_ns;
        a.self_ns += dur_ns.saturating_sub(f.child_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur_ns;
                p.id
            }
            None => 0,
        };
        if self.raw.len() < RAW_CAP {
            self.raw.push(Raw {
                id: f.id,
                parent,
                name: f.name,
                start_ns: f.start_ns,
                dur_ns,
            });
        }
    }
}

/// What the traced slices recorded on this thread.
pub struct Report {
    agg: [Agg; NAME_COUNT],
    /// Bytes handed to `LogStore::append` inside operations.
    pub append_bytes: u64,
    raw: Vec<Raw>,
}

impl Report {
    pub fn get(&self, name: Name) -> Agg {
        self.agg[name as usize]
    }

    /// Sum over the names selected by `pick`.
    pub fn sum(&self, pick: impl Fn(&str) -> bool) -> Agg {
        let mut out = Agg::default();
        for (i, a) in self.agg.iter().enumerate() {
            if pick(NAME_TEXT[i]) {
                out.count += a.count;
                out.total_ns += a.total_ns;
                out.self_ns += a.self_ns;
            }
        }
        out
    }

    /// All spans closed, of every name.
    pub fn spans(&self) -> u64 {
        self.agg.iter().map(|a| a.count).sum()
    }

    /// Total duration of the root (`op.*`) spans.
    pub fn op_total_ns(&self) -> u64 {
        self.sum(|n| n.starts_with("op.")).total_ns
    }

    /// Write the kept spans as JSONL: one object per line with `id`,
    /// `parent` (0 for an `op.*` root), `name`, `start_ns`, `dur_ns`.
    /// Lines are in closing order, so a child precedes its parent.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in &self.raw {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                r.id,
                r.parent,
                r.name.text(),
                r.start_ns,
                r.dur_ns
            )?;
        }
        w.flush()
    }

    /// Structural check of the kept spans: every parent chain ends in an
    /// `op.*` root, and the children of a span fit inside it.
    pub fn check(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let by_id: HashMap<u32, &Raw> = self.raw.iter().map(|r| (r.id, r)).collect();
        let mut child_ns: HashMap<u32, u64> = HashMap::new();
        for r in &self.raw {
            if r.parent == 0 {
                if !r.name.is_op() {
                    return Err(format!("root span {} is not an op", r.name.text()));
                }
                continue;
            }
            *child_ns.entry(r.parent).or_default() += r.dur_ns;
            // The dump is cut at RAW_CAP in closing order, so the parent of
            // a kept child may be missing only at the very end of the dump.
            let mut cur = r;
            while cur.parent != 0 {
                match by_id.get(&cur.parent) {
                    Some(p) => cur = p,
                    None => break,
                }
            }
            if cur.parent == 0 && !cur.name.is_op() {
                return Err(format!("span {} chains to a non-op root", r.name.text()));
            }
        }
        for (id, ns) in child_ns {
            if let Some(p) = by_id.get(&id) {
                if ns > p.dur_ns {
                    return Err(format!(
                        "children of {} #{id} take {ns} ns > parent {} ns",
                        p.name.text(),
                        p.dur_ns
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Take (and reset) what this thread recorded.
pub fn take_report() -> Report {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let report = Report {
            agg: t.agg,
            append_bytes: t.append_bytes,
            raw: std::mem::take(&mut t.raw),
        };
        t.agg = [Agg::default(); NAME_COUNT];
        t.append_bytes = 0;
        report
    })
}

/// `DiskManager` decorator recording `disk.*` spans.
pub struct SpanDisk(pub Arc<dyn DiskManager>);

impl DiskManager for SpanDisk {
    fn read_page(&self, pid: PageId) -> StoreResult<Page> {
        let _s = span(Name::DiskRead);
        self.0.read_page(pid)
    }

    fn write_page(&self, pid: PageId, page: &Page) -> StoreResult<()> {
        let _s = span(Name::DiskWrite);
        self.0.write_page(pid, page)
    }

    fn num_pages(&self) -> u64 {
        self.0.num_pages()
    }

    fn sync(&self) -> StoreResult<()> {
        let _s = span(Name::DiskSync);
        self.0.sync()
    }
}

/// `LogStore` decorator recording `logstore.*` spans.
pub struct SpanLogStore(pub Arc<dyn LogStore>);

impl LogStore for SpanLogStore {
    fn append(&self, bytes: &[u8]) -> StoreResult<()> {
        let s = span(Name::LogAppend);
        if s.0 {
            TRACER.with(|t| t.borrow_mut().append_bytes += bytes.len() as u64);
        }
        self.0.append(bytes)
    }

    fn durable_bytes(&self) -> StoreResult<Vec<u8>> {
        self.0.durable_bytes()
    }

    fn durable_len(&self) -> u64 {
        self.0.durable_len()
    }

    fn set_master(&self, lsn: Lsn) {
        self.0.set_master(lsn)
    }

    fn master(&self) -> Lsn {
        self.0.master()
    }

    fn read_range(&self, offset: u64, len: usize) -> StoreResult<Vec<u8>> {
        let _s = span(Name::LogReadRange);
        self.0.read_range(offset, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_chains_end_in_ops() {
        set_recording(true);
        {
            let _op = span(Name::OpGet);
            let _core = span(Name::CoreGet);
            let _dev = span(Name::DiskRead);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // A layer or device call outside any op is not recorded.
        drop(span(Name::DiskWrite));
        set_recording(false);
        drop(span(Name::OpGet));
        let r = take_report();
        assert_eq!(r.spans(), 3);
        assert_eq!(r.get(Name::DiskWrite).count, 0);
        let (op, core, dev) = (
            r.get(Name::OpGet),
            r.get(Name::CoreGet),
            r.get(Name::DiskRead),
        );
        assert!(dev.total_ns >= 2_000_000);
        assert_eq!(core.self_ns, core.total_ns - dev.total_ns);
        assert_eq!(op.self_ns, op.total_ns - core.total_ns);
        r.check().unwrap();
    }
}
