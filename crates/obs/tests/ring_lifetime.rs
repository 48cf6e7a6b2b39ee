//! A store's telemetry dies with the store: a thread's event ring does not
//! outlive its registry beyond that thread's next first event elsewhere.
//!
//! Each emitting thread caches its ring per registry in a thread-local. A
//! process that opens stores in sequence (a crash sweep, a restart loop, a
//! server that reopens) must hold one ring per thread, not one per store it
//! ever touched — the cache once kept 16 dead registries' rings (5 MB)
//! before purging any.
//!
//! The meter is a wrapping [`GlobalAlloc`] counting live bytes across *all*
//! threads (a ring allocated on one thread is freed on another), so the two
//! checks run as one test.

use pitree_obs::{EventKind, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

static LIVE: AtomicI64 = AtomicI64::new(0);

struct MeteringAlloc;

unsafe impl GlobalAlloc for MeteringAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: MeteringAlloc = MeteringAlloc;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Events per ring at the default capacity, and what a full ring weighs.
const CAP: u64 = 8192;
const RING: i64 = CAP as i64 * 40;
/// Everything that is not a ring: the cache's own `Vec`, the harness.
const SLACK: i64 = 16 * 1024;

/// Fill this thread's ring in `reg`.
fn emit_full(reg: &Registry) {
    let rec = reg.recorder();
    for i in 0..CAP {
        rec.event(EventKind::BufHit, i, 0);
    }
}

#[test]
fn rings_die_with_their_registry() {
    // Sequential registries on one thread: after each drop at most the one
    // ring the thread-local still caches is live.
    let baseline = live();
    for i in 0..64 {
        let reg = Registry::new();
        emit_full(&reg);
        assert!(live() - baseline >= RING, "a full ring is {RING} bytes");
        drop(reg);
        let held = live() - baseline;
        assert!(
            held <= RING + SLACK,
            "after registry {i} dropped, {held} bytes of rings are still live (one ring: {RING})"
        );
    }

    // A second thread's ring: owned by its thread-local cache and by the
    // registry, so it goes when both have — the thread exits, the registry
    // drops — whichever is last.
    let baseline = live();
    let reg = Registry::new();
    // `join`, not a scope: a scope returns before the thread's TLS
    // destructors (the cache's drop) have run.
    let theirs = reg.clone();
    std::thread::spawn(move || emit_full(&theirs))
        .join()
        .unwrap();
    assert!(live() - baseline >= RING, "the ring outlives its thread");
    assert_eq!(reg.drain_events().len() as u64, CAP);
    drop(reg);
    let held = live() - baseline;
    assert!(
        held <= SLACK,
        "{held} bytes live after thread and registry are gone"
    );
}
