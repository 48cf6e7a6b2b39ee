//! The zero-copy read-path gate: a steady-state point read performs exactly
//! **one** heap allocation — the returned value — and a range scan stays
//! within two allocations per returned pair plus a constant.
//!
//! All three structures read through the one engine descent
//! (`pitree::Engine::descend`), so the gate covers each: Π-tree `get`, TSB
//! `get_as_of` and hB point `get` — which routes through a borrowed view of
//! each node's kd fragment (`pitree_hb::HbView`) — are pinned at exactly 1
//! per hit / 0 per miss, so the shared loop cannot quietly start
//! allocating for any of them.
//!
//! The counter is a wrapping [`GlobalAlloc`] that tallies allocations made
//! by the *measuring thread only* (thread-local flag), so background work —
//! the group-commit daemon, other test threads — cannot perturb the count.
//! Steady state means: the buffer pool already caches the touched nodes,
//! so the test warms it before counting.

use pitree::{CrashableStore, PiTree, PiTreeConfig};
use pitree_hb::{HbConfig, HbTree};
use pitree_tsb::{TsbConfig, TsbTree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

std::thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn tally() {
        // `try_with`: the allocator runs during TLS teardown too, where the
        // cells are gone — silently skip counting there.
        let _ = COUNTING.try_with(|c| {
            if c.get() {
                let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tally();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tally();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tally();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` with the thread-local allocation counter on; return the count.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(|a| a.get())
}

#[test]
fn steady_state_reads_are_allocation_free() {
    // Pool large enough that every node stays resident: steady-state reads
    // must not evict (a miss re-reads from the backing file and allocates).
    let store = CrashableStore::create(4096, 1_000_000).expect("create store");
    let tree =
        PiTree::create(Arc::clone(&store.store), 1, PiTreeConfig::default()).expect("create tree");

    const KEYS: u64 = 4_000;
    let mut txn = tree.begin();
    for i in 0..KEYS {
        tree.insert(&mut txn, &i.to_be_bytes(), &(i * 7).to_be_bytes())
            .expect("insert");
    }
    txn.commit().expect("commit");

    // Warm: fault every node into the pool so none is read during the
    // measured window.
    for round in 0..6 {
        for i in 0..KEYS {
            let v = tree.get_unlocked(&i.to_be_bytes()).expect("get");
            assert!(v.is_some(), "round {round}: key {i} must be present");
        }
    }

    // ---- point reads: exactly one allocation each (the returned value) ----
    const READS: u64 = 1_000;
    let n = count_allocs(|| {
        for i in 0..READS {
            let key = (i % KEYS).to_be_bytes();
            let v = tree.get_unlocked(&key).expect("get");
            std::hint::black_box(&v);
        }
    });
    assert_eq!(
        n, READS,
        "steady-state get_unlocked must allocate exactly once per read \
         (the returned Vec); counted {n} over {READS} reads"
    );

    // ---- missing keys: zero allocations (nothing to return) ----
    let n = count_allocs(|| {
        for i in 0..READS {
            let v = tree
                .get_unlocked(&(KEYS + 1 + i).to_be_bytes())
                .expect("get");
            assert!(v.is_none());
        }
    });
    assert_eq!(n, 0, "a miss returns None without touching the heap");

    // ---- scans: at most 2 allocations per returned pair plus a constant ----
    let (lo, hi) = (100u64, 600u64);
    let mut pairs = 0u64;
    let n = count_allocs(|| {
        let out = tree
            .scan(&lo.to_be_bytes(), &hi.to_be_bytes())
            .expect("scan");
        pairs = out.len() as u64;
        std::hint::black_box(&out);
    });
    assert_eq!(pairs, hi - lo, "scan must return the full range");
    assert!(
        n <= 2 * pairs + 8,
        "scan allocated {n} times for {pairs} pairs (budget: 2/pair + 8 \
         for the output vector's growth)"
    );
}

#[test]
fn tsb_as_of_reads_allocate_only_the_returned_value() {
    let store = CrashableStore::create(4096, 1_000_000).expect("create store");
    let tree =
        TsbTree::create(Arc::clone(&store.store), 2, TsbConfig::default()).expect("create tree");

    // Three versions per key, so as-of reads cross time splits into the
    // history chains as well as landing in current nodes.
    const KEYS: u64 = 2_000;
    let mut stamps = Vec::new();
    for round in 0..3u64 {
        let mut txn = tree.begin();
        for i in 0..KEYS {
            tree.put(&mut txn, &i.to_be_bytes(), &(i * 7 + round).to_be_bytes())
                .expect("put");
        }
        txn.commit().expect("commit");
        stamps.push(tree.now());
    }
    let read_all = |t| {
        for i in 0..KEYS {
            let v = tree.get_as_of(&i.to_be_bytes(), t).expect("get_as_of");
            assert!(v.is_some(), "key {i} must be visible at {t}");
        }
    };
    // Warm the pool and the completion queue (side traversals found by the
    // first reads get their postings done).
    for _ in 0..6 {
        stamps.iter().for_each(|t| read_all(*t));
    }

    const READS: u64 = 1_000;
    for &t in &stamps {
        let n = count_allocs(|| {
            for i in 0..READS {
                let v = tree.get_as_of(&(i % KEYS).to_be_bytes(), t).expect("get");
                std::hint::black_box(&v);
            }
        });
        assert_eq!(
            n, READS,
            "steady-state get_as_of(t={t}) must allocate exactly once per hit; \
             counted {n} over {READS} reads"
        );
    }
    let n = count_allocs(|| {
        for i in 0..READS {
            let key = (KEYS + 1 + i).to_be_bytes();
            assert!(tree.get_as_of(&key, stamps[2]).expect("get").is_none());
        }
    });
    assert_eq!(n, 0, "an as-of miss returns None without touching the heap");
}

#[test]
fn hb_point_reads_allocate_only_the_returned_value() {
    let store = CrashableStore::create(4096, 1_000_000).expect("create store");
    let tree =
        HbTree::create(Arc::clone(&store.store), 3, HbConfig::default()).expect("create tree");

    const SIDE: u64 = 64;
    let mut txn = tree.begin();
    for x in 0..SIDE {
        for y in 0..SIDE {
            // A fixed scatter so the kd splits alternate dimensions.
            let p = [(x * 37) % SIDE, (y * 29 + x) % SIDE];
            tree.insert(&mut txn, &p, &(x * SIDE + y).to_be_bytes())
                .expect("insert");
        }
    }
    txn.commit().expect("commit");
    tree.run_completions().expect("completions");

    let read_all = || {
        for x in 0..SIDE {
            for y in 0..SIDE {
                let v = tree.get(&[x, y]).expect("get");
                assert!(v.is_some(), "point ({x}, {y}) must be present");
            }
        }
    };
    for _ in 0..4 {
        read_all();
    }
    let n = count_allocs(read_all);
    assert_eq!(
        n,
        SIDE * SIDE,
        "steady-state hB get must allocate exactly once per hit (the \
         returned Vec); counted {n} over {} reads",
        SIDE * SIDE
    );
    let n = count_allocs(|| {
        for x in 0..SIDE {
            assert!(tree.get(&[x, SIDE + x]).expect("get").is_none());
        }
    });
    assert_eq!(n, 0, "an hB miss returns None without touching the heap");
}
