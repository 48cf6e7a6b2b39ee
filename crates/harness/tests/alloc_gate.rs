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
//! The write row pins the insert path the same way, to exact counts of
//! pool fetches, latches, locks and allocations: a Π-tree insert allocates
//! in the lock table, for its entry and for its undo, and appending its log
//! records allocates nothing (each atomic action encodes its records into
//! one reused frame buffer, and the log tail reuses the buffer of the batch
//! it last forced).
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

/// What one run of the loader's shape costs: the first write row of the
/// per-operation ledger. Every field is an exact count over the measured
/// 4,096 inserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LoadCost {
    /// Buffer-pool fetches (`buf.hits` + `buf.misses`).
    fetches: u64,
    /// Page-latch acquisitions by mode, and U-to-X promotions.
    latch_s: u64,
    latch_u: u64,
    latch_x: u64,
    promotes: u64,
    /// Database locks granted (`lock.acquires`).
    locks: u64,
    /// Heap allocations by the measuring thread.
    allocs: u64,
}

#[test]
fn steady_state_inserts_allocate_a_pinned_count() {
    let store = CrashableStore::create(4096, 1_000_000).expect("create store");
    let tree =
        PiTree::create(Arc::clone(&store.store), 1, PiTreeConfig::default()).expect("create tree");
    // Ascending 8-byte keys with 16-byte values, committed 64 to a
    // transaction: the benchmark images' load.
    const KEYS: u64 = 4_096;
    const TXN: u64 = 64;
    let load = |keys: std::ops::Range<u64>| {
        for lo in keys.step_by(TXN as usize) {
            let mut txn = tree.begin();
            for k in lo..lo + TXN {
                tree.insert(&mut txn, &k.to_be_bytes(), &[k as u8; 16])
                    .expect("insert");
            }
            txn.commit().expect("commit");
        }
    };
    // Warm: the pool, the lock table and the log tail have grown to size.
    // The store's maps hash with a fixed seed, so when churn makes the lock
    // table grow is the same in every run.
    load(0..KEYS);
    let rec = tree.recorder();
    let read = |name| rec.counter(name).get();
    let counts = || {
        [
            read("buf.hits") + read("buf.misses"),
            read("latch.acquire_s"),
            read("latch.acquire_u"),
            read("latch.acquire_x"),
            read("latch.promotes"),
            read("lock.acquires"),
        ]
    };
    let before = counts();
    let allocs = count_allocs(|| load(KEYS..2 * KEYS));
    let after = counts();
    let [fetches, latch_s, latch_u, latch_x, promotes, locks] =
        std::array::from_fn(|i| after[i] - before[i]);
    let cost = LoadCost {
        fetches,
        latch_s,
        latch_u,
        latch_x,
        promotes,
        locks,
        allocs,
    };
    assert_eq!(
        cost,
        LOAD_COST,
        "{KEYS} ascending inserts in transactions of {TXN} cost {cost:?} \
         ({:.2} fetches, {:.2} allocations per insert); pinned {LOAD_COST:?}",
        cost.fetches as f64 / KEYS as f64,
        cost.allocs as f64 / KEYS as f64
    );
}

/// The cost of `steady_state_inserts_allocate_a_pinned_count`'s 4,096
/// inserts. Each insert starts at the leaf the previous one changed (one
/// fetch, one U latch, no S latch of the root) unless it must split, and
/// takes only its key lock under logical UNDO.
const LOAD_COST: LoadCost = LoadCost {
    fetches: 4_408,
    latch_s: 216,
    latch_u: 4_192,
    latch_x: 72,
    promotes: 4_144,
    locks: 4_096,
    allocs: 21_616,
};

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
