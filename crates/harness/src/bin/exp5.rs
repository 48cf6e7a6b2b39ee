//! **Experiment E5** — §5.2: the consolidation invariants' traversal cost.
//! CNS holds one latch at a time; CP requires latch coupling (two latches
//! held at every step). The two de-allocation treatments of §5.2.2 then
//! determine how much saved path state re-traversals can trust.
//!
//! Measures search throughput (single- and multi-threaded) over identical
//! trees under each policy, plus the posting re-traversal footprint.
//!
//! Run with: `cargo run --release -p pitree-harness --bin exp5`

use pitree::{ConsolidationPolicy, CrashableStore, DeallocPolicy, PiTree, PiTreeConfig};
use pitree_harness::driver::commit;
use pitree_harness::{KeyDist, Table, Workload};
use pitree_obs::Stopwatch;
use std::sync::Arc;

const KEYS: u64 = 30_000;
const SEARCHES: u64 = 200_000;

fn build(cfg: PiTreeConfig) -> (CrashableStore, Arc<PiTree>) {
    let cs = CrashableStore::create(8192, 1 << 20).unwrap();
    let tree = Arc::new(PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap());
    for i in 0..KEYS {
        commit(&tree, |t| tree.insert(t, &i.to_be_bytes(), b"v"));
    }
    for _ in 0..4 {
        tree.run_completions().unwrap();
    }
    (cs, tree)
}

fn searches(tree: &Arc<PiTree>, threads: u64) -> f64 {
    let per = SEARCHES / threads;
    let start = Stopwatch::start();
    std::thread::scope(|s| {
        for t in 0..threads {
            let tree = Arc::clone(tree);
            s.spawn(move || {
                let mut w = Workload::new(KeyDist::Uniform, KEYS, 5000 + t);
                for _ in 0..per {
                    let _ = tree.get_unlocked(&w.next_key()).unwrap();
                }
            });
        }
    });
    SEARCHES as f64 / (start.elapsed_ns() as f64 / 1e9)
}

fn main() {
    println!("E5: consolidation invariant (CNS vs CP) traversal cost, {KEYS} keys\n");
    let mut table = Table::new(&[
        "policy",
        "search/s 1thr",
        "search/s 8thr",
        "nodes/posting",
        "saved-path hits",
        "saved-path misses",
    ]);
    for (name, consolidation) in [
        ("CNS (no consolidation)", ConsolidationPolicy::Disabled),
        (
            "CP, dealloc=update",
            ConsolidationPolicy::Enabled {
                dealloc: DeallocPolicy::IsAnUpdate,
            },
        ),
        (
            "CP, dealloc=not-update",
            ConsolidationPolicy::Enabled {
                dealloc: DeallocPolicy::NotAnUpdate,
            },
        ),
    ] {
        let mut cfg = PiTreeConfig::small_nodes(32, 32);
        cfg.consolidation = consolidation;
        let (_cs, tree) = build(cfg);
        let s1 = searches(&tree, 1);
        let s8 = searches(&tree, 8);
        let stats = tree.stats();
        let posts = stats.postings_done.get().max(1);
        let touched = stats.posting_nodes_touched.get();
        table.row(&[
            name.into(),
            format!("{s1:.0}"),
            format!("{s8:.0}"),
            format!("{:.2}", touched as f64 / posts as f64),
            stats.saved_path_hits.get().to_string(),
            stats.saved_path_misses.get().to_string(),
        ]);
    }
    table.print();
    println!(
        "\nexpected shape: CNS searches run fastest (one latch per step; §5.2.1);\n\
         CP pays for latch coupling. For postings, CNS and dealloc=update start at\n\
         the remembered parent (~1-2 nodes touched), while dealloc=not-update must\n\
         re-descend from the root (nodes/posting ≈ tree height; §5.2.2)."
    );
}
