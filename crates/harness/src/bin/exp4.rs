//! **Experiment E4** — §4.2: page-oriented UNDO (move locks, sometimes
//! in-transaction leaf splits, deferred postings) vs logical UNDO (every
//! SMO independent).
//!
//! Multi-insert transactions under both policies: throughput, split
//! placement (in-transaction vs independent), move-lock deferrals, and
//! No-Wait restarts.
//!
//! Run with: `cargo run --release -p pitree-harness --bin exp4`

use pitree::{CrashableStore, PiTree, PiTreeConfig};
use pitree_harness::Table;
use pitree_obs::Stopwatch;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const THREADS: u64 = 8;
const TXNS_PER_THREAD: u64 = 300;
const INSERTS_PER_TXN: u64 = 10;

fn run(cfg: PiTreeConfig) -> (f64, Vec<(&'static str, u64)>, u64) {
    let cs = CrashableStore::create(8192, 1 << 20).unwrap();
    let tree = Arc::new(PiTree::create(Arc::clone(&cs.store), 1, cfg).unwrap());
    let attempts = std::sync::atomic::AtomicU64::new(0);
    let start = Stopwatch::start();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let tree = Arc::clone(&tree);
            let attempts = &attempts;
            s.spawn(move || {
                for b in 0..TXNS_PER_THREAD {
                    // A deadlock victim aborts and re-runs the whole batch.
                    let batch = tree.autocommit(|txn| {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        (0..INSERTS_PER_TXN).try_for_each(|j| {
                            let k = ((b * INSERTS_PER_TXN + j) * THREADS + t).to_be_bytes();
                            tree.insert(txn, &k, b"balance-update").map(drop)
                        })
                    });
                    batch.unwrap().0.commit().unwrap();
                }
            });
        }
    });
    let wall = start.elapsed_ns() as f64 / 1e9;
    for _ in 0..6 {
        tree.run_completions().unwrap();
    }
    let report = tree.validate().unwrap();
    assert!(report.is_well_formed(), "{:?}", report.violations);
    assert_eq!(
        report.records as u64,
        THREADS * TXNS_PER_THREAD * INSERTS_PER_TXN
    );
    (
        (THREADS * TXNS_PER_THREAD * INSERTS_PER_TXN) as f64 / wall,
        tree.stats().snapshot(),
        attempts.load(Ordering::Relaxed) - THREADS * TXNS_PER_THREAD,
    )
}

fn main() {
    println!(
        "E4: UNDO-policy comparison ({THREADS} threads x {TXNS_PER_THREAD} txns x \
         {INSERTS_PER_TXN} inserts)\n"
    );
    let mut table = Table::new(&[
        "policy",
        "inserts/s",
        "splits in-txn",
        "splits indep",
        "move-deferred posts",
        "no-wait restarts",
        "deadlock aborts",
    ]);
    for (name, cfg) in [
        ("logical undo", PiTreeConfig::small_nodes(16, 16)),
        (
            "page-oriented",
            PiTreeConfig::small_nodes(16, 16).page_oriented(),
        ),
    ] {
        let (tput, stats, deadlocks) = run(cfg);
        let get = |k: &str| stats.iter().find(|(n, _)| *n == k).unwrap().1;
        table.row(&[
            name.into(),
            format!("{tput:.0}"),
            get("splits_in_txn").to_string(),
            get("splits_independent").to_string(),
            get("postings_move_deferred").to_string(),
            get("no_wait_restarts").to_string(),
            deadlocks.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nexpected shape: logical undo keeps every split independent (zero in-txn\n\
         splits, zero move-lock deferrals) and sustains higher throughput; the\n\
         page-oriented policy pays for move locks with in-transaction splits,\n\
         deferred postings, restarts, and occasional deadlock aborts (§4.2, §6)."
    );
}
