//! `obstop` — run the deterministic observability demo and print the
//! unified metric report from `pitree-obs`.
//!
//! Phases: seeded load + churn workload (splits, postings,
//! consolidations, evictions, WAL traffic, locks), fuzzy checkpoint,
//! report, the log's byte table (records and bytes per record kind × redo
//! `PageOp` × undo kind, from a scan of the demo's log), then a simulated
//! crash + full recovery whose pass timings land in the survivor's
//! registry.
//!
//! Given the path of a log file (a `FileLogStore`, such as a benchmark
//! image's `store.log`), it prints that log's byte table instead.
//!
//! ```text
//! cargo run --release --bin obstop
//! PITREE_SIM_SEED=42 cargo run --release --bin obstop
//! cargo run --release --bin obstop -- path/to/store.log
//! ```
//!
//! `OBSERVABILITY.md` documents every line of the output.

use pitree::{PiTree, PiTreeConfig};
use pitree_harness::obsdemo;
use pitree_wal::{ByteTable, FileLogStore, LogManager};
use std::path::Path;
use std::sync::Arc;

fn main() {
    // The report is the whole interface: one operand names a log whose
    // byte table to print; anything more prints the usage line and exits
    // with status 2.
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {}
        [log] => return print_log_table(Path::new(log)),
        _ => {
            eprintln!("usage: obstop [LOG_FILE]");
            std::process::exit(2)
        }
    }

    let seed = obsdemo::seed_from_env();
    println!(
        "obstop: seed={seed:#x} (replay with PITREE_SIM_SEED={seed}), \
         pool={} frames, load={} keys, churn={} ops",
        obsdemo::POOL_FRAMES,
        obsdemo::LOAD_KEYS,
        obsdemo::CHURN_OPS
    );
    let run = obsdemo::run(seed);
    println!(
        "workload done: {} records survive validation\n",
        run.records
    );

    println!("---- workload registry ----");
    print!("{}", run.tree.recorder().report());

    println!("\n---- log byte table ----");
    let table = ByteTable::of(run.store.store.log.scan(None)).expect("scan the log");
    print!("{table}");

    // ---- crash + recover: the survivor registry shows the restart cost ----
    println!("\n---- crash + recover ----");
    let survivor = run.store.crash().expect("crash");
    let (tree2, rstats) = PiTree::recover(
        Arc::clone(&survivor.store),
        1,
        PiTreeConfig::small_nodes(8, 8),
    )
    .expect("recover");
    println!(
        "recovery: {} log records scanned, {} redone, {} loser actions undone ({} CLRs)",
        rstats.scanned,
        rstats.redone,
        rstats.losers.len(),
        rstats.clrs_written
    );
    let report = tree2.validate().expect("validate");
    assert!(report.is_well_formed(), "{:?}", report.violations);
    println!("survivor: {} records, well-formed\n", report.records);
    println!("---- survivor registry ----");
    print!("{}", tree2.recorder().report());
}

/// Print the byte table of the log file at `path`.
fn print_log_table(path: &Path) {
    if !path.is_file() {
        eprintln!("obstop: no log file at {}", path.display());
        std::process::exit(2)
    }
    let store = FileLogStore::open(path).expect("open the log file");
    let log = LogManager::open(Arc::new(store)).expect("open the log");
    let table = ByteTable::of(log.scan(None)).expect("scan the log");
    println!("log byte table of {}:", path.display());
    print!("{table}");
}
