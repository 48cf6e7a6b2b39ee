//! `obstop` — run the deterministic observability demo and print the
//! unified metric report from `pitree-obs`.
//!
//! Phases: seeded load + churn workload (splits, postings,
//! consolidations, evictions, WAL traffic, locks), fuzzy checkpoint,
//! report, then a simulated crash + full recovery whose pass timings
//! land in the survivor's registry.
//!
//! ```text
//! cargo run --release --bin obstop
//! PITREE_SIM_SEED=42 cargo run --release --bin obstop
//! ```
//!
//! `OBSERVABILITY.md` documents every line of the output.

use pitree::{PiTree, PiTreeConfig};
use pitree_harness::obsdemo;
use std::sync::Arc;

fn main() {
    // The report is the whole interface: any argument prints the usage
    // line and exits with status 2.
    if std::env::args().len() > 1 {
        eprintln!("usage: obstop");
        std::process::exit(2)
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
