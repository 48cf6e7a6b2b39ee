//! **Experiment E3** — §1 point 4: "When a system crash occurs during the
//! sequence of atomic actions that constitutes a complete Π-tree structure
//! change, crash recovery takes no special measures."
//!
//! Runs a split-heavy workload, then crashes at every k-th durable-log
//! record boundary (plus torn mid-record positions). For each crash point:
//! recover, validate well-formedness, count surviving intermediate states,
//! and verify lazy completion resolves them. Reports aggregate statistics.
//!
//! Run with: `cargo run --release -p pitree-harness --bin exp3`

use pitree::{CrashableStore, PiTree, PiTreeConfig};
use pitree_harness::driver::commit;
use pitree_harness::workload::key;
use pitree_harness::Table;
use pitree_obs::Stopwatch;
use std::sync::Arc;

fn main() {
    println!("E3: crash-point sweep during structure changes\n");
    let mut table = Table::new(&[
        "config",
        "crash points",
        "well-formed",
        "avg recover ms",
        "max intermediate",
        "completed after",
    ]);

    for (name, cfg, stride) in [
        ("CP + logical undo", PiTreeConfig::small_nodes(4, 4), 1usize),
        (
            "CNS + logical undo",
            {
                let mut c = PiTreeConfig::small_nodes(4, 4);
                c.consolidation = pitree::ConsolidationPolicy::Disabled;
                c
            },
            2,
        ),
        (
            "CP + page-oriented",
            PiTreeConfig::small_nodes(4, 4).page_oriented(),
            2,
        ),
    ] {
        // Build the workload: enough inserts for several levels of splits,
        // with manual completion so intermediate states persist.
        let mut build_cfg = cfg;
        build_cfg.auto_complete = false;
        let cs = CrashableStore::create(512, 100_000).unwrap();
        let tree = PiTree::create(Arc::clone(&cs.store), 1, build_cfg).unwrap();
        for i in 0..64u64 {
            commit(&tree, |t| tree.insert(t, &key(i), b"value"));
            if i % 16 == 0 {
                tree.run_completions().unwrap();
            }
        }
        drop(tree);
        cs.store.log.force_all().unwrap();

        let records: Vec<_> = cs
            .store
            .log
            .scan(None)
            .collect::<Result<_, _>>()
            .expect("scan");
        let mut cuts: Vec<u64> = records
            .iter()
            .enumerate()
            .filter(|(i, _)| i % stride == 0)
            .map(|(_, r)| r.lsn.0 - 1)
            .collect();
        cuts.push(cs.durable_log_len());
        cuts.push(cs.durable_log_len().saturating_sub(3)); // torn tail

        let mut tested = 0usize;
        let mut all_wf = true;
        let mut total_ms = 0.0;
        let mut max_intermediate = 0usize;
        let mut all_completed = true;
        for &cut in &cuts {
            let cs2 = cs.crash_with_log_prefix(cut).unwrap();
            let t0 = Stopwatch::start();
            let Ok((tree2, _stats)) = PiTree::recover(Arc::clone(&cs2.store), 1, build_cfg) else {
                continue; // pre-creation prefix
            };
            total_ms += t0.elapsed_ns() as f64 / 1e6;
            tested += 1;
            let report = tree2.validate().unwrap();
            all_wf &= report.is_well_formed();
            max_intermediate = max_intermediate.max(report.unposted_nodes);
            // Normal processing + completion must resolve intermediate states.
            for i in 0..64u64 {
                let _ = tree2.get_unlocked(&key(i)).unwrap();
            }
            for _ in 0..4 {
                tree2.run_completions().unwrap();
            }
            let after = tree2.validate().unwrap();
            all_completed &= after.is_well_formed() && after.unposted_nodes == 0;
        }
        table.row(&[
            name.into(),
            tested.to_string(),
            if all_wf {
                "all".into()
            } else {
                "VIOLATIONS".to_string()
            },
            format!("{:.2}", total_ms / tested as f64),
            max_intermediate.to_string(),
            if all_completed {
                "all".into()
            } else {
                "INCOMPLETE".to_string()
            },
        ]);
    }
    table.print();
    println!(
        "\nexpected shape: every crash point recovers to a well-formed tree with zero\n\
         special-case recovery code; intermediate states (split done, term unposted)\n\
         survive crashes and are finished lazily by ordinary traversals."
    );
}
