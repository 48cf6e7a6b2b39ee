//! The sim-determinism gate for the observability layer: the same seed
//! must render a **byte-identical** `== counters ==` section, because the
//! demo workload makes no timing-dependent decisions. Histograms observe
//! wall time and are left out. This is what makes `obstop` reports
//! diffable under `PITREE_SIM_SEED`.

use pitree::{PiTree, PiTreeConfig};
use pitree_harness::obsdemo;
use std::sync::Arc;

/// The `== counters ==` section of a seeded demo run's report.
fn counters(seed: u64) -> String {
    let report = obsdemo::run(seed).tree.recorder().report();
    let end = report
        .find("== histograms")
        .expect("report has a histogram section");
    report[..end].to_owned()
}

#[test]
fn counters_match_across_same_seed_runs() {
    let a = counters(0xFEED);
    assert!(a.contains("tree.splits"), "the demo must split");
    assert_eq!(
        a,
        counters(0xFEED),
        "same-seed runs diverged: the counter report is not deterministic"
    );
}

#[test]
fn different_seeds_shuffle_differently() {
    // Sanity check that the gate above is not trivially true: a different
    // seed produces different (but still valid) counters.
    assert_ne!(counters(1), counters(2));
}

/// The counter and histogram names in a registry report.
fn metric_names(report: &str) -> Vec<String> {
    report
        .lines()
        .filter(|line| !line.starts_with("==") && !line.starts_with("name "))
        .filter_map(|line| line.split_whitespace().next())
        .map(str::to_owned)
        .collect()
}

#[test]
fn every_registered_metric_is_documented() {
    let doc = include_str!("../../../OBSERVABILITY.md");
    let run = obsdemo::run(0xD0C5);
    let mut names = metric_names(&run.tree.recorder().report());
    // One recovery, so the `recovery.*` names register in the survivor.
    let survivor = run.store.crash().unwrap();
    let (tree, _) = PiTree::recover(
        Arc::clone(&survivor.store),
        1,
        PiTreeConfig::small_nodes(8, 8),
    )
    .unwrap();
    names.extend(metric_names(&tree.recorder().report()));
    assert!(names.iter().any(|n| n.starts_with("recovery.")));
    let undocumented: Vec<&String> = names
        .iter()
        .filter(|name| {
            // Per-shard roll-ups are documented by their pattern.
            let shard = name
                .strip_prefix("buf.shard")
                .filter(|rest| rest.starts_with(|c: char| c.is_ascii_digit()));
            let pattern = match shard {
                Some(rest) => format!(
                    "buf.shardNN{}",
                    rest.trim_start_matches(|c: char| c.is_ascii_digit())
                ),
                None => name.to_string(),
            };
            !doc.contains(&format!("`{pattern}`"))
        })
        .collect();
    assert!(
        undocumented.is_empty(),
        "metrics missing from OBSERVABILITY.md: {undocumented:?}"
    );
}
