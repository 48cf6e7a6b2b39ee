//! The sim-determinism gate for the observability layer: the same seed
//! must produce a **byte-identical** event stream, because events are
//! stamped with the registry's logical clock (never wall time) and the
//! demo workload makes no timing-dependent decisions. This is what makes
//! `obstop --jsonl` dumps replayable/diffable under `PITREE_SIM_SEED`.

use pitree::{PiTree, PiTreeConfig};
use pitree_harness::obsdemo;
use std::sync::Arc;

#[test]
fn same_seed_runs_emit_byte_identical_event_streams() {
    let a = obsdemo::run(0xDECAF);
    let dump_a = a.tree.recorder().registry().events_jsonl();
    drop(a);
    let b = obsdemo::run(0xDECAF);
    let dump_b = b.tree.recorder().registry().events_jsonl();

    assert!(!dump_a.is_empty(), "the demo must emit events");
    assert_eq!(
        dump_a, dump_b,
        "same-seed runs diverged: the event stream is not deterministic"
    );
}

#[test]
fn different_seeds_shuffle_differently() {
    // Sanity check that the gate above is not trivially true: a different
    // seed produces a different (but still valid) stream.
    let a = obsdemo::run(1);
    let dump_a = a.tree.recorder().registry().events_jsonl();
    drop(a);
    let b = obsdemo::run(2);
    let dump_b = b.tree.recorder().registry().events_jsonl();
    assert_ne!(dump_a, dump_b);
}

#[test]
fn counters_match_across_same_seed_runs() {
    let a = obsdemo::run(0xFEED);
    let rec_a = a.tree.recorder().clone();
    let report_a = rec_a.report();
    drop(a);
    let b = obsdemo::run(0xFEED);
    // Counters (unlike wall-clock histograms) must agree exactly.
    for name in [
        "latch.acquire_s",
        "latch.acquire_x",
        "buf.hits",
        "buf.misses",
        "buf.dirty_evictions",
        "wal.appends",
        "wal.forces",
        "lock.acquires",
        "action.begins",
        "action.commits",
        "tree.splits",
    ] {
        assert_eq!(
            rec_a.counter(name).get(),
            b.tree.recorder().counter(name).get(),
            "counter {name} diverged across same-seed runs"
        );
    }
    assert!(report_a.contains("tree.splits"));
}

/// The counter and histogram names in a registry report.
fn metric_names(report: &str) -> Vec<String> {
    report
        .lines()
        .take_while(|line| !line.starts_with("== events =="))
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
