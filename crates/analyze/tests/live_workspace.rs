//! The harness gate: the linter's rules hold over the live workspace.
//!
//! This is the same check `scripts/verify.sh` runs via the `pitree-lint`
//! binary; having it as a test means plain `cargo test` also refuses
//! protocol violations (and stale suppressions) anywhere in the tree.

use std::path::Path;

#[test]
fn workspace_is_clean_with_no_stale_allows() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze::scan_workspace(&root).expect("workspace scan");
    assert!(
        report.files > 50,
        "scan must actually cover the workspace, saw {} files",
        report.files
    );
    assert!(
        report.clean(),
        "protocol violations or suppression problems in the live workspace:\n{}\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n"),
        report.summary_table()
    );
}

#[test]
fn workspace_latch_order_graph_is_acyclic_and_stratified() {
    // The deadlock-freedom theorem (paper 4.1): the live workspace's
    // latch-acquisition order graph must be a DAG, and the strata we
    // designed must actually appear as edges — page latches before the
    // allocation latch before the space-map lock. If the parser ever
    // silently stopped seeing acquisitions, the missing edges fail this
    // test rather than vacuously passing the cycle check.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze::scan_workspace(&root).expect("workspace scan");
    let dot = &report.latch_dot;
    assert!(dot.contains("// acyclic: true"), "{dot}");
    assert!(dot.contains("\"alloc\" -> \"spacemap\""), "{dot}");
    assert!(
        dot.matches(" -> ").count() >= 4,
        "the live graph should have several strata:\n{dot}"
    );
}

#[test]
fn workspace_suppressions_are_all_in_use() {
    // `clean()` already fails on stale allows; this asserts the flip side —
    // the allows that do exist are really suppressing something, so the
    // counts in the summary stay honest.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze::scan_workspace(&root).expect("workspace scan");
    let suppressed: usize = report.allowed.values().sum();
    assert!(
        suppressed > 0,
        "the workspace documents its deliberate exceptions via reasoned allows"
    );
}

/// Files the structural parser cannot follow today (18; 23 when measured at
/// 226c2e8, before the crash oracles merged into `pitree_sim::crash`), so
/// the flow tier's proofs skip them — the buffer pool and the WAL among
/// them. The ROADMAP's "finish the diet" direction owns making this list
/// empty. A ceiling: a file may leave the list, none may join.
const UNFOLLOWED_CEILING: &[&str] = &[
    "benchmark/src/pi.rs",
    "benchmark/src/run.rs",
    "crates/analyze/src/cfg.rs",
    "crates/analyze/src/context.rs",
    "crates/analyze/src/flow.rs",
    "crates/analyze/src/lexer.rs",
    "crates/analyze/src/parse.rs",
    "crates/analyze/src/rules.rs",
    "crates/check/src/history.rs",
    "crates/core/tests/tree_identity_and_files.rs",
    "crates/hbtree/src/geometry.rs",
    "crates/pagestore/src/buffer.rs",
    "crates/pagestore/src/page.rs",
    "crates/pagestore/tests/page_proptest.rs",
    "crates/tsbtree/src/node.rs",
    "crates/txnlock/src/modes.rs",
    "crates/txnlock/src/table.rs",
    "crates/wal/src/log.rs",
];

#[test]
fn flow_tier_blind_spots_only_shrink() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze::scan_workspace(&root).expect("workspace scan");
    let joined: Vec<&String> = report
        .unfollowed
        .iter()
        .filter(|f| !UNFOLLOWED_CEILING.contains(&f.as_str()))
        .collect();
    assert!(
        joined.is_empty(),
        "the flow tier stopped following {joined:?}: rewrite the construct the parser \
         trips on (a match arm with an `if` guard is the usual one) — do not extend the list"
    );
    let left: Vec<&&str> = UNFOLLOWED_CEILING
        .iter()
        .filter(|f| !report.unfollowed.iter().any(|u| u == *f))
        .collect();
    assert!(
        left.is_empty(),
        "the flow tier now follows {left:?}: drop them from UNFOLLOWED_CEILING so they cannot rejoin"
    );
    let line = format!(
        "files scanned: {} (flow tier followed {})",
        report.files,
        report.files - report.unfollowed.len()
    );
    assert!(report.summary_table().contains(&line), "{line}");
}
