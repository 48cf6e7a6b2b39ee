//! The harness gate: the linter's rules hold over the live workspace.
//!
//! This is the same check `scripts/verify.sh` runs via the `pitree-lint`
//! binary; having it as a test means plain `cargo test` also refuses
//! protocol violations, stale suppressions and functions the flow rules
//! cannot follow anywhere in the tree.

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
    // allocation latch before the space-map lock, and lock coupling's
    // descent holding its path. If the parser ever silently stopped seeing
    // acquisitions, the missing edges fail this test rather than vacuously
    // passing the cycle check.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze::scan_workspace(&root).expect("workspace scan");
    let dot = &report.latch_dot;
    assert!(dot.contains("// acyclic: true"), "{dot}");
    assert!(dot.contains("\"alloc\" -> \"spacemap\""), "{dot}");
    assert!(
        dot.lines().any(
            |l| l.contains("\"node\" -> \"node\"") && l.contains("crates/baselines/src/lib.rs")
        ),
        "{dot}"
    );
    assert!(
        dot.matches(" -> ").count() >= 15,
        "the live graph should keep all 15 measured edges:\n{dot}"
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
