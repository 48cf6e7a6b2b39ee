//! The harness gate: the linter's rules hold over the live workspace.
//!
//! This is the same check `scripts/verify.sh` runs via the `pitree-lint`
//! binary; having it as a test means plain `cargo test` also refuses
//! protocol violations, stale suppressions and functions the flow rules
//! cannot follow anywhere in the tree. The clippy-enforced disciplines
//! (panic-free recovery, sync hygiene, determinism) run here too: one
//! `cargo clippy -D warnings` over the workspace.

mod support;

use std::path::Path;
use std::process::Command;
use support::{is_panic_free, workspace_root, PANIC_FREE_FILES};

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
    // `clean()` already fails on stale allows; this asserts the flip side,
    // and more: the workspace suppresses nothing. The cases the allows once
    // excused (pre-append dirty marking, redo, store formatting, the
    // allocation latch on a completion path) are legal code under the types
    // that carry log-before-dirty and No-Wait, so a new allow is a new
    // exception to argue for, not a count to keep.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze::scan_workspace(&root).expect("workspace scan");
    assert!(
        report.allowed.is_empty(),
        "the workspace suppresses findings: {:?}",
        report.allowed
    );
}

#[test]
fn workspace_passes_the_clippy_gate() {
    // The configuration must still name every banned path and every
    // recovery file must still deny the panicking lints; otherwise a clean
    // clippy run below would pass vacuously.
    let root = workspace_root();
    let toml = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    for path in [
        "std::sync::Mutex",
        "std::sync::RwLock",
        "std::sync::Condvar",
        "std::time::Instant",
        "std::time::SystemTime",
        "std::hash::RandomState",
        "std::hash::DefaultHasher",
        "std::env::var",
        "std::env::var_os",
        "std::assert",
        "std::assert_eq",
        "std::assert_ne",
    ] {
        assert!(
            toml.contains(&format!("path = \"{path}\"")),
            "clippy.toml no longer bans {path}"
        );
    }
    let unscoped: Vec<&str> = PANIC_FREE_FILES
        .into_iter()
        .filter(|f| !is_panic_free(f))
        .collect();
    assert!(
        unscoped.is_empty(),
        "recovery files without the panic-free deny line: {unscoped:?}"
    );

    // The same command `scripts/verify.sh` used to run as its own step.
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--workspace", "--all-targets"])
        .args(["--", "-D", "warnings"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join("target/clippy"))
        .output()
        .expect("spawning cargo clippy (the gate needs clippy installed)");
    assert!(
        out.status.success(),
        "cargo clippy --workspace --all-targets -- -D warnings failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
