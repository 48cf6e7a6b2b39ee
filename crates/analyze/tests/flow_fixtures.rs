//! Fixture triplets for the pitree-flow rules: each rule has a firing case
//! (fails the gate if the check is ever stubbed out — the no-blind-oracle
//! discipline), a quiet case (the disciplined shape), and a suppressed case
//! (`allow(...)` consumes the finding and is itself marked used, so it does
//! not go stale).
//!
//! The firing cases hide the violation behind a branch, a match guard, a
//! guard move or a guard collection — exactly what the CFG analysis exists
//! to catch, and what a linear token scan cannot see. Log-before-dirty and
//! No-Wait have no fixtures here: types carry them, and their teeth are the
//! `compile_fail` doctests on `XGuard`, `PinnedPage` and `NoWait`.

use analyze::{lint_source, scan_sources, RuleId};

fn scan(files: &[(&str, &str)]) -> analyze::Report {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    scan_sources(&owned)
}

fn rules_of(findings: &[analyze::Finding]) -> Vec<RuleId> {
    findings.iter().map(|f| f.rule).collect()
}

// ---- latch-cycle (§4.1) ---------------------------------------------------

#[test]
fn latch_cycle_fires_on_inverted_acquisition_order() {
    // One function latches page-then-alloc, another alloc-then-page: no
    // global acquisition order exists, which is a potential deadlock no
    // single function exhibits.
    let report = scan(&[(
        "crates/core/src/fake.rs",
        "pub fn forward(pin: &Pin, store: &Store) {\n\
         \x20   let g = pin.x();\n\
         \x20   let alloc = store.space.lock_alloc();\n\
         }\n\
         pub fn backward(pin: &Pin, store: &Store) {\n\
         \x20   let alloc = store.space.lock_alloc();\n\
         \x20   let g = pin.x();\n\
         }\n",
    )]);
    assert!(
        rules_of(&report.findings).contains(&RuleId::LatchCycle),
        "{:?}",
        report.findings
    );
    assert!(report.latch_dot.contains("// acyclic: false"));
}

#[test]
fn latch_cycle_quiet_on_stratified_order() {
    let report = scan(&[(
        "crates/core/src/fake.rs",
        "pub fn forward(pin: &Pin, store: &Store) {\n\
         \x20   let g = pin.x();\n\
         \x20   let alloc = store.space.lock_alloc();\n\
         }\n",
    )]);
    assert!(report.clean(), "{:?}", report.findings);
    assert!(report.latch_dot.contains("// acyclic: true"));
    assert!(report.latch_dot.contains("\"node\" -> \"alloc\""));
}

#[test]
fn latch_cycle_try_edges_are_dashed_and_exempt() {
    // A try_-acquisition against the order is the paper's own sanctioned
    // climb shape (§5.2.2b): rendered dashed, excluded from the check.
    let report = scan(&[(
        "crates/core/src/fake.rs",
        "pub fn forward(pin: &Pin, store: &Store) {\n\
         \x20   let g = pin.x();\n\
         \x20   let alloc = store.space.lock_alloc();\n\
         }\n\
         pub fn climb(pin: &Pin, store: &Store) {\n\
         \x20   let alloc = store.space.lock_alloc();\n\
         \x20   let g = pin.try_x();\n\
         }\n",
    )]);
    assert!(report.clean(), "{:?}", report.findings);
    assert!(report.latch_dot.contains("// acyclic: true"));
    assert!(report.latch_dot.contains("style=dashed"));
}

#[test]
fn latch_cycle_suppressed_edge_is_out_of_the_check_and_not_stale() {
    let report = scan(&[(
        "crates/core/src/fake.rs",
        "pub fn forward(pin: &Pin, store: &Store) {\n\
         \x20   let g = pin.x();\n\
         \x20   let alloc = store.space.lock_alloc();\n\
         }\n\
         pub fn backward(pin: &Pin, store: &Store) {\n\
         \x20   let alloc = store.space.lock_alloc();\n\
         \x20   // pitree-lint: allow(latch-cycle) fixture: edge vetted by hand\n\
         \x20   let g = pin.x();\n\
         }\n",
    )]);
    assert!(report.clean(), "{:?}", report.findings);
    assert!(report.latch_dot.contains("// acyclic: true"));
    assert_eq!(report.allowed.get(&RuleId::LatchCycle), Some(&1));
}

// ---- guard-lifetime -------------------------------------------------------

#[test]
fn guard_lifetime_fires_on_wait_while_latched() {
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn publish(pin: &Pin, wal: &Wal) {\n\
         \x20   let g = pin.x();\n\
         \x20   wal.force();\n\
         \x20   drop(g);\n\
         }\n",
    );
    assert!(rules_of(&f).contains(&RuleId::GuardLifetime), "{f:?}");
}

#[test]
fn guard_lifetime_fires_on_wait_with_guard_held_on_one_path_only() {
    // The else path drops the guard; the then path still holds it across
    // the force. A linear scan sees a drop "before" the wait.
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn publish(pin: &Pin, wal: &Wal, fast: bool) {\n\
         \x20   let g = pin.x();\n\
         \x20   if fast {\n\
         \x20       g.touch();\n\
         \x20   } else {\n\
         \x20       drop(g);\n\
         \x20   }\n\
         \x20   wal.force();\n\
         }\n",
    );
    assert!(rules_of(&f).contains(&RuleId::GuardLifetime), "{f:?}");
}

#[test]
fn guard_lifetime_fires_on_forget_leak() {
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn leak(pin: &Pin) {\n\
         \x20   let g = pin.x();\n\
         \x20   forget(g);\n\
         }\n",
    );
    assert!(rules_of(&f).contains(&RuleId::GuardLifetime), "{f:?}");
}

#[test]
fn guard_lifetime_quiet_when_dropped_before_wait() {
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn publish(pin: &Pin, wal: &Wal) {\n\
         \x20   let g = pin.x();\n\
         \x20   g.touch();\n\
         \x20   drop(g);\n\
         \x20   wal.force();\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn guard_lifetime_quiet_when_guard_moves_into_a_call() {
    // Passing the guard by value hands its release to the callee; the wait
    // afterwards runs unlatched.
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn handoff(pin: &Pin, wal: &Wal, q: &Queue) {\n\
         \x20   let g = pin.x();\n\
         \x20   q.push(g);\n\
         \x20   wal.force();\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn guard_lifetime_suppressed_is_consumed_not_stale() {
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn publish(pin: &Pin, wal: &Wal) {\n\
         \x20   let g = pin.x();\n\
         \x20   // pitree-lint: allow(guard-lifetime) fixture: wait is bounded and the latch is private\n\
         \x20   wal.force();\n\
         \x20   drop(g);\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// ---- artifact and parse coverage -------------------------------------------

#[test]
fn dot_artifact_has_header_edges_and_sites() {
    let report = scan(&[(
        "crates/core/src/fake.rs",
        "pub fn forward(pin: &Pin, store: &Store) {\n\
         \x20   let g = pin.x();\n\
         \x20   let alloc = store.space.lock_alloc();\n\
         }\n",
    )]);
    let dot = &report.latch_dot;
    assert!(dot.starts_with("// pitree-flow latch-acquisition order graph (paper 4.1)"));
    assert!(dot.contains("digraph latch_order"));
    assert!(dot.contains("\"node\" -> \"alloc\""));
    assert!(dot.contains("crates/core/src/fake.rs:3"), "{dot}");
}

#[test]
fn raw_identifiers_do_not_blind_the_scan() {
    // `r#type` must lex as an identifier, not open a raw string that
    // swallows the violation after it (lexer hardening, end to end).
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn publish(pin: &Pin, wal: &Wal) {\n\
         \x20   let g = pin.x();\n\
         \x20   let r#type = 1;\n\
         \x20   wal.force();\n\
         }\n",
    );
    assert!(rules_of(&f).contains(&RuleId::GuardLifetime), "{f:?}");
}

#[test]
fn unfollowed_function_is_a_finding() {
    // There is no fallback tier: a body the parser cannot follow is itself
    // reported, so no rule silently skips it.
    let src = "pub fn weird(pin: &Pin, wal: &Wal) { let g = pin.x(); if x { wal.force(); } }";
    // Sanity: this parses, so the flow rule owns it...
    assert!(rules_of(&lint_source("crates/core/src/fake.rs", src)).contains(&RuleId::GuardLifetime));
    // ...and a parse-defeating body (an `if` with no block) is a finding
    // naming the function.
    let broken = "pub fn weird(pin: &Pin, wal: &Wal) { let y = if x; wal.force(); }";
    let f = lint_source("crates/core/src/fake.rs", broken);
    let hit = f
        .iter()
        .find(|x| x.rule == RuleId::Unfollowed)
        .unwrap_or_else(|| panic!("{f:?}"));
    assert_eq!(hit.line, 1);
    assert!(hit.msg.contains("`weird`"), "{hit:?}");
}

// ---- constructs the parser follows -----------------------------------------

#[test]
fn guard_lifetime_fires_past_a_match_arm_guard() {
    // A match arm with an `if` guard: the guard is read as events, so the
    // leak later in the same function is still seen.
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn leak(pin: &Pin, c: Option<u32>) {\n\
         \x20   let g = pin.x();\n\
         \x20   match c {\n\
         \x20       Some(n) if n > 0 => g.touch(),\n\
         \x20       _ => {}\n\
         \x20   }\n\
         \x20   forget(g);\n\
         }\n",
    );
    assert!(rules_of(&f).contains(&RuleId::GuardLifetime), "{f:?}");
    assert!(!rules_of(&f).contains(&RuleId::Unfollowed), "{f:?}");
}

#[test]
fn guard_lifetime_fires_past_a_matches_guard() {
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn leak(pin: &Pin, c: Option<u32>) -> bool {\n\
         \x20   let g = pin.x();\n\
         \x20   let hot = matches!(c, Some(n) if n > 0);\n\
         \x20   forget(g);\n\
         \x20   hot\n\
         }\n",
    );
    assert!(rules_of(&f).contains(&RuleId::GuardLifetime), "{f:?}");
    assert!(!rules_of(&f).contains(&RuleId::Unfollowed), "{f:?}");
}

// ---- guards held in a collection -----------------------------------------

/// Lock coupling's shape: the root's guard is pushed onto the descent path,
/// `release` runs, and then the leaf is latched and promoted.
fn coupled_descent(release: &str) -> analyze::Report {
    scan(&[(
        "crates/baselines/src/fake.rs",
        &format!(
            "pub fn descend(root: &Pin, leaf: &Pin) {{\n\
             \x20   let mut path = Vec::new();\n\
             \x20   let g = root.u();\n\
             \x20   path.push((root, g));\n\
             \x20   {release}\n\
             \x20   let lg = leaf.u();\n\
             \x20   let xg = lg.promote();\n\
             \x20   write(xg);\n\
             }}\n"
        ),
    )])
}

#[test]
fn latch_order_sees_guards_held_in_a_collection() {
    // The path holds the root's U latch when the leaf is promoted: the
    // promotion fires, and the graph gets the root -> node edge.
    let report = coupled_descent("");
    let hit = report
        .findings
        .iter()
        .find(|x| x.rule == RuleId::LatchOrder)
        .unwrap_or_else(|| panic!("{:?}", report.findings));
    assert_eq!(hit.line, 7);
    assert!(hit.msg.contains("`path`"), "{hit:?}");
    assert!(
        report.latch_dot.contains("\"root\" -> \"node\""),
        "{}",
        report.latch_dot
    );
}

#[test]
fn latch_order_quiet_once_the_collection_releases() {
    for release in ["drop(path);", "path.pop();", "path.drain(..);"] {
        let report = coupled_descent(release);
        assert!(report.clean(), "{release}: {:?}", report.findings);
        assert!(
            !report.latch_dot.contains(" -> "),
            "{release}: {}",
            report.latch_dot
        );
    }
}
