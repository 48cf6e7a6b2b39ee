//! Fixture triplets for the pitree-flow rules: each rule has a firing case
//! (fails the gate if the check is ever stubbed out — the no-blind-oracle
//! discipline), a quiet case (the disciplined shape), and a suppressed case
//! (`allow(...)` consumes the finding and is itself marked used, so it does
//! not go stale).
//!
//! The firing cases hide the violation behind a branch, a call chain, a
//! guard move or a guard collection — exactly what the CFG + call-graph
//! analysis exists to catch, and what a linear token scan cannot see.

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
fn guard_lifetime_fires_on_double_drop() {
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn twice(pin: &Pin) {\n\
         \x20   let g = pin.x();\n\
         \x20   drop(g);\n\
         \x20   drop(g);\n\
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

// ---- log-before-dirty as dataflow (§4.3.1) --------------------------------

#[test]
fn flow_lbd_fires_on_branch_conditional_append() {
    // A linear scan sees an append earlier in the token stream and stays
    // quiet; only path-sensitivity sees the unlogged else-path.
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn apply(wal: &Wal, pin: &Pin, logged: bool) {\n\
         \x20   if logged {\n\
         \x20       wal.append(rec);\n\
         \x20   }\n\
         \x20   pin.mark_dirty();\n\
         }\n",
    );
    assert!(rules_of(&f).contains(&RuleId::LogBeforeDirty), "{f:?}");
}

#[test]
fn flow_lbd_fires_through_a_call_chain() {
    // The dirty sits in a helper; the uncalled root never appends. The
    // old per-function scan cannot connect the two.
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn entry(this: &T, pin: &Pin) {\n\
         \x20   poke(pin);\n\
         }\n\
         fn poke(pin: &Pin) {\n\
         \x20   pin.mark_dirty();\n\
         }\n",
    );
    let hit = f.iter().find(|x| x.rule == RuleId::LogBeforeDirty);
    assert!(hit.is_some(), "{f:?}");
    assert!(hit.unwrap().msg.contains("entry"), "{f:?}");
}

#[test]
fn flow_lbd_quiet_when_append_dominates_every_path() {
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn apply(wal: &Wal, pin: &Pin, retry: bool) -> R<()> {\n\
         \x20   wal.append(rec)?;\n\
         \x20   if retry {\n\
         \x20       pin.mark_dirty();\n\
         \x20   } else {\n\
         \x20       pin.mark_dirty_at(0);\n\
         \x20   }\n\
         \x20   Ok(())\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn flow_lbd_takes_append_in_for_an_append() {
    // The log manager's buffer-reusing entry point logs like `append`.
    let src = |append: &str| {
        format!(
            "pub fn apply(wal: &Wal, pin: &Pin, frame: &mut Vec<u8>) {{\n\
             \x20   wal.{append}(frame, rec);\n\
             \x20   pin.mark_dirty();\n\
             }}\n"
        )
    };
    let f = lint_source("crates/core/src/fake.rs", &src("append_in"));
    assert!(f.is_empty(), "{f:?}");
    let f = lint_source("crates/core/src/fake.rs", &src("encode"));
    assert!(f.iter().any(|x| x.rule == RuleId::LogBeforeDirty), "{f:?}");
}

#[test]
fn flow_lbd_quiet_when_a_caller_discharges_the_obligation() {
    // Interprocedural: the only caller appends first, so the helper's
    // dirty is logged on every real path.
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn entry(wal: &Wal, pin: &Pin) {\n\
         \x20   wal.append(rec);\n\
         \x20   poke(pin);\n\
         }\n\
         fn poke(pin: &Pin) {\n\
         \x20   pin.mark_dirty();\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn flow_lbd_suppressed_is_consumed_not_stale() {
    let f = lint_source(
        "crates/core/src/fake.rs",
        "pub fn mkfs(pin: &Pin) {\n\
         \x20   // pitree-lint: allow(log-before-dirty) fixture: formatting a fresh store, no WAL yet\n\
         \x20   pin.mark_dirty();\n\
         }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// ---- interprocedural no-wait (§4.2.2) -------------------------------------

#[test]
fn flow_no_wait_fires_through_a_cross_file_call_chain() {
    // completion.rs itself takes no lock; the blocking probe hides two
    // calls away in another core file.
    let report = scan(&[
        (
            "crates/core/src/completion.rs",
            "pub fn finish(this: &T, store: &Store) {\n\
             \x20   grow(this, store);\n\
             }\n",
        ),
        (
            "crates/core/src/split.rs",
            "pub fn grow(this: &T, store: &Store) {\n\
             \x20   reserve(this, store);\n\
             }\n\
             fn reserve(this: &T, store: &Store) {\n\
             \x20   let alloc = store.space.lock_alloc();\n\
             }\n",
        ),
    ]);
    let hit = report
        .findings
        .iter()
        .find(|x| x.rule == RuleId::NoWait)
        .unwrap_or_else(|| panic!("{:?}", report.findings));
    assert_eq!(hit.path, "crates/core/src/split.rs");
    assert!(hit.msg.contains("finish"), "{hit:?}");
    assert!(hit.msg.contains("reserve"), "{hit:?}");
}

#[test]
fn flow_no_wait_quiet_when_not_reachable_from_completion_paths() {
    // The same blocking probe is fine when only the ordinary insert path
    // (not an SMO completion entry) reaches it.
    let report = scan(&[
        (
            "crates/core/src/completion.rs",
            "pub fn finish(this: &T) {\n\
             \x20   this.step();\n\
             }\n",
        ),
        (
            "crates/core/src/tree.rs",
            "pub fn insert(this: &T, store: &Store) {\n\
             \x20   reserve(this, store);\n\
             }\n\
             fn reserve(this: &T, store: &Store) {\n\
             \x20   let alloc = store.space.lock_alloc();\n\
             }\n",
        ),
    ]);
    assert!(
        !rules_of(&report.findings).contains(&RuleId::NoWait),
        "{:?}",
        report.findings
    );
}

/// The engine's drain in completion.rs reaching a structure crate through
/// `Structure::complete`; `probe` is the lock call the structure makes.
fn drain_into_tsb(probe: &str) -> analyze::Report {
    let tsb_split = format!(
        "pub fn post_index_term(tree: &E, c: C) {{\n\
         \x20   reserve(tree);\n\
         }}\n\
         fn reserve(tree: &E) {{\n\
         \x20   let alloc = tree.store.space.{probe}();\n\
         }}\n"
    );
    scan(&[
        (
            "crates/core/src/completion.rs",
            "pub fn run_completions(&self) {\n\
             \x20   let c = self.completions().pop();\n\
             \x20   S::complete(self, c);\n\
             }\n",
        ),
        (
            "crates/tsbtree/src/tree.rs",
            "fn complete(tree: &E, c: C) {\n\
             \x20   post_index_term(tree, c);\n\
             }\n",
        ),
        ("crates/tsbtree/src/node.rs", &tsb_split),
    ])
}

#[test]
fn flow_no_wait_follows_the_engine_drain_into_a_structure_crate() {
    // TSB and hB completions are dispatched by the engine's one drain loop;
    // a blocking probe three calls away in the structure's own crate is a
    // completion-path violation just like one in core.
    let report = drain_into_tsb("lock_alloc");
    let hit = report
        .findings
        .iter()
        .find(|x| x.rule == RuleId::NoWait)
        .unwrap_or_else(|| panic!("{:?}", report.findings));
    assert_eq!(hit.path, "crates/tsbtree/src/node.rs");
    assert!(hit.msg.contains("run_completions"), "{hit:?}");
    assert!(hit.msg.contains("complete"), "{hit:?}");
}

#[test]
fn flow_no_wait_quiet_when_the_structure_probes_conditionally() {
    let report = drain_into_tsb("try_lock_alloc");
    assert!(
        !rules_of(&report.findings).contains(&RuleId::NoWait),
        "{:?}",
        report.findings
    );
}

/// The engine's posting driver in post.rs calling a structure's
/// `Structure::install_term` hook; `probe` is the lock call the hook makes.
fn posting_driver_into_hb_hook(probe: &str) -> analyze::Report {
    let hb_tree = format!(
        "fn install_term(eng: &E, act: &mut Txn, pin: &P, g: &mut G, post: &C, node: Id) {{\n\
         \x20   let name = eng.key_lock(&post.key);\n\
         \x20   act.{probe}(&name, LockMode::X);\n\
         }}\n"
    );
    scan(&[
        (
            "crates/core/src/post.rs",
            "pub fn post_index_term(&self, post: &C, probe: &A, node: Id) {\n\
             \x20   let mut act = self.begin();\n\
             \x20   self.post_in(&mut act, post, probe);\n\
             }\n\
             fn post_in(&self, act: &mut Txn, post: &C, probe: &A) {\n\
             \x20   let (pin, mut g, node) = self.parent(post);\n\
             \x20   S::install_term(self, act, &pin, &mut g, post, node);\n\
             }\n",
        ),
        ("crates/hbtree/src/tree.rs", &hb_tree),
    ])
}

#[test]
fn flow_no_wait_follows_the_posting_driver_into_a_structure_hook() {
    // The §5.3 loop is the engine's and the hooks are each structure's: a
    // blocking lock inside a hook runs with the parent X-latched, so it is
    // a completion-path violation even though no entry file contains it.
    let report = posting_driver_into_hb_hook("lock");
    let hit = report
        .findings
        .iter()
        .find(|x| x.rule == RuleId::NoWait)
        .unwrap_or_else(|| panic!("{:?}", report.findings));
    assert_eq!(hit.path, "crates/hbtree/src/tree.rs");
    assert!(hit.msg.contains("`post_in` -> `install_term`"), "{hit:?}");
}

#[test]
fn flow_no_wait_quiet_when_the_hook_probes_conditionally() {
    let report = posting_driver_into_hb_hook("try_lock");
    assert!(
        !rules_of(&report.findings).contains(&RuleId::NoWait),
        "{:?}",
        report.findings
    );
}

#[test]
fn flow_no_wait_suppressed_is_consumed_not_stale() {
    let report = scan(&[
        (
            "crates/core/src/completion.rs",
            "pub fn finish(this: &T, store: &Store) {\n\
             \x20   reserve(this, store);\n\
             }\n",
        ),
        (
            "crates/core/src/split.rs",
            "pub fn reserve(this: &T, store: &Store) {\n\
             \x20   // pitree-lint: allow(no-wait) fixture: allocation latch ranks last, cannot invert\n\
             \x20   let alloc = store.space.lock_alloc();\n\
             }\n",
        ),
    ]);
    assert!(report.clean(), "{:?}", report.findings);
    assert_eq!(report.allowed.get(&RuleId::NoWait), Some(&1));
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
        "pub fn apply(pin: &Pin) {\n\
         \x20   let r#type = 1;\n\
         \x20   pin.mark_dirty();\n\
         }\n",
    );
    assert!(rules_of(&f).contains(&RuleId::LogBeforeDirty), "{f:?}");
}

#[test]
fn unfollowed_function_is_a_finding() {
    // There is no fallback tier: a body the parser cannot follow is itself
    // reported, so no rule silently skips it.
    let src = "pub fn weird(pin: &Pin) { if x { pin.mark_dirty(); } }";
    // Sanity: this parses, so the flow rule owns it...
    assert!(
        rules_of(&lint_source("crates/core/src/fake.rs", src)).contains(&RuleId::LogBeforeDirty)
    );
    // ...and a parse-defeating body (an `if` with no block) is a finding
    // naming the function.
    let broken = "pub fn weird(pin: &Pin) { let y = if x; pin.mark_dirty(); }";
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
