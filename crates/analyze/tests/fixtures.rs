//! Per-rule fixtures: every rule has at least one firing and one quiet
//! case, plus the suppression grammar's own contract (reason mandatory,
//! stale allows reported, `allow-file` scope). The clippy-enforced
//! disciplines' fixtures run clippy over a throwaway crate (`support`).
//! All sources live in raw strings so the live-workspace scan (which lints
//! this file too, with string literals stripped) never sees them as real
//! code.

mod support;

use analyze::{lint_source, RuleId};
use std::sync::OnceLock;
use support::{
    clippy_fixture, contains_squashed, fires, is_panic_free, lints_in, plain, recovery,
    workspace_root, Lint, Module, PANIC_LINTS,
};

fn rules_of(path: &str, src: &str) -> Vec<RuleId> {
    lint_source(path, src).into_iter().map(|f| f.rule).collect()
}

// ---- R1: latch-order ------------------------------------------------------

#[test]
fn latch_order_fires_on_blocking_climb() {
    let src = r#"
fn complete_posting(&self, path: &SavedPath) {
    for e in path.iter().rev() {
        let pin = self.pool.fetch(e.pid).unwrap();
        let g = pin.x();
        self.use_guard(g);
    }
}
"#;
    let found = lint_source("crates/core/src/fake.rs", src);
    assert!(
        found.iter().any(|f| f.rule == RuleId::LatchOrder),
        "blocking .x() while iterating a saved path in reverse must fire: {found:?}"
    );
}

#[test]
fn latch_order_quiet_on_conditional_climb() {
    let src = r#"
fn complete_posting(&self, path: &SavedPath) {
    for e in path.iter().rev() {
        let pin = self.pool.fetch(e.pid).unwrap();
        let Some(g) = pin.try_x() else { return };
        self.use_guard(g);
    }
}
"#;
    assert!(
        !rules_of("crates/core/src/fake.rs", src).contains(&RuleId::LatchOrder),
        "try_x while climbing is exactly what 5.2.2b prescribes"
    );
}

#[test]
fn latch_order_fires_on_promote_while_latched() {
    let src = r#"
fn post_term(&self, parent: &Pin, child: &Pin) {
    let pg = parent.u();
    let cg = child.u();
    let xg = pg.promote();
    self.write(xg);
}
"#;
    let found = lint_source("crates/core/src/fake.rs", src);
    assert!(
        found.iter().any(|f| f.rule == RuleId::LatchOrder),
        "promoting while a later-ordered U latch is held must fire: {found:?}"
    );
}

#[test]
fn latch_order_quiet_when_promoting_the_only_guard() {
    let src = r#"
fn post_term(&self, parent: &Pin) {
    let pg = parent.u();
    let xg = pg.promote();
    self.write(xg);
}
"#;
    assert!(!rules_of("crates/core/src/fake.rs", src).contains(&RuleId::LatchOrder));
}

#[test]
fn latch_order_quiet_when_earlier_guard_dropped() {
    // A drop/refetch hop pattern: each re-latch is preceded by dropping the
    // previous guard, so only one latch is live at promote.
    let src = r#"
fn walk_and_promote(&self, a: &Pin, b: &Pin) {
    let mut g = a.u();
    drop(g);
    g = b.u();
    let xg = g.promote();
    self.write(xg);
}
"#;
    assert!(!rules_of("crates/core/src/fake.rs", src).contains(&RuleId::LatchOrder));
}

#[test]
fn latch_order_ignores_scope_closed_guards() {
    let src = r#"
fn scoped(&self, a: &Pin, b: &Pin) {
    {
        let g = a.u();
        self.read(&g);
    }
    let h = b.u();
    let xg = h.promote();
    self.write(xg);
}
"#;
    assert!(!rules_of("crates/core/src/fake.rs", src).contains(&RuleId::LatchOrder));
}

// ---- R2: no-wait ----------------------------------------------------------

#[test]
fn no_wait_fires_on_blocking_lock_in_completion_path() {
    let src = r#"
fn complete(&self, owner: Owner, key: &[u8], mode: LockMode) {
    let guard = self.table.lock(owner, key, mode);
    guard.use_it();
}
"#;
    for path in [
        "crates/core/src/completion.rs",
        "crates/core/src/post.rs",
        "crates/core/src/consolidate.rs",
        // The TSB and hB posting/split actions run through the same
        // engine drain, so their files are completion paths too.
        "crates/tsbtree/src/split.rs",
        "crates/hbtree/src/split.rs",
    ] {
        assert!(
            rules_of(path, src).contains(&RuleId::NoWait),
            "blocking lock(..) must fire in {path}"
        );
    }
}

#[test]
fn no_wait_quiet_on_try_variants_and_out_of_scope() {
    let src = r#"
fn complete(&self) {
    let Some(guard) = self.table.try_lock() else { return };
    guard.use_it();
}
"#;
    assert!(!rules_of("crates/core/src/post.rs", src).contains(&RuleId::NoWait));
    assert!(!rules_of("crates/tsbtree/src/split.rs", src).contains(&RuleId::NoWait));
    // The same blocking call outside the completion paths is not R2's business.
    let blocking = "fn f(&self) { let g = self.table.lock(); g.use_it(); }";
    assert!(!rules_of("crates/core/src/tree.rs", blocking).contains(&RuleId::NoWait));
}

// ---- R3: log-before-dirty -------------------------------------------------

#[test]
fn log_before_dirty_fires_without_append() {
    let src = r#"
fn poke(&self, page: &Pin) {
    let mut g = page.x();
    g.set_lsn(Lsn(1));
    page.mark_dirty();
}
"#;
    assert!(rules_of("crates/core/src/fake.rs", src).contains(&RuleId::LogBeforeDirty));
}

#[test]
fn log_before_dirty_quiet_when_logged_first() {
    let src = r#"
fn poke(&self, page: &Pin) {
    let mut g = page.x();
    let lsn = self.log.append(self.id, self.last, rec);
    g.set_lsn(lsn);
    page.mark_dirty();
}
"#;
    assert!(!rules_of("crates/core/src/fake.rs", src).contains(&RuleId::LogBeforeDirty));
}

// ---- Clippy-enforced: panic-free recovery, sync hygiene, determinism ----
//
// These three disciplines are clippy configuration (`clippy.toml` and the
// `#![deny(...)]` each recovery file opens with). Their fixtures are one
// throwaway crate checked by clippy under that configuration.

static CLIPPY: OnceLock<Vec<Lint>> = OnceLock::new();

/// Every fixture module, checked by one clippy run.
const MODULES: &[Module] = &[
    recovery(
        "redo_fires",
        r#"
use std::collections::BTreeMap;

pub fn redo(m: &BTreeMap<u8, u8>, cursor: Option<u8>, v: &[u8]) -> u8 {
    let rec = cursor.unwrap();
    if rec == 0 {
        panic!("torn tail");
    }
    let first = v[0];
    debug_assert!(first != 0);
    m.get(&rec).copied().unwrap_or(first)
}
"#,
    ),
    recovery(
        "redo_quiet",
        r#"
pub fn redo(cursor: Option<u8>, v: &[u8]) -> Result<u8, String> {
    let rec = cursor.ok_or("no record")?;
    let first = v.first().copied().ok_or_else(|| "empty".to_string())?;
    Ok(rec ^ first)
}

#[cfg(test)]
#[expect(clippy::disallowed_macros, reason = "test assertions")]
mod tests {
    #[test]
    fn torn_tail() {
        let v = [1u8];
        assert_eq!(v.first().copied().unwrap(), v[0]);
    }
}
"#,
    ),
    plain(
        "out_of_scope",
        r#"
pub fn f(o: Option<u8>, v: &[u8]) -> u8 {
    assert!(!v.is_empty());
    o.unwrap() ^ v[0]
}
"#,
    ),
    recovery(
        "log_fires",
        r#"
pub fn frame_len(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
}
"#,
    ),
    recovery(
        "log_quiet",
        r#"
pub fn frame_len(buf: &[u8], off: usize) -> Result<u32, String> {
    let Some(len) = buf.get(off..).and_then(|b| b.first_chunk::<4>()) else {
        return Err(format!("torn volatile tail at {off}"));
    };
    Ok(u32::from_le_bytes(*len))
}
"#,
    ),
    recovery(
        "open_fires",
        r#"
pub fn open(rec: &[u8]) -> u64 {
    u64::from_le_bytes(rec[8..16].try_into().expect("registry record"))
}
"#,
    ),
    recovery(
        "open_quiet",
        r#"
pub fn open(rec: &[u8], tree_id: u32) -> Result<u64, String> {
    rec.get(8..16)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| format!("tree {tree_id} not registered"))
}
"#,
    ),
    recovery(
        "walk_fires",
        r#"
pub fn tiling(owned: &[(u32, u64)]) -> Vec<String> {
    let total: u64 = owned.iter().map(|(_, a)| a).sum();
    let first = owned[0].1;
    assert!(first <= total);
    Vec::new()
}
"#,
    ),
    recovery(
        "walk_quiet",
        r#"
pub fn tiling(owned: &[(u32, u64)]) -> Vec<String> {
    let total = owned.iter().try_fold(0u64, |sum, (_, a)| sum.checked_add(*a));
    let first = owned.first().map_or(0, |(_, a)| *a);
    if total.is_none_or(|t| first > t) {
        return vec!["owned regions overflow the space".to_string()];
    }
    Vec::new()
}
"#,
    ),
    recovery(
        "instant_fires",
        r#"
use std::collections::BTreeMap;

pub fn redo_page(plan: &[BTreeMap<u64, Vec<u8>>], page: u64) -> Vec<u8> {
    let shard = &plan[page as usize % plan.len()];
    shard.get(&page).cloned().unwrap()
}
"#,
    ),
    recovery(
        "instant_quiet",
        r#"
use std::collections::BTreeMap;

pub fn redo_page(plan: &[BTreeMap<u64, Vec<u8>>], page: u64) -> Result<Vec<u8>, String> {
    let slot = plan
        .get(page as usize % plan.len().max(1))
        .ok_or_else(|| format!("no plan shard for page {page}"))?;
    Ok(slot.get(&page).cloned().unwrap_or_default())
}
"#,
    ),
    plain(
        "sync_path",
        r#"
use std::sync::Mutex;

pub fn f(m: &Mutex<u8>) -> bool {
    m.try_lock().is_ok()
}
"#,
    ),
    plain(
        "sync_group",
        r#"
use std::sync::{Arc, Mutex};

pub fn f(m: Arc<Mutex<u8>>) -> Arc<Mutex<u8>> {
    m
}
"#,
    ),
    plain(
        "sync_instant",
        r#"
use std::time::Instant;

pub fn f() -> Instant {
    Instant::now()
}
"#,
    ),
    plain(
        "sync_wrappers",
        r#"
use pitree_obs::Stopwatch;
use pitree_pagestore::sync::{Condvar, Mutex};
use std::sync::Arc;

pub fn f(m: &Arc<Mutex<u8>>, c: &Condvar) -> u64 {
    let clock = Stopwatch::start();
    drop(m.lock());
    c.notify_all();
    clock.elapsed_ns()
}
"#,
    ),
    plain(
        "sync_sanctioned",
        r#"
#![expect(clippy::disallowed_types, reason = "the wrappers' own home")]

use std::sync::Mutex;
use std::time::Instant;

pub struct Timed(pub Mutex<u8>, pub Instant);
"#,
    ),
    plain(
        "det_sim",
        r#"
pub fn seed() -> u64 {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let salt = std::env::var("SALT").unwrap_or_default();
    t ^ salt.len() as u64
}
"#,
    ),
    plain(
        "det_test",
        r#"
#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hasher};

    #[test]
    fn shaky() {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write_u64(42);
        let salt = std::hash::RandomState::new().hash_one(7u8);
        let _ = h.finish() ^ salt;
    }
}
"#,
    ),
];

fn clippy() -> &'static [Lint] {
    CLIPPY.get_or_init(|| clippy_fixture("rule_fixtures", MODULES))
}

/// The panic-free lints clippy reports in `module`.
fn panic_lints(module: &str) -> Vec<&'static Lint> {
    lints_in(clippy(), module)
        .into_iter()
        .filter(|l| PANIC_LINTS.contains(&l.lint.as_str()))
        .collect()
}

#[test]
fn panic_free_fires_on_unwrap_macro_and_indexing() {
    let found = panic_lints("redo_fires");
    for lint in [
        "clippy::unwrap_used",
        "clippy::panic",
        "clippy::indexing_slicing",
        "clippy::disallowed_macros",
    ] {
        assert!(
            found.iter().any(|l| l.lint == lint),
            "unwrap + panic! + v[0] + debug_assert! should all fire, {lint} missing: {found:?}"
        );
    }
    // The same shapes fire in any */undo.rs: each carries the deny line.
    for path in [
        "crates/core/src/undo.rs",
        "crates/tsbtree/src/undo.rs",
        "crates/hbtree/src/undo.rs",
        "crates/wal/src/recovery.rs",
    ] {
        assert!(is_panic_free(path), "{path} lost its panic-free deny line");
    }
}

#[test]
fn panic_free_quiet_on_typed_errors_and_tests() {
    let found = lints_in(clippy(), "redo_quiet");
    assert!(
        found.is_empty(),
        "typed-error production code and unwrap-happy tests are both fine: {found:?}"
    );
}

#[test]
fn panic_free_out_of_scope_elsewhere() {
    let found = panic_lints("out_of_scope");
    assert!(
        found.is_empty(),
        "a file without the deny line may unwrap, index and assert: {found:?}"
    );
}

#[test]
fn panic_free_covers_log_manager() {
    // The group-commit log manager parses volatile tail frames in
    // `force_to`; a torn frame is an input, so unwrap-class aborts are
    // protocol violations there just as in recovery.rs.
    assert!(is_panic_free("crates/wal/src/log.rs"));
    let fires = panic_lints("log_fires");
    assert!(
        fires.iter().any(|l| l.lint == "clippy::unwrap_used")
            && fires.iter().any(|l| l.lint == "clippy::indexing_slicing"),
        "unwrap on a torn tail frame must fire: {fires:?}"
    );
    let quiet = lints_in(clippy(), "log_quiet");
    assert!(
        quiet.is_empty(),
        "checked parsing with typed errors is the sanctioned shape: {quiet:?}"
    );
}

#[test]
fn panic_free_covers_the_engine_lifecycle() {
    // `Engine::open` runs inside restart for every structure — from
    // `recover`/`recover_instant` and from the lazily opening undo handler —
    // and reads meta-page records that a crash may have left in any state.
    assert!(is_panic_free("crates/core/src/engine.rs"));
    let fires = panic_lints("open_fires");
    assert!(
        fires.iter().any(|l| l.lint == "clippy::expect_used")
            && fires.iter().any(|l| l.lint == "clippy::indexing_slicing"),
        "slicing + expect on a registry record must fire: {fires:?}"
    );
    let quiet = lints_in(clippy(), "open_quiet");
    assert!(
        quiet.is_empty(),
        "checked decoding with typed errors is the sanctioned shape: {quiet:?}"
    );
}

#[test]
fn panic_free_covers_the_wellformedness_walk() {
    // The walk verifies every recovered image, so a damaged node it reaches
    // is an input to report, in any structure's `wellformed.rs`.
    for path in [
        "crates/core/src/wellformed.rs",
        "crates/tsbtree/src/wellformed.rs",
        "crates/hbtree/src/wellformed.rs",
    ] {
        assert!(is_panic_free(path), "{path} lost its panic-free deny line");
    }
    let fires = panic_lints("walk_fires");
    assert!(
        fires.iter().any(|l| l.lint == "clippy::indexing_slicing")
            && fires.iter().any(|l| l.lint == "clippy::disallowed_macros"),
        "indexing + assert! in the walk must fire: {fires:?}"
    );
    let quiet = lints_in(clippy(), "walk_quiet");
    assert!(
        quiet.is_empty(),
        "checked arithmetic reported as a violation is the sanctioned shape: {quiet:?}"
    );
}

#[test]
fn panic_free_covers_instant_restart() {
    // On-demand redo runs inside every post-crash fetch: a panic there
    // takes down the *serving* store, not a recovery tool, so the
    // instant-restart module is held to the same standard.
    assert!(is_panic_free("crates/wal/src/instant.rs"));
    let fires = panic_lints("instant_fires");
    assert!(
        fires.iter().any(|l| l.lint == "clippy::unwrap_used")
            && fires.iter().any(|l| l.lint == "clippy::indexing_slicing"),
        "indexing + unwrap in the redo plan must fire: {fires:?}"
    );
    let quiet = lints_in(clippy(), "instant_quiet");
    assert!(
        quiet.is_empty(),
        "checked shard lookup with typed errors is the sanctioned shape: {quiet:?}"
    );
}

#[test]
fn sync_hygiene_fires_on_std_sync_and_instant() {
    let disallowed = |module: &str| -> Vec<String> {
        lints_in(clippy(), module)
            .into_iter()
            .filter(|l| l.lint == "clippy::disallowed_types")
            .map(|l| l.message.clone())
            .collect()
    };
    let path_form = disallowed("sync_path");
    assert!(
        path_form.iter().any(|m| m.contains("std::sync::Mutex")),
        "{path_form:?}"
    );
    let group_form = disallowed("sync_group");
    assert!(
        group_form.iter().any(|m| m.contains("std::sync::Mutex"))
            && !group_form.iter().any(|m| m.contains("Arc")),
        "Mutex fires, Arc in the same group does not: {group_form:?}"
    );
    let instant = disallowed("sync_instant");
    assert!(
        instant.iter().any(|m| m.contains("std::time::Instant")),
        "{instant:?}"
    );
}

#[test]
fn sync_hygiene_quiet_on_wrappers_and_sanctioned_files() {
    for module in ["sync_wrappers", "sync_sanctioned"] {
        let found = lints_in(clippy(), module);
        assert!(
            found.is_empty(),
            "the wrappers, and a file that expects the lint, are quiet: {found:?}"
        );
    }
    // The wrapper module and the observability crate define the primitives,
    // and each says so once.
    for path in ["crates/pagestore/src/sync.rs", "crates/obs/src/lib.rs"] {
        let src = std::fs::read_to_string(workspace_root().join(path)).expect(path);
        assert!(
            contains_squashed(&src, "#![expect(clippy::disallowed_types,"),
            "{path} is a sanctioned home of the raw primitives"
        );
    }
}

#[test]
fn determinism_fires_in_sim_code() {
    let found = lints_in(clippy(), "det_sim");
    assert!(
        fires(clippy(), "det_sim", "clippy::disallowed_types")
            && fires(clippy(), "det_sim", "clippy::disallowed_methods"),
        "SystemTime and env::var must both fire: {found:?}"
    );
}

#[test]
fn determinism_applies_to_sim_driven_tests_including_test_code() {
    let found: Vec<&str> = lints_in(clippy(), "det_test")
        .into_iter()
        .filter(|l| l.lint == "clippy::disallowed_types")
        .map(|l| l.message.as_str())
        .collect();
    assert!(
        found.iter().any(|m| m.contains("DefaultHasher"))
            && found.iter().any(|m| m.contains("RandomState")),
        "seeded hashers fire inside #[test] fns, through the hash_map alias too: {found:?}"
    );
}

// ---- Suppressions ---------------------------------------------------------

#[test]
fn allow_with_reason_suppresses_next_line() {
    let src = r#"
fn poke(&self, page: &Pin) {
    // pitree-lint: allow(log-before-dirty) formatting a fresh store with no WAL yet
    page.mark_dirty();
}
"#;
    assert!(
        lint_source("crates/core/src/fake.rs", src).is_empty(),
        "a reasoned allow on the preceding line must suppress the finding"
    );
}

#[test]
fn allow_with_reason_suppresses_same_line() {
    let src = r#"
fn poke(&self, page: &Pin) {
    page.mark_dirty(); // pitree-lint: allow(log-before-dirty) fresh store, no WAL yet
}
"#;
    assert!(lint_source("crates/core/src/fake.rs", src).is_empty());
}

#[test]
fn allow_without_reason_is_rejected() {
    let src = r#"
fn poke(&self, page: &Pin) {
    // pitree-lint: allow(log-before-dirty)
    page.mark_dirty();
}
"#;
    let found = lint_source("crates/core/src/fake.rs", src);
    assert!(
        found.iter().any(|f| f.rule == RuleId::LintAllow),
        "reasonless allow must be a finding itself: {found:?}"
    );
    assert!(
        found.iter().any(|f| f.rule == RuleId::LogBeforeDirty),
        "and it must NOT suppress the violation: {found:?}"
    );
}

#[test]
fn unknown_rule_in_allow_is_rejected() {
    let src = "// pitree-lint: allow(made-up-rule) because reasons\nfn f() {}";
    let found = lint_source("crates/core/src/fake.rs", src);
    assert!(found.iter().any(|f| f.rule == RuleId::LintAllow));
}

#[test]
fn stale_allow_is_reported() {
    let src = r#"
fn poke(&self) {
    // pitree-lint: allow(log-before-dirty) the violation this excused is long gone
    self.nothing_dirty_here();
}
"#;
    let found = lint_source("crates/core/src/fake.rs", src);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, RuleId::StaleAllow);
    assert_eq!(found[0].line, 3);
}

#[test]
fn allow_does_not_cover_other_rules_or_far_lines() {
    let src = r#"
fn poke(&self, page: &Pin) {
    // pitree-lint: allow(no-wait) wrong rule for what actually fires here
    page.mark_dirty();
}
"#;
    let found = lint_source("crates/core/src/fake.rs", src);
    assert!(
        found.iter().any(|f| f.rule == RuleId::LogBeforeDirty),
        "an allow for a different rule must not suppress: {found:?}"
    );
    assert!(
        found.iter().any(|f| f.rule == RuleId::StaleAllow),
        "and the mismatched allow is stale: {found:?}"
    );

    let far = r#"
fn poke(&self, page: &Pin) {
    // pitree-lint: allow(log-before-dirty) too far away to bind

    page.mark_dirty();
}
"#;
    let found = lint_source("crates/core/src/fake.rs", far);
    assert!(
        found.iter().any(|f| f.rule == RuleId::LogBeforeDirty),
        "a line allow only covers its own and the next line: {found:?}"
    );
}

#[test]
fn allow_file_covers_every_instance_of_its_rule() {
    let src = r#"
// pitree-lint: allow-file(log-before-dirty) this module is deliberately non-recoverable
fn a(&self, p: &Pin) { p.mark_dirty(); }
fn b(&self, p: &Pin) { p.mark_dirty(); }
"#;
    assert!(lint_source("crates/core/src/fake.rs", src).is_empty());
}

#[test]
fn malformed_directive_is_rejected() {
    let src = "// pitree-lint: allcw(no-wait) typo in the verb\nfn f() {}";
    let found = lint_source("crates/core/src/fake.rs", src);
    assert!(found.iter().any(|f| f.rule == RuleId::LintAllow));

    let unterminated = "// pitree-lint: allow(no-wait never closed\nfn f() {}";
    let found = lint_source("crates/core/src/fake.rs", unterminated);
    assert!(found.iter().any(|f| f.rule == RuleId::LintAllow));
}

// ---- Output format --------------------------------------------------------

#[test]
fn findings_render_as_path_line_rule_message() {
    let src = "fn f(&self, p: &Pin) { p.mark_dirty(); }";
    let found = lint_source("crates/core/src/fake.rs", src);
    assert_eq!(found.len(), 1);
    let line = found[0].to_string();
    assert!(
        line.starts_with("crates/core/src/fake.rs:1: log-before-dirty: "),
        "finding must render grep-ably: {line}"
    );
}
