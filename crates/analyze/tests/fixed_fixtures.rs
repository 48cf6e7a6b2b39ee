//! Negative-path fixtures: for every rule, a broken source that fires and
//! the *remediated* source — the fix the diagnostic message prescribes,
//! never a `pitree-lint: allow` or clippy `expect` suppression — shown to
//! be quiet.
//!
//! `fixtures.rs` proves each rule has teeth; this file proves the advice
//! in each rule's message is actually sufficient to silence it. If a rule
//! tightens until its own prescribed fix no longer passes, these tests
//! catch the contradiction. The clippy-enforced disciplines run clippy over
//! a throwaway crate (`support`). All sources live in raw strings so the
//! live-workspace scan (which lints this file too, with string literals
//! stripped) never sees them as real code.

mod support;

use analyze::{lint_source, RuleId};
use std::sync::OnceLock;
use support::{clippy_fixture, lints_in, plain, recovery, Lint, Module};

/// Assert `broken` fires `rule` at `path` and `fixed` does not. The fixed
/// source must not lean on the suppression grammar.
fn assert_fix_silences(rule: RuleId, path: &str, broken: &str, fixed: &str) {
    assert!(
        !fixed.contains("pitree-lint"),
        "fixed fixture for {rule} must apply the fix, not a suppression"
    );
    let fired = lint_source(path, broken);
    assert!(
        fired.iter().any(|f| f.rule == rule),
        "broken fixture for {rule} did not fire: {fired:?}"
    );
    let still = lint_source(path, fixed);
    assert!(
        !still.iter().any(|f| f.rule == rule),
        "the prescribed fix did not silence {rule}: {still:?}"
    );
}

/// R1 fix: climbing a saved path switches from blocking `.x()` to
/// `try_x()` with a give-up arm (paper 5.2.2b — abandon the climb and
/// retry from the top rather than block against the search order).
#[test]
fn latch_order_fix_is_conditional_climb() {
    let broken = r#"
fn complete_posting(&self, path: &SavedPath) {
    for e in path.iter().rev() {
        let pin = self.pool.fetch(e.pid).unwrap();
        let g = pin.x();
        self.use_guard(g);
    }
}
"#;
    let fixed = r#"
fn complete_posting(&self, path: &SavedPath) {
    for e in path.iter().rev() {
        let pin = self.pool.fetch(e.pid).unwrap();
        let Some(g) = pin.try_x() else { return };
        self.use_guard(g);
    }
}
"#;
    assert_fix_silences(RuleId::LatchOrder, "crates/core/src/fake.rs", broken, fixed);
}

/// R1 fix (promotion shape): drop the later-ordered guard before
/// promoting, instead of promoting while it is held (paper 4.1.1).
#[test]
fn latch_order_fix_is_drop_before_promote() {
    let broken = r#"
fn post_term(&self, parent: &Pin, child: &Pin) {
    let pg = parent.u();
    let cg = child.u();
    let xg = pg.promote();
    self.write(xg);
}
"#;
    let fixed = r#"
fn post_term(&self, parent: &Pin, child: &Pin) {
    let pg = parent.u();
    let cg = child.u();
    drop(cg);
    let xg = pg.promote();
    self.write(xg);
}
"#;
    assert_fix_silences(RuleId::LatchOrder, "crates/core/src/fake.rs", broken, fixed);
}

/// R2 fix: a completion path replaces a blocking `lock(..)` with the
/// `try_lock(..)` probe the No-Wait Rule demands, handling refusal by
/// giving up (paper 4.2.2).
#[test]
fn no_wait_fix_is_try_variant() {
    let broken = r#"
fn complete(&self, owner: Owner, key: &[u8]) -> StoreResult<()> {
    let guard = self.table.lock(owner, key, LockMode::X);
    guard.use_it();
    Ok(())
}
"#;
    let fixed = r#"
fn complete(&self, owner: Owner, key: &[u8]) -> StoreResult<()> {
    let Ok(guard) = self.table.try_lock(owner, key, LockMode::X) else {
        return Ok(()); // refused: leave the SMO for a later completion
    };
    guard.use_it();
    Ok(())
}
"#;
    assert_fix_silences(
        RuleId::NoWait,
        "crates/core/src/completion.rs",
        broken,
        fixed,
    );
}

/// R3 fix: the WAL append moves ahead of `mark_dirty` in the same
/// function (paper 4.3.1 — the log record must exist before the change is
/// visible to write-back).
#[test]
fn log_before_dirty_fix_is_append_first() {
    let broken = r#"
fn apply(&self, page: &mut Guard) -> StoreResult<()> {
    page.mark_dirty();
    self.wal.append(&self.record)?;
    Ok(())
}
"#;
    let fixed = r#"
fn apply(&self, page: &mut Guard) -> StoreResult<()> {
    self.wal.append(&self.record)?;
    page.mark_dirty();
    Ok(())
}
"#;
    assert_fix_silences(
        RuleId::LogBeforeDirty,
        "crates/core/src/fake.rs",
        broken,
        fixed,
    );
}

// ---- Clippy-enforced disciplines ------------------------------------------
//
// Panic-free recovery, sync hygiene and determinism are clippy
// configuration; their broken and fixed fixtures are modules of one
// throwaway crate that clippy checks under the workspace's configuration.

static CLIPPY: OnceLock<Vec<Lint>> = OnceLock::new();

const MODULES: &[Module] = &[
    recovery(
        "panic_broken",
        r#"
pub fn read_header(buf: &[u8], decode: impl Fn(u8) -> Option<u64>) -> u64 {
    let first = buf[0];
    decode(first).unwrap()
}
"#,
    ),
    recovery(
        "panic_fixed",
        r#"
#[derive(Debug)]
pub enum WalError {
    TornRecord,
}

pub fn read_header(buf: &[u8], decode: impl Fn(u8) -> Option<u64>) -> Result<u64, WalError> {
    let first = buf.first().copied().ok_or(WalError::TornRecord)?;
    decode(first).ok_or(WalError::TornRecord)
}
"#,
    ),
    plain(
        "sync_broken",
        r#"
use std::sync::Mutex;
use std::time::Instant;

pub fn timed(inner: &Mutex<u8>) -> u64 {
    let started = Instant::now();
    drop(inner.lock());
    started.elapsed().as_nanos() as u64
}
"#,
    ),
    plain(
        "sync_fixed",
        r#"
use pitree_obs::Stopwatch;
use pitree_pagestore::sync::Mutex;

pub fn timed(inner: &Mutex<u8>) -> u64 {
    let started = Stopwatch::start();
    drop(inner.lock());
    started.elapsed_ns()
}
"#,
    ),
    plain(
        "det_broken",
        r#"
pub fn pick_seed(i: u64) -> u64 {
    match std::env::var("EXTRA_SEED") {
        Ok(s) => s.parse().unwrap_or(i),
        Err(_) => i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}
"#,
    ),
    plain(
        "det_fixed",
        r#"
pub fn pick_seed(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}
"#,
    ),
];

/// Assert clippy reports `lint` in module `broken` and nothing at all in
/// `fixed`. The fixed source must not lean on a suppression.
fn assert_clippy_fix_silences(lint: &str, broken: &str, fixed: &str) {
    let lints = CLIPPY.get_or_init(|| clippy_fixture("fix_fixtures", MODULES));
    let src = |name: &str| MODULES.iter().find(|m| m.name == name).map(|m| m.src);
    assert!(
        src(fixed).is_some_and(|s| !s.contains("allow(") && !s.contains("expect(")),
        "fixed fixture for {lint} must apply the fix, not a suppression"
    );
    let fired = lints_in(lints, broken);
    assert!(
        fired.iter().any(|l| l.lint == lint),
        "broken fixture for {lint} did not fire: {fired:?}"
    );
    let still = lints_in(lints, fixed);
    assert!(
        still.is_empty(),
        "the prescribed fix did not silence {lint}: {still:?}"
    );
}

/// R4 fix: recovery code swaps `.unwrap()` and direct indexing for typed
/// errors and `.get(...)` (paper 4.3.2 — a torn tail is an input, not a
/// bug).
#[test]
fn panic_free_recovery_fix_is_typed_errors() {
    assert_clippy_fix_silences("clippy::unwrap_used", "panic_broken", "panic_fixed");
    assert_clippy_fix_silences("clippy::indexing_slicing", "panic_broken", "panic_fixed");
}

/// R5 fix: `std::sync::Mutex` becomes the poison-free wrapper and
/// `Instant` timing becomes a `Stopwatch`, exactly as `clippy.toml`'s
/// reasons prescribe.
#[test]
fn sync_hygiene_fix_is_workspace_wrappers() {
    assert_clippy_fix_silences("clippy::disallowed_types", "sync_broken", "sync_fixed");
}

/// R6 fix: a sim-driven test stops reading the environment and derives
/// everything from the seed instead.
#[test]
fn determinism_fix_is_seed_derived() {
    assert_clippy_fix_silences("clippy::disallowed_methods", "det_broken", "det_fixed");
}
