//! Negative-path fixtures: for every rule, a broken source that fires and
//! the *remediated* source — the fix the diagnostic message prescribes,
//! never a `pitree-lint: allow` suppression — shown to be quiet.
//!
//! `fixtures.rs` proves each rule has teeth; this file proves the advice
//! in each rule's message is actually sufficient to silence it. If a rule
//! tightens until its own prescribed fix no longer passes, these tests
//! catch the contradiction. All sources live in raw strings so the
//! live-workspace scan (which lints this file too, with string literals
//! stripped) never sees them as real code.

use analyze::{lint_source, RuleId};

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

/// R4 fix: recovery code swaps `.unwrap()` and direct indexing for typed
/// errors and `.get(...)` (paper 4.3.2 — a torn tail is an input, not a
/// bug).
#[test]
fn panic_free_recovery_fix_is_typed_errors() {
    let broken = r#"
fn read_header(&self, buf: &Bytes) -> Lsn {
    let first = buf[0];
    self.decode(first).unwrap()
}
"#;
    let fixed = r#"
fn read_header(&self, buf: &Bytes) -> Result<Lsn, WalError> {
    let first = buf.get(0).copied().ok_or(WalError::TornRecord)?;
    self.decode(first).ok_or(WalError::TornRecord)
}
"#;
    assert_fix_silences(
        RuleId::PanicFreeRecovery,
        "crates/wal/src/recovery.rs",
        broken,
        fixed,
    );
}

/// R5 fix: `std::sync::Mutex` becomes the poison-free wrapper and
/// `Instant` timing becomes a `Stopwatch`, exactly as the diagnostics
/// prescribe.
#[test]
fn sync_hygiene_fix_is_workspace_wrappers() {
    let broken = r#"
use std::sync::Mutex;
use std::time::Instant;

fn timed(&self) -> u64 {
    let started = Instant::now();
    let _g = self.inner.lock();
    started.elapsed().as_nanos() as u64
}
"#;
    let fixed = r#"
use pitree_pagestore::sync::Mutex;
use pitree_obs::Stopwatch;

fn timed(&self, clock: &Stopwatch) -> u64 {
    let started = clock.start();
    let _g = self.inner.lock();
    clock.elapsed_ns(started)
}
"#;
    assert_fix_silences(
        RuleId::SyncHygiene,
        "crates/core/src/fake.rs",
        broken,
        fixed,
    );
}

/// R6 fix: a sim-driven test stops reading the environment and wall clock
/// and derives everything from the seed corpus instead.
#[test]
fn determinism_fix_is_seed_derived() {
    let broken = r#"
fn pick_seed(i: usize) -> u64 {
    match std::env::var("EXTRA_SEED") {
        Ok(s) => s.parse().unwrap(),
        Err(_) => pitree_sim::prop::case_seed("sweep", i),
    }
}
"#;
    let fixed = r#"
fn pick_seed(i: usize) -> u64 {
    pitree_sim::prop::case_seed("sweep", i)
}
"#;
    assert_fix_silences(
        RuleId::Determinism,
        "crates/sim/tests/fake.rs",
        broken,
        fixed,
    );
}
