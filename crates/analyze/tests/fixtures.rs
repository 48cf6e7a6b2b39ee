//! Per-rule fixtures: every rule has at least one firing and one quiet
//! case, plus the suppression grammar's own contract (reason mandatory,
//! stale allows reported, `allow-file` scope). All sources live in raw
//! strings so the live-workspace scan (which lints this file too, with
//! string literals stripped) never sees them as real code.

use analyze::{lint_source, RuleId};

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

// ---- R4: panic-free-recovery ---------------------------------------------

#[test]
fn panic_free_fires_on_unwrap_macro_and_indexing() {
    let src = r#"
fn redo(&self, m: &Map, v: &[u8]) -> u8 {
    let rec = self.read(self.cursor).unwrap();
    if rec.bad() {
        panic!("torn tail");
    }
    let first = v[0];
    m.apply(rec, first)
}
"#;
    let rules = rules_of("crates/wal/src/recovery.rs", src);
    let hits = rules
        .iter()
        .filter(|r| **r == RuleId::PanicFreeRecovery)
        .count();
    assert!(
        hits >= 3,
        "unwrap + panic! + v[0] should all fire: {rules:?}"
    );
    // Same shapes fire in any */undo.rs.
    assert!(rules_of("crates/hbtree/src/undo.rs", src).contains(&RuleId::PanicFreeRecovery));
}

#[test]
fn panic_free_quiet_on_typed_errors_and_tests() {
    let src = r#"
fn redo(&self, v: &[u8]) -> StoreResult<u8> {
    let rec = self.read(self.cursor)?;
    let first = v.first().copied().ok_or_else(|| StoreError::Corrupt("empty".to_string()))?;
    Ok(first)
}

#[cfg(test)]
mod tests {
    #[test]
    fn torn_tail() {
        let v = vec![1u8];
        assert_eq!(v.first().copied().unwrap(), v[0]);
    }
}
"#;
    assert!(
        !rules_of("crates/wal/src/recovery.rs", src).contains(&RuleId::PanicFreeRecovery),
        "typed-error production code and unwrap-happy tests are both fine"
    );
}

#[test]
fn panic_free_out_of_scope_elsewhere() {
    let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }";
    assert!(!rules_of("crates/core/src/tree.rs", src).contains(&RuleId::PanicFreeRecovery));
}

#[test]
fn panic_free_covers_log_manager() {
    // The group-commit log manager parses volatile tail frames in
    // `force_to`; a torn frame is an input, so unwrap-class aborts are
    // protocol violations there just as in recovery.rs.
    let fires = r#"
fn force_to(&self, lsn: Lsn) -> StoreResult<()> {
    let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
    self.force_until(len as u64, Some(lsn))
}
"#;
    assert!(
        rules_of("crates/wal/src/log.rs", fires).contains(&RuleId::PanicFreeRecovery),
        "unwrap on a torn tail frame must fire in log.rs"
    );

    let quiet = r#"
fn force_to(&self, lsn: Lsn) -> StoreResult<()> {
    let Some(len) = le_u32_at(&tail.buf, off) else {
        return Err(StoreError::Corrupt(format!("torn volatile tail at {lsn}")));
    };
    self.force_until(len as u64, Some(lsn))
}
"#;
    assert!(
        !rules_of("crates/wal/src/log.rs", quiet).contains(&RuleId::PanicFreeRecovery),
        "checked parsing with typed errors is the sanctioned shape"
    );
}

#[test]
fn panic_free_covers_the_engine_lifecycle() {
    // `Engine::open` runs inside restart for every structure — from
    // `recover`/`recover_instant` and from the lazily opening undo handler —
    // and reads meta-page records that a crash may have left in any state.
    let fires = r#"
fn open(store: Arc<Store>, tree_id: u32) -> StoreResult<PageId> {
    let rec = store.meta_record(tree_id)?;
    Ok(PageId(u64::from_le_bytes(rec[8..16].try_into().unwrap())))
}
"#;
    assert!(
        rules_of("crates/core/src/engine.rs", fires).contains(&RuleId::PanicFreeRecovery),
        "indexing + unwrap on a registry record must fire in engine.rs"
    );

    let quiet = r#"
fn open(store: Arc<Store>, tree_id: u32) -> StoreResult<PageId> {
    let rec = store.meta_record(tree_id)?;
    registry_root(rec, MAGIC, tree_id)
        .ok_or_else(|| StoreError::Corrupt(format!("tree {tree_id} not registered")))
}
"#;
    assert!(
        !rules_of("crates/core/src/engine.rs", quiet).contains(&RuleId::PanicFreeRecovery),
        "checked decoding with typed errors is the sanctioned shape"
    );
}

#[test]
fn panic_free_covers_the_wellformedness_walk() {
    // The walk verifies every recovered image, so a damaged node it reaches
    // is an input to report, in any structure's `wellformed.rs`.
    let fires = r#"
fn tiling(owned: &[(PageId, Rect)]) -> Vec<String> {
    let total: u128 = owned.iter().map(|(_, r)| r.area()).sum();
    let first = owned[0].1.area();
    assert!(first <= total);
    Vec::new()
}
"#;
    for path in [
        "crates/core/src/wellformed.rs",
        "crates/hbtree/src/wellformed.rs",
    ] {
        assert!(
            rules_of(path, fires).contains(&RuleId::PanicFreeRecovery),
            "indexing + assert! in the walk must fire in {path}"
        );
    }

    let quiet = r#"
fn tiling(owned: &[(PageId, Rect)]) -> Vec<String> {
    let total = owned.iter().try_fold(0u128, |sum, (_, r)| sum.checked_add(area(r)));
    let first = owned.first().map_or(0, |(_, r)| area(r));
    if total.is_none_or(|t| first > t) {
        return vec![format!("owned regions overflow the space")];
    }
    Vec::new()
}
"#;
    assert!(
        !rules_of("crates/tsbtree/src/wellformed.rs", quiet).contains(&RuleId::PanicFreeRecovery),
        "checked arithmetic reported as a violation is the sanctioned shape"
    );
}

#[test]
fn panic_free_covers_instant_restart() {
    // On-demand redo runs inside every post-crash fetch: a panic there
    // takes down the *serving* store, not a recovery tool, so the
    // instant-restart module is held to the same standard.
    let fires = r#"
fn redo_page(&self, page: &PinnedPage<'_>) -> StoreResult<()> {
    let shard = &self.plan[page_shard(page.id(), self.plan.len())];
    let records = shard.lock().remove(&page.id()).unwrap();
    self.replay(page, records)
}
"#;
    assert!(
        rules_of("crates/wal/src/instant.rs", fires).contains(&RuleId::PanicFreeRecovery),
        "indexing + unwrap in the redo plan must fire in instant.rs"
    );

    let quiet = r#"
fn redo_page(&self, page: &PinnedPage<'_>) -> StoreResult<()> {
    let slot = self.shard_slot(page.id())?;
    let records = match slot.lock().remove(&page.id()) {
        Some(r) => r,
        None => return Ok(()),
    };
    self.replay(page, records)
}
"#;
    assert!(
        !rules_of("crates/wal/src/instant.rs", quiet).contains(&RuleId::PanicFreeRecovery),
        "checked shard lookup with typed errors is the sanctioned shape"
    );
}

// ---- R5: sync-hygiene -----------------------------------------------------

#[test]
fn sync_hygiene_fires_on_std_sync_and_instant() {
    let path_form = "use std::sync::Mutex;\nfn f() {}";
    assert!(rules_of("crates/core/src/fake.rs", path_form).contains(&RuleId::SyncHygiene));

    let group_form = "use std::sync::{Arc, Mutex};\nfn f() {}";
    let found = lint_source("crates/core/src/fake.rs", group_form);
    assert_eq!(
        found
            .iter()
            .filter(|f| f.rule == RuleId::SyncHygiene)
            .count(),
        1,
        "Mutex fires, Arc in the same group does not: {found:?}"
    );

    let instant = "use std::time::Instant;\nfn f() -> Instant { Instant::now() }";
    assert!(rules_of("crates/core/src/fake.rs", instant).contains(&RuleId::SyncHygiene));
}

#[test]
fn sync_hygiene_quiet_on_wrappers_and_sanctioned_files() {
    let wrapper = "use pitree_pagestore::sync::{Condvar, Mutex};\nfn f() {}";
    assert!(!rules_of("crates/core/src/fake.rs", wrapper).contains(&RuleId::SyncHygiene));

    let arc_only = "use std::sync::Arc;\nfn f() {}";
    assert!(!rules_of("crates/core/src/fake.rs", arc_only).contains(&RuleId::SyncHygiene));

    // The wrapper module and the observability crate define the primitives.
    let raw = "use std::sync::Mutex;\nuse std::time::Instant;\nfn f() {}";
    assert!(!rules_of("crates/pagestore/src/sync.rs", raw).contains(&RuleId::SyncHygiene));
    assert!(!rules_of("crates/obs/src/lib.rs", raw).contains(&RuleId::SyncHygiene));
}

// ---- R6: determinism ------------------------------------------------------

#[test]
fn determinism_fires_in_sim_code() {
    let src = r#"
fn seed(&self) -> u64 {
    let t = SystemTime::now();
    let salt = std::env::var("SALT").unwrap_or_default();
    mix(t, salt)
}
"#;
    let rules = rules_of("crates/sim/src/fake.rs", src);
    assert!(
        rules.iter().filter(|r| **r == RuleId::Determinism).count() >= 2,
        "SystemTime and env::var must both fire in crates/sim: {rules:?}"
    );
}

#[test]
fn determinism_applies_to_sim_driven_tests_including_test_code() {
    let src = r#"
use pitree_sim::SimRng;

#[test]
fn shaky() {
    let mut h = DefaultHasher::new();
    let mut rng = SimRng::new(42);
    drive(&mut h, &mut rng);
}
"#;
    assert!(
        rules_of("crates/core/tests/fake_sim.rs", src).contains(&RuleId::Determinism),
        "sim-driven tests are in scope even inside #[test] fns"
    );
}

#[test]
fn determinism_quiet_outside_sim() {
    // DefaultHasher is only R6's concern, and this file is neither in
    // crates/sim nor a sim-driven test.
    let src = "fn f() { let h = DefaultHasher::new(); use_it(h); }";
    assert!(lint_source("crates/core/src/fake.rs", src).is_empty());
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
