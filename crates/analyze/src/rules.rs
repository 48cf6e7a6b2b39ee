//! The rule catalogue ([`RuleId`], [`Finding`]) and the lexical rules.
//!
//! Every rule that needs control flow — latch order, no-wait,
//! log-before-dirty, latch cycles, guard lifetimes — is a path-sensitive
//! analysis in [`crate::flow`]. What stays here checks exact token facts
//! and approximates no control flow: `panic-free-recovery`, `sync-hygiene`
//! and `determinism`, each a pure function over a [`FileCx`] whose scoping
//! (which files it patrols) is part of the rule. A finding is silenced with
//! `// pitree-lint: allow(rule-id) <reason>`, which requires a reason and is
//! itself audited (stale allows fail the build).

use crate::context::FileCx;
use crate::lexer::TokKind;
use std::fmt;

/// Identifier of a lint rule (or of the linter's own meta-diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// R1 §4.1 (flow): latches are acquired in search order, top-down;
    /// climbing a saved path uses conditional (`try_*`) acquisition only,
    /// and U→X promotion happens while no other blocking latch is held.
    LatchOrder,
    /// R2 §4.2.2 (flow): a completing action never blocks on a lock — no
    /// blocking lock acquisition is reachable from a completion entry.
    NoWait,
    /// R3 §4.3.1 (flow): every path to a page dirtying passes a WAL append
    /// first (log-before-dirty).
    LogBeforeDirty,
    /// R4 §4.3.2: redo/undo code must be panic-free — recovery running into
    /// a torn log tail or unexpected page state must return an error, not
    /// abort the process.
    PanicFreeRecovery,
    /// R5: raw `std::sync` primitives and `std::time::Instant` only inside
    /// `pagestore::sync` and `crates/obs` — everything else goes through
    /// the poison-free wrappers / `Stopwatch`, keeping blocking observable.
    SyncHygiene,
    /// R6: the simulation kit and sim-driven tests stay deterministic — no
    /// wall clocks, entropy, or environment reads.
    Determinism,
    /// F1 §4.1 (flow): the workspace latch-acquisition order graph must be
    /// acyclic — a cycle among blocking acquisitions is a potential
    /// deadlock no interleaving test is guaranteed to hit.
    LatchCycle,
    /// F2 (flow): latch-guard lifetime — leaked via `forget`, held across a
    /// blocking wait on some path, or dropped twice.
    GuardLifetime,
    /// Meta: a function the structural parser cannot follow, so no flow
    /// rule can check it.
    Unfollowed,
    /// Meta: malformed suppression (missing reason, unknown rule).
    LintAllow,
    /// Meta: a suppression that no longer suppresses anything.
    StaleAllow,
}

impl RuleId {
    /// All real (suppressible) rules.
    pub const ALL: [RuleId; 8] = [
        RuleId::LatchOrder,
        RuleId::NoWait,
        RuleId::LogBeforeDirty,
        RuleId::PanicFreeRecovery,
        RuleId::SyncHygiene,
        RuleId::Determinism,
        RuleId::LatchCycle,
        RuleId::GuardLifetime,
    ];

    /// The kebab-case id used in reports and `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::LatchOrder => "latch-order",
            RuleId::NoWait => "no-wait",
            RuleId::LogBeforeDirty => "log-before-dirty",
            RuleId::PanicFreeRecovery => "panic-free-recovery",
            RuleId::SyncHygiene => "sync-hygiene",
            RuleId::Determinism => "determinism",
            RuleId::LatchCycle => "latch-cycle",
            RuleId::GuardLifetime => "guard-lifetime",
            RuleId::Unfollowed => "unfollowed",
            RuleId::LintAllow => "lint-allow",
            RuleId::StaleAllow => "stale-allow",
        }
    }

    /// Parse an `allow(...)` rule id.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == s)
    }

    /// One-line description for the summary table.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::LatchOrder => "top-down latch order; climbs and promotes use try_* (paper 4.1)",
            RuleId::NoWait => "SMO completion paths take locks conditionally only (paper 4.2.2)",
            RuleId::LogBeforeDirty => "WAL append precedes page dirtying (paper 4.3.1)",
            RuleId::PanicFreeRecovery => "redo/undo paths return errors, never panic (paper 4.3.2)",
            RuleId::SyncHygiene => "raw std::sync / Instant only in pagestore::sync and obs",
            RuleId::Determinism => "sim kit and sim tests are clock/entropy/env free",
            RuleId::LatchCycle => "workspace latch-acquisition order graph is acyclic (paper 4.1)",
            RuleId::GuardLifetime => "guards are not leaked, double-dropped, or held over waits",
            RuleId::Unfollowed => "every function is followed by the flow rules",
            RuleId::LintAllow => "suppressions carry a rule id and a reason",
            RuleId::StaleAllow => "suppressions that fire nothing are removed",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule.
    pub rule: RuleId,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// Run the lexical rules over `cx`.
pub fn run_token(cx: &FileCx) -> Vec<Finding> {
    let mut out = Vec::new();
    panic_free_recovery(cx, &mut out);
    sync_hygiene(cx, &mut out);
    determinism(cx, &mut out);
    out
}

fn finding(out: &mut Vec<Finding>, cx: &FileCx, line: u32, rule: RuleId, msg: String) {
    out.push(Finding {
        path: cx.path.clone(),
        line,
        rule,
        msg,
    });
}

// ---- R4: panic-free recovery (§4.3.2) ------------------------------------

/// Recovery and undo code must degrade to typed errors: a torn log tail or
/// an unexpected page image is an input, not a bug, and `unwrap`-class
/// aborts would turn restartable recovery into a crash loop. The log
/// manager itself is in scope too: `force_to` parses volatile tail frames,
/// and a torn frame there must surface as `StoreError::Corrupt`. So is the
/// instant-restart module: on-demand redo runs inside every post-crash
/// fetch, where a panic would take down the serving store, not a recovery
/// tool. So is the well-formedness walk: it verifies every recovered image,
/// whose damage it must report, not crash on.
fn panic_free_recovery(cx: &FileCx, out: &mut Vec<Finding>) {
    // Restart runs through the WAL's recovery engines, the Π-tree engine's
    // lifecycle (`recover`, `recover_instant`, the lazily opening undo
    // handler's `open`), and each structure's undo module; the walk and
    // each structure's node description live in `wellformed.rs` files.
    let scoped = cx.path == "crates/wal/src/recovery.rs"
        || cx.path == "crates/wal/src/log.rs"
        || cx.path == "crates/wal/src/instant.rs"
        || cx.path == "crates/core/src/engine.rs"
        || cx.path.ends_with("/undo.rs")
        || cx.path.ends_with("/wellformed.rs");
    if !scoped {
        return;
    }
    for i in 0..cx.tokens.len() {
        if cx.is_test[i] {
            continue;
        }
        let t = &cx.tokens[i];
        // `.unwrap()` / `.expect(...)` method calls.
        if let Some(name @ ("unwrap" | "expect")) = cx.method_call_at(i) {
            finding(
                out,
                cx,
                t.line,
                RuleId::PanicFreeRecovery,
                format!(
                    "`.{name}()` in a recovery/undo path; return a typed error instead \
                     (paper 4.3.2: recovery takes no special measures, and never panics)"
                ),
            );
        }
        // Panicking macros.
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic"
                    | "unreachable"
                    | "todo"
                    | "unimplemented"
                    | "assert"
                    | "assert_eq"
                    | "assert_ne"
            )
            && cx.tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            finding(
                out,
                cx,
                t.line,
                RuleId::PanicFreeRecovery,
                format!(
                    "`{}!` in a recovery/undo path; return a typed error instead",
                    t.text
                ),
            );
        }
        // Direct indexing: `expr[...]` — a missing key or short slice must
        // surface as an error, not a panic.
        if t.is_punct('[') && i > 0 {
            let prev = &cx.tokens[i - 1];
            let is_index = prev.kind == TokKind::Ident && !prev.is_ident("mut")
                || prev.is_punct(')')
                || prev.is_punct(']');
            let attr = prev.is_punct('#');
            if is_index && !attr {
                finding(
                    out,
                    cx,
                    t.line,
                    RuleId::PanicFreeRecovery,
                    "direct indexing in a recovery/undo path can panic; use `.get(...)` \
                     and return a typed error"
                        .to_string(),
                );
            }
        }
    }
}

// ---- R5: sync hygiene ----------------------------------------------------

/// `std::sync::{Mutex, RwLock, Condvar}`, `std::time::Instant`, and
/// `SystemTime` are confined to `pagestore::sync` (the poison-free
/// wrappers) and `crates/obs` (`Stopwatch`). Everything else must use the
/// wrappers so blocking stays poison-free and observable.
fn sync_hygiene(cx: &FileCx, out: &mut Vec<Finding>) {
    if cx.path == "crates/pagestore/src/sync.rs" || cx.path.starts_with("crates/obs/") {
        return;
    }
    const PRIMS: [&str; 3] = ["Mutex", "RwLock", "Condvar"];
    for i in 0..cx.tokens.len() {
        if cx.is_test[i] {
            continue;
        }
        let t = &cx.tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `std::sync::Mutex` path form (covers both `use` and inline paths;
        // the workspace's own `pagestore::sync::Mutex` wrapper is exempt).
        if PRIMS.contains(&t.text.as_str())
            && cx.path_prefix_is(i, "sync")
            && i >= 6
            && cx.tokens[i - 4].is_punct(':')
            && cx.tokens[i - 5].is_punct(':')
            && cx.tokens[i - 6].is_ident("std")
        {
            finding(
                out,
                cx,
                t.line,
                RuleId::SyncHygiene,
                format!(
                    "direct `std::sync::{}`; use the poison-free wrappers in \
                     `pitree_pagestore::sync`",
                    t.text
                ),
            );
        }
        // `use std::sync::{A, Mutex, ...}` group form.
        if t.is_ident("sync")
            && cx.path_prefix_is(i, "std")
            && cx.tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && cx.tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && cx.tokens.get(i + 3).is_some_and(|n| n.is_punct('{'))
        {
            let close = crate::context::matching_brace(&cx.tokens, i + 3);
            for j in i + 4..close {
                let g = &cx.tokens[j];
                if g.kind == TokKind::Ident && PRIMS.contains(&g.text.as_str()) {
                    finding(
                        out,
                        cx,
                        g.line,
                        RuleId::SyncHygiene,
                        format!(
                            "direct `std::sync::{}`; use the poison-free wrappers in \
                             `pitree_pagestore::sync`",
                            g.text
                        ),
                    );
                }
            }
        }
        if t.is_ident("Instant") {
            finding(
                out,
                cx,
                t.line,
                RuleId::SyncHygiene,
                "direct `std::time::Instant`; use `pitree_obs::Stopwatch` so timing \
                 is observable and mockable"
                    .to_string(),
            );
        }
        if t.is_ident("SystemTime") {
            finding(
                out,
                cx,
                t.line,
                RuleId::SyncHygiene,
                "wall-clock `SystemTime` outside the observability layer".to_string(),
            );
        }
    }
}

// ---- R6: determinism -----------------------------------------------------

/// The simulation kit exists so every failure replays from a seed; a wall
/// clock, entropy source, or environment read anywhere in `crates/sim` or a
/// sim-driven test silently destroys that property. Applies to test code
/// too — sim tests are exactly the point.
fn determinism(cx: &FileCx, out: &mut Vec<Finding>) {
    let in_sim = cx.path.starts_with("crates/sim/");
    let sim_test = (cx.path.contains("/tests/") || cx.path.starts_with("tests/"))
        && cx.tokens.iter().any(|t| t.is_ident("pitree_sim"));
    if !in_sim && !sim_test {
        return;
    }
    for (i, t) in cx.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let msg = match t.text.as_str() {
            "SystemTime" | "UNIX_EPOCH" => "wall clock in deterministic sim code",
            "thread_rng" | "from_entropy" => "OS entropy in deterministic sim code",
            "RandomState" | "DefaultHasher" => {
                "randomly-seeded hasher in deterministic sim code; iteration order \
                 will differ across runs"
            }
            "now" if cx.path_prefix_is(i, "Instant") => "wall clock in deterministic sim code",
            "var" | "var_os" if cx.path_prefix_is(i, "env") => {
                "environment read in deterministic sim code"
            }
            _ => continue,
        };
        finding(
            out,
            cx,
            t.line,
            RuleId::Determinism,
            format!("{msg}; derive everything from the run seed"),
        );
    }
}
