//! The rule catalogue: [`RuleId`] and [`Finding`].
//!
//! Every rule is a path-sensitive analysis in [`crate::flow`]: latch order,
//! latch cycles and guard lifetimes. The token facts that need no control
//! flow — panic-free recovery, sync hygiene and determinism — are clippy
//! configuration (`clippy.toml` and one `#![deny(...)]` per recovery file),
//! and log-before-dirty (§4.3.1) and No-Wait (§4.2.2) are types: a frame
//! guard hands out no `&mut Page`, and a completing action's transaction
//! has no blocking `lock` (DESIGN.md §8). A finding is silenced
//! with `// pitree-lint: allow(rule-id) <reason>`, which requires a reason
//! and is itself audited (stale allows fail the build).

use std::fmt;

/// Identifier of a lint rule (or of the linter's own meta-diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// R1 §4.1 (flow): latches are acquired in search order, top-down;
    /// climbing a saved path uses conditional (`try_*`) acquisition only,
    /// and U→X promotion happens while no other blocking latch is held.
    LatchOrder,
    /// F1 §4.1 (flow): the workspace latch-acquisition order graph must be
    /// acyclic — a cycle among blocking acquisitions is a potential
    /// deadlock no interleaving test is guaranteed to hit.
    LatchCycle,
    /// F2 (flow): latch-guard lifetime — leaked via `forget`, or held
    /// across a blocking wait on some path.
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
    pub const ALL: [RuleId; 3] = [
        RuleId::LatchOrder,
        RuleId::LatchCycle,
        RuleId::GuardLifetime,
    ];

    /// The kebab-case id used in reports and `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::LatchOrder => "latch-order",
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
            RuleId::LatchCycle => "workspace latch-acquisition order graph is acyclic (paper 4.1)",
            RuleId::GuardLifetime => "guards are not leaked or held over waits",
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
