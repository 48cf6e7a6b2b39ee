//! `pitree-lint` / `pitree-flow`: a std-only static analyzer that enforces
//! the workspace's Π-tree protocol disciplines at the source level.
//!
//! The correctness of the paper's protocol (Lomet & Salzberg, SIGMOD 1992)
//! rests on conventions a compiler cannot see: top-down latch order with
//! U→X promotion (§4.1), the No-Wait Rule for completion paths (§4.2.2)
//! and log-before-dirty WAL discipline (§4.3.1). The concurrent oracles and
//! sim sweeps catch violations on the interleavings they happen to execute;
//! this analyzer catches the violating *code shapes* on every path.
//!
//! No `syn`, no dependencies, and one tier. A recursive-descent structural
//! parser ([`parse`]) over the token stream builds per-function CFGs
//! ([`mod@cfg`]: branches, loops, match arms and their guards, early
//! returns, `?`) and a whole-workspace call graph ([`callgraph`]), and
//! abstract interpretation over latch-guard states ([`flow`]) proves the
//! latch-order, latch-cycle, guard-lifetime, log-before-dirty and no-wait
//! disciplines on *every* path of every file — including through helper
//! calls. The latch-acquisition order graph is emitted as a DOT artifact
//! with cycle detection. A function the parser cannot follow is a finding,
//! never a silent fall-back. The token facts that need no control flow
//! (panic-free recovery, sync hygiene, determinism) are clippy
//! configuration, not rules here: `clippy.toml` at the workspace root.
//!
//! See [`rules`] for the rule catalogue and DESIGN.md §8 for the
//! rule-to-paper-section map.

pub mod callgraph;
pub mod cfg;
pub mod context;
pub mod engine;
pub mod flow;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use engine::{lint_source, scan_sources, scan_workspace, Report};
pub use rules::{Finding, RuleId};
