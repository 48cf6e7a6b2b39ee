//! `pitree-lint` / `pitree-flow`: a std-only static analyzer that enforces
//! the workspace's Π-tree protocol disciplines at the source level.
//!
//! The correctness of the paper's protocol (Lomet & Salzberg, SIGMOD 1992)
//! rests on conventions a compiler cannot see: top-down latch order with
//! U→X promotion (§4.1), and no blocking wait while a latch is held. The
//! concurrent oracles and sim sweeps catch violations on the interleavings
//! they happen to execute; this analyzer catches the violating *code
//! shapes* on every path. The protocol's other two rules are types the
//! compiler checks: log-before-dirty (§4.3.1) — a frame guard hands out no
//! `&mut Page`, so a page changes only through `PinnedPage::apply_logged`
//! after its append or `PinnedPage::replay` — and the No-Wait Rule
//! (§4.2.2) — a completing action sees its transaction as a `NoWait` view,
//! which has no blocking `lock`.
//!
//! No `syn`, no dependencies, and one tier. A recursive-descent structural
//! parser ([`parse`]) over the token stream builds per-function CFGs
//! ([`mod@cfg`]: branches, loops, match arms and their guards, early
//! returns, `?`) and a whole-workspace call graph ([`callgraph`]), and
//! abstract interpretation over latch-guard states ([`flow`]) proves the
//! latch-order, latch-cycle and guard-lifetime disciplines on *every* path
//! of every file — latch order including through helper calls. The
//! latch-acquisition order graph is emitted as a DOT artifact
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
