//! Clippy over throwaway fixture crates, checked against the workspace's
//! own `clippy.toml` and `[workspace.lints.clippy]` table, so a fixture
//! shows what the real `cargo clippy -D warnings` gate says about a code
//! shape. Panic-free recovery, sync hygiene and determinism are clippy
//! configuration (DESIGN.md §8); these helpers are how their fixtures run.

#![allow(dead_code, reason = "each test binary uses a subset")]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The attribute every panic-free recovery file opens with.
pub(crate) const PANIC_FREE: &str =
    "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
     clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, \
     clippy::disallowed_macros)]";

/// The files on a redo/undo path: each carries [`PANIC_FREE`].
pub(crate) const PANIC_FREE_FILES: [&str; 13] = [
    "crates/wal/src/recovery.rs",
    "crates/wal/src/log.rs",
    "crates/wal/src/instant.rs",
    "crates/wal/src/codec.rs",
    "crates/wal/src/record.rs",
    "crates/pagestore/src/space.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/undo.rs",
    "crates/tsbtree/src/undo.rs",
    "crates/hbtree/src/undo.rs",
    "crates/core/src/wellformed.rs",
    "crates/tsbtree/src/wellformed.rs",
    "crates/hbtree/src/wellformed.rs",
];

/// The lints [`PANIC_FREE`] denies.
pub(crate) const PANIC_LINTS: [&str; 8] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
    "clippy::disallowed_macros",
];

/// The workspace root.
pub(crate) fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Whether `text` contains `needle` once all whitespace is ignored on both
/// sides (rustfmt may spread an attribute over several lines).
pub(crate) fn contains_squashed(text: &str, needle: &str) -> bool {
    let squash = |s: &str| s.split_whitespace().collect::<String>();
    squash(text).contains(&squash(needle))
}

/// Whether the workspace file at `rel` carries [`PANIC_FREE`].
pub(crate) fn is_panic_free(rel: &str) -> bool {
    let src = fs::read_to_string(workspace_root().join(rel))
        .unwrap_or_else(|e| panic!("reading {rel}: {e}"));
    contains_squashed(&src, PANIC_FREE)
}

/// One module of a fixture crate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Module {
    /// The module's name, also its file `src/<name>.rs`.
    pub(crate) name: &'static str,
    /// Whether the module opens with [`PANIC_FREE`], as a recovery file does.
    pub(crate) panic_free: bool,
    /// The module's source.
    pub(crate) src: &'static str,
}

/// A module that opens with [`PANIC_FREE`].
pub(crate) const fn recovery(name: &'static str, src: &'static str) -> Module {
    Module {
        name,
        panic_free: true,
        src,
    }
}

/// A module under the workspace-wide configuration only.
pub(crate) const fn plain(name: &'static str, src: &'static str) -> Module {
    Module {
        name,
        panic_free: false,
        src,
    }
}

/// One clippy diagnostic in a fixture module.
#[derive(Debug, Clone)]
pub(crate) struct Lint {
    /// The fixture module the primary span is in.
    pub(crate) module: String,
    /// 1-based line in that module's file.
    pub(crate) line: u32,
    /// The lint, e.g. `clippy::unwrap_used`.
    pub(crate) lint: String,
    /// Clippy's message.
    pub(crate) message: String,
}

/// The lints `lints` reports in `module`.
pub(crate) fn lints_in<'a>(lints: &'a [Lint], module: &str) -> Vec<&'a Lint> {
    lints.iter().filter(|l| l.module == module).collect()
}

/// Whether `lints` reports `lint` anywhere in `module`.
pub(crate) fn fires(lints: &[Lint], module: &str, lint: &str) -> bool {
    lints_in(lints, module).iter().any(|l| l.lint == lint)
}

/// Run `cargo clippy --all-targets` over `modules` as one library crate
/// named `name` and return every lint it reports. The crate may use
/// `pitree_pagestore` and `pitree_obs` (path dependencies), and its
/// `#[cfg(test)]` code is checked too. Lints are capped at `warn`, so any
/// error is a fixture that does not compile, which fails here: a quiet
/// fixture must be quiet because clippy accepted it, not because it never
/// type-checked.
pub(crate) fn clippy_fixture(name: &str, modules: &[Module]) -> Vec<Lint> {
    let root = workspace_root();
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixtures");
    let dir = base.join(name);
    let _ = fs::remove_dir_all(dir.join("src"));
    fs::create_dir_all(dir.join("src")).expect("fixture dir");
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("workspace manifest");
    let lint_table = manifest
        .split("[workspace.lints.clippy]")
        .nth(1)
        .and_then(|rest| rest.split("\n[").next())
        .expect("the workspace manifest has a [workspace.lints.clippy] table");
    let crates = root.join("crates");
    let dep = |c: &str| format!("{{ path = {:?} }}", crates.join(c).display().to_string());
    fs::write(
        dir.join("Cargo.toml"),
        format!(
            "[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
             [dependencies]\npitree-pagestore = {}\npitree-obs = {}\n\n\
             [lints.clippy]{lint_table}\n[workspace]\n",
            dep("pagestore"),
            dep("obs"),
        ),
    )
    .expect("fixture manifest");
    let mut lib = String::new();
    for m in modules {
        lib.push_str(&format!("pub mod {};\n", m.name));
        let src = if m.panic_free {
            format!("{PANIC_FREE}\n{}", m.src)
        } else {
            m.src.to_string()
        };
        fs::write(dir.join("src").join(format!("{}.rs", m.name)), src).expect("fixture module");
    }
    fs::write(dir.join("src/lib.rs"), lib).expect("fixture lib.rs");

    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--quiet", "--all-targets"])
        .args(["--message-format=json", "--", "--cap-lints", "warn"])
        .current_dir(&dir)
        .env("CARGO_TARGET_DIR", base.join("target"))
        .env("CLIPPY_CONF_DIR", &root)
        .output()
        .expect("spawning cargo clippy (is clippy installed?)");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "the {name} fixture crate does not compile:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .filter(|l| l.contains("\"code\":{\"code\":"))
        .map(|l| parse_lint(l).unwrap_or_else(|| panic!("unreadable diagnostic: {l}")))
        .collect()
}

/// A diagnostic line of cargo's JSON output as a [`Lint`]: only the
/// top-level diagnostic carries a lint code, and its human rendering names
/// the call site (`--> src/<module>.rs:<line>:<col>`) even for a lint inside
/// a std macro.
fn parse_lint(line: &str) -> Option<Lint> {
    let lint = line
        .split_once("\"code\":{\"code\":\"")?
        .1
        .split('"')
        .next()?;
    let rendered = line.split_once("\"rendered\":\"")?.1;
    let (head, rest) = rendered.split_once("\\n")?;
    let location = rest.split_once("--> src/")?.1;
    let (module, line_col) = location.split_once(".rs:")?;
    Some(Lint {
        module: module.to_string(),
        line: line_col.split(':').next()?.parse().ok()?,
        lint: lint.to_string(),
        message: head.split_once(": ")?.1.to_string(),
    })
}
