//! Scan driver: walks the workspace, runs the flow analyses, resolves
//! `// pitree-lint:` suppressions, and audits the suppressions themselves.
//!
//! Suppression grammar (inside any comment):
//!
//! ```text
//! // pitree-lint: allow(rule-id) <reason — mandatory>
//! // pitree-lint: allow-file(rule-id) <reason — mandatory>
//! ```
//!
//! A line `allow` covers findings on its own line or the next line; an
//! `allow-file` covers the whole file. Every allow must suppress at least
//! one finding in the scan, or it is reported as `stale-allow` — the
//! violation it excused is gone and the annotation must go with it.
//!
//! The scan is whole-workspace because the latch-order rule is
//! interprocedural: the call graph and the latch-order graph need every
//! file at once. There is one tier: a function the parser cannot follow is
//! a finding, not a fall-back to token heuristics.

use crate::context::FileCx;
use crate::flow;
use crate::parse::{parse_file, FileAst};
use crate::rules::{Finding, RuleId};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// A parsed suppression directive.
#[derive(Debug, Clone)]
struct Allow {
    line: u32,
    rule: RuleId,
    whole_file: bool,
    used: usize,
}

impl Allow {
    /// Whether this allow covers a finding of `rule` at `line`.
    fn covers(&self, rule: RuleId, line: u32) -> bool {
        self.rule == rule && (self.whole_file || self.line == line || self.line + 1 == line)
    }
}

/// Scan outcome for a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression (including meta diagnostics),
    /// sorted by path then line.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
    /// Per-rule surviving finding counts.
    pub fired: BTreeMap<RuleId, usize>,
    /// Per-rule suppressed finding counts.
    pub allowed: BTreeMap<RuleId, usize>,
    /// The latch-acquisition order graph (paper §4.1) in DOT form, with an
    /// `// acyclic: true|false` header line for cheap CI gating.
    pub latch_dot: String,
}

impl Report {
    /// Whether the scan is clean (no findings, no stale or malformed
    /// allows).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the per-rule summary table.
    pub fn summary_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<22} {:>8} {:>8}  {}\n",
            "rule", "findings", "allowed", "description"
        ));
        for rule in RuleId::ALL {
            s.push_str(&format!(
                "{:<22} {:>8} {:>8}  {}\n",
                rule.name(),
                self.fired.get(&rule).copied().unwrap_or(0),
                self.allowed.get(&rule).copied().unwrap_or(0),
                rule.describe()
            ));
        }
        for rule in [RuleId::Unfollowed, RuleId::LintAllow, RuleId::StaleAllow] {
            let n = self.fired.get(&rule).copied().unwrap_or(0);
            if n > 0 {
                s.push_str(&format!(
                    "{:<22} {:>8} {:>8}  {}\n",
                    rule.name(),
                    n,
                    0,
                    rule.describe()
                ));
            }
        }
        s.push_str(&format!("files scanned: {}\n", self.files));
        s
    }
}

/// Scan a set of `(workspace-relative path, source)` pairs as one unit.
/// This is the core entry point: flow rules see all files together.
pub fn scan_sources(files: &[(String, String)]) -> Report {
    let cxs: Vec<FileCx> = files.iter().map(|(p, s)| FileCx::new(p, s)).collect();
    let mut allows: Vec<Vec<Allow>> = Vec::with_capacity(cxs.len());
    let mut findings: Vec<Finding> = Vec::new();
    for cx in &cxs {
        let (a, f) = parse_allows(cx);
        allows.push(a);
        findings.extend(f);
    }
    let asts: Vec<FileAst> = cxs.iter().map(parse_file).collect();

    let mut allowed: BTreeMap<RuleId, usize> = BTreeMap::new();
    let (flow_findings, latch_dot) = {
        let mut sanction = |fi: usize, line: u32, rule: RuleId| -> bool {
            if let Some(a) = allows[fi].iter_mut().find(|a| a.covers(rule, line)) {
                a.used += 1;
                *allowed.entry(rule).or_insert(0) += 1;
                true
            } else {
                false
            }
        };
        flow::analyze(&asts, &mut sanction)
    };
    findings.extend(flow_findings);

    // Stale-suppression audit.
    for (i, cx) in cxs.iter().enumerate() {
        for a in &allows[i] {
            if a.used == 0 {
                findings.push(Finding {
                    path: cx.path.clone(),
                    line: a.line,
                    rule: RuleId::StaleAllow,
                    msg: format!(
                        "allow({}) suppresses nothing; the violation it excused is gone — \
                         remove the annotation",
                        a.rule
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    let mut fired = BTreeMap::new();
    for f in &findings {
        *fired.entry(f.rule).or_insert(0) += 1;
    }
    Report {
        findings,
        files: cxs.len(),
        fired,
        allowed,
        latch_dot,
    }
}

/// Lint a single source text as the file at workspace-relative `path`.
/// This is the unit-test entry point; interprocedural rules see only this
/// one file.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    scan_sources(&[(path.to_string(), src.to_string())]).findings
}

/// Extract `pitree-lint:` directives from the file's comments. Malformed
/// directives become immediate `lint-allow` findings.
fn parse_allows(cx: &FileCx) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for c in &cx.comments {
        let Some(rest) = c.text.strip_prefix("pitree-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let (whole_file, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow(") {
            (false, r)
        } else {
            findings.push(Finding {
                path: cx.path.clone(),
                line: c.line,
                rule: RuleId::LintAllow,
                msg: format!(
                    "unrecognized pitree-lint directive `{}`; expected \
                     `allow(rule-id) reason` or `allow-file(rule-id) reason`",
                    rest
                ),
            });
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(Finding {
                path: cx.path.clone(),
                line: c.line,
                rule: RuleId::LintAllow,
                msg: "unterminated allow(...) directive".to_string(),
            });
            continue;
        };
        let id = rest[..close].trim();
        let reason = rest[close + 1..].trim();
        let Some(rule) = RuleId::parse(id) else {
            findings.push(Finding {
                path: cx.path.clone(),
                line: c.line,
                rule: RuleId::LintAllow,
                msg: format!("unknown rule `{id}` in allow directive"),
            });
            continue;
        };
        if reason.is_empty() {
            findings.push(Finding {
                path: cx.path.clone(),
                line: c.line,
                rule: RuleId::LintAllow,
                msg: format!(
                    "allow({rule}) without a reason; suppressions must say why \
                     the rule does not apply"
                ),
            });
            continue;
        }
        allows.push(Allow {
            line: c.line,
            rule,
            whole_file,
            used: 0,
        });
    }
    (allows, findings)
}

/// Recursively collect `.rs` files under `root`, skipping build output and
/// VCS metadata. Paths come back workspace-relative and sorted.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Scan the workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let mut sources = Vec::new();
    for abs in collect_rs_files(root)? {
        let rel = abs
            .strip_prefix(root)
            .unwrap_or(&abs)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, fs::read_to_string(&abs)?));
    }
    Ok(scan_sources(&sources))
}
