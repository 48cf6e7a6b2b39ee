//! pitree-flow: path-sensitive dataflow rules over per-function CFGs and
//! the whole-workspace call graph.
//!
//! Every rule that needs control flow runs here, each a forward dataflow
//! fixpoint over [`crate::cfg::Cfg`] blocks followed by a single reporting
//! pass, on every function of every file:
//!
//! 1. **Latch order** (paper §4.1) — the set of held latch *classes* is
//!    tracked through every path; a guard pushed into a collection
//!    (`path.push((node, g))`, lock coupling's descent) is held by the
//!    collection until `pop`, `drain` or `drop` releases it. Each
//!    acquisition made while something is held adds an edge
//!    `held-class → new-class`. The graph is emitted as a DOT artifact, and
//!    a cycle among blocking (non-`try_`) edges in the quotient graph
//!    (page-role classes collapsed, since ordering *within* the page family
//!    is the runtime search-order argument) is a hard failure: deadlock
//!    freedom as a checked theorem. Over the same state, a blocking
//!    acquisition after a `.rev()` climb over a saved path, and a
//!    `promote()` while another blocking guard is held, are `latch-order`
//!    findings.
//! 2. **Guard lifetime** — a latch guard leaked via `forget`, or held
//!    across a blocking wait on some path.
//!
//! Log-before-dirty (§4.3.1) and No-Wait (§4.2.2) are not flow rules: the
//! types carry them. A frame's X guard hands out no `&mut Page` outside
//! `pagestore`, so a page changes only through `PinnedPage::apply_logged`
//! (after its append) or `PinnedPage::replay`; and a completing action sees
//! its transaction as a `NoWait` view, which has no blocking `lock`. A
//! double release is a use of a moved guard, which rustc rejects.
//!
//! A function the parser could not follow is itself a finding
//! (`unfollowed`): no rule falls back to token heuristics.
//!
//! The `sanction` callback consults `// pitree-lint: allow(...)`
//! directives: it returns `true` when a would-be finding at
//! `(file, line)` is suppressed, marking the allow used.

use crate::callgraph::CallGraph;
use crate::cfg::{lower, Cfg};
use crate::parse::{Event, FileAst, FnDef};
use crate::rules::{Finding, RuleId};
use std::collections::{BTreeMap, BTreeSet};

/// Files whose internals implement the latch/buffer machinery itself;
/// their acquisitions are the mechanism, not uses of the discipline.
const EXEMPT: [&str; 3] = [
    "crates/pagestore/src/latch.rs",
    "crates/pagestore/src/buffer.rs",
    "crates/pagestore/src/sync.rs",
];

/// Suppression oracle: `(file index, line, rule)` → suppressed?
pub type Sanction<'a> = dyn FnMut(usize, u32, RuleId) -> bool + 'a;

struct FlowFn<'a> {
    file: usize,
    def: &'a FnDef,
    cfg: Cfg,
}

/// Run all flow rules over the parsed workspace. Returns the findings
/// (suppressions already applied via `sanction`) and the latch-order
/// graph in DOT form.
pub fn analyze(asts: &[FileAst], sanction: &mut Sanction<'_>) -> (Vec<Finding>, String) {
    let mut findings = Vec::new();
    let mut fns: Vec<FlowFn<'_>> = Vec::new();
    for (fi, ast) in asts.iter().enumerate() {
        for def in ast.fns.iter().filter(|d| !d.followed) {
            findings.push(Finding {
                path: ast.path.clone(),
                line: def.line,
                rule: RuleId::Unfollowed,
                msg: format!(
                    "the flow rules cannot follow `{}`: the parser does not model a \
                     construct in its body; rewrite it or teach `parse.rs` the construct",
                    def.name
                ),
            });
        }
        if EXEMPT.contains(&ast.path.as_str()) {
            continue;
        }
        for def in &ast.fns {
            if def.is_test {
                continue;
            }
            fns.push(FlowFn {
                file: fi,
                def,
                cfg: lower(&def.body),
            });
        }
    }
    let cg = CallGraph::new(
        &fns.iter()
            .map(|f| (f.def.name.clone(), f.def.params, f.def.has_self))
            .collect::<Vec<_>>(),
    );

    let dot = latch_order_graph(asts, &fns, &cg, sanction, &mut findings);
    guard_lifetime(asts, &fns, sanction, &mut findings);
    (findings, dot)
}

// ---- dataflow scaffolding -------------------------------------------------

/// Forward worklist fixpoint: per-block *in*-states. `None` = unreachable.
fn fixpoint<S: Clone + PartialEq>(
    cfg: &Cfg,
    init: S,
    join: impl Fn(&S, &S) -> S,
    step: impl Fn(&S, &Event) -> S,
) -> Vec<Option<S>> {
    let mut input: Vec<Option<S>> = vec![None; cfg.blocks.len()];
    input[cfg.entry] = Some(init);
    let mut work = vec![cfg.entry];
    let mut guard = 0usize;
    while let Some(b) = work.pop() {
        guard += 1;
        if guard > 100_000 {
            break; // non-monotone join bug containment; never expected
        }
        let Some(mut s) = input[b].clone() else {
            continue;
        };
        for e in &cfg.blocks[b].events {
            s = step(&s, e);
        }
        for &succ in &cfg.blocks[b].succs {
            let merged = match &input[succ] {
                None => s.clone(),
                Some(old) => join(old, &s),
            };
            if input[succ].as_ref() != Some(&merged) {
                input[succ] = Some(merged);
                work.push(succ);
            }
        }
    }
    input
}

/// Replay each reachable block once from its in-state, calling `visit` on
/// every (state-before, event) pair. Findings are emitted here, exactly
/// once per program point.
fn visit_events<S: Clone>(
    cfg: &Cfg,
    input: &[Option<S>],
    step: impl Fn(&S, &Event) -> S,
    mut visit: impl FnMut(&S, &Event),
) {
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let Some(s0) = &input[b] else {
            continue;
        };
        let mut s = s0.clone();
        for e in &blk.events {
            visit(&s, e);
            s = step(&s, e);
        }
    }
}

// ---- rule 1: latch order and its graph (§4.1) ------------------------------

/// Latch class of an acquisition receiver, from the workspace's naming
/// conventions (guard/pin variables name their role in the SMO).
fn latch_class(recv: Option<&str>) -> &'static str {
    let Some(r) = recv else { return "node" };
    if r.contains("alloc") {
        "alloc"
    } else if r == "smo" {
        "smo"
    } else if r.starts_with("bm") {
        "spacemap"
    } else if r.starts_with("meta") {
        "meta"
    } else if r == "n_pin" {
        "contained"
    } else if r.starts_with("hist") || matches!(r, "hp" | "hpin" | "hg") {
        "history"
    } else if r.starts_with("new") || matches!(r, "np" | "n1_pin" | "n2_pin" | "ng") {
        "newpage"
    } else if r.starts_with("parent") || matches!(r, "pg" | "u") {
        "parent"
    } else if r.starts_with("child") || matches!(r, "cpin" | "cp" | "c_pin" | "cg") {
        "child"
    } else if r.starts_with("sib") || r.starts_with("next") || r == "sp" {
        "sibling"
    } else if r.starts_with("root") {
        "root"
    } else {
        "node"
    }
}

/// Quotient for the cycle check: the page-role classes collapse into one
/// node, because ordering among tree pages is the *runtime* search order,
/// not a static total order between roles. Within the page family the
/// `latch-order` rule (a climb up a saved path may only use `try_*`) and
/// the concurrent oracles cover it.
fn quot(class: &str) -> &'static str {
    match class {
        "alloc" => "alloc",
        "spacemap" => "spacemap",
        "smo" => "smo",
        _ => "page",
    }
}

/// An edge participates in the static cycle check unless both endpoints
/// are tree pages (the quotient's internal structure).
fn cycle_relevant(from: &str, to: &str) -> bool {
    !(quot(from) == "page" && quot(to) == "page")
}

/// Latch-order state at a program point.
#[derive(Debug, Clone, Default, PartialEq)]
struct Latches {
    /// Held guards as (binding, class, blocking). A collection binding
    /// holds the class of every guard pushed into it.
    held: BTreeSet<(String, String, bool)>,
    /// A `.rev()` climb over a saved path ran on some path to here.
    climbing: bool,
}

fn latch_join(a: &Latches, b: &Latches) -> Latches {
    Latches {
        held: a.held.union(&b.held).cloned().collect(),
        climbing: a.climbing || b.climbing,
    }
}

fn latch_step(s: &Latches, e: &Event) -> Latches {
    let mut s = s.clone();
    let held = &mut s.held;
    match e {
        Event::Acquire {
            var: Some(v),
            recv,
            blocking,
            ..
        } => {
            held.retain(|(x, ..)| x != v);
            held.insert((
                v.clone(),
                latch_class(recv.as_deref()).to_string(),
                *blocking,
            ));
        }
        Event::Promote { recv, var, .. } => {
            let (cls, blocking) = recv
                .as_deref()
                .and_then(|r| held.iter().find(|(x, ..)| x == r))
                .map_or(("node".to_string(), true), |(_, c, b)| (c.clone(), *b));
            if let Some(r) = recv {
                held.retain(|(x, ..)| x != r);
            }
            if let Some(v) = var {
                held.retain(|(x, ..)| x != v);
                held.insert((v.clone(), cls, blocking));
            }
        }
        Event::DropVar { var } => held.retain(|(x, ..)| x != var),
        Event::AssignVar { dst, src, .. } => {
            let moved: Vec<_> = held.iter().filter(|(x, ..)| x == src).cloned().collect();
            held.retain(|(x, ..)| x != dst && x != src);
            held.extend(moved.into_iter().map(|(_, c, b)| (dst.clone(), c, b)));
        }
        Event::Call {
            name, recv, moved, ..
        } => {
            let taken: Vec<_> = held
                .iter()
                .filter(|(x, ..)| moved.contains(x))
                .cloned()
                .collect();
            held.retain(|(x, ..)| !moved.contains(x));
            match (name.as_str(), recv) {
                ("push", Some(c)) => {
                    held.extend(taken.into_iter().map(|(_, cls, b)| (c.clone(), cls, b)));
                }
                ("pop" | "drain", Some(c)) => held.retain(|(x, ..)| x != c),
                _ => {}
            }
        }
        Event::Climb { .. } => s.climbing = true,
        _ => {}
    }
    s
}

#[derive(Debug)]
struct EdgeInfo {
    count: usize,
    file: usize,
    line: u32,
    /// All occurrences carry an `allow(latch-cycle)`: drawn gray, out of
    /// the cycle check.
    exempt: bool,
}

fn latch_order_graph(
    asts: &[FileAst],
    fns: &[FlowFn<'_>],
    cg: &CallGraph,
    sanction: &mut Sanction<'_>,
    findings: &mut Vec<Finding>,
) -> String {
    // Interprocedural summaries: classes a function blocking-acquires,
    // directly or through any callee (union fixpoint).
    let mut acq: Vec<BTreeSet<String>> = fns
        .iter()
        .map(|f| {
            let mut set = BTreeSet::new();
            for blk in &f.cfg.blocks {
                for e in &blk.events {
                    if let Event::Acquire {
                        blocking: true,
                        recv,
                        ..
                    } = e
                    {
                        set.insert(latch_class(recv.as_deref()).to_string());
                    }
                }
            }
            set
        })
        .collect();
    // Summaries flow only through *unambiguous* call resolutions: with
    // name/arity matching, a popular name (`apply`, `insert`) resolves to
    // many unrelated functions and would union every class into every
    // call site, saturating the graph into uselessness. Dropping ambiguous
    // edges under-approximates; the concurrent oracles exercise what the
    // static graph cannot see.
    let callees: Vec<Vec<usize>> = fns
        .iter()
        .map(|f| {
            let mut out = Vec::new();
            for blk in &f.cfg.blocks {
                for e in &blk.events {
                    if let Event::Call {
                        name, args, method, ..
                    } = e
                    {
                        let cands = cg.resolve(name, *args, *method);
                        if let [one] = cands[..] {
                            out.push(one);
                        }
                    }
                }
            }
            out
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            for &c in &callees[i] {
                if c == i {
                    continue;
                }
                let extra: Vec<String> = acq[c].difference(&acq[i]).cloned().collect();
                if !extra.is_empty() {
                    acq[i].extend(extra);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Collect edges: (from-class, to-class, blocking) → info, and the
    // climb / promotion violations over the same state.
    let mut edges: BTreeMap<(String, String, bool), EdgeInfo> = BTreeMap::new();
    for f in fns {
        let input = fixpoint(&f.cfg, Latches::default(), latch_join, latch_step);
        let mut order: Vec<(u32, String)> = Vec::new();
        visit_events(&f.cfg, &input, latch_step, |s, e| {
            let mut record = |to: &str, blocking: bool, line: u32| {
                for (_, from, _) in s.held.iter() {
                    let key = (from.clone(), to.to_string(), blocking);
                    let relevant = blocking && cycle_relevant(from, to);
                    let ok = relevant && sanction(f.file, line, RuleId::LatchCycle);
                    let info = edges.entry(key).or_insert(EdgeInfo {
                        count: 0,
                        file: f.file,
                        line,
                        exempt: true,
                    });
                    info.count += 1;
                    if relevant {
                        info.exempt &= ok;
                    }
                }
            };
            match e {
                Event::Acquire {
                    mode,
                    recv,
                    blocking,
                    line,
                    ..
                } => {
                    record(latch_class(recv.as_deref()), *blocking, *line);
                    if *blocking && s.climbing {
                        order.push((
                            *line,
                            format!(
                                "blocking {}-latch acquisition while climbing a saved path \
                                 in `{}`; climbs go up the search order and must use try_* \
                                 (paper 4.1 / 5.2.2b)",
                                mode.name(),
                                f.def.name
                            ),
                        ));
                    }
                }
                Event::Promote { recv, line, .. } => {
                    let other = s
                        .held
                        .iter()
                        .find(|(x, _, blocking)| *blocking && Some(x) != recv.as_ref());
                    if let Some((x, class, _)) = other {
                        order.push((
                            *line,
                            format!(
                                "U->X promotion in `{}` while blocking {class} latch `{x}` \
                                 may still be held; promote before latching later-ordered \
                                 nodes (paper 4.1.1)",
                                f.def.name
                            ),
                        ));
                    }
                }
                Event::Call {
                    name,
                    args,
                    method,
                    line,
                    ..
                } if !s.held.is_empty() => {
                    // Same unambiguous-resolution restriction as the
                    // summary fixpoint above.
                    if let [c] = cg.resolve(name, *args, *method)[..] {
                        for cls in acq[c].clone() {
                            record(&cls, true, *line);
                        }
                    }
                }
                _ => {}
            }
        });
        for (line, msg) in order {
            if !sanction(f.file, line, RuleId::LatchOrder) {
                findings.push(Finding {
                    path: asts[f.file].path.clone(),
                    line,
                    rule: RuleId::LatchOrder,
                    msg,
                });
            }
        }
    }

    // Quotient cycle check over blocking, non-exempt, cycle-relevant edges.
    let mut q: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut site: BTreeMap<(&str, &str), (usize, u32)> = BTreeMap::new();
    for ((from, to, blocking), info) in &edges {
        if !*blocking || info.exempt || !cycle_relevant(from, to) {
            continue;
        }
        let (qf, qt) = (quot(from), quot(to));
        q.entry(qf).or_default().insert(qt);
        site.entry((qf, qt)).or_insert((info.file, info.line));
    }
    let cycle = find_cycle(&q);
    if let Some(path) = &cycle {
        let (fi, line) = path
            .windows(2)
            .find_map(|w| site.get(&(w[0], w[1])).copied())
            .unwrap_or((0, 0));
        findings.push(Finding {
            path: asts.get(fi).map(|a| a.path.clone()).unwrap_or_default(),
            line,
            rule: RuleId::LatchCycle,
            msg: format!(
                "latch-acquisition order graph has a cycle: {}; a global \
                 acquisition order is what makes latching deadlock-free \
                 (paper 4.1) — see the DOT artifact",
                path.join(" -> ")
            ),
        });
    }

    // DOT artifact.
    let mut dot = String::new();
    dot.push_str("// pitree-flow latch-acquisition order graph (paper 4.1)\n");
    dot.push_str(&format!("// acyclic: {}\n", cycle.is_none()));
    dot.push_str("digraph latch_order {\n  rankdir=LR;\n");
    for ((from, to, blocking), info) in &edges {
        let path = asts.get(info.file).map(|a| a.path.as_str()).unwrap_or("?");
        let mut attrs = vec![format!("label=\"{}x {}:{}\"", info.count, path, info.line)];
        if !*blocking {
            attrs.push("style=dashed".to_string());
        } else if info.exempt && cycle_relevant(from, to) {
            attrs.push("color=gray".to_string());
        }
        dot.push_str(&format!(
            "  \"{from}\" -> \"{to}\" [{}];\n",
            attrs.join(", ")
        ));
    }
    dot.push_str("}\n");
    dot
}

/// DFS cycle search; returns a closed node path `a -> ... -> a` if found.
fn find_cycle<'a>(g: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Option<Vec<&'a str>> {
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 0 white 1 gray 2 black
    let mut stack: Vec<&str> = Vec::new();
    fn dfs<'a>(
        n: &'a str,
        g: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        color: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<&'a str>> {
        color.insert(n, 1);
        stack.push(n);
        if let Some(succs) = g.get(n) {
            for &m in succs {
                match color.get(m).copied().unwrap_or(0) {
                    0 => {
                        if let Some(c) = dfs(m, g, color, stack) {
                            return Some(c);
                        }
                    }
                    1 => {
                        let start = stack.iter().position(|&x| x == m).unwrap_or(0);
                        let mut path: Vec<&str> = stack[start..].to_vec();
                        path.push(m);
                        return Some(path);
                    }
                    _ => {}
                }
            }
        }
        stack.pop();
        color.insert(n, 2);
        None
    }
    for &n in g.keys() {
        if color.get(n).copied().unwrap_or(0) == 0 {
            if let Some(c) = dfs(n, g, &mut color, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

// ---- rule 2: guard lifetime -----------------------------------------------

/// The guards that may still be held here, on some path.
type Guards = BTreeSet<String>;

fn guard_step(s: &Guards, e: &Event) -> Guards {
    let mut s = s.clone();
    match e {
        Event::Acquire { var: Some(v), .. } => {
            s.insert(v.clone());
        }
        Event::Promote { recv, var, .. } => {
            if let Some(r) = recv {
                s.remove(r);
            }
            if let Some(v) = var {
                s.insert(v.clone());
            }
        }
        Event::DropVar { var } | Event::Forget { var: Some(var), .. } => {
            s.remove(var);
        }
        Event::AssignVar { dst, src, .. } => {
            s.remove(dst);
            if s.remove(src) {
                s.insert(dst.clone());
            }
        }
        Event::Call { moved, .. } => {
            for m in moved {
                s.remove(m);
            }
        }
        _ => {}
    }
    s
}

fn guard_join(a: &Guards, b: &Guards) -> Guards {
    a.union(b).cloned().collect()
}

fn guard_lifetime(
    asts: &[FileAst],
    fns: &[FlowFn<'_>],
    sanction: &mut Sanction<'_>,
    findings: &mut Vec<Finding>,
) {
    let mut seen: BTreeSet<(usize, u32, String)> = BTreeSet::new();
    for f in fns {
        let input = fixpoint(&f.cfg, Guards::new(), guard_join, guard_step);
        visit_events(&f.cfg, &input, guard_step, |s, e| {
            let mut emit = |line: u32, msg: String, key: String| {
                if !seen.insert((f.file, line, key)) {
                    return;
                }
                if sanction(f.file, line, RuleId::GuardLifetime) {
                    return;
                }
                findings.push(Finding {
                    path: asts[f.file].path.clone(),
                    line,
                    rule: RuleId::GuardLifetime,
                    msg,
                });
            };
            match e {
                Event::Forget { var: Some(v), line } if s.contains(v) => {
                    emit(
                        *line,
                        format!(
                            "latch guard `{v}` in `{}` is leaked via forget(...); \
                             the latch is never released and every later acquirer \
                             deadlocks",
                            f.def.name
                        ),
                        format!("leak:{v}"),
                    );
                }
                Event::Wait { what, line } if !s.is_empty() => {
                    let held: Vec<&str> = s.iter().map(String::as_str).collect();
                    emit(
                        *line,
                        format!(
                            "blocking wait `{what}(...)` in `{}` while latch guard(s) \
                             `{}` may still be held on some path; release latches \
                             before blocking (paper 4.2.2)",
                            f.def.name,
                            held.join("`, `")
                        ),
                        format!("wait:{what}"),
                    );
                }
                _ => {}
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileCx;
    use crate::parse::parse_file;

    fn run(files: &[(&str, &str)]) -> (Vec<Finding>, String) {
        let asts: Vec<FileAst> = files
            .iter()
            .map(|(p, s)| parse_file(&FileCx::new(p, s)))
            .collect();
        let mut never = |_: usize, _: u32, _: RuleId| false;
        analyze(&asts, &mut never)
    }

    #[test]
    fn inverted_order_is_a_cycle() {
        let (f, dot) = run(&[(
            "crates/core/src/fake.rs",
            "fn a(&self, pin: &Pin, store: &S) { let g = pin.x(); let a = store.space.lock_alloc(); }\n\
             fn b(&self, pin: &Pin, store: &S) { let a = store.space.lock_alloc(); let g = pin.x(); }",
        )]);
        assert!(f.iter().any(|x| x.rule == RuleId::LatchCycle), "{f:?}");
        assert!(dot.contains("// acyclic: false"));
    }

    #[test]
    fn stratified_order_is_acyclic() {
        let (f, dot) = run(&[(
            "crates/core/src/fake.rs",
            "fn a(&self, pin: &Pin, store: &S) { let g = pin.x(); let a = store.space.lock_alloc(); }",
        )]);
        assert!(!f.iter().any(|x| x.rule == RuleId::LatchCycle), "{f:?}");
        assert!(dot.contains("// acyclic: true"));
        assert!(dot.contains("\"node\" -> \"alloc\""));
    }

    #[test]
    fn wait_while_latched_fires() {
        let (f, _) = run(&[(
            "crates/core/src/fake.rs",
            "fn a(&self, pin: &Pin, wal: &W) { let g = pin.x(); wal.force(); drop(g); }",
        )]);
        assert!(f.iter().any(|x| x.rule == RuleId::GuardLifetime), "{f:?}");
    }

    #[test]
    fn drop_before_wait_is_quiet() {
        let (f, _) = run(&[(
            "crates/core/src/fake.rs",
            "fn a(&self, pin: &Pin, wal: &W) { let g = pin.x(); drop(g); wal.force(); }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
