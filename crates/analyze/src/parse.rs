//! Structural parser: token stream → per-function event trees.
//!
//! This is not a Rust parser; it recovers exactly the structure the flow
//! analyses need — statement sequencing, branching (`if`/`else`, `match`
//! arms, `let ... else`), loops, early exits (`return`, `?`, `break`,
//! `continue`), and lexical scopes with their guard bindings — and reduces
//! everything else to a flat stream of protocol-relevant [`Event`]s:
//! latch acquisitions, guard drops/moves, WAL appends, page dirtying,
//! blocking lock acquisition, blocking waits, climbs over a saved path, and
//! calls (for the call graph). A guard-position `if` (a match-arm guard, or
//! the `P if g` of `matches!`) is read as more events, not as a branch, and
//! a loop header may hold an `if … else …` expression.
//! Unknown constructs degrade to "no event", never to a parse abort; a
//! function the parser still cannot follow is marked `followed = false`,
//! and [`crate::flow`] reports it as a finding.

use crate::context::{matching_brace, matching_bracket, FileCx};
use crate::lexer::{TokKind, Token};
use std::collections::BTreeMap;

/// Latch mode of an acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Shared.
    S,
    /// Update.
    U,
    /// Exclusive.
    X,
}

impl Mode {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::S => "S",
            Mode::U => "U",
            Mode::X => "X",
        }
    }
}

/// One protocol-relevant action, in program order within its block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Latch acquisition: `recv.s()` / `.u()` / `.x()` (blocking) or the
    /// `try_` variants (conditional). `var` is the guard binding when the
    /// statement is a `let`/assignment; `recv` the receiver identifier.
    Acquire {
        /// Requested mode.
        mode: Mode,
        /// `false` for `try_*` acquisition.
        blocking: bool,
        /// Receiver identifier (used for latch-class inference).
        recv: Option<String>,
        /// Guard binding, when assigned to a variable.
        var: Option<String>,
        /// Source line.
        line: u32,
    },
    /// `.rev()` over a saved `path`/`entries`: the walk climbs back up the
    /// search order (§5.2.2b), where only `try_*` acquisition is allowed.
    Climb {
        /// Source line.
        line: u32,
    },
    /// `recv.promote()`: consumes the receiver's guard, yields a new one.
    Promote {
        /// The guard being promoted (consumed).
        recv: Option<String>,
        /// New guard binding.
        var: Option<String>,
        /// Source line.
        line: u32,
    },
    /// `drop(var)`, or the synthetic release at scope exit (`implicit`).
    DropVar {
        /// The dropped binding.
        var: String,
        /// Source line (0 for synthetic scope-exit drops).
        line: u32,
        /// Synthetic scope-exit drop: releases silently, never a finding.
        implicit: bool,
    },
    /// `dst = src;` — a move; `dst`'s previous guard (if any) is released.
    AssignVar {
        /// Assignment target.
        dst: String,
        /// Moved-from source.
        src: String,
        /// Source line.
        line: u32,
    },
    /// `forget(var)` / `mem::forget(var)`: the guard leaks.
    Forget {
        /// Leaked binding, when a plain identifier.
        var: Option<String>,
        /// Source line.
        line: u32,
    },
    /// WAL `.append(...)`.
    Append {
        /// Source line.
        line: u32,
    },
    /// Page dirtying: `.mark_dirty()` / `.mark_dirty_at(...)` / `.data_mut()`.
    Dirty {
        /// Which dirtying method.
        method: String,
        /// Source line.
        line: u32,
    },
    /// Blocking lock acquisition: `.lock(args...)` / `.acquire(args...)`
    /// with ≥1 argument (the txn-lock API), or `.lock_alloc()`.
    BlockingLock {
        /// Method name.
        what: String,
        /// Source line.
        line: u32,
    },
    /// A blocking wait: condvar/durability waits, `force`/`force_to`,
    /// 0-arg `join`/`recv`, `sleep(...)`.
    Wait {
        /// Method name.
        what: String,
        /// Source line.
        line: u32,
    },
    /// Any other call, kept for call-graph resolution. `moved` lists plain
    /// by-value identifier arguments (guards moved into the callee, or into
    /// the receiver collection of a `push`).
    Call {
        /// Callee name (method name or free-function name).
        name: String,
        /// Receiver identifier of a method call.
        recv: Option<String>,
        /// Argument count (including the receiver-position argument for
        /// UFCS-style `Type::f(&x, ...)` free calls).
        args: usize,
        /// `true` for `.name(...)` method syntax.
        method: bool,
        /// Identifiers passed by value (not behind `&`).
        moved: Vec<String>,
        /// Source line.
        line: u32,
    },
}

/// Structured function body.
#[derive(Debug, Clone)]
pub enum Node {
    /// Sequential composition.
    Seq(Vec<Node>),
    /// A single event.
    Event(Event),
    /// One alternative is taken.
    Branch(Vec<Node>),
    /// Body may run zero or more times.
    Loop(Box<Node>),
    /// Lexical scope; the listed bindings are dropped at scope exit.
    Scope(Box<Node>, Vec<String>),
    /// `return ...;`
    Return,
    /// `?`: either early-exit or continue.
    TryExit,
    /// `break` (to innermost loop's exit).
    Break,
    /// `continue` (to innermost loop's head).
    Continue,
}

/// One parsed function.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameter count, excluding `self`.
    pub params: usize,
    /// Whether the function takes `self`.
    pub has_self: bool,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Inside test-only code.
    pub is_test: bool,
    /// False when some construct in the body could not be followed.
    pub followed: bool,
    /// Structured body.
    pub body: Node,
}

/// One parsed file.
#[derive(Debug, Clone)]
pub struct FileAst {
    /// Workspace-relative path.
    pub path: String,
    /// All functions (including test functions, flagged).
    pub fns: Vec<FnDef>,
}

/// Parse every function in `cx`.
pub fn parse_file(cx: &FileCx) -> FileAst {
    let sigs = signatures(&cx.tokens);
    let mut fns = Vec::new();
    for span in &cx.fns {
        let (params, has_self, line) = sigs.get(&span.body_start).copied().unwrap_or((
            0,
            false,
            cx.tokens[span.body_start].line,
        ));
        let mut p = Parser {
            toks: &cx.tokens,
            ok: true,
        };
        let mut binds = Vec::new();
        let body = p.stmts(span.body_start + 1, span.body_end, &mut binds);
        fns.push(FnDef {
            name: span.name.clone(),
            params,
            has_self,
            line,
            is_test: cx.is_test[span.body_start],
            followed: p.ok,
            body: Node::Scope(Box::new(body), binds),
        });
    }
    FileAst {
        path: cx.path.clone(),
        fns,
    }
}

/// Map body-brace index → (param count excl. self, has_self, line), by
/// scanning each `fn` signature: generics are skipped with `->`-guarded
/// angle tracking; parameters are counted as top-level `:` occurrences
/// (every parameter except `self` carries exactly one).
fn signatures(toks: &[Token]) -> BTreeMap<usize, (usize, bool, u32)> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)) {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        // Find the parameter `(` at angle depth 0.
        let mut j = i + 2;
        let mut angle = 0i32;
        let popen = loop {
            match toks.get(j) {
                None => break None,
                Some(t) if t.is_punct('<') => angle += 1,
                Some(t) if t.is_punct('>') && !(j > 0 && toks[j - 1].is_punct('-')) => {
                    angle -= 1;
                }
                Some(t) if t.is_punct('(') && angle == 0 => break Some(j),
                Some(t) if t.is_punct('{') || t.is_punct(';') => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(popen) = popen else {
            i += 2;
            continue;
        };
        let (params, has_self, close) = param_count(toks, popen);
        // Find the body `{` (or `;` for a bodyless declaration).
        let mut k = close + 1;
        let mut depth = 0i32;
        let body = loop {
            match toks.get(k) {
                None => break None,
                Some(t) if t.is_punct('(') || t.is_punct('[') => depth += 1,
                Some(t) if t.is_punct(')') || t.is_punct(']') => depth -= 1,
                Some(t) if t.is_punct(';') && depth == 0 => break None,
                Some(t) if t.is_punct('{') && depth == 0 => break Some(k),
                _ => {}
            }
            k += 1;
        };
        if let Some(b) = body {
            out.insert(b, (params, has_self, line));
        }
        i += 2;
    }
    out
}

/// Count parameters inside the paren group at `open`; returns
/// (params excl. self, has_self, index of the closing paren).
fn param_count(toks: &[Token], open: usize) -> (usize, bool, usize) {
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut colons = 0usize;
    let mut has_self = false;
    let mut i = open;
    let mut close = toks.len().saturating_sub(1);
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_bytes().first().copied().unwrap_or(b' ') {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = i;
                        break;
                    }
                }
                b'<' if depth == 1 => angle += 1,
                b'>' if depth == 1 && !(i > 0 && toks[i - 1].is_punct('-')) => {
                    angle -= 1;
                }
                b':' if depth == 1 && angle == 0 => {
                    let prev_colon = i > 0 && toks[i - 1].is_punct(':');
                    let next_colon = toks.get(i + 1).is_some_and(|t| t.is_punct(':'));
                    if !prev_colon && !next_colon {
                        colons += 1;
                    }
                }
                _ => {}
            }
        } else if t.is_ident("self") && depth == 1 && angle == 0 {
            has_self = true;
        }
        i += 1;
    }
    (colons, has_self, close)
}

const KEYWORDS: [&str; 24] = [
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let", "mut",
    "ref", "move", "in", "as", "fn", "pub", "use", "mod", "impl", "trait", "struct", "enum",
    "where",
];

struct Parser<'a> {
    toks: &'a [Token],
    ok: bool,
}

impl<'a> Parser<'a> {
    /// Parse statements in `[i, end)` into a `Seq`. Bindings declared here
    /// (guards from `let` statements) are appended to `binds`, which the
    /// enclosing scope drops on exit.
    fn stmts(&mut self, mut i: usize, end: usize, binds: &mut Vec<String>) -> Node {
        let mut out = Vec::new();
        while i < end {
            let before = i;
            let t = &self.toks[i];
            if t.kind == TokKind::Punct {
                match t.text.as_bytes().first().copied().unwrap_or(b' ') {
                    b'{' => {
                        let (n, ni) = self.block(i);
                        out.push(n);
                        i = ni;
                    }
                    b'#' if self.toks.get(i + 1).is_some_and(|t| t.is_punct('[')) => {
                        i = matching_bracket(self.toks, i + 1) + 1;
                    }
                    b'?' => {
                        out.push(Node::TryExit);
                        i += 1;
                    }
                    _ => {
                        if let Some((evs, ni, nb)) = self.read_events_at(i, end) {
                            out.extend(evs.into_iter().map(Node::Event));
                            binds.extend(nb);
                            i = ni;
                        } else {
                            i += 1;
                        }
                    }
                }
            } else if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "if" => {
                        let (n, ni) = self.if_chain(i, end, binds);
                        out.push(n);
                        i = ni;
                    }
                    "match" => {
                        let (n, ni) = self.match_node(i, end, binds);
                        out.push(n);
                        i = ni;
                    }
                    "loop" => {
                        if self.toks.get(i + 1).is_some_and(|t| t.is_punct('{')) {
                            let (body, ni) = self.block(i + 1);
                            out.push(Node::Loop(Box::new(body)));
                            i = ni;
                        } else {
                            i += 1;
                        }
                    }
                    "while" | "for" => {
                        let Some(open) = self.loop_body(i + 1, end) else {
                            self.ok = false;
                            i += 1;
                            continue;
                        };
                        let header = self.stmts(i + 1, open, binds);
                        let (body, ni) = self.block(open);
                        out.push(Node::Loop(Box::new(Node::Seq(vec![header, body]))));
                        i = ni;
                    }
                    "else" => {
                        // `let ... else { ... }`: the block runs conditionally
                        // (and must diverge); model as a branch so its early
                        // exit does not kill the fall-through path.
                        if self.toks.get(i + 1).is_some_and(|t| t.is_punct('{')) {
                            let (b, ni) = self.block(i + 1);
                            out.push(Node::Branch(vec![b, Node::Seq(Vec::new())]));
                            i = ni;
                        } else {
                            i += 1;
                        }
                    }
                    "return" => {
                        let semi = self.find_d0(i + 1, end, b';').unwrap_or(end);
                        let e = self.stmts(i + 1, semi, binds);
                        out.push(e);
                        out.push(Node::Return);
                        i = semi + 1;
                    }
                    "break" => {
                        out.push(Node::Break);
                        i = self.find_d0(i + 1, end, b';').map_or(end, |s| s + 1);
                    }
                    "continue" => {
                        out.push(Node::Continue);
                        i = self.find_d0(i + 1, end, b';').map_or(end, |s| s + 1);
                    }
                    "fn" => {
                        // Nested fn item: parsed as its own FnDef; skip here.
                        i = self.skip_fn_item(i, end);
                    }
                    "matches"
                        if self.toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                            && self.toks.get(i + 2).is_some_and(|t| t.is_punct('(')) =>
                    {
                        let close = self.find_d0(i + 3, end, b')').unwrap_or(end);
                        out.push(self.guarded(i + 3, close, binds));
                        i = close + 1;
                    }
                    _ => {
                        if let Some((evs, ni, nb)) = self.read_events_at(i, end) {
                            out.extend(evs.into_iter().map(Node::Event));
                            binds.extend(nb);
                            i = ni;
                        } else {
                            i += 1;
                        }
                    }
                }
            } else {
                i += 1;
            }
            if i <= before {
                i = before + 1;
            }
        }
        Node::Seq(out)
    }

    /// Parse the block opening at `open` (`{`); returns (scope, past-`}`).
    fn block(&mut self, open: usize) -> (Node, usize) {
        let close = matching_brace(self.toks, open);
        let mut binds = Vec::new();
        let inner = self.stmts(open + 1, close, &mut binds);
        (Node::Scope(Box::new(inner), binds), close + 1)
    }

    /// `if`/`else if`/`else` chain starting at the `if` keyword.
    fn if_chain(&mut self, i: usize, end: usize, binds: &mut Vec<String>) -> (Node, usize) {
        let Some(open) = self.find_d0(i + 1, end, b'{') else {
            self.ok = false;
            return (Node::Seq(Vec::new()), end);
        };
        let cond = self.stmts(i + 1, open, binds);
        let (then_n, mut ni) = self.block(open);
        let mut alts = vec![then_n];
        if ni < end && self.toks[ni].is_ident("else") {
            if self.toks.get(ni + 1).is_some_and(|t| t.is_ident("if")) {
                let (els, nj) = self.if_chain(ni + 1, end, binds);
                alts.push(els);
                ni = nj;
            } else if self.toks.get(ni + 1).is_some_and(|t| t.is_punct('{')) {
                let (els, nj) = self.block(ni + 1);
                alts.push(els);
                ni = nj;
            } else {
                alts.push(Node::Seq(Vec::new()));
                ni += 1;
            }
        } else {
            alts.push(Node::Seq(Vec::new()));
        }
        (Node::Seq(vec![cond, Node::Branch(alts)]), ni)
    }

    /// `match` expression starting at the `match` keyword.
    fn match_node(&mut self, i: usize, end: usize, binds: &mut Vec<String>) -> (Node, usize) {
        let Some(open) = self.find_d0(i + 1, end, b'{') else {
            self.ok = false;
            return (Node::Seq(Vec::new()), end);
        };
        let scrut = self.stmts(i + 1, open, binds);
        let close = matching_brace(self.toks, open);
        let mut arms = Vec::new();
        let mut j = open + 1;
        while j < close {
            let Some(arrow) = self.find_arrow(j, close) else {
                break;
            };
            let mut abinds = Vec::new();
            let pat = self.guarded(j, arrow, &mut abinds);
            let mut k = arrow + 2;
            let body;
            if k < close && self.toks[k].is_punct('{') {
                let (b, nk) = self.block(k);
                body = b;
                k = nk;
                if k < close && self.toks[k].is_punct(',') {
                    k += 1;
                }
            } else {
                let aend = self.find_d0(k, close, b',').unwrap_or(close);
                body = self.stmts(k, aend, &mut abinds);
                k = aend + 1;
            }
            arms.push(Node::Seq(vec![pat, Node::Scope(Box::new(body), abinds)]));
            j = k.max(j + 1);
        }
        if arms.is_empty() {
            arms.push(Node::Seq(Vec::new()));
        }
        (Node::Seq(vec![scrut, Node::Branch(arms)]), close + 1)
    }

    /// Parse `[i, end)`, a pattern that may end in a guard: a depth-0 `if`
    /// (a match-arm guard, or the `P if g` of `matches!`) starts more events
    /// — the guard is evaluated on the way in — not a branch.
    fn guarded(&mut self, i: usize, end: usize, binds: &mut Vec<String>) -> Node {
        match self.find_d0_by(i, end, |t| t.is_ident("if")) {
            Some(k) => Node::Seq(vec![self.stmts(i, k, binds), self.stmts(k + 1, end, binds)]),
            None => self.stmts(i, end, binds),
        }
    }

    /// The `{` opening the body of a `while`/`for` whose header starts at
    /// `i`, past any `if … else …` expression in the header
    /// (`for _ in 0..if t { 1 } else { n } {`).
    fn loop_body(&self, mut i: usize, end: usize) -> Option<usize> {
        loop {
            let open = self.find_d0_by(i, end, |t| t.is_punct('{') || t.is_ident("if"))?;
            if self.toks[open].is_punct('{') {
                return Some(open);
            }
            i = open;
            loop {
                let block = self.find_d0(i + 1, end, b'{')?;
                i = matching_brace(self.toks, block) + 1;
                if !(i < end && self.toks[i].is_ident("else")) {
                    break;
                }
            }
        }
    }

    /// Skip a nested `fn` item (signature + body or `;`).
    fn skip_fn_item(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 2;
        let mut paren = 0i32;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                paren -= 1;
            } else if t.is_punct(';') && paren == 0 {
                return j + 1;
            } else if t.is_punct('{') && paren == 0 {
                return matching_brace(self.toks, j) + 1;
            }
            j += 1;
        }
        end
    }

    /// Find punct `target` at paren/bracket/brace depth 0 within `[i, end)`.
    fn find_d0(&self, i: usize, end: usize, target: u8) -> Option<usize> {
        self.find_d0_by(i, end, |t| {
            t.kind == TokKind::Punct && t.text.as_bytes().first() == Some(&target)
        })
    }

    /// Find a token matching `hit` at paren/bracket/brace depth 0 within
    /// `[i, end)`; `None` if a closing delimiter ends the group first.
    fn find_d0_by(&self, mut i: usize, end: usize, hit: impl Fn(&Token) -> bool) -> Option<usize> {
        let mut paren = 0i32;
        let mut brack = 0i32;
        let mut brace = 0i32;
        while i < end {
            let t = &self.toks[i];
            if paren == 0 && brack == 0 && brace == 0 && hit(t) {
                return Some(i);
            }
            if t.kind == TokKind::Punct {
                let c = t.text.as_bytes().first().copied().unwrap_or(b' ');
                match c {
                    b'(' => paren += 1,
                    b')' => paren -= 1,
                    b'[' => brack += 1,
                    b']' => brack -= 1,
                    b'{' => brace += 1,
                    b'}' => brace -= 1,
                    _ => {}
                }
                if paren < 0 || brack < 0 || brace < 0 {
                    return None;
                }
            }
            i += 1;
        }
        None
    }

    /// Find a depth-0 `=>` within `[i, end)`; returns the `=` index.
    fn find_arrow(&self, mut i: usize, end: usize) -> Option<usize> {
        let mut paren = 0i32;
        let mut brack = 0i32;
        let mut brace = 0i32;
        while i + 1 < end {
            let t = &self.toks[i];
            if t.kind == TokKind::Punct {
                let c = t.text.as_bytes().first().copied().unwrap_or(b' ');
                match c {
                    b'(' => paren += 1,
                    b')' => paren -= 1,
                    b'[' => brack += 1,
                    b']' => brack -= 1,
                    b'{' => brace += 1,
                    b'}' => brace -= 1,
                    b'=' if paren == 0 && brack == 0 && brace == 0 => {
                        let prev_eq = i > 0 && {
                            let p = &self.toks[i - 1];
                            p.is_punct('=') || p.is_punct('<') || p.is_punct('>') || p.is_punct('!')
                        };
                        if !prev_eq && self.toks[i + 1].is_punct('>') {
                            return Some(i);
                        }
                    }
                    _ => {}
                }
                if paren < 0 || brack < 0 || brace < 0 {
                    return None;
                }
            }
            i += 1;
        }
        None
    }

    /// Try to read one or more events starting at token `i`.
    /// Returns (events, next index, newly declared bindings).
    #[allow(clippy::type_complexity)]
    fn read_events_at(&mut self, i: usize, end: usize) -> Option<(Vec<Event>, usize, Vec<String>)> {
        let t = &self.toks[i];
        let line = t.line;

        // `drop(v)` — explicit guard release.
        if t.is_ident("drop")
            && self.toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && self.toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(v) = self.toks.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                return Some((
                    vec![Event::DropVar {
                        var: v.text.clone(),
                        line,
                        implicit: false,
                    }],
                    i + 4,
                    Vec::new(),
                ));
            }
        }

        // `forget(v)` / `mem::forget(v)` — guard leak.
        if t.is_ident("forget") && self.toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            let var = self
                .toks
                .get(i + 2)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
            return Some((vec![Event::Forget { var, line }], i + 2, Vec::new()));
        }

        // Method calls: `.name(`.
        if t.is_punct('.') {
            let name = self.toks.get(i + 1)?;
            if name.kind != TokKind::Ident || !self.toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            {
                return None;
            }
            let open = i + 2;
            let empty = self.toks.get(open + 1).is_some_and(|t| t.is_punct(')'));
            let recv = (i > 0)
                .then(|| &self.toks[i - 1])
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
            let nm = name.text.as_str();
            let acquire = |mode: Mode, blocking: bool, p: &mut Parser<'a>| {
                let (var, decl) = p.stmt_binding(i);
                let binds = if decl {
                    var.clone().into_iter().collect()
                } else {
                    Vec::new()
                };
                (
                    vec![Event::Acquire {
                        mode,
                        blocking,
                        recv: recv.clone(),
                        var,
                        line,
                    }],
                    open + 2,
                    binds,
                )
            };
            match nm {
                "s" if empty => return Some(acquire(Mode::S, true, self)),
                "u" if empty => return Some(acquire(Mode::U, true, self)),
                "x" if empty => return Some(acquire(Mode::X, true, self)),
                "try_s" if empty => return Some(acquire(Mode::S, false, self)),
                "try_u" if empty => return Some(acquire(Mode::U, false, self)),
                "try_x" if empty => return Some(acquire(Mode::X, false, self)),
                "promote" => {
                    let (var, decl) = self.stmt_binding(i);
                    let binds = if decl {
                        var.clone().into_iter().collect()
                    } else {
                        Vec::new()
                    };
                    return Some((vec![Event::Promote { recv, var, line }], open + 1, binds));
                }
                "lock_alloc" => {
                    let (var, decl) = self.stmt_binding(i);
                    let binds = if decl {
                        var.clone().into_iter().collect()
                    } else {
                        Vec::new()
                    };
                    return Some((
                        vec![
                            Event::BlockingLock {
                                what: nm.to_string(),
                                line,
                            },
                            Event::Acquire {
                                mode: Mode::X,
                                blocking: true,
                                recv: Some("alloc".to_string()),
                                var,
                                line,
                            },
                        ],
                        open + 1,
                        binds,
                    ));
                }
                "append" => {
                    return Some((vec![Event::Append { line }], open + 1, Vec::new()));
                }
                "rev"
                    if self.toks[i.saturating_sub(8)..i]
                        .iter()
                        .any(|t| t.is_ident("path") || t.is_ident("entries")) =>
                {
                    return Some((vec![Event::Climb { line }], open + 1, Vec::new()));
                }
                "mark_dirty" | "mark_dirty_at" | "data_mut" => {
                    return Some((
                        vec![Event::Dirty {
                            method: nm.to_string(),
                            line,
                        }],
                        open + 1,
                        Vec::new(),
                    ));
                }
                "lock" | "acquire" if !empty => {
                    return Some((
                        vec![Event::BlockingLock {
                            what: nm.to_string(),
                            line,
                        }],
                        open + 1,
                        Vec::new(),
                    ));
                }
                "wait" | "wait_timeout" | "wait_durable" | "force" | "force_to" => {
                    return Some((
                        vec![Event::Wait {
                            what: nm.to_string(),
                            line,
                        }],
                        open + 1,
                        Vec::new(),
                    ));
                }
                "join" | "recv" if empty => {
                    return Some((
                        vec![Event::Wait {
                            what: nm.to_string(),
                            line,
                        }],
                        open + 1,
                        Vec::new(),
                    ));
                }
                _ => {
                    let (args, moved) = self.call_args(open);
                    return Some((
                        vec![Event::Call {
                            name: nm.to_string(),
                            recv,
                            args,
                            method: true,
                            moved,
                            line,
                        }],
                        open + 1,
                        Vec::new(),
                    ));
                }
            }
        }

        if t.kind != TokKind::Ident {
            return None;
        }

        // `dst = src;` — a plain move between bindings.
        if !KEYWORDS.contains(&t.text.as_str())
            && self.toks.get(i + 1).is_some_and(|t| t.is_punct('='))
            && self
                .toks
                .get(i + 2)
                .is_some_and(|t| t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()))
            && self.toks.get(i + 3).is_some_and(|t| t.is_punct(';'))
        {
            let prev_op = i > 0 && {
                let p = &self.toks[i - 1];
                p.kind == TokKind::Punct
                    && matches!(
                        p.text.as_bytes().first().copied().unwrap_or(b' '),
                        b'=' | b'<'
                            | b'>'
                            | b'!'
                            | b'+'
                            | b'-'
                            | b'*'
                            | b'/'
                            | b'%'
                            | b'&'
                            | b'|'
                            | b'^'
                            | b'.'
                    )
            };
            if !prev_op {
                let decl = i > 0
                    && (self.toks[i - 1].is_ident("let")
                        || (i > 1
                            && self.toks[i - 1].is_ident("mut")
                            && self.toks[i - 2].is_ident("let")));
                let dst = t.text.clone();
                let binds = if decl { vec![dst.clone()] } else { Vec::new() };
                return Some((
                    vec![Event::AssignVar {
                        dst,
                        src: self.toks[i + 2].text.clone(),
                        line,
                    }],
                    i + 4,
                    binds,
                ));
            }
        }

        // Free function calls: `name(...)`, not a macro, not a definition.
        if !KEYWORDS.contains(&t.text.as_str())
            && self.toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && !(i > 0 && (self.toks[i - 1].is_punct('.') || self.toks[i - 1].is_ident("fn")))
        {
            if t.text == "sleep" {
                return Some((
                    vec![Event::Wait {
                        what: "sleep".to_string(),
                        line,
                    }],
                    i + 2,
                    Vec::new(),
                ));
            }
            let (args, moved) = self.call_args(i + 1);
            return Some((
                vec![Event::Call {
                    name: t.text.clone(),
                    recv: None,
                    args,
                    method: false,
                    moved,
                    line,
                }],
                i + 2,
                Vec::new(),
            ));
        }
        let _ = end;
        None
    }

    /// Count call arguments in the paren group at `open` and collect plain
    /// by-value identifier arguments (potential guard moves), also inside a
    /// tuple argument (`path.push((node, g))`). Closure parameter pipes
    /// suspend comma counting.
    fn call_args(&self, open: usize) -> (usize, Vec<String>) {
        let mut depth = 0i32;
        let mut commas = 0usize;
        let mut any = false;
        let mut pipe = false;
        let mut tuple = false;
        let mut moved = Vec::new();
        let mut i = open;
        while i < self.toks.len() {
            let t = &self.toks[i];
            if t.kind == TokKind::Punct {
                match t.text.as_bytes().first().copied().unwrap_or(b' ') {
                    b'(' | b'[' | b'{' => {
                        depth += 1;
                        if depth == 2 {
                            let prev = &self.toks[i - 1];
                            tuple = t.is_punct('(') && (prev.is_punct('(') || prev.is_punct(','));
                        }
                    }
                    b')' | b']' | b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    b'|' if depth == 1 => pipe = !pipe,
                    b',' if depth == 1 && !pipe => commas += 1,
                    _ => {}
                }
            } else {
                if depth >= 1 {
                    any = true;
                }
                if t.kind == TokKind::Ident && (depth == 1 || depth == 2 && tuple) {
                    // A bare identifier argument (delimiters on both sides,
                    // no `&` borrow) moves its value into the call.
                    let prev_delim =
                        self.toks[i - 1].is_punct('(') || self.toks[i - 1].is_punct(',');
                    let next_delim = self
                        .toks
                        .get(i + 1)
                        .is_some_and(|n| n.is_punct(')') || n.is_punct(','));
                    if prev_delim && next_delim {
                        moved.push(t.text.clone());
                    }
                }
            }
            i += 1;
        }
        let args = if any || commas > 0 { commas + 1 } else { 0 };
        (args, moved)
    }

    /// The binding a guard-producing expression at token `i` (a `.` of a
    /// method call) is assigned to, plus whether the statement is a `let`
    /// declaration. Handles `let [mut] NAME = ...`, `NAME = ...`, and the
    /// pattern forms `Some(NAME)` / `Ok(NAME)` (from `if let` / `let-else`
    /// / `while let`).
    fn stmt_binding(&self, i: usize) -> (Option<String>, bool) {
        // Walk back to the statement start, skipping balanced paren groups.
        let mut j = i;
        while j > 0 {
            let t = &self.toks[j - 1];
            if t.is_punct(')') {
                // Skip the whole group.
                let mut d = 0i32;
                let mut k = j - 1;
                loop {
                    let u = &self.toks[k];
                    if u.is_punct(')') {
                        d += 1;
                    } else if u.is_punct('(') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                j = k;
                continue;
            }
            if t.is_punct(';')
                || t.is_punct('{')
                || t.is_punct('}')
                || t.is_punct(',')
                || t.is_punct('(')
            {
                break;
            }
            j -= 1;
        }
        // Find the first plain `=` in [j, i), skipping paren groups forward.
        let mut k = j;
        let mut eq = None;
        while k < i {
            let t = &self.toks[k];
            if t.is_punct('(') {
                let mut d = 0i32;
                while k < i {
                    if self.toks[k].is_punct('(') {
                        d += 1;
                    } else if self.toks[k].is_punct(')') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                k += 1;
                continue;
            }
            if t.is_punct('=') {
                let prev_op = k > 0 && {
                    let p = &self.toks[k - 1];
                    p.is_punct('=') || p.is_punct('<') || p.is_punct('>') || p.is_punct('!')
                };
                let next_eq = self.toks.get(k + 1).is_some_and(|n| n.is_punct('='));
                if !prev_op && !next_eq {
                    eq = Some(k);
                    break;
                }
            }
            k += 1;
        }
        let Some(e) = eq else {
            return (None, false);
        };
        let decl = self.toks[j..e].iter().any(|t| t.is_ident("let"));
        // `NAME =`
        if e > 0 && self.toks[e - 1].kind == TokKind::Ident {
            return (Some(self.toks[e - 1].text.clone()), decl);
        }
        // `Some(NAME) =` / `Ok(NAME) =`
        if e >= 4
            && self.toks[e - 1].is_punct(')')
            && self.toks[e - 2].kind == TokKind::Ident
            && self.toks[e - 3].is_punct('(')
            && self.toks[e - 4].kind == TokKind::Ident
        {
            return (Some(self.toks[e - 2].text.clone()), decl);
        }
        (None, decl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileCx;

    fn parse(src: &str) -> FileAst {
        parse_file(&FileCx::new("crates/core/src/fake.rs", src))
    }

    fn collect_events(n: &Node, out: &mut Vec<Event>) {
        match n {
            Node::Seq(v) | Node::Branch(v) => v.iter().for_each(|n| collect_events(n, out)),
            Node::Event(e) => out.push(e.clone()),
            Node::Loop(b) => collect_events(b, out),
            Node::Scope(b, _) => collect_events(b, out),
            _ => {}
        }
    }

    fn all_events(src: &str) -> Vec<Event> {
        let ast = parse(src);
        let mut out = Vec::new();
        for f in &ast.fns {
            collect_events(&f.body, &mut out);
        }
        out
    }

    #[test]
    fn signature_params_and_self() {
        let ast = parse("fn f(&self, a: u32, b: &str) -> u32 { 0 }\nfn g(x: Vec<u8>) {}");
        assert_eq!(ast.fns[0].params, 2);
        assert!(ast.fns[0].has_self);
        assert_eq!(ast.fns[1].params, 1);
        assert!(!ast.fns[1].has_self);
    }

    #[test]
    fn acquire_binding_and_mode() {
        let evs = all_events("fn f(&self, pin: &Pin) { let mut g = pin.x(); drop(g); }");
        assert!(matches!(
            &evs[0],
            Event::Acquire { mode: Mode::X, blocking: true, recv: Some(r), var: Some(v), .. }
                if r == "pin" && v == "g"
        ));
        assert!(matches!(&evs[1], Event::DropVar { var, implicit: false, .. } if var == "g"));
    }

    #[test]
    fn try_acquire_via_let_some() {
        let evs =
            all_events("fn f(&self, pin: &Pin) { if let Some(g) = pin.try_x() { use_it(g); } }");
        assert!(evs.iter().any(|e| matches!(
            e,
            Event::Acquire { blocking: false, var: Some(v), .. } if v == "g"
        )));
    }

    #[test]
    fn question_mark_is_try_exit() {
        let ast = parse("fn f(&self) -> R<()> { self.wal.append(r)?; Ok(()) }");
        let mut found = false;
        fn walk(n: &Node, found: &mut bool) {
            match n {
                Node::TryExit => *found = true,
                Node::Seq(v) | Node::Branch(v) => v.iter().for_each(|n| walk(n, found)),
                Node::Loop(b) | Node::Scope(b, _) => walk(b, found),
                _ => {}
            }
        }
        walk(&ast.fns[0].body, &mut found);
        assert!(found);
    }

    #[test]
    fn branches_and_loops_are_structured() {
        let src = "fn f(&self, c: bool) { if c { a.append(r); } else { b.other(); } \
                   for e in list { e.step(); } match c { true => one(), false => {} } }";
        let ast = parse(src);
        let mut branches = 0;
        let mut loops = 0;
        fn walk(n: &Node, b: &mut i32, l: &mut i32) {
            match n {
                Node::Branch(v) => {
                    *b += 1;
                    v.iter().for_each(|n| walk(n, b, l));
                }
                Node::Loop(x) => {
                    *l += 1;
                    walk(x, b, l);
                }
                Node::Seq(v) => v.iter().for_each(|n| walk(n, b, l)),
                Node::Scope(x, _) => walk(x, b, l),
                _ => {}
            }
        }
        walk(&ast.fns[0].body, &mut branches, &mut loops);
        assert_eq!(branches, 2);
        assert_eq!(loops, 1);
    }

    #[test]
    fn blocking_lock_requires_args() {
        let evs = all_events("fn f(&self, t: &Txn) { t.lock(&n, m); self.q.lock(); }");
        let blocking: Vec<_> = evs
            .iter()
            .filter(|e| matches!(e, Event::BlockingLock { .. }))
            .collect();
        assert_eq!(blocking.len(), 1);
    }

    #[test]
    fn call_args_and_moves() {
        let evs = all_events("fn f(&self, g: G) { self.use_guard(g, &other, x.y()); }");
        let call = evs
            .iter()
            .find(|e| matches!(e, Event::Call { name, .. } if name == "use_guard"))
            .unwrap();
        if let Event::Call { args, moved, .. } = call {
            assert_eq!(*args, 3);
            assert_eq!(moved, &vec!["g".to_string()]);
        }
    }

    #[test]
    fn guards_and_header_ifs_are_followed() {
        let src = "fn f(&self, c: Option<u32>, t: bool) { \
                   match c { Some(n) if n.hot() => a(), _ => b() } \
                   let m = matches!(c, Some(n) if n.cold()); \
                   for _ in 0..if t { 1 } else { 2 } { e.step(); } }";
        let ast = parse(src);
        assert!(ast.fns[0].followed);
        let evs = all_events(src);
        for name in ["hot", "a", "cold", "step"] {
            assert!(
                evs.iter()
                    .any(|e| matches!(e, Event::Call { name: n, .. } if n == name)),
                "{name}: {evs:?}"
            );
        }
        assert!(!parse("fn f(&self) { let y = if x; }").fns[0].followed);
    }

    #[test]
    fn let_else_keeps_fallthrough() {
        // The diverging else-block must not make the rest of the fn dead.
        let evs = all_events(
            "fn f(&self, pin: &Pin) { let Some(g) = pin.try_x() else { return }; g.touch(); }",
        );
        assert!(evs
            .iter()
            .any(|e| matches!(e, Event::Call { name, .. } if name == "touch")));
    }
}
