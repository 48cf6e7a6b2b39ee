//! Per-file analysis context: the token stream plus the light structure the
//! rules need — `fn` body spans and test regions
//! (`#[cfg(test)] mod`, `#[test]`/`#[bench]` functions, `tests/`, `benches/`
//! and `examples/` paths).

use crate::lexer::{lex, Comment, TokKind, Token};

/// One function body: `tokens[body_start..=body_end]` are inside the braces.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Index of the opening `{` token.
    pub body_start: usize,
    /// Index of the matching `}` token.
    pub body_end: usize,
}

/// A lexed file ready for rule application.
#[derive(Debug)]
pub struct FileCx {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Token stream (comments and literal contents stripped).
    pub tokens: Vec<Token>,
    /// Captured comments, for `pitree-lint:` directives.
    pub comments: Vec<Comment>,
    /// Function body spans, in source order (outermost first for nested fns).
    pub fns: Vec<FnSpan>,
    /// Per-token flag: true inside test-only code.
    pub is_test: Vec<bool>,
}

impl FileCx {
    /// Lex and structure `src` as the file at workspace-relative `path`.
    pub fn new(path: &str, src: &str) -> FileCx {
        let (tokens, comments) = lex(src);
        let fns = fn_spans(&tokens);
        let is_test = test_flags(path, &tokens);
        FileCx {
            path: path.replace('\\', "/"),
            tokens,
            comments,
            fns,
            is_test,
        }
    }
}

/// Find `fn` bodies. Trait-method declarations (`fn f(...);`) have no body
/// and are skipped.
fn fn_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            let name = match tokens.get(i + 1) {
                Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            // Scan to the body `{` at bracket depth 0, or a `;` (no body).
            let mut j = i + 2;
            let mut paren = 0i32;
            let mut angle_guard = 0i32; // avoid `->` / where-clause confusion cheaply
            let body = loop {
                match tokens.get(j) {
                    None => break None,
                    Some(t) if t.is_punct('(') || t.is_punct('[') => paren += 1,
                    Some(t) if t.is_punct(')') || t.is_punct(']') => paren -= 1,
                    Some(t) if t.is_punct('<') => angle_guard += 1,
                    Some(t) if t.is_punct('>') => angle_guard -= 1,
                    Some(t) if t.is_punct(';') && paren == 0 => break None,
                    Some(t) if t.is_punct('{') && paren == 0 => break Some(j),
                    _ => {}
                }
                j += 1;
            };
            let _ = angle_guard;
            if let Some(start) = body {
                let end = matching_brace(tokens, start);
                out.push(FnSpan {
                    name,
                    body_start: start,
                    body_end: end,
                });
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

/// Index of the `}` matching the `{` at `open`.
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut d = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            d += 1;
        } else if t.is_punct('}') {
            d -= 1;
            if d == 0 {
                return j;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Mark tokens that are test-only: whole files under `tests/`, `benches/`
/// or `examples/`, bodies of `#[cfg(test)] mod`, and `#[test]`/`#[bench]`
/// functions.
fn test_flags(path: &str, tokens: &[Token]) -> Vec<bool> {
    let mut flags = vec![false; tokens.len()];
    let p = path.replace('\\', "/");
    if p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.starts_with("tests/")
        || p.starts_with("benches/")
        || p.starts_with("examples/")
    {
        flags.iter_mut().for_each(|f| *f = true);
        return flags;
    }
    let mut i = 0;
    while i + 1 < tokens.len() {
        // `#[cfg(test)]` or `#[test]` / `#[bench]` attribute?
        if tokens[i].is_punct('#') && tokens[i + 1].is_punct('[') {
            let close = matching_bracket(tokens, i + 1);
            let inner: Vec<&str> = tokens[i + 2..close]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            let is_cfg_test = inner.first() == Some(&"cfg") && inner.contains(&"test");
            let is_test_attr = inner == ["test"] || inner == ["bench"];
            if is_cfg_test || is_test_attr {
                // Skip any further attributes, then find the guarded item's
                // body brace.
                let mut j = close + 1;
                while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[')
                {
                    j = matching_bracket(tokens, j + 1) + 1;
                }
                // Walk to the item's opening `{` (stop at `;` = no body).
                let mut k = j;
                let mut paren = 0i32;
                while k < tokens.len() {
                    let t = &tokens[k];
                    if t.is_punct('(') || t.is_punct('[') {
                        paren += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        paren -= 1;
                    } else if t.is_punct(';') && paren == 0 {
                        break;
                    } else if t.is_punct('{') && paren == 0 {
                        let end = matching_brace(tokens, k);
                        for f in flags.iter_mut().take(end + 1).skip(i) {
                            *f = true;
                        }
                        break;
                    }
                    k += 1;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    flags
}

/// Index of the `]` matching the `[` at `open`.
pub(crate) fn matching_bracket(tokens: &[Token], open: usize) -> usize {
    let mut d = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            d += 1;
        } else if t.is_punct(']') {
            d -= 1;
            if d == 0 {
                return j;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_spans_found() {
        let cx = FileCx::new("crates/x/src/lib.rs", "fn a() { b(); } fn c() -> u32 { 1 }");
        assert_eq!(cx.fns.len(), 2);
        assert_eq!(cx.fns[0].name, "a");
        assert_eq!(cx.fns[1].name, "c");
    }

    #[test]
    fn trait_decl_has_no_body() {
        let cx = FileCx::new(
            "crates/x/src/lib.rs",
            "trait T { fn f(&self) -> u8; } fn g() {}",
        );
        assert_eq!(cx.fns.len(), 1);
        assert_eq!(cx.fns[0].name, "g");
    }

    #[test]
    fn cfg_test_mod_is_test_code() {
        let src = "fn live() {} #[cfg(test)] mod tests { fn helper() {} }";
        let cx = FileCx::new("crates/x/src/lib.rs", src);
        let live = cx.fns.iter().find(|f| f.name == "live").unwrap();
        let helper = cx.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(!cx.is_test[live.body_start]);
        assert!(cx.is_test[helper.body_start]);
    }

    #[test]
    fn tests_dir_is_all_test_code() {
        let cx = FileCx::new("crates/x/tests/t.rs", "fn anything() {}");
        assert!(cx.is_test.iter().all(|&f| f));
    }

    #[test]
    fn test_attr_fn_is_test_code() {
        let src = "#[test] fn t() { x(); } fn live() {}";
        let cx = FileCx::new("crates/x/src/lib.rs", src);
        let t = cx.fns.iter().find(|f| f.name == "t").unwrap();
        let live = cx.fns.iter().find(|f| f.name == "live").unwrap();
        assert!(cx.is_test[t.body_start]);
        assert!(!cx.is_test[live.body_start]);
    }
}
