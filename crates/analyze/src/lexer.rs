//! A deliberately small Rust lexer: enough token structure for protocol
//! linting, nothing more. Comments and string/char literal *contents* are
//! stripped (so `"lock("` in a message never trips a rule), but comments are
//! captured separately because `// pitree-lint:` suppressions live there.
//!
//! The output is a flat token stream with line numbers; no AST, no `syn`.
//! Rules reconstruct just the structure they need (brace depth, `fn`
//! boundaries, `#[cfg(test)]` regions) from this stream.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character (`.`, `(`, `#`, ...).
    Punct,
    /// Numeric literal (text preserved) or string/char literal (text
    /// collapsed to `""` / `''`).
    Lit,
    /// Lifetime (`'a`), text without the quote.
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// 1-based source line.
    pub line: u32,
    /// Kind; see [`TokKind`].
    pub kind: TokKind,
    /// Token text (empty contents for string literals).
    pub text: String,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// A comment, captured for `pitree-lint:` directive parsing.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Text after the comment opener (`//` or `/*`), trimmed of doc markers.
    pub text: String,
}

/// Lex `src` into tokens plus captured comments.
pub fn lex(src: &str) -> (Vec<Token>, Vec<Comment>) {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = b.len();

    let ident_start = |c: char| c.is_alphabetic() || c == '_';
    let ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also doc comments; strip leading `/`/`!`).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && b[j] != '\n' {
                j += 1;
            }
            let text: String = b[start..j].iter().collect();
            let text = text.trim_start_matches(['/', '!']).trim().to_string();
            comments.push(Comment { line, text });
            i = j;
            continue;
        }
        // Block comment, nested.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let cline = line;
            let start = i + 2;
            let mut depth = 1;
            let mut j = start;
            while j < n && depth > 0 {
                if b[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if b[j] == '/' && j + 1 < n && b[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == '*' && j + 1 < n && b[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            let end = j.saturating_sub(2).max(start);
            let text: String = b[start..end].iter().collect();
            comments.push(Comment {
                line: cline,
                text: text.trim_start_matches(['*', '!']).trim().to_string(),
            });
            i = j;
            continue;
        }
        // Raw / byte string prefixes: r"", r#""#, b"", br#""#, b''.
        if (c == 'r' || c == 'b') && i + 1 < n {
            let (plen, is_raw) = raw_prefix(&b, i);
            if plen > 0 {
                if is_raw {
                    i = skip_raw_string(&b, i + plen, &mut line);
                } else if b[i + plen - 1] == '"' {
                    i = skip_string(&b, i + plen, &mut line);
                } else {
                    i = skip_char(&b, i + plen, &mut line);
                }
                toks.push(Token {
                    line,
                    kind: TokKind::Lit,
                    text: String::new(),
                });
                continue;
            }
        }
        if ident_start(c) {
            let mut j = i + 1;
            while j < n && ident_cont(b[j]) {
                j += 1;
            }
            toks.push(Token {
                line,
                kind: TokKind::Ident,
                text: b[i..j].iter().collect(),
            });
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n
                && (ident_cont(b[j])
                    || (b[j] == '.' && j + 1 < n && b[j + 1].is_ascii_digit() && b[j - 1] != '.'))
            {
                j += 1;
            }
            toks.push(Token {
                line,
                kind: TokKind::Lit,
                text: b[i..j].iter().collect(),
            });
            i = j;
            continue;
        }
        if c == '"' {
            i = skip_string(&b, i + 1, &mut line);
            toks.push(Token {
                line,
                kind: TokKind::Lit,
                text: String::new(),
            });
            continue;
        }
        if c == '\'' {
            // Lifetime or char literal.
            if i + 1 < n && (ident_start(b[i + 1])) {
                // `'a'` is a char literal; `'a` / `'static` a lifetime.
                let mut j = i + 2;
                while j < n && ident_cont(b[j]) {
                    j += 1;
                }
                if j < n && b[j] == '\'' && j == i + 2 {
                    // Single-char literal like 'a'.
                    toks.push(Token {
                        line,
                        kind: TokKind::Lit,
                        text: String::new(),
                    });
                    i = j + 1;
                } else {
                    toks.push(Token {
                        line,
                        kind: TokKind::Lifetime,
                        text: b[i + 1..j].iter().collect(),
                    });
                    i = j;
                }
            } else {
                i = skip_char(&b, i + 1, &mut line);
                toks.push(Token {
                    line,
                    kind: TokKind::Lit,
                    text: String::new(),
                });
            }
            continue;
        }
        toks.push(Token {
            line,
            kind: TokKind::Punct,
            text: c.to_string(),
        });
        i += 1;
    }
    (toks, comments)
}

/// Recognize `r"`, `r#`, `b"`, `b'`, `br"`, `br#`, `rb` prefixes starting at
/// `i`. Returns (prefix length including the opening quote for non-raw
/// forms, is_raw). A zero length means "not a literal prefix".
fn raw_prefix(b: &[char], i: usize) -> (usize, bool) {
    let n = b.len();
    let c0 = b[i];
    let c1 = if i + 1 < n { b[i + 1] } else { '\0' };
    // `r#` only opens a raw string when hashes are followed by a quote;
    // otherwise it is a raw identifier (`r#type`) and must lex as ident.
    let hashes_then_quote = |mut j: usize| {
        while j < n && b[j] == '#' {
            j += 1;
        }
        j < n && b[j] == '"'
    };
    match (c0, c1) {
        ('r', '"') => (1, true),
        ('r', '#') if hashes_then_quote(i + 1) => (1, true),
        ('b', '"') => (2, false),
        ('b', '\'') => (2, false),
        ('b', 'r') if i + 2 < n && (b[i + 2] == '"' || hashes_then_quote(i + 2)) => (2, true),
        _ => (0, false),
    }
}

/// Skip a raw string starting at the `#`* `"` opener; returns index past the
/// closing quote+hashes.
fn skip_raw_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = b.len();
    let mut hashes = 0;
    while i < n && b[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i < n && b[i] == '"' {
        i += 1;
    }
    while i < n {
        if b[i] == '\n' {
            *line += 1;
            i += 1;
        } else if b[i] == '"' {
            let mut j = i + 1;
            let mut h = 0;
            while j < n && b[j] == '#' && h < hashes {
                h += 1;
                j += 1;
            }
            if h == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Skip a normal string body (opening quote already consumed).
fn skip_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = b.len();
    while i < n {
        match b[i] {
            '\\' => i += 2,
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skip a char-literal body (opening quote already consumed).
fn skip_char(b: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = b.len();
    while i < n {
        match b[i] {
            '\\' => i += 2,
            '\n' => {
                *line += 1;
                i += 1;
            }
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_are_stripped() {
        assert_eq!(idents(r#"let x = "lock(unwrap)";"#), vec!["let", "x"]);
    }

    #[test]
    fn raw_and_byte_strings_are_stripped() {
        assert_eq!(idents(r##"let x = r#"panic!"#;"##), vec!["let", "x"]);
        assert_eq!(idents(r#"let x = b"unwrap";"#), vec!["let", "x"]);
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let (toks, comments) = lex("a // pitree-lint: allow(guard-lifetime) queue\nb");
        assert_eq!(toks.len(), 2);
        assert_eq!(comments.len(), 1);
        assert_eq!(comments[0].line, 1);
        assert!(comments[0].text.starts_with("pitree-lint:"));
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let (toks, comments) = lex("/* a /* b */ c */ x");
        assert_eq!(toks.len(), 1);
        assert!(toks[0].is_ident("x"));
        assert_eq!(comments.len(), 1);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let (toks, _) = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        // 'x' must not desync the lexer: the trailing brace is still seen.
        assert!(toks.iter().any(|t| t.is_punct('}')));
    }

    #[test]
    fn line_numbers_track_multiline_strings() {
        let (toks, _) = lex("let s = \"a\nb\";\nfinal_ident");
        let f = toks.iter().find(|t| t.is_ident("final_ident")).unwrap();
        assert_eq!(f.line, 3);
    }

    #[test]
    fn doc_comment_markers_trimmed() {
        let (_, comments) = lex("/// pitree-lint: allow(latch-order) why\nfn f() {}");
        assert_eq!(comments[0].text, "pitree-lint: allow(latch-order) why");
    }

    #[test]
    fn raw_identifiers_do_not_open_raw_strings() {
        // A raw identifier (`r#type`) must not be read as an unterminated
        // raw string that swallows the rest of the file.
        let (toks, _) = lex("let r#type = 1; let r#fn = 2; visible.mark_dirty();");
        assert!(toks.iter().any(|t| t.is_ident("visible")));
        assert!(toks.iter().any(|t| t.is_ident("mark_dirty")));
        // `r#` splits into the ident `r` plus `#` punct plus the keyword.
        assert!(toks.iter().any(|t| t.is_ident("r")));
    }

    #[test]
    fn multi_hash_raw_strings_terminate_correctly() {
        // The inner `"#` must not close an `r##"..."##` string early.
        let (toks, _) = lex(r####"let x = r##"a "# b"##; after"####);
        assert!(toks.iter().any(|t| t.is_ident("after")));
        assert!(!toks.iter().any(|t| t.is_ident("b")));
    }

    #[test]
    fn deeply_nested_block_comments() {
        let (toks, comments) = lex("/* 1 /* 2 /* 3 */ 2 */ 1 */ survivor");
        assert_eq!(toks.len(), 1);
        assert!(toks[0].is_ident("survivor"));
        assert_eq!(comments.len(), 1);
    }

    #[test]
    fn brace_char_literals_do_not_skew_depth() {
        // '{' and '}' as char literals must not unbalance brace tracking.
        let (toks, _) = lex("fn f() { let a = '{'; let b = '}'; } fn g() {}");
        let opens = toks.iter().filter(|t| t.is_punct('{')).count();
        let closes = toks.iter().filter(|t| t.is_punct('}')).count();
        assert_eq!(opens, 2);
        assert_eq!(closes, 2);
        assert!(toks.iter().any(|t| t.is_ident("g")));
    }

    #[test]
    fn lifetime_before_ident_is_not_a_char() {
        let (toks, _) = lex("fn f<'long>(x: &'long str) -> &'long str { x }");
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokKind::Lifetime && t.text == "long")
                .count(),
            3
        );
    }
}
