//! A small hand-rolled Rust lexer for the audit rule engine.
//!
//! The engine only needs to see *code* tokens — identifiers and
//! punctuation with accurate line numbers — while reliably skipping
//! everything a textual grep would trip over: line and (nested) block
//! comments, string / char / byte / raw-string literals, lifetimes,
//! and numeric literals. Comments are not discarded: their text and
//! line span are kept so `// audit:allow(RULE): reason` suppressions
//! can be parsed from them.
//!
//! This is deliberately not a full Rust lexer (no registry access means
//! no `syn`); it implements exactly the token-boundary rules that keep
//! rule triggers like `unwrap(` or `HashMap` from being matched inside
//! literals or comments.

/// What kind of code token this is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`unwrap`, `fn`, `HashMap`, ...).
    Ident(String),
    /// A single punctuation character (`(`, `:`, `#`, ...).
    Punct(char),
    /// A literal (string, raw string, char, byte, number), with its
    /// raw source text (prefix and quotes included) retained — the
    /// STREAM01 tag analysis reads hex and string tag literals.
    Literal(String),
}

/// One code token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokKind,
    pub line: u32,
}

/// One comment (line or block, doc or plain) with its text and span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (equal to `line` for `//`).
    pub end_line: u32,
    /// The comment body, without the `//` / `/*` markers.
    pub text: String,
}

/// The lexer's output: code tokens plus retained comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// The raw source text between two char indices (literal capture).
    fn slice(&self, from: usize, to: usize) -> String {
        self.chars[from.min(self.chars.len())..to.min(self.chars.len())]
            .iter()
            .collect()
    }

    /// Advance one char, tracking newlines.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Consume a `//` comment (cursor on the first `/`).
    fn line_comment(&mut self) -> Comment {
        let line = self.line;
        self.i += 2;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.i += 1;
        }
        Comment {
            line,
            end_line: line,
            text,
        }
    }

    /// Consume a `/* ... */` comment, honouring Rust's nesting.
    fn block_comment(&mut self) -> Comment {
        let line = self.line;
        self.i += 2;
        let mut depth = 1usize;
        let mut text = String::new();
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    text.push_str("/*");
                    self.i += 2;
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    if depth > 0 {
                        text.push_str("*/");
                    }
                    self.i += 2;
                }
                (Some(_), _) => {
                    if let Some(c) = self.bump() {
                        text.push(c);
                    }
                }
                (None, _) => break, // unterminated: tolerate, EOF ends it
            }
        }
        Comment {
            line,
            end_line: self.line,
            text,
        }
    }

    /// Consume a `"..."` string body (cursor on the opening quote).
    fn quoted_string(&mut self) {
        self.bump(); // opening "
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump(); // whatever is escaped, including \" and \\
                }
                '"' => break,
                _ => {}
            }
        }
    }

    /// Consume a raw string `r##"..."##` with `hashes` `#`s; the cursor
    /// sits on the opening quote.
    fn raw_string(&mut self, hashes: usize) {
        self.bump(); // opening "
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        continue 'outer;
                    }
                }
                self.i += hashes;
                break;
            }
        }
    }

    /// Consume a char/byte-char literal body (cursor on the opening `'`).
    fn char_literal(&mut self) {
        self.bump(); // opening '
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                '\n' => break, // malformed; don't run away
                _ => {}
            }
        }
    }

    /// Consume a numeric literal (cursor on the first digit). Precision
    /// here is deliberately loose — the content is discarded — but the
    /// consumption must not swallow range dots (`0..n`) or a method dot
    /// (`1.max(2)`).
    fn number(&mut self) {
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                self.i += 1;
            } else if c == '.' && self.peek(1).map(|d| d.is_ascii_digit()).unwrap_or(false) {
                self.i += 1; // fraction part follows
            } else if (c == '+' || c == '-')
                && self
                    .chars
                    .get(self.i.wrapping_sub(1))
                    .map(|p| *p == 'e' || *p == 'E')
                    .unwrap_or(false)
                && self.peek(1).map(|d| d.is_ascii_digit()).unwrap_or(false)
            {
                self.i += 1; // exponent sign: 1e-5
            } else {
                break;
            }
        }
    }
}

/// Does `word` prefix a string-ish literal (so `word` is not an
/// identifier)? Covers `r"`, `r#"`, `b"`, `br#"`, `b'`, `c"`, `cr#"`.
fn literal_prefix(word: &str, next: Option<char>) -> bool {
    match word {
        "r" | "b" | "br" | "c" | "cr" => {
            matches!(next, Some('"') | Some('#')) || (word == "b" && next == Some('\''))
        }
        _ => false,
    }
}

/// Lex `src` into code tokens and comments. Never fails: malformed
/// input degrades to punctuation tokens, it cannot make the lexer
/// report identifiers from inside literals or comments.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        // Whitespace.
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek(1) == Some('/') {
            let comment = cur.line_comment();
            out.comments.push(comment);
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            let comment = cur.block_comment();
            out.comments.push(comment);
            continue;
        }
        // Plain string literal.
        if c == '"' {
            let line = cur.line;
            let start = cur.i;
            cur.quoted_string();
            out.tokens.push(Token {
                kind: TokKind::Literal(cur.slice(start, cur.i)),
                line,
            });
            continue;
        }
        // Lifetime vs char literal.
        if c == '\'' {
            let line = cur.line;
            let next = cur.peek(1);
            let after = cur.peek(2);
            let is_lifetime = match next {
                Some(n) if is_ident_start(n) => after != Some('\''),
                _ => false,
            };
            if is_lifetime {
                cur.bump(); // '
                while cur.peek(0).map(is_ident_continue).unwrap_or(false) {
                    cur.bump();
                }
                // Lifetimes carry no rule signal; drop them.
            } else {
                let start = cur.i;
                cur.char_literal();
                out.tokens.push(Token {
                    kind: TokKind::Literal(cur.slice(start, cur.i)),
                    line,
                });
            }
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let line = cur.line;
            let start = cur.i;
            cur.number();
            out.tokens.push(Token {
                kind: TokKind::Literal(cur.slice(start, cur.i)),
                line,
            });
            continue;
        }
        // Identifiers, keywords, and prefixed literals.
        if is_ident_start(c) {
            let line = cur.line;
            let word_start = cur.i;
            let mut word = String::new();
            while let Some(n) = cur.peek(0) {
                if is_ident_continue(n) {
                    word.push(n);
                    cur.bump();
                } else {
                    break;
                }
            }
            if literal_prefix(&word, cur.peek(0)) {
                match cur.peek(0) {
                    Some('"') => {
                        // r" / b" / c" — raw with zero hashes behaves
                        // like quoted for r, and b/c strings still
                        // honour escapes; treat b"/c" as quoted.
                        if word.starts_with('r') || word.ends_with('r') {
                            cur.raw_string(0);
                        } else {
                            cur.quoted_string();
                        }
                        out.tokens.push(Token {
                            kind: TokKind::Literal(cur.slice(word_start, cur.i)),
                            line,
                        });
                    }
                    Some('#') => {
                        // Count hashes; then either a raw string opens
                        // or (r# + ident char) it was a raw identifier.
                        let mut hashes = 0usize;
                        while cur.peek(hashes) == Some('#') {
                            hashes += 1;
                        }
                        if cur.peek(hashes) == Some('"') {
                            cur.i += hashes;
                            cur.raw_string(hashes);
                            out.tokens.push(Token {
                                kind: TokKind::Literal(cur.slice(word_start, cur.i)),
                                line,
                            });
                        } else if word == "r" && hashes == 1 {
                            // Raw identifier r#word: emit the word.
                            cur.i += 1; // the #
                            let mut raw = String::new();
                            while let Some(n) = cur.peek(0) {
                                if is_ident_continue(n) {
                                    raw.push(n);
                                    cur.bump();
                                } else {
                                    break;
                                }
                            }
                            out.tokens.push(Token {
                                kind: TokKind::Ident(raw),
                                line,
                            });
                        } else {
                            // `b#...`? Not Rust; emit the word and move on.
                            out.tokens.push(Token {
                                kind: TokKind::Ident(word),
                                line,
                            });
                        }
                    }
                    Some('\'') => {
                        // b'x'
                        cur.char_literal();
                        out.tokens.push(Token {
                            kind: TokKind::Literal(cur.slice(word_start, cur.i)),
                            line,
                        });
                    }
                    _ => out.tokens.push(Token {
                        kind: TokKind::Ident(word),
                        line,
                    }),
                }
            } else {
                out.tokens.push(Token {
                    kind: TokKind::Ident(word),
                    line,
                });
            }
            continue;
        }
        // Everything else: single punctuation char.
        let line = cur.line;
        cur.bump();
        out.tokens.push(Token {
            kind: TokKind::Punct(c),
            line,
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(w) => Some(w),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn skips_line_and_block_comments() {
        let src = "fn a() {} // unwrap() HashMap\n/* expect( */ fn b() {}";
        let words = idents(src);
        assert_eq!(words, ["fn", "a", "fn", "b"]);
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("unwrap()"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner unwrap() */ still comment */ fn f() {}";
        assert_eq!(idents(src), ["fn", "f"]);
        assert_eq!(lex(src).comments.len(), 1);
    }

    #[test]
    fn strings_hide_their_content() {
        let src = r#"let s = "unwrap() HashMap \" still"; let t = 'x';"#;
        let words = idents(src);
        assert_eq!(words, ["let", "s", "let", "t"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = "let s = r#\"has \"quote\" and unwrap()\"#; fn g() {}";
        assert_eq!(idents(src), ["let", "s", "fn", "g"]);
    }

    #[test]
    fn byte_and_c_strings() {
        let src = "let a = b\"unwrap()\"; let b2 = br#\"expect(\"#; let c2 = c\"HashMap\";";
        assert_eq!(idents(src), ["let", "a", "let", "b2", "let", "c2"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { 'y'; loop { break; } x }";
        let words = idents(src);
        assert!(words.contains(&"str".to_string()));
        // The char literal 'y' must not have eaten code.
        assert!(words.contains(&"loop".to_string()));
    }

    #[test]
    fn raw_identifiers() {
        let src = "let r#type = 3; r#unwrap();";
        let words = idents(src);
        assert_eq!(words, ["let", "type", "unwrap"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let src = "for i in 0..10 { let x = 1.5e-3; let y = 2.max(i); }";
        let words = idents(src);
        assert!(words.contains(&"max".to_string()));
        // Two dots of the range must survive as puncts.
        let dots = lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct('.'))
            .count();
        assert!(dots >= 3, "range dots and method dot survive: {dots}");
    }

    #[test]
    fn line_numbers_are_accurate() {
        let src = "fn a() {}\n\nfn b() {\n    x.unwrap()\n}\n";
        let lexed = lex(src);
        let unwrap_tok = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokKind::Ident("unwrap".into()));
        assert_eq!(unwrap_tok.map(|t| t.line), Some(4));
    }

    #[test]
    fn multiline_strings_keep_line_count() {
        let src = "let s = \"line\nline\nline\";\nx.unwrap()";
        let lexed = lex(src);
        let unwrap_tok = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokKind::Ident("unwrap".into()));
        assert_eq!(unwrap_tok.map(|t| t.line), Some(4));
    }

    #[test]
    fn block_comment_spans_lines() {
        let src = "/* a\nb\nc */ fn f() {}";
        let lexed = lex(src);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[0].end_line, 3);
        assert_eq!(lexed.tokens[0].line, 3);
    }
}
