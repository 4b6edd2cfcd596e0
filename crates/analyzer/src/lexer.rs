//! A small hand-rolled Rust lexer — just enough structure for lint rules.
//!
//! The analyzer must never report a rule pattern that only occurs inside a
//! comment, a string literal, or a raw string, so the lexer's one job is to
//! classify those regions correctly and throw their contents away. It handles:
//!
//! - line comments (`//`) and *nested* block comments (`/* /* */ */`),
//! - string literals with escapes, byte strings, char literals,
//! - raw strings `r"…"`, `r#"…"#` (any number of `#`), and raw byte strings,
//! - the `'a` lifetime vs `'a'` char-literal ambiguity,
//! - line numbers for every token,
//! - inline suppression comments (`// analyzer: allow(D1): reason`),
//! - `#[cfg(test)]` / `#[test]` item spans (brace-matched), so rules can
//!   skip test code.
//!
//! It is *not* a full Rust lexer: numeric literals are tokenized loosely
//! (e.g. `1e-3` splits into three tokens) because no rule inspects numbers.

/// Token classes the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`let`, `HashMap`, `unwrap`, …).
    Ident,
    /// Single punctuation character (`.`, `:`, `(`, `<`, …).
    Punct,
    /// Any literal: string, raw string, char, byte, number. The contents of
    /// string-like literals are *not* preserved — rules must never match
    /// inside them.
    Literal,
    /// A lifetime (`'a`), distinguished from char literals.
    Lifetime,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// An inline suppression: `// analyzer: allow(D1): reason`.
///
/// A suppression covers findings of `rule` on its own line and on the line
/// directly below it (so it can sit either trailing the offending code or on
/// its own line above it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    pub line: u32,
    pub rule: String,
    pub reason: String,
}

/// Result of lexing one file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub allows: Vec<Allow>,
    /// Comments that *look* like suppressions but do not parse; these are
    /// reported as hard errors so a typo cannot silently disable a lint.
    pub malformed_allows: Vec<(u32, String)>,
    /// Lines (1-based) covered by `#[cfg(test)]` / `#[test]` items.
    test_lines: Vec<(u32, u32)>,
}

impl Lexed {
    /// True if `line` falls inside a `#[cfg(test)]` or `#[test]` item.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_lines.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// Suppressions grouped by rule, for quick lookup.
    pub fn allows_for(&self, rule: &str) -> Vec<u32> {
        self.allows
            .iter()
            .filter(|a| a.rule == rule)
            .map(|a| a.line)
            .collect()
    }
}

/// Lexes `src`, classifying comments/strings and collecting suppressions.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut i = 0usize;
    let mut line: u32 = 1;

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                let start = i;
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                scan_allow_comment(&text, line, &mut out);
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Nested block comments, newline tracking.
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                i = skip_string(&chars, i, &mut line);
                out.toks.push(lit(line));
            }
            '\'' => {
                // Lifetime or char literal. `'` + one char + `'` is a char;
                // `'\…'` is an escaped char; otherwise it is a lifetime.
                if i + 1 < n && chars[i + 1] == '\\' {
                    // Opening quote, backslash and the escaped character
                    // (itself a quote in `'\''` or a backslash in `'\\'`),
                    // then the rest of a longer escape like `\u{…}`.
                    i += 3;
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1; // closing quote
                    out.toks.push(lit(line));
                } else if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
                    i += 3;
                    out.toks.push(lit(line));
                } else if i + 1 < n && !is_ident_start(chars[i + 1]) {
                    // A non-ASCII char literal like '→' still ends in a quote.
                    i += 1;
                    while i < n && chars[i] != '\'' {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                    out.toks.push(lit(line));
                } else {
                    // Lifetime: 'ident with no closing quote.
                    let start = i;
                    i += 1;
                    while i < n && is_ident_continue(chars[i]) {
                        i += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: chars[start..i].iter().collect(),
                        line,
                    });
                }
            }
            c if is_ident_start(c) => {
                // Raw / byte string prefixes first: r" r#" b" br" b'.
                if let Some(next) = raw_or_byte_string(&chars, i, &mut line) {
                    i = next;
                    out.toks.push(lit(line));
                    continue;
                }
                let start = i;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                // Loose numeric literal: digits and trailing alphanumeric
                // suffix (0x1f, 10u64). A `.` is only consumed when followed
                // by a digit, so `0..n` stays three tokens.
                let start = i;
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                if i + 1 < n && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                let _ = start;
                out.toks.push(lit(line));
            }
            c => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }

    out.test_lines = find_test_spans(&out.toks);
    out
}

fn lit(line: u32) -> Tok {
    Tok {
        kind: TokKind::Literal,
        text: String::new(),
        line,
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Consumes a `"…"` string starting at the opening quote; returns the index
/// past the closing quote. Handles escapes and embedded newlines.
fn skip_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = chars.len();
    i += 1; // opening quote
    while i < n {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// If `chars[i..]` starts a raw string (`r"`, `r#"`, `br#"`) or byte string
/// (`b"`, `b'`), consumes it and returns the index past its end.
fn raw_or_byte_string(chars: &[char], i: usize, line: &mut u32) -> Option<usize> {
    let n = chars.len();
    let mut j = i;
    // Optional `b`, then optional `r`.
    let mut raw = false;
    if chars[j] == 'b' {
        j += 1;
        if j < n && chars[j] == 'r' {
            raw = true;
            j += 1;
        }
    } else if chars[j] == 'r' {
        raw = true;
        j += 1;
    } else {
        return None;
    }

    if raw {
        // r, then zero or more '#', then '"'.
        let mut hashes = 0usize;
        while j < n && chars[j] == '#' {
            hashes += 1;
            j += 1;
        }
        if j >= n || chars[j] != '"' {
            return None; // `r` was just an identifier (or `r#ident`).
        }
        j += 1;
        // Scan for `"` followed by `hashes` copies of '#'.
        while j < n {
            if chars[j] == '\n' {
                *line += 1;
                j += 1;
            } else if chars[j] == '"'
                && chars[j + 1..].iter().take_while(|&&c| c == '#').count() >= hashes
            {
                return Some(j + 1 + hashes);
            } else {
                j += 1;
            }
        }
        Some(j)
    } else if j < n && chars[j] == '"' {
        Some(skip_string(chars, j, line))
    } else if j < n && chars[j] == '\'' {
        // Byte char literal b'x' / b'\n'.
        j += 1;
        if j < n && chars[j] == '\\' {
            j += 2;
        } else {
            j += 1;
        }
        while j < n && chars[j] != '\'' {
            j += 1;
        }
        Some(j + 1)
    } else {
        None
    }
}

/// Parses suppression comments. Any comment containing the analyzer marker
/// (the crate's short name and a colon) must continue as a well-formed
/// `allow(<RULE>): <reason>`; anything else is recorded as malformed so
/// typos fail the build instead of silently passing.
fn scan_allow_comment(text: &str, line: u32, out: &mut Lexed) {
    let Some(pos) = text.find("analyzer:") else {
        return;
    };
    let rest = text[pos + "analyzer:".len()..].trim_start();
    let parsed = (|| -> Option<Allow> {
        let rest = rest.strip_prefix("allow(")?;
        let close = rest.find(')')?;
        let rule = rest[..close].trim().to_string();
        if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric()) {
            return None;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':')?.trim().to_string();
        if reason.is_empty() {
            return None;
        }
        Some(Allow { line, rule, reason })
    })();
    match parsed {
        Some(a) => out.allows.push(a),
        None => out.malformed_allows.push((
            line,
            format!(
                "malformed suppression comment (expected `// analyzer: allow(D?): reason`): {text}"
            ),
        )),
    }
}

/// Finds line spans of items annotated `#[cfg(test)]` or `#[test]`.
///
/// Strategy: on every `#` `[` … `]` attribute, collect the identifiers inside
/// the brackets. If they are exactly `[cfg, test]` or `[test]`, skip any
/// further attributes, then consume one item: everything up to the first `;`
/// at depth zero, or a brace-matched `{ … }` block.
fn find_test_spans(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let (idents, after) = attr_idents(toks, i + 1);
            let is_test_attr = idents == ["test"] || idents == ["cfg", "test"];
            if is_test_attr {
                let start_line = toks[i].line;
                let mut j = after;
                // Skip stacked attributes (e.g. #[cfg(test)] #[allow(...)]).
                while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
                    let (_, nxt) = attr_idents(toks, j + 1);
                    j = nxt;
                }
                let end = consume_item(toks, j);
                let end_line = toks
                    .get(end.saturating_sub(1))
                    .map_or(start_line, |t| t.line);
                spans.push((start_line, end_line));
                i = end;
                continue;
            }
            i = after;
            continue;
        }
        i += 1;
    }
    spans
}

/// Given the index of `[` that opens an attribute, returns the identifiers
/// inside it and the index just past the matching `]`.
fn attr_idents(toks: &[Tok], open: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (idents, i + 1);
            }
        } else if t.kind == TokKind::Ident {
            idents.push(t.text.clone());
        }
        i += 1;
    }
    (idents, i)
}

/// Consumes one item starting at `toks[i]`: up to `;` at depth zero or a
/// brace-matched block. Returns the index just past the item.
fn consume_item(toks: &[Tok], mut i: usize) -> usize {
    let mut brace = 0usize;
    let mut paren = 0usize;
    let mut entered_block = false;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            brace += 1;
            entered_block = true;
        } else if t.is_punct('}') {
            brace = brace.saturating_sub(1);
            if entered_block && brace == 0 {
                return i + 1;
            }
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren = paren.saturating_sub(1);
        } else if t.is_punct(';') && brace == 0 && paren == 0 {
            return i + 1;
        }
        i += 1;
    }
    i
}
