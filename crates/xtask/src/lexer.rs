//! A minimal, total Rust lexer.
//!
//! This is the foundation of the analyzer: instead of guessing at
//! string/comment boundaries line by line, every rule now runs over a
//! token stream produced here. The lexer is *total* — any byte
//! sequence lexes without panicking, unterminated literals are
//! classified with `terminated: false` and consume to end of input —
//! and it is a *partition*: tokens tile the source contiguously, so
//! `src[t.start..t.end]` concatenated over all tokens reproduces the
//! file byte-for-byte (pinned by the workspace round-trip test).
//!
//! Handled token classes, matching everything that appears in this
//! workspace: whitespace, line comments, nested block comments, plain
//! and byte strings with escapes, raw and raw-byte strings with any
//! hash count, char and byte-char literals, lifetimes (disambiguated
//! from char literals), raw identifiers (`r#fn`), identifiers
//! (including non-ASCII), numbers (underscores, radix prefixes,
//! floats, exponents, suffixes), and single-byte punctuation.
//!
//! [`Source`] is the one pass over a file that every rule reads: its
//! tokens, each line's code and comment text, which lines are test
//! code, the paths its `use` items import, and its `lint:allow(...)`
//! markers.

/// Token classification. Literal/comment kinds carry a `terminated`
/// flag so callers can detect truncated input instead of silently
/// treating it as code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of ASCII whitespace (newlines included).
    Whitespace,
    /// `// …` up to but not including the newline.
    LineComment,
    /// `/* … */`, nesting tracked.
    BlockComment { terminated: bool },
    /// Identifier or keyword (also non-ASCII identifier bytes).
    Ident,
    /// Raw identifier: `r#name`.
    RawIdent,
    /// `'name` with no closing quote.
    Lifetime,
    /// `'x'`, `'\n'`, `b'x'`.
    Char { terminated: bool },
    /// `"…"` or `b"…"` with escapes.
    Str { terminated: bool },
    /// `r"…"`, `r#"…"#`, `br##"…"##`; `hashes` is the delimiter count.
    RawStr { terminated: bool, hashes: u8 },
    /// Numeric literal including suffix (`0xff_u32`, `1.5e-3`).
    Num,
    /// A single punctuation byte (`.`, `:`, `{`, …).
    Punct,
}

impl TokenKind {
    /// Literal whose bytes are data, not code.
    fn is_literal(self) -> bool {
        matches!(
            self,
            TokenKind::Char { .. } | TokenKind::Str { .. } | TokenKind::RawStr { .. }
        )
    }

    fn is_comment(self) -> bool {
        matches!(
            self,
            TokenKind::LineComment | TokenKind::BlockComment { .. }
        )
    }
}

/// One token: a byte span of the source plus its class and the
/// 1-based line its first byte sits on.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    pub kind: TokenKind,
    pub start: usize,
    pub end: usize,
    pub line: usize,
}

impl Token {
    /// The token's text within `src` (the source it was lexed from).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

/// Lex `src` into a contiguous token stream covering every byte.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < b.len() {
        let start = i;
        let (kind, end) = scan_token(b, i);
        // Defensive: a scanner must always make progress.
        let end = end.max(i + 1).min(b.len());
        toks.push(Token {
            kind,
            start,
            end,
            line,
        });
        line += b[start..end].iter().filter(|&&c| c == b'\n').count();
        i = end;
    }
    toks
}

/// For string-like tokens, the literal's content with delimiters
/// (quotes, hashes, `b`/`r` prefixes) stripped. `None` for other
/// kinds or unterminated literals.
pub fn string_content<'a>(src: &'a str, t: &Token) -> Option<&'a str> {
    let text = t.text(src);
    match t.kind {
        TokenKind::Str { terminated: true } => {
            let inner = text.strip_prefix('b').unwrap_or(text);
            inner.strip_prefix('"')?.strip_suffix('"')
        }
        TokenKind::RawStr {
            terminated: true,
            hashes,
        } => {
            let inner = text.strip_prefix('b').unwrap_or(text);
            let inner = inner.strip_prefix('r')?;
            let h = hashes as usize;
            let open = inner.get(h..)?.strip_prefix('"')?;
            open.get(..open.len().checked_sub(h + 1)?)
        }
        _ => None,
    }
}

/// One file, lexed once.
pub struct Source {
    /// Workspace-relative, `/`-separated.
    pub path: String,
    pub text: String,
    /// Every token but whitespace and comments, in order.
    pub toks: Vec<Token>,
    /// Indexed by 1-based line number (index 0 is empty).
    pub lines: Vec<Line>,
    pub uses: Vec<UsePath>,
    pub markers: Vec<Marker>,
}

/// What the spelling rows read of one line.
#[derive(Default)]
pub struct Line {
    /// The code tokens that start on the line, literals left out,
    /// joined without space.
    pub code: String,
    /// The offsets in `code` where a token starts or ends.
    pub bounds: Vec<usize>,
    /// The text of the comments that start on the line.
    pub comment: String,
    /// In a `#[test]`/`#[cfg(test)]` item or a `#![cfg(test)]` file.
    pub test: bool,
}

/// One path a `use` item imports, its tree flattened: `use std::{
/// sync::RwLock, time::Duration};` imports `std::sync::RwLock` and
/// `std::time::Duration`. An alias (`as x`) is left out.
#[derive(Clone, Default)]
pub struct UsePath {
    /// The line of the path's last segment.
    pub line: usize,
    /// The segments joined without space, as in [`Line::code`].
    pub code: String,
    /// The offsets in `code` where a token starts or ends.
    pub bounds: Vec<usize>,
}

impl UsePath {
    fn push(&mut self, s: &str, line: usize) {
        self.bounds
            .extend([self.code.len(), self.code.len() + s.len()]);
        self.code.push_str(s);
        self.line = line;
    }

    /// `self` followed by `rest`.
    fn join(&self, rest: &UsePath) -> UsePath {
        let mut out = self.clone();
        let at = out.code.len();
        out.code.push_str(&rest.code);
        out.bounds.extend(rest.bounds.iter().map(|b| b + at));
        out.line = rest.line;
        out
    }
}

/// A `lint:allow(rule, …)` in a comment. It covers its own line and,
/// when the comment is alone on its line (rustfmt floats long trailing
/// comments there), the lines directly above and below.
pub struct Marker {
    pub line: usize,
    pub alone: bool,
    /// The comma-separated rule names between the parentheses.
    pub rules: String,
    /// Text follows the closing parenthesis.
    pub reason: bool,
}

impl Source {
    pub fn new(path: &str, text: String) -> Source {
        let all = lex(&text);
        let count = all.last().map_or(0, |t| t.line);
        let mut lines: Vec<Line> = (0..=count).map(|_| Line::default()).collect();
        let mut markers = Vec::new();
        let mut toks = Vec::new();
        let mut alone = true;
        for t in all {
            let line = &mut lines[t.line];
            let s = t.text(&text);
            if t.kind == TokenKind::Whitespace {
                alone |= s.contains('\n');
            } else if t.kind.is_comment() {
                line.comment.push_str(s);
                for (_, rest) in s
                    .match_indices("lint:allow(")
                    .map(|(at, m)| s.split_at(at + m.len()))
                {
                    let (rules, after) = rest.split_once(')').unwrap_or((rest, ""));
                    markers.push(Marker {
                        line: t.line,
                        alone,
                        rules: rules.to_string(),
                        reason: !after
                            .trim_matches(|c: char| c.is_whitespace() || c == '—')
                            .is_empty(),
                    });
                }
                alone = false;
            } else {
                if !t.kind.is_literal() {
                    line.bounds.push(line.code.len());
                    line.code.push_str(s);
                    line.bounds.push(line.code.len());
                }
                toks.push(t);
                alone = false;
            }
        }
        mark_tests(&text, &toks, &mut lines);
        let uses = use_paths(&text, &toks);
        Source {
            path: path.to_string(),
            text,
            toks,
            lines,
            uses,
            markers,
        }
    }

    /// The tokens outside test code.
    pub fn code(&self) -> Vec<Token> {
        self.toks
            .iter()
            .filter(|t| !self.lines[t.line].test)
            .copied()
            .collect()
    }

    /// Whether a marker naming `rule` covers `line`; `reasoned` asks for
    /// one that says why.
    pub fn marked(&self, line: usize, rule: &str, reasoned: bool) -> bool {
        self.markers.iter().any(|m| {
            (m.line == line || (m.alone && m.line.abs_diff(line) == 1))
                && (m.reason || !reasoned)
                && m.rules.split(',').any(|r| r.trim() == rule)
        })
    }
}

/// Flag the lines of test items. A test attribute (`#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test …`/`any(test …`, `#[should_panic]`)
/// arms; the next `{` opens a region that ends with its `}`, and a `;`
/// at the attribute's own paren/bracket depth ends a braceless item
/// (`#[cfg(test)] mod tests;`). A line is test code when any point of
/// it is armed or in a region. `#![cfg(test)]` at the top level makes
/// the rest of the file test code.
fn mark_tests(text: &str, toks: &[Token], lines: &mut [Line]) {
    let t = |i: usize| toks.get(i).map_or("", |t| t.text(text));
    let (mut depth, mut nest, mut whole) = (0usize, 0usize, false);
    let mut armed: Option<usize> = None;
    // The brace depth each open region started at.
    let mut regions: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let mut end = i;
        let inner = t(i + 1) == "!";
        let open = i + 1 + usize::from(inner);
        if t(i) == "#" && t(open) == "[" {
            let mut d = 0usize;
            end = (open..toks.len())
                .find(|&j| {
                    match t(j) {
                        "[" => d += 1,
                        "]" => d -= 1,
                        _ => {}
                    }
                    d == 0
                })
                .unwrap_or(toks.len() - 1);
            let body: Vec<&str> = (open + 1..end).map(t).collect();
            let cfg_test = body == ["cfg", "(", "test", ")"];
            if inner {
                whole |= cfg_test && depth == 0;
            } else if cfg_test
                || body == ["test"]
                || body.first() == Some(&"should_panic")
                || body.starts_with(&["cfg", "(", "all", "(", "test"])
                || body.starts_with(&["cfg", "(", "any", "(", "test"])
            {
                armed = Some(nest);
            }
        } else {
            let before = armed.is_some() || !regions.is_empty();
            match t(i) {
                "{" => {
                    if armed.take().is_some() {
                        regions.push(depth);
                    }
                    depth += 1;
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                }
                "(" | "[" => nest += 1,
                ")" | "]" => nest = nest.saturating_sub(1),
                ";" if armed == Some(nest) => armed = None,
                _ => {}
            }
            lines[toks[i].line].test |= before;
        }
        let now = whole || armed.is_some() || !regions.is_empty();
        for tok in &toks[i..=end] {
            lines[tok.line].test |= now;
        }
        i = end + 1;
    }
}

/// Every path the file's `use` items import, each tree flattened. A
/// `use` followed by anything but a path tree imports nothing here.
fn use_paths(text: &str, toks: &[Token]) -> Vec<UsePath> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i += 1;
        if toks[i - 1].kind != TokenKind::Ident || toks[i - 1].text(text) != "use" {
            continue;
        }
        // The prefix each open brace stands for, and the path since it.
        let (mut prefixes, mut cur) = (vec![UsePath::default()], UsePath::default());
        let (mut found, mut alias) = (Vec::new(), false);
        while let Some(t) = toks.get(i) {
            i += 1;
            let s = t.text(text);
            let top = prefixes.last().cloned().unwrap_or_default();
            match s {
                "{" => prefixes.push(top.join(&std::mem::take(&mut cur))),
                "," | "}" | ";" => {
                    if !cur.code.is_empty() {
                        found.push(top.join(&std::mem::take(&mut cur)));
                    }
                    alias = false;
                    match s {
                        "," => {}
                        "}" if prefixes.len() > 1 => drop(prefixes.pop()),
                        // The item's end, or a brace it never opened.
                        _ => {
                            if s == ";" && prefixes.len() == 1 {
                                out.append(&mut found);
                            }
                            break;
                        }
                    }
                }
                "as" => alias = true,
                _ if alias => {}
                ":" | "*" => cur.push(s, t.line),
                _ if matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) => {
                    cur.push(s, t.line);
                }
                _ => break,
            }
        }
    }
    out
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Scan one token starting at `i`; returns its kind and end offset.
fn scan_token(b: &[u8], i: usize) -> (TokenKind, usize) {
    let c = b[i];
    if c.is_ascii_whitespace() {
        let mut j = i + 1;
        while j < b.len() && b[j].is_ascii_whitespace() {
            j += 1;
        }
        return (TokenKind::Whitespace, j);
    }
    if c == b'/' && b.get(i + 1) == Some(&b'/') {
        let mut j = i + 2;
        while j < b.len() && b[j] != b'\n' {
            j += 1;
        }
        return (TokenKind::LineComment, j);
    }
    if c == b'/' && b.get(i + 1) == Some(&b'*') {
        return scan_block_comment(b, i);
    }
    if c == b'"' {
        let (end, terminated) = scan_str(b, i + 1);
        return (TokenKind::Str { terminated }, end);
    }
    if c == b'\'' {
        return scan_quote(b, i);
    }
    if c == b'b' {
        if let Some(found) = scan_b_prefix(b, i) {
            return found;
        }
    }
    if c == b'r' {
        if let Some(found) = scan_r_prefix(b, i, i + 1) {
            return found;
        }
    }
    if is_ident_start(c) {
        return (TokenKind::Ident, ident_end(b, i + 1));
    }
    if c.is_ascii_digit() {
        return (TokenKind::Num, num_end(b, i));
    }
    (TokenKind::Punct, i + 1)
}

fn ident_end(b: &[u8], mut j: usize) -> usize {
    while j < b.len() && is_ident_continue(b[j]) {
        j += 1;
    }
    j
}

fn scan_block_comment(b: &[u8], i: usize) -> (TokenKind, usize) {
    let mut depth = 1u32;
    let mut j = i + 2;
    while j < b.len() {
        if b[j] == b'/' && b.get(j + 1) == Some(&b'*') {
            depth += 1;
            j += 2;
        } else if b[j] == b'*' && b.get(j + 1) == Some(&b'/') {
            depth -= 1;
            j += 2;
            if depth == 0 {
                return (TokenKind::BlockComment { terminated: true }, j);
            }
        } else {
            j += 1;
        }
    }
    (TokenKind::BlockComment { terminated: false }, j)
}

/// Body of a `"…"` string starting *after* the opening quote.
fn scan_str(b: &[u8], mut j: usize) -> (usize, bool) {
    while j < b.len() {
        match b[j] {
            b'\\' if j + 1 < b.len() => j += 2,
            b'"' => return (j + 1, true),
            _ => j += 1,
        }
    }
    (j, false)
}

/// Body of a char literal starting *after* the opening quote; a bare
/// newline terminates the scan (chars cannot span lines).
fn scan_char_body(b: &[u8], mut j: usize) -> (usize, bool) {
    while j < b.len() {
        match b[j] {
            b'\\' if j + 1 < b.len() => j += 2,
            b'\'' => return (j + 1, true),
            b'\n' => return (j, false),
            _ => j += 1,
        }
    }
    (j, false)
}

/// `'` — char literal, lifetime, or stray quote.
fn scan_quote(b: &[u8], i: usize) -> (TokenKind, usize) {
    match b.get(i + 1) {
        // Escaped char: definitely a literal ('\n', '\u{…}').
        Some(&b'\\') => {
            let (end, terminated) = scan_char_body(b, i + 1);
            (TokenKind::Char { terminated }, end)
        }
        Some(&n) => {
            // One UTF-8 scalar directly followed by a closing quote is
            // a char literal ('x', '€', '_'); otherwise an ident-start
            // byte opens a lifetime ('a, 'static, '_).
            let w = utf8_width(n);
            if b.get(i + 1 + w) == Some(&b'\'') && n != b'\'' {
                (TokenKind::Char { terminated: true }, i + 2 + w)
            } else if is_ident_start(n) {
                (TokenKind::Lifetime, ident_end(b, i + 1))
            } else {
                (TokenKind::Punct, i + 1)
            }
        }
        None => (TokenKind::Punct, i + 1),
    }
}

/// At a `b`: byte string `b"…"`, byte char `b'…'`, raw byte string
/// `br#"…"#` — or `None` (plain identifier starting with `b`).
fn scan_b_prefix(b: &[u8], i: usize) -> Option<(TokenKind, usize)> {
    match b.get(i + 1) {
        Some(&b'"') => {
            let (end, terminated) = scan_str(b, i + 2);
            Some((TokenKind::Str { terminated }, end))
        }
        Some(&b'\'') => {
            let (end, terminated) = scan_char_body(b, i + 2);
            Some((TokenKind::Char { terminated }, end))
        }
        Some(&b'r') => scan_r_prefix(b, i, i + 2),
        _ => None,
    }
}

/// At an `r` (possibly after a `b` at `start`): raw string with any
/// hash count, raw identifier — or `None` (plain identifier).
fn scan_r_prefix(b: &[u8], start: usize, after_r: usize) -> Option<(TokenKind, usize)> {
    let mut h = 0usize;
    while b.get(after_r + h) == Some(&b'#') {
        h += 1;
    }
    if b.get(after_r + h) == Some(&b'"') {
        let (end, terminated) = raw_str_end(b, after_r + h + 1, h);
        return Some((
            TokenKind::RawStr {
                terminated,
                hashes: h.min(255) as u8,
            },
            end,
        ));
    }
    // Raw identifier: exactly `r#` then an ident (not from `br#`).
    if start == after_r - 1 && h == 1 && b.get(after_r + 1).copied().is_some_and(is_ident_start) {
        return Some((TokenKind::RawIdent, ident_end(b, after_r + 2)));
    }
    None
}

/// Body of a raw string after the opening quote: find `"` + `hashes`
/// `#`s.
fn raw_str_end(b: &[u8], mut j: usize, hashes: usize) -> (usize, bool) {
    while j < b.len() {
        if b[j] == b'"'
            && b.len() > j + hashes
            && b[j + 1..j + 1 + hashes].iter().all(|&c| c == b'#')
        {
            return (j + 1 + hashes, true);
        }
        j += 1;
    }
    (j, false)
}

/// Numeric literal: leading digit blob (with `_`, radix prefix,
/// suffix letters), optional `.fraction`, optional exponent whose
/// sign is only consumed outside radix-prefixed literals (so `0x1e-5`
/// is `0x1e`, `-`, `5`).
fn num_end(b: &[u8], start: usize) -> usize {
    let radix_prefixed =
        b[start] == b'0' && matches!(b.get(start + 1), Some(&b'x' | &b'o' | &b'b'));
    let mut j = digit_blob_end(b, start + 1, radix_prefixed);
    if j < b.len() && b[j] == b'.' && b.get(j + 1).copied().is_some_and(|c| c.is_ascii_digit()) {
        j = digit_blob_end(b, j + 1, radix_prefixed);
    }
    j
}

fn digit_blob_end(b: &[u8], mut j: usize, radix_prefixed: bool) -> usize {
    while j < b.len() {
        let c = b[j];
        let exponent_sign = (c == b'+' || c == b'-')
            && !radix_prefixed
            && j > 0
            && matches!(b[j - 1], b'e' | b'E')
            && b.get(j + 1).copied().is_some_and(|d| d.is_ascii_digit());
        if is_ident_continue(c) || exponent_sign {
            j += 1;
        } else {
            break;
        }
    }
    j
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn roundtrip(src: &str) {
        let toks = lex(src);
        let mut pos = 0usize;
        for t in &toks {
            assert_eq!(t.start, pos, "tokens must tile contiguously");
            assert!(t.end > t.start, "empty token");
            pos = t.end;
        }
        assert_eq!(pos, src.len(), "tokens must cover the whole source");
        let rebuilt: String = toks.iter().map(|t| t.text(src)).collect();
        assert_eq!(rebuilt, src);
    }

    #[test]
    fn idents_puncts_numbers() {
        let got = kinds("let x_1 = 42;");
        assert_eq!(got[0], (TokenKind::Ident, "let".into()));
        assert_eq!(got[2], (TokenKind::Ident, "x_1".into()));
        assert_eq!(got[6], (TokenKind::Num, "42".into()));
        assert_eq!(got[7], (TokenKind::Punct, ";".into()));
        roundtrip("let x_1 = 42;");
    }

    #[test]
    fn number_shapes() {
        for (src, tok) in [
            ("0xff_u32 ", "0xff_u32"),
            ("1_000_000;", "1_000_000"),
            ("1.5e-3 ", "1.5e-3"),
            ("2E+10;", "2E+10"),
            ("0b1010_1111u8 ", "0b1010_1111u8"),
            ("3.14f64 ", "3.14f64"),
            ("7usize ", "7usize"),
        ] {
            let got = kinds(src);
            assert_eq!(got[0], (TokenKind::Num, tok.into()), "{src}");
            roundtrip(src);
        }
        // `0x1e-5` must NOT eat the minus as an exponent sign.
        let got = kinds("0x1e-5");
        assert_eq!(got[0], (TokenKind::Num, "0x1e".into()));
        assert_eq!(got[1], (TokenKind::Punct, "-".into()));
        assert_eq!(got[2], (TokenKind::Num, "5".into()));
        // Ranges and method calls don't swallow the dot.
        let got = kinds("1..3");
        assert_eq!(got[0], (TokenKind::Num, "1".into()));
        let got = kinds("1.max(2)");
        assert_eq!(got[0], (TokenKind::Num, "1".into()));
        assert_eq!(got[1], (TokenKind::Punct, ".".into()));
    }

    #[test]
    fn strings_with_escapes_and_newlines() {
        let src = "let s = \"a\\\"b\\n\\\n  c\"; t()";
        let got = kinds(src);
        assert!(matches!(got[6].0, TokenKind::Str { terminated: true }));
        assert!(got.iter().any(|(k, t)| *k == TokenKind::Ident && t == "t"));
        roundtrip(src);
        let unterminated = "let s = \"abc";
        let got = kinds(unterminated);
        assert!(matches!(
            got.last().map(|x| x.0),
            Some(TokenKind::Str { terminated: false })
        ));
        roundtrip(unterminated);
    }

    #[test]
    fn raw_strings_every_hash_count() {
        for src in [
            "r\"plain\\\"",
            "r#\"one \" hash\"#",
            "r##\"two \"# hashes\"##",
            "br#\"raw bytes\"#",
        ] {
            let got = kinds(src);
            assert!(
                matches!(
                    got[0].0,
                    TokenKind::RawStr {
                        terminated: true,
                        ..
                    }
                ),
                "{src}: {:?}",
                got[0]
            );
            assert_eq!(got.len(), 1, "{src}");
            roundtrip(src);
        }
        let t = lex("r#\"x\"#");
        assert_eq!(string_content("r#\"x\"#", &t[0]), Some("x"));
        let t2 = lex("br##\"y\"##");
        assert_eq!(string_content("br##\"y\"##", &t2[0]), Some("y"));
        let t3 = lex("\"plain\"");
        assert_eq!(string_content("\"plain\"", &t3[0]), Some("plain"));
    }

    #[test]
    fn raw_string_not_confused_with_trailing_r_ident() {
        // `writer` ends in `r` but is one ident; the string after it
        // is a plain string.
        let src = "writer\"x\"";
        let got = kinds(src);
        assert_eq!(got[0], (TokenKind::Ident, "writer".into()));
        assert!(matches!(got[1].0, TokenKind::Str { terminated: true }));
        // And `br`/`r` as complete identifiers stay identifiers.
        let got = kinds("br + r");
        assert_eq!(got[0], (TokenKind::Ident, "br".into()));
        assert_eq!(got[4], (TokenKind::Ident, "r".into()));
    }

    #[test]
    fn raw_idents() {
        let got = kinds("let r#fn = r#type;");
        assert_eq!(got[2], (TokenKind::RawIdent, "r#fn".into()));
        assert_eq!(got[6], (TokenKind::RawIdent, "r#type".into()));
        roundtrip("let r#fn = r#type;");
    }

    #[test]
    fn chars_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = 'q'; let n = '\\n'; let u = '_'; }";
        let got = kinds(src);
        let lifetimes: Vec<_> = got
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = got
            .iter()
            .filter(|(k, _)| matches!(k, TokenKind::Char { .. }))
            .collect();
        assert_eq!(chars.len(), 3);
        roundtrip(src);
        // 'static and '_ are lifetimes; b'x' is a char.
        let got = kinds("&'static str; let u = &'_ u8; b'z'");
        assert!(got.contains(&(TokenKind::Lifetime, "'static".into())));
        assert!(got.contains(&(TokenKind::Lifetime, "'_".into())));
        assert!(got.contains(&(TokenKind::Char { terminated: true }, "b'z'".into())));
    }

    #[test]
    fn comments_line_and_nested_block() {
        let src = "a // tail /* not nested\nb /* x /* y */ z */ c /* open";
        let got = kinds(src);
        assert!(got.contains(&(TokenKind::LineComment, "// tail /* not nested".into())));
        assert!(got.contains(&(
            TokenKind::BlockComment { terminated: true },
            "/* x /* y */ z */".into()
        )));
        assert!(got.contains(&(
            TokenKind::BlockComment { terminated: false },
            "/* open".into()
        )));
        roundtrip(src);
    }

    #[test]
    fn line_numbers_are_one_based_and_track_multiline_tokens() {
        let src = "a\n\"x\ny\"\nb";
        let toks: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .collect();
        assert_eq!(toks[0].line, 1); // a
        assert_eq!(toks[1].line, 2); // the string opens on line 2
        assert_eq!(toks[2].line, 4); // b, after the 2-line string
    }

    #[test]
    fn non_ascii_idents_and_strings() {
        let src = "let grüße = \"héllo\"; 'é'";
        roundtrip(src);
        let got = kinds(src);
        assert!(got.contains(&(TokenKind::Ident, "grüße".into())));
        assert!(got.contains(&(TokenKind::Char { terminated: true }, "'é'".into())));
    }

    #[test]
    fn use_items_flatten_to_the_paths_they_import() {
        let src = "use std::{\n    sync::{Arc, RwLock as L},\n    time::Duration,\n};\n\
                   pub(crate) use ::a::b::*;\nfn f<'a>() -> impl Sized + use<'a> {}\nuse self::c;\n\
                   use d::{e;\nuse d::e}};\n";
        let src = Source::new("demo.rs", src.to_string());
        let got: Vec<(usize, &str)> = src.uses.iter().map(|u| (u.line, u.code.as_str())).collect();
        let want = [
            (2, "std::sync::Arc"),
            (2, "std::sync::RwLock"),
            (3, "std::time::Duration"),
            (5, "::a::b::*"),
            (7, "self::c"),
        ];
        assert_eq!(got, want);
        let arc = &src.uses[0];
        let at = |s: &str| arc.code.find(s).unwrap();
        assert!(arc.bounds.contains(&at("sync")) && arc.bounds.contains(&at("Arc")));
    }

    #[test]
    fn degenerate_inputs_are_total() {
        for src in ["'", "''", "'\\", "\"", "r#", "b", "br#", "/*", "//", "0x"] {
            roundtrip(src);
        }
    }

    /// The satellite self-test: every `.rs` file in the workspace
    /// (library sources *and* tests/benches) must tokenize and
    /// reconstruct byte-identically, with every literal terminated.
    #[test]
    fn workspace_round_trip() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .expect("workspace root");
        let mut files = Vec::new();
        walk_all_rs(root, &mut files);
        assert!(files.len() > 50, "workspace walk found {}", files.len());
        for path in files {
            let src = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let toks = lex(&src);
            let mut pos = 0usize;
            for t in &toks {
                assert_eq!(t.start, pos, "{}: gap at byte {pos}", path.display());
                pos = t.end;
                let terminated = match t.kind {
                    TokenKind::BlockComment { terminated }
                    | TokenKind::Char { terminated }
                    | TokenKind::Str { terminated }
                    | TokenKind::RawStr { terminated, .. } => terminated,
                    _ => true,
                };
                assert!(
                    terminated,
                    "{}:{}: unterminated {:?}",
                    path.display(),
                    t.line,
                    t.kind
                );
            }
            assert_eq!(pos, src.len(), "{}", path.display());
            let rebuilt: String = toks.iter().map(|t| t.text(&src)).collect();
            assert_eq!(rebuilt, src, "{}", path.display());
        }
    }

    fn walk_all_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && name != ".git" {
                    walk_all_rs(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
}
