//! A small Rust lexer: just enough token structure for the audit rules.
//!
//! The engine deliberately avoids `syn`/`proc-macro2` (no registry access
//! in the build environment, and the rules do not need a full AST). Rules
//! pattern-match over this token stream instead. The lexer understands the
//! parts of Rust surface syntax that would otherwise cause false positives
//! inside non-code text: line/block comments (kept, because allow
//! directives live in them), string/char literals, raw strings, and
//! lifetimes vs. char literals.

/// Token classes the rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`self`, `for`, `Vec`, ...).
    Ident,
    /// Lifetime (`'a`) — distinct from char literals.
    Lifetime,
    /// Integer literal.
    Int,
    /// Float literal (has a fractional part, exponent, or `f32`/`f64`
    /// suffix).
    Float,
    /// String, raw-string, byte-string, or char literal.
    Str,
    /// Punctuation / operator. Multi-character operators the rules care
    /// about (`::`, `==`, `!=`, `+=`, `-=`, `*=`, `->`, `=>`, `..`) are
    /// single tokens.
    Punct,
    /// `// ...` comment (text includes the `//`).
    LineComment,
    /// `/* ... */` comment (text includes delimiters; nesting handled).
    BlockComment,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Verbatim source text of the token.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// True if this token is the given punctuation/operator.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }

    /// True if this token is the given identifier/keyword.
    pub fn is_ident(&self, id: &str) -> bool {
        self.kind == TokKind::Ident && self.text == id
    }

    /// True for comment tokens (skipped by most rule matchers).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Multi-character operators lexed as single tokens, longest first.
const MULTI_PUNCT: [&str; 17] = [
    "..=", "<<=", ">>=", "::", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "->", "=>",
    "&&", "||",
];

/// Lexes `src` into a token stream. Unterminated literals/comments consume
/// to end of input rather than erroring: the auditor must never panic on a
/// source file the compiler itself will reject later.
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::with_capacity(src.len() / 4);
    let mut i = 0usize;
    let mut line: u32 = 1;
    let push = |toks: &mut Vec<Tok>, kind: TokKind, text: &str, line: u32| {
        toks.push(Tok {
            kind,
            text: text.to_string(),
            line,
        })
    };
    while i < b.len() {
        let c = b[i];
        // Whitespace (tracks line numbers).
        if c.is_ascii_whitespace() {
            if c == b'\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i;
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            push(&mut toks, TokKind::LineComment, &src[start..i], line);
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let (start, start_line) = (i, line);
            let mut depth = 1u32;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            push(&mut toks, TokKind::BlockComment, &src[start..i], start_line);
            continue;
        }
        // Raw strings r"..." / r#"..."# / br"..." (any hash depth).
        if c == b'r' || c == b'b' {
            if let Some((end, newlines)) = raw_string_end(b, i) {
                push(&mut toks, TokKind::Str, &src[i..end], line);
                line += newlines;
                i = end;
                continue;
            }
        }
        // Plain and byte strings.
        if c == b'"' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'"') {
            let start = i;
            let start_line = line;
            i += if c == b'b' { 2 } else { 1 };
            while i < b.len() && b[i] != b'"' {
                if b[i] == b'\\' {
                    i += 1; // skip escaped char (covers \" and \\)
                }
                if i < b.len() && b[i] == b'\n' {
                    line += 1;
                }
                i += 1;
            }
            i = (i + 1).min(b.len());
            push(&mut toks, TokKind::Str, &src[start..i], start_line);
            continue;
        }
        // Lifetime or char literal.
        if c == b'\'' {
            let start = i;
            // Escaped char literal: '\n', '\'', '\u{..}'.
            if i + 1 < b.len() && b[i + 1] == b'\\' {
                i += 3; // opening quote, backslash, escaped char
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                i = (i + 1).min(b.len());
                push(&mut toks, TokKind::Str, &src[start..i], line);
                continue;
            }
            // Single-char literal: any char then a closing quote ('x',
            // '"', '{'). Lifetimes are never followed by a quote, so this
            // test is unambiguous.
            if i + 2 < b.len() && b[i + 1] != b'\'' && b[i + 2] == b'\'' {
                i += 3;
                push(&mut toks, TokKind::Str, &src[start..i], line);
                continue;
            }
            // Lifetime ('a, 'static). Multi-byte char literals fall here
            // too and leave a stray quote token — harmless for the rules.
            let mut j = i + 1;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_' || b[j] >= 0x80) {
                j += 1;
            }
            i = j.max(i + 1);
            push(&mut toks, TokKind::Lifetime, &src[start..i], line);
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            if c == b'0' && i + 1 < b.len() && matches!(b[i + 1], b'x' | b'o' | b'b') {
                i += 2;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
            } else {
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                    i += 1;
                }
                // Fractional part: digit after the dot required so that
                // `0..n` ranges and tuple access `x.0` stay separate tokens.
                if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                        i += 1;
                    }
                } else if i < b.len()
                    && b[i] == b'.'
                    && (i + 1 == b.len()
                        || !matches!(b[i + 1], b'.' | b'a'..=b'z' | b'A'..=b'Z' | b'_'))
                {
                    // `1.` trailing-dot float (not `1..` or `1.method()`).
                    is_float = true;
                    i += 1;
                }
                // Exponent.
                if i < b.len() && matches!(b[i], b'e' | b'E') {
                    let mut j = i + 1;
                    if j < b.len() && matches!(b[j], b'+' | b'-') {
                        j += 1;
                    }
                    if j < b.len() && b[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                            i += 1;
                        }
                    }
                }
            }
            // Type suffix (u64, f64, ...).
            let suffix_start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            let suffix = &src[suffix_start..i];
            if suffix.starts_with('f') {
                is_float = true;
            }
            push(
                &mut toks,
                if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                &src[start..i],
                line,
            );
            continue;
        }
        // Identifiers / keywords (ASCII + pass-through for non-ASCII).
        if c.is_ascii_alphabetic() || c == b'_' || c >= 0x80 {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] >= 0x80) {
                i += 1;
            }
            push(&mut toks, TokKind::Ident, &src[start..i], line);
            continue;
        }
        // Multi-char operators, longest match first.
        let rest = &src[i..];
        if let Some(op) = MULTI_PUNCT.iter().find(|op| rest.starts_with(**op)) {
            push(&mut toks, TokKind::Punct, op, line);
            i += op.len();
            continue;
        }
        // `..` after the longest-match list (it is a prefix of `..=`).
        if rest.starts_with("..") {
            push(&mut toks, TokKind::Punct, "..", line);
            i += 2;
            continue;
        }
        // Single-char punctuation.
        push(&mut toks, TokKind::Punct, &src[i..i + 1], line);
        i += 1;
    }
    toks
}

/// If `b[i..]` starts a raw (byte) string, returns `(end_index,
/// newline_count)`; otherwise `None`.
fn raw_string_end(b: &[u8], i: usize) -> Option<(usize, u32)> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() || b[j] != b'"' {
        return None;
    }
    j += 1;
    let mut newlines = 0u32;
    while j < b.len() {
        if b[j] == b'\n' {
            newlines += 1;
        }
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut h = 0usize;
            while k < b.len() && b[k] == b'#' && h < hashes {
                h += 1;
                k += 1;
            }
            if h == hashes {
                return Some((k, newlines));
            }
        }
        j += 1;
    }
    Some((b.len(), newlines))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn operators_lex_as_single_tokens() {
        let ts = kinds("a += b; c == 0.0; d :: e");
        assert!(ts.contains(&(TokKind::Punct, "+=".into())));
        assert!(ts.contains(&(TokKind::Punct, "==".into())));
        assert!(ts.contains(&(TokKind::Punct, "::".into())));
        assert!(ts.contains(&(TokKind::Float, "0.0".into())));
    }

    #[test]
    fn tuple_access_is_not_a_float() {
        let ts = kinds("slot.0 == line");
        assert_eq!(ts[0], (TokKind::Ident, "slot".into()));
        assert_eq!(ts[1], (TokKind::Punct, ".".into()));
        assert_eq!(ts[2], (TokKind::Int, "0".into()));
    }

    #[test]
    fn ranges_are_not_floats() {
        let ts = kinds("0..n");
        assert_eq!(ts[0], (TokKind::Int, "0".into()));
        assert_eq!(ts[1], (TokKind::Punct, "..".into()));
    }

    #[test]
    fn float_suffix_and_exponent() {
        assert_eq!(kinds("1f64")[0].0, TokKind::Float);
        assert_eq!(kinds("1e9")[0].0, TokKind::Float);
        assert_eq!(kinds("1_000")[0].0, TokKind::Int);
    }

    #[test]
    fn strings_hide_their_contents() {
        let ts = kinds(r#"let s = "Instant == 0.0 // not code";"#);
        assert!(ts.iter().all(|t| t.0 != TokKind::Float));
        assert!(!ts.iter().any(|t| t.1 == "Instant"));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let ts = kinds(r##"let s = r#"a "quoted" b"#;"##);
        assert!(ts.iter().any(|t| t.0 == TokKind::Str));
        assert_eq!(ts.last().map(|t| t.1.as_str()), Some(";"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let ts = kinds("fn f<'a>(x: &'a u8) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(ts.iter().filter(|t| t.0 == TokKind::Lifetime).count(), 2);
        assert_eq!(ts.iter().filter(|t| t.0 == TokKind::Str).count(), 2);
    }

    #[test]
    fn comments_are_kept_with_lines() {
        let toks = lex("let a = 1;\n// gh-audit: allow(x) -- why\nlet b = 2;");
        let c = toks
            .iter()
            .find(|t| t.kind == TokKind::LineComment)
            .expect("comment token");
        assert_eq!(c.line, 2);
        assert!(c.text.contains("gh-audit"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* a /* b */ c */ let x = 1;");
        assert_eq!(toks[0].kind, TokKind::BlockComment);
        assert!(toks[0].text.ends_with("c */"));
        assert!(toks.iter().any(|t| t.is_ident("let")));
    }
}
