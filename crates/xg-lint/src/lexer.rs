//! A minimal Rust surface lexer: separates code from comments and blanks
//! out string/char literal contents.
//!
//! The rules in this crate are token-level, not type-level, so the lexer
//! does not build an AST. It produces a *scrubbed* copy of the source —
//! byte-for-byte line structure preserved, every comment and every
//! string/char literal body replaced by spaces — plus the list of
//! comments with their line numbers (waivers live in comments). Scrubbing
//! first means a rule can search for `.fold(` or `par_iter` by plain
//! substring without tripping over doc comments, log messages, or the
//! linter's own pattern tables.
//!
//! Handled: line comments (`//`, `///`, `//!`), nested block comments,
//! `"…"` strings with escapes, raw strings `r#"…"#` (any hash count),
//! byte/raw-byte strings, char literals, and lifetimes (`'a` is not a
//! char literal).

/// One comment, with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based source line of the comment's first character.
    pub line: usize,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
}

/// One string literal's body, with the 1-based line its opening quote
/// sits on. Bodies are captured verbatim (escapes unprocessed) — the
/// semantic rules only ever compare plain dotted names, which carry no
/// escapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrLit {
    /// 1-based source line of the opening quote.
    pub line: usize,
    /// Raw body text between the delimiters.
    pub text: String,
}

/// Lexer output: scrubbed source lines plus extracted comments and
/// string-literal bodies.
#[derive(Debug, Clone)]
pub struct Scrubbed {
    /// Source lines with comments and literal bodies blanked to spaces.
    /// Same line count and per-line byte layout as the input.
    pub lines: Vec<String>,
    /// Every comment in the file, in order.
    pub comments: Vec<Comment>,
    /// Every string literal body, in source order. The tokenizer pairs
    /// these back up with the blanked `"…"` tokens positionally: both
    /// walk the file front to back, so the n-th string token it meets is
    /// `strings[n]`.
    pub strings: Vec<StrLit>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Block comments nest in Rust; the payload is the nesting depth.
    BlockComment(u32),
    Str,
    /// Raw string with this many `#` marks in its delimiter.
    RawStr(u32),
    Char,
}

/// Scrub `source`, separating code from comments and literals.
pub fn scrub(source: &str) -> Scrubbed {
    let bytes = source.as_bytes();
    let mut lines: Vec<String> = Vec::new();
    let mut cur = String::new();
    let mut comments: Vec<Comment> = Vec::new();
    let mut comment_text = String::new();
    let mut comment_line = 0usize;
    let mut strings: Vec<StrLit> = Vec::new();
    let mut str_text = String::new();
    let mut str_line = 0usize;
    let mut line = 1usize;
    let mut state = State::Code;
    let mut i = 0usize;

    macro_rules! flush_comment {
        () => {
            comments.push(Comment {
                line: comment_line,
                text: std::mem::take(&mut comment_text),
            });
        };
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            match state {
                State::LineComment => {
                    flush_comment!();
                    state = State::Code;
                }
                State::BlockComment(_) => comment_text.push('\n'),
                State::Str | State::RawStr(_) => str_text.push('\n'),
                _ => {}
            }
            lines.push(std::mem::take(&mut cur));
            line += 1;
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                match c {
                    '/' if bytes.get(i + 1) == Some(&b'/') => {
                        state = State::LineComment;
                        comment_line = line;
                        cur.push_str("  ");
                        i += 2;
                        continue;
                    }
                    '/' if bytes.get(i + 1) == Some(&b'*') => {
                        state = State::BlockComment(1);
                        comment_line = line;
                        cur.push_str("  ");
                        i += 2;
                        continue;
                    }
                    '"' => {
                        // Keep the quotes so token boundaries survive.
                        state = State::Str;
                        str_line = line;
                        cur.push('"');
                        i += 1;
                        continue;
                    }
                    'r' | 'b' if is_raw_or_byte_string_start(bytes, i) => {
                        let (hashes, consumed) = raw_delimiter(bytes, i);
                        state = if hashes == u32::MAX {
                            State::Str // b"…" byte string, no hashes
                        } else {
                            State::RawStr(hashes)
                        };
                        str_line = line;
                        for _ in 0..consumed {
                            cur.push(' ');
                        }
                        cur.push('"');
                        i += consumed + 1;
                        continue;
                    }
                    '\'' if is_char_literal_start(bytes, i) => {
                        state = State::Char;
                        cur.push('\'');
                        i += 1;
                        continue;
                    }
                    _ => {}
                }
                cur.push(c);
                i += 1;
            }
            State::LineComment => {
                comment_text.push(c);
                cur.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && bytes.get(i + 1) == Some(&b'/') {
                    if depth == 1 {
                        flush_comment!();
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                        comment_text.push_str("*/");
                    }
                    cur.push_str("  ");
                    i += 2;
                } else if c == '/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    comment_text.push_str("/*");
                    cur.push_str("  ");
                    i += 2;
                } else {
                    comment_text.push(c);
                    cur.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' && bytes.get(i + 1) == Some(&b'\n') {
                    // Line-continuation escape: let the newline be handled
                    // by the top of the loop so line structure survives.
                    str_text.push('\\');
                    cur.push(' ');
                    i += 1;
                } else if c == '\\' && i + 1 < bytes.len() {
                    str_text.push('\\');
                    str_text.push(bytes[i + 1] as char);
                    cur.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    state = State::Code;
                    strings.push(StrLit {
                        line: str_line,
                        text: std::mem::take(&mut str_text),
                    });
                    cur.push('"');
                    i += 1;
                } else {
                    str_text.push(c);
                    cur.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && raw_closes(bytes, i, hashes) {
                    state = State::Code;
                    strings.push(StrLit {
                        line: str_line,
                        text: std::mem::take(&mut str_text),
                    });
                    cur.push('"');
                    for _ in 0..hashes {
                        cur.push(' ');
                    }
                    i += 1 + hashes as usize;
                } else {
                    str_text.push(c);
                    cur.push(' ');
                    i += 1;
                }
            }
            State::Char => {
                if c == '\\' && i + 1 < bytes.len() {
                    cur.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    state = State::Code;
                    cur.push('\'');
                    i += 1;
                } else {
                    cur.push(' ');
                    i += 1;
                }
            }
        }
    }
    if state == State::LineComment || matches!(state, State::BlockComment(_)) {
        flush_comment!();
    }
    if matches!(state, State::Str | State::RawStr(_)) {
        // Unterminated literal (truncated file): keep what we saw so the
        // positional pairing with string tokens stays in sync.
        strings.push(StrLit {
            line: str_line,
            text: std::mem::take(&mut str_text),
        });
    }
    lines.push(cur);
    Scrubbed {
        lines,
        comments,
        strings,
    }
}

/// Does `r`/`b` at `i` begin a raw or byte string (`r"`, `r#`, `b"`, `br`)?
fn is_raw_or_byte_string_start(bytes: &[u8], i: usize) -> bool {
    // Must not be the tail of an identifier (`for`, `attr`, …).
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    match bytes[i] {
        b'r' => matches!(bytes.get(i + 1), Some(b'"') | Some(b'#')) && raw_has_quote(bytes, i + 1),
        b'b' => match bytes.get(i + 1) {
            Some(b'"') => true,
            Some(b'r') => {
                matches!(bytes.get(i + 2), Some(b'"') | Some(b'#')) && raw_has_quote(bytes, i + 2)
            }
            _ => false,
        },
        _ => false,
    }
}

/// From a position at `"` or the first `#`, is there a quote after the
/// hashes (i.e. this really is a raw-string delimiter, not `r#ident`)?
fn raw_has_quote(bytes: &[u8], mut j: usize) -> bool {
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Hash count and bytes consumed up to (not including) the opening quote.
/// Returns `u32::MAX` hashes for a plain `b"…"` byte string.
fn raw_delimiter(bytes: &[u8], i: usize) -> (u32, usize) {
    let mut j = i + 1; // skip the `r` or `b`
    if bytes[i] == b'b' && bytes.get(j) == Some(&b'r') {
        j += 1;
    } else if bytes[i] == b'b' {
        return (u32::MAX, j - i);
    }
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (hashes, j - i)
}

/// Does the `"` at `i` close a raw string with `hashes` marks?
fn raw_closes(bytes: &[u8], i: usize, hashes: u32) -> bool {
    for k in 0..hashes as usize {
        if bytes.get(i + 1 + k) != Some(&b'#') {
            return false;
        }
    }
    true
}

/// Distinguish `'x'` (char literal) from `'a` (lifetime).
fn is_char_literal_start(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(b'\\') => true,
        Some(&c) if is_ident_byte(c) => {
            // `'a'` is a char; `'a,` / `'a>` / `'a ` is a lifetime.
            bytes.get(i + 2) == Some(&b'\'')
        }
        Some(_) => true,
        None => false,
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_extracted_and_blanked() {
        let s = scrub("let x = 1; // trailing note\n/* block */ let y = 2;\n");
        assert_eq!(s.comments.len(), 2);
        assert_eq!(s.comments[0].text.trim(), "trailing note");
        assert_eq!(s.comments[0].line, 1);
        assert_eq!(s.comments[1].text.trim(), "block");
        assert!(!s.lines[0].contains("trailing"));
        assert!(s.lines[1].contains("let y = 2;"));
    }

    #[test]
    fn string_bodies_are_blanked_but_quotes_remain() {
        let s = scrub("let p = \"Instant::now inside a string\";\n");
        assert!(!s.lines[0].contains("Instant"));
        assert!(s.lines[0].contains("let p = \""));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let s = scrub("let a = r#\"HashMap \"quoted\" body\"#; let b = \"esc \\\" HashMap\";\n");
        assert!(!s.lines[0].contains("HashMap"));
        assert!(s.lines[0].contains("let b ="));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scrub("fn f<'a>(x: &'a str) -> &'a str { x } // HashMap\n");
        assert!(s.lines[0].contains("fn f<'a>(x: &'a str)"));
        assert_eq!(s.comments.len(), 1);
    }

    #[test]
    fn nested_block_comments() {
        let s = scrub("/* outer /* inner */ still comment */ code();\n");
        assert!(s.lines[0].contains("code();"));
        assert!(s.comments[0].text.contains("inner"));
    }

    #[test]
    fn char_literals_blank_their_body() {
        let s = scrub("let c = '\\''; let d = 'H'; let m: HashMap<u8, u8>;\n");
        assert!(s.lines[0].contains("HashMap"));
        assert!(!s.lines[0].contains("'H'"));
    }

    #[test]
    fn string_bodies_are_captured_in_order() {
        let s = scrub("let a = \"alpha.one\"; let b = r#\"beta \"two\"\"#; let c = b\"gamma\";\n");
        let texts: Vec<&str> = s.strings.iter().map(|l| l.text.as_str()).collect();
        assert_eq!(texts, ["alpha.one", "beta \"two\"", "gamma"]);
        assert!(s.strings.iter().all(|l| l.line == 1));
    }

    #[test]
    fn escaped_quote_stays_one_literal() {
        let s = scrub("let a = \"x\\\"y\"; let b = \"z\";\n");
        assert_eq!(s.strings.len(), 2);
        assert_eq!(s.strings[0].text, "x\\\"y");
        assert_eq!(s.strings[1].text, "z");
    }

    #[test]
    fn line_structure_is_preserved() {
        let src = "a\nb /* c\nd */ e\nf\n";
        let s = scrub(src);
        assert_eq!(s.lines.len(), 5); // 4 lines + empty tail after final \n
        assert!(s.lines[2].contains('e'));
    }
}
