//! Token stream and token-tree construction over scrubbed source.
//!
//! `float-reduce` is a line-level substring check; the semantic rules
//! (`time-unit`, `obs-name`, `event-panic`) need to see *structure*:
//! which identifier is an operand of which operator, which string
//! literal is the n-th argument of which call, which lines sit inside
//! an `impl Advance for …` block. This module recovers that
//! structure without a parser dependency:
//!
//! 1. [`tokenize`] turns [`Scrubbed`] lines into a flat token stream
//!    (identifiers, numeric literals, string-literal references, joined
//!    multi-character operators, delimiters);
//! 2. [`build_tree`] nests the stream into brace/paren/bracket groups,
//!    tolerant of imbalance (a truncated file closes every open group at
//!    EOF rather than desyncing);
//! 3. [`item_context`] walks the tree once to recover item-level facts:
//!    the body extent and name of every `fn`, and the extent and trait
//!    name of every `impl Trait for Type` block.
//!
//! String literals are represented as indices into
//! [`Scrubbed::strings`]: the lexer records bodies in source order and
//! the tokenizer meets the blanked `"…"` tokens in the same order, so
//! the pairing is positional and exact.

use crate::lexer::Scrubbed;

/// Delimiter kind of a [`Node::Group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `( … )`
    Paren,
    /// `[ … ]`
    Bracket,
    /// `{ … }`
    Brace,
}

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (raw identifiers lose their `r#` prefix).
    Ident(String),
    /// Numeric literal, verbatim (`1_000_000`, `0.5`, `42u64`, `0x1f`).
    Num(String),
    /// String literal: index into [`Scrubbed::strings`].
    Str(usize),
    /// Char literal (body already blanked by the lexer).
    CharLit,
    /// Lifetime (`'a`).
    Lifetime,
    /// Operator/punctuation, multi-character forms pre-joined (`->`,
    /// `==`, `+=`, `::`, …) so `-` and `->` are distinct tokens.
    Op(String),
    /// Opening delimiter (consumed by [`build_tree`]).
    Open(Delim),
    /// Closing delimiter (consumed by [`build_tree`]).
    Close(Delim),
}

/// A token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line.
    pub line: usize,
    /// The token itself.
    pub tok: Tok,
}

/// One node of the token tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A non-delimiter token.
    Leaf(Token),
    /// A delimited group and everything inside it.
    Group {
        /// Delimiter kind.
        delim: Delim,
        /// Line of the opening delimiter.
        open_line: usize,
        /// Line of the closing delimiter (EOF line if unclosed).
        close_line: usize,
        /// Nested content.
        children: Vec<Node>,
    },
}

impl Node {
    /// First line of this node.
    pub fn line(&self) -> usize {
        match self {
            Node::Leaf(t) => t.line,
            Node::Group { open_line, .. } => *open_line,
        }
    }
}

/// Multi-character operators, longest first so greedy joining is
/// unambiguous (`<<=` before `<<` before `<`).
const JOINED_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "<<", ">>", "..", "::", "->", "=>", "==", "!=", "<=", ">=", "&&",
    "||", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Tokenize scrubbed source into a flat stream.
pub fn tokenize(s: &Scrubbed) -> Vec<Token> {
    let mut out = Vec::new();
    let mut str_idx = 0usize;
    // Flatten to (line, byte) so multi-line constructs (blanked string
    // bodies) are scanned uniformly.
    let mut flat: Vec<(usize, u8)> = Vec::new();
    for (li, line) in s.lines.iter().enumerate() {
        for &b in line.as_bytes() {
            flat.push((li + 1, b));
        }
        flat.push((li + 1, b'\n'));
    }
    let n = flat.len();
    let mut i = 0usize;
    while i < n {
        let (line, b) = flat[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'"' => {
                // Blanked literal body: spaces (and newlines) until the
                // closing quote, which is the next `"` in the stream.
                let mut j = i + 1;
                while j < n && flat[j].1 != b'"' {
                    j += 1;
                }
                out.push(Token {
                    line,
                    tok: Tok::Str(str_idx),
                });
                str_idx += 1;
                i = j + 1;
            }
            b'\'' => {
                // Scrubbed char literal = quote, blanks, quote.
                // Lifetime = quote then identifier chars, no closing quote.
                let mut j = i + 1;
                while j < n && flat[j].1 == b' ' {
                    j += 1;
                }
                if j < n && flat[j].1 == b'\'' && j > i + 1 {
                    out.push(Token {
                        line,
                        tok: Tok::CharLit,
                    });
                    i = j + 1;
                } else {
                    let mut k = i + 1;
                    while k < n && is_ident_byte(flat[k].1) {
                        k += 1;
                    }
                    out.push(Token {
                        line,
                        tok: Tok::Lifetime,
                    });
                    i = k.max(i + 1);
                }
            }
            b'(' => push_delim(&mut out, line, Tok::Open(Delim::Paren), &mut i),
            b')' => push_delim(&mut out, line, Tok::Close(Delim::Paren), &mut i),
            b'[' => push_delim(&mut out, line, Tok::Open(Delim::Bracket), &mut i),
            b']' => push_delim(&mut out, line, Tok::Close(Delim::Bracket), &mut i),
            b'{' => push_delim(&mut out, line, Tok::Open(Delim::Brace), &mut i),
            b'}' => push_delim(&mut out, line, Tok::Close(Delim::Brace), &mut i),
            b'0'..=b'9' => {
                let mut j = i;
                let mut text = String::new();
                while j < n {
                    let c = flat[j].1;
                    if is_ident_byte(c) {
                        text.push(c as char);
                        j += 1;
                    } else if c == b'.'
                        && j + 1 < n
                        && flat[j + 1].1.is_ascii_digit()
                        && !text.contains('.')
                    {
                        text.push('.');
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    line,
                    tok: Tok::Num(text),
                });
                i = j;
            }
            c if c == b'r'
                && i + 2 < n
                && flat[i + 1].1 == b'#'
                && is_ident_byte(flat[i + 2].1) =>
            {
                // Raw identifier `r#ident`: strip the prefix.
                let mut j = i + 2;
                let mut text = String::new();
                while j < n && is_ident_byte(flat[j].1) {
                    text.push(flat[j].1 as char);
                    j += 1;
                }
                out.push(Token {
                    line,
                    tok: Tok::Ident(text),
                });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut j = i;
                let mut text = String::new();
                while j < n && is_ident_byte(flat[j].1) {
                    text.push(flat[j].1 as char);
                    j += 1;
                }
                out.push(Token {
                    line,
                    tok: Tok::Ident(text),
                });
                i = j;
            }
            _ => {
                // Operator: greedy longest-match against the join table.
                let mut matched = None;
                for op in JOINED_OPS {
                    let len = op.len();
                    if i + len <= n
                        && op
                            .bytes()
                            .enumerate()
                            .all(|(k, ob)| flat[i + k].1 == ob && flat[i + k].0 == line)
                    {
                        matched = Some(*op);
                        break;
                    }
                }
                match matched {
                    Some(op) => {
                        out.push(Token {
                            line,
                            tok: Tok::Op(op.to_string()),
                        });
                        i += op.len();
                    }
                    None => {
                        out.push(Token {
                            line,
                            tok: Tok::Op((b as char).to_string()),
                        });
                        i += 1;
                    }
                }
            }
        }
    }
    out
}

fn push_delim(out: &mut Vec<Token>, line: usize, tok: Tok, i: &mut usize) {
    out.push(Token { line, tok });
    *i += 1;
}

/// Nest a token stream into groups. Imbalance-tolerant: a stray closer
/// is dropped, open groups at EOF close on the last line — a half-edited
/// file degrades to coarser context instead of desyncing the walk.
pub fn build_tree(tokens: Vec<Token>) -> Vec<Node> {
    let last_line = tokens.last().map(|t| t.line).unwrap_or(1);
    // Stack of (delim, open_line, children-in-progress).
    let mut stack: Vec<(Delim, usize, Vec<Node>)> = Vec::new();
    let mut top: Vec<Node> = Vec::new();
    for t in tokens {
        match t.tok {
            Tok::Open(d) => stack.push((d, t.line, Vec::new())),
            Tok::Close(d) => {
                // Close the innermost matching group; drop a stray closer.
                if stack.iter().rev().any(|(sd, _, _)| *sd == d) {
                    while let Some((sd, open_line, children)) = stack.pop() {
                        let node = Node::Group {
                            delim: sd,
                            open_line,
                            close_line: t.line,
                            children,
                        };
                        match stack.last_mut() {
                            Some((_, _, parent)) => parent.push(node),
                            None => top.push(node),
                        }
                        if sd == d {
                            break;
                        }
                    }
                }
            }
            _ => match stack.last_mut() {
                Some((_, _, children)) => children.push(Node::Leaf(t)),
                None => top.push(Node::Leaf(t)),
            },
        }
    }
    while let Some((d, open_line, children)) = stack.pop() {
        let node = Node::Group {
            delim: d,
            open_line,
            close_line: last_line,
            children,
        };
        match stack.last_mut() {
            Some((_, _, parent)) => parent.push(node),
            None => top.push(node),
        }
    }
    top
}

/// Item-level context recovered from one walk of the tree.
#[derive(Debug, Clone, Default)]
pub struct ItemContext {
    /// `(body_start_line, body_end_line, fn_name)` for every `fn` item,
    /// in source order. Nested fns appear after their parent.
    fns: Vec<(usize, usize, String)>,
    /// `(start_line, end_line, trait_last_segment)` for every
    /// `impl Trait for Type` block.
    impls: Vec<(usize, usize, String)>,
}

impl ItemContext {
    /// Name of the innermost `fn` whose body contains `line`.
    pub fn enclosing_fn(&self, line: usize) -> Option<&str> {
        self.fns
            .iter()
            .filter(|&&(a, b, _)| a <= line && line <= b)
            .min_by_key(|&&(a, b, _)| b - a)
            .map(|(_, _, name)| name.as_str())
    }

    /// Is `line` inside an `impl T for …` block whose trait path ends in
    /// one of `traits`?
    pub fn in_impl_of(&self, line: usize, traits: &[&str]) -> bool {
        self.impls
            .iter()
            .any(|(a, b, t)| *a <= line && line <= *b && traits.contains(&t.as_str()))
    }
}

/// Recover fn bodies and trait-impl extents from the tree.
pub fn item_context(nodes: &[Node]) -> ItemContext {
    let mut cx = ItemContext::default();
    walk_items(nodes, &mut cx);
    cx
}

fn walk_items(nodes: &[Node], cx: &mut ItemContext) {
    let mut i = 0usize;
    while i < nodes.len() {
        match &nodes[i] {
            Node::Leaf(Token {
                tok: Tok::Ident(kw),
                ..
            }) if kw == "fn" => {
                // `fn name … { body }`: the next ident is the name, the
                // next sibling brace group is the body (skipping the
                // argument parens, return type, and where clause).
                let mut name: Option<String> = None;
                let mut body: Option<(usize, usize)> = None;
                for n in nodes[i + 1..].iter() {
                    match n {
                        Node::Leaf(Token {
                            tok: Tok::Ident(id),
                            ..
                        }) if name.is_none() => name = Some(id.clone()),
                        Node::Group {
                            delim: Delim::Brace,
                            open_line,
                            close_line,
                            ..
                        } => {
                            body = Some((*open_line, *close_line));
                            break;
                        }
                        // Trait method declaration (`fn f(…);`) or an
                        // `fn`-pointer type in a field/tuple position:
                        // no body belongs to this `fn`.
                        Node::Leaf(Token {
                            tok: Tok::Op(op), ..
                        }) if op == ";" || op == "," => break,
                        _ => {}
                    }
                }
                if let (Some(name), Some((a, b))) = (name, body) {
                    cx.fns.push((a, b, name));
                }
            }
            Node::Leaf(Token {
                tok: Tok::Ident(kw),
                line,
            }) if kw == "impl" => {
                // Find the body brace group and whether a `for` keyword
                // appears before it; the trait name is the last path
                // identifier before `for`.
                let mut trait_name: Option<String> = None;
                let mut last_ident: Option<String> = None;
                for n in nodes[i + 1..].iter() {
                    match n {
                        Node::Leaf(Token {
                            tok: Tok::Ident(id),
                            ..
                        }) => {
                            if id == "for" {
                                trait_name = last_ident.take();
                            } else {
                                last_ident = Some(id.clone());
                            }
                        }
                        Node::Group {
                            delim: Delim::Brace,
                            close_line,
                            ..
                        } => {
                            if let Some(t) = trait_name.take() {
                                cx.impls.push((*line, *close_line, t));
                            }
                            break;
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
        if let Node::Group { children, .. } = &nodes[i] {
            walk_items(children, cx);
        }
        i += 1;
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Parse a numeric literal's integer value, if it is an integer.
/// Underscores and type suffixes (`u64`, `usize`, …) are stripped;
/// `0x`/`0o`/`0b` radix prefixes are honored. Floats return `None`.
pub fn int_value(text: &str) -> Option<u128> {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    if t.contains('.') {
        return None;
    }
    let (radix, digits) = if let Some(rest) = t.strip_prefix("0x") {
        (16, rest)
    } else if let Some(rest) = t.strip_prefix("0o") {
        (8, rest)
    } else if let Some(rest) = t.strip_prefix("0b") {
        (2, rest)
    } else {
        (10, t.as_str())
    };
    // Strip a trailing type suffix (first char that is not a digit of
    // the radix starts the suffix).
    let end = digits
        .char_indices()
        .find(|(_, c)| !c.is_digit(radix))
        .map(|(i, _)| i)
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    u128::from_str_radix(&digits[..end], radix).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    fn idents(tokens: &[Token]) -> Vec<&str> {
        tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn tokenizes_ops_and_idents() {
        let s = scrub("let a_ms = t_ns + dt; x -> y; a == b;\n");
        let toks = tokenize(&s);
        assert!(idents(&toks).contains(&"a_ms"));
        let ops: Vec<&str> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Op(o) => Some(o.as_str()),
                _ => None,
            })
            .collect();
        assert!(ops.contains(&"->"), "arrow joined: {ops:?}");
        assert!(ops.contains(&"=="), "eq joined: {ops:?}");
        assert!(ops.contains(&"+"));
        // `->` must not leave a stray `-`.
        assert_eq!(ops.iter().filter(|o| **o == "-").count(), 0);
    }

    #[test]
    fn string_tokens_pair_positionally() {
        let s = scrub("f(\"one\"); g(r#\"two \"quoted\"\"#, \"three\");\n");
        let toks = tokenize(&s);
        let strs: Vec<usize> = toks
            .iter()
            .filter_map(|t| match t.tok {
                Tok::Str(i) => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec![0, 1, 2]);
        assert_eq!(s.strings[1].text, "two \"quoted\"");
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let s = scrub("let c = '{'; fn f<'a>(x: &'a str) {}\n");
        let toks = tokenize(&s);
        assert_eq!(
            toks.iter().filter(|t| t.tok == Tok::CharLit).count(),
            1,
            "{toks:?}"
        );
        assert_eq!(toks.iter().filter(|t| t.tok == Tok::Lifetime).count(), 2);
    }

    #[test]
    fn tree_nests_groups() {
        let s = scrub("fn f(a: u64) { g(a, [1, 2]); }\n");
        let tree = build_tree(tokenize(&s));
        // Top level: `fn`, `f`, (args), {body}.
        let braces = tree
            .iter()
            .filter(|n| {
                matches!(
                    n,
                    Node::Group {
                        delim: Delim::Brace,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(braces, 1);
        let Some(Node::Group { children, .. }) = tree.iter().find(|n| {
            matches!(
                n,
                Node::Group {
                    delim: Delim::Brace,
                    ..
                }
            )
        }) else {
            panic!("no brace group");
        };
        // Body holds `g`, (call args) with a nested bracket group.
        assert!(children.iter().any(
            |n| matches!(n, Node::Group { delim: Delim::Paren, children, .. }
                if children.iter().any(|c| matches!(c, Node::Group { delim: Delim::Bracket, .. })))
        ));
    }

    #[test]
    fn unbalanced_input_does_not_desync() {
        let s = scrub("fn f() { g(; }\n"); // stray `(`
        let tree = build_tree(tokenize(&s));
        assert!(!tree.is_empty());
        let s2 = scrub(") } fn g() {}\n"); // stray closers
        let tree2 = build_tree(tokenize(&s2));
        let cx = item_context(&tree2);
        assert_eq!(cx.enclosing_fn(1), Some("g"));
    }

    #[test]
    fn item_context_finds_fns_and_impls() {
        let src = "\
struct S;
impl xg_sim::Advance for S {
    fn advance_to(&mut self, t: u64) {
        let x = t;
    }
}
impl S {
    fn inherent(&self) {}
}
fn free() {
    let closure = || 1;
}
";
        let cx = item_context(&build_tree(tokenize(&scrub(src))));
        assert_eq!(cx.enclosing_fn(4), Some("advance_to"));
        assert_eq!(cx.enclosing_fn(8), Some("inherent"));
        assert_eq!(cx.enclosing_fn(11), Some("free"));
        assert!(cx.in_impl_of(4, &["Advance"]));
        assert!(
            !cx.in_impl_of(8, &["Advance"]),
            "inherent impl is not a trait impl"
        );
        assert!(!cx.in_impl_of(11, &["Advance"]));
        let traits: Vec<&str> = cx.impls.iter().map(|(_, _, t)| t.as_str()).collect();
        assert_eq!(traits, vec!["Advance"]);
    }

    #[test]
    fn generic_impl_trait_name() {
        let src = "impl<T: Clone> Advance for Wrapper<T> { fn now(&self) {} }\n";
        let cx = item_context(&build_tree(tokenize(&scrub(src))));
        assert!(cx.in_impl_of(1, &["Advance"]));
    }

    #[test]
    fn int_values() {
        assert_eq!(int_value("1_000_000"), Some(1_000_000));
        assert_eq!(int_value("42u64"), Some(42));
        assert_eq!(int_value("0x1f"), Some(31));
        assert_eq!(int_value("0.5"), None);
        assert_eq!(int_value("300_000_000_000"), Some(300_000_000_000));
    }
}
