//! Semantic analyses over the token tree: the rule implementations
//! that need operator/operand structure, call-argument extraction, or
//! item-level context rather than line-level substrings.
//!
//! Everything here is deliberately heuristic-but-auditable: each
//! analysis is a short walk over [`Node`]s with its trigger tables in
//! plain sight, like the `float-reduce` substring table. Precision
//! comes from tokens (so `elapsed_ms_total` can never match
//! `elapsed_ms`) and from context (so a `fn from_millis` conversion
//! helper is exempt from the unit-mix rule by construction).

use crate::lexer::Scrubbed;
use crate::schema::ObsKind;
use crate::tokens::{
    build_tree, int_value, item_context, tokenize, Delim, ItemContext, Node, Tok, Token,
};

/// Token tree plus item context for one file, built once and shared by
/// every semantic rule.
#[derive(Debug)]
pub struct Semantics {
    /// Nested token tree.
    pub tree: Vec<Node>,
    /// fn bodies and trait-impl extents.
    pub cx: ItemContext,
}

/// Build the semantic view of one scrubbed file.
pub fn analyze(s: &Scrubbed) -> Semantics {
    let tree = build_tree(tokenize(s));
    let cx = item_context(&tree);
    Semantics { tree, cx }
}

// ---------------------------------------------------------------------
// time-unit dataflow
// ---------------------------------------------------------------------

/// Time unit carried by an identifier suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    Ns,
    Us,
    Ms,
    S,
}

impl Unit {
    fn name(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Us => "us",
            Unit::Ms => "ms",
            Unit::S => "s",
        }
    }
}

fn unit_of(ident: &str) -> Option<Unit> {
    let l = ident.to_ascii_lowercase();
    if l.ends_with("_ns") {
        Some(Unit::Ns)
    } else if l.ends_with("_us") {
        Some(Unit::Us)
    } else if l.ends_with("_ms") {
        Some(Unit::Ms)
    } else if l.ends_with("_s") {
        Some(Unit::S)
    } else {
        None
    }
}

/// Identifiers that *are* unit conversions: their presence in a
/// statement (or as the enclosing fn's name) marks the mixing as
/// intentional.
fn is_conversion_ident(ident: &str) -> bool {
    let l = ident.to_ascii_lowercase();
    let unitish = ["ns", "us", "ms", "sec", "milli", "micro", "nano"];
    let shaped = l.starts_with("from_")
        || l.starts_with("to_")
        || l.starts_with("as_")
        || l.contains("_to_");
    let converts = shaped && unitish.iter().any(|u| l.contains(u));
    converts || l.contains("_per_") || l.starts_with("per_") || l.contains("subsec")
}

/// Binary operators across which unit mixing is a bug. `*` and `/` are
/// deliberately absent: multiplying by a scale factor is *how* explicit
/// conversions are written.
const MIX_OPS: &[&str] = &["+", "-", "+=", "-=", "=", "==", "!=", "<", ">", "<=", ">="];

/// One time-unit finding: line + message.
pub type SemFinding = (usize, String);

/// The `time-unit` rule: flag arithmetic/comparison/assignment mixing
/// differently-suffixed time identifiers, and `SimNs` constructed from
/// non-nanosecond values or raw nanosecond magnitudes, unless the
/// statement (or enclosing fn) is an explicit conversion.
pub fn time_unit_findings(sem: &Semantics) -> Vec<SemFinding> {
    let mut out = Vec::new();
    walk_statements(&sem.tree, &mut |stmt| {
        analyze_stmt_units(stmt, &sem.cx, &mut out);
    });
    simns_findings(&sem.tree, &sem.cx, &mut out);
    out.sort();
    out.dedup();
    out
}

/// Walk every statement window: leaf tokens with paren/bracket contents
/// flattened inline (a call chain is one dataflow expression), brace
/// bodies recursed as fresh statement sequences.
fn walk_statements<'a>(nodes: &'a [Node], f: &mut dyn FnMut(&[&'a Token])) {
    let mut stmt: Vec<&'a Token> = Vec::new();
    for node in nodes {
        match node {
            Node::Leaf(t) if matches!(&t.tok, Tok::Op(o) if o == ";") => {
                if !stmt.is_empty() {
                    f(&stmt);
                    stmt.clear();
                }
            }
            Node::Leaf(t) => stmt.push(t),
            Node::Group {
                delim: Delim::Brace,
                children,
                ..
            } => {
                if !stmt.is_empty() {
                    f(&stmt);
                    stmt.clear();
                }
                walk_statements(children, f);
            }
            Node::Group { children, .. } => flatten_into(children, &mut stmt, f),
        }
    }
    if !stmt.is_empty() {
        f(&stmt);
    }
}

fn flatten_into<'a>(nodes: &'a [Node], stmt: &mut Vec<&'a Token>, f: &mut dyn FnMut(&[&'a Token])) {
    for node in nodes {
        match node {
            Node::Leaf(t) => stmt.push(t),
            Node::Group {
                delim: Delim::Brace,
                children,
                ..
            } => walk_statements(children, f),
            Node::Group { children, .. } => flatten_into(children, stmt, f),
        }
    }
}

fn analyze_stmt_units(stmt: &[&Token], cx: &ItemContext, out: &mut Vec<SemFinding>) {
    // Escape hatch: an explicit conversion anywhere in the statement.
    if stmt
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(id) if is_conversion_ident(id)))
    {
        return;
    }
    for (i, t) in stmt.iter().enumerate() {
        let Tok::Op(op) = &t.tok else { continue };
        if !MIX_OPS.contains(&op.as_str()) {
            continue;
        }
        // Conversion helpers are exempt wholesale: `fn from_millis` is
        // *made of* unit mixing.
        if cx
            .enclosing_fn(t.line)
            .map(is_conversion_ident)
            .unwrap_or(false)
        {
            continue;
        }
        // Left operand: the token immediately before the operator must
        // itself carry a unit suffix.
        let Some((lname, lunit)) = (i > 0)
            .then(|| match &stmt[i - 1].tok {
                Tok::Ident(id) => unit_of(id).map(|u| (id.clone(), u)),
                _ => None,
            })
            .flatten()
        else {
            continue;
        };
        // Right operand: first unit-suffixed identifier before the next
        // operator/argument boundary. A `*` or `/` anywhere in the
        // right-hand window marks a scaled conversion
        // (`total_ns / 1e6`, `t_ms * NS`): not a mix.
        let mut rfound: Option<(String, Unit)> = None;
        let mut scaled = false;
        for rt in stmt.iter().skip(i + 1) {
            match &rt.tok {
                Tok::Op(o) if MIX_OPS.contains(&o.as_str()) || o == "," => break,
                Tok::Op(o) if o == "*" || o == "/" => {
                    scaled = true;
                    break;
                }
                Tok::Ident(id) if rfound.is_none() => {
                    if let Some(u) = unit_of(id) {
                        rfound = Some((id.clone(), u));
                    }
                }
                _ => {}
            }
        }
        if scaled {
            continue;
        }
        if let Some((rname, runit)) = rfound {
            if lunit != runit {
                out.push((
                    t.line,
                    format!(
                        "`{lname}` ({}) and `{rname}` ({}) mixed across `{op}` without an explicit conversion",
                        lunit.name(),
                        runit.name()
                    ),
                ));
            }
        }
    }
}

/// `SimNs(…)` constructions: the payload is nanoseconds by contract, so
/// a `_us`/`_ms`/`_s` identifier inside the constructor is a wrong-unit
/// build, and a bare integer literal at millisecond-or-larger magnitude
/// should be spelled `SimNs::from_millis`/`from_secs` or a named const —
/// so the literal that initialises `const NAME: SimNs = SimNs(<lit>)` is
/// exempt.
fn simns_findings(nodes: &[Node], cx: &ItemContext, out: &mut Vec<SemFinding>) {
    for (i, node) in nodes.iter().enumerate() {
        if let Node::Group { children, .. } = node {
            simns_findings(children, cx, out);
        }
        let Node::Leaf(Token {
            tok: Tok::Ident(id),
            line,
        }) = node
        else {
            continue;
        };
        if id != "SimNs" {
            continue;
        }
        let Some(Node::Group {
            delim: Delim::Paren,
            children,
            ..
        }) = nodes.get(i + 1)
        else {
            continue;
        };
        if cx
            .enclosing_fn(*line)
            .map(is_conversion_ident)
            .unwrap_or(false)
        {
            continue;
        }
        let mut flat: Vec<&Token> = Vec::new();
        flatten_all(children, &mut flat);
        if flat
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(id) if is_conversion_ident(id)))
        {
            continue;
        }
        for t in &flat {
            if let Tok::Ident(arg) = &t.tok {
                if let Some(u) = unit_of(arg) {
                    if u != Unit::Ns {
                        out.push((
                            t.line,
                            format!(
                                "`SimNs({arg})` builds nanoseconds from a {}-suffixed value without a conversion",
                                u.name()
                            ),
                        ));
                    }
                }
            }
        }
        // A lone large integer literal: a raw ns constant.
        if flat.len() == 1 && !is_simns_const(&nodes[..i]) {
            if let Tok::Num(n) = &flat[0].tok {
                if int_value(n).map(|v| v >= 1_000_000).unwrap_or(false) {
                    out.push((
                        flat[0].line,
                        format!(
                            "`SimNs({n})` spells a raw nanosecond constant; use SimNs::from_millis/from_secs or a named const"
                        ),
                    ));
                }
            }
        }
    }
}

/// Do the nodes before a `SimNs(…)` end in `const NAME: SimNs =`?
fn is_simns_const(before: &[Node]) -> bool {
    let toks: Vec<&Tok> = before
        .iter()
        .rev()
        .take(5)
        .filter_map(|n| match n {
            Node::Leaf(t) => Some(&t.tok),
            Node::Group { .. } => None,
        })
        .collect();
    matches!(
        toks.as_slice(),
        [Tok::Op(eq), Tok::Ident(ty), Tok::Op(colon), Tok::Ident(_), Tok::Ident(kw)]
            if eq == "=" && ty == "SimNs" && colon == ":" && kw == "const"
    )
}

fn flatten_all<'a>(nodes: &'a [Node], out: &mut Vec<&'a Token>) {
    for node in nodes {
        match node {
            Node::Leaf(t) => out.push(t),
            Node::Group { children, .. } => flatten_all(children, out),
        }
    }
}

// ---------------------------------------------------------------------
// obs-name emission extraction
// ---------------------------------------------------------------------

/// One obs registration/emission site with a literal name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObsEmission {
    /// Namespace the name lives in.
    pub kind: ObsKind,
    /// The emitted name (profile paths slash-joined).
    pub name: String,
    /// 1-based line of the call.
    pub line: usize,
    /// The method that emitted it (for diagnostics).
    pub method: &'static str,
}

/// Metric-registry methods taking the name as their first argument.
const METRIC_METHODS: &[&str] = &[
    "counter",
    "gauge",
    "histogram",
    "histogram_with",
    "set_help",
];
/// Tracer methods taking the span name as their third argument.
const SPAN_METHODS: &[&str] = &["record_sim_s", "start_wall"];

/// Extract every obs emission with a literal name from the tree.
/// Sites whose name argument is not a plain string literal (e.g.
/// `&format!(…)`-built per-cell gauges) are dynamic and skipped — the
/// schema covers those with wildcard rows instead.
pub fn obs_emissions(sem: &Semantics, scrubbed: &Scrubbed) -> Vec<ObsEmission> {
    let mut out = Vec::new();
    obs_walk(&sem.tree, scrubbed, &mut out);
    out
}

fn obs_walk(nodes: &[Node], scrubbed: &Scrubbed, out: &mut Vec<ObsEmission>) {
    for (i, node) in nodes.iter().enumerate() {
        if let Node::Group { children, .. } = node {
            obs_walk(children, scrubbed, out);
            continue;
        }
        let Node::Leaf(Token {
            tok: Tok::Ident(id),
            line,
        }) = node
        else {
            continue;
        };
        // Method-call shape only: `.name(…)`. (`thread::scope` and
        // friends use `::` and never carry a literal first argument,
        // but requiring the dot keeps the trigger honest.)
        let dotted = matches!(
            (i > 0).then(|| &nodes[i - 1]),
            Some(Node::Leaf(Token { tok: Tok::Op(o), .. })) if o == "."
        );
        if !dotted {
            continue;
        }
        let Some(Node::Group {
            delim: Delim::Paren,
            children,
            ..
        }) = nodes.get(i + 1)
        else {
            continue;
        };
        let args = split_args(children);
        let lit = |n: usize| args.get(n).and_then(|a| literal_arg(a, scrubbed));
        let (kind, name, method): (ObsKind, Option<String>, &'static str) = match id.as_str() {
            m if METRIC_METHODS.contains(&m) => (
                ObsKind::Metric,
                lit(0),
                METRIC_METHODS[METRIC_METHODS.iter().position(|x| *x == m).unwrap_or(0)],
            ),
            m if SPAN_METHODS.contains(&m) => (
                ObsKind::Span,
                lit(2),
                SPAN_METHODS[SPAN_METHODS.iter().position(|x| *x == m).unwrap_or(0)],
            ),
            "scope" => (ObsKind::Profile, lit(0), "scope"),
            "record_at" => (ObsKind::Profile, lit(0), "record_at"),
            "scope_under" => {
                // Path = parent/child; both must be literals.
                let joined = match (lit(0), lit(1)) {
                    (Some(p), Some(c)) => Some(format!("{p}/{c}")),
                    _ => None,
                };
                (ObsKind::Profile, joined, "scope_under")
            }
            _ => continue,
        };
        if let Some(name) = name {
            out.push(ObsEmission {
                kind,
                name,
                line: *line,
                method,
            });
        }
    }
}

/// Split a paren group's children on top-level commas.
fn split_args(children: &[Node]) -> Vec<&[Node]> {
    let mut args = Vec::new();
    let mut start = 0usize;
    for (i, n) in children.iter().enumerate() {
        if matches!(n, Node::Leaf(Token { tok: Tok::Op(o), .. }) if o == ",") {
            args.push(&children[start..i]);
            start = i + 1;
        }
    }
    if start < children.len() {
        args.push(&children[start..]);
    }
    args
}

/// An argument that is a plain string literal (optionally `&`-borrowed):
/// returns its body. Anything else — idents, `format!`, concatenations —
/// is dynamic.
fn literal_arg(arg: &[Node], scrubbed: &Scrubbed) -> Option<String> {
    let sig: Vec<&Token> = arg
        .iter()
        .filter_map(|n| match n {
            Node::Leaf(t) => Some(t),
            Node::Group { .. } => None,
        })
        .collect();
    if arg.iter().any(|n| matches!(n, Node::Group { .. })) {
        return None;
    }
    let lit = match sig.as_slice() {
        [Token {
            tok: Tok::Str(i), ..
        }] => Some(*i),
        [Token {
            tok: Tok::Op(o), ..
        }, Token {
            tok: Tok::Str(i), ..
        }] if o == "&" => Some(*i),
        _ => None,
    }?;
    scrubbed.strings.get(lit).map(|s| s.text.clone())
}

// ---------------------------------------------------------------------
// event-source panic paths
// ---------------------------------------------------------------------

/// Assert-family macros. Inside `Advance` impls and the event queue, even
/// an `assert!` is a panic path: an unattended fabric must degrade, not
/// die, when a scheduling invariant slips. Clippy has no lint for a
/// release-mode `assert!`; every crate with an `Advance` impl is denied
/// `unwrap`/`expect`/`panic!` and the rest of the panic family by
/// clippy, so this rule covers only the asserts.
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// Traits whose impl blocks form the event-engine hot path.
pub const EVENT_TRAITS: &[&str] = &["Advance"];

/// The `event-panic` rule body: token-exact assert-family macro calls
/// on lines inside an `impl Advance for …` block. The caller extends the
/// scope to whole files (the `xg-sim` queue) via config and filters out
/// `#[cfg(test)]` regions.
pub fn event_panic_findings(sem: &Semantics, whole_file: bool) -> Vec<SemFinding> {
    let mut out = Vec::new();
    panic_walk(&sem.tree, sem, whole_file, &mut out);
    out
}

fn panic_walk(nodes: &[Node], sem: &Semantics, whole_file: bool, out: &mut Vec<SemFinding>) {
    for (i, node) in nodes.iter().enumerate() {
        if let Node::Group { children, .. } = node {
            panic_walk(children, sem, whole_file, out);
            continue;
        }
        let Node::Leaf(Token {
            tok: Tok::Ident(id),
            line,
        }) = node
        else {
            continue;
        };
        if !whole_file && !sem.cx.in_impl_of(*line, EVENT_TRAITS) {
            continue;
        }
        let bang = matches!(
            nodes.get(i + 1),
            Some(Node::Leaf(Token { tok: Tok::Op(o), .. })) if o == "!"
        );
        if bang && ASSERT_MACROS.contains(&id.as_str()) {
            out.push((
                *line,
                format!("`{id}!` on an event-engine path: Advance impls must return typed errors, not abort the fabric"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    fn sem(src: &str) -> (Semantics, Scrubbed) {
        let s = scrub(src);
        (analyze(&s), s)
    }

    #[test]
    fn unit_mix_across_operators() {
        let (m, _) = sem("fn f(a_ms: u64, b_ns: u64) -> u64 { a_ms + b_ns }\n");
        let f = time_unit_findings(&m);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].1.contains("`a_ms` (ms)"));
        assert!(f[0].1.contains("`b_ns` (ns)"));
    }

    #[test]
    fn same_unit_and_scaled_conversion_pass() {
        let (m, _) =
            sem("fn f(a_ms: u64, b_ms: u64) -> u64 { let c_ms = a_ms - b_ms; c_ms * 1_000 }\n");
        assert!(time_unit_findings(&m).is_empty());
        // `*`/`/` are conversion spellings.
        let (m, _) = sem("fn f(t_s: f64) -> f64 { t_s * 1_000.0 }\n");
        assert!(time_unit_findings(&m).is_empty());
    }

    #[test]
    fn conversion_ident_escapes_statement() {
        let (m, _) =
            sem("fn f(a_ms: u64) -> u64 { let t_ns = a_ms * NS_PER_MS; to_ns(a_ms) + t_ns }\n");
        // `NS_PER_MS` and `to_ns` both mark intent.
        assert!(time_unit_findings(&m).is_empty());
    }

    #[test]
    fn conversion_fn_is_exempt_wholesale() {
        let (m, _) = sem("fn from_millis(ms: u64) -> SimNs { SimNs(ms_to_ns) }\nfn as_millis_f64(t_ns: u64, w_ms: u64) -> bool { t_ns < w_ms }\n");
        assert!(time_unit_findings(&m).is_empty());
    }

    #[test]
    fn simns_wrong_unit_and_raw_constant() {
        // The named const the message asks for is exempt; the same literal
        // bound by `let` is not.
        let (m, _) = sem("fn f(gap_ms: u64) { q.push(SimNs(gap_ms), 0, 0); }\nfn g() { let t: SimNs = SimNs(300_000_000_000); }\nimpl SimNs { pub const SECOND: SimNs = SimNs(1_000_000_000); }\n");
        let f = time_unit_findings(&m);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].1.contains("ms-suffixed"));
        assert!(f[1].1.contains("raw nanosecond constant"));
    }

    #[test]
    fn simns_small_literals_and_ns_idents_pass() {
        let (m, _) = sem("fn f(t_ns: u64) { q.push(SimNs(t_ns), 0, 0); let z = SimNs(0); let c = SimNs(100); }\n");
        assert!(time_unit_findings(&m).is_empty());
    }

    #[test]
    fn generics_are_not_comparisons() {
        let (m, _) = sem("fn f(xs_ms: Vec<u64>, t_s: Option<u64>) -> usize { xs_ms.len() }\n");
        assert!(time_unit_findings(&m).is_empty());
    }

    #[test]
    fn obs_emissions_extracted() {
        let src = "\
fn wire(reg: &Registry, tr: &Tracer, prof: &Profiler) {
    reg.counter(\"fabric.report_cycles\").inc();
    reg.gauge(&format!(\"fabric.ran.{}.fade_db\", name)).set(0.0);
    tr.record_sim_s(trace, None,
        \"fabric.cycle.transfer\", t0, t1, vec![]);
    prof.scope_under(\"ric.step\", \"xapp\");
    prof.record_at(\"cfd.step/sweep\", 1);
}
";
        let (m, s) = sem(src);
        let e = obs_emissions(&m, &s);
        let names: Vec<(&ObsKind, &str)> = e.iter().map(|x| (&x.kind, x.name.as_str())).collect();
        assert!(names.contains(&(&ObsKind::Metric, "fabric.report_cycles")));
        assert!(
            names.contains(&(&ObsKind::Span, "fabric.cycle.transfer")),
            "{names:?}"
        );
        assert!(names.contains(&(&ObsKind::Profile, "ric.step/xapp")));
        assert!(names.contains(&(&ObsKind::Profile, "cfd.step/sweep")));
        // The format!-built gauge is dynamic: skipped, not misread.
        assert_eq!(e.iter().filter(|x| x.kind == ObsKind::Metric).count(), 1);
    }

    #[test]
    fn event_panic_in_advance_impl_only() {
        let src = "\
impl Advance for Thing {
    fn advance_to(&mut self, t: SimNs) -> Result<(), E> {
        let v = self.queue.pop().unwrap();
        assert_eq!(v.source, 0);
        Ok(())
    }
}
fn elsewhere() { assert!(opt.is_some()); }
";
        let (m, _) = sem(src);
        let f = event_panic_findings(&m, false);
        let lines: Vec<usize> = f.iter().map(|x| x.0).collect();
        // `.unwrap()` is clippy's (`unwrap_used`), not this rule's.
        assert_eq!(lines, vec![4], "{f:?}");
        let whole = event_panic_findings(&m, true);
        assert_eq!(whole.len(), 2, "whole-file scope adds line 8");
    }
}
