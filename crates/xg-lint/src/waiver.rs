//! Waiver comments: `// xg-lint: allow(<rule>, <reason>)`.
//!
//! A waiver suppresses findings of exactly one rule on the waiver's own
//! line and the line directly below it (so it works both as a trailing
//! comment and as a comment immediately above the offending line). The
//! reason is mandatory: a waiver without one — or naming an unknown rule
//! — is itself reported as a `bad-waiver` finding, which cannot be
//! waived. Reasons are carried verbatim into the report so a
//! reviewer can audit every exemption with `--show-waived`.

use crate::lexer::Comment;
use crate::rules::Rule;

/// One parsed waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// The rule being waived.
    pub rule: Rule,
    /// The mandatory justification.
    pub reason: String,
}

/// A malformed waiver comment, reported as a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadWaiver {
    /// 1-based line of the comment.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

/// Scan comments for waivers. Returns the valid waivers and the
/// malformed ones.
pub fn parse_waivers(comments: &[Comment]) -> (Vec<Waiver>, Vec<BadWaiver>) {
    let mut waivers = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // Doc comments (`///`, `//!`, `/**`, `/*!`) never carry waivers:
        // they are documentation *about* the syntax, not directives. The
        // lexer strips only the two marker characters, so a doc comment's
        // text starts with the third (`/`, `!`, or `*`).
        if c.text.starts_with(['/', '!', '*']) {
            continue;
        }
        let Some(pos) = c.text.find("xg-lint:") else {
            continue;
        };
        let directive = c.text[pos + "xg-lint:".len()..].trim();
        let Some(args) = directive
            .strip_prefix("allow")
            .map(str::trim_start)
            .and_then(|d| d.strip_prefix('('))
        else {
            bad.push(BadWaiver {
                line: c.line,
                message: format!("unrecognized xg-lint directive: `{}`", directive),
            });
            continue;
        };
        // Reason text may itself contain parentheses; take everything up
        // to the *last* closing paren in the comment.
        let Some(end) = args.rfind(')') else {
            bad.push(BadWaiver {
                line: c.line,
                message: "unterminated waiver: missing `)`".to_string(),
            });
            continue;
        };
        let body = &args[..end];
        let (rule_name, reason) = match body.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (body.trim(), ""),
        };
        let Some(rule) = Rule::from_name(rule_name) else {
            bad.push(BadWaiver {
                line: c.line,
                message: format!("waiver names unknown rule `{rule_name}`"),
            });
            continue;
        };
        if reason.is_empty() {
            bad.push(BadWaiver {
                line: c.line,
                message: format!(
                    "waiver for `{rule_name}` has no reason; write \
                     `xg-lint: allow({rule_name}, <why this site is safe>)`"
                ),
            });
            continue;
        }
        waivers.push(Waiver {
            line: c.line,
            rule,
            reason: reason.to_string(),
        });
    }
    (waivers, bad)
}

/// Does a waiver cover a finding of `rule` on `line`? Waivers cover
/// their own line and the next one.
pub fn find_waiver(waivers: &[Waiver], rule: Rule, line: usize) -> Option<&Waiver> {
    waivers
        .iter()
        .find(|w| w.rule == rule && (w.line == line || w.line + 1 == line))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(line: usize, text: &str) -> Comment {
        Comment {
            line,
            text: text.to_string(),
        }
    }

    #[test]
    fn well_formed_waiver_parses() {
        let (w, bad) = parse_waivers(&[comment(
            3,
            " xg-lint: allow(time-unit, the sum is logged, never fed back)",
        )]);
        assert!(bad.is_empty());
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].rule, Rule::TimeUnit);
        assert_eq!(w[0].reason, "the sum is logged, never fed back");
    }

    #[test]
    fn reason_may_contain_parens() {
        let (w, bad) = parse_waivers(&[comment(
            1,
            "xg-lint: allow(float-reduce, max() is order-independent (assoc + comm))",
        )]);
        assert!(bad.is_empty());
        assert_eq!(w[0].reason, "max() is order-independent (assoc + comm)");
    }

    #[test]
    fn missing_reason_is_bad() {
        let (w, bad) = parse_waivers(&[comment(1, "xg-lint: allow(time-unit)")]);
        assert!(w.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("no reason"));
    }

    #[test]
    fn unknown_rule_is_bad() {
        let (w, bad) = parse_waivers(&[comment(1, "xg-lint: allow(no-such-rule, because)")]);
        assert!(w.is_empty());
        assert!(bad[0].message.contains("unknown rule"));
    }

    #[test]
    fn unrelated_comments_are_ignored() {
        let (w, bad) = parse_waivers(&[comment(1, "normal comment about xg-lint rules")]);
        assert!(w.is_empty());
        assert!(bad.is_empty());
    }

    #[test]
    fn doc_comments_never_carry_waivers() {
        // A doc comment's directive reaches the parser with a leading `/`.
        let (w, bad) = parse_waivers(&[
            comment(1, "/ xg-lint: allow(time-unit, documented example)"),
            comment(2, "! xg-lint: allow(bogus-rule)"),
        ]);
        assert!(w.is_empty());
        assert!(bad.is_empty());
    }

    #[test]
    fn waiver_covers_own_and_next_line() {
        let (w, _) = parse_waivers(&[comment(
            5,
            "xg-lint: allow(float-reduce, max is order-independent)",
        )]);
        assert!(find_waiver(&w, Rule::FloatReduce, 5).is_some());
        assert!(find_waiver(&w, Rule::FloatReduce, 6).is_some());
        assert!(find_waiver(&w, Rule::FloatReduce, 7).is_none());
        assert!(find_waiver(&w, Rule::TimeUnit, 6).is_none());
    }
}
