//! The rule set: only what clippy cannot express. Version
//! [`RULES_VERSION`](crate::RULES_VERSION) must be bumped whenever a rule
//! is added, removed, or changes what it matches.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::regions::{parallel_regions, test_regions};
use crate::schema::{ObsKind, ObsSchema};
use crate::semantic::{self, ObsEmission};
use crate::waiver::{find_waiver, parse_waivers, Waiver};

/// The enforced rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `f32`/`f64` fold/sum/reduce inside a parallel statement without a
    /// documented order guarantee.
    FloatReduce,
    /// Arithmetic/comparison/assignment mixing differently-suffixed time
    /// identifiers (`_ns`/`_us`/`_ms`/`_s`), or `SimNs` built from
    /// non-nanosecond values, without an explicit conversion.
    TimeUnit,
    /// A metric/span/profile name emitted through `xg-obs` that is not
    /// declared in `obs-schema.toml` — or a schema row no code emits.
    ObsName,
    /// A waiver comment that suppresses no finding. Not itself waivable:
    /// the fix is deleting the waiver.
    StaleWaiver,
    /// Assert-family macros inside `Advance` impls or the `xg-sim` queue
    /// (clippy's panic lints cover the rest of the panic family there).
    EventPanic,
    /// A waiver comment that is malformed, reasonless, or names an
    /// unknown rule. Not itself waivable.
    BadWaiver,
}

impl Rule {
    /// Stable kebab-case name used in reports and waiver comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::FloatReduce => "float-reduce",
            Rule::TimeUnit => "time-unit",
            Rule::ObsName => "obs-name",
            Rule::StaleWaiver => "stale-waiver",
            Rule::EventPanic => "event-panic",
            Rule::BadWaiver => "bad-waiver",
        }
    }

    /// Parse a waiver-comment rule name. `bad-waiver` and `stale-waiver`
    /// are absent on purpose: a broken waiver cannot be waived away —
    /// the only fix is repairing or deleting it.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "float-reduce" => Some(Rule::FloatReduce),
            "time-unit" => Some(Rule::TimeUnit),
            "obs-name" => Some(Rule::ObsName),
            "event-panic" => Some(Rule::EventPanic),
            _ => None,
        }
    }

    /// Every waivable rule, for `--rules` output.
    pub fn all() -> &'static [Rule] {
        &[
            Rule::FloatReduce,
            Rule::TimeUnit,
            Rule::ObsName,
            Rule::EventPanic,
        ]
    }

    /// One-line description for `--rules` and the docs.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::FloatReduce => {
                "no f32/f64 fold/sum/reduce inside parallel statements unless \
                 the reduction is order-independent (document it in the waiver)"
            }
            Rule::TimeUnit => {
                "no arithmetic/comparison/assignment mixing _ns/_us/_ms/_s \
                 identifiers, and no SimNs built from non-ns values or raw \
                 ns constants, without an explicit conversion"
            }
            Rule::ObsName => {
                "every metric/span/profile name passed to xg-obs must be \
                 declared in obs-schema.toml, and every non-reserved schema \
                 row must be emitted somewhere"
            }
            Rule::StaleWaiver => {
                "a waiver that suppresses no finding is dead policy: delete \
                 it (or fix the rule name) so the audit trail stays honest"
            }
            Rule::EventPanic => {
                "no assert!/assert_eq!/assert_ne! inside Advance impls or the \
                 xg-sim queue: the event engine must degrade through typed \
                 errors, never abort"
            }
            Rule::BadWaiver => "a waiver comment that is malformed or lacks a reason",
        }
    }
}

/// One finding, waived or not.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human diagnostic (what matched).
    pub message: String,
    /// Suppressed by a reasoned waiver?
    pub waived: bool,
    /// The waiver's reason, when waived.
    pub reason: Option<String>,
}

/// `float-reduce` substrings, matched as-is on scrubbed lines.
const FLOAT_REDUCE_PATTERNS: &[&str] = &[
    ".sum::<f32>",
    ".sum::<f64>",
    ".product::<f32>",
    ".product::<f64>",
    ".fold(",
    ".reduce(",
];

/// Pass-1 output for one file: findings of every file-local rule, plus
/// the facts the cross-file pass needs (obs emissions, waivers and which
/// of them already earned their keep).
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// Workspace-relative path with forward slashes.
    pub relpath: String,
    /// File-local findings (everything except `obs-name` and
    /// `stale-waiver`, which need the whole workspace).
    pub findings: Vec<Finding>,
    /// Obs emission sites with literal names, outside test code.
    pub emissions: Vec<ObsEmission>,
    /// Every well-formed waiver in the file.
    pub waivers: Vec<Waiver>,
    /// Lines of waivers that suppressed at least one pass-1 finding.
    pub used_waivers: BTreeSet<usize>,
}

/// Pass 1: analyze one file in isolation. `relpath` is
/// workspace-relative with forward slashes; it decides which rules apply
/// via `cfg`.
pub fn analyze_file(relpath: &str, source: &str, cfg: &Config) -> FileAnalysis {
    let scrubbed = crate::lexer::scrub(source);
    let tests = test_regions(&scrubbed);
    let parallel = parallel_regions(&scrubbed);
    let (waivers, bad_waivers) = parse_waivers(&scrubbed.comments);
    // Integration-test files are test code end to end, without any
    // `#[cfg(test)]` marker for the region tracker to see.
    let integration_test = relpath.contains("/tests/") || relpath.starts_with("tests/");
    let mut a = FileAnalysis {
        relpath: relpath.to_string(),
        findings: Vec::new(),
        emissions: Vec::new(),
        waivers,
        used_waivers: BTreeSet::new(),
    };

    for bw in bad_waivers {
        a.findings.push(Finding {
            file: relpath.to_string(),
            line: bw.line,
            rule: Rule::BadWaiver,
            message: bw.message,
            waived: false,
            reason: None,
        });
    }

    for (idx, line) in scrubbed.lines.iter().enumerate() {
        let lineno = idx + 1;
        if parallel.contains(lineno) && !tests.contains(lineno) {
            for pat in FLOAT_REDUCE_PATTERNS {
                if line.contains(pat) {
                    push(
                        &mut a,
                        lineno,
                        Rule::FloatReduce,
                        format!("`{pat}` inside a parallel statement: reduction order must be documented"),
                    );
                }
            }
        }
    }

    // Semantic (token-tree) rules.
    let sem = semantic::analyze(&scrubbed);

    if cfg.is_time_path(relpath) && !integration_test {
        for (line, msg) in semantic::time_unit_findings(&sem) {
            if !tests.contains(line) {
                push(&mut a, line, Rule::TimeUnit, msg);
            }
        }
    }

    // event-panic: impl-scoped everywhere, whole-file in event paths.
    if !integration_test {
        let whole_file = cfg.is_event_path(relpath);
        for (line, msg) in semantic::event_panic_findings(&sem, whole_file) {
            if !tests.contains(line) {
                push(&mut a, line, Rule::EventPanic, msg);
            }
        }
    }

    if cfg.is_obs_path(relpath) && !integration_test {
        a.emissions = semantic::obs_emissions(&sem, &scrubbed)
            .into_iter()
            .filter(|e| !tests.contains(e.line))
            .collect();
    }

    a
}

/// Pass 2: cross-file finalization. Checks every collected obs emission
/// against the schema (when one is given), reports schema rows nothing
/// emits, and turns waivers that suppressed nothing into `stale-waiver`
/// findings. `schema` pairs the parsed schema with the report-relative
/// path of its file.
pub fn finalize(
    mut analyses: Vec<FileAnalysis>,
    schema: Option<(&ObsSchema, &str)>,
) -> Vec<Finding> {
    let mut findings = Vec::new();

    if let Some((schema, schema_path)) = schema {
        // Forward: every emitted literal name must be declared.
        let mut emitted: BTreeSet<(ObsKind, String)> = BTreeSet::new();
        for a in &mut analyses {
            for e in std::mem::take(&mut a.emissions) {
                emitted.insert((e.kind, e.name.clone()));
                if !schema.covers(e.kind, &e.name) {
                    let waiver = find_waiver(&a.waivers, Rule::ObsName, e.line);
                    if let Some(w) = waiver {
                        a.used_waivers.insert(w.line);
                    }
                    a.findings.push(Finding {
                        file: a.relpath.clone(),
                        line: e.line,
                        rule: Rule::ObsName,
                        message: format!(
                            "`.{}(\"{}\")` emits a name missing from {schema_path} [{}]",
                            e.method,
                            e.name,
                            e.kind.table()
                        ),
                        waived: waiver.is_some(),
                        reason: waiver.map(|w| w.reason.clone()),
                    });
                }
            }
        }
        // Reverse: every non-reserved, non-wildcard row must be emitted.
        for entry in schema.entries() {
            if entry.wildcard || entry.reserved {
                continue;
            }
            if !emitted.contains(&(entry.kind, entry.name.clone())) {
                findings.push(Finding {
                    file: schema_path.to_string(),
                    line: entry.line,
                    rule: Rule::ObsName,
                    message: format!(
                        "schema row `{}` [{}] is emitted nowhere: delete it or mark it `reserved |`",
                        entry.name,
                        entry.kind.table()
                    ),
                    waived: false,
                    reason: None,
                });
            }
        }
    }

    // Stale waivers: everything that never suppressed a finding.
    for a in &mut analyses {
        for w in &a.waivers {
            if !a.used_waivers.contains(&w.line) {
                a.findings.push(Finding {
                    file: a.relpath.clone(),
                    line: w.line,
                    rule: Rule::StaleWaiver,
                    message: format!(
                        "waiver for `{}` suppresses nothing (reason was: {}) — delete it",
                        w.rule.name(),
                        w.reason
                    ),
                    waived: false,
                    reason: None,
                });
            }
        }
        findings.append(&mut a.findings);
    }

    findings.sort_by(|x, y| (&x.file, x.line).cmp(&(&y.file, y.line)));
    findings
}

/// Lint one file's source through both passes, with no obs schema (the
/// single-file entry point used by fixture tests and doc examples).
pub fn lint_source(relpath: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    finalize(vec![analyze_file(relpath, source, cfg)], None)
}

fn push(a: &mut FileAnalysis, line: usize, rule: Rule, message: String) {
    let waiver = find_waiver(&a.waivers, rule, line);
    if let Some(w) = waiver {
        a.used_waivers.insert(w.line);
    }
    let (waived, reason) = (waiver.is_some(), waiver.map(|w| w.reason.clone()));
    a.findings.push(Finding {
        file: a.relpath.clone(),
        line,
        rule,
        message,
        waived,
        reason,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_scope() -> Config {
        Config::everything()
    }

    fn findings(src: &str) -> Vec<Finding> {
        lint_source("crates/x/src/lib.rs", src, &all_scope())
    }

    #[test]
    fn ident_boundaries() {
        // Units come from whole tokens: `_ms` inside a longer identifier,
        // or a bare `ms`, is not a suffix.
        let mix = |l: &str, r: &str| findings(&format!("fn f() -> u64 {{ {l} + {r} }}\n"));
        assert_eq!(mix("a_ms", "b_ns").len(), 1);
        assert!(mix("a_ms_total", "b_ns").is_empty());
        assert!(mix("ms", "b_ns").is_empty());
    }

    #[test]
    fn string_contents_do_not_trigger() {
        let f = findings("let msg = \"a_ms + b_ns inside xs.par_iter().sum::<f64>()\";\n");
        assert!(f.is_empty());
    }

    #[test]
    fn waived_finding_is_marked_not_dropped() {
        let f = findings(
            "// xg-lint: allow(time-unit, the sum is logged, never fed back)\n\
             fn f(a_ms: u64, b_ns: u64) -> u64 { a_ms + b_ns }\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].waived);
        assert_eq!(
            f[0].reason.as_deref(),
            Some("the sum is logged, never fed back")
        );
    }

    #[test]
    fn unit_mix_in_test_mod_is_exempt() {
        let src = "\
fn lib(a_ms: u64) -> u64 { a_ms }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let (c_ms, b_ns) = (super::lib(3), 1); let _ = c_ms + b_ns; }
}
";
        assert!(findings(src).is_empty());
        // The same statement outside the test module is a finding.
        assert_eq!(
            findings("fn f(c_ms: u64, b_ns: u64) -> u64 { c_ms + b_ns }\n").len(),
            1
        );
    }

    #[test]
    fn float_fold_outside_parallel_is_fine() {
        let f = findings("fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n");
        assert!(f.is_empty());
    }
}
