//! Fixture-file tests: one positive and one negative case per rule,
//! plus waiver-comment parsing. Every positive fixture pins its rule to
//! exact lines, so deleting (or breaking) any single rule's
//! implementation fails at least one test here.

use std::path::Path;

use xg_lint::{analyze_file, finalize, lint_source, Config, Finding, ObsSchema, Rule};

fn fixture_source(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lint one fixture under the all-paths-in-scope config.
fn lint_fixture(name: &str) -> Vec<Finding> {
    lint_fixture_with(name, &Config::everything())
}

fn lint_fixture_with(name: &str, cfg: &Config) -> Vec<Finding> {
    lint_source(&format!("fixtures/{name}"), &fixture_source(name), cfg)
}

/// Lint one fixture file against one fixture schema, running both
/// passes exactly as `lint_root` does for the workspace.
fn lint_fixture_against_schema(name: &str, schema_name: &str) -> Vec<Finding> {
    let schema = ObsSchema::parse(&fixture_source(schema_name))
        .unwrap_or_else(|e| panic!("fixture schema {schema_name}: {e}"));
    let analysis = analyze_file(
        &format!("fixtures/{name}"),
        &fixture_source(name),
        &Config::everything(),
    );
    finalize(
        vec![analysis],
        Some((&schema, &format!("fixtures/{schema_name}"))),
    )
}

fn lines_of(findings: &[Finding], rule: Rule) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule && !f.waived)
        .map(|f| f.line)
        .collect()
}

#[test]
fn float_reduce_positive() {
    let f = lint_fixture("float_reduce_pos.rs");
    let lines = lines_of(&f, Rule::FloatReduce);
    assert!(lines.contains(&9), ".fold in par statement: {lines:?}");
    assert!(
        lines.contains(&10),
        ".sum::<f64> in par statement: {lines:?}"
    );
}

#[test]
fn float_reduce_negative() {
    let f = lint_fixture("float_reduce_neg.rs");
    assert!(
        f.is_empty(),
        "serial reductions after the parallel statement must pass: {f:?}"
    );
}

#[test]
fn waiver_parsing() {
    let f = lint_fixture("waivers.rs");
    // Two time-unit findings waived with reasons (line-above and trailing).
    let waived: Vec<_> = f
        .iter()
        .filter(|f| f.rule == Rule::TimeUnit && f.waived)
        .collect();
    assert_eq!(waived.len(), 2, "both logged legs waived: {f:?}");
    assert_eq!(
        waived[0].reason.as_deref(),
        Some("logged beside the ns leg, never fed back")
    );
    assert_eq!(
        waived[1].reason.as_deref(),
        Some("second leg of the same log line")
    );
    // The reasonless waiver does not waive, and is itself a finding.
    let unwaived = lines_of(&f, Rule::TimeUnit);
    assert_eq!(unwaived, vec![14], "reasonless waiver must not waive");
    let bad = lines_of(&f, Rule::BadWaiver);
    assert_eq!(
        bad,
        vec![13, 15],
        "reasonless + unknown-rule waivers: {f:?}"
    );
}

#[test]
fn report_json_round_trips_rule_names() {
    // Every waivable rule's name parses back; bad-waiver and
    // stale-waiver are unwaivable.
    for rule in Rule::all() {
        assert_eq!(Rule::from_name(rule.name()), Some(*rule));
    }
    assert_eq!(Rule::from_name("bad-waiver"), None);
    assert_eq!(Rule::from_name("stale-waiver"), None);
}

// ---------------------------------------------------------------------
// v2 semantic rules
// ---------------------------------------------------------------------

#[test]
fn time_unit_positive() {
    let f = lint_fixture("time_unit_pos.rs");
    let lines: std::collections::BTreeSet<usize> =
        lines_of(&f, Rule::TimeUnit).into_iter().collect();
    // 6: ms + ns (and d_ns = a_ms); 7: us < ms compare;
    // 14: SimNs(gap_ms); 18: SimNs(raw 5s-in-ns literal).
    assert_eq!(
        lines,
        [6, 7, 14, 18].into_iter().collect(),
        "findings: {f:?}"
    );
}

#[test]
fn time_unit_negative() {
    let f = lint_fixture("time_unit_neg.rs");
    assert!(
        lines_of(&f, Rule::TimeUnit).is_empty(),
        "same-unit math, scaled expressions, and conversion helpers must pass: {f:?}"
    );
}

#[test]
fn obs_name_positive_forward_and_reverse() {
    let f = lint_fixture_against_schema("obs_name_pos.rs", "obs_schema_pos.toml");
    // Forward: the three typo emissions, reported against the .rs file.
    let forward: Vec<usize> = f
        .iter()
        .filter(|x| x.rule == Rule::ObsName && !x.waived && x.file.ends_with(".rs"))
        .map(|x| x.line)
        .collect();
    assert_eq!(
        forward,
        vec![6, 8, 10],
        "undeclared counter/span/profile names: {f:?}"
    );
    // Reverse: the dead schema row, reported against the schema file.
    let dead: Vec<_> = f.iter().filter(|x| x.file.ends_with(".toml")).collect();
    assert_eq!(dead.len(), 1, "exactly the `fixture.dead` row: {f:?}");
    assert!(
        dead[0].message.contains("`fixture.dead`") && dead[0].message.contains("emitted nowhere"),
        "reverse-check message: {:?}",
        dead[0]
    );
}

#[test]
fn obs_name_negative_round_trips() {
    let f = lint_fixture_against_schema("obs_name_neg.rs", "obs_schema_neg.toml");
    assert!(
        f.is_empty(),
        "declared names, wildcard-covered dynamic names, reserved rows, \
         and test-region emissions must pass: {f:?}"
    );
}

#[test]
fn stale_waiver_positive() {
    let f = lint_fixture("stale_waiver_pos.rs");
    assert_eq!(
        lines_of(&f, Rule::StaleWaiver),
        vec![3],
        "the waiver suppressing nothing: {f:?}"
    );
    assert!(
        lines_of(&f, Rule::TimeUnit).is_empty(),
        "the live waiver still waives: {f:?}"
    );
}

#[test]
fn stale_waiver_negative() {
    let f = lint_fixture("stale_waiver_neg.rs");
    assert!(
        lines_of(&f, Rule::StaleWaiver).is_empty(),
        "a waiver with a live finding is not stale: {f:?}"
    );
    assert!(lines_of(&f, Rule::TimeUnit).is_empty());
}

/// Event-panic fixture config: the whole file treated as event-queue
/// code.
fn event_cfg() -> Config {
    let mut cfg = Config::everything();
    cfg.event_paths = vec![String::new()];
    cfg
}

#[test]
fn event_panic_positive_whole_file() {
    let f = lint_fixture_with("event_panic_pos.rs", &event_cfg());
    // assert! + assert_ne! in the Advance impl; the inherent impl's
    // assert_eq! and the free fn's assert! are caught by queue scope
    // only. The impl's `.unwrap()` is clippy's (`unwrap_used`).
    assert_eq!(
        lines_of(&f, Rule::EventPanic),
        vec![9, 10, 17, 23],
        "findings: {f:?}"
    );
}

#[test]
fn event_panic_impl_scoped_under_default_config() {
    // Outside the queue's own files, only the Advance impl is in scope.
    let f = lint_fixture("event_panic_pos.rs");
    assert_eq!(
        lines_of(&f, Rule::EventPanic),
        vec![9, 10],
        "impl-scoped asserts only: {f:?}"
    );
}

#[test]
fn event_panic_negative() {
    let f = lint_fixture_with("event_panic_neg.rs", &event_cfg());
    assert!(
        lines_of(&f, Rule::EventPanic).is_empty(),
        "typed errors + test-only asserts must pass: {f:?}"
    );
}
